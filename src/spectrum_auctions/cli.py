"""Command-line entry points for grid synthesis, workloads, and sweeps.

Subcommands:
  gen-occupancy   synthesize a daily-repeating occupancy grid CSV
  gen-requests    draw a request batch and save it as CSV
  run             price one request file with the mechanisms
  sweep           draw workloads over a cartesian grid of lambda, set and eta_s

``run`` and ``sweep`` write the results CSV described in the README.
Timing is off by default so identical seeds give byte-identical output;
pass --timing to fill the runtime_ms column instead.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .experiment import MECHANISM_ORDER, ExperimentPlan, run_experiment, write_results_csv
from .market import AuctionConfig, SpectrumAuctionError
from .workload import (
    DAY_SECONDS,
    DEFAULT_SLOT_SECONDS,
    WorkloadSpec,
    generate_requests,
    load_occupancy,
    load_requests,
    save_occupancy,
    save_requests,
    synthesize_occupancy,
)


class _Parser(argparse.ArgumentParser):
    """Raises parse errors as ValueError, so ``main`` prints them as one line.

    Flags must be spelled out: with prefix matching, ``--set`` would read as
    ``--sets`` and ``--eta-s`` as ``--eta-s-list`` on ``sweep``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ValueError(message)


def _comma_list(parse, what: str):
    """An argparse type reading a comma list of ``parse``d values, ``what`` naming them in errors."""
    def values(text: str) -> list:
        try:
            return [parse(x) for x in text.split(",") if x]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of {what}") from None
    return values


def _mechanisms(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _add_clearing_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=AuctionConfig.beta,
                   help="preemption threshold factor (default 1+sqrt(2))")
    p.add_argument("--xi", type=float, default=AuctionConfig.xi,
                   help="bid granularity (default %(default)s)")
    p.add_argument("--mechanisms", type=_mechanisms, default=MECHANISM_ORDER,
                   help="comma list out of vcg,pvg (default both)")
    p.add_argument("--day", type=int, default=None,
                   help="slice this 24h day out of the grid before running")
    p.add_argument("--vcg-max-jobs", type=int, default=ExperimentPlan.vcg_max_jobs,
                   help="exact-solver job cap (default %(default)s)")
    p.add_argument("--timing", action="store_true",
                   help="fill runtime_ms (breaks byte-identical reruns)")
    p.add_argument("--out", required=True, help="results CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectrum-auction",
        description="Truthful spectrum auction mechanisms and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-occupancy", help="synthesize an occupancy grid CSV")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--days", type=int, default=5)
    p.add_argument("--duty-cycle", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slot-seconds", type=int, default=DEFAULT_SLOT_SECONDS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-requests", help="draw a request batch CSV")
    p.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="number of requests")
    p.add_argument("--set", dest="set_kind", type=int, choices=(1, 2), default=WorkloadSpec.set_kind)
    p.add_argument("--delta", type=float, default=WorkloadSpec.hot_fraction)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=DAY_SECONDS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="price one request file")
    p.add_argument("--grid", required=True, help="occupancy CSV path")
    p.add_argument("--requests", required=True, help="request CSV, priced as one batch")
    p.add_argument("--eta-s", type=float, default=AuctionConfig.eta_s,
                   help="reserve price per second")
    _add_clearing_flags(p)

    p = sub.add_parser("sweep", help="cartesian sweep over lambda, set and eta_s")
    p.add_argument("--grid", required=True)
    p.add_argument("--lambda-list", type=_comma_list(int, "integers"), required=True,
                   help="comma list, e.g. 8,15,25")
    p.add_argument("--eta-s-list", type=_comma_list(float, "numbers"), default=[AuctionConfig.eta_s])
    p.add_argument("--sets", type=_comma_list(int, "integers"), default=[1, 2])
    p.add_argument("--trials", type=int, default=ExperimentPlan.trials)
    p.add_argument("--seed", type=int, default=ExperimentPlan.master_seed,
                   help="master seed (default %(default)s)")
    p.add_argument("--delta", type=float, default=WorkloadSpec.hot_fraction,
                   help="hot-time request fraction for set 2 (default %(default)s)")
    _add_clearing_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input ends in a one-line error and exit code 2."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return _run(build_parser().parse_args(argv))
    except (SpectrumAuctionError, ValueError, OSError) as err:
        print(f"spectrum-auction: error: {err}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "gen-occupancy":
        grid = synthesize_occupancy(args.channels, args.days, args.duty_cycle,
                                    args.seed, slot_seconds=args.slot_seconds)
        save_occupancy(grid, args.out)
        return 0

    if args.command == "gen-requests":
        spec = WorkloadSpec(n_requests=args.lam, set_kind=args.set_kind,
                            hot_fraction=args.delta, horizon=args.horizon,
                            seed=args.seed)
        save_requests(generate_requests(spec), args.out)
        return 0

    grid = load_occupancy(args.grid)
    clearing = dict(beta=args.beta, xi=args.xi, mechanisms=args.mechanisms,
                    vcg_max_jobs=args.vcg_max_jobs, timing=args.timing, day=args.day)
    if args.command == "run":
        requests = load_requests(args.requests)
        plan = ExperimentPlan(lambdas=[len(requests)], eta_s_values=[args.eta_s], **clearing)
    else:
        requests = None
        plan = ExperimentPlan(
            lambdas=args.lambda_list, eta_s_values=args.eta_s_list, set_kinds=args.sets,
            trials=args.trials, master_seed=args.seed, hot_fraction=args.delta, **clearing,
        )
    write_results_csv(run_experiment(grid, plan, requests=requests), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
