"""Experiment driver: sweeps, per-trial metrics, and results CSV emission.

One raw row is produced per (set, lambda, eta_s, trial, mechanism) and
one aggregate row (trial column ``mean``) per (set, lambda, eta_s,
mechanism).  Workload seeds derive from (master seed, set, lambda,
trial) only, so the same requests are priced across every reserve level
and reruns with one master seed reproduce the CSV byte for byte.
Wall-clock timing breaks that reproducibility and is therefore off
unless explicitly enabled.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .market import AuctionConfig, Job, LocalMarket
from .metrics import social_efficiency, utilization_ratio
from .pvg import pvg_allocate, run_pvg
from .vcg import SolverSizeError, run_vcg, solve_optimal
from .workload import OccupancyGrid, WorkloadSpec, generate_requests

log = logging.getLogger(__name__)

RESULT_COLUMNS = [
    "set", "lambda", "eta_s", "beta", "trial", "mech",
    "efficiency", "eff_ratio", "utilization", "revenue", "revenue_ratio", "runtime_ms",
]

MECHANISM_ORDER = ("vcg", "pvg")
REGION = "r1"
BAND_TYPE = "tv"


@dataclass
class ExperimentPlan:
    """Everything the driver needs beyond the occupancy grid."""

    lambdas: list[int]
    eta_s_values: list[float] = field(default_factory=lambda: [0.0])
    set_kinds: list[int] = field(default_factory=lambda: [1])
    trials: int = 1
    master_seed: int = 0
    beta: float = 1.0 + sqrt(2.0)
    xi: float = 0.01
    mechanisms: tuple[str, ...] = MECHANISM_ORDER
    vcg_max_jobs: int | None = None
    timing: bool = False
    hot_fraction: float = 0.8
    day: int | None = None

    def __post_init__(self) -> None:
        for m in self.mechanisms:
            if m not in MECHANISM_ORDER:
                raise ValueError(f"unknown mechanism {m!r}")
        self.mechanisms = tuple(m for m in MECHANISM_ORDER if m in self.mechanisms)


def trial_seed(master_seed: int, set_kind: int, lam: int, trial: int) -> int:
    """Stable per-trial workload seed; independent of the reserve sweep."""
    return int(np.random.SeedSequence((master_seed, set_kind, lam, trial)).generate_state(1)[0])


def _run_mechanism(mech: str, market: LocalMarket, config: AuctionConfig,
                   vcg_max_jobs: int | None, timing: bool):
    """Returns (efficiency, utilization, revenue, runtime_ms) or None if capped."""
    start = time.perf_counter() if timing else 0.0
    if mech == "vcg":
        try:
            outcome = run_vcg(market, config, max_jobs=vcg_max_jobs)
        except SolverSizeError as err:
            log.warning("vcg skipped: %s", err)
            return None
    else:
        outcome = run_pvg(market, config)
    runtime_ms = (time.perf_counter() - start) * 1000.0 if timing else None
    eff = social_efficiency(outcome, market.jobs)
    util = utilization_ratio(outcome, market)
    revenue = outcome.total_revenue()
    return eff, util, revenue, runtime_ms


def _zero_reserve_efficiency(mech: str, market: LocalMarket, plan: ExperimentPlan) -> float | None:
    """Allocation-only efficiency at zero reserve, for revenue normalization."""
    config = AuctionConfig(beta=plan.beta, eta_s=0.0, xi=plan.xi)
    if mech == "vcg":
        try:
            return solve_optimal(market, 0.0, max_jobs=plan.vcg_max_jobs).welfare
        except SolverSizeError:
            return None
    return social_efficiency(pvg_allocate(market, config), market.jobs)


def run_experiment(grid: OccupancyGrid, plan: ExperimentPlan,
                   requests: list[Job] | None = None) -> list[dict]:
    """Run the full sweep and return raw rows followed by aggregate rows.

    When ``requests`` is given the workload generator is bypassed: a
    single trial runs per reserve level and the set column reads 0.
    """
    sliced = grid.day_slice(plan.day) if plan.day is not None else grid
    channels = tuple(sliced.to_channels(REGION, BAND_TYPE))
    horizon = sliced.horizon_seconds

    raw_rows: list[dict] = []
    if requests is not None:
        groups = [(0, len(requests), 0, tuple(requests))]
    else:
        groups = []
        for set_kind in plan.set_kinds:
            for lam in plan.lambdas:
                for trial in range(plan.trials):
                    spec = WorkloadSpec(
                        n_requests=lam, set_kind=set_kind,
                        hot_fraction=plan.hot_fraction, horizon=horizon,
                        seed=trial_seed(plan.master_seed, set_kind, lam, trial),
                        region=REGION, band_type=BAND_TYPE,
                    )
                    groups.append((set_kind, lam, trial, tuple(generate_requests(spec))))

    for set_kind, lam, trial, jobs in groups:
        market = LocalMarket(region=REGION, band_type=BAND_TYPE, jobs=jobs, channels=channels)
        eff_zero_cache: dict[str, float | None] = {}
        for eta_s in plan.eta_s_values:
            config = AuctionConfig(beta=plan.beta, eta_s=eta_s, xi=plan.xi)
            results: dict[str, tuple | None] = {}
            for mech in plan.mechanisms:
                results[mech] = _run_mechanism(mech, market, config, plan.vcg_max_jobs, plan.timing)

            vcg_eff = results.get("vcg")[0] if results.get("vcg") else None
            for mech in plan.mechanisms:
                row = {
                    "set": set_kind, "lambda": lam, "eta_s": eta_s, "beta": plan.beta,
                    "trial": trial, "mech": mech,
                    "efficiency": None, "eff_ratio": None, "utilization": None,
                    "revenue": None, "revenue_ratio": None, "runtime_ms": None,
                }
                measured = results[mech]
                if measured is not None:
                    eff, util, revenue, runtime_ms = measured
                    if mech not in eff_zero_cache:
                        if eta_s == 0.0:
                            eff_zero_cache[mech] = eff
                        else:
                            eff_zero_cache[mech] = _zero_reserve_efficiency(mech, market, plan)
                    eff_zero = eff_zero_cache[mech]
                    if mech == "vcg":
                        eff_ratio = 1.0
                    elif vcg_eff is None:
                        eff_ratio = None
                    else:
                        eff_ratio = 1.0 if vcg_eff == 0.0 else eff / vcg_eff
                    row["efficiency"] = eff
                    row["eff_ratio"] = eff_ratio
                    row["utilization"] = util
                    row["revenue"] = revenue
                    row["revenue_ratio"] = revenue / eff_zero if eff_zero else None
                    row["runtime_ms"] = runtime_ms
                raw_rows.append(row)

    set_order = {s: i for i, s in enumerate(dict.fromkeys(r["set"] for r in raw_rows))}
    lam_order = {l: i for i, l in enumerate(plan.lambdas)}
    eta_order = {e: i for i, e in enumerate(plan.eta_s_values)}
    mech_order = {m: i for i, m in enumerate(plan.mechanisms)}

    def sort_key(row):
        return (set_order[row["set"]], lam_order.get(row["lambda"], 0),
                eta_order[row["eta_s"]], row["trial"], mech_order[row["mech"]])

    raw_rows.sort(key=sort_key)
    return raw_rows + _aggregate_rows(raw_rows, plan)


def _aggregate_rows(raw_rows: list[dict], plan: ExperimentPlan) -> list[dict]:
    """Mean-over-trials rows, one per (set, lambda, eta_s, mech)."""
    grouped: dict[tuple, list[dict]] = {}
    for row in raw_rows:
        grouped.setdefault((row["set"], row["lambda"], row["eta_s"], row["mech"]), []).append(row)

    numeric = ["efficiency", "eff_ratio", "utilization", "revenue", "revenue_ratio", "runtime_ms"]
    mech_order = {m: i for i, m in enumerate(plan.mechanisms)}
    out = []
    for key in sorted(grouped, key=lambda k: (k[0], k[1], k[2], mech_order[k[3]])):
        rows = grouped[key]
        agg = {
            "set": key[0], "lambda": key[1], "eta_s": key[2], "beta": plan.beta,
            "trial": "mean", "mech": key[3],
        }
        for col in numeric:
            values = [r[col] for r in rows if r[col] is not None]
            agg[col] = sum(values) / len(values) if values else None
        out.append(agg)
    return out


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(row[c]) for c in RESULT_COLUMNS) + "\n")
