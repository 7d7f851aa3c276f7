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

import numpy as np

from .market import AuctionConfig, Job, LocalMarket
from .metrics import social_efficiency, utilization_ratio
from .pvg import pvg_allocate, run_pvg
from .vcg import DEFAULT_MAX_JOBS, SolverSizeError, run_vcg, solve_optimal
from .workload import BAND_TYPE, REGION, OccupancyGrid, WorkloadSpec, generate_requests

log = logging.getLogger(__name__)

NUMERIC_COLUMNS = ["efficiency", "eff_ratio", "utilization", "revenue", "revenue_ratio",
                   "runtime_ms"]
RESULT_COLUMNS = ["set", "lambda", "eta_s", "beta", "trial", "mech", *NUMERIC_COLUMNS]

MECHANISM_ORDER = ("vcg", "pvg")


@dataclass
class ExperimentPlan:
    """Everything the driver needs beyond the occupancy grid."""

    lambdas: list[int]
    eta_s_values: list[float] = field(default_factory=lambda: [AuctionConfig.eta_s])
    set_kinds: list[int] = field(default_factory=lambda: [WorkloadSpec.set_kind])
    trials: int = 1
    master_seed: int = 0
    beta: float = AuctionConfig.beta
    xi: float = AuctionConfig.xi
    mechanisms: tuple[str, ...] = MECHANISM_ORDER
    vcg_max_jobs: int = DEFAULT_MAX_JOBS
    timing: bool = False
    hot_fraction: float = WorkloadSpec.hot_fraction
    day: int | None = None

    def __post_init__(self) -> None:
        for m in self.mechanisms:
            if m not in MECHANISM_ORDER:
                raise ValueError(f"unknown mechanism {m!r}")
        for name in ("lambdas", "eta_s_values", "set_kinds", "mechanisms"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate values in {name}: {values}")
        self.mechanisms = tuple(m for m in MECHANISM_ORDER if m in self.mechanisms)
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.vcg_max_jobs < 0:
            raise ValueError(f"vcg_max_jobs must not be negative, got {self.vcg_max_jobs}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must not be negative, got {self.master_seed}")
        for lam in self.lambdas:
            if lam < 0:
                raise ValueError(f"lambda must not be negative, got {lam}")


def trial_seed(master_seed: int, set_kind: int, lam: int, trial: int) -> int:
    """Stable per-trial workload seed; independent of the reserve sweep."""
    return int(np.random.SeedSequence((master_seed, set_kind, lam, trial)).generate_state(1)[0])


def _run_mechanism(mech: str, market: LocalMarket, config: AuctionConfig,
                   vcg_max_jobs: int, timing: bool):
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

    Raw rows come in the order set, lambda, eta_s, trial, mechanism, each
    in plan order; the mean rows follow in the same order without the
    trial.  When ``requests`` is given the workload generator is
    bypassed: a single trial runs per reserve level and the set column
    reads 0.
    """
    sliced = grid.day_slice(plan.day) if plan.day is not None else grid
    channels = tuple(sliced.to_channels(REGION, BAND_TYPE))
    horizon = sliced.horizon_seconds

    if requests is not None:
        blocks = [(0, len(requests), [tuple(requests)])]
    else:
        blocks = (
            (set_kind, lam, [tuple(generate_requests(WorkloadSpec(
                n_requests=lam, set_kind=set_kind,
                hot_fraction=plan.hot_fraction, horizon=horizon,
                seed=trial_seed(plan.master_seed, set_kind, lam, trial),
            ))) for trial in range(plan.trials)])
            for set_kind in plan.set_kinds for lam in plan.lambdas
        )

    raw_rows: list[dict] = []
    mean_rows: list[dict] = []
    for set_kind, lam, trial_jobs in blocks:
        markets = [LocalMarket(region=REGION, band_type=BAND_TYPE, jobs=jobs, channels=channels)
                   for jobs in trial_jobs]
        eff_zero_caches: list[dict[str, float | None]] = [{} for _ in markets]
        for eta_s in plan.eta_s_values:
            config = AuctionConfig(beta=plan.beta, eta_s=eta_s, xi=plan.xi)
            by_mech: dict[str, list[dict]] = {}
            for trial, market in enumerate(markets):
                point = {"set": set_kind, "lambda": lam, "eta_s": eta_s, "beta": plan.beta,
                         "trial": trial}
                for row in _trial_rows(market, config, plan, eff_zero_caches[trial], point):
                    raw_rows.append(row)
                    by_mech.setdefault(row["mech"], []).append(row)
            mean_rows += [_mean_row(rows) for rows in by_mech.values()]
    return raw_rows + mean_rows


def _trial_rows(market: LocalMarket, config: AuctionConfig, plan: ExperimentPlan,
                eff_zero_cache: dict[str, float | None], point: dict) -> list[dict]:
    """One raw row per mechanism for one trial's market at one reserve level.

    ``eff_zero_cache`` holds the market's zero-reserve efficiency per
    mechanism across reserve levels.
    """
    results = {mech: _run_mechanism(mech, market, config, plan.vcg_max_jobs, plan.timing)
               for mech in plan.mechanisms}
    vcg_eff = results["vcg"][0] if results.get("vcg") else None
    rows = []
    for mech, measured in results.items():
        row = dict(point, mech=mech, **dict.fromkeys(NUMERIC_COLUMNS))
        if measured is not None:
            eff, util, revenue, runtime_ms = measured
            if mech not in eff_zero_cache:
                if config.eta_s == 0.0:
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
        rows.append(row)
    return rows


def _mean_row(rows: list[dict]) -> dict:
    """The mean over trials of one mechanism's rows at one (set, lambda, eta_s)."""
    agg = dict(rows[0], trial="mean")
    for col in NUMERIC_COLUMNS:
        values = [r[col] for r in rows if r[col] is not None]
        agg[col] = sum(values) / len(values) if values else None
    return agg


def format_cell(value) -> str:
    """Blank for None, else ``str``: for a float that is its shortest round-trip repr."""
    return "" if value is None else str(value)


def write_results_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(row[c]) for c in RESULT_COLUMNS) + "\n")
