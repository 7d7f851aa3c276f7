"""Experiment driver: sweeps, per-trial metrics, and results CSV emission.

The unit of work is one (set, lambda, trial) market: ``_clear_market``
clears it at every reserve with every mechanism and returns its rows,
and ``run_experiment`` draws the markets and puts their rows in plan
order.  One raw row is produced per (set, lambda, eta_s, trial,
mechanism) and one aggregate row (trial column ``mean``) per (set,
lambda, eta_s, mechanism).  Workload seeds derive from (master seed,
set, lambda, trial) only, so the same requests are priced across every
reserve level and reruns with one master seed reproduce the CSV byte
for byte.
Wall-clock timing breaks that reproducibility and is therefore off
unless explicitly enabled.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from .market import AuctionConfig, Job, LocalMarket, social_efficiency, utilization_ratio
from .pvg import pvg_allocate, run_pvg
from .vcg import DEFAULT_MAX_JOBS, SolverSizeError, run_vcg, solve_optimal
from .workload import (BAND_TYPE, REGION, OccupancyGrid, WorkloadSpec, _seed_state,
                       generate_requests)

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
    return _seed_state((master_seed, set_kind, lam, trial), 1)[0]


def _run_mechanism(mech: str, market: LocalMarket, config: AuctionConfig,
                   plan: ExperimentPlan) -> dict | None:
    """The measured columns of one clearing, or None when the cap refuses the market."""
    start = time.perf_counter() if plan.timing else 0.0
    if mech == "vcg":
        try:
            outcome = run_vcg(market, config, max_jobs=plan.vcg_max_jobs)
        except SolverSizeError as err:
            log.warning("vcg skipped: %s", err)
            return None
    else:
        outcome = run_pvg(market, config)
    runtime_ms = (time.perf_counter() - start) * 1000.0 if plan.timing else None
    return {"efficiency": social_efficiency(outcome, market.jobs),
            "utilization": utilization_ratio(outcome, market),
            "revenue": outcome.total_revenue(), "runtime_ms": runtime_ms}


def _zero_reserve_efficiency(mech: str, market: LocalMarket, plan: ExperimentPlan) -> float | None:
    """Allocation-only efficiency at zero reserve, for revenue normalization."""
    config = AuctionConfig(beta=plan.beta, eta_s=0.0, xi=plan.xi)
    if mech == "vcg":
        try:
            return solve_optimal(market, 0.0, max_jobs=plan.vcg_max_jobs).welfare
        except SolverSizeError:
            return None
    return social_efficiency(pvg_allocate(market, config), market.jobs)


def _clear_market(market: LocalMarket, plan: ExperimentPlan) -> list[dict]:
    """Clear one trial's market at every reserve with every mechanism.

    Returns one row per (eta_s, mechanism) in plan order, without the
    set, lambda and trial columns.  Revenue is normalized by the
    market's own zero-reserve efficiency: that of its eta_s = 0 clearing
    when the plan lists 0, else an allocation-only run; none (a blank
    ``revenue_ratio``) when the cap refuses the market at zero reserve.
    """
    measured = {}
    for eta_s in plan.eta_s_values:
        config = AuctionConfig(beta=plan.beta, eta_s=eta_s, xi=plan.xi)
        for mech in plan.mechanisms:
            measured[eta_s, mech] = _run_mechanism(mech, market, config, plan)
    eff_zero = {}
    for mech in plan.mechanisms:
        if 0.0 in plan.eta_s_values:
            at_zero = measured[0.0, mech]
            eff_zero[mech] = at_zero["efficiency"] if at_zero else None
        elif any(measured[eta_s, mech] for eta_s in plan.eta_s_values):
            eff_zero[mech] = _zero_reserve_efficiency(mech, market, plan)
    rows = []
    for (eta_s, mech), values in measured.items():
        row = {"eta_s": eta_s, "beta": plan.beta, "mech": mech, **dict.fromkeys(NUMERIC_COLUMNS)}
        if values is not None:
            vcg = measured.get((eta_s, "vcg"))
            if mech == "vcg":
                row["eff_ratio"] = 1.0
            elif vcg is not None:
                row["eff_ratio"] = (1.0 if vcg["efficiency"] == 0.0
                                    else values["efficiency"] / vcg["efficiency"])
            row.update(values, revenue_ratio=(values["revenue"] / eff_zero[mech]
                                              if eff_zero[mech] else None))
        rows.append(row)
    return rows


def run_experiment(grid: OccupancyGrid, plan: ExperimentPlan,
                   requests: list[Job] | None = None) -> list[dict]:
    """Run the full sweep and return raw rows followed by aggregate rows.

    Each trial's market is cleared by ``_clear_market``.  Raw rows come
    in the order set, lambda, eta_s, trial, mechanism, each in plan
    order; the mean rows follow in the same order without the trial.
    When ``requests`` is given the workload generator is bypassed: a
    single trial runs per reserve level and the set column reads 0.
    """
    sliced = grid.day_slice(plan.day) if plan.day is not None else grid
    channels = tuple(sliced.to_channels(REGION, BAND_TYPE))
    if requests is not None:
        blocks = [(0, len(requests), [requests])]
    else:
        blocks = ((set_kind, lam, (generate_requests(WorkloadSpec(
                      n_requests=lam, set_kind=set_kind,
                      hot_fraction=plan.hot_fraction, horizon=sliced.horizon_seconds,
                      seed=trial_seed(plan.master_seed, set_kind, lam, trial),
                  )) for trial in range(plan.trials)))
                  for set_kind in plan.set_kinds for lam in plan.lambdas)

    raw_rows: list[dict] = []
    for set_kind, lam, trial_jobs in blocks:
        rows = [{"set": set_kind, "lambda": lam, "trial": trial, **row}
                for trial, jobs in enumerate(trial_jobs)
                for row in _clear_market(LocalMarket(region=REGION, band_type=BAND_TYPE,
                                                     jobs=tuple(jobs), channels=channels), plan)]
        # stable: each reserve keeps its trials, and each trial its mechanisms, in order
        raw_rows += sorted(rows, key=lambda r: plan.eta_s_values.index(r["eta_s"]))
    groups: dict[tuple, list[dict]] = {}
    for row in raw_rows:
        groups.setdefault((row["set"], row["lambda"], row["eta_s"], row["mech"]), []).append(row)
    return raw_rows + [_mean_row(rows) for rows in groups.values()]


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
