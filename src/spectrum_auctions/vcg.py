"""Exact winner determination and pivot payments for one local market.

Winner determination maximizes the sum of accepted bids subject to the
reserve, single-channel-per-job, and slot-capacity constraints.  The
search is a hand-rolled depth-first branch and bound: each job is either
rejected or assigned to one channel, every partial assignment keeps each
channel's job set jointly feasible, and two upper bounds prune the tree
(plain remaining-value sum, and a fractional relaxation that fills the
remaining free seconds with the best per-second rates first).

Payments follow the pivot rule: a winner pays the welfare the others
lose by its presence, floored at the reserve for its requested time.
The market without a winner is the same market with one bid removed, so
each pivot reruns the solve's own search (same timelines, branching
order and ``market.candidate_channels``) with that winner excluded: it
is never accepted and adds nothing to the bounds.  (The timelines are
then cut at the winner's window ends too; a finer cut decides
feasibility the same way.)  Job indices, and with them the channel
bitmasks, mean the same job in every run, so the solve and all its
pivots share one feasibility memo.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .market import (
    AuctionConfig,
    AuctionOutcome,
    Job,
    LocalMarket,
    SegmentedTimeline,
    SpectrumAuctionError,
    build_timelines,
    candidate_channels,
    filter_reserve,
    processing_key,
    set_feasible,
    window_flow_allocation,
)

DEFAULT_MAX_JOBS = 18


class SolverSizeError(SpectrumAuctionError):
    """The instance exceeds the configured exact-solver job cap."""


@dataclass(frozen=True)
class VcgSolution:
    """An exact optimum: total welfare plus the realizing assignment."""

    welfare: float
    assignment: dict[int, int]
    allocations: dict[int, list[int]]
    timelines: dict[int, SegmentedTimeline]
    _search: _Search | None = field(default=None, repr=False, compare=False)


class _Search:
    """DFS state for the branch and bound over one market.

    Jobs are indexed by their position in the branching order (best rate
    first); each channel's tentative job set is an index bitmask, which
    keeps the feasibility memo keys cheap to hash.  ``run()`` is the solve
    and ``run(without=i)`` a pivot re-solve; all runs share the memo.
    """

    # Bounds are compared with a hair of slack: an exactly-tight float
    # bound may land one ulp under the incumbent and must not prune the
    # branch that realizes it.  Admitting dust-level-worse branches is
    # harmless for exactness.
    PRUNE_EPS = 1e-9

    def __init__(self, order: list[Job], timelines: dict[int, SegmentedTimeline],
                 candidates: list[list[int]]):
        self.order = order
        self.timelines = timelines
        self.candidates = candidates
        self.masks = dict.fromkeys(timelines, 0)
        self.assignment: dict[int, int] = {}
        self.feas_memo: dict[tuple[int, int], bool] = {}
        self.total_capacity = sum(tl.free_seconds for tl in timelines.values())
        self.value_by_id = {j.id: j.bid_value for j in order}
        self._reset(None)

    def _reset(self, without: int | None) -> None:
        # Cumulative durations and values over ``order``, which is already
        # best rate first: every depth's suffix is a run of these prefixes.
        # The excluded job adds 0 to both, so the bounds equal those of the
        # order without it, bit for bit; it is never the break item.
        self.without = without
        self.cum_dur = [0]
        self.cum_val = [0.0]
        for i, j in enumerate(self.order):
            kept = i != without
            self.cum_dur.append(self.cum_dur[-1] + (j.duration if kept else 0))
            self.cum_val.append(self.cum_val[-1] + (j.bid_value if kept else 0.0))
        self.suffix_value = [self.cum_val[-1] - v for v in self.cum_val]
        # The first leaf replaces this; the slack pruning keeps every
        # optimal leaf, so the tie-break still sees them all.
        self.best_welfare = -1.0
        self.best_key: tuple | None = None
        self.best_assignment: dict[int, int] | None = None

    def _canonical_welfare(self, winner_ids) -> float:
        # id-ordered sum: equal winner sets always give bitwise-equal
        # welfare, no matter the order the search accepted them in
        return sum((self.value_by_id[w] for w in sorted(winner_ids)), 0.0)

    def channel_feasible(self, cid: int, mask: int) -> bool:
        key = (cid, mask)
        hit = self.feas_memo.get(key)
        if hit is None:
            members = [self.order[i] for i in _bits(mask)]
            hit = set_feasible(members, self.timelines[cid])
            self.feas_memo[key] = hit
        return hit

    def fractional_bound(self, depth: int, used_seconds: int) -> float:
        """Best-rate fill of the free seconds by the jobs from ``depth`` on.

        Whole jobs up to the break item ``k``, then a split of it
        (Dantzig's fractional knapsack bound).
        """
        budget = self.total_capacity - used_seconds
        if budget <= 0:
            return 0.0
        reach = self.cum_dur[depth] + budget
        k = bisect.bisect_right(self.cum_dur, reach) - 1
        bound = self.cum_val[k] - self.cum_val[depth]
        if k < len(self.order):
            bound += self.order[k].unit_value * (reach - self.cum_dur[k])
        return bound

    def run(self, without: int | None = None) -> tuple[float, dict[int, int]]:
        """Best welfare and assignment, never accepting the job at index ``without``."""
        self._reset(without)
        self._dfs(0, 0.0, 0)
        assert self.best_assignment is not None
        return self.best_welfare, self.best_assignment

    def _dfs(self, depth: int, value: float, used_seconds: int) -> None:
        remaining = self.suffix_value[depth]
        cutoff = self.best_welfare - self.PRUNE_EPS
        if value + remaining < cutoff:
            return
        if remaining > 0 and value + self.fractional_bound(depth, used_seconds) < cutoff:
            return
        if depth == len(self.order):
            self._offer_leaf()
            return
        job = self.order[depth]
        bit = 1 << depth
        for cid in () if depth == self.without else self.candidates[depth]:
            trial = self.masks[cid] | bit
            if not self.channel_feasible(cid, trial):
                continue
            self.masks[cid] = trial
            self.assignment[job.id] = cid
            self._dfs(depth + 1, value + job.bid_value, used_seconds + job.duration)
            del self.assignment[job.id]
            self.masks[cid] &= ~bit
        self._dfs(depth + 1, value, used_seconds)

    def _offer_leaf(self) -> None:
        winners = tuple(sorted(self.assignment))
        canon = self._canonical_welfare(winners)
        if canon < self.best_welfare:
            return
        key = (winners, tuple(self.assignment[w] for w in winners))
        if canon > self.best_welfare or self.best_key is None or key < self.best_key:
            self.best_welfare = canon
            self.best_key = key
            self.best_assignment = dict(self.assignment)


def _bits(mask: int):
    idx = 0
    while mask:
        if mask & 1:
            yield idx
        mask >>= 1
        idx += 1


def solve_optimal(market: LocalMarket, eta_s: float, max_jobs: int | None = None) -> VcgSolution:
    """Exact welfare-maximizing assignment for one local market.

    Welfare ties are broken toward the lexicographically smallest winner
    id set, then the smallest channel ids, so payments are reproducible.
    Worst case is exponential; the job cap (``max_jobs``, default
    ``DEFAULT_MAX_JOBS``) guards it.
    """
    jobs = filter_reserve(market.jobs, eta_s)
    cap = DEFAULT_MAX_JOBS if max_jobs is None else max_jobs
    if len(jobs) > cap:
        raise SolverSizeError(
            f"{len(jobs)} jobs exceed the exact-solver cap of {cap}; "
            "pass max_jobs (--vcg-max-jobs) to override"
        )
    timelines = build_timelines(market)
    order = sorted(jobs, key=processing_key)
    candidates = candidate_channels(order, timelines)
    search = _Search(order, timelines, [candidates[j.id] for j in order])
    welfare, assignment = search.run()
    by_id = {j.id: j for j in jobs}

    allocations: dict[int, list[int]] = {}
    for c in market.channels:
        members = [by_id[jid] for jid in sorted(assignment) if assignment[jid] == c.id]
        if not members:
            continue
        flows = window_flow_allocation(members, timelines[c.id])
        assert flows is not None, "search accepted an infeasible channel set"
        allocations.update(flows)
    return VcgSolution(welfare, assignment, allocations, timelines, search)


def vcg_payments(market: LocalMarket, solution: VcgSolution, eta_s: float) -> dict[int, float]:
    """Pivot payments for the given optimum; losers pay zero.

    Each winner's price is the optimum of the market without it minus
    what the others get at the actual optimum, floored at the reserve.
    That optimum is the solve's own search rerun with the winner
    excluded, so ``solution`` comes from ``solve_optimal`` at this
    ``eta_s``.  The exact-solver cap is not checked again: a pivot is
    never larger than the market.
    """
    payments = {j.id: 0.0 for j in market.jobs}
    for i, job in enumerate(solution._search.order):
        if job.id in solution.assignment:
            welfare_without, _ = solution._search.run(without=i)
            pivot = welfare_without - (solution.welfare - job.bid_value)
            payments[job.id] = max(pivot, eta_s * job.duration)
    return payments


def run_vcg(market: LocalMarket, config: AuctionConfig,
            max_jobs: int | None = None) -> AuctionOutcome:
    """Solve, price, and package the exact mechanism's outcome."""
    solution = solve_optimal(market, config.eta_s, max_jobs=max_jobs)
    payments = vcg_payments(market, solution, config.eta_s)
    return AuctionOutcome(
        assignment=dict(solution.assignment),
        allocations={k: list(v) for k, v in solution.allocations.items()},
        payments=payments,
        timelines=solution.timelines,
    )
