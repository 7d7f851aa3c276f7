"""Polynomial-time greedy auction with preemption and critical-value pricing.

Jobs are processed by descending per-second bid value.  A job is accepted
outright into the first of its ``market.candidate_channels`` with enough
residual window capacity (case 1).  Otherwise, per candidate channel, its
cheapest winners overlapping the job's window are tentatively removed one
by one until it fits; if the newcomer's bid exceeds ``beta`` times the
total value of that minimal eviction prefix, the prefix is preempted and
the newcomer commits (case 2), after which earlier-ranked unplaced jobs
are re-admitted into the freed channel wherever they now fit without
further eviction (case 3).  Jobs failing everywhere are rejected.

Case 2 walks an eviction prefix only where one can pay.  At rank idx every
placed job comes from ``order[:idx]``, so its per-second value is at least
the newcomer's, and removing it frees at most its own seconds.  A prefix
that frees the ``duration - free`` seconds missing from the window's
residual ``free`` is therefore worth at least ``unit_value * (duration -
free)``, and a preemption needs ``beta * (duration - free) < duration``.
A channel is passed over when ``beta * (duration - free) > duration * (1 +
1e-9)``: the slack covers the rounding of ``bid_value / duration`` and of
the prefix sum, each a few units in the last place.  At ``beta = 1`` the
test never fires.  The walk itself gives up once ``beta`` times the value
so far reaches the bid: a sum of non-negative floats never falls as terms
are added, so the whole prefix would fail the same float test.

The allocation is meant to be bid monotone (case 3 retrying only the
preempting channel breaks that on some multi-channel markets), so each
winner is charged the smallest grid bid at which it still wins, found by
binary search over the bid grid between its reserve floor and its
reported value.  ``run_pvg`` allocates a market and prices each winner
with ``critical_value`` over that same allocation run.

Pricing replays only what a probe can change.  Segmentation does not
depend on bids, so ``run_pvg`` cuts each channel's timeline once and keeps
the state of its allocation run before every rank.  For winner i it then
runs the market without i once, starting from the kept state at i's rank,
and keeps that run's state before every rank and the ranks at which it
preempted.  A rank that leaves its job unplaced changes nothing, so both
runs keep one state object for every rank since their last placement;
kept states are shared and read-only, and every probe forks the one it
resumes from.  A probe at bid b puts i at its rank r for b under
``processing_key`` and resumes from the state before rank r.  This is
exact: processing a job reads only the jobs ranked above it (case-3
readmission scans ``order[:idx]``, and the eviction prefix walks only
placed jobs), so the jobs above r are processed in the probe exactly as
in the run without i, and the runs with and without i agree above i's
own rank.  From rank r on, the probe replays only the ranks that can
change whether i wins:

* Losing side.  While i is unplaced it changes nothing, and a rank reads
  unplaced jobs only in its case-3 scan, which runs only at a rank that
  preempted.  So the probe is the run without i except at that run's
  preempting ranks; each is replayed from the state kept before it, and
  if i is still unplaced after the last one it loses.
* Winning side.  A placed job leaves only inside an eviction prefix,
  which is then worth at least b (bids are >= 0, and float sums and
  products are monotone), so no later job bidding at most ``beta * b``
  evicts i.  Once i is placed and no job still to come bids more, i wins.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import accumulate

from .market import (
    AuctionConfig,
    AuctionOutcome,
    Job,
    LocalMarket,
    SegmentedTimeline,
    build_timelines,
    candidate_channels,
    commit_allocation,
    filter_reserve,
    fits_in_residual,
    processing_key,
    release_allocation,
    window_residual,
)


@dataclass
class PvgStats:
    """Work counters for complexity checks; purely observational."""

    fit_checks: int = 0
    commits: int = 0
    preemptions: int = 0
    readmissions: int = 0


@dataclass
class PvgState:
    """The allocator's state between two processed ranks.

    ``order`` is the processing order (``processing_key``) over
    reserve-eligible jobs, ``candidates`` every market job's candidate
    channels, ``winners`` each channel's placed jobs in processing order,
    and ``committed`` each channel's per-slot used seconds, the sum of
    its winners' ``allocations``.
    ``_greedy`` keeps the state before every rank for pricing to resume
    from.  A rank that leaves its job unplaced changes nothing, so one kept
    object stands for every rank since the last placement.  Kept states are
    read-only: every user forks one before stepping it.
    """

    order: list[Job]
    timelines: dict[int, SegmentedTimeline]
    candidates: dict[int, list[int]]
    winners: dict[int, list[Job]]
    committed: dict[int, list[int]]
    allocations: dict[int, list[int]] = field(default_factory=dict)

    def fork(self, order: list[Job] | None = None) -> PvgState:
        """An independent copy, over ``order`` when given.

        Per-job allocation lists are shared: once committed they are only
        ever dropped, never changed.
        """
        return PvgState(
            order=self.order if order is None else order,
            timelines=self.timelines,
            candidates=self.candidates,
            winners={cid: list(placed) for cid, placed in self.winners.items()},
            committed={cid: list(used) for cid, used in self.committed.items()},
            allocations=dict(self.allocations),
        )


def _eviction_prefix(job: Job, cid: int, free: int, beta: float, state: PvgState,
                     stats: PvgStats) -> list[Job] | None:
    """Minimal cheapest-first prefix of overlapping jobs freeing room for ``job``, if it pays.

    Candidates are the channel's winners with any seconds inside ``job``'s
    window, ordered by per-second value ascending (ties: descending id),
    which is ``state.winners[cid]`` reversed; a winner whose window misses
    the job's slot range is passed over unsummed.  Removing one frees
    exactly its in-window seconds, so a running total from the window's
    residual ``free`` finds the first point at which the job fits.  The
    prefix is returned only if the job's bid exceeds ``beta`` times its
    value; the walk gives up with None as soon as the value so far reaches
    that, since adding non-negative bids never lowers a float sum.  ``cid``
    is one of the job's candidate channels, so removing every overlapping
    winner frees the whole window capacity, which covers the job's duration.
    """
    windows = state.timelines[cid].job_windows
    first, last = windows[job.id]
    value = 0.0
    prefix: list[Job] = []
    for cand in reversed(state.winners[cid]):
        lo, hi = windows[cand.id]
        if hi < first or lo > last:
            continue
        freed = sum(state.allocations[cand.id][max(lo, first):min(hi, last) + 1])
        if not freed:
            continue
        stats.fit_checks += 1
        value += cand.bid_value
        if job.bid_value <= beta * value:
            return None
        prefix.append(cand)
        free += freed
        if free >= job.duration:
            return prefix
    return None


def _initial_state(market: LocalMarket, config: AuctionConfig,
                   timelines: dict[int, SegmentedTimeline]) -> PvgState:
    return PvgState(
        order=sorted(filter_reserve(market.jobs, config.eta_s), key=processing_key),
        timelines=timelines,
        candidates=candidate_channels(market.jobs, timelines),
        winners={cid: [] for cid in timelines},
        committed={cid: tl.empty_usage() for cid, tl in timelines.items()},
    )


def _fits(job: Job, cid: int, state: PvgState, stats: PvgStats) -> bool:
    stats.fit_checks += 1
    return fits_in_residual(job, state.timelines[cid], state.committed[cid])


def _accept(job: Job, cid: int, state: PvgState, stats: PvgStats) -> None:
    state.allocations[job.id] = commit_allocation(job, state.timelines[cid], state.committed[cid])
    insort(state.winners[cid], job, key=processing_key)
    stats.commits += 1


def _step(state: PvgState, idx: int, config: AuctionConfig, stats: PvgStats) -> bool:
    """Process ``state.order[idx]`` onto ``state``, in place; True iff it preempted."""
    order, timelines = state.order, state.timelines
    job = order[idx]
    residuals = []
    for cid in state.candidates[job.id]:  # case 1: conflict-free acceptance
        free = window_residual(job, timelines[cid], state.committed[cid])
        stats.fit_checks += 1
        if free >= job.duration:
            _accept(job, cid, state, stats)
            return False
        residuals.append(free)
    # case 2: try to preempt cheaper overlap where an eviction prefix can pay
    for cid, free in zip(state.candidates[job.id], residuals):
        if config.beta * (job.duration - free) > job.duration * (1.0 + 1e-9):
            continue
        prefix = _eviction_prefix(job, cid, free, config.beta, state, stats)
        if prefix is None:
            continue
        for victim in prefix:
            release_allocation(timelines[cid], state.committed[cid],
                               state.allocations.pop(victim.id))
            state.winners[cid].remove(victim)
            stats.preemptions += 1
        _accept(job, cid, state, stats)
        # case 3: readmission into this channel only
        for earlier in order[:idx]:
            if earlier.id in state.allocations or cid not in state.candidates[earlier.id]:
                continue
            if _fits(earlier, cid, state, stats):
                _accept(earlier, cid, state, stats)
                stats.readmissions += 1
        return True
    return False


def _greedy(state: PvgState, config: AuctionConfig, start: int, stats: PvgStats,
            snapshots: list[PvgState] | None = None) -> list[int]:
    """Process ``state.order[start:]`` onto ``state``, in place; the ranks that preempted.

    When ``snapshots`` is given, the state before each processed rank and
    the final state are appended to it, so a list already holding the
    states before ranks ``0 .. start-1`` ends up indexed by rank.  A state
    is forked only after a rank that placed its job: a rank that leaves its
    job unplaced changed nothing, so the previous kept object is appended
    again.
    """
    preempting = []
    kept = None
    for idx in range(start, len(state.order)):
        if snapshots is not None:
            if kept is None:
                kept = state.fork()
            snapshots.append(kept)
        if _step(state, idx, config, stats):
            preempting.append(idx)
        if state.order[idx].id in state.allocations:
            kept = None
    if snapshots is not None:
        snapshots.append(state.fork() if kept is None else kept)
    return preempting


def _outcome(state: PvgState) -> AuctionOutcome:
    assignment = dict(sorted((j.id, cid) for cid, placed in state.winners.items() for j in placed))
    return AuctionOutcome(
        assignment=assignment,
        allocations={jid: list(state.allocations[jid]) for jid in assignment},
        payments={},
        timelines=state.timelines,
    )


def pvg_allocate(market: LocalMarket, config: AuctionConfig,
                 stats: PvgStats | None = None) -> AuctionOutcome:
    """Run the greedy allocation; payments are left unset.

    Deterministic in (market, config): all orderings carry explicit id
    tie-breaks.  Work is counted into ``stats``, a fresh ``PvgStats``
    when not given.
    """
    state = _initial_state(market, config, build_timelines(market))
    _greedy(state, config, 0, PvgStats() if stats is None else stats)
    return _outcome(state)


def _truthful_run(market: LocalMarket, config: AuctionConfig,
                  stats: PvgStats) -> list[PvgState]:
    """The market's own greedy run as its states before each rank, then its end state."""
    snapshots: list[PvgState] = []
    _greedy(_initial_state(market, config, build_timelines(market)), config, 0, stats, snapshots)
    return snapshots


def bid_grid_size(floor: float, top: float, xi: float) -> int:
    """Smallest n with floor + n*xi >= top; grid points are k*xi offsets.

    An ``xi`` finer than the float spacing at ``top`` is rejected; any
    other leaves the estimate below at most a few steps off.
    """
    if top <= floor:
        return 0
    if not xi >= math.ulp(top):
        raise ValueError(f"xi {xi} gives no finite bid grid from {floor} to {top}: "
                         f"it is finer than the float spacing {math.ulp(top)} there")
    n = int(math.ceil((top - floor) / xi))
    while n > 0 and floor + (n - 1) * xi >= top:
        n -= 1
    while floor + n * xi < top:
        n += 1
    return n


def bid_grid_point(floor: float, top: float, xi: float, k: int, n: int) -> float:
    """k-th candidate bid: grid offsets below ``top``, then ``top`` itself."""
    return floor + k * xi if k < n else top


def _with_bid(job: Job, bid: float) -> Job:
    """``job`` at another bid, built from its already-validated fields.

    ``Job.__post_init__`` is not re-run: the times are whole seconds
    already, and a probed bid lies between the reserve floor and the
    reported value.
    """
    probe = object.__new__(Job)
    probe.__dict__.update(job.__dict__, bid_value=bid)
    return probe


def _rank_tables(order: list[Job]) -> tuple[list[tuple[float, int]], list[float]]:
    """``order``'s processing keys, and ``highest[k]``: the largest bid among ``order[k:]``."""
    keys = [processing_key(j) for j in order]
    highest = list(accumulate(reversed([j.bid_value for j in order]), max))[::-1]
    return keys, highest


def _resumed_probe(config: AuctionConfig, job: Job, truthful: list[PvgState],
                   keys: list[tuple[float, int]], highest: list[float], stats: PvgStats):
    """Win predicate over ``job``'s bid that replays only the ranks that can change it.

    ``job`` is a winner of the truthful run, so it is in its order, and
    ``keys``/``highest`` are ``_rank_tables`` of that order.  Runs the
    market without ``job`` once, from the truthful run's state at
    ``job``'s rank, keeping its state before each rank and the ranks at
    which it preempted.  Each probe inserts the deviated job at its rank
    under the processing key, resumes from the state kept there, and
    stops by the two rules of the module docstring.
    """
    order = truthful[0].order
    rank = bisect_left(keys, processing_key(job))
    others = order[:rank] + order[rank + 1:]
    without = truthful[:rank]
    preempting = _greedy(truthful[rank].fork(others), config, rank, stats, without)

    def wins(bid: float) -> bool:
        probe = _with_bid(job, bid)
        # at most job's own bid, the probe ranks below order[:rank + 1];
        # from there on, others[k] is order[k + 1]
        at = bisect_left(keys, processing_key(probe), rank + 1) - 1
        probe_order = others[:at] + [probe] + others[at:]
        state = without[at].fork(probe_order)
        _step(state, at, config, stats)
        idx = at
        if probe.id not in state.allocations:
            # An unplaced probe changes nothing: this run is the run without
            # it except at a preempting rank, whose case-3 scan may readmit it.
            for k in preempting[bisect_left(preempting, at):]:
                state = without[k].fork(probe_order)
                _step(state, k + 1, config, stats)
                if probe.id in state.allocations:
                    idx = k + 1
                    break
            else:
                return False
        # others[idx:], that is order[idx + 1:], are still to come; no bid
        # up to beta * bid evicts the probe
        safe = config.beta * bid
        while idx < len(others):
            if probe.id in state.allocations and highest[idx + 1] <= safe:
                return True
            idx += 1
            _step(state, idx, config, stats)
        return probe.id in state.allocations

    return wins


def critical_value(config: AuctionConfig, job: Job, truthful: list[PvgState],
                   keys: list[tuple[float, int]], highest: list[float],
                   stats: PvgStats) -> float:
    """Least grid bid at which ``job``, a winner of ``truthful``, still wins.

    ``truthful`` is the market's own run as ``_truthful_run`` keeps it, and
    ``keys``/``highest`` are ``_rank_tables`` of its order.
    The candidate bids are ``eta_s * duration + k * xi`` for k = 0, 1, ...
    strictly below the reported value ``job.bid_value``, plus that value.
    Bid monotonicity makes the win predicate a threshold over them, so
    ``bisect_left`` finds the first winning one among the n below the
    value, which itself wins by assumption and is never probed.
    """
    floor = config.eta_s * job.duration
    top = job.bid_value
    n = bid_grid_size(floor, top, config.xi)
    if n == 0:
        return top
    wins = _resumed_probe(config, job, truthful, keys, highest, stats)
    first = bisect_left(range(n), True,
                        key=lambda k: wins(bid_grid_point(floor, top, config.xi, k, n)))
    return bid_grid_point(floor, top, config.xi, first, n)


def run_pvg(market: LocalMarket, config: AuctionConfig,
            stats: PvgStats | None = None) -> AuctionOutcome:
    """Allocate, price, and package the greedy mechanism's outcome.

    The timelines are cut once and every winner is priced by probes that
    resume from the kept states of the allocation run (module docstring);
    the run's rank tables are built once for all of them.
    """
    stats = PvgStats() if stats is None else stats
    truthful = _truthful_run(market, config, stats)
    keys, highest = _rank_tables(truthful[0].order)
    outcome = _outcome(truthful[-1])
    payments = {j.id: 0.0 for j in market.jobs}
    for placed in truthful[-1].winners.values():
        for winner in placed:
            payments[winner.id] = critical_value(config, winner, truthful, keys, highest, stats)
    outcome.payments = payments
    return outcome


def rho_bound(beta: float) -> float:
    """Worst-case efficiency-loss factor 2(beta+1)/(1 - 1/beta).

    Minimized at beta = 1 + sqrt(2), where it equals 6 + 4*sqrt(2).
    """
    if beta <= 1.0:
        raise ValueError("rho_bound requires beta > 1; the bound diverges at 1")
    return 2.0 * (beta + 1.0) / (1.0 - 1.0 / beta)
