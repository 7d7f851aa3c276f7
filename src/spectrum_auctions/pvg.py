"""Polynomial-time greedy auction with preemption and critical-value pricing.

Jobs are processed by descending per-second bid value.  A job is accepted
outright into the first of its ``LocalMarket.candidates`` with enough
residual window capacity (case 1).  Otherwise, per candidate channel, its
cheapest winners overlapping the job's window are tentatively removed one
by one until it fits; if the newcomer's bid exceeds ``beta`` times the
total value of that minimal eviction prefix, the prefix is preempted and
the newcomer commits (case 2), after which earlier-ranked unplaced jobs
are re-admitted into the freed channel wherever they now fit without
further eviction (case 3).  Jobs failing everywhere are rejected.
A placed job is forward-filled slot by slot into its window's residual
seconds by ``market.commit_allocation``, the fill that also gives the
exact mechanism's allocations; only the greedy keeps per-slot usage
between jobs.  That slot-fill rule has one owner, ``_Snapshot``, a
channel's state between two ranks: ``residual`` is case 1's test,
``place`` fills a job in (cases 1 and 3) or walks, releases and fills
(case 2), and ``readmit`` is case 3's loop.  ``_Greedy`` keeps the
processing order, the order of the three cases and the pricing probes; it
reads a snapshot's winners and allocations only to report the outcome,
to pick the jobs case 3 retries and to see where a job is placed.

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

The allocation is meant to be bid monotone, so each winner is charged
the smallest grid bid at which it still wins, found by binary search
over the bid grid between its reserve floor and its reported value.  It
is not always monotone, for three known causes, each pinned by a strict
xfail in the tests: case 3 retries only the preempting channel; the
fixed forward fill can take seconds a later job needs even where both
would fit together; and the first-fit channel choice can send a raised
bid to a channel where a later job evicts it.  ``run_pvg`` allocates a
market and prices each winner with ``critical_value`` over that same
allocation run, ``_Greedy.truthful``.

Pricing replays only what a probe can change.  Segmentation and
candidate channels, which the market object owns, and the truthful order
and run do not depend on the probed bid, so one ``_Greedy`` per clearing
holds them for every probe.  A state maps each channel id to a
``_Snapshot`` of that channel (its winners, used seconds and the winners'
allocations) that is never changed once built: a step returns a new
mapping with a new snapshot for the one channel it changed, or its input
when it placed nothing, so a kept state is a plain reference and runs
share every channel they have in common.  ``run_pvg``'s allocation run
is a path in the market's trie of runs (below), which holds the state
before every rank and whether each rank preempted.  For winner i it then
runs the market without i once, down the trie from the truthful path's
node at i's rank, since the ranks above i's are the truthful run's own.
A probe at bid b puts i at its rank r for b under ``processing_key`` and
resumes from the state before rank r.  This is exact: processing a job
reads only the jobs ranked above it (case-3 readmission scans
``order[:idx]``, and the eviction prefix walks only placed jobs), so the
jobs above r are processed in the probe exactly as in the run without i,
and the runs with and without i agree above i's own rank.  From rank r on, the probe replays
only the ranks that can change whether i wins:

* Losing side.  While i is unplaced it changes nothing, and a rank reads
  unplaced jobs only in its case-3 scan, which runs only at a rank that
  preempted.  So the probe is the run without i except at that run's
  preempting ranks; each is replayed from the state kept before it, and
  if i is still unplaced after the last one it loses.
* Winning side.  A placed job leaves only inside an eviction prefix,
  which is then worth at least b (bids are >= 0, and float sums and
  products are monotone), so no later job bidding at most ``beta * b``
  evicts i.  Once i is placed and no job still to come bids more, i wins.

Two kinds of reuse skip work without changing an answer:

* Snapshot memos.  A snapshot memoizes two answers per job: the window
  residual (``_Snapshot.residual``, by job id) and ``place``'s answer,
  the snapshot after placing the job or None with the ids of the winners
  a case-2 walk summed (by job id and bid).  One placement memo serves
  all three cases.  For one snapshot and one job, case 2 asks only where
  the job does not fit, since case 1 would otherwise have placed it, and
  cases 1 and 3 ask only where it fits.  Whether it fits depends only on
  the snapshot and the job's window and duration, and every answer only
  on the snapshot's content, the job's window, duration and bid, and
  beta, which is fixed per trie (below).  So a key never needs two kinds
  of answer, and no answer depends on the run that asks: a run without a
  winner, or a probe, that reaches a channel another run already
  processed takes the answer instead of recomputing it.  Case 3's fit
  test (``_Snapshot.readmit``) is not memoized.
* Probe answers by rank.  Two bids that put i at one rank give one
  processing order and the same place for i in every channel's winner
  list.  Then only three decisions read i's bid: an eviction walk that
  sums i, i's own walk once it sums a winner, and the winning side's stop
  test.  When the first probe at a rank replayed with no walk reading the
  bid (a memo hit reports the ids its walk summed, just as a miss does),
  a later probe there makes the same decisions up to where the first
  stopped, and takes its answer, unless the first won by the stop test at
  ``idx`` and ``highest[idx + 1] > beta * b`` for the later bid.  Should
  the later probe's own stop test fire sooner, i is placed there, and as
  only a walk that sums i can remove it, the first probe won too.  Only
  the first replay at a rank is kept: a later one makes the same
  decisions up to the first one's bid read, so it reads the bid there too
  unless its stop test ends it sooner.

Clearings of one market object share runs.  The state before rank k of
any run is a function of its ``order[:k]`` alone (rank k reads only
``order[:k + 1]`` and the state, as above), and job ids are unique within
a market object.  So the market keeps, per beta, one prefix trie of runs
(``LocalMarket.greedy_runs``): the node of a sequence of job ids holds
the state after those jobs, whether the last of them preempted, and its
children by the next job's id.  Every run, truthful or without a winner,
is one path down it from the root (``_Greedy.walk``), and a rank is
processed only where no earlier walk made its node.  A market is often
cleared at several reserves, and a reserve only drops the jobs whose
per-second bid is below it, which come last in the processing order, so
the paths of its clearings share long prefixes whatever order the
reserves come in.  A path that leaves another (float rounding in the
reserve filter can drop a job and keep one ranked after it) branches off
there, and no node is ever replaced or dropped.  The trie is keyed by
beta because the eviction walks, and so every placement memo, read it;
the reserve and ``xi`` reach no step.  It lives exactly as long as the
market object, never keyed by its value, so an equal market built anew
shares nothing.  Per clearing remain the order, its keys and ``highest``
(which depend on where the order ends), each winner's price floor and bid
grid, and the probe answers.  ``PvgStats`` counts only ranks processed,
so nodes reused from the trie add nothing to it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .market import (
    AuctionConfig,
    AuctionOutcome,
    Job,
    LocalMarket,
    SegmentedTimeline,
    build_timelines,
    commit_allocation,
    filter_reserve,
    window_residual,
)


@dataclass
class PvgStats:
    """Work counters for complexity checks; purely observational.

    ``fit_checks`` counts window residuals computed, winners summed by
    eviction walks and readmission fits tested; ``commits`` counts channel
    snapshots built by placing a job.  Both count work done: an answer
    taken from a snapshot's memo adds to neither.  ``preemptions`` and
    ``readmissions`` count the jobs evicted and readmitted by the steps
    that ran.  ``probes`` counts price probes, and ``reused_probes`` those
    of them answered by an earlier probe at the same rank without a replay.
    """

    fit_checks: int = 0
    commits: int = 0
    preemptions: int = 0
    readmissions: int = 0
    probes: int = 0
    reused_probes: int = 0


def processing_key(job: Job) -> tuple[float, int]:
    """The greedy's job order: per-second bid descending, ties by ascending id."""
    return (-job.unit_value, job.id)


def fits_in_residual(job: Job, timeline: SegmentedTimeline, committed: list[int]) -> bool:
    """True iff the job's demand fits the residual capacity of its window.

    Because allocations need not be contiguous, summed residual capacity
    inside the window is both necessary and sufficient.
    """
    return window_residual(job, timeline, committed) >= job.duration


class _Snapshot:
    """One channel between two ranks, and the greedy's slot-fill rule on it.

    ``timeline`` is the channel's segmentation, the market's own object.
    ``winners`` is the channel's placed jobs in processing order,
    ``committed`` its per-slot used seconds, and ``allocations`` each
    winner's per-slot amounts, which sum slot-wise to ``committed``; none
    of them changes once the snapshot is built.  ``residual`` and
    ``place`` answer from memos that only grow, each answer a function of
    the snapshot's content and the asking job (module docstring):
    ``residuals`` maps a job id to the job's free window seconds, and
    ``placed`` maps (job id, bid) to ``place``'s answer in whichever case
    asked.  ``readmit`` is case 3.
    """

    __slots__ = ("timeline", "winners", "committed", "allocations", "residuals", "placed")

    def __init__(self, timeline: SegmentedTimeline, winners: tuple[Job, ...],
                 committed: list[int], allocations: dict[int, list[int]]):
        self.timeline = timeline
        self.winners = winners
        self.committed = committed
        self.allocations = allocations
        self.residuals: dict[int, int] = {}
        self.placed: dict[tuple[int, float], tuple[_Snapshot | None, tuple[int, ...]]] = {}

    def residual(self, job: Job, stats: PvgStats) -> int:
        """The free seconds in ``job``'s window: case 1 places it where they cover its duration."""
        free = self.residuals.get(job.id)
        if free is None:
            free = self.residuals[job.id] = window_residual(job, self.timeline, self.committed)
            stats.fit_checks += 1
        return free

    def place(self, job: Job, stats: PvgStats,
              beta: float | None = None) -> tuple[_Snapshot | None, tuple[int, ...]]:
        """This snapshot with ``job`` placed, or None, and the ids of the winners a walk summed.

        Without ``beta`` the caller has seen that ``job`` fits (cases 1 and
        3), and it is forward-filled into the residual; no ids are summed.
        With ``beta`` it does not fit (case 2).  The channel is passed over
        unwalked, and unmemoized, where the window's residual ``free``
        leaves ``beta * (duration - free) > duration * (1 + 1e-9)`` (module
        docstring).  Otherwise the walk's candidates are the winners with
        any seconds inside ``job``'s window, ordered by per-second value
        ascending (ties: descending id), which is ``winners`` reversed; a
        winner whose window misses the job's slot range frees nothing and
        is passed over unsummed.  Removing one frees exactly its in-window
        seconds, so a running total from ``free`` finds the first prefix
        after which the job fits.  That prefix is released and the job
        filled in only if the job's bid exceeds ``beta`` times its value;
        the walk gives up as soon as the value so far reaches that, since
        adding non-negative bids never lowers a float sum.  The channel is
        one of the job's candidates, so removing every overlapping winner
        frees the whole window capacity, which covers the job's duration.
        Memoized by (job id, bid).
        """
        if beta is not None:
            free, duration = self.residual(job, stats), job.duration
            if beta * (duration - free) > duration * (1.0 + 1e-9):
                return None, ()
        key = (job.id, job.bid_value)
        answer = self.placed.get(key)
        if answer is not None:
            return answer
        summed: list[int] = []
        if beta is not None:
            windows = self.timeline.job_windows
            first, last = windows[job.id]
            value = 0.0
            for cand in reversed(self.winners):
                lo, hi = windows[cand.id]
                freed = sum(self.allocations[cand.id][max(lo, first):min(hi, last) + 1])
                if not freed:
                    continue
                stats.fit_checks += 1
                value += cand.bid_value
                summed.append(cand.id)
                if job.bid_value <= beta * value:
                    break
                free += freed
                if free >= duration:
                    break
            if free < duration:  # stopped by value, or no prefix fits it
                answer = self.placed[key] = None, tuple(summed)
                return answer
        committed = list(self.committed)
        allocations = dict(self.allocations)
        winners = self.winners
        for victim in summed:
            for l, a in enumerate(allocations.pop(victim)):
                committed[l] -= a
                if committed[l] < 0:
                    raise ValueError(f"slot {l} of channel {self.timeline.channel_id} "
                                     f"released below zero")
            # not ``w.id in allocations`` in a comprehension: that closure costs every call
            at = [w.id for w in winners].index(victim)
            winners = winners[:at] + winners[at + 1:]
        allocations[job.id] = commit_allocation(job, self.timeline, committed)
        at = bisect_left(winners, processing_key(job), key=processing_key)
        answer = self.placed[key] = (
            _Snapshot(self.timeline, winners[:at] + (job,) + winners[at:], committed, allocations),
            tuple(summed))
        stats.commits += 1
        return answer

    def readmit(self, jobs: list[Job], stats: PvgStats) -> _Snapshot:
        """Case 3: this snapshot with each of ``jobs`` in turn placed where it fits.

        The fit test is ``fits_in_residual``, unmemoized.
        """
        snap = self
        for job in jobs:
            stats.fit_checks += 1
            if fits_in_residual(job, snap.timeline, snap.committed):
                snap = snap.place(job, stats)[0]
                stats.readmissions += 1
        return snap


# The allocator's state between two processed ranks: each channel's snapshot.
PvgState = dict[int, _Snapshot]


# A node of a market's trie of greedy runs (``_Greedy.walk``): the state
# after its path of jobs, whether the path's last job preempted, and its
# children by job id.  A plain tuple: a class per node made pricing slower.
_Node = tuple[PvgState, bool, dict[int, "_Node"]]


class _Greedy:
    """One clearing's greedy: what no rank changes, and the steps between ``PvgState``s.

    Built once per ``run_pvg`` or ``pvg_allocate`` call.  ``candidates``
    aliases the market's own, which every clearing of the market object
    shares; ``root`` is the root of the market's trie of runs at this
    beta, whose state is the empty allocation (module docstring).
    ``order`` is the clearing's processing order (``processing_key``)
    over reserve-eligible jobs, ``keys`` its processing keys,
    ``highest[k]`` the largest bid among ``order[k:]`` and ``truthful``
    its run's path down the trie.  ``step`` fixes the order of the three
    cases and picks the jobs case 3 retries, and each channel's
    ``_Snapshot`` answers them.  Work is counted into ``stats``.  While a
    probe of job ``watched`` replays, a step sets ``bid_read`` when one of
    its eviction walks reads that job's bid.
    """

    def __init__(self, market: LocalMarket, config: AuctionConfig, stats: PvgStats):
        self.config = config
        self.stats = stats
        timelines = build_timelines(market)
        self.candidates = market.candidates
        if config.beta not in market.greedy_runs:
            empty = {cid: _Snapshot(tl, (), [0] * (len(tl.boundaries) - 1), {})
                     for cid, tl in timelines.items()}
            market.greedy_runs[config.beta] = (empty, False, {})
        self.root: _Node = market.greedy_runs[config.beta]
        self.order = sorted(filter_reserve(market.jobs, config.eta_s), key=processing_key)
        self.keys = [processing_key(j) for j in self.order]
        self.highest = list(accumulate(reversed([j.bid_value for j in self.order]), max))[::-1]
        self.watched: int | None = None
        self.bid_read = False

    def step(self, state: PvgState, order: list[Job], idx: int) -> tuple[PvgState, bool]:
        """Process ``order[idx]`` from ``state``: the state after it, and True iff it preempted.

        ``state`` is left as it is.  A rank that places its job returns a new
        mapping whose one changed channel has a new snapshot; a rank that
        leaves its job unplaced returns ``state`` itself.
        """
        stats = self.stats
        job = order[idx]
        channels = self.candidates[job.id]
        for cid in channels:  # case 1: conflict-free acceptance
            snap = state[cid]
            if snap.residual(job, stats) >= job.duration:
                return {**state, cid: snap.place(job, stats)[0]}, False
        # case 2: try to preempt cheaper overlap where an eviction prefix can pay
        for cid in channels:
            snap, summed = state[cid].place(job, stats, self.config.beta)
            if summed and (job.id == self.watched or self.watched in summed):
                self.bid_read = True
            if snap is None:
                continue
            # a paying walk evicts every winner it summed
            stats.preemptions += len(summed)
            state = {**state, cid: snap}
            # case 3: readmission into this channel only
            placed_ids = {w for other in state.values() for w in other.allocations}
            retried = []  # a loop, not a closure over ``self`` and ``cid`` in every step
            for earlier in order[:idx]:
                if earlier.id not in placed_ids and cid in self.candidates[earlier.id]:
                    retried.append(earlier)
            state[cid] = snap.readmit(retried, stats)
            return state, True
        return state, False

    def walk(self, order: list[Job], path: list[_Node]) -> list[_Node]:
        """``path`` extended down the market's trie to the end of ``order``.

        ``path[k]`` is the node of ``order[:k]``, so ``path[k][0]`` is the
        state before rank k, and ``path`` starts with the nodes of some
        prefix of ``order``.  A rank is processed by ``step`` only where no
        earlier walk made its node; ``path`` is extended in place and
        returned.
        """
        node = path[-1]
        for idx in range(len(path) - 1, len(order)):
            jid = order[idx].id
            child = node[2].get(jid)
            if child is None:
                state, preempted = self.step(node[0], order, idx)
                child = node[2][jid] = (state, preempted, {})
            path.append(child)
            node = child
        return path

    @cached_property
    def truthful(self) -> list[_Node]:
        """The clearing's own run: the path of ``order`` from the trie's root."""
        return self.walk(self.order, [self.root])

    def outcome(self) -> AuctionOutcome:
        """The allocation of ``truthful``; payments are left unset."""
        state = self.truthful[-1][0]
        assignment = dict(sorted((j.id, cid) for cid, snap in state.items()
                                 for j in snap.winners))
        return AuctionOutcome(
            assignment=assignment,
            allocations={jid: list(state[cid].allocations[jid])
                         for jid, cid in assignment.items()},
            payments={},
        )

    def resumed_probe(self, job: Job):
        """Win predicate over ``job``'s bid that replays only the ranks that can change it.

        ``job`` is a winner of ``truthful``, so it is in ``order``.  Walks
        the market without ``job`` once, down the trie from the truthful
        path's node at ``job``'s rank, which gives its state before each
        rank and the ranks at which it preempted.  Each probe inserts the
        deviated job at its rank under the processing key, resumes from the
        state of the path's node there, and stops by the two rules of the
        module docstring; a probe at a rank already replayed takes that
        replay's answer where the docstring allows.
        """
        keys, highest, beta, stats = self.keys, self.highest, self.config.beta, self.stats
        rank = bisect_left(keys, processing_key(job))
        others = self.order[:rank] + self.order[rank + 1:]
        without = self.walk(others, self.truthful[:rank + 1])
        preempting = [k for k in range(rank, len(others)) if without[k + 1][1]]
        channels = self.candidates[job.id]
        # rank -> (answer, rank of an early win or None), or None where the bid was read
        answers: dict[int, tuple[bool, int | None] | None] = {}

        def holds(state: PvgState) -> bool:
            return any(job.id in state[cid].allocations for cid in channels)

        def replay(probe: Job, at: int) -> tuple[bool, int | None]:
            probe_order = others[:at] + [probe] + others[at:]
            state = self.step(without[at][0], probe_order, at)[0]
            idx = at
            if not holds(state):
                # An unplaced probe changes nothing: this run is the run without
                # it except at a preempting rank, whose case-3 scan may readmit it.
                for k in preempting[bisect_left(preempting, at):]:
                    state = self.step(without[k][0], probe_order, k + 1)[0]
                    if holds(state):
                        idx = k + 1
                        break
                else:
                    return False, None
            # others[idx:], that is order[idx + 1:], are still to come; no bid
            # up to beta * bid evicts the probe
            safe = beta * probe.bid_value
            while idx < len(others):
                if holds(state) and highest[idx + 1] <= safe:
                    return True, idx
                idx += 1
                state = self.step(state, probe_order, idx)[0]
            return holds(state), None

        def wins(bid: float) -> bool:
            stats.probes += 1
            probe = _with_bid(job, bid)
            # at most job's own bid, the probe ranks below order[:rank + 1];
            # from there on, others[k] is order[k + 1]
            at = bisect_left(keys, processing_key(probe), rank + 1) - 1
            earlier = answers.get(at)
            if earlier is not None:
                won, stop = earlier
                if stop is None or highest[stop + 1] <= beta * bid:
                    stats.reused_probes += 1
                    return won
            self.watched, self.bid_read = job.id, False
            won, stop = replay(probe, at)
            self.watched = None
            answers.setdefault(at, None if self.bid_read else (won, stop))
            return won

        return wins


def pvg_allocate(market: LocalMarket, config: AuctionConfig,
                 stats: PvgStats | None = None) -> AuctionOutcome:
    """Run the greedy allocation; payments are left unset.

    Deterministic in (market, config): all orderings carry explicit id
    tie-breaks.  It is the truthful run of ``run_pvg``, so a later
    clearing of the same market object at the same beta reuses its path
    in the market's trie and its memos.  Work is counted into ``stats``,
    a fresh ``PvgStats`` when not given.
    """
    return _Greedy(market, config, PvgStats() if stats is None else stats).outcome()


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


def critical_value(greedy: _Greedy, job: Job) -> float:
    """Least grid bid at which ``job``, a winner of ``greedy.truthful``, still wins.

    The candidate bids are ``eta_s * duration + k * xi`` for k = 0, 1, ...
    strictly below the reported value ``job.bid_value``, plus that value.
    Bid monotonicity makes the win predicate a threshold over them, so
    ``bisect_left`` finds the first winning one among the n below the
    value, which itself wins by assumption and is never probed.
    """
    config = greedy.config
    floor = config.eta_s * job.duration
    top = job.bid_value
    n = bid_grid_size(floor, top, config.xi)
    if n == 0:
        return top
    wins = greedy.resumed_probe(job)
    first = bisect_left(range(n), True,
                        key=lambda k: wins(bid_grid_point(floor, top, config.xi, k, n)))
    return bid_grid_point(floor, top, config.xi, first, n)


def run_pvg(market: LocalMarket, config: AuctionConfig,
            stats: PvgStats | None = None) -> AuctionOutcome:
    """Allocate, price, and package the greedy mechanism's outcome.

    One ``_Greedy`` builds the clearing's rank tables once, and every
    winner is priced by probes that resume from the states along its run
    without it.  Every run is a walk down the market's trie, so
    the ranks that earlier clearings of the market object processed are
    not processed again (module docstring).
    """
    greedy = _Greedy(market, config, PvgStats() if stats is None else stats)
    outcome = greedy.outcome()
    payments = {j.id: 0.0 for j in market.jobs}
    for snap in greedy.truthful[-1][0].values():
        for winner in snap.winners:
            payments[winner.id] = critical_value(greedy, winner)
    outcome.payments = payments
    return outcome


def rho_bound(beta: float) -> float:
    """Worst-case efficiency-loss factor 2(beta+1)/(1 - 1/beta).

    Minimized at beta = 1 + sqrt(2), where it equals 6 + 4*sqrt(2).
    """
    if beta <= 1.0:
        raise ValueError("rho_bound requires beta > 1; the bound diverges at 1")
    return 2.0 * (beta + 1.0) / (1.0 - 1.0 / beta)
