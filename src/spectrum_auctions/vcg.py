"""Exact winner determination and pivot payments for one local market.

Winner determination maximizes the sum of accepted bids subject to the
reserve, single-channel-per-job, and slot-capacity constraints.  The
search is a hand-rolled depth-first branch and bound: each job is either
rejected or assigned to one channel, every partial assignment keeps each
channel's job set jointly feasible, and one upper bound prunes the tree:
the bids accepted so far plus the bids of the jobs still alive.  A job
is dead once it fits beside no channel's set: sets only grow down the
tree and a superset of an infeasible set is infeasible, so it is
rejected in the whole subtree, and the search skips it instead of
branching on it.  Which later jobs still fit beside a channel's set is
memoized per channel and set.  Jobs are branched on largest bid first
(ties by id), so the bound shrinks as fast as it can.

The market is first cut into time components: sorted by arrival, a
new component starts wherever the next arrival is at or after every
earlier deadline (windows are half-open, so touching windows part).
Components cover disjoint time, so a channel's job set is feasible
exactly when each component's part of it is, the optimum is the union of
the component optima, and removing a winner changes only its own
component.  Each component gets its own search over the market's one
set of timelines and candidate channels, which every clearing of the
market object shares (``LocalMarket.timelines`` and ``.candidates``).

Payments follow the pivot rule: a winner pays the welfare the others
lose by its presence, floored at the reserve for its requested time.
``solve_optimal`` returns its reserve and its searches with the optimum,
and ``vcg_payments`` reruns exactly those, so a solution is always
priced at the reserve it was solved at.
The market without winner k is the solve's own tree with k rejected, so
one pricing search per component over the solve's setup (timelines,
branching order, candidate channels and later-fits memo)
prices every winner in it at once, the way shortest-path Vickrey prices
are found all together (Hershberger & Suri 2001).  It keeps
``best_without[k]`` per winner, starting at the welfare of the
component's optimum without k.  A leaf raises the entry of every winner
it rejects, and a node is pruned when its bound is below the smallest
entry among the winners it has not accepted (so also once it has
accepted them all).  That minimum is cached per set of accepted winners
until a leaf raises an entry.

Branch and bound may close a node once a feasible leaf meets the node's
bound (Land & Doig 1960), and pricing does so at a node's first leaf:
each alive job, lowest branching index first, accepted on the first
candidate channel where it still fits.  When that leaf accepts every job
alive at the node, no leaf below holds more bids.  So it is the best leaf
below for every winner rejected above the node, and for a winner k still
alive there the best is that leaf without k: a subset of a feasible
channel set is feasible, and when every bid is positive no other set
ties it.  The search offers those leaves and skips the rest of the
subtree.  The solve does not use this rule, because it breaks welfare
ties by channel ids too and another assignment of the same winners can
have smaller ones.  Nor does a node where a job bidding at most
``PRUNE_EPS`` is alive: the sets with and without a zero bid tie, and the
tie goes to the smaller key.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .market import (
    AuctionConfig,
    AuctionOutcome,
    Job,
    LocalMarket,
    SegmentedTimeline,
    SpectrumAuctionError,
    build_timelines,
    filter_reserve,
    set_feasible,
    window_flow_allocation,
    winner_welfare,
)

DEFAULT_MAX_JOBS = 18


class SolverSizeError(SpectrumAuctionError):
    """The instance exceeds the configured exact-solver job cap."""


@dataclass(frozen=True)
class VcgSolution:
    """An exact optimum at reserve ``eta_s``: welfare plus the realizing assignment.

    ``searches`` are the component searches that found it; ``vcg_payments``
    reruns them to price its winners.
    """

    welfare: float
    assignment: dict[int, int]
    allocations: dict[int, list[int]]
    eta_s: float
    searches: list[_Search] = field(repr=False, compare=False)


class _Search:
    """DFS state for the branch and bound over one time component.

    Jobs are indexed by their position in the branching order (largest
    bid first); each channel's tentative job set is an index bitmask.  A
    node also knows, per channel, ``fits[cid]``: the undecided jobs that
    still fit beside that channel's set.  Sets only grow down the tree and
    a superset of an infeasible set is infeasible, so a job in no
    channel's ``fits`` (a dead job) is rejected in the whole subtree: the
    DFS skips straight to the lowest job still alive, and the one bound is
    the bids accepted so far plus the bids still alive.  Each channel's
    ``fits`` comes from ``later_fits``, one memo per channel keyed by
    mask: the jobs after the mask's last job that fit beside it.  An
    entry is filled from its parent's, testing only the parent's later
    jobs, so each (mask, later job) pair, and so each channel set, is
    decided at most once per search.

    One DFS body serves every run: a run has a list of targets, each the
    best welfare over the leaves that leave out one job (its excluded
    bit), and a node is searched while its bound reaches the smallest
    target it can still raise.  ``solve()`` has one target that excludes
    nothing; ``price()`` one per winner.  Each target keeps the smallest
    key among the leaves that reach it (winner ids, then for the solve
    channel ids), so no result depends on the branching order.  All runs
    share the memo.

    A parent checks each child's bound against the child's cutoff before
    calling it, so every ``_dfs`` call is a node past its cutoff.  A
    pricing ``_dfs`` returns the winner ids of its node's first leaf when
    that leaf took every job alive at the node (the rule in the module
    docstring); a parent whose first accept branch returned ids and killed
    no job offers the leaf without its own job, then returns the same
    ids.  When the cutoff prunes a first child that is a leaf, the
    parent's own target is the only one that can still rise there, and
    the leaf's winners are the ids.  A pruned first child that is not a
    leaf is searched no further: walking its first path could still close
    the ancestors, but on the exact-hot panel those walks cost more
    feasibility checks and time than the closures saved.
    """

    # The bound is compared with a hair of slack: an exactly-tight float
    # bound may land one ulp under the incumbent and must not prune the
    # branch that realizes it.  Admitting dust-level-worse branches is
    # harmless for exactness.  The bound is carried down as the root's
    # alive-bid sum less each bid rejected or killed on the way, and a
    # leaf's welfare sums its winners' bids in id order: each takes at
    # most n roundings of 2**-53 times the component's bid total, so a
    # tied leaf is pruned only if 2n of them exceed the slack, which
    # needs bid totals above about 10**5 at the cap (workload markets
    # total a few hundred).
    PRUNE_EPS = 1e-9

    def __init__(self, order: list[Job], timelines: dict[int, SegmentedTimeline],
                 candidates: list[list[int]]):
        self.order = order
        self.timelines = timelines
        self.candidates = candidates
        self.masks = dict.fromkeys(timelines, 0)
        self.assignment: dict[int, int] = {}
        self.bids = [j.bid_value for j in order]
        self.value_by_id = {j.id: j.bid_value for j in order}
        # a job fits beside the empty set exactly where it is a candidate
        self.fits = dict.fromkeys(timelines, 0)
        self.root_alive = 0
        self.root_bound = 0.0
        for i, cids in enumerate(candidates):
            for cid in cids:
                self.fits[cid] |= 1 << i
            if cids:
                self.root_alive |= 1 << i
                self.root_bound += self.bids[i]
        self.later_fits = {cid: {0: fits} for cid, fits in self.fits.items()}
        # jobs whose bid is too small for a first leaf to settle a subtree
        self.tiny = sum(1 << i for i, b in enumerate(self.bids) if b <= self.PRUNE_EPS)

    def _fill_later_fits(self, cid: int, mask: int, parent_fits: int) -> int:
        """Memoize which of ``parent_fits`` after ``mask``'s last job fit beside ``mask``."""
        members = [self.order[i] for i in _indices(mask)]
        timeline = self.timelines[cid]
        top = mask.bit_length()
        fits = 0
        for i in _indices(parent_fits >> top << top):
            if set_feasible([*members, self.order[i]], timeline):
                fits |= 1 << i
        self.later_fits[cid][mask] = fits
        return fits

    def solve(self) -> dict[int, int]:
        """The best assignment, ties to the smallest (winner ids, channel ids)."""
        self._run([0], [-1.0], [()])
        return dict(zip(*self.best_sets[0]))

    def price(self, winners: set[int]) -> list[tuple[Job, tuple[int, ...]]]:
        """The best winner set without each winner of ``winners``, all from one DFS.

        ``winners`` is the solve's winner set.  Each target starts at the
        others in it, which are feasible without that winner, so the
        bound prunes from the root.
        """
        targets = [i for i, j in enumerate(self.order) if j.id in winners]
        others = [tuple(sorted(w for w in winners if w != self.order[i].id)) for i in targets]
        self._run([1 << i for i in targets],
                  [winner_welfare(self.value_by_id, ids) for ids in others], others)
        return [(self.order[i], ids) for i, ids in zip(targets, self.best_sets)]

    def _run(self, excluded: list[int], best: list[float],
             best_sets: list[tuple]) -> None:
        # A node carries ``accepted``, the excluded bits it has taken;
        # target t is alive there while ``excluded[t] & accepted`` is 0.
        # The cutoff of each ``accepted`` is cached until a leaf raises a
        # target (every optimal leaf is kept by the slack pruning, so the
        # tie-break still sees them all).
        self.excluded = excluded
        self.best = best
        self.best_sets = best_sets
        self.watched = sum(excluded)
        self.cutoffs: dict[int, float] = {}
        if self.root_bound >= self._cutoff(0):
            self._dfs(self.root_alive, self.root_bound, 0)

    def _cutoff(self, accepted: int) -> float:
        # min best over the live targets; with none left nothing can rise
        cutoff = min((b for b, bit in zip(self.best, self.excluded) if not bit & accepted),
                     default=math.inf) - self.PRUNE_EPS
        self.cutoffs[accepted] = cutoff
        return cutoff

    def _dfs(self, alive: int, bound: float, accepted: int) -> tuple[int, ...] | None:
        """Search below a node whose bound reaches its cutoff; the caller checks that.

        Returns the first leaf's winner ids when a pricing run's first leaf
        took every job alive here (the subtree is then settled), else None.
        """
        if not alive:
            winners = tuple(sorted(self.assignment))
            self._offer(winners, accepted)
            return winners if self.watched else None
        bit = alive & -alive
        depth = bit.bit_length() - 1
        job = self.order[depth]
        rest = alive ^ bit
        own = bit & self.watched
        taken = accepted | own
        bids, cutoffs = self.bids, self.cutoffs
        fits, masks, assignment = self.fits, self.masks, self.assignment
        # only the first accept branch can close the node, and a bid of
        # PRUNE_EPS or less would tie the leaves with and without it
        first = not alive & self.tiny
        for cid in self.candidates[depth]:
            before = fits[cid]
            if not before & bit:
                continue
            mask = masks[cid] | bit
            after = self.later_fits[cid].get(mask)
            if after is None:
                after = self._fill_later_fits(cid, mask, before)
            # the jobs this channel no longer holds die unless another still does
            dead = rest & before & ~after
            child_bound = bound
            if dead:
                for other, other_fits in fits.items():
                    if other != cid:
                        dead &= ~other_fits
                left = dead
                while left:
                    low = left & -left
                    child_bound -= bids[low.bit_length() - 1]
                    left ^= low
            cutoff = cutoffs.get(taken)
            if cutoff is None:
                cutoff = self._cutoff(taken)
            if child_bound >= cutoff:
                fits[cid] = after
                masks[cid] = mask
                assignment[job.id] = cid
                ids = self._dfs(rest ^ dead, child_bound, taken)
                del assignment[job.id]
                masks[cid] = mask ^ bit
                fits[cid] = before
            elif first and own and not rest:
                # a pruned leaf: no target live there can rise, and its
                # winners are all this job's own target needs
                ids = tuple(sorted([*assignment, job.id]))
            else:
                ids = None
            if first and not dead and ids is not None:
                if own:
                    self._offer(tuple(w for w in ids if w != job.id), accepted | rest & self.watched)
                return ids
            first = False
        cutoff = cutoffs.get(accepted)
        if cutoff is None:
            cutoff = self._cutoff(accepted)
        if bound - bids[depth] >= cutoff:
            self._dfs(rest, bound - bids[depth], accepted)
        return None

    def _offer(self, winners: tuple[int, ...], accepted: int) -> None:
        # winner_welfare's id-ordered sum, over a tuple already in id order
        canon = sum(map(self.value_by_id.__getitem__, winners), 0.0)
        best = self.best
        for t, bit in enumerate(self.excluded):
            if bit & accepted or canon < best[t]:
                continue
            # ties go to the smaller key; the solve's key adds its channels
            key = winners if bit else (winners, tuple(self.assignment[w] for w in winners))
            if canon == best[t] and key >= self.best_sets[t]:
                continue
            best[t] = canon
            self.best_sets[t] = key
            self.cutoffs.clear()


def _indices(mask: int) -> Iterator[int]:
    """The positions of ``mask``'s set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _time_components(jobs: list[Job]) -> list[list[Job]]:
    """Jobs in runs of overlapping ``[arrival, deadline)`` windows, in time order.

    Sorted by (arrival, id), a new run starts wherever the next arrival
    is at or after the largest deadline so far.
    """
    components: list[list[Job]] = []
    end = -math.inf
    for j in sorted(jobs, key=lambda j: (j.arrival, j.id)):
        if j.arrival >= end:
            components.append([])
        components[-1].append(j)
        end = max(end, j.deadline)
    return components


def _component_searches(jobs: list[Job], timelines: dict[int, SegmentedTimeline],
                        candidates: dict[int, list[int]]) -> list[_Search]:
    """One search per time component, over the market's timelines and candidate channels."""
    searches = []
    for component in _time_components(jobs):
        order = sorted(component, key=lambda j: (-j.bid_value, j.id))
        searches.append(_Search(order, timelines, [candidates[j.id] for j in order]))
    return searches


def solve_optimal(market: LocalMarket, eta_s: float, max_jobs: int = DEFAULT_MAX_JOBS) -> VcgSolution:
    """Exact welfare-maximizing assignment for one local market.

    Each time component is solved on its own, and welfare ties are broken
    per component: toward the lexicographically smallest winner id set,
    then the smallest channel ids, so payments are reproducible.  With
    positive bids this is the market-wide smallest winner id set too.  A
    zero-bid job wins only when, in its own component, a winner with a
    higher id wins beside it; winners in other components do not count.
    The assignment is keyed in id order, whatever the branching order.
    Worst case is exponential; the job cap ``max_jobs`` counts every
    eligible job of the market and guards it.
    """
    jobs = filter_reserve(market.jobs, eta_s)
    if len(jobs) > max_jobs:
        raise SolverSizeError(
            f"{len(jobs)} jobs exceed the exact-solver cap of {max_jobs}; "
            "pass max_jobs (--vcg-max-jobs) to override"
        )
    timelines = build_timelines(market)
    searches = _component_searches(jobs, timelines, market.candidates)
    assignment = dict(sorted(pair for search in searches for pair in search.solve().items()))
    by_id = {j.id: j for j in jobs}
    welfare = winner_welfare({j.id: j.bid_value for j in jobs}, assignment)

    allocations: dict[int, list[int]] = {}
    for c in market.channels:
        members = [by_id[jid] for jid in sorted(assignment) if assignment[jid] == c.id]
        if not members:
            continue
        flows = window_flow_allocation(members, timelines[c.id])
        assert flows is not None, "search accepted an infeasible channel set"
        allocations.update(flows)
    return VcgSolution(welfare, assignment, allocations, eta_s, searches)


def vcg_payments(market: LocalMarket, solution: VcgSolution) -> dict[int, float]:
    """Pivot payments for ``solve_optimal``'s ``solution`` of ``market``; losers pay zero.

    Each winner's price is the optimum of the market without it minus
    what the others get at the actual optimum, floored at the reserve
    the solution was solved at.  One pricing pass per time component,
    over the solve's own searches, finds every winner's optimum without
    it.  The exact-solver cap is not checked again: the passes search
    the solve's own tree.
    """
    value_by_id = {j.id: j.bid_value for j in market.jobs}
    payments = {j.id: 0.0 for j in market.jobs}
    for search in solution.searches:
        own = {w for w in solution.assignment if w in search.value_by_id}
        rest = [w for w in solution.assignment if w not in own]
        for job, best_set in search.price(own):
            welfare_without = winner_welfare(value_by_id, [*rest, *best_set])
            pivot = welfare_without - (solution.welfare - job.bid_value)
            payments[job.id] = max(pivot, solution.eta_s * job.duration)
    return payments


def run_vcg(market: LocalMarket, config: AuctionConfig,
            max_jobs: int = DEFAULT_MAX_JOBS) -> AuctionOutcome:
    """Solve, price, and package the exact mechanism's outcome."""
    solution = solve_optimal(market, config.eta_s, max_jobs=max_jobs)
    payments = vcg_payments(market, solution)
    return AuctionOutcome(
        assignment=dict(solution.assignment),
        allocations={k: list(v) for k, v in solution.allocations.items()},
        payments=payments,
    )
