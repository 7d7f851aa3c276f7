"""Brute-force references used to validate the mechanisms.

Everything here recomputes from first principles instead of reusing the
solver machinery: time is re-segmented directly from interval arithmetic
and feasibility uses a from-scratch breadth-first augmenting-path flow,
so agreement with the production code is a genuine two-implementation
cross-check.

One exhaustive walk over every winner subset and channel assignment
serves both optima; only its per-channel predicate differs.
``enumerate_optimal`` decides a channel's job set by augmenting paths
(split allocation, the mechanisms' model), ``contiguous_optimal`` by
trying every time ordering of whole blocks.  Enumeration is capped at
12 jobs / 3 channels.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace

from .market import AuctionConfig, Channel, Job, LocalMarket, SpectrumAuctionError
from .pvg import bid_grid_point, bid_grid_size, pvg_allocate


class OracleCapError(SpectrumAuctionError):
    """The instance is too large for exhaustive enumeration."""


MAX_ORACLE_JOBS = 12
MAX_ORACLE_CHANNELS = 3


@dataclass(frozen=True)
class OracleResult:
    best_welfare: float
    best_winner_sets: list[frozenset[int]]


def _check_cap(market: LocalMarket) -> None:
    if len(market.jobs) > MAX_ORACLE_JOBS or len(market.channels) > MAX_ORACLE_CHANNELS:
        raise OracleCapError(
            f"oracle caps at {MAX_ORACLE_JOBS} jobs / {MAX_ORACLE_CHANNELS} channels, "
            f"got {len(market.jobs)} / {len(market.channels)}"
        )


def _atoms(channel: Channel, jobs: list[Job]) -> list[tuple[int, int, int]]:
    """(start, end, free_seconds) pieces cut at all endpoints, from scratch."""
    points = set()
    for j in jobs:
        points.add(j.arrival)
        points.add(j.deadline)
    for s, e in channel.free_intervals:
        points.add(s)
        points.add(e)
    cuts = sorted(points)
    atoms = []
    for s, e in zip(cuts, cuts[1:]):
        free = 0
        for fs, fe in channel.free_intervals:
            lo, hi = max(s, fs), min(e, fe)
            if hi > lo:
                free += hi - lo
        atoms.append((s, e, free))
    return atoms


def _bfs_max_flow(capacity: list[list[int]], source: int, sink: int) -> int:
    """Plain Edmonds-Karp on an adjacency-matrix residual graph."""
    n = len(capacity)
    residual = [row[:] for row in capacity]
    total = 0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for v in range(n):
                if parent[v] == -1 and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            return total
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            r = residual[u][v]
            bottleneck = r if bottleneck is None or r < bottleneck else bottleneck
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        total += bottleneck


def _channel_set_feasible(channel: Channel, jobs: list[Job]) -> bool:
    """All demands routable into the channel's free time, by augmenting paths."""
    if not jobs:
        return True
    atoms = _atoms(channel, jobs)
    n_jobs = len(jobs)
    n = 1 + n_jobs + len(atoms) + 1
    source, sink = 0, n - 1
    cap = [[0] * n for _ in range(n)]
    demand = 0
    for i, j in enumerate(jobs):
        cap[source][1 + i] = j.duration
        demand += j.duration
        for k, (s, e, free) in enumerate(atoms):
            if free > 0 and j.arrival <= s and e <= j.deadline:
                cap[1 + i][1 + n_jobs + k] = free
    for k, (_, _, free) in enumerate(atoms):
        cap[1 + n_jobs + k][sink] = free
    return _bfs_max_flow(cap, source, sink) == demand


def _exhaustive(jobs: list[Job], channels: list[Channel],
                fits: Callable[[Channel, list[Job]], bool]) -> OracleResult:
    """All winner subsets x channel assignments, keeping the best welfare.

    ``fits`` decides one channel's job set (in id order) and is memoized
    per (channel, job set); assignments sharing a set it rejects are
    skipped (adding jobs never restores feasibility).  Welfare is summed
    in id order, so equal winner sets give bitwise-equal welfare.
    """
    by_id = {j.id: j for j in jobs}
    memo: dict[tuple[int, frozenset[int]], bool] = {}
    sets: list[set[int]] = [set() for _ in channels]
    best_welfare = 0.0
    best_sets: set[frozenset[int]] = {frozenset()}

    def walk(i: int) -> None:
        nonlocal best_welfare, best_sets
        if i == len(jobs):
            winners = frozenset().union(*sets)
            welfare = sum((by_id[jid].bid_value for jid in sorted(winners)), 0.0)
            if welfare > best_welfare:
                best_welfare = welfare
                best_sets = {winners}
            elif welfare == best_welfare:
                best_sets.add(winners)
            return
        job = jobs[i]
        for ci, channel in enumerate(channels):
            trial = frozenset(sets[ci] | {job.id})
            if (ci, trial) not in memo:
                memo[ci, trial] = fits(channel, [by_id[jid] for jid in sorted(trial)])
            if memo[ci, trial]:
                sets[ci].add(job.id)
                walk(i + 1)
                sets[ci].remove(job.id)
        walk(i + 1)

    walk(0)
    return OracleResult(best_welfare, sorted(best_sets, key=sorted))


def enumerate_optimal(market: LocalMarket, eta_s: float) -> OracleResult:
    """Best welfare and every winner set attaining it, at reserve ``eta_s``.

    Each channel's job set is decided with the local augmenting-path flow.
    """
    _check_cap(market)
    jobs = [j for j in market.jobs if j.bid_value >= eta_s * j.duration]
    return _exhaustive(jobs, list(market.channels), _channel_set_feasible)


def _earliest_contiguous(job: Job, channel: Channel, not_before: int) -> int | None:
    """Earliest start of a whole block inside one free interval and the window."""
    for fs, fe in channel.free_intervals:
        start = max(job.arrival, not_before, fs)
        if start + job.duration <= min(fe, job.deadline):
            return start
    return None


def _contiguous_feasible(channel: Channel, jobs: list[Job]) -> bool:
    """Can all jobs get disjoint whole blocks?  Tries every time ordering.

    For a fixed left-to-right ordering, packing each block at its earliest
    admissible start dominates any other placement, so trying all
    orderings is exact.
    """
    def place(remaining: list[Job], cursor: int) -> bool:
        if not remaining:
            return True
        for idx, job in enumerate(remaining):
            start = _earliest_contiguous(job, channel, cursor)
            if start is None:
                continue
            rest = remaining[:idx] + remaining[idx + 1:]
            if place(rest, start + job.duration):
                return True
        return False

    return place(jobs, 0)


def contiguous_optimal(market: LocalMarket) -> float:
    """Best welfare when every winner must get one unbroken block of time."""
    _check_cap(market)
    return _exhaustive(list(market.jobs), list(market.channels), _contiguous_feasible).best_welfare


def _wins_at_bid(market: LocalMarket, config: AuctionConfig, job: Job, bid: float) -> bool:
    """Does ``job`` win when it alone changes its bid?  A full allocation run."""
    deviated = LocalMarket(
        region=market.region,
        band_type=market.band_type,
        jobs=tuple(replace(j, bid_value=bid) if j.id == job.id else j for j in market.jobs),
        channels=market.channels,
    )
    return job.id in pvg_allocate(deviated, config).assignment


def scan_critical_value(market: LocalMarket, config: AuctionConfig, job_id: int) -> float:
    """Least winning grid bid by plain linear scan from the reserve floor up.

    Validates the mechanism's binary search and its resumed probes: the
    candidates are the same ``eta_s * duration + k * xi`` offsets capped
    by the reported value, and each is decided by a from-scratch greedy
    run on the deviated market.  The job must win at its truthful bid.
    """
    job = market.job_by_id(job_id)
    floor = config.eta_s * job.duration
    top = job.bid_value
    n = bid_grid_size(floor, top, config.xi)
    for k in range(n + 1):
        bid = bid_grid_point(floor, top, config.xi, k, n)
        if _wins_at_bid(market, config, job, bid):
            return bid
    raise SpectrumAuctionError(f"job {job_id} does not win even at its truthful bid")
