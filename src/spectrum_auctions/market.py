"""Domain types and allocation primitives for local spectrum markets.

A request (job) asks for ``duration`` seconds of a single channel anywhere
inside its ``[arrival, deadline)`` window, not necessarily contiguously.
A channel offers free time intervals; everything outside them belongs to
the primary user and is unsellable.  Jobs and channels are grouped into
independent local markets by (region, band_type), and each channel's time
axis is cut at every job arrival/deadline and free-interval edge so that
feasibility questions reduce to arithmetic on free-second prefix sums.

Counting only the free seconds before each slot boundary maps every job
window to a span of free-second coordinates.  Occupied slots vanish
there, and a channel becomes one unit-rate machine, so a job set fits
one channel iff every interval between a release and a due end holds
the demand of the jobs whose spans lie inside it (Horn 1974), an O(k^2)
check for k jobs whatever the channel's slot count.  Preemptive EDF meets
every demand whenever any schedule does, and a fixed-priority schedule
is the earliest fit of each job in priority order, so EDF's per-slot
allocation is the forward fill (``commit_allocation``) run job by job
in (last slot, id) order.  The greedy places its winners with the same
fill.

An outcome is scored here too: its social efficiency is the winners'
true values summed, and its utilization is the seconds it allocates over
the market's free seconds.

All times are integer seconds.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import inf, sqrt
from numbers import Real


class SpectrumAuctionError(Exception):
    """Base class for errors raised by this package."""


def _whole_seconds(value, what: str) -> int:
    """``value`` as an int; a ValueError naming ``what`` unless it is a whole number."""
    if type(value) is int or isinstance(value, Real) and value % 1 == 0:
        return int(value)
    raise ValueError(f"{what} {value!r} is not a whole number of seconds")


@dataclass(frozen=True)
class Job:
    """One secondary-user request for channel time.

    ``bid_value`` is the reported willingness to pay for ``duration``
    seconds delivered anywhere inside ``[arrival, deadline)``; times are whole seconds.
    """

    id: int
    region: str
    band_type: str
    bid_value: float
    arrival: int
    deadline: int
    duration: int

    def __post_init__(self) -> None:
        for name in ("arrival", "deadline", "duration"):
            object.__setattr__(self, name, _whole_seconds(getattr(self, name), f"job {self.id}: {name}"))
        if self.arrival >= self.deadline:
            raise ValueError(f"job {self.id}: arrival must precede deadline")
        if not 0 < self.duration <= self.deadline - self.arrival:
            raise ValueError(f"job {self.id}: duration must lie in (0, deadline - arrival]")
        if not 0 <= self.bid_value < inf:
            raise ValueError(f"job {self.id}: bid_value must be finite and >= 0, got {self.bid_value}")

    @property
    def unit_value(self) -> float:
        """Bid per requested second; the greedy's ``processing_key`` orders jobs by it."""
        return self.bid_value / self.duration


@dataclass(frozen=True)
class Channel:
    """One sellable spectrum unit with its free time intervals.

    ``free_intervals`` are disjoint, sorted, half-open ``[start, end)``
    whole-second ranges during which the primary user is idle.
    """

    id: int
    region: str
    band_type: str
    free_intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ivs = tuple(tuple(_whole_seconds(t, f"channel {self.id}: interval edge") for t in iv)
                    for iv in self.free_intervals)
        object.__setattr__(self, "free_intervals", ivs)
        prev_end = None
        for s, e in ivs:
            if e <= s:
                raise ValueError(f"channel {self.id}: empty interval [{s}, {e})")
            if prev_end is not None and s < prev_end:
                raise ValueError(f"channel {self.id}: intervals overlap or are unsorted")
            prev_end = e

    @property
    def free_seconds(self) -> int:
        return sum(e - s for s, e in self.free_intervals)


@dataclass(frozen=True)
class LocalMarket:
    """The (region, band_type) bucket of jobs and channels auctioned together."""

    region: str
    band_type: str
    jobs: tuple[Job, ...]
    channels: tuple[Channel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(sorted(self.jobs, key=lambda j: j.id)))
        object.__setattr__(self, "channels", tuple(sorted(self.channels, key=lambda c: c.id)))
        key = f"({self.region}, {self.band_type})"
        for kind, members in (("job", self.jobs), ("channel", self.channels)):
            seen: set[int] = set()
            for x in members:
                if (x.region, x.band_type) != (self.region, self.band_type):
                    raise ValueError(f"{kind} {x.id} does not belong to market {key}")
                if x.id in seen:
                    raise ValueError(f"duplicate {kind} id {x.id} in market {key}")
                seen.add(x.id)

    # Work that every clearing of this market object shares, whatever its
    # reserve: a reserve only drops jobs, and neither mechanism changes a
    # timeline.  Each is computed on first use and lives exactly as long as
    # the object; an equal market built anew starts without them.

    @cached_property
    def timelines(self) -> dict[int, SegmentedTimeline]:
        """Every channel segmented against all the market's jobs, by channel id."""
        return {c.id: segment_timeline(c, list(self.jobs)) for c in self.channels}

    @cached_property
    def candidates(self) -> dict[int, list[int]]:
        """Each job id's channels, in channel id order, whose window capacity covers it.

        No allocation can place a job on any other channel.
        """
        return {j.id: [cid for cid, tl in self.timelines.items() if tl.window_capacity(j) >= j.duration]
                for j in self.jobs}

    @cached_property
    def greedy_runs(self) -> dict[float, tuple]:
        """The root of the greedy's prefix trie of runs per beta, grown and walked by ``pvg._Greedy``."""
        return {}

    def job_by_id(self, job_id: int) -> Job:
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(job_id)


@dataclass(frozen=True)
class AuctionConfig:
    """Mechanism parameters shared by both auctions.

    ``beta`` is the preemption threshold factor (a newcomer evicts
    conflicting winners only if its bid exceeds ``beta`` times their total
    value); ``eta_s`` is the seller's reserve price per second; ``xi`` is
    the bid granularity used by critical-value searches.
    """

    beta: float = 1.0 + sqrt(2.0)
    eta_s: float = 0.0
    xi: float = 0.01

    def __post_init__(self) -> None:
        if not 1.0 <= self.beta < inf:
            raise ValueError(f"beta must be finite and >= 1, got {self.beta}")
        if not 0.0 <= self.eta_s < inf:
            raise ValueError(f"eta_s must be finite and >= 0, got {self.eta_s}")
        if not 0.0 < self.xi < inf:
            raise ValueError(f"xi must be finite and > 0, got {self.xi}")


@dataclass(frozen=True)
class SegmentedTimeline:
    """A channel's horizon cut at every job endpoint and free-interval edge.

    Its slot ``l`` is ``[boundaries[l], boundaries[l + 1])``, and
    ``free_before[l]`` counts the free seconds before ``boundaries[l]``, so
    slot ``l`` has ``free_before[l + 1] - free_before[l]`` free seconds: its
    length while the primary user is idle, 0 while it is occupied.
    ``job_windows`` maps a job id to the inclusive slot-index range
    ``(first, last)`` covered by its ``[arrival, deadline)`` window;
    ``last == first - 1`` means no whole slot lies inside the window, which
    ``segment_timeline`` never produces since it cuts at every endpoint.
    A window's span in free-second coordinates is ``[free_before[first],
    free_before[last + 1])`` and its capacity is that span's length, read
    when asked, never stored.  Bids never change a timeline.
    """

    channel_id: int
    boundaries: tuple[int, ...]
    free_before: tuple[int, ...]
    job_windows: dict[int, tuple[int, int]]

    def window_capacity(self, job: Job) -> int:
        """Free seconds inside the job's window."""
        first, last = self.job_windows[job.id]
        return self.free_before[last + 1] - self.free_before[first]


def filter_reserve(jobs: Iterable[Job], eta_s: float) -> list[Job]:
    """Keep exactly the jobs whose bid covers the reserve for their time."""
    return [j for j in jobs if j.bid_value >= eta_s * j.duration]


def winner_welfare(value_by_id: Mapping[int, float], winner_ids: Iterable[int]) -> float:
    """The winners' bids summed in id order, so equal winner sets give bitwise-equal welfare."""
    return sum(map(value_by_id.__getitem__, sorted(winner_ids)), 0.0)


def partition_markets(jobs: list[Job], channels: list[Channel]) -> list[LocalMarket]:
    """Group jobs and channels into local markets by (region, band_type).

    Buckets with zero jobs or zero channels are still returned; auctions
    there are trivially empty.  Duplicate job ids inside one bucket are
    rejected.  Output is sorted by market key so partitioning is
    insensitive to input order.
    """
    buckets: dict[tuple[str, str], tuple[list[Job], list[Channel]]] = {}
    for j in jobs:
        buckets.setdefault((j.region, j.band_type), ([], []))[0].append(j)
    for c in channels:
        buckets.setdefault((c.region, c.band_type), ([], []))[1].append(c)
    markets = []
    for (region, band), (js, cs) in sorted(buckets.items()):
        markets.append(LocalMarket(region=region, band_type=band, jobs=tuple(js), channels=tuple(cs)))
    return markets


def segment_timeline(channel: Channel, jobs: list[Job]) -> SegmentedTimeline:
    """Cut the channel's time axis at every job endpoint and interval edge.

    A slot between consecutive boundaries has its full length free when
    it lies inside a free interval and nothing free otherwise; the prefix
    sums of those free seconds are the timeline's ``free_before``.  Every
    job's window is recorded once as the slot range between its endpoints.
    """
    edges: set[int] = set()
    for j in jobs:
        edges.add(j.arrival)
        edges.add(j.deadline)
    for s, e in channel.free_intervals:
        edges.add(s)
        edges.add(e)
    boundaries = tuple(sorted(edges))
    # Interval edges are boundaries, so each slot lies wholly inside one
    # free interval or wholly outside all of them: one forward walk decides.
    intervals = channel.free_intervals
    k = 0
    free = []
    for s, e in zip(boundaries, boundaries[1:]):
        while k < len(intervals) and intervals[k][1] <= s:
            k += 1
        free.append(e - s if k < len(intervals) and intervals[k][0] <= s else 0)
    index = {b: i for i, b in enumerate(boundaries)}
    job_windows = {j.id: (index[j.arrival], index[j.deadline] - 1) for j in jobs}
    return SegmentedTimeline(channel.id, boundaries, tuple(accumulate(free, initial=0)), job_windows)


def window_residual(job: Job, timeline: SegmentedTimeline, committed: list[int]) -> int:
    """Free seconds left inside the job's window under ``committed`` usage."""
    first, last = timeline.job_windows[job.id]
    return timeline.window_capacity(job) - sum(committed[first:last + 1])


def commit_allocation(job: Job, timeline: SegmentedTimeline, committed: list[int]) -> list[int]:
    """Forward-fill the job from its arrival toward its deadline.

    Walks the window slots in time order, taking the smaller of the
    slot's residual (its free seconds less ``committed``) and the
    remaining need from each until the full duration is covered.  The
    caller has checked that the window's residual covers the duration.
    Updates ``committed`` in place and returns the per-slot amounts
    (one per slot, like ``committed``; zero outside the window).
    """
    amounts = [0] * len(committed)
    need = job.duration
    first, last = timeline.job_windows[job.id]
    before = timeline.free_before
    for l in range(first, last + 1):
        room = before[l + 1] - before[l] - committed[l]
        take = room if room < need else need
        if take > 0:
            amounts[l] = take
            committed[l] += take
            need -= take
            if not need:
                break
    return amounts


def set_feasible(jobs: list[Job], timeline: SegmentedTimeline) -> bool:
    """Joint feasibility of a job set on one channel.

    True iff every job can get its full duration inside its window
    without any slot exceeding its capacity.  Each job is released at
    ``free_before[first]`` and due at ``free_before[last + 1]``, and by
    Horn's condition the set fits iff, for every release r and due end d,
    the jobs released at r or later and due by d need at most ``d - r``
    seconds.  For each job's release, one pass over the spans in due
    order sums that demand, so the check is O(k^2) for k jobs.  The tests
    cross-check it against an exhaustive subset search, a slot-by-slot
    EDF and the oracle's augmenting-path max flow.
    """
    before, windows = timeline.free_before, timeline.job_windows
    spans = []
    for j in jobs:
        first, last = windows[j.id]
        spans.append((before[last + 1], before[first], j.duration))
    spans.sort()
    for _, release, _ in spans:
        demand = 0
        for due, r, need in spans:
            if r >= release:
                demand += need
                if demand > due - release:
                    return False
    return True


def window_flow_allocation(jobs: list[Job], timeline: SegmentedTimeline) -> dict[int, list[int]] | None:
    """Per-job slot amounts realizing a feasible set, or None if infeasible.

    EDF with ties by id gives each job a fixed priority, its (last slot,
    id), and a fixed-priority schedule is the earliest fit of each job in
    priority order.  So the forward fill, job by job in that order, is
    EDF's allocation, and it runs short for some job iff the set does not
    fit.  The amounts are returned in ``jobs`` order.
    """
    windows = timeline.job_windows
    committed = [0] * (len(timeline.boundaries) - 1)
    amounts = {}
    for j in sorted(jobs, key=lambda j: (windows[j.id][1], j.id)):
        if window_residual(j, timeline, committed) < j.duration:
            return None
        amounts[j.id] = commit_allocation(j, timeline, committed)
    return {j.id: amounts[j.id] for j in jobs}


def build_timelines(market: LocalMarket) -> dict[int, SegmentedTimeline]:
    """Every channel of the market segmented against all its jobs, once per market object."""
    return market.timelines


@dataclass
class AuctionOutcome:
    """Result of running one mechanism on one local market.

    ``assignment`` maps winning job ids to channel ids; ``allocations``
    holds each winner's seconds in every slot of its channel's timeline in
    ``market.timelines`` (``len(boundaries) - 1`` entries, zero outside the
    winner's window);
    ``payments`` covers every job once priced (losers pay 0; empty when
    only the allocation step has run).
    """

    assignment: dict[int, int]
    allocations: dict[int, list[int]]
    payments: dict[int, float]

    def total_revenue(self) -> float:
        return float(sum(self.payments.values()))


def social_efficiency(outcome: AuctionOutcome, jobs: Iterable[Job]) -> float:
    """Sum of the true valuations of the winning jobs."""
    return winner_welfare({j.id: j.bid_value for j in jobs}, outcome.assignment)


def utilization_ratio(outcome: AuctionOutcome, market: LocalMarket) -> float:
    """Allocated seconds over the free (sellable) seconds of the market's channels.

    Wall-clock time the primary user occupies is unsellable and excluded
    from the denominator.  Returns 0.0 when there is no free time at all.
    """
    free = sum(c.free_seconds for c in market.channels)
    if free == 0:
        return 0.0
    return sum(map(sum, outcome.allocations.values())) / free
