"""Shared generators for randomized instance tests.

Bids are multiples of 0.25 (exact binary fractions) so welfare sums are
exact and cross-implementation equality checks are meaningful.  Times
live on a small integer grid, which caps the segmented slot count.
"""

import random
from dataclasses import replace

import pytest

from spectrum_auctions import Channel, Job, LocalMarket
from spectrum_auctions.vcg import _time_components

REGION = "r1"
BAND = "tv"


def channel(cid, intervals, region=REGION, band=BAND):
    return Channel(id=cid, region=region, band_type=band, free_intervals=tuple(intervals))


def job(jid, v, a, d, t, region=REGION, band=BAND):
    return Job(id=jid, region=region, band_type=band, bid_value=v,
               arrival=a, deadline=d, duration=t)


def market(jobs, channels):
    return LocalMarket(REGION, BAND, tuple(jobs), tuple(channels))


def slot_free(timeline) -> list[int]:
    """Each slot's free seconds, the differences of the timeline's ``free_before``."""
    before = timeline.free_before
    return [b - a for a, b in zip(before, before[1:])]


def random_channel(rng: random.Random, cid: int, grid_max: int = 8) -> Channel:
    """1-3 disjoint free intervals with endpoints on the integer grid."""
    n_points = rng.randint(2, min(6, grid_max + 1))
    points = sorted(rng.sample(range(grid_max + 1), n_points))
    intervals = [(points[i], points[i + 1]) for i in range(0, len(points) - 1, 2)]
    if not intervals:
        intervals = [(0, grid_max)]
    return Channel(id=cid, region=REGION, band_type=BAND, free_intervals=tuple(intervals))


def random_job(rng: random.Random, jid: int, grid_max: int = 8) -> Job:
    arrival = rng.randint(0, grid_max - 1)
    deadline = rng.randint(arrival + 1, grid_max)
    duration = rng.randint(1, deadline - arrival)
    bid = rng.randint(1, 48) * 0.25
    return Job(id=jid, region=REGION, band_type=BAND, bid_value=bid,
               arrival=arrival, deadline=deadline, duration=duration)


def random_market(rng: random.Random, max_jobs: int = 8, max_channels: int = 2,
                  grid_max: int = 8) -> LocalMarket:
    channels = tuple(random_channel(rng, cid + 1, grid_max)
                     for cid in range(rng.randint(1, max_channels)))
    jobs = tuple(random_job(rng, jid + 1, grid_max)
                 for jid in range(rng.randint(1, max_jobs)))
    return LocalMarket(region=REGION, band_type=BAND, jobs=jobs, channels=channels)


def random_reserve(rng: random.Random) -> float:
    # dyadic per-second reserves keep v >= eta_s * t comparisons exact
    return rng.choice([0.0, 0.0, 0.25, 0.5, 1.0])


# Metamorphic transforms: each builds a new market whose outcome under
# either mechanism follows from the original's (tests/test_metamorphic.py).

def rebuilt(m: LocalMarket, jobs=None, channels=None) -> LocalMarket:
    """``m`` with other jobs or channels, as a new market object that shares no cached work."""
    return LocalMarket(m.region, m.band_type, tuple(m.jobs if jobs is None else jobs),
                       tuple(m.channels if channels is None else channels))


def shifted(m: LocalMarket, by: int) -> LocalMarket:
    """Every arrival, deadline and free-interval edge moved ``by`` seconds later."""
    return rebuilt(
        m, [replace(j, arrival=j.arrival + by, deadline=j.deadline + by) for j in m.jobs],
        [replace(c, free_intervals=tuple((s + by, e + by) for s, e in c.free_intervals))
         for c in m.channels])


def scaled(m: LocalMarket, factor: float) -> LocalMarket:
    """Every bid times ``factor``."""
    return rebuilt(m, [replace(j, bid_value=j.bid_value * factor) for j in m.jobs])


def relabelled(m: LocalMarket, job_id, channel_id) -> LocalMarket:
    """Job ids mapped by ``job_id`` and channel ids by ``channel_id``."""
    return rebuilt(m, [replace(j, id=job_id(j.id)) for j in m.jobs],
                   [replace(c, id=channel_id(c.id)) for c in m.channels])


def split_intervals(m: LocalMarket) -> LocalMarket:
    """Each free interval of 2 s or more cut into two adjacent ones at its midpoint."""
    def split(intervals):
        for s, e in intervals:
            yield from ((s, (s + e) // 2), ((s + e) // 2, e)) if e - s >= 2 else ((s, e),)
    return rebuilt(m, channels=[replace(c, free_intervals=tuple(split(c.free_intervals)))
                                for c in m.channels])


def with_unreachable_channel(m: LocalMarket) -> LocalMarket:
    """``m`` plus a channel, with the lowest id, whose only free second follows every deadline."""
    after = max(j.deadline for j in m.jobs)
    extra = channel(min(c.id for c in m.channels) - 1, [(after, after + 1)])
    return rebuilt(m, channels=[extra, *m.channels])


def time_component_markets(m: LocalMarket) -> list[LocalMarket]:
    """One market per time component of ``m``'s jobs, as the exact solver splits them."""
    return [rebuilt(m, jobs=component) for component in _time_components(list(m.jobs))]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
