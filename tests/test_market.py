"""Core domain types, segmentation, and feasibility primitives."""

import heapq
import random

import pytest

from spectrum_auctions import (
    AuctionConfig,
    LocalMarket,
    partition_markets,
    segment_timeline,
    set_feasible,
)
from spectrum_auctions.market import SegmentedTimeline, window_flow_allocation
from spectrum_auctions.oracle import _channel_set_feasible
from spectrum_auctions.pvg import fits_in_residual

from conftest import BAND, REGION, channel, job, random_channel, random_market, slot_free

H = 3600


class TestValidation:
    def test_job_rejects_bad_window(self):
        with pytest.raises(ValueError):
            job(1, 1.0, 5, 5, 1)
        with pytest.raises(ValueError):
            job(1, 1.0, 0, 4, 5)
        with pytest.raises(ValueError):
            job(1, 1.0, 0, 4, 0)

    @pytest.mark.parametrize("bid", ["nan", "inf", "1e400"])
    def test_job_rejects_non_finite_bid(self, bid):
        with pytest.raises(ValueError, match="bid_value must be finite"):
            job(1, float(bid), 0, 4, 1)

    @pytest.mark.parametrize("field", ["beta", "eta_s", "xi"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_config_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AuctionConfig(**{field: float(value)})

    def test_channel_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            channel(1, [(3, 3)])
        with pytest.raises(ValueError):
            channel(1, [(0, 4), (2, 6)])

    @pytest.mark.parametrize("intervals, edge", [(((0, 7.9),), "7.9"), (((0.5, 0.9),), "0.5"),
                                                 (((0, float("nan")),), "nan")])
    def test_channel_rejects_fractional_edges(self, intervals, edge):
        with pytest.raises(ValueError, match=f"channel 1: interval edge {edge} is not a whole number"):
            channel(1, intervals)

    def test_channel_keeps_whole_float_edges(self):
        ivs = channel(1, [(0.0, 8.0)]).free_intervals
        assert ivs == ((0, 8),) and all(type(t) is int for iv in ivs for t in iv)

    @pytest.mark.parametrize("times, name", [((0.5, 4, 1), "arrival"), ((0, 3.5, 1), "deadline"),
                                             ((0, 4, 1.25), "duration"), ((0, float("inf"), 1), "deadline")])
    def test_job_rejects_fractional_times(self, times, name):
        with pytest.raises(ValueError, match=f"job 7: {name} .* is not a whole number"):
            job(7, 1.0, *times)

    def test_job_keeps_whole_float_times(self):
        j = job(1, 1.0, 0.0, 4.0, 2.0)
        assert (j.arrival, j.deadline, j.duration) == (0, 4, 2)
        assert all(type(t) is int for t in (j.arrival, j.deadline, j.duration))

    def test_market_rejects_foreign_members(self):
        with pytest.raises(ValueError):
            LocalMarket(REGION, BAND, (job(1, 1.0, 0, 2, 1, region="elsewhere"),), ())
        with pytest.raises(ValueError):
            LocalMarket(REGION, BAND, (), (channel(1, [(0, 2)], band="fm"),))

    def test_job_by_id_refuses_an_unknown_id(self):
        m = LocalMarket(REGION, BAND, (job(1, 1.0, 0, 2, 1),), ())
        assert m.job_by_id(1).id == 1
        with pytest.raises(KeyError):
            m.job_by_id(2)


class TestPartitionMarkets:
    def test_groups_by_region_and_band(self):
        jobs = [job(1, 1.0, 0, 2, 1), job(2, 1.0, 0, 2, 1),
                job(3, 1.0, 0, 2, 1, region="r2")]
        chans = [channel(1, [(0, 4)]), channel(2, [(0, 4)], region="r2")]
        markets = partition_markets(jobs, chans)
        assert len(markets) == 2
        by_key = {(m.region, m.band_type): m for m in markets}
        assert len(by_key[(REGION, BAND)].jobs) == 2
        assert len(by_key[(REGION, BAND)].channels) == 1
        assert len(by_key[("r2", BAND)].jobs) == 1

    def test_empty_inputs(self):
        assert partition_markets([], []) == []

    def test_jobs_without_channels_still_form_market(self):
        jobs = [job(i, 1.0, 0, 2, 1) for i in (1, 2, 3)]
        markets = partition_markets(jobs, [])
        assert len(markets) == 1
        assert len(markets[0].jobs) == 3
        assert markets[0].channels == ()

    def test_duplicate_job_id_rejected(self):
        jobs = [job(1, 1.0, 0, 2, 1), job(1, 2.0, 0, 3, 1)]
        with pytest.raises(ValueError, match="duplicate job id"):
            partition_markets(jobs, [])

    def test_order_insensitive(self, rng):
        jobs = [job(i, 1.0, 0, 2, 1, region=f"r{i % 3}") for i in range(1, 10)]
        chans = [channel(i, [(0, 4)], region=f"r{i % 3}") for i in range(1, 7)]
        before = partition_markets(jobs, chans)
        shuffled_j, shuffled_c = jobs[:], chans[:]
        rng.shuffle(shuffled_j)
        rng.shuffle(shuffled_c)
        after = partition_markets(shuffled_j, shuffled_c)
        assert before == after


class TestSegmentTimeline:
    def test_boundaries_from_windows(self):
        ch = channel(1, [(0, 10 * H)])
        jobs = [job(1, 1.0, 2 * H, 5 * H, H), job(2, 1.0, 4 * H, 8 * H, H)]
        tl = segment_timeline(ch, jobs)
        assert tl.boundaries == (0, 2 * H, 4 * H, 5 * H, 8 * H, 10 * H)
        assert slot_free(tl) == [2 * H, 2 * H, H, 3 * H, 2 * H]

    def test_occupied_gap_has_zero_capacity(self):
        ch = channel(1, [(0, 1), (2, 3)])
        tl = segment_timeline(ch, [])
        assert list(zip(tl.boundaries, tl.boundaries[1:], slot_free(tl))) == [
            (0, 1, 1), (1, 2, 0), (2, 3, 1)]

    def test_single_job_spanning_two_free_slots(self):
        # two free runs shorter than the demand, with occupied time between
        ch = channel(1, [(0, H), (2 * H, 3 * H)])
        j = job(1, 5.0, 0, 3 * H, int(1.5 * H))
        tl = segment_timeline(ch, [j])
        assert len(tl.boundaries) - 1 == 3
        assert slot_free(tl)[1] == 0
        assert tl.job_windows[j.id] == (0, 2)

    def test_window_capacity_matches_interval_intersection(self):
        rig = random.Random(7)
        for _ in range(200):
            market = random_market(rig, max_jobs=5, max_channels=1)
            ch = market.channels[0]
            tl = segment_timeline(ch, list(market.jobs))
            for j in market.jobs:
                direct = sum(
                    max(0, min(e, j.deadline) - max(s, j.arrival))
                    for s, e in ch.free_intervals
                )
                assert tl.window_capacity(j) == direct

    def test_window_capacity_is_window_slot_sum(self):
        rig = random.Random(9)
        for _ in range(100):
            market = random_market(rig, max_jobs=6, max_channels=1)
            ch = market.channels[0]
            tl = segment_timeline(ch, list(market.jobs))
            for j in market.jobs:
                first, last = tl.job_windows[j.id]
                slot_sum = sum(slot_free(tl)[first:last + 1])
                direct = sum(max(0, min(e, j.deadline) - max(s, j.arrival))
                             for s, e in ch.free_intervals)
                assert tl.window_capacity(j) == slot_sum == direct
        # a hand-built timeline reads it from its prefix sums too; an empty window holds 0
        tl = SegmentedTimeline(channel_id=1, boundaries=(0, 2, 4, 6), free_before=(0, 2, 2, 4),
                               job_windows={1: (1, 0), 2: (0, 2), 3: (1, 2)})
        assert [tl.window_capacity(job(jid, 1.0, 0, 6, 1)) for jid in (1, 2, 3)] == [0, 4, 2]

    def test_free_span_starts_at_free_seconds_before_arrival(self):
        rig = random.Random(10)
        for _ in range(100):
            market = random_market(rig, max_jobs=6, max_channels=1)
            ch = market.channels[0]
            tl = segment_timeline(ch, list(market.jobs))
            assert tl.free_before[-1] == ch.free_seconds
            for j in market.jobs:
                first, last = tl.job_windows[j.id]
                start, end = tl.free_before[first], tl.free_before[last + 1]
                assert start == sum(max(0, min(e, j.arrival) - s) for s, e in ch.free_intervals)
                assert end - start == tl.window_capacity(j)
        # the prefix sums stay flat across an occupied slot
        tl = segment_timeline(channel(1, [(0, 2), (4, 6)]), [job(1, 1.0, 0, 6, 1)])
        assert tl.free_before == (0, 2, 2, 4)

    def test_slots_tile_without_overlap(self):
        rig = random.Random(8)
        for _ in range(100):
            market = random_market(rig, max_jobs=4, max_channels=1)
            tl = segment_timeline(market.channels[0], list(market.jobs))
            # slot l ends where slot l + 1 starts, so the slots tile once the boundaries increase
            bounds = tl.boundaries
            assert all(a < b for a, b in zip(bounds, bounds[1:]))
            assert all(f in (0, b - a) for a, b, f in zip(bounds, bounds[1:], slot_free(tl)))


def brute_force_feasible(jobs, timeline):
    """Deficiency check over every job subset: an independent third route."""
    n = len(jobs)
    free = slot_free(timeline)
    for mask in range(1, 1 << n):
        members = [jobs[i] for i in range(n) if mask >> i & 1]
        slot_union = set()
        for j in members:
            first, last = timeline.job_windows[j.id]
            slot_union.update(range(first, last + 1))
        capacity = sum(free[i] for i in slot_union)
        if sum(j.duration for j in members) > capacity:
            return False
    return True


class TestSetFeasible:
    def test_staggered_windows_share_channel(self):
        ch = channel(1, [(0, 4)])
        a = job(1, 1.0, 0, 2, 2)
        b = job(2, 1.0, 0, 4, 2)
        tl = segment_timeline(ch, [a, b])
        assert set_feasible([a, b], tl)

    def test_identical_tight_windows_overflow(self):
        ch = channel(1, [(0, 4)])
        a = job(1, 1.0, 0, 2, 2)
        b = job(2, 1.0, 0, 2, 2)
        tl = segment_timeline(ch, [a, b])
        assert not set_feasible([a, b], tl)

    def test_single_job_equals_window_capacity_check(self):
        ch = channel(1, [(1, 3)])
        fits = job(1, 1.0, 0, 4, 2)
        too_big = job(2, 1.0, 0, 4, 3)
        tl = segment_timeline(ch, [fits, too_big])
        assert set_feasible([fits], tl)
        assert not set_feasible([too_big], tl)

    def test_only_overfull_interval_lies_inside_the_extremes(self):
        # [3, 5) needs 3 seconds in 2; every interval that starts at the
        # earliest release (0) or ends at the latest due end (10) has room
        ch = channel(1, [(0, 10)])
        wide = job(1, 1.0, 0, 10, 1)
        b = job(2, 1.0, 3, 5, 2)
        c = job(3, 1.0, 4, 5, 1)
        tl = segment_timeline(ch, [wide, b, c])
        assert not set_feasible([wide, b, c], tl)
        assert not brute_force_feasible([wide, b, c], tl)
        assert not _channel_set_feasible(ch, [wide, b, c])
        assert window_flow_allocation([wide, b, c], tl) is None
        assert set_feasible([wide, b], tl) and set_feasible([wide, c], tl)

    def test_fit_alone_implies_singleton_feasible(self):
        rig = random.Random(3)
        for _ in range(200):
            market = random_market(rig, max_jobs=4, max_channels=1)
            tl = segment_timeline(market.channels[0], list(market.jobs))
            for j in market.jobs:
                if fits_in_residual(j, tl, [0] * (len(tl.boundaries) - 1)):
                    assert set_feasible([j], tl)

    def test_matches_exhaustive_subset_search(self):
        rig = random.Random(4)
        for _ in range(300):
            market = random_market(rig, max_jobs=4, max_channels=1, grid_max=6)
            tl = segment_timeline(market.channels[0], list(market.jobs))
            jobs = list(market.jobs)
            assert set_feasible(jobs, tl) == brute_force_feasible(jobs, tl)

    def test_matches_max_flow_allocation(self):
        rig = random.Random(5)
        for _ in range(200):
            market = random_market(rig, max_jobs=5, max_channels=1)
            ch = market.channels[0]
            tl = segment_timeline(ch, list(market.jobs))
            jobs = list(market.jobs)
            flows = window_flow_allocation(jobs, tl)
            assert _channel_set_feasible(ch, jobs) == (flows is not None)
            assert set_feasible(jobs, tl) == (flows is not None)
            if flows is not None:
                per_slot = [0] * (len(tl.boundaries) - 1)
                for j in jobs:
                    assert sum(flows[j.id]) == j.duration
                    first, last = tl.job_windows[j.id]
                    for i, a in enumerate(flows[j.id]):
                        assert a == 0 or first <= i <= last
                        per_slot[i] += a
                assert all(u <= f for u, f in zip(per_slot, slot_free(tl)))


class TestEdf:
    def test_gap_with_nothing_released(self):
        # no window covers slot 1, which stays idle; b fills from slot 2
        ch = channel(1, [(0, 10)])
        a = job(1, 1.0, 0, 2, 2)
        b = job(2, 1.0, 6, 8, 2)
        c = job(3, 1.0, 6, 8, 1)
        tl = segment_timeline(ch, [a, b, c])
        assert window_flow_allocation([a, b], tl) == {1: [2, 0, 0, 0], 2: [0, 0, 2, 0]}
        assert not set_feasible([a, b, c], tl)
        assert window_flow_allocation([a, b, c], tl) is None

    def test_zero_capacity_slot_inside_window(self):
        ch = channel(1, [(0, 2), (4, 6)])
        spans = job(1, 1.0, 0, 6, 4)
        too_long = job(2, 1.0, 0, 6, 5)
        inside_gap = job(3, 1.0, 2, 4, 1)
        tl = segment_timeline(ch, [spans, too_long, inside_gap])
        assert slot_free(tl) == [2, 0, 2]
        assert window_flow_allocation([spans], tl) == {1: [2, 0, 2]}
        assert not set_feasible([too_long], tl)
        assert not set_feasible([inside_gap], tl)

    def test_window_without_a_whole_slot(self):
        # a hand-built timeline may record an empty (first > last) window
        tl = SegmentedTimeline(channel_id=1, boundaries=(0, 4), free_before=(0, 4),
                               job_windows={1: (1, 0), 2: (0, 0)})
        empty, fine = job(1, 1.0, 0, 4, 1), job(2, 1.0, 0, 4, 1)
        assert set_feasible([fine], tl)
        assert not set_feasible([empty], tl)
        assert not set_feasible([fine, empty], tl)
        assert window_flow_allocation([empty], tl) is None

    def test_tie_on_last_slot_serves_lower_id_first(self):
        ch = channel(1, [(0, 4)])
        low = job(1, 1.0, 0, 4, 1)
        high = job(2, 1.0, 0, 4, 3)
        cut = job(3, 1.0, 2, 4, 1)  # splits the axis at 2
        tl = segment_timeline(ch, [low, high, cut])
        assert window_flow_allocation([high, low], tl) == {1: [1, 0], 2: [1, 2]}
        assert not set_feasible([low, high, cut], tl)


def slot_walk_edf(jobs, timeline, per_job):
    """A slot-by-slot EDF, the reference for ``set_feasible`` and ``window_flow_allocation``.

    Walks the slots in time order, pouring each slot's free seconds into
    the released job with the earliest last slot (ties by id).
    """
    pending = []
    for j in jobs:
        first, last = timeline.job_windows[j.id]
        if first > last:
            return False
        pending.append((first, last, j.id, j.duration))
    pending.sort(reverse=True)
    free_in = slot_free(timeline)
    ready = []
    l = 0
    while pending or ready:
        if not ready:
            l = pending[-1][0]
        while pending and pending[-1][0] <= l:
            _, last, jid, need = pending.pop()
            heapq.heappush(ready, [last, jid, need])
        free = free_in[l]
        while free and ready:
            top = ready[0]
            take = min(free, top[2])
            top[2] -= take
            free -= take
            if per_job is not None:
                per_job[top[1]][l] += take
            if not top[2]:
                heapq.heappop(ready)
        if ready and ready[0][0] == l:
            return False
        l += 1
    return True


class TestEdfMatchesSlotWalk:
    def test_feasibility_and_allocations_equal(self):
        """The interval check and the fill equal the slot walk on every job subset.

        Short demands on a 12-second grid with 1-3 free intervals make
        most subsets feasible, so the allocations are compared too.  The
        draws must include occupied slots inside windows, windows that
        touch, and two windows of one feasible set that end at the same
        free second in different slots, where only filling in (last slot,
        id) order gives the slot walk's allocation.
        """
        rig = random.Random(16)
        seen = {"zero slot": 0, "touching": 0, "same end, other slot": 0, "feasible": 0}
        for _ in range(300):
            ch = random_channel(rig, 1, grid_max=12)
            ids = rig.sample(range(1, 10), rig.randint(2, 5))
            jobs = []
            for jid in ids:
                a = rig.randint(0, 11)
                d = rig.randint(a + 1, 12)
                jobs.append(job(jid, 1.0, a, d, rig.randint(1, min(3, d - a))))
            tl = segment_timeline(ch, jobs)
            for mask in range(1, 1 << len(jobs)):
                members = [j for i, j in enumerate(jobs) if mask >> i & 1]
                fits = slot_walk_edf(members, tl, None)
                assert set_feasible(members, tl) == fits
                expected = {j.id: [0] * (len(tl.boundaries) - 1) for j in members}
                slot_walk_edf(members, tl, expected)
                assert window_flow_allocation(members, tl) == (expected if fits else None)
                if not fits:
                    continue
                seen["feasible"] += 1
                windows = [tl.job_windows[j.id] for j in members]
                seen["zero slot"] += any(tl.free_before[l + 1] == tl.free_before[l]
                                         for first, last in windows for l in range(first, last + 1))
                seen["touching"] += any(a.deadline == b.arrival for a in members for b in members)
                seen["same end, other slot"] += any(
                    tl.free_before[tl.job_windows[a.id][1] + 1]
                    == tl.free_before[tl.job_windows[b.id][1] + 1]
                    and tl.job_windows[a.id][1] != tl.job_windows[b.id][1]
                    for a in members for b in members)
        assert all(seen.values()), seen

    def test_sets_of_up_to_twelve_jobs(self):
        """Whole sets of 2-12 jobs: the slot walk, the max flow and the fill agree.

        Each job fits its window alone, with a demand of 1-4 seconds on a
        96-second grid, so many large sets are feasible and their
        allocations and key order are compared too.
        """
        rig = random.Random(23)
        feasible_large = 0
        for _ in range(400):
            ch = random_channel(rig, 1, grid_max=96)
            ids = rig.sample(range(1, 30), rig.randint(2, 12))
            jobs = []
            while len(jobs) < len(ids):
                a = rig.randint(0, 95)
                d = rig.randint(a + 1, 96)
                free = sum(max(0, min(e, d) - max(s, a)) for s, e in ch.free_intervals)
                if free:
                    jobs.append(job(ids[len(jobs)], 1.0, a, d, rig.randint(1, min(4, free))))
            tl = segment_timeline(ch, jobs)
            fits = slot_walk_edf(jobs, tl, None)
            assert set_feasible(jobs, tl) == fits == _channel_set_feasible(ch, jobs)
            expected = {j.id: [0] * (len(tl.boundaries) - 1) for j in jobs}
            slot_walk_edf(jobs, tl, expected)
            flows = window_flow_allocation(jobs, tl)
            assert flows == (expected if fits else None)
            if fits:
                assert list(flows) == [j.id for j in jobs]
                feasible_large += len(jobs) >= 9
        assert feasible_large >= 40, feasible_large
