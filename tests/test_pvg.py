"""Greedy mechanism: case rules, payments, monotonicity, bounds."""

import copy
import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from spectrum_auctions import (
    AuctionConfig,
    Channel,
    Job,
    LocalMarket,
    PvgStats,
    pvg_allocate,
    rho_bound,
    run_pvg,
    run_vcg,
    segment_timeline,
    solve_optimal,
)
from spectrum_auctions import pvg
from spectrum_auctions.experiment import trial_seed
from spectrum_auctions.market import (
    build_timelines,
    commit_allocation,
    filter_reserve,
    window_residual,
)
from spectrum_auctions.oracle import _wins_at_bid, scan_critical_value
from spectrum_auctions.pvg import (
    _Greedy,
    bid_grid_point,
    bid_grid_size,
    fits_in_residual,
    processing_key,
)
from spectrum_auctions.workload import WorkloadSpec, generate_requests, synthesize_occupancy

from conftest import (BAND, REGION, channel, job, market, random_channel, random_job,
                      random_market, random_reserve, slot_free)

H = 3600
BETA_STAR = 1.0 + math.sqrt(2.0)
COUNTEREXAMPLES = json.loads(
    (Path(__file__).parent / "data" / "greedy_counterexamples.json").read_text())["entries"]


def one_channel(*intervals):
    return Channel(1, REGION, BAND, tuple(intervals))


def simulated_eviction_prefix(greedy, job, snap):
    """Reference: remove cheapest overlapping winners one by one, re-checking the fit.

    Gives up as soon as ``beta`` times the removed winners' value reaches
    the job's bid.  Returns the prefix (None if it cannot pay or no removal
    helps) and the ids of the winners whose bids were summed, one fit
    check each.
    """
    beta = greedy.config.beta
    timeline = snap.timeline
    first, last = timeline.job_windows[job.id]
    on_channel = {w.id for w in snap.winners}
    candidates = sorted(
        (j for j in greedy.order if j.id in on_channel
         and any(snap.allocations[j.id][first:last + 1])),
        key=lambda j: (j.unit_value, -j.id))
    usage = list(snap.committed)
    for n, cand in enumerate(candidates, start=1):
        summed = tuple(c.id for c in candidates[:n])
        if job.bid_value <= beta * sum(c.bid_value for c in candidates[:n]):
            return None, summed
        usage = [u - a for u, a in zip(usage, snap.allocations[cand.id])]
        if fits_in_residual(job, timeline, usage):
            return candidates[:n], summed
    return None, tuple(c.id for c in candidates)


def holds(state, jid):
    """Is job ``jid`` placed on some channel of ``state``?"""
    return any(jid in snap.allocations for snap in state.values())


class TestFitsInResidual:
    """The greedy's window residual check, ``pvg.fits_in_residual``."""

    def test_noncontiguous_residual_accepted(self):
        ch = channel(1, [(0, H), (2 * H, 3 * H)])
        j = job(1, 5.0, 0, 3 * H, int(1.5 * H))
        tl = segment_timeline(ch, [j])
        assert fits_in_residual(j, tl, [0] * (len(tl.boundaries) - 1))

    def test_empty_window_rejected(self):
        ch = channel(1, [(10, 20)])
        j = job(1, 5.0, 0, 8, 2)
        tl = segment_timeline(ch, [j])
        assert not fits_in_residual(j, tl, [0] * (len(tl.boundaries) - 1))

    def test_sum_short_of_demand_rejected(self):
        # residuals 1800 + 2520 + 2520 = 6840 < 7200
        ch = channel(1, [(0, 3 * H)])
        cuts = [job(2, 1.0, 0, H, 1), job(3, 1.0, H, 2 * H, 1)]
        j = job(1, 5.0, 0, 3 * H, 2 * H)
        tl = segment_timeline(ch, [j] + cuts)
        committed = [H - 1800, H - 2520, H - 2520]
        assert sum(slot_free(tl)[i] - committed[i] for i in range(3)) == 6840
        assert not fits_in_residual(j, tl, committed)


class TestCommitAllocation:
    """The forward fill both mechanisms share, ``market.commit_allocation``.

    Every case here has a window residual that covers the job.
    """

    def test_forward_fill_skips_occupied(self):
        ch = channel(1, [(0, H), (2 * H, 3 * H)])
        j = job(1, 5.0, 0, 3 * H, int(1.5 * H))
        tl = segment_timeline(ch, [j])
        committed = [0] * (len(tl.boundaries) - 1)
        amounts = commit_allocation(j, tl, committed)
        assert amounts == [H, 0, 1800]
        assert committed == [H, 0, 1800]

    def test_first_slot_suffices(self):
        ch = channel(1, [(0, 4 * H)])
        marker = job(2, 1.0, 0, 2 * H, H)
        j = job(1, 5.0, 0, 4 * H, H)
        tl = segment_timeline(ch, [j, marker])
        amounts = commit_allocation(j, tl, [0] * (len(tl.boundaries) - 1))
        assert amounts == [H, 0]

    def test_exact_fit_across_slots(self):
        ch = channel(1, [(0, 3 * H)])
        cuts = [job(2, 1.0, 0, H, 1), job(3, 1.0, H, 2 * H, 1)]
        j = job(1, 5.0, 0, 3 * H, 3 * H)
        tl = segment_timeline(ch, [j] + cuts)
        amounts = commit_allocation(j, tl, [0] * (len(tl.boundaries) - 1))
        assert amounts == [H, H, H]

    def test_never_exceeds_capacity_and_allocates_exactly(self):
        rig = random.Random(21)
        for _ in range(200):
            market = random_market(rig, max_jobs=6, max_channels=1)
            tl = segment_timeline(market.channels[0], list(market.jobs))
            committed = [0] * (len(tl.boundaries) - 1)
            for j in market.jobs:
                if not fits_in_residual(j, tl, committed):
                    continue
                amounts = commit_allocation(j, tl, committed)
                assert sum(amounts) == j.duration
                first, last = tl.job_windows[j.id]
                assert all(a == 0 for i, a in enumerate(amounts) if not first <= i <= last)
            assert all(c <= f for c, f in zip(committed, slot_free(tl)))


class TestAllocation:
    def test_t1_rejects_weak_third_job(self):
        ch = one_channel((0, 4 * H))
        jobs = [job(i + 1, v, 0, 4 * H, 2 * H) for i, v in enumerate([10.0, 6.0, 4.0])]
        out = pvg_allocate(market(jobs, [ch]), AuctionConfig(beta=BETA_STAR))
        assert out.assignment == {1: 1, 2: 1}
        # best-rate job filled from its arrival first
        assert out.allocations[1][0] == 2 * H

    def test_full_conflict_high_bidder_wins(self):
        ch = one_channel((0, 2 * H))
        a, b = job(1, 10.0, 0, 2 * H, 2 * H), job(2, 6.0, 0, 2 * H, 2 * H)
        out = pvg_allocate(market([a, b], [ch]), AuctionConfig(beta=BETA_STAR))
        assert out.assignment == {1: 1}

    def test_preemption_evicts_cheap_winner(self):
        # the small job has the better rate and commits first; the big
        # job's total value clears the threshold and evicts it
        ch = one_channel((0, 2 * H))
        cheap = job(1, 1.0, 0, 2 * H, 360)           # rate 10/h
        rich = job(2, 10.0, 0, 2 * H, 2 * H)          # rate 5/h, worth 10 > 2*1
        stats = PvgStats()
        out = pvg_allocate(market([cheap, rich], [ch]), AuctionConfig(beta=2.0), stats=stats)
        assert out.assignment == {2: 1}
        assert stats.preemptions == 1

    def test_rejection_when_value_below_threshold(self):
        ch = one_channel((0, 2 * H))
        strong = job(1, 10.0, 0, 2 * H, 2 * H)
        weak = job(2, 6.0, 0, 2 * H, 2 * H)
        stats = PvgStats()
        out = pvg_allocate(market([strong, weak], [ch]), AuctionConfig(beta=BETA_STAR), stats=stats)
        assert out.assignment == {1: 1}
        assert stats.preemptions == 0

    def test_preempted_job_readmitted_elsewhere_in_channel(self):
        # early winner is evicted by a long expensive job, then slots back
        # into the tail of the channel it was evicted from
        ch = one_channel((0, 8 * H))
        early = job(1, 10.0, 0, 8 * H, 2 * H)       # rate 5/h, commits [0, 2h)
        big = job(2, 21.0, 0, 6 * H, 6 * H)          # rate 3.5/h, needs eviction
        stats = PvgStats()
        m = market([early, big], [ch])
        out = pvg_allocate(m, AuctionConfig(beta=2.0), stats=stats)
        assert out.assignment == {1: 1, 2: 1}
        assert stats.preemptions == 1
        assert stats.readmissions == 1
        # readmitted job now lives in [6h, 8h)
        tl = build_timelines(m)[1]
        first, last = tl.job_windows[early.id]
        placed = [i for i, a in enumerate(out.allocations[1]) if a]
        assert all(tl.boundaries[i] >= 6 * H for i in placed)

    def test_readmission_reaches_across_time_components(self):
        """Case 3 can readmit a job from another time component, so the greedy is not per-component.

        Both channels are free on [0, 10) and [20, 30).  Job 4 evicts job 3
        from channel 1, and case 3 retries only channel 1.  Job 7's later
        preemption of job 6 on channel 2 rescans every earlier unplaced
        job and readmits job 3 into channel 2's free second in [0, 10).
        Clearing each time component on its own leaves job 3 out.
        """
        channels = [Channel(cid, REGION, BAND, ((0, 10), (20, 30))) for cid in (1, 2)]
        early = [job(1, 70.0, 0, 10, 7), job(2, 72.0, 0, 10, 8), job(3, 1.0, 0, 10, 1),
                 job(4, 2.7, 0, 10, 3)]
        late = [job(5, 5.0, 20, 30, 10), job(6, 0.8, 20, 30, 2), job(7, 3.0, 20, 30, 10)]
        config = AuctionConfig(beta=2.0, xi=0.25)
        whole = run_pvg(market(early + late, channels), config).assignment
        assert whole == {1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 7: 2}
        apart = {**run_pvg(market(early, channels), config).assignment,
                 **run_pvg(market(late, channels), config).assignment}
        assert apart == {1: 1, 2: 2, 4: 1, 5: 1, 7: 2}

    def test_reserve_gate_excludes_cheap_bids(self):
        ch = one_channel((0, 4 * H))
        junk = job(1, 1.0, 0, 4 * H, 4 * H)  # 1.0 < 0.25/s * 4h
        fine = job(2, 10.0, 0, 4 * H, 2 * H)
        out = pvg_allocate(market([junk, fine], [ch]), AuctionConfig(beta=2.0, eta_s=0.001))
        assert out.assignment == {2: 1}

    def test_eviction_prefix_stops_at_window_and_walks_cheapest_first(self):
        # winners a/b/c hold [0,2h)/[2,4h)/[4,6h); the late low-rate job
        # wants 6h inside [2h,8h), so the prefix walks c then b (cheapest
        # first) and never touches a, which sits outside the window
        ch = one_channel((0, 8 * H))
        a = job(1, 40.0, 0, 2 * H, 2 * H)
        b = job(2, 6.0, 2 * H, 4 * H, 2 * H)
        c = job(3, 4.0, 4 * H, 6 * H, 2 * H)
        newcomer = job(4, 11.5, 2 * H, 8 * H, 6 * H)  # 11.5 > 1.1 * (4 + 6)
        stats = PvgStats()
        out = pvg_allocate(market([a, b, c, newcomer], [ch]), AuctionConfig(beta=1.1), stats=stats)
        assert out.assignment == {1: 1, 4: 1}
        assert stats.preemptions == 2

    def test_eviction_prefix_matches_simulated_removals(self, rng):
        """Case 2's ``place`` on a candidate channel the job does not fit.

        Each walk runs on a fresh copy of the snapshot, whose memos are
        empty, so every winner it sums is one fit check.  A paying walk's
        prefix is its summed list, so equal ids and an equal decision mean
        removing the reference's prefix frees room for the job and the
        job's bid pays for it.  Where the skip bound passes the channel
        over unwalked, the reference finds no paying prefix either.
        """
        compared = paying = skipped = 0
        for _ in range(80):
            m = random_market(rng, max_jobs=8, max_channels=2)
            beta = rng.choice([1.1, 2.0, BETA_STAR])
            greedy = _Greedy(m, AuctionConfig(beta=beta), PvgStats())
            for state, _, _ in greedy.truthful:
                for j in greedy.order:
                    if holds(state, j.id):
                        continue
                    for cid in greedy.candidates[j.id]:
                        snap = state[cid]
                        fresh = pvg._Snapshot(snap.timeline, snap.winners, snap.committed,
                                              snap.allocations)
                        free = fresh.residual(j, PvgStats())
                        if free >= j.duration:
                            continue
                        stats = PvgStats()
                        placed, summed = fresh.place(j, stats, beta)
                        prefix, expected = simulated_eviction_prefix(greedy, j, snap)
                        if beta * (j.duration - free) > j.duration * (1.0 + 1e-9):
                            assert (placed, summed) == (None, ()) and prefix is None
                            skipped += 1
                        else:
                            assert (placed is None, summed) == (prefix is None, expected)
                        if placed is not None:
                            # a paying walk evicts exactly the winners it summed
                            kept = set(snap.allocations) - set(summed)
                            assert set(placed.allocations) == kept | {j.id}
                        assert stats.fit_checks == len(summed)
                        compared += 1
                        paying += placed is not None
        assert compared > 50 and 0 < paying < compared and 0 < skipped < compared

    def test_release_below_zero_is_refused(self):
        """A case-2 release that would leave a slot's used seconds negative raises.

        The snapshot is inconsistent on purpose: its winner holds 4 s of
        the one slot, but ``committed`` counts only 3.
        """
        winner, newcomer = job(1, 1.0, 0, 4, 4), job(2, 10.0, 0, 4, 2)
        timeline = segment_timeline(one_channel((0, 4)), [winner, newcomer])
        snap = pvg._Snapshot(timeline, (winner,), [3], {winner.id: [4]})
        with pytest.raises(ValueError, match="slot 0 of channel 1 released below zero"):
            snap.place(newcomer, PvgStats(), beta=2.0)

    def test_winners_partition_the_allocations(self, rng, monkeypatch):
        """Every state a greedy run reaches, price probes included.

        Each channel's winners are in processing order, the channels'
        lists are disjoint and hold exactly the allocated jobs, and their
        allocations sum slot-wise to the channel's ``committed``.
        """
        kept = []
        step = pvg._Greedy.step

        def keeping(greedy, state, order, idx):
            state, preempted = step(greedy, state, order, idx)
            kept.append(state)
            return state, preempted

        monkeypatch.setattr(pvg._Greedy, "step", keeping)
        stats = PvgStats()
        checked = multi_channel = 0
        for _ in range(80):
            m = random_market(rng, max_jobs=8, max_channels=3)
            config = AuctionConfig(beta=rng.choice([1.1, 2.0, BETA_STAR]),
                                   eta_s=random_reserve(rng))
            kept.clear()
            run_pvg(m, config, stats=stats)
            for state in kept:
                placed = [j.id for snap in state.values() for j in snap.winners]
                allocated = [jid for snap in state.values() for jid in snap.allocations]
                assert len(placed) == len(set(placed))
                assert len(allocated) == len(set(allocated))
                assert set(placed) == set(allocated)
                for snap in state.values():
                    assert list(snap.winners) == sorted(snap.winners, key=processing_key)
                    assert {w.id for w in snap.winners} == set(snap.allocations)
                    total = [0] * (len(snap.timeline.boundaries) - 1)
                    for w in snap.winners:
                        total = [t + a for t, a in zip(total, snap.allocations[w.id])]
                    assert snap.committed == total
                multi_channel += sum(1 for snap in state.values() if snap.winners) > 1
            checked += len(kept)
        assert checked > 1000 and multi_channel > 100
        assert stats.preemptions > 20 and stats.readmissions > 0

    def test_assignment_is_keyed_in_id_order(self, rng):
        checked = 0
        for _ in range(40):
            m = random_market(rng, max_jobs=8, max_channels=3)
            config = AuctionConfig(beta=rng.choice([1.1, 2.0, BETA_STAR]))
            for out in (pvg_allocate(m, config), run_pvg(m, config)):
                assert list(out.assignment) == sorted(out.assignment)
                assert list(out.allocations) == list(out.assignment)
                checked += len(out.assignment) > 1
        assert checked > 20

    def test_fit_checks_only_on_candidate_channels(self, rng, monkeypatch):
        """No case, readmission included, tests a channel that can never hold the job."""
        checked = []

        def recording(check):
            def recorded(job, timeline, usage):
                checked.append((job.id, timeline.channel_id))
                return check(job, timeline, usage)
            return recorded

        monkeypatch.setattr(pvg, "fits_in_residual", recording(fits_in_residual))
        monkeypatch.setattr(pvg, "window_residual", recording(window_residual))
        readmissions = 0
        for _ in range(150):
            m = random_market(rng, max_jobs=8, max_channels=3)
            candidates = {j.id: [cid for cid, tl in build_timelines(m).items()
                                 if tl.window_capacity(j) >= j.duration] for j in m.jobs}
            stats = PvgStats()
            checked.clear()
            run_pvg(m, AuctionConfig(beta=rng.choice([1.1, 2.0, BETA_STAR])), stats=stats)
            assert all(cid in candidates[jid] for jid, cid in checked)
            readmissions += stats.readmissions
        assert readmissions > 0

    def test_per_slot_usage_never_exceeds_capacity(self, rng):
        for _ in range(80):
            m = random_market(rng, max_jobs=7, max_channels=2)
            config = AuctionConfig(beta=rng.choice([1.0, 1.5, BETA_STAR, 3.0]),
                                   eta_s=random_reserve(rng))
            greedy = _Greedy(m, config, PvgStats())
            for state, _, _ in greedy.truthful:
                for snap in state.values():
                    free = slot_free(snap.timeline)
                    assert all(0 <= u <= f for u, f in zip(snap.committed, free))
            out = pvg_allocate(m, config)
            for jid in out.assignment:
                assert sum(out.allocations[jid]) == m.job_by_id(jid).duration

    def test_deterministic(self, rng):
        for _ in range(20):
            m = random_market(rng, max_jobs=6, max_channels=2)
            config = AuctionConfig(beta=BETA_STAR, eta_s=random_reserve(rng))
            first = pvg_allocate(m, config)
            second = pvg_allocate(m, config)
            assert first.assignment == second.assignment
            assert first.allocations == second.allocations


class TestPayments:
    def test_full_conflict_critical_value_is_runner_up(self):
        ch = one_channel((0, 2 * H))
        a, b = job(1, 10.0, 0, 2 * H, 2 * H), job(2, 6.0, 0, 2 * H, 2 * H)
        m = market([a, b], [ch])
        config = AuctionConfig(beta=BETA_STAR, eta_s=0.0, xi=0.01)
        pays = run_pvg(m, config).payments
        assert pays == {1: 6.0, 2: 0.0}

    def test_lone_job_pays_grid_floor(self):
        m = market([job(1, 5.0, 0, 2 * H, H)], [one_channel((0, 2 * H))])
        pays = run_pvg(m, AuctionConfig(beta=2.0, eta_s=0.0)).payments
        assert pays == {1: 0.0}

    def test_lone_job_pays_reserve_floor(self):
        m = market([job(1, 5.0, 0, 2 * H, H)], [one_channel((0, 2 * H))])
        pays = run_pvg(m, AuctionConfig(beta=2.0, eta_s=0.001)).payments
        assert pays == {1: 0.001 * H}

    def test_matches_linear_scan_exactly(self, rng):
        for _ in range(12):
            m = random_market(rng, max_jobs=5, max_channels=2)
            config = AuctionConfig(beta=BETA_STAR, eta_s=random_reserve(rng), xi=0.01)
            out = run_pvg(m, config)
            for jid in sorted(out.assignment):
                assert out.payments[jid] == scan_critical_value(m, config, jid)

    def test_payment_within_reserve_and_bid(self, rng):
        for _ in range(20):
            m = random_market(rng, max_jobs=6, max_channels=2)
            config = AuctionConfig(beta=2.0, eta_s=random_reserve(rng), xi=0.01)
            out = run_pvg(m, config)
            for jid in out.assignment:
                j = m.job_by_id(jid)
                assert config.eta_s * j.duration <= out.payments[jid] <= j.bid_value
            for j in m.jobs:
                if j.id not in out.assignment:
                    assert out.payments[j.id] == 0.0


class TestBidGrid:
    def test_grid_too_fine_for_a_float_is_rejected(self):
        assert bid_grid_size(0.0, 6.0, 1e-3) == 6000
        with pytest.raises(ValueError, match="xi 1e-320 gives no finite bid grid"):
            bid_grid_size(0.0, 6.0, 1e-320)

    @pytest.mark.parametrize("floor, top, xi", [(0.0, 5.0, 1e-100), (1e9, 1e9 + 1, 1e-15)])
    def test_grid_finer_than_float_spacing_is_rejected(self, floor, top, xi):
        # both step counts are finite, but neighbouring grid points round to one float
        with pytest.raises(ValueError, match=f"xi {xi} gives no finite bid grid"):
            bid_grid_size(floor, top, xi)

    def test_finest_grids_keep_their_size(self):
        assert bid_grid_size(0.0, 6.0, 1e-15) == 6 * 10**15
        assert bid_grid_size(0.0, 6.0, math.ulp(6.0)) == 6 * 2**50

    def test_size_matches_linear_scan(self):
        rig = random.Random(3)
        cases = [(rig.choice([0.0, rig.uniform(0.0, 5.0)]), rig.uniform(0.0, 6.0),
                  rig.choice([0.25, 0.01, rig.uniform(0.01, 1.0)])) for _ in range(500)]
        # the ceil estimate, 596, is one step short: only the upward correction reaches 597
        cases.append((0.005810763060401594, 59.60581076306041, 0.1))
        for floor, top, xi in cases:
            expected = next(n for n in itertools.count() if floor + n * xi >= top)
            assert bid_grid_size(floor, top, xi) == expected


class TestResumedPricing:
    """Resumed probes against from-scratch greedy runs of the deviated market.

    Bids are multiples of 0.25 and so is the bid grid (xi = 0.25, dyadic
    reserves), so a probed bid often gives the job exactly another job's
    per-second value and the id tie-break alone decides its rank.
    """

    XI = 0.25

    def markets(self, seed, count):
        rig = random.Random(seed)
        for _ in range(count):
            m = random_market(rig, max_jobs=8, max_channels=3)
            config = AuctionConfig(beta=rig.choice([1.1, 2.0, BETA_STAR]),
                                   eta_s=rig.choice([0.0, 0.25, 0.5]), xi=self.XI)
            yield m, config

    def test_payments_and_probes_match_full_runs(self):
        """Every grid bid of every winner, resumed probe against a full run.

        Where the full runs' win pattern is a threshold the payment must
        equal the linear scan; where it is not (the allocation is not bid
        monotone there, see ``TestBidMonotonicity``) scan and binary search
        legitimately differ, and the payment must equal the binary search
        over the full runs.
        """
        channel_counts, betas = set(), set()
        winners = reserve_winners = scanned = ties = 0
        for m, config in self.markets(4004, 120):
            stats = PvgStats()
            out = run_pvg(m, config, stats=stats)
            greedy = _Greedy(m, config, stats)
            for jid in sorted(out.assignment):
                j = m.job_by_id(jid)
                wins = greedy.resumed_probe(j)
                floor = config.eta_s * j.duration
                n = bid_grid_size(floor, j.bid_value, config.xi)
                bids = [bid_grid_point(floor, j.bid_value, config.xi, k, n) for k in range(n + 1)]
                full = [_wins_at_bid(m, config, j, bid) for bid in bids]
                assert [wins(bid) for bid in bids] == full, (m, config, jid)
                if full == sorted(full):  # losses, then wins
                    assert out.payments[jid] == scan_critical_value(m, config, jid)
                    scanned += 1
                else:
                    lo, hi = 0, n
                    while lo < hi:
                        mid = (lo + hi) // 2
                        lo, hi = (lo, mid) if full[mid] else (mid + 1, hi)
                    assert out.payments[jid] == bids[lo]
                rates = {o.unit_value for o in greedy.order if o.id != jid}
                ties += sum(bid / j.duration in rates for bid in bids)
                winners += 1
                reserve_winners += config.eta_s > 0
            channel_counts.add(len(m.channels))
            betas.add(config.beta)
        assert channel_counts == {1, 2, 3} and betas == {1.1, 2.0, BETA_STAR}
        assert winners > 200 and reserve_winners > 100 and scanned >= winners - 3
        assert ties > 300
        assert stats.reused_probes > 0

    def test_probe_readmitted_at_a_later_preempting_rank(self):
        """A probe rejected at its own rank still wins if a later preemption readmits it.

        At bid 2.25 job 4 ranks between jobs 6 and 1.  Job 6 holds the one
        free second of job 4's window, [14, 15), and is too dear to evict,
        so the probe is rejected; then job 1 preempts job 6 and the case-3
        scan readmits job 4 into that second.
        """
        ch = Channel(2, REGION, BAND, ((3, 9), (10, 13), (14, 15)))
        jobs = [job(1, 10.5, 6, 15, 6), job(4, 4.5, 13, 16, 1), job(6, 4.75, 12, 16, 2)]
        m = market(jobs, [ch])
        config = AuctionConfig(beta=1.1, xi=self.XI)
        stats = PvgStats()
        deviated = market([replace(j, bid_value=2.25) if j.id == 4 else j for j in jobs], [ch])
        assert pvg_allocate(deviated, config, stats=stats).assignment == {1: 2, 4: 2}
        assert (stats.preemptions, stats.readmissions) == (1, 1)
        greedy = _Greedy(m, config, PvgStats())
        wins = greedy.resumed_probe(jobs[1])
        bids = [k * self.XI for k in range(19)]
        assert [wins(bid) for bid in bids] == [_wins_at_bid(m, config, jobs[1], bid) for bid in bids]
        assert run_pvg(m, config).payments[4] == scan_critical_value(m, config, 4)

    def test_probe_answer_reused_only_where_no_bid_decides_it(self):
        """Two bids at one rank get different answers because a later walk sums the probe.

        Job 2 ranks first at any bid above 0.625.  Placed in [3, 4), it
        leaves job 1 (2.5 for 4 s inside [1, 5)) one second short, and job
        1's eviction walk sums the probe's bid: it evicts the probe below
        2.5 / 1.1 and fails from 2.5 up.  Probed from the bottom, the first
        probe at that rank loses after a walk read its bid, so that loss is
        not reused.  Probed from the top, the first wins by the stop test
        (2.5 <= 1.1 * 5.75); 2.25 may not reuse that win, as 2.5 > 1.1 * 2.25.
        """
        m = market([job(1, 2.5, 1, 8, 4), job(2, 5.75, 3, 4, 1)], [one_channel((0, 5))])
        config = AuctionConfig(beta=1.1, xi=self.XI)
        probed = m.job_by_id(2)
        bids = [k * self.XI for k in range(24)]
        full = [_wins_at_bid(m, config, probed, bid) for bid in bids]
        assert full == [False] * 10 + [True] * 14
        for sequence in (bids, bids[::-1]):
            stats = PvgStats()
            greedy = _Greedy(m, config, stats)
            wins = greedy.resumed_probe(probed)
            answers = {bid: wins(bid) for bid in sequence}
            assert [answers[bid] for bid in bids] == full, sequence
            assert stats.reused_probes > 0
        assert run_pvg(m, config).payments[2] == scan_critical_value(m, config, 2) == 2.5

    def test_standalone_critical_value_on_deviated_markets(self):
        """Priced the way the strategyproofness criterion prices a deviation."""
        checked = 0
        for m, config in self.markets(6006, 40):
            for j in m.jobs:
                for reported in (0.5 * j.bid_value, 2.0 * j.bid_value):
                    reported = self.XI * max(1, round(reported / self.XI))
                    dev_job = replace(j, bid_value=reported)
                    dev = market([dev_job if x.id == j.id else x for x in m.jobs], m.channels)
                    out = run_pvg(dev, config)
                    if j.id not in out.assignment:
                        continue
                    assert out.payments[j.id] == scan_critical_value(dev, config, j.id)
                    checked += 1
        assert checked > 100


def unpruned_eviction_prefix(greedy, job, snap):
    """Reference: the eviction walk with neither the value stop nor the window skip."""
    timeline = snap.timeline
    first, last = timeline.job_windows[job.id]
    free = timeline.window_capacity(job) - sum(snap.committed[first:last + 1])
    prefix = []
    for cand in reversed(snap.winners):
        freed = sum(snap.allocations[cand.id][first:last + 1])
        if not freed:
            continue
        prefix.append(cand)
        greedy.stats.fit_checks += 1
        free += freed
        if free >= job.duration:
            break
    return prefix


def unpruned_step(greedy, state, order, idx):
    """Reference: one greedy rank that walks an eviction prefix on every candidate channel.

    It decides every case-2 step itself, with neither the skip bound nor
    the value stop, and places through ``_Snapshot.place`` only after
    checking that the production answer is its own decision and prefix,
    so it builds the snapshots the greedy builds.  It marks every probe's
    bid as read, so each probe replays.
    """
    candidates, stats, beta = greedy.candidates, greedy.stats, greedy.config.beta
    job = order[idx]
    greedy.bid_read = True

    def fits(j, snap):
        stats.fit_checks += 1
        return fits_in_residual(j, snap.timeline, snap.committed)

    for cid in candidates[job.id]:  # case 1: conflict-free acceptance
        if fits(job, state[cid]):
            return {**state, cid: state[cid].place(job, stats)[0]}, False
    for cid in candidates[job.id]:  # case 2: try to preempt cheaper overlap
        prefix = unpruned_eviction_prefix(greedy, job, state[cid])
        if job.bid_value > beta * sum(p.bid_value for p in prefix):
            placed, summed = state[cid].place(job, stats, beta)
            assert placed is not None and summed == tuple(p.id for p in prefix)
            stats.preemptions += len(prefix)
            state = {**state, cid: placed}
            # case 3: readmission into this channel only
            for earlier in order[:idx]:
                if holds(state, earlier.id) or cid not in candidates[earlier.id]:
                    continue
                if fits(earlier, state[cid]):
                    state[cid] = state[cid].place(earlier, stats)[0]
                    stats.readmissions += 1
            return state, True
        assert state[cid].place(job, PvgStats(), beta)[0] is None
    return state, False


def replaying_every_probe(step):
    """``step`` that marks every probe's bid as read, so no probe answer is reused."""
    def replaying(greedy, state, order, idx):
        greedy.bid_read = True
        return step(greedy, state, order, idx)
    return replaying


class TestPrunedGreedy:
    """The case-2 skip, the eviction walk's value stop, shared snapshots and reused probe answers change no output.

    Bids, reserves and the bid grid are dyadic (xi = 0.25), so per-second
    values tie often and a preemption's value test often sits exactly on
    its threshold.
    """

    BETAS = (1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.1, 2.0, BETA_STAR, 4.0)

    @staticmethod
    def priced(m, config):
        # a copy built anew keeps no run from an earlier pass, so each
        # pass's step processes every rank itself
        stats = PvgStats()
        out = run_pvg(LocalMarket(m.region, m.band_type, m.jobs, m.channels), config, stats=stats)
        return (out.assignment, out.allocations, out.payments,
                (stats.commits, stats.preemptions, stats.readmissions))

    def test_matches_unpruned_greedy(self, monkeypatch):
        rig = random.Random(1717)
        cases = [(random_market(rig, max_jobs=8, max_channels=3),
                  AuctionConfig(beta=rig.choice(self.BETAS), eta_s=rig.choice([0.0, 0.25]),
                                xi=0.25))
                 for _ in range(2000)]
        pruned = [self.priced(m, config) for m, config in cases]
        monkeypatch.setattr(pvg._Greedy, "step", replaying_every_probe(pvg._Greedy.step))
        replayed = [self.priced(m, config) for m, config in cases]
        monkeypatch.setattr(pvg._Greedy, "step", unpruned_step)
        preempting_betas = set()
        for (m, config), got, got_replayed in zip(cases, pruned, replayed):
            expected = self.priced(m, config)
            # with every probe replayed on both sides the work is the same too;
            # reused probe answers skip work, so there only the outcome must match
            assert got_replayed == expected, (m, config)
            assert got[:3] == expected[:3], (m, config)
            if expected[3][1]:
                preempting_betas.add(config.beta)
        assert preempting_betas == set(self.BETAS)
        assert {len(m.channels) for m, _ in cases} == {1, 2, 3}

    def test_preemption_just_inside_the_skip_bound(self):
        """beta * (duration - free) = 20 < 21 = duration: the newcomer must still preempt."""
        ch = one_channel((0, 31))
        jobs = [job(1, 10.0, 0, 10, 10), job(2, 21.0, 0, 21, 21)]
        m, config = market(jobs, [ch]), AuctionConfig(beta=2.0, xi=0.25)
        stats = PvgStats()
        assert pvg_allocate(m, config, stats=stats).assignment == {2: 1}
        assert stats.preemptions == 1
        # the least grid bid above beta * 10
        assert run_pvg(m, config).payments == {1: 0.0, 2: 20.25}

    def test_kept_states_are_never_changed(self, monkeypatch):
        """No snapshot's content and no kept state changes, whatever run built it, through all pricing.

        A snapshot keeps its winners, used seconds and allocations (only its
        memos grow) and holds the market's own timeline of its channel, never
        a copy; every state on the path a walk returns, truthful or without a
        winner, still maps each channel to the same snapshot object.
        """
        built, kept = [], []

        class Recorded(pvg._Snapshot):
            __slots__ = ()

            def __init__(self, timeline, winners, committed, allocations):
                super().__init__(timeline, winners, committed, allocations)
                built.append((self, copy.deepcopy((winners, committed, allocations))))

        walk = pvg._Greedy.walk

        def keeping(greedy, order, path):
            path = walk(greedy, order, path)
            kept.extend((state, dict(state)) for state, _, _ in path)
            return path

        monkeypatch.setattr(pvg, "_Snapshot", Recorded)
        monkeypatch.setattr(pvg._Greedy, "walk", keeping)
        rig = random.Random(1718)
        stats = PvgStats()
        checked = shared = snapshots = 0
        for _ in range(150):
            m = random_market(rig, max_jobs=8, max_channels=3)
            config = AuctionConfig(beta=rig.choice([1.1, 2.0, BETA_STAR]), xi=0.25)
            built.clear()
            kept.clear()
            run_pvg(m, config, stats=stats)
            for snap, before in built:
                assert (snap.winners, snap.committed, snap.allocations) == before
                assert snap.timeline is m.timelines[snap.timeline.channel_id]
            for state, before in kept:
                # a snapshot has no __eq__, so this compares the channels' objects
                assert state == before
            snapshots += len(built)
            checked += len(kept)
            shared += len(kept) - len({id(s) for s, _ in kept})
        assert snapshots > 1000 and checked > 1000 and shared > 100
        assert stats.preemptions > 20 and stats.readmissions > 0


class TestClearingsShareRuns:
    """Clearings of one market object reuse its segmentation and greedy runs.

    Every outcome must equal that of a copy built anew, which shares
    nothing, whatever the order of reserves, mechanisms and betas.  Bids
    are tenths, not binary fractions.  Jobs 1 (3.9 for 3 s) and 2 (2.6 for
    2 s) both bid 1.3 per second as floats, but ``1.3 * 3`` rounds above
    3.9, so at a reserve of exactly 1.3 the filter drops job 1 and keeps
    job 2, which ranks after it: that order is no prefix of the others.
    """

    MECHANISMS = {"vcg": run_vcg, "pvg": run_pvg, "allocate": pvg_allocate}

    @staticmethod
    def outcome(clear, m, config, stats):
        out = clear(m, config) if clear is run_vcg else clear(m, config, stats=stats)
        return out.assignment, out.allocations, out.payments

    def test_outcomes_match_markets_built_anew(self):
        rig = random.Random(2626)
        shared_stats, fresh_stats = PvgStats(), PvgStats()
        clearings = not_prefix = 0
        for _ in range(50):
            m = random_market(rig, max_jobs=7, max_channels=3)
            jobs = [replace(j, id=j.id + 2, bid_value=rig.randint(1, 120) / 10) for j in m.jobs]
            jobs += [job(1, 3.9, 0, 4, 3), job(2, 2.6, 2, 6, 2)]
            m = market(jobs, m.channels)
            reserves = [0.0, 0.5, 1.3, rig.choice(jobs).unit_value]
            plan = [(eta_s, mech, beta) for eta_s in reserves for mech in self.MECHANISMS
                    for beta in (2.0, BETA_STAR) if mech != "vcg" or beta == 2.0]
            rig.shuffle(plan)
            full = sorted(m.jobs, key=processing_key)
            for eta_s, mech, beta in plan:
                config = AuctionConfig(beta=beta, eta_s=eta_s, xi=0.1)
                clear = self.MECHANISMS[mech]
                fresh = market(m.jobs, m.channels)
                assert (self.outcome(clear, m, config, shared_stats)
                        == self.outcome(clear, fresh, config, fresh_stats)), (m, eta_s, mech, beta)
                clearings += 1
            for eta_s in reserves:
                order = sorted(filter_reserve(m.jobs, eta_s), key=processing_key)
                not_prefix += order != full[:len(order)]
        assert clearings == 50 * 20 and not_prefix >= 50
        # the shared market reran fewer ranks, and reused states count nothing
        assert shared_stats.commits < fresh_stats.commits
        assert shared_stats.fit_checks < fresh_stats.fit_checks

    def test_a_clearing_at_an_earlier_order_steps_nothing(self, monkeypatch):
        """Every run a clearing walks stays in the market's trie, whatever runs came after it.

        At a reserve of 1.3 the filter drops job 1 and keeps job 2 (class
        docstring), so the second clearing's order is no prefix of the
        first's; the third clearing repeats the first, and every rank of
        its walk, truthful or without a winner, is already in the trie.
        """
        steps = []
        step = pvg._Greedy.step

        def counting(greedy, state, order, idx):
            steps.append(idx)
            return step(greedy, state, order, idx)

        monkeypatch.setattr(pvg._Greedy, "step", counting)
        jobs = [job(1, 3.9, 0, 4, 3), job(2, 2.6, 2, 6, 2), job(3, 5.0, 0, 6, 2),
                job(4, 1.0, 1, 5, 1), job(5, 6.0, 3, 8, 4)]
        m = market(jobs, [Channel(1, REGION, BAND, ((0, 8),)), Channel(2, REGION, BAND, ((1, 6),))])
        first = pvg_allocate(m, AuctionConfig(beta=2.0))
        order = sorted(filter_reserve(m.jobs, 1.3), key=processing_key)
        assert order != sorted(m.jobs, key=processing_key)[:len(order)]
        run_pvg(m, AuctionConfig(beta=2.0, eta_s=1.3))
        steps.clear()
        assert pvg_allocate(m, AuctionConfig(beta=2.0)) == first
        assert steps == []

    def test_a_wholly_reused_run_keeps_its_preempting_ranks(self):
        """The market of ``test_probe_readmitted_at_a_later_preempting_rank``, cleared three times.

        Job 4's probes that lose at their own rank win only through the
        preemption after it, so the later clearings, which reuse every rank
        of the run without job 4, must keep that preempting rank.
        """
        ch = Channel(2, REGION, BAND, ((3, 9), (10, 13), (14, 15)))
        jobs = [job(1, 10.5, 6, 15, 6), job(4, 4.5, 13, 16, 1), job(6, 4.75, 12, 16, 2)]
        m = market(jobs, [ch])
        for eta_s in (0.0, 0.0, 0.25):
            config = AuctionConfig(beta=1.1, eta_s=eta_s, xi=0.25)
            assert run_pvg(m, config).payments == run_pvg(market(jobs, [ch]), config).payments


class TestBidMonotonicity:
    @pytest.mark.parametrize("entry", COUNTEREXAMPLES, ids=[e["name"] for e in COUNTEREXAMPLES])
    def test_counterexample_corpus(self, entry):
        """An open entry still shows its defect; a mended one wins at both bids."""
        chans = [channel(cid, [tuple(iv) for iv in free]) for cid, free in entry["channels"]]
        jobs = [job(jid, entry["low_bid"] if bid is None else bid, a, d, t)
                for jid, bid, a, d, t in entry["jobs"]]
        m = market(jobs, chans)
        config = AuctionConfig(beta=entry["beta"])
        low, high = (_wins_at_bid(m, config, m.job_by_id(entry["probe"]), entry[key])
                     for key in ("low_bid", "high_bid"))
        assert low
        assert high != entry["open"]

    def test_non_monotone_markets_do_not_grow(self):
        """A ratchet on the greedy's known bid-monotonicity defects: the count may only fall.

        200 markets (``random.Random(41)``) of 1-3 channels and jobs 1-3,
        at beta = 2.  A market counts when one of its jobs wins at some
        bid 0.25 * k (k = 1..48) and loses at a higher one.  6 count at
        the time this was pinned.
        """
        rng = random.Random(41)
        config = AuctionConfig(beta=2.0, xi=0.25)
        non_monotone = 0
        for _ in range(200):
            chans = [random_channel(rng, cid) for cid in range(1, rng.randint(1, 3) + 1)]
            jobs = [random_job(rng, jid) for jid in range(1, 4)]
            m = market(jobs, chans)
            for j in jobs:
                wins = [_wins_at_bid(m, config, j, 0.25 * k) for k in range(1, 49)]
                if True in wins and not all(wins[wins.index(True):]):
                    non_monotone += 1
                    break
        assert non_monotone <= 6

    def test_raised_bids_keep_winning(self, rng):
        checked = 0
        for _ in range(30):
            m = random_market(rng, max_jobs=6, max_channels=2)
            config = AuctionConfig(beta=BETA_STAR, eta_s=random_reserve(rng))
            out = pvg_allocate(m, config)
            for jid in sorted(out.assignment):
                j = m.job_by_id(jid)
                for k in (1, 2, 5):
                    raised = replace(j, bid_value=j.bid_value + 0.25 * k * k)
                    m2 = LocalMarket(REGION, BAND, tuple(
                        raised if x.id == jid else x for x in m.jobs), m.channels)
                    assert jid in pvg_allocate(m2, config).assignment
                    checked += 1
        assert checked > 30


    @pytest.mark.xfail(strict=True, reason=(
        "known defect: case-3 readmission only tries the preempting channel, "
        "so a preempted job with room on another channel loses"))
    def test_preempted_job_keeps_winning_when_raised(self):
        # Job 3 wins at a low bid (processed after job 6, it takes
        # channel 2's free second [3,4)).  Raised to 3.0 it commits on
        # channel 1 first, job 6 evicts it (9 > 2 * 3) and it is only
        # offered channel 1 again.  From 4.5 up it is not evicted.
        chans = [Channel(1, REGION, BAND, ((2, 7),)),
                 Channel(2, REGION, BAND, ((0, 1), (3, 4), (7, 8)))]
        jobs = [job(3, 2.0, 3, 6, 1), job(4, 5.25, 6, 8, 1), job(6, 9.0, 2, 7, 4)]
        config = AuctionConfig(beta=2.0)
        assert 3 in pvg_allocate(market(jobs, chans), config).assignment
        raised = [replace(jobs[0], bid_value=3.0)] + jobs[1:]
        assert 3 in pvg_allocate(market(raised, chans), config).assignment

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the greedy places each winner with a fixed forward fill, so job 6, "
        "raised above job 3, takes second 6, job 3 no longer fits, and job 2 evicts job 6 alone"))
    def test_single_channel_raised_bid_keeps_winning(self):
        # At 4.25 job 6 ranks below job 3 (4.375 per second) and takes
        # second 8 beside it.  At 4.5 it ranks first and the fill puts it in
        # second 6; job 3 (window [6, 8)) is rejected, and job 2 (10.75 > 2
        # * 4.5) evicts job 6 alone.  Yet {6, 3} is a feasible set there.
        jobs = [job(1, 4.5, 6, 8, 2), job(2, 10.75, 6, 9, 3), job(3, 8.75, 6, 8, 2),
                job(4, 7.75, 3, 9, 3), job(5, 1.25, 9, 10, 1), job(6, 9.75, 6, 10, 1),
                job(7, 1.5, 7, 10, 3), job(8, 11.25, 5, 10, 4)]
        m = market(jobs, [one_channel((4, 9))])
        config = AuctionConfig(beta=2.0)
        low, high = (_wins_at_bid(m, config, m.job_by_id(6), bid) for bid in (4.25, 4.5))
        assert high or not low

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the greedy takes the first candidate channel that fits, so job 2, "
        "raised above job 4, takes channel 1, job 4 takes channel 2's one second in job 2's "
        "window, and job 6 evicts job 2 from channel 1"))
    def test_multi_channel_raised_bid_keeps_winning(self):
        # At 3.0 job 4 ranks above job 2, takes channel 1 and is the one
        # job 6 (12 > 2 * 3.25) evicts, while job 2 takes second 5 of
        # channel 2.  At 3.25 job 2 ties job 4 per second and ranks above it
        # by id, so the two swap; no channel has room to readmit job 2.
        chans = [Channel(1, REGION, BAND, ((2, 3), (4, 6), (7, 10))),
                 Channel(2, REGION, BAND, ((3, 7),))]
        jobs = [job(1, 6.25, 0, 2, 2), job(2, 8.25, 5, 6, 1), job(3, 10.25, 3, 7, 4),
                job(4, 3.25, 5, 7, 1), job(5, 8.75, 6, 7, 1), job(6, 12.0, 1, 9, 5)]
        m = market(jobs, chans)
        config = AuctionConfig(beta=2.0)
        low, high = (_wins_at_bid(m, config, m.job_by_id(2), bid) for bid in (3.0, 3.25))
        assert high or not low


class TestTimeMisreport:
    """Job 4 needs one second inside [3, 7) and reports the narrower window [5, 6)."""

    CONFIG = AuctionConfig(beta=BETA_STAR, xi=0.25)

    def markets(self):
        chans = [Channel(1, REGION, BAND, ((0, 5),)), Channel(2, REGION, BAND, ((5, 9),))]
        jobs = [job(1, 6.5, 2, 8, 4), job(2, 2.0, 9, 10, 1), job(3, 8.5, 0, 7, 5),
                job(4, 12.0, 3, 7, 1)]
        narrowed = [replace(j, arrival=5, deadline=6) if j.id == 4 else j for j in jobs]
        return market(jobs, chans), market(narrowed, chans)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: case-3 readmission only tries the preempting channel, so from 1.75 "
        "to 3.5 job 3 evicts job 4 from channel 1 and job 4 is never offered channel 2; "
        "the true window pays 3.75, and [5, 6), which only channel 2 holds, pays 0"))
    def test_greedy_charges_the_true_window_no_more(self):
        truthful, narrowed = (run_pvg(m, self.CONFIG).payments[4] for m in self.markets())
        assert truthful <= narrowed

    def test_job_wins_both_ways_and_the_exact_mechanism_charges_nothing(self):
        for m in self.markets():
            assert 4 in run_pvg(m, self.CONFIG).assignment
            out = run_vcg(m, self.CONFIG)
            assert 4 in out.assignment and out.payments[4] == 0.0


class TestApproximationBound:
    def test_welfare_within_rho_of_optimum(self, rng):
        bound = rho_bound(BETA_STAR)
        for _ in range(60):
            m = random_market(rng, max_jobs=6, max_channels=2)
            eta = random_reserve(rng)
            opt = solve_optimal(m, eta).welfare
            out = pvg_allocate(m, AuctionConfig(beta=BETA_STAR, eta_s=eta))
            eff = sum(m.job_by_id(jid).bid_value for jid in out.assignment)
            if opt == 0.0:
                assert eff == 0.0
            else:
                assert opt <= bound * eff + 1e-9


class TestRhoBound:
    def test_optimal_beta_value(self):
        assert abs(rho_bound(BETA_STAR) - (6 + 4 * math.sqrt(2))) < 1e-12

    def test_beta_two(self):
        assert rho_bound(2.0) == 12.0

    def test_diverges_at_one(self):
        with pytest.raises(ValueError):
            rho_bound(1.0)
        with pytest.raises(ValueError):
            rho_bound(0.5)


class TestPricingCost:
    def test_greedy_contested_panel_fit_checks(self, monkeypatch):
        """Pricing replays, walks and builds only what can change an answer.

        ``run_pvg`` over the first six greedy-contested panel markets (set 2,
        lambda 40, beta 2, no reserve) made 64,957 fit checks when every
        probe ran to the last rank and 14,032 when it replays only the
        preempting ranks while it loses and stops once no later bid can
        evict it.  Skipping eviction walks that cannot pay and stopping a
        walk once its value reaches the bid brought that to 7,818.  With
        one mutable state per run, kept states cost 1,866 forks.  Immutable
        channel snapshots with memos, and probe answers reused within a
        rank, bring that to 3,121 fit checks and 673 snapshots built.  Every
        counter is pinned exactly, so a change that does more or less work
        here must say so by changing them.
        """
        built = []

        class Counted(pvg._Snapshot):
            __slots__ = ()

            def __init__(self, timeline, winners, committed, allocations):
                super().__init__(timeline, winners, committed, allocations)
                built.append(1)

        monkeypatch.setattr(pvg, "_Snapshot", Counted)
        grid = synthesize_occupancy(3, 1, 0.5, seed=7)
        channels = tuple(grid.to_channels(REGION, BAND))
        stats = PvgStats()
        for trial in range(6):
            jobs = generate_requests(WorkloadSpec(
                n_requests=40, set_kind=2, horizon=grid.horizon_seconds,
                seed=trial_seed(0, 2, 40, trial)))
            run_pvg(LocalMarket(REGION, BAND, tuple(jobs), channels), AuctionConfig(beta=2.0),
                    stats=stats)
        assert stats == PvgStats(fit_checks=3121, commits=655, preemptions=30, readmissions=9,
                                 probes=912, reused_probes=431)
        assert len(built) == 673


class TestComplexityTrend:
    def test_step_counts_grow_polynomially(self):
        """Work counters across doubling N stay within the documented trend.

        The auction's cost drivers are the per-job channel scans during
        allocation and the per-winner binary searches (log of the bid
        grid size); the assertion gives each a generous constant but
        rejects super-polynomial blowup.
        """
        rig = random.Random(99)
        config = AuctionConfig(beta=BETA_STAR, eta_s=0.0, xi=0.01)
        totals = {}
        for n in (8, 16, 32):
            steps = 0
            for _ in range(3):
                jobs = []
                for jid in range(1, n + 1):
                    a = rig.randint(0, 20)
                    d = rig.randint(a + 2, min(a + 8, 24))
                    t = rig.randint(1, d - a)
                    jobs.append(job(jid, rig.randint(1, 40) * 0.25, a, d, t))
                chans = [Channel(c + 1, REGION, BAND, ((0, 24),)) for c in range(2)]
                m = market(jobs, chans)
                stats = PvgStats()
                run_pvg(m, config, stats=stats)
                steps += stats.fit_checks
            totals[n] = steps
        assert totals[8] < totals[16] < totals[32]
        # N doubles: an O(N^2 log P) trend predicts ~4x; allow generous slack
        assert totals[16] <= 10 * totals[8]
        assert totals[32] <= 10 * totals[16]
        # absolute envelope: steps within a constant of M * N^2 * log2(P)
        v_max = 10.0
        for n, steps in totals.items():
            envelope = 2 * n * n * math.log2(v_max / config.xi) * 3  # 3 instances
            assert steps <= 60 * envelope
