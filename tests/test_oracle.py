"""Brute-force references: enumeration, contiguous model, payment scans."""

import math
import random

import pytest

from spectrum_auctions import (
    AuctionConfig,
    Channel,
    SpectrumAuctionError,
    run_pvg,
)
from spectrum_auctions.oracle import (
    OracleCapError,
    contiguous_optimal,
    enumerate_optimal,
    scan_critical_value,
)

from conftest import BAND, REGION, job, market, random_channel, random_market, random_reserve

H = 3600


class TestEnumerateOptimal:
    def test_t1_instance(self):
        ch = Channel(1, REGION, BAND, ((0, 4 * H),))
        jobs = [job(i + 1, v, 0, 4 * H, 2 * H) for i, v in enumerate([10.0, 6.0, 4.0])]
        res = enumerate_optimal(market(jobs, [ch]), 0.0)
        assert res.best_welfare == 16.0
        assert res.best_winner_sets == [frozenset({1, 2})]

    def test_single_infeasible_job(self):
        ch = Channel(1, REGION, BAND, ((0, H),))
        res = enumerate_optimal(market([job(1, 9.0, 0, 2 * H, 2 * H)], [ch]), 0.0)
        assert res.best_welfare == 0.0
        assert res.best_winner_sets == [frozenset()]

    def test_disjoint_windows_both_win(self):
        ch = Channel(1, REGION, BAND, ((0, 4 * H),))
        jobs = [job(1, 3.0, 0, 2 * H, 2 * H), job(2, 5.0, 2 * H, 4 * H, 2 * H)]
        res = enumerate_optimal(market(jobs, [ch]), 0.0)
        assert res.best_welfare == 8.0
        assert res.best_winner_sets == [frozenset({1, 2})]

    def test_cap_enforced(self):
        jobs = [job(i + 1, 1.0, 0, 20, 1) for i in range(13)]
        ch = Channel(1, REGION, BAND, ((0, 20),))
        with pytest.raises(OracleCapError):
            enumerate_optimal(market(jobs, [ch]), 0.0)
        chans = [Channel(i + 1, REGION, BAND, ((0, 4),)) for i in range(4)]
        with pytest.raises(OracleCapError):
            enumerate_optimal(market([job(1, 1.0, 0, 4, 1)], chans), 0.0)

    def test_every_best_set_is_feasible_welfare(self):
        rig = random.Random(11)
        for _ in range(40):
            m = random_market(rig, max_jobs=5, max_channels=2)
            eta = random_reserve(rig)
            res = enumerate_optimal(m, eta)
            for winners in res.best_winner_sets:
                total = sum(m.job_by_id(j).bid_value for j in sorted(winners))
                assert total == res.best_welfare


class TestContiguousOptimal:
    def test_split_capacity_defeats_contiguous_model(self):
        ch = Channel(1, REGION, BAND, ((0, H), (2 * H, 3 * H)))
        m = market([job(1, 9.0, 0, 3 * H, int(1.5 * H))], [ch])
        assert contiguous_optimal(m) == 0.0

    def test_block_inside_one_interval_wins(self):
        ch = Channel(1, REGION, BAND, ((0, 2 * H),))
        m = market([job(1, 9.0, 0, 2 * H, H)], [ch])
        assert contiguous_optimal(m) == 9.0

    def test_empty_market(self):
        assert contiguous_optimal(market([], [])) == 0.0
        ch = Channel(1, REGION, BAND, ((0, H),))
        assert contiguous_optimal(market([], [ch])) == 0.0

    def test_orders_matter_and_are_searched(self):
        # j2 must go first inside [0,4): placing j1 at 0 would strand it
        ch = Channel(1, REGION, BAND, ((0, 4),))
        j1 = job(1, 5.0, 0, 4, 2)
        j2 = job(2, 5.0, 0, 2, 2)
        assert contiguous_optimal(market([j1, j2], [ch])) == 10.0

    def test_never_beats_split_allocation(self):
        rig = random.Random(12)
        for _ in range(60):
            m = random_market(rig, max_jobs=4, max_channels=2, grid_max=6)
            assert enumerate_optimal(m, 0.0).best_welfare >= contiguous_optimal(m)

    def test_equals_split_optimum_when_jobs_fill_their_windows(self):
        # A job as long as its window must take all of it, and with no two
        # free intervals touching a fully free window lies inside one of
        # them, so the split and contiguous models admit the same sets.
        rig = random.Random(13)
        positive = 0
        for _ in range(400):
            channels = [random_channel(rig, cid + 1) for cid in range(rig.randint(1, 2))]
            jobs = []
            for jid in range(1, rig.randint(1, 5) + 1):
                a = rig.randint(0, 7)
                d = rig.randint(a + 1, 8)
                jobs.append(job(jid, rig.randint(1, 48) * 0.25, a, d, d - a))
            m = market(jobs, channels)
            best = contiguous_optimal(m)
            assert enumerate_optimal(m, 0.0).best_welfare == best
            positive += best > 0
        assert positive > 100


class TestScanCriticalValue:
    def test_full_conflict_scan(self):
        ch = Channel(1, REGION, BAND, ((0, 2 * H),))
        m = market([job(1, 10.0, 0, 2 * H, 2 * H), job(2, 6.0, 0, 2 * H, 2 * H)], [ch])
        config = AuctionConfig(beta=1 + math.sqrt(2), eta_s=0.0, xi=0.01)
        assert scan_critical_value(m, config, 1) == 6.0
        with pytest.raises(SpectrumAuctionError, match="job 2 does not win even at its truthful bid"):
            scan_critical_value(m, config, 2)

    def test_lone_job_scans_to_floor(self):
        ch = Channel(1, REGION, BAND, ((0, 2 * H),))
        m = market([job(1, 5.0, 0, 2 * H, H)], [ch])
        assert scan_critical_value(m, AuctionConfig(beta=2.0), 1) == 0.0

    def test_lone_job_reserve_floor(self):
        ch = Channel(1, REGION, BAND, ((0, 2 * H),))
        m = market([job(1, 5.0, 0, 2 * H, H)], [ch])
        config = AuctionConfig(beta=2.0, eta_s=0.001)
        assert scan_critical_value(m, config, 1) == 0.001 * H

    def test_agrees_with_binary_search_payments(self, rng):
        for _ in range(10):
            m = random_market(rng, max_jobs=4, max_channels=2)
            config = AuctionConfig(beta=2.0, eta_s=random_reserve(rng), xi=0.01)
            out = run_pvg(m, config)
            for jid in sorted(out.assignment):
                assert out.payments[jid] == scan_critical_value(m, config, jid)
