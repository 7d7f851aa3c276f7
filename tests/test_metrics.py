"""Outcome metrics and their consistency with the mechanisms."""

import pytest

from spectrum_auctions import (
    AuctionConfig,
    Channel,
    LocalMarket,
    pvg_allocate,
    run_vcg,
    social_efficiency,
    utilization_ratio,
)

from conftest import BAND, REGION, job, random_market

H = 3600


@pytest.fixture
def t1():
    ch = Channel(1, REGION, BAND, ((0, 4 * H),))
    jobs = [job(i + 1, v, 0, 4 * H, 2 * H) for i, v in enumerate([10.0, 6.0, 4.0])]
    return LocalMarket(REGION, BAND, tuple(jobs), (ch,))


class TestSocialEfficiency:
    def test_t1_under_both_mechanisms(self, t1):
        vcg_out = run_vcg(t1, AuctionConfig())
        pvg_out = pvg_allocate(t1, AuctionConfig())
        assert social_efficiency(vcg_out, t1.jobs) == 16.0
        assert social_efficiency(pvg_out, t1.jobs) == 16.0

    def test_no_winners(self, t1):
        ch = Channel(1, REGION, BAND, ((0, H),))
        m = LocalMarket(REGION, BAND, (job(1, 5.0, 0, 2 * H, 2 * H),), (ch,))
        out = pvg_allocate(m, AuctionConfig())
        assert social_efficiency(out, m.jobs) == 0.0

    def test_single_winner(self):
        ch = Channel(1, REGION, BAND, ((0, 2 * H),))
        m = LocalMarket(REGION, BAND, (job(1, 7.0, 0, 2 * H, H),), (ch,))
        out = pvg_allocate(m, AuctionConfig())
        assert social_efficiency(out, m.jobs) == 7.0

    def test_uses_true_values_not_reported(self, t1):
        # outcome from one market, scored against different true values
        out = pvg_allocate(t1, AuctionConfig())
        true_jobs = [job(j.id, j.bid_value + 1.0, j.arrival, j.deadline, j.duration)
                     for j in t1.jobs]
        assert social_efficiency(out, true_jobs) == 18.0

    def test_matches_recomputation_from_winner_flags(self, rng):
        for _ in range(30):
            m = random_market(rng, max_jobs=6, max_channels=2)
            out = pvg_allocate(m, AuctionConfig())
            from_flags = sum(m.job_by_id(jid).bid_value for jid in sorted(out.assignment))
            assert social_efficiency(out, m.jobs) == from_flags
            assert set(out.allocations) == set(out.assignment)


class TestUtilizationRatio:
    def test_t1_saturates_free_time(self, t1):
        out = pvg_allocate(t1, AuctionConfig())
        assert utilization_ratio(out, t1) == 1.0

    def test_empty_outcome(self):
        ch = Channel(1, REGION, BAND, ((0, H),))
        m = LocalMarket(REGION, BAND, (job(1, 5.0, 0, 2 * H, 2 * H),), (ch,))
        out = pvg_allocate(m, AuctionConfig())
        assert utilization_ratio(out, m) == 0.0

    def test_partial_use(self):
        ch = Channel(1, REGION, BAND, ((0, 4 * H),))
        m = LocalMarket(REGION, BAND, (job(1, 7.0, 0, 4 * H, H),), (ch,))
        out = pvg_allocate(m, AuctionConfig())
        assert utilization_ratio(out, m) == 0.25

    def test_no_free_time_gives_zero(self):
        m = LocalMarket(REGION, BAND, (), ())
        out = pvg_allocate(m, AuctionConfig())
        assert utilization_ratio(out, m) == 0.0


class TestAggregateRationality:
    def test_vcg_revenue_never_exceeds_efficiency(self, rng):
        for _ in range(25):
            m = random_market(rng, max_jobs=5, max_channels=2)
            out = run_vcg(m, AuctionConfig())
            assert out.total_revenue() <= social_efficiency(out, m.jobs) + 1e-9
