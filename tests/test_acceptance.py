"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria summary (stated tolerances pinned here, nothing deferred):
  1  exact solver == exhaustive oracle on 200 random instances, < 60 s
  2  optimal/greedy efficiency ratio <= 6+4*sqrt(2) + 1e-9 on the same set
  3  mean greedy/optimal efficiency >= 0.70 at every default sweep point
  4  value strategyproofness within one bid-grid step (both mechanisms)
  5  longer-duration, later-arrival and earlier-deadline deviations never
     gain utility (exact, both mechanisms)
  6  raised bids keep every sampled winner winning (both mechanisms)
  7  greedy payments within [reserve, bid] and equal to the linear scan
  8  split-capacity family: exact solver wins, contiguous model gets 0
  9  loss bound formula: value and minimality at beta = 1 + sqrt(2)
 10  same-seed sweeps produce byte-identical results CSV
"""

import math
import random
import time
from dataclasses import replace

import pytest

from spectrum_auctions import (
    AuctionConfig,
    Channel,
    Job,
    LocalMarket,
    WorkloadSpec,
    generate_requests,
    pvg_allocate,
    rho_bound,
    run_pvg,
    social_efficiency,
    solve_optimal,
    synthesize_occupancy,
)
from spectrum_auctions.cli import main as cli_main
from spectrum_auctions.experiment import trial_seed
from spectrum_auctions.oracle import contiguous_optimal, enumerate_optimal, scan_critical_value
from spectrum_auctions.workload import BAND_TYPE, REGION

from conftest import random_market, random_reserve

BETA_STAR = 1.0 + math.sqrt(2.0)
RHO_STAR = 6.0 + 4.0 * math.sqrt(2.0)
XI = 0.01


# ---------------------------------------------------------------- criteria 1+2

@pytest.fixture(scope="module")
def solved_pool():
    """200 random instances solved by solver, oracle, and greedy allocator."""
    rig = random.Random(1001)
    instances = []
    for _ in range(200):
        market = random_market(rig, max_jobs=8, max_channels=2, grid_max=8)
        instances.append((market, random_reserve(rig)))

    start = time.perf_counter()
    solved = []
    for market, eta in instances:
        exact = solve_optimal(market, eta).welfare
        oracle = enumerate_optimal(market, eta).best_welfare
        solved.append((market, eta, exact, oracle))
    oracle_seconds = time.perf_counter() - start

    results = []
    for market, eta, exact, oracle in solved:
        out = pvg_allocate(market, AuctionConfig(beta=BETA_STAR, eta_s=eta, xi=XI))
        results.append((market, eta, exact, oracle, social_efficiency(out, market.jobs)))
    return results, oracle_seconds


def test_criterion_1_oracle_equivalence(solved_pool):
    results, oracle_seconds = solved_pool
    assert len(results) == 200
    for market, eta, exact, oracle, _ in results:
        assert exact == oracle, (market, eta)
    assert oracle_seconds < 60.0
    print(f"\nPASS criterion 1: exact solver == oracle on 200 instances "
          f"({oracle_seconds:.1f} s < 60 s)")


def test_criterion_2_approximation_bound(solved_pool):
    results, _ = solved_pool
    for market, eta, exact, _, greedy_eff in results:
        assert exact <= RHO_STAR * greedy_eff + 1e-9, (market, eta)
    print(f"\nPASS criterion 2: optimal <= (6+4*sqrt2) * greedy on all 200 instances")


# ------------------------------------------------------------------ criterion 3

def test_criterion_3_empirical_efficiency_ratio():
    grid = synthesize_occupancy(3, 1, 0.5, seed=7)
    channels = tuple(grid.to_channels(REGION, BAND_TYPE))
    config = AuctionConfig(beta=2.0, eta_s=0.0, xi=XI)
    trials = 20
    summary = []
    for set_kind in (1, 2):
        for lam in (8, 15, 25):
            ratios = []
            for trial in range(trials):
                spec = WorkloadSpec(
                    n_requests=lam, set_kind=set_kind, horizon=grid.horizon_seconds,
                    seed=trial_seed(0, set_kind, lam, trial),
                )
                jobs = generate_requests(spec)
                market = LocalMarket(REGION, BAND_TYPE, tuple(jobs), channels)
                optimal = solve_optimal(market, 0.0, max_jobs=lam).welfare
                greedy = social_efficiency(pvg_allocate(market, config), jobs)
                ratios.append(1.0 if optimal == 0.0 else greedy / optimal)
            mean = sum(ratios) / len(ratios)
            summary.append((set_kind, lam, mean))
            assert mean >= 0.70, (set_kind, lam, mean)
    lines = ", ".join(f"set{s}/lam{l}={m:.3f}" for s, l, m in summary)
    print(f"\nPASS criterion 3: mean greedy/optimal efficiency >= 0.70 ({lines})")


# -------------------------------------------------------------- criteria 4+5+6

@pytest.fixture(scope="module")
def sp_pool():
    """100 small instances for the strategyproofness suites (zero reserve)."""
    rig = random.Random(2002)
    return [random_market(rig, max_jobs=5, max_channels=2, grid_max=8)
            for _ in range(100)]


def _deviated(market, job, **changes):
    new = replace(job, **changes)
    return LocalMarket(market.region, market.band_type,
                       tuple(new if j.id == job.id else j for j in market.jobs),
                       market.channels), new


def _vcg_utility(market, job, welfare_without, **report):
    """True utility of ``job`` reporting ``report`` (fields of ``Job``) to the exact mechanism."""
    dev_market, dev_job = _deviated(market, job, **report)
    sol = solve_optimal(dev_market, 0.0)
    if job.id not in sol.assignment:
        return 0.0
    pivot = welfare_without - (sol.welfare - dev_job.bid_value)
    return job.bid_value - max(pivot, 0.0)


def _pvg_utility(market, job, config, **report):
    """True utility of ``job`` reporting ``report`` (fields of ``Job``) to the greedy."""
    dev_market, _ = _deviated(market, job, **report)
    out = run_pvg(dev_market, config)
    if job.id not in out.assignment:
        return 0.0
    return job.bid_value - out.payments[job.id]


def test_criterion_4_value_strategyproofness(sp_pool):
    """Grid-quantized critical values concede at most one step of slack;
    a further 1e-9 absorbs float dust in the comparisons."""
    config = AuctionConfig(beta=BETA_STAR, eta_s=0.0, xi=XI)
    checked = 0
    for market in sp_pool:
        without_cache = {}
        for job in market.jobs:
            others = LocalMarket(market.region, market.band_type,
                                 tuple(j for j in market.jobs if j.id != job.id),
                                 market.channels)
            without_cache[job.id] = solve_optimal(others, 0.0).welfare
            truth_vcg = _vcg_utility(market, job, without_cache[job.id])
            truth_pvg = _pvg_utility(market, job, config)
            for i in range(1, 26):
                target = 2.0 * job.bid_value * i / 25.0
                bid = XI * max(1, math.ceil(target / XI))
                if bid == job.bid_value:
                    continue
                assert _vcg_utility(market, job, without_cache[job.id],
                                    bid_value=bid) <= truth_vcg + XI + 1e-9
                assert _pvg_utility(market, job, config,
                                    bid_value=bid) <= truth_pvg + XI + 1e-9
                checked += 1
    assert checked >= 100 * 24
    print(f"\nPASS criterion 4: no profitable bid deviation beyond grid slack "
          f"({checked} deviations)")


def test_criterion_5_time_strategyproofness(sp_pool):
    config = AuctionConfig(beta=BETA_STAR, eta_s=0.0, xi=XI)
    checked = 0
    for market in sp_pool:
        for job in market.jobs:
            slack = (job.deadline - job.arrival) - job.duration
            if slack == 0:
                continue
            others = LocalMarket(market.region, market.band_type,
                                 tuple(j for j in market.jobs if j.id != job.id),
                                 market.channels)
            welfare_without = solve_optimal(others, 0.0).welfare
            truth_vcg = _vcg_utility(market, job, welfare_without)
            truth_pvg = _pvg_utility(market, job, config)
            steps = sorted({job.duration + max(1, round(slack * i / 5)) for i in range(1, 6)})
            # every report inside the true window: a longer duration, a later
            # arrival or an earlier deadline, by every shift the slack allows
            reports = ([{"duration": longer} for longer in steps]
                       + [{"arrival": job.arrival + shift} for shift in range(1, slack + 1)]
                       + [{"deadline": job.deadline - shift} for shift in range(1, slack + 1)])
            for report in reports:
                assert truth_vcg >= _vcg_utility(market, job, welfare_without, **report), report
                assert truth_pvg >= _pvg_utility(market, job, config, **report), report
                checked += 1
    # on this pool: 230 longer durations and 231 each of later arrivals and earlier deadlines
    assert checked >= 692
    print(f"\nPASS criterion 5: no longer-duration, later-arrival or earlier-deadline "
          f"deviation ever gained ({checked} deviations)")


def test_criterion_6_bid_monotonicity(sp_pool):
    config = AuctionConfig(beta=BETA_STAR, eta_s=0.0, xi=XI)
    checked_vcg = checked_pvg = 0
    for market in sp_pool[:40]:
        vcg_winners = solve_optimal(market, 0.0).assignment
        pvg_winners = pvg_allocate(market, config).assignment
        for jid in sorted(set(vcg_winners) | set(pvg_winners)):
            job = market.job_by_id(jid)
            for k in range(1, 11):
                raised_market, _ = _deviated(market, job,
                                             bid_value=job.bid_value * (1 + 0.4 * k))
                if jid in vcg_winners:
                    assert jid in solve_optimal(raised_market, 0.0).assignment
                    checked_vcg += 1
                if jid in pvg_winners:
                    assert jid in pvg_allocate(raised_market, config).assignment
                    checked_pvg += 1
    assert checked_vcg >= 100 and checked_pvg >= 100
    print(f"\nPASS criterion 6: raised bids kept winners winning "
          f"({checked_vcg} exact, {checked_pvg} greedy checks)")


# ------------------------------------------------------------------ criterion 7

def test_criterion_7_payment_bounds_and_scan_equality():
    rig = random.Random(3003)
    winners_checked = 0
    for _ in range(50):
        market = random_market(rig, max_jobs=5, max_channels=2)
        config = AuctionConfig(beta=BETA_STAR, eta_s=random_reserve(rig), xi=XI)
        outcome = run_pvg(market, config)
        payments = outcome.payments
        for jid in sorted(outcome.assignment):
            job = market.job_by_id(jid)
            assert config.eta_s * job.duration <= payments[jid] <= job.bid_value
            assert payments[jid] == scan_critical_value(market, config, jid)
            winners_checked += 1
        for j in market.jobs:
            if j.id not in outcome.assignment:
                assert payments[j.id] == 0.0
    assert winners_checked >= 50
    print(f"\nPASS criterion 7: payments in bounds and equal to scan oracle "
          f"({winners_checked} winners)")


# ------------------------------------------------------------------ criterion 8

def test_criterion_8_discrete_continuous_separation():
    rig = random.Random(4004)
    for case in range(20):
        t = rig.randint(2, 10)
        part1 = rig.randint(max(1, t // 2), t - 1)
        part2 = rig.randint(t - part1, t - 1)
        gap = rig.randint(1, 4)
        ch = Channel(1, REGION, BAND_TYPE,
                     ((0, part1), (part1 + gap, part1 + gap + part2)))
        job = Job(id=1, region=REGION, band_type=BAND_TYPE,
                  bid_value=rig.randint(1, 40) * 0.25,
                  arrival=0, deadline=part1 + gap + part2, duration=t)
        market = LocalMarket(REGION, BAND_TYPE, (job,), (ch,))
        assert solve_optimal(market, 0.0).welfare == job.bid_value, case
        assert contiguous_optimal(market) == 0.0, case
    print("\nPASS criterion 8: split-capacity family separates the two models "
          "(20 instances)")


# ------------------------------------------------------------------ criterion 9

def test_criterion_9_rho_bound_value_and_minimality():
    assert abs(rho_bound(BETA_STAR) - RHO_STAR) < 1e-12
    rig = random.Random(5005)
    for _ in range(50):
        beta = rig.uniform(1.0 + 1e-6, 10.0)
        assert rho_bound(beta) >= RHO_STAR
    print("\nPASS criterion 9: loss bound equals 6+4*sqrt2 at the minimizer and "
          "dominates it elsewhere (50 samples)")


# ----------------------------------------------------------------- criterion 10

def test_criterion_10_byte_identical_sweeps(tmp_path):
    grid_path = tmp_path / "grid.csv"
    assert cli_main(["gen-occupancy", "--channels", "3", "--days", "1",
                     "--duty-cycle", "0.5", "--seed", "7",
                     "--out", str(grid_path)]) == 0
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--grid", str(grid_path), "--lambda-list", "3,5",
            "--eta-s-list", "0.0,0.0007", "--sets", "1,2", "--beta", "2.0",
            "--trials", "2", "--seed", "123"]
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) > 1
    print("\nPASS criterion 10: same-seed sweeps are byte-identical")
