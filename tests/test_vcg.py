"""Exact solver: optimality, payments, truthfulness side conditions."""

import itertools
from dataclasses import replace

import pytest

from spectrum_auctions import (
    AuctionConfig,
    Channel,
    LocalMarket,
    SolverSizeError,
    filter_reserve,
    run_vcg,
    solve_optimal,
    vcg_payments,
)
from spectrum_auctions import vcg
from spectrum_auctions.experiment import trial_seed
from spectrum_auctions.market import build_timelines, set_feasible
from spectrum_auctions.oracle import _channel_set_feasible, contiguous_optimal, enumerate_optimal
from spectrum_auctions.pvg import processing_key
from spectrum_auctions.vcg import _Search, _time_components
from spectrum_auctions.workload import WorkloadSpec, generate_requests, synthesize_occupancy

from conftest import (BAND, REGION, job, market, random_channel, random_job, random_market,
                      random_reserve, slot_free)

H = 3600


def cent_market(rng, max_jobs=7, max_channels=2):
    """A random market with cent-valued bids, which binary floats cannot hold exactly."""
    base = random_market(rng, max_jobs=max_jobs, max_channels=max_channels)
    return LocalMarket(REGION, BAND, tuple(
        replace(j, bid_value=rng.randint(1, 1200) / 100) for j in base.jobs), base.channels)


def clustered_market(rng, clusters, lone_first):
    """Jobs in ``clusters`` groups, group c inside [8c, 8c + 6), ids shuffled across groups."""
    sizes = [1 if c == 0 and lone_first else rng.randint(1, 3) for c in range(clusters)]
    ids = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
    jobs = []
    for c, size in enumerate(sizes):
        for _ in range(size):
            j = random_job(rng, ids[len(jobs)], grid_max=6)
            jobs.append(replace(j, arrival=j.arrival + 8 * c, deadline=j.deadline + 8 * c))
    channels = tuple(random_channel(rng, cid + 1, grid_max=8 * clusters)
                     for cid in range(rng.randint(1, 2)))
    return LocalMarket(REGION, BAND, tuple(jobs), channels)


def tied_bid_market(rng):
    """2-3 time components on 1-3 whole-day channels, bids from a few decimals.

    Equal decimal bids tie often inside a component, and their sums with
    winners of the other components differ in the last bit with the id
    order they are added in.
    """
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
    ids = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
    jobs = []
    for c, size in enumerate(sizes):
        for _ in range(size):
            a = rng.randint(0, 3)
            d = rng.randint(a + 1, 4)
            jobs.append(job(ids[len(jobs)], rng.choice((0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 1.3)),
                            a + 6 * c, d + 6 * c, rng.randint(1, d - a)))
    channels = [Channel(cid, REGION, BAND, ((0, 6 * len(sizes)),))
                for cid in range(1, rng.randint(1, 3) + 1)]
    return market(jobs, channels)


@pytest.fixture
def t1_market():
    ch = Channel(1, REGION, BAND, ((0, 4 * H),))
    jobs = [job(i + 1, v, 0, 4 * H, 2 * H) for i, v in enumerate([10.0, 6.0, 4.0])]
    return market(jobs, [ch])


class TestFilterReserve:
    def test_zero_reserve_keeps_all(self):
        jobs = [job(1, 0.0, 0, 4, 2), job(2, 3.0, 0, 4, 2)]
        assert filter_reserve(jobs, 0.0) == jobs

    def test_below_reserve_dropped(self):
        # 5 < 0.25/s * 24 s = 6
        j = job(1, 5.0, 0, 24, 24)
        assert filter_reserve([j], 0.25) == []

    def test_boundary_kept(self):
        # 6 >= 0.25/s * 24 s, exactly
        j = job(1, 6.0, 0, 24, 24)
        assert filter_reserve([j], 0.25) == [j]


class TestSolveOptimal:
    def test_t1_two_best_jobs_win(self, t1_market):
        sol = solve_optimal(t1_market, 0.0)
        assert sol.welfare == 16.0
        assert sol.assignment == {1: 1, 2: 1}
        assert sorted(sol.allocations) == [1, 2]
        assert sum(sol.allocations[1]) == 2 * H
        assert sum(sol.allocations[2]) == 2 * H

    def test_lone_fitting_job_wins(self):
        m = market([job(1, 7.0, 0, 2 * H, H)], [Channel(1, REGION, BAND, ((0, 2 * H),))])
        sol = solve_optimal(m, 0.0)
        assert sol.welfare == 7.0
        assert sol.assignment == {1: 1}

    def test_split_across_occupied_gap_wins(self):
        ch = Channel(1, REGION, BAND, ((0, H), (2 * H, 3 * H)))
        j = job(1, 7.5, 0, 3 * H, int(1.5 * H))
        m = market([j], [ch])
        sol = solve_optimal(m, 0.0)
        assert sol.welfare == 7.5
        # and the one-contiguous-block model gets nothing out of it
        assert contiguous_optimal(m) == 0.0

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(60):
            m = random_market(rng, max_jobs=6, max_channels=2)
            eta = random_reserve(rng)
            assert solve_optimal(m, eta).welfare == enumerate_optimal(m, eta).best_welfare

    def test_matches_exhaustive_enumeration_on_cent_bids(self, rng):
        overloaded = 0
        for _ in range(200):
            m = cent_market(rng)
            eta = rng.choice([0.0, rng.randint(1, 150) / 100])
            sol = solve_optimal(m, eta)
            res = enumerate_optimal(m, eta)
            assert sol.welfare == res.best_welfare
            assert tuple(sorted(sol.assignment)) == min(
                tuple(sorted(s)) for s in res.best_winner_sets)
            demand = sum(j.duration for j in filter_reserve(m.jobs, eta))
            overloaded += demand > sum(c.free_seconds for c in m.channels)
        # the value bound alone stays exact where the demand overflows the free time
        assert overloaded >= 60

    def test_tiebreak_prefers_smaller_winner_ids(self):
        ch = Channel(1, REGION, BAND, ((0, 2),))
        a = job(1, 4.0, 0, 2, 2)
        b = job(2, 4.0, 0, 2, 2)
        sol = solve_optimal(market([a, b], [ch]), 0.0)
        assert sol.assignment == {1: 1}

    def test_tiebreak_prefers_smaller_channel_ids(self):
        chans = [Channel(1, REGION, BAND, ((0, 4),)), Channel(2, REGION, BAND, ((0, 4),))]
        sol = solve_optimal(market([job(1, 4.0, 0, 4, 2)], chans), 0.0)
        assert sol.assignment == {1: 1}

    def test_equal_assignments_go_to_the_first_leaf(self):
        """Of two assignments of the same winners, the one the search reaches first wins.

        Each job needs a whole channel.  Job 2 bids more, so it is
        branched on first and takes channel 1, and job 1 takes channel 2.
        """
        chans = [Channel(cid, REGION, BAND, ((0, 4 * H),)) for cid in (1, 2)]
        m = market([job(1, 5.0, 0, 4 * H, 4 * H), job(2, 9.0, 0, 4 * H, 4 * H)], chans)
        sol = solve_optimal(m, 0.0)
        assert sol.assignment == {1: 2, 2: 1}
        assert vcg_payments(m, sol) == {1: 0.0, 2: 0.0}

    def test_assignment_is_the_first_feasible_channel_vector(self, rng):
        """Winners in branching order (-bid, id), each on the lowest channel id that still fits.

        The channel vectors of the solve's winners, in that order, are
        tried lexicographically by channel id, and the first whose
        per-channel sets are all feasible is the assignment.  Taking the
        winners in id order instead gives another vector on some markets.
        """
        reordered = 0
        for _ in range(150):
            m = random_market(rng, max_jobs=6, max_channels=3)
            sol = solve_optimal(m, random_reserve(rng))
            cids = sorted(c.id for c in m.channels)

            def first_vector(winners):
                for vector in itertools.product(cids, repeat=len(winners)):
                    if all(_channel_set_feasible(c, [j for j, cid in zip(winners, vector)
                                                     if cid == c.id]) for c in m.channels):
                        return {j.id: cid for j, cid in zip(winners, vector)}

            winners = sorted(map(m.job_by_id, sol.assignment), key=lambda j: (-j.bid_value, j.id))
            assert sol.assignment == first_vector(winners)
            reordered += sol.assignment != first_vector(sorted(winners, key=lambda j: j.id))
        assert reordered > 0

    def test_tiebreak_winner_set_matches_oracle_minimum(self, rng):
        hits = 0
        for _ in range(120):
            base = random_market(rng, max_jobs=5, max_channels=2)
            # unit bids make welfare = winner count, so ties are plentiful
            m = LocalMarket(REGION, BAND, tuple(
                replace(j, bid_value=1.0) for j in base.jobs), base.channels)
            res = enumerate_optimal(m, 0.0)
            sol = solve_optimal(m, 0.0)
            if len(res.best_winner_sets) > 1:
                hits += 1
            assert tuple(sorted(sol.assignment)) == min(
                tuple(sorted(s)) for s in res.best_winner_sets)
        assert hits > 0  # the tie-break actually got exercised

    def test_assignment_is_keyed_in_id_order(self, rng):
        multi_winner = 0
        for _ in range(60):
            m = clustered_market(rng, 3, lone_first=False)
            eta = random_reserve(rng)
            sol = solve_optimal(m, eta)
            assert list(sol.assignment) == sorted(sol.assignment)
            assert list(run_vcg(m, AuctionConfig(eta_s=eta)).assignment) == list(sol.assignment)
            multi_winner += len(sol.assignment) > 1
        assert multi_winner > 20

    def test_oversize_instance_rejected(self):
        jobs = [job(i + 1, 1.0, 0, 8, 1) for i in range(5)]
        m = market(jobs, [Channel(1, REGION, BAND, ((0, 8),))])
        with pytest.raises(SolverSizeError):
            solve_optimal(m, 0.0, max_jobs=4)
        assert solve_optimal(m, 0.0, max_jobs=5).welfare == 5.0

    def test_allocations_respect_constraints(self, rng):
        for _ in range(60):
            m = random_market(rng, max_jobs=6, max_channels=2)
            sol = solve_optimal(m, 0.0)
            timelines = build_timelines(m)
            per_channel_usage = {c.id: [0] * (len(timelines[c.id].boundaries) - 1) for c in m.channels}
            for jid, cid in sol.assignment.items():
                j = m.job_by_id(jid)
                amounts = sol.allocations[jid]
                assert sum(amounts) == j.duration
                tl = timelines[cid]
                first, last = tl.job_windows[j.id]
                for i, a in enumerate(amounts):
                    assert a == 0 or first <= i <= last
                    per_channel_usage[cid][i] += a
            for cid, usage in per_channel_usage.items():
                tl = timelines[cid]
                assert all(u <= f for u, f in zip(usage, slot_free(tl)))


class TestTimeComponents:
    def test_cut_where_no_window_spans_the_gap(self):
        a, b = job(1, 1.0, 0, 4, 1), job(2, 1.0, 2, 6, 1)
        c, d = job(3, 1.0, 6, 9, 1), job(4, 1.0, 7, 8, 1)  # c touches b's deadline
        e = job(5, 1.0, 9, 12, 1)  # touches c's deadline
        assert _time_components([e, d, c, b, a]) == [[a, b], [c, d], [e]]
        # one window across both gaps joins everything
        span = job(6, 1.0, 3, 10, 1)
        assert _time_components([a, b, c, d, e, span]) == [[a, b, span, c, d, e]]

    def test_components_are_the_overlap_graph_components(self, rng):
        for _ in range(100):
            jobs = [random_job(rng, jid + 1, grid_max=20) for jid in range(rng.randint(1, 10))]
            parent = {j.id: j.id for j in jobs}

            def root(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for x in jobs:
                for y in jobs:
                    if x.arrival < y.deadline and y.arrival < x.deadline:
                        parent[root(x.id)] = root(y.id)
            expected = {}
            for j in jobs:
                expected.setdefault(root(j.id), set()).add(j.id)
            got = [{j.id for j in comp} for comp in _time_components(jobs)]
            assert sorted(map(sorted, got)) == sorted(map(sorted, expected.values()))

    def test_clustered_markets_match_oracle_and_resolves(self, rng):
        priced = multi = 0
        for n in range(80):
            m = clustered_market(rng, clusters=rng.randint(2, 3), lone_first=n % 2 == 0)
            eta = random_reserve(rng)
            components = _time_components(list(m.jobs))
            assert all(len({j.arrival // 8 for j in comp}) == 1 for comp in components)
            sol = solve_optimal(m, eta)
            res = enumerate_optimal(m, eta)
            assert sol.welfare == res.best_welfare
            # bids are positive, so the per-component tie-break is the market-wide one
            assert tuple(sorted(sol.assignment)) == min(
                tuple(sorted(s)) for s in res.best_winner_sets)
            pay = vcg_payments(m, sol)
            for jid in sol.assignment:
                j = m.job_by_id(jid)
                others = LocalMarket(REGION, BAND, tuple(x for x in m.jobs if x.id != jid),
                                     m.channels)
                without = solve_optimal(others, eta).welfare
                assert pay[jid] == max(without - (sol.welfare - j.bid_value), eta * j.duration)
                priced += 1
            winning = {comp_id for comp_id, comp in enumerate(components)
                       for j in comp if j.id in sol.assignment}
            multi += len(winning) > 1
        assert priced > 80 and multi > 20

    def test_zero_bid_job_alone_in_its_component_loses_the_tie(self):
        ch = Channel(1, REGION, BAND, ((0, 8),))
        lone = job(1, 0.0, 0, 2, 1)
        sol = solve_optimal(market([lone, job(2, 5.0, 4, 6, 2)], [ch]), 0.0)
        assert sol.assignment == {2: 1}
        # beside a higher-id winner in its own component it wins the tie
        sol = solve_optimal(market([lone, job(2, 5.0, 0, 4, 2)], [ch]), 0.0)
        assert sol.assignment == {1: 1, 2: 1}


class TestVcgPayments:
    def test_t1_pivot_payments(self, t1_market):
        sol = solve_optimal(t1_market, 0.0)
        pay = vcg_payments(t1_market, sol)
        assert pay == {1: 4.0, 2: 4.0, 3: 0.0}

    def test_lone_winner_pays_nothing_without_reserve(self):
        m = market([job(1, 7.0, 0, 2 * H, H)], [Channel(1, REGION, BAND, ((0, 2 * H),))])
        sol = solve_optimal(m, 0.0)
        assert vcg_payments(m, sol) == {1: 0.0}

    def test_lone_winner_pays_reserve_floor(self):
        m = market([job(1, 7.0, 0, 2 * H, H)], [Channel(1, REGION, BAND, ((0, 2 * H),))])
        sol = solve_optimal(m, 0.001)
        assert vcg_payments(m, sol) == {1: 0.001 * H}

    @pytest.mark.xfail(strict=True, reason=(
        "known defect (ROADMAP item 9): a pivot is priced against the whole market's "
        "welfare, so a winner nobody competes with pays float dust instead of 0"))
    def test_winners_without_competitors_pay_exactly_nothing(self):
        # disjoint windows, so each job is its own time component and no
        # job competes with another: every pivot is exactly 0
        m = market([job(1, 18.077835, 0, 60000, 30000), job(2, 1.096505, 60000, 120000, 30000),
                    job(3, 0.996194, 120000, 180000, 30000)],
                   [Channel(1, REGION, BAND, ((0, 200000),))])
        assert len(solve_optimal(m, 0.0).searches) == 3
        assert all(p == 0.0 for p in run_vcg(m, AuctionConfig(eta_s=0.0)).payments.values())

    def test_individual_rationality(self, rng):
        for _ in range(40):
            m = random_market(rng, max_jobs=6, max_channels=2)
            eta = random_reserve(rng)
            sol = solve_optimal(m, eta)
            pay = vcg_payments(m, sol)
            for jid in sol.assignment:
                j = m.job_by_id(jid)
                assert eta * j.duration <= pay[jid] <= j.bid_value + 1e-9
            for j in m.jobs:
                if j.id not in sol.assignment:
                    assert pay[j.id] == 0.0

    def test_matches_oracle_pivot(self, rng):
        """Each winner pays max(OPT(market - i) - (W* - b_i), eta * t_i), OPT by enumeration."""
        markets = [(random_market(rng, max_jobs=6, max_channels=2), random_reserve(rng))
                   for _ in range(40)]
        markets += [(cent_market(rng, max_jobs=6), rng.choice([0.0, rng.randint(1, 150) / 100]))
                    for _ in range(40)]
        priced = 0
        for m, eta in markets:
            sol = solve_optimal(m, eta)
            best = enumerate_optimal(m, eta).best_welfare
            pay = vcg_payments(m, sol)
            for jid in sol.assignment:
                j = m.job_by_id(jid)
                others = LocalMarket(REGION, BAND, tuple(x for x in m.jobs if x.id != jid),
                                     m.channels)
                without = enumerate_optimal(others, eta).best_welfare
                assert pay[jid] == max(without - (best - j.bid_value), eta * j.duration)
                priced += 1
        assert priced > 40

    def test_matches_independent_resolves(self, rng):
        """The one pricing search gives each winner the price of a fresh solve without it."""
        priced = 0
        for _ in range(60):
            m = cent_market(rng, max_jobs=12, max_channels=3)
            eta = rng.choice([0.0, rng.randint(1, 150) / 100])
            sol = solve_optimal(m, eta)
            pay = vcg_payments(m, sol)
            for jid in sol.assignment:
                j = m.job_by_id(jid)
                others = LocalMarket(REGION, BAND, tuple(x for x in m.jobs if x.id != jid),
                                     m.channels)
                without = solve_optimal(others, eta).welfare
                assert pay[jid] == max(without - (sol.welfare - j.bid_value), eta * j.duration)
                priced += 1
        assert priced > 100

    def test_pricing_a_solution_twice_gives_the_same_payments(self, rng):
        """Each pricing run resets the searches' state and reuses only their memo."""
        lone = market([job(1, 7.0, 0, 2 * H, H)], [Channel(1, REGION, BAND, ((0, 2 * H),))])
        # [0, 4H) holds the t1 jobs, [5H, 7H) two jobs of which one fits
        two_parts = market(
            [job(i + 1, v, 0, 4 * H, 2 * H) for i, v in enumerate([10.0, 6.0, 4.0])]
            + [job(4, 3.0, 5 * H, 7 * H, H), job(5, 2.0, 5 * H, 7 * H, 2 * H)],
            [Channel(1, REGION, BAND, ((0, 4 * H), (5 * H, 7 * H)))])
        cases = [(lone, 0.001, {1: 0.001 * H}),
                 (two_parts, 0.0, {1: 4.0, 2: 4.0, 3: 0.0, 4: 2.0, 5: 0.0})]
        cases += [(clustered_market(rng, 3, lone_first=True), random_reserve(rng), None)
                  for _ in range(20)]
        for m, eta, expected in cases:
            sol = solve_optimal(m, eta)
            first = vcg_payments(m, sol)
            assert vcg_payments(m, sol) == first
            assert run_vcg(m, AuctionConfig(eta_s=eta)).payments == first
            if expected is not None:
                assert first == expected

    def test_payments_do_not_depend_on_the_branching_order(self, rng):
        """Pricing ties go to the smallest winner ids whatever order the search branches in."""
        orders = (processing_key, lambda j: (-j.bid_value, j.id), lambda j: (j.bid_value, -j.id))
        for _ in range(400):
            m = tied_bid_market(rng)
            sol = solve_optimal(m, 0.0)
            timelines = build_timelines(m)
            payments = []
            for key in orders:
                searches = []
                for component in _time_components(list(m.jobs)):
                    order = sorted(component, key=key)
                    searches.append(_Search(order, timelines,
                                            [m.candidates[j.id] for j in order]))
                payments.append(vcg_payments(m, replace(sol, searches=searches)))
            assert payments[0] == payments[1] == payments[2]

    def test_zero_bid_ties_price_to_the_smallest_winner_set(self, rng):
        """Each pricing set is the smallest sorted-id set among the oracle's optima without the winner.

        A zero bid ties the sets with and without it, so the search must
        not settle a subtree at its first leaf when a zero bid is alive
        there.  Payments cannot show this, because a zero bid adds exactly
        0.0 to a welfare sum, so the sets are checked.  The solve settles
        subtrees by the same rule, so its winner set is checked too.
        """
        checked = 0
        for _ in range(400):
            channels = [random_channel(rng, cid + 1) for cid in range(rng.randint(1, 2))]
            jobs = []
            for jid in range(1, rng.randint(2, 7) + 1):
                # every window holds [3, 4), so the market is one time component;
                # each search is checked on its own jobs all the same
                a, d = rng.randint(0, 3), rng.randint(4, 8)
                jobs.append(job(jid, rng.choice((0.0, 0.0, 0.5, 1.0, 1.0, 2.0)), a, d,
                                rng.randint(1, d - a)))
            sol = solve_optimal(market(jobs, channels), 0.0)
            optima = enumerate_optimal(market(jobs, channels), 0.0).best_winner_sets
            assert tuple(sorted(sol.assignment)) == min(tuple(sorted(s)) for s in optima)
            for search in sol.searches:
                own = {w for w in sol.assignment if w in search.value_by_id}
                for winner, ids in search.price(own):
                    rest = [x for x in jobs if x.id in search.value_by_id and x is not winner]
                    without = enumerate_optimal(market(rest, channels), 0.0)
                    assert ids == min(tuple(sorted(s)) for s in without.best_winner_sets)
                    checked += 1
        assert checked > 250

    def test_prices_at_the_given_reserve(self):
        # job 2 bids 3 for 2 h, under the 3.6 reserve at 0.0005/s: it competes only at 0.0
        m = market([job(1, 10.0, 0, 2 * H, H), job(2, 3.0, 0, 2 * H, 2 * H)],
                   [Channel(1, REGION, BAND, ((0, 2 * H),))])
        at_zero, at_reserve = solve_optimal(m, 0.0), solve_optimal(m, 0.0005)
        assert at_zero.assignment == at_reserve.assignment and at_zero != at_reserve
        assert (at_zero.eta_s, at_reserve.eta_s) == (0.0, 0.0005)
        assert vcg_payments(m, at_reserve) == {1: 0.0005 * H, 2: 0.0}
        assert vcg_payments(m, at_zero) == {1: 3.0, 2: 0.0}

    def test_decides_each_channel_set_once(self, rng, monkeypatch):
        """The solve and every pivot share one memo: no (channel, job set) is decided twice."""
        decided: dict[tuple[int, frozenset[int]], int] = {}

        def counting(jobs, timeline):
            key = (timeline.channel_id, frozenset(j.id for j in jobs))
            decided[key] = decided.get(key, 0) + 1
            return set_feasible(jobs, timeline)

        monkeypatch.setattr(vcg, "set_feasible", counting)
        winners = sets = 0
        for _ in range(40):
            m = random_market(rng, max_jobs=7, max_channels=3)
            decided.clear()
            winners += len(run_vcg(m, AuctionConfig(eta_s=random_reserve(rng))).assignment)
            assert all(n == 1 for n in decided.values())
            sets += len(decided)
        assert winners > 40 and sets > 40

    def test_later_fits_memo_holds_exactly_the_later_jobs_that_fit(self, rng):
        """Each per-channel memo entry is the candidates after the mask's last job that fit beside it."""
        entries = 0
        for _ in range(60):
            m = random_market(rng, max_jobs=8, max_channels=3)
            sol = solve_optimal(m, random_reserve(rng))
            vcg_payments(m, sol)
            for search in sol.searches:
                for cid, memo in search.later_fits.items():
                    timeline = build_timelines(m)[cid]
                    for mask, fits in memo.items():
                        members = [j for i, j in enumerate(search.order) if mask >> i & 1]
                        expected = sum(
                            1 << i for i, j in enumerate(search.order)
                            if i >= mask.bit_length() and cid in search.candidates[i]
                            and set_feasible([*members, j], timeline))
                        assert fits == expected, (cid, bin(mask))
                        entries += 1
        assert entries > 200

    def test_segments_each_market_once(self, rng, monkeypatch):
        calls = []

        def counting(market):
            calls.append(market)
            return build_timelines(market)

        monkeypatch.setattr(vcg, "build_timelines", counting)
        winners = 0
        for _ in range(20):
            m = random_market(rng, max_jobs=6, max_channels=2)
            calls.clear()
            winners += len(run_vcg(m, AuctionConfig()).assignment)
            assert calls == [m]
        assert winners > 20


class TestBidMonotonicity:
    def test_raised_bids_keep_winning(self, rng):
        checked = 0
        for _ in range(25):
            m = random_market(rng, max_jobs=5, max_channels=2)
            eta = random_reserve(rng)
            sol = solve_optimal(m, eta)
            for jid in sorted(sol.assignment):
                j = m.job_by_id(jid)
                for k in range(1, 6):
                    raised = replace(j, bid_value=j.bid_value * (1 + 0.5 * k))
                    m2 = LocalMarket(REGION, BAND, tuple(
                        raised if x.id == jid else x for x in m.jobs), m.channels)
                    assert jid in solve_optimal(m2, eta).assignment
                    checked += 1
        assert checked > 20


def clear_exact_hot_panel(trials):
    """``run_vcg`` on the first exact-hot panel markets (set 2, lambda 18, no reserve)."""
    grid = synthesize_occupancy(3, 1, 0.5, seed=7)
    channels = tuple(grid.to_channels(REGION, BAND))
    for trial in range(trials):
        jobs = generate_requests(WorkloadSpec(
            n_requests=18, set_kind=2, horizon=grid.horizon_seconds,
            seed=trial_seed(0, 2, 18, trial)))
        run_vcg(LocalMarket(REGION, BAND, tuple(jobs), channels), AuctionConfig(eta_s=0.0))


def count_dfs_calls(monkeypatch):
    """A one-item list that counts ``_Search._dfs`` calls from here on."""
    calls = [0]
    dfs = _Search._dfs

    def counting(self, *args):
        calls[0] += 1
        return dfs(self, *args)

    monkeypatch.setattr(_Search, "_dfs", counting)
    return calls


class TestSearchCost:
    def test_exact_hot_panel_node_count(self, monkeypatch):
        """Branching on the largest bids first keeps the exact-hot panel's DFS small.

        Solve plus pricing over the first six exact-hot panel markets
        (set 2, lambda 18, no reserve) took 643,221 DFS calls in per-second
        rate order, 147,835 in bid order, and 45,802 once jobs that fit no
        channel are skipped and left out of the bound.  A call is now a
        node past its cutoff, since each parent checks its children's
        bounds first, and pricing settles a subtree at its first leaf when
        that leaf takes every job alive there: 17,163 calls.  The solve
        settling its subtrees by the same rule brought it to 16,784.
        """
        calls = count_dfs_calls(monkeypatch)
        clear_exact_hot_panel(6)
        assert calls[0] <= 16_784

    def test_exact_hot_panel_feasibility_checks(self, monkeypatch):
        """Each channel set is decided once per search, through the module-level name.

        The same six markets asked 4,603 channel-set questions, and 4,238
        once a lone job is read off its candidate channels and a set is
        asked about only if it also fits without its next-to-last job.
        Settling pricing subtrees at their first leaf brought it to 3,807,
        and settling the solve's subtrees the same way to 3,650.  A lost
        memo would ask again, and a private feasibility path would ask 0.
        """
        calls = [0]

        def counting(jobs, timeline):
            calls[0] += 1
            return set_feasible(jobs, timeline)

        monkeypatch.setattr(vcg, "set_feasible", counting)
        clear_exact_hot_panel(6)
        assert 0 < calls[0] <= 3_650

    def test_jobs_that_fit_no_channel_are_skipped(self, monkeypatch):
        """Once the only channel is full, the jobs after the winner are not branched on one by one.

        Each of k jobs needs all of the channel's free time.  Accepting
        one kills the rest, and rejecting it keeps the others alive, so
        the solve takes at most two DFS calls per job: 31 for k = 16,
        where branching level by level took 151.
        """
        k = 16
        m = market([job(i + 1, float(k - i), 0, 4 * H, 2 * H) for i in range(k)],
                   [Channel(1, REGION, BAND, ((H, 3 * H),))])
        calls = count_dfs_calls(monkeypatch)
        sol = solve_optimal(m, 0.0)
        assert sol.assignment == {1: 1}
        assert calls[0] <= 2 * k
        assert vcg_payments(m, sol) == {1: float(k - 1), **{i: 0.0 for i in range(2, k + 1)}}

    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_pricing_settles_a_market_where_everyone_wins(self, k, monkeypatch):
        """Pricing k one-hour jobs that all fit one free 16-hour channel walks one path.

        Each node's first leaf takes every job still alive, so pricing
        settles the root's subtree at that leaf: at most k + 1 DFS calls,
        where proving node by node that nothing beats "everyone wins"
        took 73, 157 and 273 at k = 8, 12 and 16.
        """
        m = market([job(i + 1, float(i + 1), 0, 16 * H, H) for i in range(k)],
                   [Channel(1, REGION, BAND, ((0, 16 * H),))])
        sol = solve_optimal(m, 0.0)
        assert sorted(sol.assignment) == list(range(1, k + 1))
        calls = count_dfs_calls(monkeypatch)
        assert vcg_payments(m, sol) == {i: 0.0 for i in range(1, k + 1)}
        assert calls[0] <= k + 1
