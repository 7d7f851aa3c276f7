"""Experiment driver: row layout, determinism, metric plumbing."""

import logging

import pytest

from spectrum_auctions import experiment, market, rho_bound, synthesize_occupancy
from spectrum_auctions.experiment import (
    NUMERIC_COLUMNS,
    RESULT_COLUMNS,
    ExperimentPlan,
    format_cell,
    run_experiment,
    trial_seed,
    write_results_csv,
)


@pytest.fixture(scope="module")
def grid():
    return synthesize_occupancy(2, 1, 0.4, seed=11)


def raw_rows(rows):
    return [r for r in rows if r["trial"] != "mean"]


def agg_rows(rows):
    return [r for r in rows if r["trial"] == "mean"]


class TestRowArithmetic:
    def test_counts_per_point_trial_mechanism(self, grid):
        plan = ExperimentPlan(lambdas=[2, 3], set_kinds=[1], trials=2,
                              master_seed=5, beta=2.0)
        rows = run_experiment(grid, plan)
        assert len(raw_rows(rows)) == 2 * 2 * 2  # lambdas x trials x mechs
        assert len(agg_rows(rows)) == 2 * 2      # lambdas x mechs

    def test_pvg_only_leaves_no_vcg_rows(self, grid):
        plan = ExperimentPlan(lambdas=[3], set_kinds=[1], trials=2,
                              master_seed=5, mechanisms=("pvg",))
        rows = run_experiment(grid, plan)
        assert all(r["mech"] == "pvg" for r in rows)
        assert all(r["eff_ratio"] is None for r in rows)

    def test_vcg_cap_exceeded_leaves_blank_fields(self, grid, caplog):
        plan = ExperimentPlan(lambdas=[4], set_kinds=[1], trials=1,
                              master_seed=5, vcg_max_jobs=2)
        with caplog.at_level(logging.WARNING):
            rows = run_experiment(grid, plan)
        vcg = [r for r in raw_rows(rows) if r["mech"] == "vcg"]
        pvg = [r for r in raw_rows(rows) if r["mech"] == "pvg"]
        assert all(r["efficiency"] is None and r["revenue"] is None for r in vcg)
        assert all(r["eff_ratio"] is None for r in pvg)  # no denominator
        assert any("vcg skipped" in rec.message for rec in caplog.records)

    def test_rows_sorted_canonically(self, grid):
        plan = ExperimentPlan(lambdas=[3, 2], eta_s_values=[0.0, 0.001],
                              set_kinds=[1], trials=2, master_seed=5)
        rows = run_experiment(grid, plan)
        lam_rank = {3: 0, 2: 1}
        eta_rank = {0.0: 0, 0.001: 1}
        mech_rank = {"vcg": 0, "pvg": 1}
        ranked = [(lam_rank[r["lambda"]], eta_rank[r["eta_s"]], r["trial"], mech_rank[r["mech"]])
                  for r in raw_rows(rows)]
        assert ranked == sorted(ranked)
        means = [(lam_rank[r["lambda"]], eta_rank[r["eta_s"]], mech_rank[r["mech"]])
                 for r in agg_rows(rows)]
        assert means == sorted(means)


class TestDeterminism:
    def test_identical_plans_identical_rows(self, grid):
        plan = ExperimentPlan(lambdas=[3], eta_s_values=[0.0, 0.001],
                              set_kinds=[1, 2], trials=2, master_seed=9, beta=2.0)
        assert run_experiment(grid, plan) == run_experiment(grid, plan)

    def test_trial_seed_depends_on_all_parts(self):
        base = trial_seed(1, 1, 10, 0)
        assert base == trial_seed(1, 1, 10, 0)
        assert len({base, trial_seed(2, 1, 10, 0), trial_seed(1, 2, 10, 0),
                    trial_seed(1, 1, 11, 0), trial_seed(1, 1, 10, 1)}) == 5

    def test_same_jobs_across_reserve_levels(self, grid):
        plan = ExperimentPlan(lambdas=[4], eta_s_values=[0.0, 0.002],
                              set_kinds=[1], trials=1, master_seed=3,
                              mechanisms=("pvg",))
        rows = raw_rows(run_experiment(grid, plan))
        # same workload: efficiency at higher reserve can only drop
        eff = {r["eta_s"]: r["efficiency"] for r in rows}
        assert eff[0.002] <= eff[0.0]


class TestMetricsColumns:
    def test_eff_ratio_floor(self, grid):
        plan = ExperimentPlan(lambdas=[3, 5], set_kinds=[1, 2], trials=3,
                              master_seed=13, beta=2.0)
        rows = raw_rows(run_experiment(grid, plan))
        floor = 1.0 / rho_bound(2.0) - 1e-9
        for r in rows:
            if r["mech"] == "pvg" and r["eff_ratio"] is not None:
                assert floor <= r["eff_ratio"] <= 1.0 + 1e-9

    def test_mean_utilization_nondecreasing_in_lambda(self, grid):
        plan = ExperimentPlan(lambdas=[2, 6, 18], set_kinds=[1], trials=8,
                              master_seed=17, mechanisms=("pvg",))
        means = [r for r in agg_rows(run_experiment(grid, plan))]
        util = [r["utilization"] for r in sorted(means, key=lambda r: r["lambda"])]
        assert util == sorted(util)

    def test_revenue_ratio_uses_zero_reserve_baseline(self, grid):
        plan = ExperimentPlan(lambdas=[4], eta_s_values=[0.0, 0.0005],
                              set_kinds=[1], trials=1, master_seed=21,
                              mechanisms=("pvg",))
        rows = raw_rows(run_experiment(grid, plan))
        by_eta = {r["eta_s"]: r for r in rows}
        base = by_eta[0.0]
        assert base["revenue_ratio"] == pytest.approx(
            base["revenue"] / base["efficiency"])
        lifted = by_eta[0.0005]
        # same normalizer (efficiency at zero reserve), not its own efficiency
        assert lifted["revenue_ratio"] == pytest.approx(
            lifted["revenue"] / base["efficiency"])

    def test_reserve_order_changes_no_value(self, grid):
        def by_point(eta_s_values):
            plan = ExperimentPlan(lambdas=[3, 5], eta_s_values=eta_s_values, set_kinds=[1, 2],
                                  trials=2, master_seed=4, beta=2.0)
            return {(r["set"], r["lambda"], r["eta_s"], r["trial"], r["mech"]):
                    [r[c] for c in NUMERIC_COLUMNS] for r in run_experiment(grid, plan)}

        late_zero, early_zero = by_point([0.001, 0.0]), by_point([0.0, 0.001])
        assert late_zero == early_zero
        assert all(values[NUMERIC_COLUMNS.index("revenue_ratio")] is not None
                   for values in early_zero.values())

    def test_each_channel_is_segmented_once_per_market(self, grid, monkeypatch):
        """Every reserve and both mechanisms clear a market on one segmentation."""
        segmented = []
        segment = market.segment_timeline

        def counting(channel, jobs):
            segmented.append((channel.id, tuple(jobs)))
            return segment(channel, jobs)

        monkeypatch.setattr(market, "segment_timeline", counting)
        plan = ExperimentPlan(lambdas=[3, 6], eta_s_values=[0.0, 0.0005, 0.001], set_kinds=[1],
                              trials=2, master_seed=4, beta=2.0)
        rows = raw_rows(run_experiment(grid, plan))
        assert len(rows) == 2 * 3 * 2 * 2  # lambdas x reserves x trials x mechs
        assert all(r["efficiency"] is not None for r in rows)
        markets, channels = 2 * 2, grid.n_channels
        assert len(segmented) == markets * channels
        assert len(set(segmented)) == len(segmented)

    def test_runtime_blank_without_timing_flag(self, grid, tmp_path):
        plan = ExperimentPlan(lambdas=[2], set_kinds=[1], trials=1, master_seed=1)
        rows = run_experiment(grid, plan)
        assert all(r["runtime_ms"] is None for r in rows)
        plan_timed = ExperimentPlan(lambdas=[2], set_kinds=[1], trials=1,
                                    master_seed=1, timing=True)
        timed = raw_rows(run_experiment(grid, plan_timed))
        assert all(r["runtime_ms"] is not None and r["runtime_ms"] >= 0 for r in timed)


class TestCsvWriting:
    def test_header_and_blank_cells(self, grid, tmp_path):
        plan = ExperimentPlan(lambdas=[3], set_kinds=[1], trials=1,
                              master_seed=2, vcg_max_jobs=1)
        rows = run_experiment(grid, plan)
        path = tmp_path / "results.csv"
        write_results_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 1 + len(rows)
        vcg_line = next(l for l in lines[1:] if ",vcg," in l)
        assert vcg_line.endswith(",,,,,")  # all metric fields blank

    def test_format_cell(self):
        assert format_cell(None) == ""
        assert format_cell(0.5) == "0.5"
        assert format_cell(3) == "3"
        assert format_cell("mean") == "mean"


class TestZeroReserveNormalizer:
    """``revenue_ratio`` on markets the exact solver's cap refuses at zero reserve."""

    @pytest.fixture(scope="class")
    def cap_grid(self):
        return synthesize_occupancy(3, 1, 0.5, seed=7)

    @staticmethod
    def plan(eta_s_values):
        return ExperimentPlan(lambdas=[20], eta_s_values=eta_s_values, set_kinds=[1],
                              trials=2, master_seed=0, vcg_max_jobs=18)

    @pytest.fixture
    def zero_reserve_calls(self, monkeypatch):
        calls = []
        original = experiment._zero_reserve_efficiency

        def counted(mech, market, plan):
            calls.append(mech)
            return original(mech, market, plan)

        monkeypatch.setattr(experiment, "_zero_reserve_efficiency", counted)
        return calls

    def test_a_listed_zero_reserve_is_the_normalizer(self, cap_grid, zero_reserve_calls):
        rows = raw_rows(run_experiment(cap_grid, self.plan([0.0, 0.002])))
        vcg = {(r["eta_s"], r["trial"]): r for r in rows if r["mech"] == "vcg"}
        assert zero_reserve_calls == []
        for trial in range(2):
            assert vcg[0.0, trial]["efficiency"] is None  # refused at zero reserve
            assert vcg[0.002, trial]["efficiency"] is not None
            assert vcg[0.002, trial]["revenue_ratio"] is None

    def test_without_a_zero_reserve_an_allocation_only_run_normalizes(self, cap_grid):
        rows = raw_rows(run_experiment(cap_grid, self.plan([0.002])))
        assert {r["trial"] for r in rows} == {0, 1}
        for r in rows:
            assert r["efficiency"] is not None
            if r["mech"] == "vcg":
                assert r["revenue_ratio"] is None  # the exact solver refuses it at zero reserve
            else:
                assert r["revenue_ratio"] is not None
        listed = raw_rows(run_experiment(cap_grid, self.plan([0.0, 0.002])))
        assert rows == [r for r in listed if r["eta_s"] == 0.002]
