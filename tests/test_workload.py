"""Occupancy grids, synthesis, and request generation."""

import numpy as np
import pytest

from spectrum_auctions import (
    OccupancyFormatError,
    OccupancyGrid,
    WorkloadSpec,
    generate_requests,
    load_occupancy,
    load_requests,
    save_occupancy,
    save_requests,
    synthesize_occupancy,
)
from spectrum_auctions import workload
from spectrum_auctions.experiment import trial_seed
from spectrum_auctions.workload import HOT_WINDOW, _Pcg64, _seed_state

DAY = 86_400


class TestOccupancyCsv:
    def test_roundtrip(self, tmp_path):
        grid = synthesize_occupancy(3, 2, 0.4, seed=5)
        path = tmp_path / "grid.csv"
        save_occupancy(grid, str(path))
        loaded = load_occupancy(str(path))
        assert loaded.slot_seconds == grid.slot_seconds
        assert loaded.occupancy == grid.occupancy

    def test_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("slot_seconds,75\n0,1,0\n\n1,1,0\n")
        assert load_occupancy(str(path)).occupancy == (b"\x00\x01\x00", b"\x01\x01\x00")

    def test_five_day_horizon(self, tmp_path):
        grid = synthesize_occupancy(3, 5, 0.5, seed=1)
        assert grid.horizon_slots == 5760
        assert grid.horizon_seconds == 5760 * 75

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slots,75\n0,1\n")
        with pytest.raises(OccupancyFormatError, match="line 1"):
            load_occupancy(str(path))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot_seconds,75\n0,1,0\n0,1\n")
        with pytest.raises(OccupancyFormatError, match="line 3"):
            load_occupancy(str(path))

    def test_non_binary_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot_seconds,75\n0,1,0\n0,2,0\n")
        with pytest.raises(OccupancyFormatError, match="line 3"):
            load_occupancy(str(path))

    @pytest.mark.parametrize("cells, shown", [([[2]], "2"), ([[-1, 0]], "-1"),
                                              ([[0, 0.5]], "0.5"), ([[1, float("nan")]], "nan"),
                                              (np.array([[0, 0.5]]), "0.5"), ((b"\x00\x02",), "2")])
    def test_grid_rejects_non_binary_cell(self, cells, shown):
        # unchecked, a 2 would read as an occupied slot; the message names the cell as a number
        with pytest.raises(ValueError, match=f"occupancy cell {shown} is not 0 or 1"):
            OccupancyGrid(75, cells)

    def test_rows_are_bytes_whatever_the_input(self):
        cells = [[0, 1, 1], [1, 0, 0]]
        grids = [OccupancyGrid(75, cells), OccupancyGrid(75, np.array(cells, dtype=np.uint8)),
                 OccupancyGrid(75, np.array(cells, dtype=np.int64)),
                 OccupancyGrid(75, np.array(cells, dtype=float)),
                 OccupancyGrid(75, (b"\x00\x01\x01", b"\x01\x00\x00"))]
        for grid in grids:
            assert grid.occupancy == (b"\x00\x01\x01", b"\x01\x00\x00")
        assert (grids[0].n_channels, grids[0].horizon_slots) == (2, 3)

    @pytest.mark.parametrize("cells", [[0, 1], np.zeros(3, dtype=np.uint8),
                                       np.zeros((1, 2, 2), dtype=np.uint8), [[[0], [1]]], 7])
    def test_grid_rejects_other_dimensions(self, cells):
        with pytest.raises(ValueError, match="occupancy must be 2-dimensional"):
            OccupancyGrid(75, cells)

    def test_grid_rejects_non_positive_slot_seconds(self):
        with pytest.raises(ValueError, match="slot_seconds must be positive"):
            OccupancyGrid(0, [[0]])

    def test_grid_rejects_ragged_or_empty_rows(self):
        with pytest.raises(ValueError, match="occupancy rows must all have the same length"):
            OccupancyGrid(75, [[0, 1], [0]])
        with pytest.raises(ValueError, match="occupancy must have at least one row"):
            OccupancyGrid(75, [])

    def test_all_free_row_is_one_interval(self):
        grid = OccupancyGrid(75, np.array([[0] * 10, [1] * 10], dtype=np.uint8))
        free, busy = grid.to_channels("r1", "tv")
        assert free.free_intervals == ((0, 750),)
        assert busy.free_intervals == ()

    def test_alternating_cells_fragment(self):
        grid = OccupancyGrid(75, np.array([[1, 0, 1, 0, 1, 0],
                                           [0, 0, 1, 1, 0, 0]], dtype=np.uint8))
        inner, ends = grid.to_channels("r1", "tv")
        assert inner.free_intervals == ((75, 150), (225, 300), (375, 450))
        assert ends.free_intervals == ((0, 150), (300, 450))

    def test_matches_cell_by_cell_walk(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 30)))
            grid = OccupancyGrid(int(rng.integers(1, 400)),
                                 (rng.random(shape) < rng.random()).astype(np.uint8))
            channels = grid.to_channels("r1", "tv")
            assert [ch.free_intervals for ch in channels] == free_runs_cell_by_cell(grid)


def free_runs_cell_by_cell(grid):
    """Reference: each row's free runs, found by walking its cells one by one."""
    rows = []
    for row in grid.occupancy:
        runs, start = [], None
        for slot, cell in enumerate([*row, 1]):
            if cell == 0 and start is None:
                start = slot
            elif cell == 1 and start is not None:
                runs.append((start * grid.slot_seconds, slot * grid.slot_seconds))
                start = None
        rows.append(tuple(runs))
    return rows


class TestSynthesize:
    def test_extreme_duty_cycles(self):
        assert not any(any(row) for row in synthesize_occupancy(2, 1, 0.0, seed=0).occupancy)
        assert all(all(row) for row in synthesize_occupancy(2, 1, 1.0, seed=0).occupancy)

    def test_daily_pattern_repeats(self):
        grid = synthesize_occupancy(3, 5, 0.5, seed=3)
        per_day = DAY // 75
        day0 = [row[:per_day] for row in grid.occupancy]
        for day in range(1, 5):
            chunk = [row[day * per_day:(day + 1) * per_day] for row in grid.occupancy]
            assert day0 == chunk

    def test_duty_cycle_exact_per_channel(self):
        grid = synthesize_occupancy(4, 1, 0.5, seed=9)
        per_day = DAY // 75
        for row in grid.occupancy:
            assert sum(row) == round(0.5 * per_day)

    def test_deterministic_per_seed(self):
        a = synthesize_occupancy(3, 2, 0.3, seed=42)
        b = synthesize_occupancy(3, 2, 0.3, seed=42)
        c = synthesize_occupancy(3, 2, 0.3, seed=43)
        assert a.occupancy == b.occupancy
        assert a.occupancy != c.occupancy

    def test_day_slice(self):
        grid = synthesize_occupancy(2, 3, 0.5, seed=4)
        day1 = grid.day_slice(1)
        per_day = DAY // 75
        assert day1.horizon_slots == per_day
        assert day1.occupancy == tuple(row[per_day:2 * per_day] for row in grid.occupancy)
        with pytest.raises(ValueError):
            grid.day_slice(3)

    def test_day_slice_refuses_slots_longer_than_a_day(self):
        grid = OccupancyGrid(100_000, np.zeros((2, 3), dtype=np.uint8))
        assert grid.horizon_seconds == 300_000  # usable while it is never day-sliced
        assert len(grid.to_channels("r1", "tv")) == 2
        with pytest.raises(ValueError, match=r"slot_seconds 100000 exceeds a day \(86400 s\)"):
            grid.day_slice(0)

    def test_slots_that_do_not_divide_a_day_are_never_day_sliced(self, tmp_path):
        # a one-slot "day 1" of this grid would be seconds 50,000-100,000, not 86,400-172,800
        grid = OccupancyGrid(50_000, np.zeros((1, 4), dtype=np.uint8))
        path = tmp_path / "grid.csv"
        save_occupancy(grid, str(path))
        assert load_occupancy(str(path)).horizon_seconds == 200_000
        with pytest.raises(ValueError, match=r"slot_seconds 50000 does not divide a day \(86400 s\)"):
            grid.day_slice(1)
        # two synthesized 7-s days would span 172,788 s, not 172,800
        with pytest.raises(ValueError, match=r"slot_seconds must divide a day \(86400\), got 7"):
            synthesize_occupancy(1, 2, 0.5, seed=1, slot_seconds=7)
        assert synthesize_occupancy(1, 2, 0.5, seed=1, slot_seconds=5).horizon_seconds == 2 * DAY


class TestGenerateRequests:
    def test_zero_requests(self):
        assert generate_requests(WorkloadSpec(n_requests=0)) == []

    def test_constructive_invariants(self):
        jobs = generate_requests(WorkloadSpec(n_requests=300, set_kind=1, seed=2))
        assert len(jobs) == 300
        for j in jobs:
            assert 0 < j.duration <= j.deadline - j.arrival
            assert 1_800 <= j.duration <= 7_200
            assert 7_200 <= j.deadline - j.arrival <= 14_400
            assert 0 <= j.arrival and j.deadline <= DAY
            assert j.bid_value > 0

    def test_overlapping_duration_and_window_ranges_raise(self, monkeypatch):
        # durations are never redrawn: they fit their windows only because
        # DURATION_RANGE ends where WINDOW_RANGE starts
        monkeypatch.setattr(workload, "DURATION_RANGE", (7_200, 14_400))
        with pytest.raises(ValueError, match=r"duration must lie in \(0, deadline - arrival\]"):
            generate_requests(WorkloadSpec(n_requests=50, seed=2))

    def test_hot_fraction_within_binomial_band(self):
        spec = WorkloadSpec(n_requests=1000, set_kind=2, hot_fraction=0.8, seed=5)
        jobs = generate_requests(spec)
        hs, he = HOT_WINDOW
        hot = sum(1 for j in jobs if j.arrival < he and j.deadline > hs)
        assert abs(hot / 1000 - 0.8) <= 0.04

    def test_cold_requests_avoid_hot_window_entirely(self):
        spec = WorkloadSpec(n_requests=500, set_kind=2, hot_fraction=0.5, seed=6)
        jobs = generate_requests(spec)
        hs, he = HOT_WINDOW
        for j in jobs:
            intersects = j.arrival < he and j.deadline > hs
            inside_free = j.deadline <= hs or j.arrival >= he
            assert intersects or inside_free

    def test_short_horizon_limits_only_set_2(self):
        # the hot window ends at 79,200 s; set 1 never uses it
        jobs = generate_requests(WorkloadSpec(n_requests=200, set_kind=1, horizon=20_000, seed=4))
        assert len(jobs) == 200
        assert all(0 <= j.arrival and j.deadline <= 20_000 for j in jobs)
        with pytest.raises(ValueError, match="the hot window must lie inside the horizon"):
            WorkloadSpec(n_requests=5, set_kind=2, horizon=20_000)

    def test_deterministic_per_seed(self):
        a = generate_requests(WorkloadSpec(n_requests=50, seed=7))
        b = generate_requests(WorkloadSpec(n_requests=50, seed=7))
        c = generate_requests(WorkloadSpec(n_requests=50, seed=8))
        assert a == b
        assert a != c


class TestRequestCsv:
    def test_roundtrip_exact(self, tmp_path):
        jobs = generate_requests(WorkloadSpec(n_requests=40, set_kind=2, seed=3))
        path = tmp_path / "req.csv"
        save_requests(jobs, str(path))
        assert load_requests(str(path)) == jobs

    def test_blank_line_is_skipped(self, tmp_path):
        jobs = generate_requests(WorkloadSpec(n_requests=3, seed=3))
        path = tmp_path / "req.csv"
        save_requests(jobs, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ["\n"] + lines[2:]))
        assert load_requests(str(path)) == jobs


class TestNumpyStream:
    """The in-repo stream against numpy's ``default_rng``, its reference.

    A failure here with the golden CSVs still passing means numpy's stream
    moved, not the repo's.
    """

    # spans at and around each ``integers`` path: 32-bit Lemire, exactly
    # 2**32 (one raw 32-bit draw) and 64-bit Lemire
    SPANS = (1, 2, 7, 1_000, 5_401, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**33, 2**62,
             2**63 - 200)

    def test_draw_for_draw(self):
        plan = np.random.default_rng(2024)
        for seed in [*range(200), 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**130 + 7]:
            ours, ref = _Pcg64(seed), np.random.default_rng(seed)
            for op in plan.integers(0, 5, size=150).tolist():
                if op == 0:
                    low = int(plan.integers(-100, 100))
                    high = low + self.SPANS[int(plan.integers(0, len(self.SPANS)))]
                    assert ours.integers(low, high) == int(ref.integers(low, high)), seed
                elif op == 1:
                    assert ours.random() == float(ref.random()), seed
                elif op == 2:
                    assert ours.uniform(1.0, 10.0) == float(ref.uniform(1.0, 10.0)), seed
                elif op == 3:
                    # one draw at a time is numpy's ``size=`` fill
                    n, high = int(plan.integers(1, 6)), int(plan.integers(1, 5_000))
                    assert [ours.integers(0, high) for _ in range(n)] == \
                        ref.integers(0, high, size=n).tolist(), seed
                else:
                    # an odd number of 32-bit draws leaves half a 64-bit word buffered
                    assert ours.integers(3, 9) == int(ref.integers(3, 9)), seed

    def test_seed_state_matches_seed_sequence(self):
        for entropy in [0, 1, 2**32, 2**100 + 3, (0, 1, 10, 0), (2**32, 2, 40, 7),
                        (1, 2**64 + 1, 3, 4, 5, 6), (5, 0, 0, 0, 0, 0, 0, 2**33)]:
            assert _seed_state(entropy, 9) == \
                np.random.SeedSequence(entropy).generate_state(9).tolist(), entropy

    def test_trial_seed_matches_seed_sequence(self):
        for entropy in [(0, 1, 8, 0), (1, 2, 25, 19), (2**32, 1, 8, 3), (7, 2, 40, 2**33 + 1),
                        (2**64 - 1, 1, 0, 0)]:
            assert trial_seed(*entropy) == int(
                np.random.SeedSequence(entropy).generate_state(1)[0]), entropy

    def test_refuses_negative_or_empty(self):
        with pytest.raises(ValueError, match="must not be negative"):
            _seed_state((1, -1), 1)
        with pytest.raises(ValueError, match="empty range"):
            _Pcg64(0).integers(5, 5)
