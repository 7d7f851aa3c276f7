"""End-to-end CLI checks over temp files."""

from pathlib import Path

import numpy as np
import pytest

from spectrum_auctions import (
    OccupancyGrid,
    load_occupancy,
    load_requests,
    save_occupancy,
    synthesize_occupancy,
)
from spectrum_auctions.cli import main
from spectrum_auctions.experiment import RESULT_COLUMNS


@pytest.fixture
def grid_csv(tmp_path):
    path = tmp_path / "grid.csv"
    assert main(["gen-occupancy", "--channels", "2", "--days", "1",
                 "--duty-cycle", "0.4", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


class TestGenOccupancy:
    def test_writes_loadable_grid(self, grid_csv):
        grid = load_occupancy(grid_csv)
        assert grid.n_channels == 2
        assert grid.horizon_slots == 86_400 // 75

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen-occupancy", "--channels", "3", "--days", "2",
                "--duty-cycle", "0.5", "--seed", "9"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestGenRequests:
    def test_writes_loadable_requests(self, tmp_path):
        path = tmp_path / "req.csv"
        assert main(["gen-requests", "--lambda", "25", "--set", "2",
                     "--delta", "0.8", "--seed", "4", "--out", str(path)]) == 0
        jobs = load_requests(str(path))
        assert len(jobs) == 25


class TestRun:
    def test_with_generated_workload(self, grid_csv, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["sweep", "--grid", grid_csv, "--lambda-list", "4", "--sets", "1",
                     "--beta", "2.0", "--eta-s-list", "0.0", "--trials", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 1 + 2 * 2 + 2  # raw rows + aggregates

    def test_with_request_file(self, grid_csv, tmp_path):
        req = tmp_path / "req.csv"
        main(["gen-requests", "--lambda", "5", "--set", "1", "--seed", "7",
              "--out", str(req)])
        out = tmp_path / "res.csv"
        assert main(["run", "--grid", grid_csv, "--requests", str(req),
                     "--beta", "2.0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        raw = [l for l in lines[1:] if ",mean," not in l]
        assert all(l.startswith("0,5,") for l in raw)  # set=0, lambda=5

    def test_set_1_on_a_grid_shorter_than_the_hot_window(self, tmp_path, capsys):
        grid = tmp_path / "short.csv"  # 40 x 500 s = 20,000 s, the hot window starts at 68,400 s
        save_occupancy(OccupancyGrid(500, np.zeros((2, 40), dtype=np.uint8)), str(grid))
        out = tmp_path / "res.csv"
        assert main(["sweep", "--grid", str(grid), "--lambda-list", "5", "--sets", "1",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 + 2
        TestBadInput.assert_error(capsys, ["sweep", "--grid", str(grid), "--lambda-list", "5",
                                           "--sets", "2", "--out", str(out)],
                                  "the hot window must lie inside the horizon")

    def test_requires_workload_or_requests(self, grid_csv, tmp_path, capsys):
        TestBadInput.assert_error(capsys, ["run", "--grid", grid_csv,
                                           "--out", str(tmp_path / "x.csv")],
                                  "the following arguments are required: --requests")

    def test_requests_and_lambda_together(self, grid_csv, tmp_path, capsys):
        req = tmp_path / "req.csv"
        assert main(["gen-requests", "--lambda", "4", "--out", str(req)]) == 0
        out = tmp_path / "x.csv"
        TestBadInput.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(req),
                                           "--lambda", "5", "--out", str(out)],
                                  "unrecognized arguments: --lambda 5")
        assert not out.exists()


class TestSweep:
    def test_cartesian_rows(self, grid_csv, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["sweep", "--grid", grid_csv, "--lambda-list", "2,4",
                     "--eta-s-list", "0.0,0.001", "--sets", "1",
                     "--mechanisms", "pvg", "--trials", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        # 2 lambdas x 2 etas x 2 trials x 1 mech raw + 4 aggregate rows
        assert len(lines) == 1 + 8 + 4

    def test_byte_identical_reruns(self, grid_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--grid", grid_csv, "--lambda-list", "2,3",
                "--eta-s-list", "0.0,0.001", "--sets", "1,2", "--beta", "2.0",
                "--trials", "2", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGolden:
    """Results CSVs pinned byte for byte; the files are committed outputs."""

    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize("name, argv", [
        ("golden_sweep.csv", ["sweep", "--lambda-list", "8,15,25", "--eta-s-list", "0.0,0.0005",
                              "--sets", "1,2", "--beta", "2.0", "--trials", "2", "--seed", "1"]),
        ("golden_run.csv", ["sweep", "--lambda-list", "15", "--sets", "2", "--eta-s-list", "0.0005",
                            "--trials", "2", "--seed", "3"]),
        # exact rows at lambda 25, where the searches settle the most subtrees at their first leaf
        ("golden_cap25.csv", ["sweep", "--lambda-list", "25", "--sets", "1,2", "--eta-s-list",
                              "0.0,0.001", "--trials", "5", "--seed", "1", "--beta", "2.0",
                              "--vcg-max-jobs", "25"]),
    ])
    def test_matches_committed_csv(self, tmp_path, name, argv):
        grid = tmp_path / "grid.csv"
        save_occupancy(synthesize_occupancy(3, 1, 0.5, seed=7), str(grid))
        out = tmp_path / name
        assert main(argv + ["--grid", str(grid), "--out", str(out)]) == 0
        assert out.read_bytes() == (self.DATA / name).read_bytes()


class TestBadInput:
    """Bad input ends in one error line on stderr and exit code 2."""

    @pytest.fixture
    def request_csv(self, tmp_path):
        path = tmp_path / "req.csv"
        assert main(["gen-requests", "--lambda", "3", "--seed", "7", "--out", str(path)]) == 0
        return path

    @staticmethod
    def assert_error(capsys, argv, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("spectrum-auction: error: ")
        assert "\n" not in err and needle in err

    def test_zero_xi(self, grid_csv, tmp_path, capsys):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3", "--xi", "0",
                                   "--out", str(tmp_path / "x.csv")], "xi")

    def test_day_out_of_range(self, grid_csv, tmp_path, capsys):
        for day in ("3", "-1"):
            self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3",
                                       "--day", day, "--out", str(tmp_path / "x.csv")],
                              f"day {day} out of range")

    def test_day_of_a_grid_with_slots_longer_than_a_day(self, tmp_path, capsys):
        grid = tmp_path / "long-slots.csv"
        save_occupancy(OccupancyGrid(100_000, np.zeros((2, 3), dtype=np.uint8)), str(grid))
        self.assert_error(capsys, ["sweep", "--grid", str(grid), "--lambda-list", "3", "--day", "0",
                                   "--out", str(tmp_path / "x.csv")],
                          "slot_seconds 100000 exceeds a day (86400 s)")

    def test_requests_with_several_trials(self, grid_csv, request_csv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--trials", "4", "--out", str(out)],
                          "unrecognized arguments: --trials 4")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "5"), ("--lambda-list", "5"), ("--set", "2"), ("--sets", "1"),
        ("--trials", "1"), ("--delta", "0.3"), ("--seed", "9"),
    ])
    def test_requests_with_a_generator_flag(self, grid_csv, request_csv, tmp_path, capsys,
                                            flag, value):
        # a request file is one fixed batch, so every sweep-only flag is refused
        out = tmp_path / "x.csv"
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   flag, value, "--out", str(out)],
                          f"unrecognized arguments: {flag} {value}")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--set", "2"), ("sweep", "--eta-s", "0.001"), ("run", "--req", None),
    ])
    def test_flag_prefix_is_refused(self, grid_csv, request_csv, tmp_path, capsys, command, flag,
                                    value):
        # read by prefix, these would be --sets, --eta-s-list and --requests
        value = value or str(request_csv)
        inputs = ["--requests", str(request_csv)] if command == "run" else ["--lambda-list", "3"]
        out = tmp_path / "x.csv"
        self.assert_error(capsys, [command, "--grid", grid_csv, *inputs, flag, value,
                                   "--out", str(out)],
                          f"unrecognized arguments: {flag} {value}")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lambda-list", "3,x"], "argument --lambda-list: '3,x' is not a comma list of integers"),
        (["--lambda-list", "3", "--eta-s-list", "0,y"],
         "argument --eta-s-list: '0,y' is not a comma list of numbers"),
        (["--lambda-list", "3", "--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
    ], ids=["int-list", "float-list", "int"])
    def test_parser_error(self, grid_csv, tmp_path, capsys, flags, message):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, *flags,
                                   "--out", str(tmp_path / "x.csv")], message)

    def test_non_numeric_bid(self, grid_csv, request_csv, tmp_path, capsys):
        lines = request_csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "abc"
        lines[1] = ",".join(cells)
        request_csv.write_text("\n".join(lines) + "\n")
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--out", str(tmp_path / "x.csv")], "abc")

    def test_duplicate_request_id(self, grid_csv, request_csv, tmp_path, capsys):
        lines = request_csv.read_text().splitlines()
        lines[2] = "1" + lines[2][lines[2].index(","):]
        request_csv.write_text("\n".join(lines) + "\n")
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--out", str(tmp_path / "x.csv")], "duplicate job id 1")

    def test_bad_request_cell_names_file_and_line(self, grid_csv, request_csv, tmp_path,
                                                  capsys):
        lines = request_csv.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = "abc"
        lines[2] = ",".join(cells)
        request_csv.write_text("\n".join(lines) + "\n")
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--out", str(tmp_path / "x.csv")],
                          f"{request_csv}, line 3: bid_value 'abc' is not a valid float")

    @pytest.mark.parametrize("bid, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
    def test_non_finite_bid_names_file_and_line(self, grid_csv, request_csv, tmp_path, capsys,
                                                bid, shown):
        lines = request_csv.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = bid
        lines[2] = ",".join(cells)
        request_csv.write_text("\n".join(lines) + "\n")
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--out", str(tmp_path / "x.csv")],
                          f"{request_csv}, line 3: job {cells[0]}: "
                          f"bid_value must be finite and >= 0, got {shown}")

    @pytest.mark.parametrize("flag, value, message", [
        ("--eta-s-list", "nan", "eta_s must be finite and >= 0, got nan"),
        ("--beta", "nan", "beta must be finite and >= 1, got nan"),
        ("--beta", "inf", "beta must be finite and >= 1, got inf"),
        ("--xi", "nan", "xi must be finite and > 0, got nan"),
        ("--xi", "1e-320", "xi 1e-320 gives no finite bid grid"),
        # a finite grid size, but finer than the float spacing at any bid
        ("--xi", "1e-100", "xi 1e-100 gives no finite bid grid"),
        ("--seed", "-1", "master_seed must not be negative, got -1"),
        ("--mechanisms", "foo", "unknown mechanism 'foo'"),
    ])
    def test_non_finite_auction_flag(self, grid_csv, tmp_path, capsys, flag, value, message):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3", flag, value,
                                   "--out", str(tmp_path / "x.csv")], message)

    def test_duplicate_request_id_names_both_lines(self, grid_csv, request_csv, tmp_path,
                                                   capsys):
        lines = request_csv.read_text().splitlines()
        lines[3] = "1" + lines[3][lines[3].index(","):]
        request_csv.write_text("\n".join(lines) + "\n")
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--out", str(tmp_path / "x.csv")],
                          f"{request_csv}, line 4: duplicate job id 1 (first on line 2)")

    @pytest.mark.parametrize("flag, values, name", [
        ("--lambda-list", "3,2,3", "lambdas"),
        ("--eta-s-list", "0.0,0.001,0.0", "eta_s_values"),
        ("--sets", "2,2", "set_kinds"),
        ("--mechanisms", "pvg,pvg", "mechanisms"),
    ])
    def test_duplicate_sweep_value(self, grid_csv, tmp_path, capsys, flag, values, name):
        # a repeated flag overrides the earlier one
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3", flag, values,
                                   "--out", str(tmp_path / "x.csv")],
                          f"duplicate values in {name}")

    @pytest.mark.parametrize("flag, name", [
        ("--lambda-list", "lambdas"),
        ("--eta-s-list", "eta_s_values"),
        ("--sets", "set_kinds"),
        ("--mechanisms", "mechanisms"),
    ])
    def test_empty_sweep_list(self, grid_csv, tmp_path, capsys, flag, name):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3", flag, "",
                                   "--out", str(tmp_path / "x.csv")],
                          f"{name} must not be empty")

    @pytest.mark.parametrize("sets", ["3", "1,3"])
    def test_unknown_set_kind(self, grid_csv, tmp_path, capsys, sets):
        out = tmp_path / "x.csv"
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3", "--sets", sets,
                                   "--out", str(out)], "set_kind must be 1 or 2")
        assert not out.exists()

    def test_zero_trials(self, grid_csv, tmp_path, capsys):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3",
                                   "--trials", "0", "--out", str(tmp_path / "x.csv")],
                          "trials must be at least 1, got 0")

    def test_negative_vcg_max_jobs(self, grid_csv, tmp_path, capsys):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "3",
                                   "--vcg-max-jobs", "-1", "--out", str(tmp_path / "x.csv")],
                          "vcg_max_jobs must not be negative, got -1")

    def test_negative_lambda(self, grid_csv, tmp_path, capsys):
        self.assert_error(capsys, ["sweep", "--grid", grid_csv, "--lambda-list", "-3",
                                   "--out", str(tmp_path / "x.csv")],
                          "lambda must not be negative, got -3")

    @pytest.mark.parametrize("flag, value, message", [
        ("--slot-seconds", "0", "slot_seconds must be positive, got 0"),
        ("--slot-seconds", "-5", "slot_seconds must be positive, got -5"),
        ("--slot-seconds", "86401", "slot_seconds must not exceed a day (86400), got 86401"),
        ("--slot-seconds", "50000", "slot_seconds must divide a day (86400), got 50000"),
        ("--days", "0", "days must be at least 1, got 0"),
        ("--channels", "0", "channels must be at least 1, got 0"),
        ("--seed", "-1", "seed must not be negative, got -1"),
        ("--duty-cycle", "1.5", "duty_cycle must lie in [0, 1]"),
        ("--duty-cycle", "nan", "duty_cycle must lie in [0, 1]"),
    ])
    def test_bad_occupancy_flag(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "grid.csv"
        self.assert_error(capsys, ["gen-occupancy", "--channels", "2", "--days", "1", flag, value,
                                   "--out", str(out)], message)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must not be negative, got -1"),
        ("--lambda", "-1", "n_requests must be >= 0"),
        ("--delta", "0", "hot_fraction must lie in (0, 1]"),
        ("--delta", "1.5", "hot_fraction must lie in (0, 1]"),
        ("--horizon", "3600", "windows cannot exceed the horizon"),
    ])
    def test_bad_request_generator_flag(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "req.csv"
        self.assert_error(capsys, ["gen-requests", "--lambda", "3", flag, value,
                                   "--out", str(out)], message)
        assert not out.exists()

    @pytest.mark.parametrize("line, text, message", [
        (0, "id,region,band,bid_value,arrival,deadline,duration",
         "line 1: expected header 'id,region,band_type,bid_value,arrival,deadline,duration'"),
        (2, "2,r1,tv,1.0,0,7200", "line 3: row has 6 cells, expected 7"),
    ], ids=["wrong-header", "short-row"])
    def test_bad_request_file_names_file_and_line(self, grid_csv, request_csv, tmp_path, capsys,
                                                  line, text, message):
        lines = request_csv.read_text().splitlines()
        lines[line] = text
        request_csv.write_text("\n".join(lines) + "\n")
        self.assert_error(capsys, ["run", "--grid", grid_csv, "--requests", str(request_csv),
                                   "--out", str(tmp_path / "x.csv")], f"{request_csv}, {message}")

    def test_missing_grid_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        self.assert_error(capsys, ["sweep", "--grid", str(missing), "--lambda-list", "3",
                                   "--out", str(tmp_path / "x.csv")], str(missing))

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("slot_seconds,75\n0,1,0\n0,2,0\n", "line 3: cell '2' is not 0 or 1"),
        ("slot_seconds,x\n0,1,0\n", "line 1: slot_seconds 'x' is not an integer"),
        ("slot_seconds,0\n0,1,0\n", "line 1: slot_seconds must be positive"),
        ("slot_seconds,75\n", "line 2: no channel rows"),
    ], ids=["empty", "bad-cell", "non-integer-slot", "zero-slot", "no-rows"])
    def test_bad_grid_file_names_file_and_line(self, tmp_path, capsys, text, message):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        self.assert_error(capsys, ["sweep", "--grid", str(grid), "--lambda-list", "3",
                                   "--out", str(tmp_path / "x.csv")], f"{grid}, {message}")
