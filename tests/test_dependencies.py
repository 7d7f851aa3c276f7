"""The package runs on the standard library alone: no numpy or scipy module is ever imported."""

import os
import subprocess
import sys
from pathlib import Path

from spectrum_auctions.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

SWEEP = ["sweep", "--lambda-list", "8", "--sets", "1,2", "--trials", "3"]

PROBE = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import spectrum_auctions
import spectrum_auctions.cli
from spectrum_auctions import AuctionConfig, Channel, Job, LocalMarket, run_vcg

channel = Channel(1, "r1", "tv", ((0, 8),))
jobs = tuple(Job(i, "r1", "tv", float(i), 0, 8, 4) for i in (1, 2, 3))
outcome = run_vcg(LocalMarket("r1", "tv", jobs, (channel,)), AuctionConfig())
assert outcome.assignment == {2: 1, 3: 1}, outcome.assignment
grid, out, sweep = sys.argv[1], sys.argv[2], sys.argv[3:]
assert spectrum_auctions.cli.main(["gen-occupancy", "--channels", "2", "--days", "1",
                                   "--out", grid]) == 0
assert spectrum_auctions.cli.main([*sweep, "--grid", grid, "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")
                and sys.modules[m] is not None)
assert not loaded, loaded
assert "spectrum_auctions.oracle" not in sys.modules, "the test-only oracle was loaded"
"""


def test_runtime_imports_no_numpy_scipy_or_oracle(tmp_path):
    """The probe makes any numpy import fail, then draws, clears and writes.

    Nor does it load the test-only ``spectrum_auctions.oracle``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    grid, out = tmp_path / "grid.csv", tmp_path / "probe.csv"
    done = subprocess.run([sys.executable, "-c", PROBE, str(grid), str(out), *SWEEP], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    here = tmp_path / "here.csv"
    assert main([*SWEEP, "--grid", str(grid), "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()
