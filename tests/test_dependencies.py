"""The package runs on numpy alone: no scipy module is ever imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
import spectrum_auctions
import spectrum_auctions.cli
from spectrum_auctions import AuctionConfig, Channel, Job, LocalMarket, run_vcg

channel = Channel(1, "r1", "tv", ((0, 8),))
jobs = tuple(Job(i, "r1", "tv", float(i), 0, 8, 4) for i in (1, 2, 3))
outcome = run_vcg(LocalMarket("r1", "tv", jobs, (channel,)), AuctionConfig())
assert outcome.assignment == {2: 1, 3: 1}, outcome.assignment
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_runtime_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
