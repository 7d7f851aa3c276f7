"""One workload run in a fresh process; started by run.py.

    python3 perfbench/worker.py setup --out DIR
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S --trace 0|1 --out DIR

``setup`` times package import plus building the occupancy grid file and
prints ``{"setup_s": ...}``.  ``run`` does the same set-up, then clears
the workload through ``spectrum_auctions.cli.main`` and writes
``DIR/worker.json``; run.py checks the CSVs and computes the metrics.
Import time is part of set-up, so this file imports the package only
inside ``setup()``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import GRID_ARGS, GRID_SEED, PANEL_SEED, WORKLOADS, Workload  # noqa: E402


def setup(out: Path) -> tuple[str, float]:
    """Import the package and write the grid file; returns (grid path, seconds taken)."""
    t0 = time.perf_counter()
    import spectrum_auctions.cli  # noqa: F401
    from spectrum_auctions import save_occupancy, synthesize_occupancy

    grid = out / "grid.csv"
    save_occupancy(synthesize_occupancy(*GRID_ARGS, seed=GRID_SEED), str(grid))
    return str(grid), time.perf_counter() - t0


class _RefusalCounter(logging.Handler):
    """Counts the sweep's ``vcg skipped`` warnings (exact-solver cap refusals)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("vcg skipped"):
            self.count += 1


def sweep(workload: Workload, grid: str, seed: int, trials: int, csv_path: Path) -> dict:
    """One ``spectrum-auction sweep`` through the CLI entry point, timed."""
    from spectrum_auctions import cli

    counter = _RefusalCounter()
    logger = logging.getLogger("spectrum_auctions.experiment")
    logger.addHandler(counter)
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(workload.sweep_argv(grid, seed, trials, str(csv_path)))
        if code != 0:
            error = f"sweep exited with {code}"
    except Exception:  # a raising clearing is a failed slice, reported by run.py
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        wall = time.perf_counter() - start
        logger.removeHandler(counter)
    return {"csv": csv_path.name, "seed": seed, "trials": trials, "wall_s": wall,
            "refused": counter.count, "error": error}


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def run_rounds(workload: Workload, grid: str, seed: int, seconds: float, out: Path) -> dict:
    """The held-out slice once, then panel rounds: ``min_rounds``, and more while they fit ``seconds``.

    Every round clears the same panel, so the pooled clearings weigh each
    panel market equally whatever the number of rounds.
    """
    heldout = sweep(workload, grid, seed, workload.heldout_trials, out / "heldout.csv")
    panels = []
    start = time.perf_counter()
    while True:
        panels.append(sweep(workload, grid, PANEL_SEED, workload.panel_trials,
                            out / f"panel-{len(panels)}.csv"))
        elapsed = time.perf_counter() - start
        if panels[-1]["error"] or (len(panels) >= workload.min_rounds
                                   and elapsed * (len(panels) + 1) / len(panels) > seconds):
            return {"heldout": heldout, "panels": panels}


def run_traced(workload: Workload, grid: str, seed: int, out: Path) -> tuple[dict, dict]:
    """The held-out slice, then ``min_rounds`` pairs of panel rounds, untraced then traced.

    The traced rounds give the per-module metrics; their wall time minus
    the untraced rounds' is the tracing overhead.  Alternating the two
    spreads the host's speed drift over both sides of that difference.
    """
    from tracer import Tracer

    heldout = sweep(workload, grid, seed, workload.heldout_trials, out / "heldout.csv")
    tracer = Tracer()
    panels = []
    for _ in range(workload.min_rounds):
        panels.append(sweep(workload, grid, PANEL_SEED, workload.panel_trials,
                            out / f"panel-{len(panels)}.csv"))
        with tracer.installed():
            panels.append(sweep(workload, grid, PANEL_SEED, workload.panel_trials,
                                out / f"panel-{len(panels)}.csv"))
    tracer.write(out / "spans.npz")
    layers = tracer.layer_metrics()
    plain_s = sum(p["wall_s"] for p in panels[0::2])
    layers["trace.overhead_s"] = sum(p["wall_s"] for p in panels[1::2]) - plain_s
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain_s
    return {"heldout": heldout, "panels": panels}, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = Path(args.out)

    grid, setup_s = setup(out)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = WORKLOADS[args.workload]
    layers = None
    if args.trace:
        slices, layers = run_traced(workload, grid, args.seed, out)
    else:
        slices = run_rounds(workload, grid, args.seed, args.seconds, out)
    result = {
        "setup_s": setup_s,
        **slices,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    (out / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
