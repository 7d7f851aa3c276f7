"""Regenerate the committed expected CSVs in perfbench/expected/.

    PYTHONPATH=src python3 perfbench/make_expected.py [WORKLOAD ...]

Writes, per workload, the panel CSV and the held-out CSV at the default
seed, both without ``runtime_ms``.  Only a change that moves the
mechanisms' outputs on purpose should rerun this, and say why.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import strip_runtime  # noqa: E402
from workloads import DEFAULT_SEED, GRID_ARGS, GRID_SEED, PANEL_SEED, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    from spectrum_auctions import cli, save_occupancy, synthesize_occupancy

    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        grid = str(Path(tmp) / "grid.csv")
        save_occupancy(synthesize_occupancy(*GRID_ARGS, seed=GRID_SEED), grid)
        for name in names or list(WORKLOADS):
            w = WORKLOADS[name]
            for label, seed, trials in (("panel", PANEL_SEED, w.panel_trials),
                                        (f"heldout-seed{DEFAULT_SEED}", DEFAULT_SEED,
                                         w.heldout_trials)):
                out = Path(tmp) / "out.csv"
                if cli.main(w.sweep_argv(grid, seed, trials, str(out))) != 0:
                    return 1
                (expected / f"{name}-{label}.csv").write_text(strip_runtime(out.read_text()))
                print(f"wrote expected/{name}-{label}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
