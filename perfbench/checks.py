"""Output checks on a sweep's results CSV.

``strip_runtime`` drops the ``runtime_ms`` column, the only one that
changes between identical runs; the rest must match a committed golden
file byte for byte where one exists.  Every row must also meet the
mechanisms' invariants (``row_problems``), at any seed.
"""

from __future__ import annotations

import csv
import io

RUNTIME = "runtime_ms"
# Slack for float sums taken in different orders.
REL_EPS = 1e-9


def strip_runtime(text: str) -> str:
    """The CSV with its ``runtime_ms`` column removed, line endings kept."""
    lines = text.split("\n")
    drop = lines[0].split(",").index(RUNTIME)
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[:drop] + cells[drop + 1:]) if line else line)
    return "\n".join(out)


def rho_bound(beta: float) -> float:
    """The greedy's efficiency-loss factor 2(beta+1)/(1-1/beta) from the paper.

    Kept apart from ``spectrum_auctions.pvg.rho_bound`` so the check does not
    lean on the code it checks.
    """
    return 2.0 * (beta + 1.0) / (1.0 - 1.0 / beta)


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def row_problems(rows: list[dict], expected_raw: int, refused: int) -> list[tuple[int, str]]:
    """(row index, reason) for every row that breaks an invariant.

    Raw rows (one per clearing) come first, then one ``mean`` row per
    (set, lambda, eta_s, mech).  A blank ``vcg`` row is a cap refusal;
    there must be exactly ``refused`` of them and no blank ``pvg`` row.
    """
    problems = []
    raw = [r for r in rows if r["trial"] != "mean"]
    if len(raw) != expected_raw:
        problems.append((-1, f"{len(raw)} clearings written, {expected_raw} expected"))
    blank = 0
    for i, row in enumerate(rows):
        eff = _num(row["efficiency"])
        if eff is None:
            if row["trial"] != "mean":
                blank += 1
                if row["mech"] != "vcg":
                    problems.append((i, f"blank {row['mech']} row"))
            continue
        ratio = _num(row["eff_ratio"])
        util = _num(row["utilization"])
        revenue = _num(row["revenue"])
        if row["mech"] == "vcg" and ratio != 1.0:
            problems.append((i, f"vcg eff_ratio {ratio} != 1"))
        if row["mech"] == "pvg" and ratio is not None:
            floor = 1.0 / rho_bound(float(row["beta"]))
            if not floor - REL_EPS <= ratio <= 1.0 + REL_EPS:
                problems.append((i, f"pvg eff_ratio {ratio} outside [{floor}, 1]"))
        if revenue is None or revenue > eff + REL_EPS * abs(eff):
            problems.append((i, f"revenue {revenue} > efficiency {eff}"))
        if util is None or not 0.0 <= util <= 1.0:
            problems.append((i, f"utilization {util} outside [0, 1]"))
    if blank != refused:
        problems.append((-1, f"{blank} blank rows but {refused} 'vcg skipped' warnings"))
    return problems
