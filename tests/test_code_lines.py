"""The code-line counter that the ROADMAP Baseline and CI quote.

``tools/code_lines.py`` is a script, not part of the package, so it is
loaded by path.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SNIPPET = '''"""A module docstring
over three
lines."""

# a comment
X = 1


def f():
    """A function docstring."""
    text = """a string that is
    not a docstring"""
    return text
'''


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    return counter


def test_counts_code_but_not_docstrings_comments_or_layout(tmp_path):
    # X = 1, the def line, both lines of the string, and the return
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert load_counter().code_lines(str(path)) == 5


def test_default_run_prints_each_package_module_and_their_sum(capsys):
    assert load_counter().main([]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    counts = {Path(path).name: int(n) for n, path in (row.split() for row in rows)}
    assert sorted(counts) == sorted(p.name for p in (ROOT / "src" / "spectrum_auctions").glob("*.py"))
    assert total.split() == [str(sum(counts.values())), "total"]
