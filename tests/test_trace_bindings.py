"""The benchmark tracer wraps package names that must keep existing.

``perfbench/tracer.py`` replaces module-level bindings by name; a rename
in the package would make a traced benchmark run fail with
AttributeError, so the names are checked here.  The tracer imports only
the standard library at module level, so it is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_exists():
    tracer = load_tracer()
    assert tracer.BINDINGS
    for short, attr, _ in tracer.BINDINGS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        assert callable(getattr(module, attr, None)), f"{short}.{attr}"


def test_names_the_tracer_reads_directly_exist():
    tracer = load_tracer()
    pvg = importlib.import_module(f"{tracer.PACKAGE}.pvg")
    vcg = importlib.import_module(f"{tracer.PACKAGE}.vcg")
    stats = pvg.PvgStats()
    for counter in ("fit_checks", "commits", "preemptions", "readmissions"):
        assert getattr(stats, counter) == 0
    assert issubclass(vcg.SolverSizeError, Exception)
    assert callable(vcg.filter_reserve)
