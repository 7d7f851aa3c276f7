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


def test_traced_clearings_time_the_pricing_bindings():
    """A clearing run through the wrapped names shows up in the pricing metrics.

    The mechanisms must keep solving, pricing, deciding channel sets and
    checking readmissions through the module-level names the tracer wraps,
    or these metrics silently read 0.
    """
    tracer = load_tracer()
    package = importlib.import_module(tracer.PACKAGE)
    experiment = importlib.import_module(f"{tracer.PACKAGE}.experiment")
    hours = 3600
    channel = package.Channel(1, "r1", "tv", ((0, 4 * hours),))
    jobs = tuple(package.Job(i + 1, "r1", "tv", v, 0, 4 * hours, 2 * hours)
                 for i, v in enumerate([10.0, 6.0, 4.0]))
    market = package.LocalMarket("r1", "tv", jobs, (channel,))
    # the long job evicts the short one, which case 3 readmits after it
    wide = package.Channel(1, "r1", "tv", ((0, 8 * hours),))
    readmitting = package.LocalMarket("r1", "tv", (
        package.Job(1, "r1", "tv", 10.0, 0, 8 * hours, 2 * hours),
        package.Job(2, "r1", "tv", 21.0, 0, 6 * hours, 6 * hours),
    ), (wide,))
    config = package.AuctionConfig(beta=2.0)
    with tracer.Tracer().installed() as traced:
        assert experiment.run_vcg(market, config).assignment
        assert experiment.run_pvg(market, config).assignment
        assert len(experiment.run_pvg(readmitting, config).assignment) == 2
    metrics = traced.layer_metrics()
    for name in ("vcg.solve_optimal.calls", "vcg.vcg_payments.s", "pvg.critical_value.calls",
                 "market.set_feasible.calls", "market.window_flow_allocation.calls",
                 "market.build_timelines.pvg.calls", "pvg.readmissions",
                 "market.fits_in_residual.calls"):
        assert metrics[name] > 0, name
