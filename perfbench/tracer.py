"""Spans around the package's module-level bindings, from outside the package.

``Tracer.installed()`` replaces each binding in ``BINDINGS`` with a
wrapper that records a span (name, start, end, parent span, clearing id)
and puts every original back on exit.  A binding is wrapped where it is
looked up: ``vcg.set_feasible`` is the name the exact solver calls, so
wrapping ``market.set_feasible`` alone would see nothing.

A *clearing* span is one ``run_vcg`` or ``run_pvg`` call made by
``run_experiment``; every span under it carries its clearing id.  Spans
live in flat arrays until ``write`` saves them, so a traced run of a
million feasibility checks stays a few tens of MB.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from pathlib import Path

PACKAGE = "spectrum_auctions"

# (module, attribute, span name).  ``experiment.run_vcg``/``run_pvg`` open
# clearing spans.
BINDINGS = (
    ("cli", "load_occupancy", "workload.load_occupancy"),
    ("cli", "run_experiment", "experiment.run_experiment"),
    ("cli", "write_results_csv", "experiment.write_results_csv"),
    ("experiment", "generate_requests", "workload.generate_requests"),
    ("experiment", "run_vcg", "vcg.run_vcg"),
    ("experiment", "run_pvg", "pvg.run_pvg"),
    ("experiment", "_zero_reserve_efficiency", "experiment.zero_reserve"),
    ("experiment", "solve_optimal", "vcg.solve_optimal"),
    ("experiment", "pvg_allocate", "pvg.pvg_allocate"),
    ("experiment", "social_efficiency", "metrics.social_efficiency"),
    ("experiment", "utilization_ratio", "metrics.utilization_ratio"),
    ("vcg", "solve_optimal", "vcg.solve_optimal"),
    ("vcg", "vcg_payments", "vcg.vcg_payments"),
    ("vcg", "build_timelines", "market.build_timelines.vcg"),
    ("vcg", "set_feasible", "market.set_feasible"),
    ("vcg", "window_flow_allocation", "market.window_flow_allocation"),
    ("pvg", "pvg_allocate", "pvg.pvg_allocate"),
    ("pvg", "critical_value", "pvg.critical_value"),
    ("pvg", "build_timelines", "market.build_timelines.pvg"),
    ("pvg", "fits_in_residual", "market.fits_in_residual"),
)
CLEARING_SPANS = ("vcg.run_vcg", "pvg.run_pvg")

# Per-module metrics in report order, with unit and which way is better.
LAYER_METRICS = (
    ("vcg.run_vcg.calls", "count", "lower"),
    ("vcg.run_vcg.s", "s", "lower"),
    ("vcg.solve_optimal.calls", "count", "lower"),
    ("vcg.solve_optimal.self_s", "s", "lower"),
    ("vcg.pivot_solves", "count", "lower"),
    ("vcg.vcg_payments.s", "s", "lower"),
    ("vcg.pivot_share", "fraction", "lower"),
    ("vcg.capped", "count", "lower"),
    ("vcg.capped_jobs_mean", "count", "lower"),
    ("market.set_feasible.calls", "count", "lower"),
    ("market.set_feasible.s", "s", "lower"),
    ("market.set_feasible.true_frac", "fraction", "higher"),
    ("market.window_flow_allocation.calls", "count", "lower"),
    ("market.window_flow_allocation.s", "s", "lower"),
    ("pvg.run_pvg.calls", "count", "lower"),
    ("pvg.run_pvg.s", "s", "lower"),
    ("pvg.pvg_allocate.calls", "count", "lower"),
    ("pvg.pvg_allocate.self_s", "s", "lower"),
    ("pvg.critical_value.calls", "count", "lower"),
    ("pvg.probes_per_winner", "count", "lower"),
    ("pvg.fit_checks", "count", "lower"),
    ("pvg.commits", "count", "lower"),
    ("pvg.preemptions", "count", "lower"),
    ("pvg.readmissions", "count", "lower"),
    ("market.fits_in_residual.calls", "count", "lower"),
    ("market.fits_in_residual.s", "s", "lower"),
    ("market.build_timelines.vcg.calls", "count", "lower"),
    ("market.build_timelines.vcg.s", "s", "lower"),
    ("market.build_timelines.pvg.calls", "count", "lower"),
    ("market.build_timelines.pvg.s", "s", "lower"),
    ("pvg.segment_share", "fraction", "lower"),
    ("experiment.run_experiment.self_s", "s", "lower"),
    ("experiment.zero_reserve.calls", "count", "lower"),
    ("experiment.zero_reserve.s", "s", "lower"),
    ("experiment.write_results_csv.s", "s", "lower"),
    ("workload.generate_requests.s", "s", "lower"),
    ("workload.load_occupancy.s", "s", "lower"),
    ("metrics.s", "s", "lower"),
    ("trace.clearings", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.self_sum_err_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _module(short: str):
    return importlib.import_module(f"{PACKAGE}.{short}")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.clearing = array("i")
        self._stack: list[int] = []
        self._current_clearing = -1
        self._clearings = 0
        self.feasible_true = 0
        self.capped_jobs: list[int] = []
        self.pvg_stats = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.clearing.append(self._current_clearing)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, fn, name: str):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _feasible(self, fn, name: str):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                ok = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.feasible_true += bool(ok)
            return ok

        return traced

    def _clearing_span(self, fn, name: str):
        nid = self._name_id(name)
        vcg = _module("vcg")
        is_pvg = name == "pvg.run_pvg"

        def traced(market, config, *args, **kwargs):
            outer = self._current_clearing
            self._current_clearing = self._clearings
            self._clearings += 1
            if is_pvg:
                kwargs["stats"] = self.pvg_stats
            idx = self._open(nid)
            try:
                return fn(market, config, *args, **kwargs)
            except vcg.SolverSizeError:
                self.capped_jobs.append(len(vcg.filter_reserve(list(market.jobs), config.eta_s)))
                raise
            finally:
                self._close(idx)
                self._current_clearing = outer

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in ``BINDINGS``; restore all of them on exit."""
        if self.pvg_stats is None:
            self.pvg_stats = _module("pvg").PvgStats()
        saved = []
        try:
            for short, attr, span in BINDINGS:
                module = _module(short)
                original = getattr(module, attr)
                if span in CLEARING_SPANS:
                    wrapper = self._clearing_span(original, span)
                elif span == "market.set_feasible":
                    wrapper = self._feasible(original, span)
                else:
                    wrapper = self._span(original, span)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Save every span as ``path`` (.npz: start, end, name, parent, clearing, names).

        ``name`` indexes ``names``; ``parent`` is a span index or -1;
        ``clearing`` is a clearing id or -1 outside clearings.
        """
        import numpy as np

        np.savez_compressed(
            path, start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            clearing=np.frombuffer(self.clearing, dtype=np.int32),
            names=np.array(self.names, dtype=str),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-module totals over every recorded span (see ``LAYER_METRICS``)."""
        import numpy as np

        n = len(self.name)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        clearing = np.frombuffer(self.clearing, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        def mask(span: str):
            nid = self._ids.get(span)
            return name == nid if nid is not None else np.zeros(n, dtype=bool)

        def calls(span: str) -> int:
            return int(mask(span).sum())

        def total(span: str) -> float:
            return float(dur[mask(span)].sum())

        def own(span: str) -> float:
            return float(self_time[mask(span)].sum())

        def under(span: str, parent_span: str) -> int:
            m = mask(span) & has_parent
            pm = mask(parent_span)
            return int(pm[parent[m]].sum())

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        # Self times of a clearing's spans must add up to its duration.
        roots = mask("vcg.run_vcg") | mask("pvg.run_pvg")
        err = 0.0
        if roots.any():
            inside = clearing >= 0
            sums = np.bincount(clearing[inside], weights=self_time[inside])
            root_dur = np.zeros_like(sums)
            root_dur[clearing[roots]] = dur[roots]
            err = float(np.abs(sums - root_dur).max())

        stats = self.pvg_stats
        m = {
            "vcg.run_vcg.calls": calls("vcg.run_vcg"),
            "vcg.run_vcg.s": total("vcg.run_vcg"),
            "vcg.solve_optimal.calls": calls("vcg.solve_optimal"),
            "vcg.solve_optimal.self_s": own("vcg.solve_optimal"),
            "vcg.pivot_solves": under("vcg.solve_optimal", "vcg.vcg_payments"),
            "vcg.vcg_payments.s": total("vcg.vcg_payments"),
            "vcg.pivot_share": ratio(total("vcg.vcg_payments"), total("vcg.run_vcg")),
            "vcg.capped": len(self.capped_jobs),
            "vcg.capped_jobs_mean": ratio(sum(self.capped_jobs), len(self.capped_jobs)),
            "market.set_feasible.calls": calls("market.set_feasible"),
            "market.set_feasible.s": total("market.set_feasible"),
            "market.set_feasible.true_frac": ratio(self.feasible_true,
                                                   calls("market.set_feasible")),
            "market.window_flow_allocation.calls": calls("market.window_flow_allocation"),
            "market.window_flow_allocation.s": total("market.window_flow_allocation"),
            "pvg.run_pvg.calls": calls("pvg.run_pvg"),
            "pvg.run_pvg.s": total("pvg.run_pvg"),
            "pvg.pvg_allocate.calls": calls("pvg.pvg_allocate"),
            "pvg.pvg_allocate.self_s": own("pvg.pvg_allocate"),
            "pvg.critical_value.calls": calls("pvg.critical_value"),
            "pvg.probes_per_winner": ratio(under("pvg.pvg_allocate", "pvg.critical_value"),
                                           calls("pvg.critical_value")),
            "pvg.fit_checks": stats.fit_checks if stats else 0,
            "pvg.commits": stats.commits if stats else 0,
            "pvg.preemptions": stats.preemptions if stats else 0,
            "pvg.readmissions": stats.readmissions if stats else 0,
            "market.fits_in_residual.calls": calls("market.fits_in_residual"),
            "market.fits_in_residual.s": total("market.fits_in_residual"),
            "market.build_timelines.vcg.calls": calls("market.build_timelines.vcg"),
            "market.build_timelines.vcg.s": total("market.build_timelines.vcg"),
            "market.build_timelines.pvg.calls": calls("market.build_timelines.pvg"),
            "market.build_timelines.pvg.s": total("market.build_timelines.pvg"),
            "pvg.segment_share": ratio(total("market.build_timelines.pvg"),
                                       total("pvg.run_pvg")),
            "experiment.run_experiment.self_s": own("experiment.run_experiment"),
            "experiment.zero_reserve.calls": calls("experiment.zero_reserve"),
            "experiment.zero_reserve.s": total("experiment.zero_reserve"),
            "experiment.write_results_csv.s": total("experiment.write_results_csv"),
            "workload.generate_requests.s": total("workload.generate_requests"),
            "workload.load_occupancy.s": total("workload.load_occupancy"),
            "metrics.s": total("metrics.social_efficiency") + total("metrics.utilization_ratio"),
            "trace.clearings": self._clearings,
            "trace.spans": n,
            "trace.self_sum_err_s": err,
        }
        return m

