"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py        (from the repository root)
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
from checks import read_rows, row_problems, strip_runtime  # noqa: E402
from run import END_TO_END  # noqa: E402
from stats import beyond, hd_median, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

def binding_snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded package module, by (module, name)."""
    snap = {}
    for modname, module in list(sys.modules.items()):
        if module is not None and modname.split(".")[0] == tracer.PACKAGE:
            for attr, value in vars(module).items():
                snap[(modname, attr)] = value
    return snap


TINY = Workload(name="tiny", lambdas=(4,), sets=(1,), eta_s=(0.0, 0.001),
                mechanisms=("vcg", "pvg"), panel_trials=1, heldout_trials=1)


class OrderStatistics(unittest.TestCase):
    def test_known_lists(self):
        self.assertEqual(tail_percentile(list(range(1, 101))), 90)
        self.assertAlmostEqual(percentile(list(range(1, 101)), 90), 90.1)
        self.assertEqual(beyond(list(range(1, 101)), 91), 9)
        # 20 samples: p52 sits just under the 11th value, p53 just over it
        self.assertEqual(tail_percentile(list(range(1, 21))), 52)
        self.assertIsNone(tail_percentile(list(range(1, 16))))
        self.assertIsNone(tail_percentile([5.0] * 40))

    def test_hd_median(self):
        self.assertAlmostEqual(hd_median(list(range(1, 21))), 10.5)
        self.assertAlmostEqual(hd_median([7.0] * 9), 7.0)
        self.assertAlmostEqual(hd_median([3.0]), 3.0)
        # at the sample sizes reported, an extreme value carries no weight
        self.assertAlmostEqual(hd_median(list(range(1, 40)) + [1e9]), 20.5)


class OutputChecks(unittest.TestCase):
    CSV = ("set,lambda,eta_s,beta,trial,mech,efficiency,eff_ratio,utilization,revenue,"
           "revenue_ratio,runtime_ms\n"
           "1,4,0.0,2.0,0,vcg,3.0,1.0,0.5,2.0,0.6,12.5\n"
           "1,4,0.0,2.0,0,pvg,2.5,0.8333333333333334,0.4,1.5,0.6,3.25\n")

    def test_strip_runtime(self):
        stripped = strip_runtime(self.CSV).split("\n")
        self.assertTrue(stripped[0].endswith(",revenue_ratio"))
        self.assertEqual(stripped[1], "1,4,0.0,2.0,0,vcg,3.0,1.0,0.5,2.0,0.6")

    def test_invariants(self):
        self.assertEqual(row_problems(read_rows(self.CSV), 2, 0), [])
        broken = self.CSV.replace(",vcg,3.0,1.0,0.5,2.0", ",vcg,3.0,0.9,1.5,4.0")
        reasons = [why for _, why in row_problems(read_rows(broken), 2, 0)]
        self.assertEqual(len(reasons), 3, reasons)


class Bindings(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name)
        self.grid, _ = worker.setup(self.out)

    def tearDown(self):
        self.tmp.cleanup()

    def test_untraced_run_installs_no_wrappers(self):
        tracer_calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == tracer.__file__:
                tracer_calls.append(frame.f_code.co_name)

        before = binding_snapshot()
        sys.setprofile(profile)
        try:
            slices = worker.run_rounds(TINY, self.grid, 1, 0, self.out)
        finally:
            sys.setprofile(None)
        self.assertEqual(len(slices["panels"]), TINY.min_rounds)
        self.assertIsNone(slices["panels"][0]["error"])
        self.assertEqual(tracer_calls, [])
        self.assertEqual(binding_snapshot().keys(), before.keys())
        for key, value in binding_snapshot().items():
            self.assertIs(value, before[key], key)

    def test_traced_run_restores_every_binding(self):
        before = binding_snapshot()
        slices, layers = worker.run_traced(TINY, self.grid, 1, self.out)
        after = binding_snapshot()
        self.assertEqual(after.keys(), before.keys())
        for key, value in after.items():
            self.assertIs(value, before[key], key)
        self.assertIsNone(slices["panels"][1]["error"])
        self.assertEqual(layers["trace.clearings"], TINY.clearings(1) * TINY.min_rounds)
        self.assertGreater(layers["market.set_feasible.calls"], 0)
        self.assertGreater(layers["pvg.critical_value.calls"], 0)
        self.assertLess(layers["trace.self_sum_err_s"], 1e-9)
        self.assertEqual({n for n, _, _ in tracer.LAYER_METRICS}, set(layers))
        self.assertTrue((self.out / "spans.npz").is_file())


class BenchmarkFile(unittest.TestCase):
    def test_names_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracer.LAYER_METRICS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(END_TO_END))


if __name__ == "__main__":
    unittest.main()
