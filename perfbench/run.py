"""Benchmark of the two auction mechanisms, end to end and by module.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  NAME is one of the workloads in
``workloads.py`` or ``all`` (each workload in turn).  Each run starts a
fresh worker process that clears the workload through the real
``spectrum-auction sweep`` entry point with ``--timing``; this process
checks every results CSV and prints the metrics, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics (``END_TO_END``); ``--trace 1``
wraps the package's module-level bindings and reports the per-module
metrics (``tracer.LAYER_METRICS``).  The exit code is 0 only when every
output check passed.  Run files go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import read_rows, row_problems, strip_runtime  # noqa: E402
from stats import beyond, hd_median, median, percentile, tail_percentile  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, Workload  # noqa: E402

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("clearings_per_s", "1/s", "higher"),
    ("clear_ms_p50", "ms", "lower"),
    ("clear_ms_tail", "ms", "lower"),
    ("served_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# Fresh-process set-ups timed besides the worker's own; setup_s is their median.
SETUP_PROBES = 4
# Every run, with its set-up, must end well inside 180 s.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Float slack allowed between a clearing span's duration and its spans' summed self times.
SELF_SUM_TOLERANCE_S = 1e-6
EXPECTED = HERE / "expected"
WORKER = HERE / "worker.py"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine from /proc/stat, where it exists."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


class WorkerError(RuntimeError):
    pass


def call_worker(args: list[str], env: dict, out: Path, deadline: float) -> str:
    """Run worker.py to completion (killed at the deadline); returns its stdout."""
    with open(out / "worker.stderr", "a") as err:
        try:
            done = subprocess.run([sys.executable, str(WORKER), *args, "--out", str(out)],
                                  env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker killed after {exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        tail = (out / "worker.stderr").read_text()[-2000:]
        raise WorkerError(f"worker exited with {done.returncode}:\n{tail}")
    return done.stdout


def check_slice(workload: Workload, sweep: dict, out: Path, golden: Path | None) -> dict:
    """Attempted/served/failed clearings, runtimes and problems of one sweep slice."""
    expected = workload.clearings(sweep["trials"])
    result = {"attempted": expected, "served": 0, "failed": 0, "times": {}, "problems": []}
    if sweep["error"]:
        result["failed"] = expected
        result["problems"].append(f"sweep raised: {sweep['error'].strip().splitlines()[-1]}")
        return result
    text = (out / sweep["csv"]).read_text()
    rows = read_rows(text)
    found = row_problems(rows, expected, sweep["refused"])
    bad = {i for i, _ in found}
    result["problems"] += [f"row {i}: {why}" for i, why in found]
    if golden is not None:
        got = strip_runtime(text).split("\n")
        want = golden.read_text().split("\n")
        if got != want:
            # line 0 is the header, so line i holds row i - 1
            bad |= {i - 1 for i in range(max(len(got), len(want)))
                    if got[i:i + 1] != want[i:i + 1]}
            result["problems"].append(f"differs from {golden.name}")
    raw = [(i, r) for i, r in enumerate(rows) if r["trial"] != "mean"]
    failed_rows = sum(1 for i, _ in raw if i in bad)
    result["failed"] = min(expected, max(failed_rows, 1 if result["problems"] else 0))
    for i, row in raw:
        if row["runtime_ms"] != "" and i not in bad:
            result["served"] += 1
            result["times"].setdefault(row["mech"], []).append(float(row["runtime_ms"]))
    return result


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: int) -> dict:
    workload = WORKLOADS[name]
    out = root / ".perfbench" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(json.loads(call_worker(["setup"], env, out, deadline))["setup_s"])
    call_worker(["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], env, out, deadline)
    worker = json.loads((out / "worker.json").read_text())
    setups.append(worker["setup_s"])
    load_after = os.getloadavg()
    steal = steal_frac(ticks_before, cpu_ticks())

    panel_golden = EXPECTED / f"{name}-panel.csv"
    heldout_golden = EXPECTED / f"{name}-heldout-seed{seed}.csv" if seed == DEFAULT_SEED else None
    panel = [check_slice(workload, p, out, panel_golden) for p in worker["panels"]]
    heldout = [check_slice(workload, worker["heldout"], out, heldout_golden)]
    problems = [f"panel round {k}: {p}" for k, s in enumerate(panel) for p in s["problems"]]
    problems += [f"held-out slice: {p}" for p in heldout[0]["problems"]]
    slices = panel + heldout
    attempted = sum(s["attempted"] for s in slices)
    failed = sum(s["failed"] for s in slices)

    def times(group, mech=None):
        return [t for s in group for m, ts in s["times"].items() if mech in (None, m) for t in ts]

    if trace and worker["layers"]["trace.self_sum_err_s"] > SELF_SUM_TOLERANCE_S:
        problems.append("self times under a clearing do not sum to its duration")
    head = commit(root)
    lines = [f"perfbench {name} seed={seed} trace={trace} rounds={len(panel)} "
             f"commit={head} " + " ".join(f"{k}={v}" for k, v in worker["versions"].items())
             + f" load_before={load_before} load_after={load_after} cpu_steal={steal}"]
    if trace:
        metrics = {n: (worker["layers"][n], u) for n, u, _ in LAYER_METRICS}
        for n, (v, u) in metrics.items():
            lines.append(f"  {n:38s} {v:.6g} {u}")
    else:
        panel_times = times(panel)
        # Too few served clearings only happens when checks failed, and then
        # the run is refused anyway: report 0 rather than crash.
        tail_p = tail_percentile(times(panel[:workload.min_rounds])) or 50
        if not panel_times:
            panel_times = [0.0]
        panel_wall = sum(p["wall_s"] for p in worker["panels"])
        panel_attempted = sum(s["attempted"] for s in panel)
        served = sum(s["served"] for s in panel)
        metrics = {
            "setup_s": (median(setups), "s"),
            "clearings_per_s": (served / panel_wall, "1/s"),
            "clear_ms_p50": (hd_median(panel_times), "ms"),
            "clear_ms_tail": (percentile(panel_times, tail_p), "ms"),
            "served_frac": (served / panel_attempted, "fraction"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }
        counts = {
            "setup_s": f"median of {len(setups)} fresh-process set-ups",
            "clearings_per_s": f"{served} served panel clearings in {panel_wall:.3f} s, "
                               f"{len(panel)} rounds",
            "clear_ms_p50": f"n={served}",
            "clear_ms_tail": f"p{tail_p}, n={served}, {beyond(panel_times, tail_p)} beyond",
            "served_frac": f"{served} of {panel_attempted} panel clearings",
            "peak_rss_mb": "worker process",
        }
        for n, (v, u) in metrics.items():
            lines.append(f"  {n:16s} {v:.6g} {u}  ({counts[n]})")
        for label, group in (("panel", panel), ("held-out", heldout)):
            for mech in workload.mechanisms:
                ts = times(group, mech)
                if ts:
                    p = tail_percentile(ts)
                    tail = f", p{p} {percentile(ts, p):.6g} ms" if p else ""
                    lines.append(f"  {label} {mech}: p50 {hd_median(ts):.6g} ms{tail} (n={len(ts)})")
    lines.append(f"  checked {attempted} clearings, {failed} failed: "
                 + ("all output checks passed" if not problems else "; ".join(problems[:10])))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": head, "versions": worker["versions"],
        "load_before": load_before, "load_after": load_after, "cpu_steal": steal,
        "setups_s": setups,
        "metrics": {n: v for n, (v, _) in metrics.items()}, "problems": problems,
    }
    (out / "run.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "report": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"held-out slice seed (default {DEFAULT_SEED}; keep "
                             f"{HELDOUT_SEED} back for checking claims)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spectrum_auctions" / "cli.py").is_file():
        print("perfbench: no src/spectrum_auctions here; run from the repository root",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(results[name]["report"]), flush=True)

    if len(names) == 1:
        summary = results[names[0]]
        summary = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
