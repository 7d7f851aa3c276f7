"""Repeat the benchmark over seeds and report each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1] [--seconds 30]

Runs ``run.py`` once per seed (first-seed, first-seed + 1, ...), one run
at a time, each in its own process.  Spread is (Q3 - Q1) / median with
the quartiles of ``statistics.quantiles(values, n=4)``.  The summary is
printed and saved to ``.perfbench/steady-NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=200,
        )
        last = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not last["correct"] or last["failed"]:
            print(f"seed {seed}: run failed (exit {done.returncode})", file=sys.stderr)
            return 1
        line = [f"seed {seed}:"]
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)

    summary = {"workload": args.workload, "seeds": seeds, "seconds": args.seconds, "metrics": {}}
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        spread = (q3 - q1) / q2 if q2 else 0.0
        summary["metrics"][name] = {"unit": units[name], "median": q2, "q1": q1, "q3": q3,
                                    "spread": spread, "values": vals}
        print(f"  {name:16s} median {q2:.6g} {units[name]}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {spread:.4f}")
    out = Path.cwd() / ".perfbench" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
