"""The benchmark's workloads: which `spectrum-auction sweep` each one runs.

Each workload run clears two sets of markets, each as one real ``sweep``
through the CLI:

* the *panel*: ``panel_trials`` markets per (set, lambda) drawn at the
  fixed master seed ``PANEL_SEED``.  Every run clears the same panel, in
  rounds (see ``worker.run_rounds``), and the gated end-to-end and
  per-module metrics are computed over it.
* the *held-out slice*: ``heldout_trials`` markets per (set, lambda) drawn
  at the run's ``--seed``.  It is output-checked on every run and its
  clearing times are printed apart, so a claim can be checked on markets
  that no change was tuned on.

Why the panel is fixed: market cost varies about 50x between markets of
one workload (exact-hot ran from 87 ms to 5.8 s over 100 markets), and a
run holds only a few dozen markets.  Drawing them from the seed made the
median clearing time spread 15-30 % between seeds (bootstrap over the
measured markets), on top of the host's own speed swings.

Why sweep-reserve's panel is one trial: the sweep clears a (set, lambda)
group's trials back to back, so the lambda=15 clearings that set its
median run in one burst per set and round.  Rounds of one trial (about
3.5 s) repeat those bursts all through a run, so the median samples the
host's speed, which drifts by 10-25 % over seconds, across the whole run
rather than in a few stretches of it.  ``min_rounds`` is the rounds every
run clears whatever the host's speed; the tail percentile is chosen on
them, so it is the same in every run.  Why each workload exists is in
BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

# Master seed of the panel markets (the CLI's own default master seed).
PANEL_SEED = 0
# Default --seed; the held-out slice's golden CSVs are committed for it.
DEFAULT_SEED = 1
# A --seed kept back: use it only to check a claim made on other seeds.
HELDOUT_SEED = 2

# Occupancy grid every workload runs on: synthesize_occupancy(*GRID_ARGS, seed=GRID_SEED).
GRID_ARGS = (3, 1, 0.5)
GRID_SEED = 7
BETA = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    lambdas: tuple[int, ...]
    sets: tuple[int, ...]
    eta_s: tuple[float, ...]
    mechanisms: tuple[str, ...]
    panel_trials: int
    heldout_trials: int
    min_rounds: int = 2

    def sweep_argv(self, grid: str, seed: int, trials: int, out: str) -> list[str]:
        """Arguments of ``spectrum-auction sweep`` for one slice of this workload."""
        return [
            "sweep", "--grid", grid,
            "--lambda-list", ",".join(map(str, self.lambdas)),
            "--sets", ",".join(map(str, self.sets)),
            "--eta-s-list", ",".join(map(repr, self.eta_s)),
            "--mechanisms", ",".join(self.mechanisms),
            "--beta", repr(BETA),
            "--trials", str(trials), "--seed", str(seed),
            "--timing", "--out", out,
        ]

    def clearings(self, trials: int) -> int:
        """Raw result rows (one per clearing) a slice of ``trials`` trials writes."""
        return (len(self.sets) * len(self.lambdas) * len(self.eta_s)
                * trials * len(self.mechanisms))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="exact-hot",
            lambdas=(18,), sets=(2,), eta_s=(0.0,), mechanisms=("vcg",),
            panel_trials=24, heldout_trials=3,
        ),
        Workload(
            name="greedy-contested",
            lambdas=(40,), sets=(2,), eta_s=(0.0,), mechanisms=("pvg",),
            panel_trials=18, heldout_trials=3,
        ),
        Workload(
            name="sweep-reserve",
            lambdas=(8, 15, 25), sets=(1, 2), eta_s=(0.0, 0.0005, 0.001),
            mechanisms=("vcg", "pvg"),
            panel_trials=1, heldout_trials=1, min_rounds=6,
        ),
    )
}
