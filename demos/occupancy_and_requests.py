"""Synthesize an occupancy grid and request workloads; inspect both.

The grid mimics primary users with stable daily habits: each channel
gets one random daily on/off pattern at a chosen duty cycle, repeated
across days.  Requests come uniformly spread over the day (set 1) or
with 80% of windows touching a hot evening stretch (set 2).
"""

import tempfile
from pathlib import Path

from spectrum_auctions import (
    WorkloadSpec,
    generate_requests,
    load_occupancy,
    save_occupancy,
    save_requests,
    synthesize_occupancy,
)
from spectrum_auctions.workload import HOT_WINDOW

H = 3600

grid = synthesize_occupancy(channels=3, days=5, duty_cycle=0.5, seed=7)
print(f"grid: {grid.n_channels} channels x {grid.horizon_slots} slots of "
      f"{grid.slot_seconds}s = {grid.horizon_seconds / H / 24:.0f} days")
for cid, row in enumerate(grid.occupancy, start=1):
    print(f"  channel {cid}: {100 * row.count(0) / len(row):.0f}% free")

day = grid.day_slice(0)
channels = day.to_channels("r1", "tv")
print("\nday 0 free intervals (hours):")
for ch in channels:
    spans = ", ".join(f"[{s / H:.2f}, {e / H:.2f})" for s, e in ch.free_intervals[:4])
    more = "" if len(ch.free_intervals) <= 4 else f" ... ({len(ch.free_intervals)} total)"
    print(f"  channel {ch.id}: {spans}{more}")

for set_kind in (1, 2):
    spec = WorkloadSpec(n_requests=1000, set_kind=set_kind, seed=11)
    jobs = generate_requests(spec)
    hs, he = HOT_WINDOW
    hot = sum(1 for j in jobs if j.arrival < he and j.deadline > hs)
    hours = sum(j.duration for j in jobs) / H
    print(f"\nset {set_kind}: {len(jobs)} requests, total demand {hours:.0f}h, "
          f"{100 * hot / len(jobs):.1f}% touch the 19:00-22:00 hot window")

with tempfile.TemporaryDirectory(prefix="spectrum-demo-") as tmp:
    out_dir = Path(tmp)
    save_occupancy(grid, str(out_dir / "grid.csv"))
    save_requests(generate_requests(WorkloadSpec(n_requests=25, set_kind=2, seed=3)),
                  str(out_dir / "requests.csv"))
    reloaded = load_occupancy(str(out_dir / "grid.csv"))
    assert reloaded.occupancy == grid.occupancy
print("\ngrid.csv and requests.csv round-trip verified (written to a temporary directory)")
print("Write your own and feed them to the CLI, e.g.:")
print("  spectrum-auction gen-occupancy --channels 3 --seed 7 --out grid.csv")
print("  spectrum-auction gen-requests --lambda 25 --set 2 --seed 3 --out requests.csv")
print("  spectrum-auction run --grid grid.csv --requests requests.csv --day 0 "
      "--beta 2.0 --out results.csv")
