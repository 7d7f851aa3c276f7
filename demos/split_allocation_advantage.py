"""Why split (non-contiguous) allocation matters.

A request for 1.5 hours faces a channel whose free time comes as two
one-hour islands around a primary-user burst.  No contiguous placement
exists, but the split model serves it by spanning the gap.  The brute
force references quantify the difference: the contiguous model's best
welfare collapses to zero while the split model captures the full bid.
"""

from spectrum_auctions import Channel, Job, LocalMarket, segment_timeline, solve_optimal
from spectrum_auctions.oracle import contiguous_optimal

H = 3600

channel = Channel(id=1, region="r1", band_type="tv",
                  free_intervals=((0, H), (2 * H, 3 * H)))
job = Job(id=1, region="r1", band_type="tv", bid_value=7.5,
          arrival=0, deadline=3 * H, duration=int(1.5 * H))
market = LocalMarket(region="r1", band_type="tv", jobs=(job,), channels=(channel,))

timeline = segment_timeline(channel, [job])
cuts, before = timeline.boundaries, timeline.free_before
free = [b - a for a, b in zip(before, before[1:])]  # each slot's free seconds
print("channel slots (hours, free):",
      [(s / H, e / H, f / H) for s, e, f in zip(cuts, cuts[1:], free)])
print(f"request: {job.duration / H}h anywhere in [0h, 3h), bid {job.bid_value}")

solution = solve_optimal(market, 0.0)
print("split allocation (seconds per slot):", solution.allocations[job.id])

contiguous = contiguous_optimal(market)
print(f"\nsplit-allocation welfare:      {solution.welfare}")
print(f"one-block-allocation welfare:  {contiguous}")
print("\nThe gap is unbounded in general: shrink the islands toward the "
      "demand and the one-block model keeps earning zero while the split "
      "model earns the whole bid.")
