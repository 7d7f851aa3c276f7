"""Walk one small local market through both mechanisms, end to end.

Three requests compete for a single channel with four free hours; only
two can be served.  The script shows the segmented timeline, the exact
solver's assignment with pivot payments, the greedy allocator's run with
critical-value payments, and the headline metrics for both.
"""

from spectrum_auctions import (
    AuctionConfig,
    Channel,
    Job,
    LocalMarket,
    run_pvg,
    run_vcg,
    segment_timeline,
    social_efficiency,
    utilization_ratio,
)

H = 3600

channel = Channel(id=1, region="r1", band_type="tv", free_intervals=((0, 4 * H),))
jobs = [
    Job(id=1, region="r1", band_type="tv", bid_value=10.0, arrival=0, deadline=4 * H, duration=2 * H),
    Job(id=2, region="r1", band_type="tv", bid_value=6.0, arrival=0, deadline=4 * H, duration=2 * H),
    Job(id=3, region="r1", band_type="tv", bid_value=4.0, arrival=0, deadline=4 * H, duration=2 * H),
]
market = LocalMarket(region="r1", band_type="tv", jobs=tuple(jobs), channels=(channel,))

print("== the market ==")
for j in jobs:
    print(f"  job {j.id}: bids {j.bid_value:5.2f} for {j.duration / H:.1f}h "
          f"inside [{j.arrival / H:.0f}h, {j.deadline / H:.0f}h)  "
          f"(rate {j.unit_value * H:.2f}/h)")
timeline = segment_timeline(channel, jobs)
cuts, before = timeline.boundaries, timeline.free_before
free = [b - a for a, b in zip(before, before[1:])]  # each slot's free seconds
print(f"  channel 1 slots: {[(s // H, e // H, f // H) for s, e, f in zip(cuts, cuts[1:], free)]}"
      " (start h, end h, free h)")

config = AuctionConfig(eta_s=0.0, xi=0.01)  # beta defaults to 1 + sqrt(2)

print("\n== exact mechanism (welfare-optimal + pivot payments) ==")
vcg_out = run_vcg(market, config)
for j in jobs:
    if j.id in vcg_out.assignment:
        pay = vcg_out.payments[j.id]
        print(f"  job {j.id} wins channel {vcg_out.assignment[j.id]}, "
              f"pays {pay:.2f}, utility {j.bid_value - pay:.2f}")
    else:
        print(f"  job {j.id} loses")
print(f"  social efficiency: {social_efficiency(vcg_out, jobs):.2f}")
print(f"  utilization:       {utilization_ratio(vcg_out, market):.2f}")
print(f"  revenue:           {vcg_out.total_revenue():.2f}")

print("\n== greedy mechanism (rate-ordered, critical-value payments) ==")
pvg_out = run_pvg(market, config)
for j in jobs:
    if j.id in pvg_out.assignment:
        pay = pvg_out.payments[j.id]
        print(f"  job {j.id} wins channel {pvg_out.assignment[j.id]}, "
              f"pays {pay:.2f}, utility {j.bid_value - pay:.2f}")
    else:
        print(f"  job {j.id} loses")
print(f"  social efficiency: {social_efficiency(pvg_out, jobs):.2f}")
print(f"  utilization:       {utilization_ratio(pvg_out, market):.2f}")
print(f"  revenue:           {pvg_out.total_revenue():.2f}")

print("\nBoth mechanisms serve jobs 1 and 2 here; job 3's bid of 4 cannot "
      "displace job 2 (the greedy threshold test compares 4 against "
      "beta * 6), and under the exact mechanism it simply is not part of "
      "any welfare-maximizing assignment.")
