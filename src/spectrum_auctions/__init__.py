"""Truthful auctions for time-flexible, heterogeneous spectrum allocation.

Two mechanisms over the same market model: an exact branch-and-bound
welfare maximizer with pivot payments, and a polynomial-time greedy
allocator with preemption and critical-value payments.  The market
module also scores an outcome by its social efficiency and utilization,
and supporting modules provide a simulation harness with occupancy grids
and synthetic request workloads.  The brute-force references the
tests check against live in ``spectrum_auctions.oracle``, which this
package does not import.
"""

from .market import (
    AuctionConfig,
    AuctionOutcome,
    Channel,
    Job,
    LocalMarket,
    SegmentedTimeline,
    SpectrumAuctionError,
    build_timelines,
    filter_reserve,
    partition_markets,
    segment_timeline,
    set_feasible,
    social_efficiency,
    utilization_ratio,
)
from .pvg import PvgStats, pvg_allocate, rho_bound, run_pvg
from .vcg import SolverSizeError, VcgSolution, run_vcg, solve_optimal, vcg_payments
from .workload import (
    OccupancyFormatError,
    OccupancyGrid,
    WorkloadSpec,
    generate_requests,
    load_occupancy,
    load_requests,
    save_occupancy,
    save_requests,
    synthesize_occupancy,
)

__all__ = [
    "AuctionConfig", "AuctionOutcome", "Channel", "Job", "LocalMarket",
    "SegmentedTimeline", "SpectrumAuctionError",
    "build_timelines", "filter_reserve", "partition_markets", "segment_timeline", "set_feasible",
    "social_efficiency", "utilization_ratio",
    "PvgStats", "pvg_allocate", "rho_bound", "run_pvg",
    "SolverSizeError", "VcgSolution", "run_vcg",
    "solve_optimal", "vcg_payments",
    "OccupancyFormatError", "OccupancyGrid", "WorkloadSpec",
    "generate_requests", "load_occupancy", "load_requests",
    "save_occupancy", "save_requests", "synthesize_occupancy",
]
