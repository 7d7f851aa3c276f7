"""Outcome metrics: social efficiency and channel utilization."""

from __future__ import annotations

from collections.abc import Iterable

from .market import AuctionOutcome, Job, LocalMarket, winner_welfare


def social_efficiency(outcome: AuctionOutcome, jobs: Iterable[Job]) -> float:
    """Sum of the true valuations of the winning jobs."""
    return winner_welfare({j.id: j.bid_value for j in jobs}, outcome.assignment)


def utilization_ratio(outcome: AuctionOutcome, market: LocalMarket) -> float:
    """Allocated seconds over the free (sellable) seconds of the market's channels.

    Wall-clock time the primary user occupies is unsellable and excluded
    from the denominator.  Returns 0.0 when there is no free time at all.
    """
    free = sum(c.free_seconds for c in market.channels)
    if free == 0:
        return 0.0
    return outcome.allocated_seconds() / free
