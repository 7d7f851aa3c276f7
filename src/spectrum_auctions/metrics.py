"""Outcome metrics: efficiency, utilization, revenue and their ratios."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .market import AuctionOutcome, Job, LocalMarket, SpectrumAuctionError


class UndefinedRatioError(SpectrumAuctionError):
    """A ratio was requested with a zero denominator."""


def social_efficiency(outcome: AuctionOutcome, jobs: Iterable[Job]) -> float:
    """Sum of the true valuations of the winning jobs."""
    by_id = {j.id: j for j in jobs}
    return sum((by_id[jid].bid_value for jid in sorted(outcome.assignment)), 0.0)


def utilization_ratio(outcomes: AuctionOutcome | Iterable[AuctionOutcome],
                      markets: LocalMarket | Iterable[LocalMarket]) -> float:
    """Allocated seconds over the free (sellable) seconds of all channels.

    Wall-clock time the primary user occupies is unsellable and excluded
    from the denominator.  Returns 0.0 when there is no free time at all.
    """
    if isinstance(outcomes, AuctionOutcome):
        outcomes = [outcomes]
    if isinstance(markets, LocalMarket):
        markets = [markets]
    allocated = sum(o.allocated_seconds() for o in outcomes)
    free = sum(c.free_seconds for m in markets for c in m.channels)
    if free == 0:
        return 0.0
    return allocated / free


def revenue_ratio(payments: Mapping[int, float] | Iterable[float],
                  eff_at_zero_reserve: float) -> float:
    """Total payments over the mechanism's efficiency at zero reserve."""
    if isinstance(payments, Mapping):
        total = sum(payments.values())
    else:
        total = sum(payments)
    if eff_at_zero_reserve == 0:
        raise UndefinedRatioError("revenue ratio undefined: zero-reserve efficiency is 0")
    return total / eff_at_zero_reserve
