"""Metamorphic relations: transformed markets whose outcomes follow from the original's.

Each relation clears a seeded random market and its transform (the
transforms live in ``conftest.py``) with both mechanisms and checks the
outcomes against each other, so it needs no reference solver.  Bids,
reserves and ``xi`` are dyadic, so every relation holds bit for bit.
``TestAllocation::test_readmission_reaches_across_time_components`` in
``test_pvg.py`` is the greedy's known exception to clearing time
components apart.
"""

import math
from dataclasses import replace

import pytest

from spectrum_auctions import AuctionConfig, run_pvg, run_vcg

from conftest import (random_market, random_reserve, relabelled, scaled, shifted,
                      split_intervals, time_component_markets, with_unreachable_channel)

BETAS = (1.5, 2.0, 1.0 + math.sqrt(2.0), 3.0)
MARKETS = 150


def draws(rng):
    """Seeded (market, config) pairs: up to 7 jobs and 3 channels."""
    for _ in range(MARKETS):
        m = random_market(rng, max_jobs=7, max_channels=3)
        yield m, AuctionConfig(beta=rng.choice(BETAS), eta_s=random_reserve(rng), xi=0.25)


@pytest.mark.parametrize("run", [run_vcg, run_pvg], ids=["vcg", "pvg"])
class TestMetamorphicRelations:
    def test_shifting_time_changes_nothing(self, run, rng):
        for m, config in draws(rng):
            base, moved = run(m, config), run(shifted(m, 1000), config)
            assert moved.assignment == base.assignment, (m, config)
            assert moved.allocations == base.allocations, (m, config)
            assert moved.payments == base.payments, (m, config)

    def test_scaling_bids_scales_payments_exactly(self, run, rng):
        for m, config in draws(rng):
            base = run(m, config)
            for k in (30, -30, 34, -34, 40, -40):
                f = 2.0 ** k
                out = run(scaled(m, f), replace(config, eta_s=config.eta_s * f, xi=config.xi * f))
                assert out.assignment == base.assignment, (m, config, k)
                assert out.payments == {j: p * f for j, p in base.payments.items()}, (m, config, k)

    def test_relabelling_ids_relabels_the_outcome(self, run, rng):
        job_id, channel_id = (lambda j: 3 * j + 7), (lambda c: 5 * c + 2)
        for m, config in draws(rng):
            base, out = run(m, config), run(relabelled(m, job_id, channel_id), config)
            assert out.assignment == {job_id(j): channel_id(c)
                                      for j, c in base.assignment.items()}, (m, config)
            assert out.allocations == {job_id(j): a
                                       for j, a in base.allocations.items()}, (m, config)
            assert out.payments == {job_id(j): p for j, p in base.payments.items()}, (m, config)

    def test_splitting_free_intervals_changes_nothing(self, run, rng):
        for m, config in draws(rng):
            base, out = run(m, config), run(split_intervals(m), config)
            assert out.assignment == base.assignment, (m, config)
            assert out.payments == base.payments, (m, config)

    def test_an_unreachable_channel_changes_nothing(self, run, rng):
        for m, config in draws(rng):
            base, out = run(m, config), run(with_unreachable_channel(m), config)
            assert (out.assignment, out.allocations, out.payments) == (
                base.assignment, base.allocations, base.payments), (m, config)

    def test_time_components_clear_apart(self, run, rng):
        split = 0
        for m, config in draws(rng):
            base = run(m, config)
            parts = [run(part, config) for part in time_component_markets(m)]
            split += len(parts) > 1
            assert {j: c for out in parts for j, c in out.assignment.items()} == base.assignment, (
                m, config)
            assert {j: p for out in parts for j, p in out.payments.items()} == base.payments, (
                m, config)
        assert split
