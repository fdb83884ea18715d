"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def small_incast():
    """``run(config=None, **kwargs)``: a 2 ms 1-vs-2 PMSB incast through
    ``run_incast`` — the smallest run that shows which configuration a
    runner resolved (``config`` field vs explicit argument)."""
    from repro.experiments.scenario import (incast_flows, make_scheme,
                                            run_incast)
    from repro.scheduling.dwrr import DwrrScheduler
    from repro.store.spec import RunConfig

    def run(config=None, **kwargs):
        return run_incast(
            make_scheme("pmsb"), lambda: DwrrScheduler(2),
            incast_flows([1, 2]),
            config=(config or RunConfig()).evolve(duration=0.002), **kwargs)

    return run


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: integration tests that run whole scenarios"
    )
