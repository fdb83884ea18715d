"""Determinism: identical configurations produce identical results.

The substrate promises exact reproducibility (DESIGN.md): no wall clock,
seeded RNG, deterministic event tie-breaking, salted ECMP.  These tests
run whole scenarios twice and require bit-identical outputs — the
property every number in EXPERIMENTS.md depends on.
"""

from __future__ import annotations

import pytest

from repro.experiments.largescale import run_fct_point
from repro.experiments.motivation import per_port_victim
from repro.experiments.scale import TINY
from repro.workloads.distributions import PAPER_MIX
from repro.workloads.generator import PoissonFlowGenerator
from repro.sim.rng import make_rng
from repro.store.spec import RunConfig

pytestmark = pytest.mark.slow


class TestDeterminism:
    def test_static_experiment_repeats_exactly(self):
        a = per_port_victim(16.0, 8, config=RunConfig(duration=0.006))
        b = per_port_victim(16.0, 8, config=RunConfig(duration=0.006))
        assert a.queue1_gbps == b.queue1_gbps
        assert a.queue2_gbps == b.queue2_gbps

    def test_fct_point_repeats_exactly(self):
        a = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3)
        b = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3)
        assert a.overall == b.overall
        assert a.small == b.small
        assert a.completed == b.completed

    def test_different_seeds_differ(self):
        a = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=1)
        b = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=2)
        assert a.overall.mean != b.overall.mean

    def test_workload_schedule_is_pure_function_of_seed(self):
        def schedule(seed):
            generator = PoissonFlowGenerator(
                make_rng(seed), list(range(8)), PAPER_MIX, 0.5, 10e9)
            return [(f.src, f.dst, f.size_bytes, f.start_time)
                    for f in generator.generate(n_flows=40)]

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_schemes_see_identical_arrivals(self):
        """Paired comparison: at a fixed seed, two schemes must be offered
        the same flows (sizes, endpoints, times)."""
        rows = [run_fct_point(name, "dwrr", 0.5, TINY, seed=5)
                for name in ("pmsb", "tcn")]
        assert rows[0].n_flows == rows[1].n_flows
