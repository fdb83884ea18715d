"""Spec identity: canonical hashing, key stability, RunConfig plumbing."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments.largescale import fct_point_spec
from repro.experiments.scale import BENCH, TINY
from repro.sim.rng import stable_digest
from repro.store import ExperimentSpec, RunConfig


class TestStableDigest:
    def test_dict_order_irrelevant(self):
        assert (stable_digest({"a": 1, "b": 2})
                == stable_digest({"b": 2, "a": 1}))

    def test_tuples_and_lists_equal(self):
        assert stable_digest((1, 2, 3)) == stable_digest([1, 2, 3])

    def test_distinct_values_distinct_digests(self):
        assert stable_digest({"x": 1}) != stable_digest({"x": 2})

    def test_rejects_non_canonical_types(self):
        with pytest.raises(TypeError):
            stable_digest(object())


class TestSpecKey:
    def test_same_spec_same_key(self):
        a = fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1)
        b = fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1)
        assert a == b
        assert a.key() == b.key()

    def test_any_identity_field_changes_key(self):
        base = fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1)
        variants = [
            fct_point_spec("tcn", "dwrr", 0.5, TINY, seed=1),
            fct_point_spec("pmsb", "wfq", 0.5, TINY, seed=1),
            fct_point_spec("pmsb", "dwrr", 0.7, TINY, seed=1),
            fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=2),
            fct_point_spec("pmsb", "dwrr", 0.5, BENCH, seed=1),
            fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1, audit=True),
            fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1,
                           topology="fat-tree"),
        ]
        keys = {spec.key() for spec in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_execution_mechanics_do_not_change_key(self):
        # jobs and the sweep's load *set* are how the sweep was
        # launched, not what one point simulated — resume must work at
        # any --jobs level and across --loads overrides.
        base = fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1)
        relaunched = fct_point_spec(
            "pmsb", "dwrr", 0.5,
            replace(TINY, jobs=8, loads=(0.1, 0.9)), seed=1)
        assert base.key() == relaunched.key()

    def test_key_stable_across_processes(self):
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1)
        script = (
            "from repro.experiments.largescale import fct_point_spec\n"
            "from repro.experiments.scale import TINY\n"
            "print(fct_point_spec('pmsb', 'dwrr', 0.5, TINY, seed=1)"
            ".key())\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == spec.key()

    def test_canonical_round_trip(self):
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, seed=1)
        import json
        rebuilt = ExperimentSpec.from_canonical(
            json.loads(json.dumps(spec.canonical())))
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()


class TestRunConfig:
    def test_evolve(self):
        config = RunConfig(duration=0.01)
        assert config.evolve(seed=7) == RunConfig(duration=0.01, seed=7)
        assert config.duration == 0.01  # frozen original untouched
