"""X-AUTOTUNE: cache keys, store contract, match-or-beat guarantee,
and the controller-disabled byte-identity differential."""

from __future__ import annotations

import pytest

from repro.control.controller import ControllerSpec
from repro.experiments import largescale
from repro.experiments.autotune import (CONTROLLER_PERIOD, AutotuneRow,
                                        autotune_point_spec, run_autotune,
                                        run_autotune_point)
from repro.experiments.scale import TINY
from repro.sim.rng import stable_digest
from repro.store import RunConfig, RunStore

pytestmark = pytest.mark.slow

SEED = 7

#: Pre-controller baselines for the TINY FCT point (seed 7, load 0.5,
#: DWRR).  These digests were computed on the tree *before* the control
#: subsystem existed: a run with no controller must stay byte-identical
#: to the pre-controller simulator — the zero-cost guarantee that lets
#: the controller param stay out of disabled runs' cache keys.
PRE_CONTROLLER_DIGESTS = {
    "pmsb": "ddbb9654a17f8086e014985e56adff358ba6c24a7d76e19f996c28a0675f2a2b",
    "per-port":
        "4931b4a474c5e8d65e939307d0f6f0e4f5303a6097bbb3f8ce5bd993373351c8",
}


class TestPointSpec:
    def test_schedule_re_keys_the_point(self):
        a = autotune_point_spec(4.0, 4.0, "dwrr", 0.3, 0.7, TINY, SEED)
        b = autotune_point_spec(4.0, 16.0, "dwrr", 0.3, 0.7, TINY, SEED)
        assert a.key != b.key

    def test_chaos_re_keys_the_point(self):
        calm = autotune_point_spec(4.0, 4.0, "dwrr", 0.3, 0.7, TINY, SEED)
        chaos = autotune_point_spec(4.0, 4.0, "dwrr", 0.3, 0.7, TINY, SEED,
                                    chaos=True)
        assert calm.key != chaos.key

    def test_load_shift_re_keys_the_point(self):
        a = autotune_point_spec(4.0, 4.0, "dwrr", 0.3, 0.7, TINY, SEED)
        b = autotune_point_spec(4.0, 4.0, "dwrr", 0.3, 0.9, TINY, SEED)
        assert a.key != b.key

    def test_period_is_pinned_in_key(self):
        spec = autotune_point_spec(4.0, 4.0, "dwrr", 0.3, 0.7, TINY, SEED)
        assert dict(spec.params)["period"] == CONTROLLER_PERIOD

    def test_distinct_from_fct_sweep_family(self):
        ours = autotune_point_spec(12.0, 12.0, "dwrr", 0.5, 0.5, TINY, SEED)
        fct = largescale.fct_point_spec("pmsb", "dwrr", 0.5, TINY, SEED)
        assert ours.key != fct.key

    def test_disabled_fct_key_carries_no_controller_param(self):
        # Adding the controller layer must not re-key a decade of cached
        # uncontrolled points: the param appears only when a spec is set.
        plain = largescale.fct_point_spec("pmsb", "dwrr", 0.5, TINY, SEED)
        assert "controller" not in dict(plain.params)
        ctl = largescale.fct_point_spec(
            "pmsb", "dwrr", 0.5, TINY, SEED,
            controller=ControllerSpec(name="cem", k0=4.0))
        assert "controller" in dict(ctl.params)
        assert plain.key != ctl.key


class TestControllerDisabledByteIdentity:
    @pytest.mark.parametrize("scheme_name", sorted(PRE_CONTROLLER_DIGESTS))
    def test_disabled_run_matches_pre_controller_tree(self, scheme_name):
        row = largescale.run_fct_point(scheme_name, "dwrr", 0.5, TINY,
                                       seed=SEED)
        assert stable_digest(row.to_payload()) == \
            PRE_CONTROLLER_DIGESTS[scheme_name]

    def test_enabled_run_actually_binds(self):
        # The differential's other half: an aggressive schedule must
        # change the numbers, proving the loop is wired into the run
        # (staged changes commit and move marking decisions).
        stats = {}
        row = largescale.run_fct_point(
            "pmsb", "dwrr", 0.5, TINY, seed=SEED,
            controller=ControllerSpec(name="cem", t1=0.0, k0=2.0, k1=2.0),
            controller_stats_out=stats)
        assert stats["changes_staged"] > 0
        assert stable_digest(row.to_payload()) != \
            PRE_CONTROLLER_DIGESTS["pmsb"]


class TestRow:
    def test_payload_round_trip(self):
        row = run_autotune_point(12.0, 12.0, "dwrr", 0.3, 0.7, TINY,
                                 seed=SEED)
        assert AutotuneRow.from_payload(row.to_payload()) == row
        assert row.static
        assert row.t_shift > 0
        assert row.objective > 0

    def test_audited_point_passes(self):
        # Every threshold change rides set_thresholds, so the auditor's
        # marker-threshold-boundary rule must hold through a whole
        # controlled run (off-diagonal: the controller really retunes).
        row = run_autotune_point(4.0, 24.0, "dwrr", 0.3, 0.7, TINY,
                                 seed=SEED, audit=True)
        assert row.controller["changes_staged"] >= 1


GRID = (4.0, 12.0)


def _autotune(cache_dir, jobs=None, chaos=False):
    return run_autotune(
        grid=GRID, scheduler_name="dwrr", load_lo=0.3, load_hi=0.85,
        profile=TINY, seed=SEED, chaos=chaos, rounds=1, population=2,
        config=RunConfig(jobs=jobs),
        store=str(cache_dir) if cache_dir else None)


class TestRunAutotune:
    def test_tuned_matches_or_beats_static(self, tmp_path):
        report = _autotune(tmp_path / "cache")
        assert report.best_tuned.objective <= report.best_static.objective
        assert report.improvement_percent >= 0.0
        assert report.n_evaluations >= len(GRID)
        assert [row.k0 for row in report.static_rows] == list(GRID)
        assert all(row.static for row in report.static_rows)

    def test_warm_rerun_computes_nothing_and_matches(self, tmp_path):
        cold = _autotune(tmp_path / "cache")
        n_cached = len(RunStore(tmp_path / "cache"))
        assert n_cached == cold.n_evaluations
        warm = _autotune(tmp_path / "cache")
        assert len(RunStore(tmp_path / "cache")) == n_cached
        assert warm.to_payload() == cold.to_payload()

    def test_jobs_invariant(self, tmp_path):
        serial = _autotune(tmp_path / "a", jobs=1)
        parallel = _autotune(tmp_path / "b", jobs=2)
        assert serial.to_payload() == parallel.to_payload()

    def test_chaos_leg_runs_and_keys_apart(self, tmp_path):
        calm = _autotune(tmp_path / "cache")
        chaos = _autotune(tmp_path / "cache", chaos=True)
        # Distinct cache families: the chaos sweep added new entries.
        assert len(RunStore(tmp_path / "cache")) == \
            calm.n_evaluations + chaos.n_evaluations
        assert chaos.best_tuned.objective <= chaos.best_static.objective
