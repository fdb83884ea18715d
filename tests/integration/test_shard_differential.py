"""Differential determinism: sharded vs. single-process execution.

Sharding (``--shards N``) is an executor choice — the same module-level
scenario builder runs in-process, on the serial shard executor or on
forked shard processes — so it must never change *what* a scenario
computes beyond a measured envelope:

* the serial and the process executor agree byte for byte, always;
* FCT rows against single-process: ``n_flows`` / ``completed`` and the
  per-class flow counts equal, the overall mean within 2 % and every
  per-class mean within 10 % on every seed and profile (measured worst
  case: BENCH seed 2, overall -1.5 %, small flows -5.4 %; from the first
  reordered event on the two runs follow different, equally valid
  trajectories — 71 of its 120 flows finish at a different time), and
  equal outright where that is known to hold (``EXACT`` below; the
  likely trigger is an arrival imported at a round barrier swapping
  with a local event it ties on the timestamp — ROADMAP robustness
  (i));
* synchronized-start scenarios (incast) tie at t=0 by construction and
  are allowed ~5 % on per-queue throughput.

The second half pins behaviour the merged runners must keep: what the
sharded twins used to get wrong (warm-up window, fabric validation,
custom size distributions) now comes from the one code path.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from repro.experiments.largescale import (
    fct_row,
    fct_scenario,
    resolve_fct_topology,
    run_fct_point,
)
from repro.experiments.scale import BENCH, TINY
from repro.experiments.scenario import incast_flows, make_scheme, run_incast
from repro.net.packet import POOL, set_pooling
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.faults import FaultSpec
from repro.sim.shard import ShardedSimulator
from repro.store.spec import RunConfig
from repro.workloads.distributions import PAPER_MIX

pytestmark = pytest.mark.slow

PROFILES = {"tiny": TINY, "bench": BENCH}

#: (profile, seed) cases where the 2-shard PMSB/DWRR row equals the
#: single-process one field for field.  Found by measurement, not by
#: argument: shrink the set if a change to event ordering moves a case
#: out of it, and only grow it with a fix that explains why.
EXACT = {("tiny", 2), ("tiny", 3)}


@pytest.fixture(autouse=True)
def _restore_pooling():
    baseline = POOL.enabled
    yield
    set_pooling(baseline)


def _fct_row(scheme, scheduler, shards, profile=TINY, seed=3, **kw):
    config = RunConfig(shards=shards if shards > 1 else None,
                       audit=kw.pop("audit", None))
    row = run_fct_point(scheme, scheduler, 0.5, profile, seed=seed,
                        config=config, **kw)
    return dataclasses.asdict(row)


def _serial_fct_row(profile=TINY, seed=3):
    """The 2-shard row from the serial reference executor, driven with
    the same module-level builder ``run_fct_point`` hands to
    ``execute``."""
    builder = partial(fct_scenario, scheme_name="pmsb",
                      scheduler_name="dwrr", load=0.5, profile=profile,
                      seed=seed, topo=resolve_fct_topology(None))
    results = ShardedSimulator(2, builder, executor="serial").run()
    return dataclasses.asdict(fct_row(results))


class TestFctByteIdentity:
    @pytest.mark.parametrize("scheme,scheduler", [
        ("pmsb", "dwrr"),
        ("pmsb", "wfq"),
        ("mq-ecn", "dwrr"),
        ("tcn", "wrr"),
        ("per-port", "dwrr"),
    ])
    def test_two_shards_match_single_process(self, scheme, scheduler):
        assert _fct_row(scheme, scheduler, 1) == _fct_row(
            scheme, scheduler, 2)

    def test_audited_run_matches(self):
        assert _fct_row("pmsb", "dwrr", 1, audit=True) == _fct_row(
            "pmsb", "dwrr", 2, audit=True)

    def test_slow_path_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        set_pooling(False)
        assert _fct_row("pmsb", "dwrr", 1) == _fct_row("pmsb", "dwrr", 2)

    def test_serial_executor_matches(self):
        assert _fct_row("pmsb", "dwrr", 1) == _serial_fct_row()


class TestFctEnvelope:
    """Seeds {1, 2, 3} × {TINY, BENCH}: what sharding may and may not
    move."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("profile_name", ["tiny", "bench"])
    def test_seed_and_profile(self, profile_name, seed):
        profile = PROFILES[profile_name]
        base = _fct_row("pmsb", "dwrr", 1, profile, seed)
        sharded = _fct_row("pmsb", "dwrr", 2, profile, seed)
        # Executors never disagree with each other.
        assert sharded == _serial_fct_row(profile, seed)
        assert sharded["n_flows"] == base["n_flows"]
        assert sharded["completed"] == base["completed"]
        for size_class in ("overall", "small", "medium", "large"):
            if base[size_class] is None:
                assert sharded[size_class] is None
                continue
            assert sharded[size_class]["count"] == base[size_class]["count"]
            assert sharded[size_class]["mean"] == pytest.approx(
                base[size_class]["mean"],
                rel=0.02 if size_class == "overall" else 0.10)
        if (profile_name, seed) in EXACT:
            assert sharded == base


class TestFaultStreamStability:
    """Per-link fault RNG streams are seeded by link name, so chaos
    must replay identically no matter which shard hosts the link."""

    FAULTS = (FaultSpec(model="iid-loss", links="leaf*->spine*",
                        rate=1e-3),)

    def _run(self, shards):
        stats = {}
        row = run_fct_point(
            "pmsb", "dwrr", 0.5, TINY, seed=3, faults=self.FAULTS,
            config=RunConfig(shards=shards if shards > 1 else None),
            fault_stats_out=stats)
        return dataclasses.asdict(row), stats

    def test_fault_streams_byte_identical_under_sharding(self):
        base_row, base_stats = self._run(1)
        shard_row, shard_stats = self._run(2)
        assert base_row == shard_row
        assert base_stats == shard_stats
        assert base_stats["links"], "fault layer saw no traffic"


class TestIncastTolerance:
    TOPO = "leaf-spine:n_leaf=2,n_spine=2,hosts_per_leaf=5"

    def _run(self, shards, **kw):
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        return run_incast(
            scheme, lambda: DwrrScheduler(2), incast_flows([4, 4]),
            topology=self.TOPO,
            config=RunConfig(duration=0.05,
                             shards=shards if shards > 1 else None), **kw)

    def test_queue_rates_match_within_tolerance(self):
        base = self._run(1).queue_gbps
        sharded = self._run(2).queue_gbps
        assert set(base) == set(sharded)
        for queue in base:
            assert sharded[queue] == pytest.approx(base[queue], rel=0.05)

    def test_warmup_fraction_is_honoured_when_sharded(self):
        """The sharded twin hard-coded a 1/3 warm-up in the worker and
        raised on anything else."""
        base = self._run(1, warmup_fraction=0.5)
        sharded = self._run(2, warmup_fraction=0.5)
        assert sharded.warmup == base.warmup == 0.5 * 0.05
        for queue in base.queue_gbps:
            assert sharded.queue_gbps[queue] == pytest.approx(
                base.queue_gbps[queue], rel=0.05)
        # Live objects stay in the workers.
        assert sharded.network is None and sharded.handles == []
        assert base.network is not None and len(base.handles) == 8


class TestMergedRunners:
    def test_too_small_fabric_raises_the_single_process_error(self):
        """Was a ``KeyError`` from ``plan.host_owner`` inside a worker:
        the twin skipped the runner's host-count validation."""
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        messages = []
        for shards in (None, 2):
            with pytest.raises(ValueError) as excinfo:
                run_incast(scheme, lambda: DwrrScheduler(2),
                           incast_flows([6, 6]),
                           topology=TestIncastTolerance.TOPO,
                           config=RunConfig(duration=0.01, shards=shards))
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "has 10 hosts but the flow layout needs 12 senders" \
            in messages[0]

    def test_size_distribution_runs_sharded(self):
        """Was "unsupported under --shards" only because the twin never
        took the parameter."""
        kw = dict(size_distribution=PAPER_MIX.scaled(TINY.size_scale / 2),
                  size_scale=TINY.size_scale / 2)
        base = _fct_row("pmsb", "dwrr", 1, **kw)
        sharded = _fct_row("pmsb", "dwrr", 2, **kw)
        assert base != _fct_row("pmsb", "dwrr", 1)  # the mix took effect
        assert sharded["n_flows"] == base["n_flows"]
        assert sharded["completed"] == base["completed"] > 0
        assert sharded["overall"]["mean"] == pytest.approx(
            base["overall"]["mean"], rel=0.02)

    def test_sharded_provenance_has_engine_and_fleet_blocks(self):
        base, sharded = {}, {}
        run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3, provenance_out=base)
        run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                      config=RunConfig(shards=2), provenance_out=sharded)
        assert set(base) == {"elapsed_s", "engine"}
        assert set(sharded) == {"elapsed_s", "engine", "shards"}
        assert set(base["engine"]) == set(sharded["engine"]) == {
            "events_processed", "wheel_events_processed",
            "heap_events_processed", "cancelled_pending", "compactions"}
        fleet = sharded["shards"]
        assert fleet["n"] == 2 and fleet["sync_rounds"] > 0
        assert fleet["exported"] == fleet["imported"] > 0
        assert sum(shard["events_processed"]
                   for shard in fleet["per_shard"]) == \
            sharded["engine"]["events_processed"]


class TestUnsupportedCombinations:
    def test_fct_rejects_controller(self):
        from repro.control import ControllerSpec
        with pytest.raises(ValueError, match="controller"):
            run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                          config=RunConfig(shards=2),
                          controller=ControllerSpec.parse("pi"))

    def test_incast_rejects_single_bottleneck(self):
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        with pytest.raises(ValueError, match="multi-switch"):
            run_incast(scheme, lambda: DwrrScheduler(2),
                       incast_flows([4, 4]),
                       config=RunConfig(duration=0.01, shards=2))

    def test_incast_rejects_rtt_recording(self):
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        with pytest.raises(ValueError, match="record_rtt"):
            run_incast(scheme, lambda: DwrrScheduler(2),
                       incast_flows([4, 4]), record_rtt=True,
                       topology=TestIncastTolerance.TOPO,
                       config=RunConfig(duration=0.01, shards=2))
