"""Shared-buffer experiments: cache keys, store contract, zero-cost
differential, and pool conservation under injected faults."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenario import incast_flows, make_scheme, run_incast
from repro.experiments.families import (SHAREDBUF, SharedBufRow,
                                       default_policies, fct_point_spec,
                                       sharedbuf_point_spec)
from repro.net.sharedbuf import SharedBufferSpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.faults import loss_spec
from repro.sim.rng import stable_digest
from repro.store import RunConfig, RunStore, run_sweep, sweep

pytestmark = pytest.mark.slow

SEED = 7
DT1 = SharedBufferSpec(policy="dt", capacity=64, alpha=1.0)
BSHARE = SharedBufferSpec(policy="bshare", capacity=64, target_delay=200e-6)

#: Pre-change baselines for the no-shared-buffer incast (1 vs 4 flows,
#: DWRR(2), 4 ms).  These digests were computed on the tree *before* the
#: shared-buffer layer existed: a run with the layer disabled must stay
#: byte-identical to the pre-layer simulator, which is the zero-cost
#: guarantee stated in ``repro.net.sharedbuf``.
PRE_LAYER_DIGESTS = {
    "pmsb": "af00f3c12c8d16bb0e6fcced15b1477a3e34a09f11bcc6373e972a553be7aa8a",
    "per-port": "618a0963b7b4a804d1b014a04f52ac1cb7a3d99bb522de71cd038dd071904dfa",
    "mq-ecn": "0c8c07e93bbe08d8ee9d1c915ad30af186d6fa9d83ed029a672597b7e6dd9fc3",
}


def _baseline_digest(scheme_name):
    scheme = make_scheme(scheme_name, n_queues=2)
    r = run_incast(scheme, lambda: DwrrScheduler(2), incast_flows([1, 4]),
                   config=RunConfig(duration=0.004))
    payload = {
        "scheme": r.scheme,
        "queue_gbps": {str(q): round(v, 12) for q, v in r.queue_gbps.items()},
        "drops": r.network.observed_ports("bottleneck")[0].drops,
        "tx": r.network.observed_ports("bottleneck")[0].tx_packets,
    }
    return stable_digest(payload)


class TestZeroCostDifferential:
    @pytest.mark.parametrize("scheme_name", sorted(PRE_LAYER_DIGESTS))
    def test_disabled_layer_is_byte_identical_to_pre_layer_tree(
            self, scheme_name):
        assert _baseline_digest(scheme_name) == PRE_LAYER_DIGESTS[scheme_name]


class TestPointSpec:
    def test_alpha_re_keys_the_point(self):
        a = sharedbuf_point_spec("pmsb", "dwrr", DT1, TINY, SEED)
        b = sharedbuf_point_spec(
            "pmsb", "dwrr",
            SharedBufferSpec(policy="dt", capacity=64, alpha=2.0),
            TINY, SEED)
        assert a.key != b.key

    def test_policy_re_keys_at_matched_capacity(self):
        dt = sharedbuf_point_spec("pmsb", "dwrr", DT1, TINY, SEED)
        bshare = sharedbuf_point_spec("pmsb", "dwrr", BSHARE, TINY, SEED)
        assert dt.key != bshare.key

    def test_baseline_keys_apart_from_policies(self):
        none = sharedbuf_point_spec("pmsb", "dwrr", None, TINY, SEED)
        dt = sharedbuf_point_spec("pmsb", "dwrr", DT1, TINY, SEED)
        assert none.key != dt.key

    def test_distinct_from_fct_sweep_family(self):
        ours = sharedbuf_point_spec("pmsb", "dwrr", None, TINY, SEED)
        fct = fct_point_spec("pmsb", "dwrr", 0.5, TINY, SEED)
        assert ours.key != fct.key


def _point(policy, audit=None):
    """One PMSB point over ``policy``, 4 ms per scenario."""
    (row,) = run_sweep(SHAREDBUF, {"shared_buffer": (policy,),
                                   "scheme_name": ("pmsb",)},
                       RunConfig(profile=replace(TINY, static_duration=0.004),
                                 audit=audit, jobs=1))
    return row


class TestRow:
    def test_payload_round_trip(self):
        row = _point(DT1)
        assert SharedBufRow.from_payload(row.to_payload()) == row

    def test_default_policy_grid_shape(self):
        policies = default_policies(capacity=32, alphas=(1.0, 2.0),
                                    target_delays=(100e-6,))
        assert [spec.policy for spec in policies] == ["dt", "dt", "bshare"]
        assert all(spec.capacity == 32 for spec in policies)


def _sweep(cache_dir, force=False, audit=None):
    return run_sweep(
        SHAREDBUF, {"shared_buffer": (None, DT1, BSHARE),
                    "scheme_name": ("pmsb", "per-port")},
        RunConfig(profile=TINY, seed=SEED, audit=audit,
                  cache_dir=str(cache_dir) if cache_dir else None,
                  force=force))


class TestStoreContract:
    """One cold six-point sweep into its own store, shared by the class:
    each test reads it, and the warm test sweeps it again."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("sharedbuf-store") / "cache"
        rows = _sweep(cache)
        return cache, rows, sweep._points_computed

    def test_cold_run_populates_store(self, cold):
        cache, rows, computed = cold
        assert len(RunStore(cache)) == len(rows) == 6
        assert computed == 6

    def test_warm_run_computes_nothing(self, cold):
        cache, cold_rows, _computed = cold
        warm = _sweep(cache)
        assert sweep._points_computed == 0
        assert warm == cold_rows

    def test_policies_differentiate(self, cold):
        _cache, rows, _computed = cold
        by_policy = {(row.scheme, row.policy, row.alpha): row for row in rows}
        assert len(by_policy) == 6
        # The shallow shared memory must actually bind: some policy point
        # records pool pressure the private-buffer baseline cannot.
        assert any(row.pool_peak > 0 for row in rows if row.policy != "none")


class TestAuditedRuns:
    @pytest.mark.parametrize("spec", [DT1, BSHARE],
                             ids=["dt", "bshare"])
    def test_audited_policy_point_passes_conservation(self, spec):
        # The fabric auditor re-proves Σ per-port debits == pool totals
        # on every event and once more at verify_fabric; a bookkeeping
        # slip anywhere in the datapath fails the run.
        row = _point(spec, audit=True)
        assert row.policy == spec.policy


class TestChaosConservation:
    def test_fault_injected_drops_debit_pool_exactly_once(self):
        # Chaos drops happen on the wire, after the port has already
        # credited the shared pool at serialization end — an audited
        # lossy run over a shared buffer proves no drop is credited
        # twice (or forgotten) anywhere between admission and the fault.
        scheme = make_scheme("pmsb", n_queues=2)
        result = run_incast(
            scheme, lambda: DwrrScheduler(2), incast_flows([1, 4]),
            config=RunConfig(duration=0.004, audit=True),
            shared_buffer=DT1,
            faults=(loss_spec("iid-loss", 0.02, links="bottleneck"),),
            fault_seed=3,
        )
        stats = result.chaos.stats()
        assert sum(stats["drops"].values()) > 0
        shared = result.network.switches[0].shared_buffer
        assert shared.packet_count == sum(
            shared.occupancy_by_port().values())
