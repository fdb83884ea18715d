"""Pinned-digest differential: spec-built fabrics vs the hand-built tree.

The topology redesign replaced the hand-wired ``single_bottleneck`` /
``leaf_spine`` / ``fat_tree`` builders with fabrics generated from a
:class:`~repro.net.topology.TopologySpec`.  The redesign's contract is
*byte identity*: a default-preset spec must rebuild the exact fabric
the old builders produced — same names, same ECMP salts, same
per-switch port order — and therefore reproduce pre-redesign
simulation results bit for bit.

The digests below were captured on the tree *before* the generator
existed.  Each test runs the same experiment through the spec path and
requires the digest to match — under both the optimized datapath and
the ``REPRO_SLOW_PATH=1`` reference engine, with the fabric auditor on
and off.  A mismatch means the generator changed fabric construction
order, naming, or route derivation in a result-visible way.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import TINY
from repro.experiments.scenario import incast_flows, make_scheme, run_incast
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.rng import stable_digest
from repro.store.spec import RunConfig

pytestmark = pytest.mark.slow

#: FCT rows for run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3) on the
#: pre-redesign hand-built fabrics, digested as stable_digest(asdict(row)).
PRE_REDESIGN_FCT_DIGESTS = {
    "leaf-spine":
        "27bb618e3ee47fc499e662e2322d950c7f9d1714e4cde4b3da5c8a66f442bcda",
    "fat-tree":
        "98e84b8fb0a0e890f98fd7707674acf70fcc45f81103ec58f36b1448df377ef7",
}

#: Incast payload digest (pmsb, DWRR(2), 1-vs-4 flows, 4 ms) on the
#: pre-redesign single_bottleneck builder.
PRE_REDESIGN_INCAST_DIGEST = (
    "af00f3c12c8d16bb0e6fcced15b1477a3e34a09f11bcc6373e972a553be7aa8a")


def _set_engine(monkeypatch, slow: bool) -> None:
    if slow:
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)


def _fct_digest(topology: str, audit: bool) -> str:
    row = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                        topology=TopologySpec.parse(topology),
                        config=RunConfig(audit=audit))
    return stable_digest(dataclasses.asdict(row))


def _incast_digest() -> str:
    scheme = make_scheme("pmsb", n_queues=2)
    result = run_incast(
        scheme, lambda: DwrrScheduler(2), incast_flows([1, 4]),
        config=RunConfig(duration=0.004),
        topology=TopologySpec.parse("single-bottleneck"))
    port = result.network.observed_ports("bottleneck")[0]
    payload = {
        "scheme": result.scheme,
        "queue_gbps": {str(q): round(v, 12)
                       for q, v in result.queue_gbps.items()},
        "drops": port.drops,
        "tx": port.tx_packets,
    }
    return stable_digest(payload)


class TestSpecBuiltFabricsAreByteIdentical:
    @pytest.mark.parametrize("slow", [False, True],
                             ids=["fast-path", "slow-path"])
    @pytest.mark.parametrize("topology", sorted(PRE_REDESIGN_FCT_DIGESTS))
    def test_fct_point_matches_pre_redesign_digest(self, monkeypatch,
                                                   topology, slow):
        _set_engine(monkeypatch, slow)
        digest = _fct_digest(topology, audit=False)
        assert digest == PRE_REDESIGN_FCT_DIGESTS[topology]

    def test_audit_does_not_change_results(self, monkeypatch):
        _set_engine(monkeypatch, slow=False)
        digest = _fct_digest("leaf-spine", audit=True)
        assert digest == PRE_REDESIGN_FCT_DIGESTS["leaf-spine"]

    @pytest.mark.parametrize("slow", [False, True],
                             ids=["fast-path", "slow-path"])
    def test_incast_matches_pre_redesign_digest(self, monkeypatch, slow):
        _set_engine(monkeypatch, slow)
        assert _incast_digest() == PRE_REDESIGN_INCAST_DIGEST

    def test_equivalent_spellings_build_identical_fabrics(self,
                                                          monkeypatch):
        """A clos spec naming the TINY leaf-spine shape explicitly is
        the same fabric, so it must produce the same row."""
        _set_engine(monkeypatch, slow=False)
        row = run_fct_point(
            "pmsb", "dwrr", 0.5, TINY, seed=3,
            topology=TopologySpec.parse("leaf-spine:leaf=2,spine=2,hosts=3"))
        digest = stable_digest(dataclasses.asdict(row))
        assert digest == PRE_REDESIGN_FCT_DIGESTS["leaf-spine"]
