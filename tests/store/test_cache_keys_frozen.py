"""Run-store cache keys are frozen across the topology redesign.

Every key below was captured *before* the TopologySpec redesign.  The
redesign threads a ``topology`` argument through every point-spec
builder, and its compatibility contract is that historical call shapes
(default fabrics, legacy ``topology="fat-tree"`` strings) keep their
exact historical keys — otherwise every user's cache would silently
cold-start.  Only genuinely new fabrics (an explicit non-default
TopologySpec) may mint new keys.
"""

from __future__ import annotations

from repro.experiments.autotune import autotune_point_spec
from repro.experiments.chaos import chaos_point_spec
from repro.experiments.largescale import fct_point_spec
from repro.experiments.scale import BENCH, TINY
from repro.experiments.sharedbuf import sharedbuf_point_spec
from repro.net.sharedbuf import SharedBufferSpec
from repro.net.topology import TopologySpec

FROZEN_KEYS = {
    "fct-default":
        "c94a88b02387a66a8a3d3adb7b68dfe39a7933449a78f300d2ac4228f905eb2c",
    "fct-wfq-audit":
        "89604da76643c40605707a9ef9e00a4f45a292ea878094880cd175e06e0c038e",
    "fct-fat-tree":
        "c4744f32a89f3d17dffadf21148d2d60e3a4f3b72fc0c710d496044e769fcf77",
    "sharedbuf-dt":
        "8219d033f0bd7d208a058b310de0274a8c2f044684c477f9957b2c7987fbac41",
    "chaos-iid":
        "3815883cd89e77ebbdad705b388fd070d2387aebbf3207c22c7d42fa38708a1a",
    "autotune":
        "50b93abfd5bd520033dbd3bf18243b08a62b98fbd6815956f959115083ea01dc",
}


class TestHistoricalKeysUnchanged:
    def test_fct_default_leaf_spine(self):
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3)
        assert spec.key() == FROZEN_KEYS["fct-default"]

    def test_fct_wfq_audit(self):
        spec = fct_point_spec("pmsb", "wfq", 0.3, BENCH, 1, audit=True)
        assert spec.key() == FROZEN_KEYS["fct-wfq-audit"]

    def test_fct_legacy_fat_tree_string(self):
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                              topology="fat-tree")
        assert spec.key() == FROZEN_KEYS["fct-fat-tree"]

    def test_fct_spec_object_matches_legacy_string(self):
        """A TopologySpec spelling of the legacy fat-tree renders the
        same params and therefore the same key."""
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                              topology=TopologySpec.parse("fat-tree:k=4"))
        assert spec.key() == FROZEN_KEYS["fct-fat-tree"]

    def test_fct_default_spec_object_matches_none(self):
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                              topology=TopologySpec())
        assert spec.key() == FROZEN_KEYS["fct-default"]

    def test_sharedbuf(self):
        policy = SharedBufferSpec(policy="dt", capacity=64, alpha=1.0)
        spec = sharedbuf_point_spec("pmsb", "dwrr", policy, TINY, 7)
        assert spec.key() == FROZEN_KEYS["sharedbuf-dt"]

    def test_chaos(self):
        spec = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                                model="iid-loss", loss_rate=0.001)
        assert spec.key() == FROZEN_KEYS["chaos-iid"]

    def test_autotune(self):
        spec = autotune_point_spec(12.0, 24.0, "dwrr", 0.3, 0.7, TINY, 1,
                                   chaos=False)
        assert spec.key() == FROZEN_KEYS["autotune"]


class TestNewFabricsReKey:
    def test_non_default_topology_mints_a_new_fct_key(self):
        clos = TopologySpec.parse("clos:tiers=2,ports=16,oversub=2")
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3, topology=clos)
        assert spec.key() != FROZEN_KEYS["fct-default"]
        params = dict(spec.canonical()["params"])
        assert params["topology"] == "clos"

    def test_non_default_topology_re_keys_sharedbuf(self):
        policy = SharedBufferSpec(policy="dt", capacity=64, alpha=1.0)
        spec = sharedbuf_point_spec(
            "pmsb", "dwrr", policy, TINY, 7,
            topology=TopologySpec.parse("leaf-spine:leaf=2,spine=2,hosts=3"))
        assert spec.key() != FROZEN_KEYS["sharedbuf-dt"]

    def test_non_default_topology_re_keys_autotune(self):
        spec = autotune_point_spec(
            12.0, 24.0, "dwrr", 0.3, 0.7, TINY, 1, chaos=False,
            topology=TopologySpec.parse("clos:tiers=2,ports=8,oversub=1.5"))
        assert spec.key() != FROZEN_KEYS["autotune"]

    def test_default_spec_leaves_autotune_key_alone(self):
        spec = autotune_point_spec(12.0, 24.0, "dwrr", 0.3, 0.7, TINY, 1,
                                   chaos=False, topology=TopologySpec())
        assert spec.key() == FROZEN_KEYS["autotune"]
