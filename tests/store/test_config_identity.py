"""Configuration is a value: what configures the fabric is what keys it.

``RunConfig.faults`` / ``shared_buffer`` / ``topology`` are resolved
once, in the runner; the resolved values are what each
sweep point ships to its worker *and* what its
:class:`~repro.store.ExperimentSpec` is built from.  So for every
store-backed family × every field it honours: the key moves with the
field, a store filled without it answers nothing once it is set, and
the shipped point mapping — not process state a forked worker happens to
inherit — carries the spec.

The stale hit this replaced (``sweep`` + shared buffer answered from
private-buffer records) is a row of ``HONOURED`` below.
"""

from __future__ import annotations

import pytest

from repro.experiments.families import (CHAOS, FCT, SHAREDBUF, XSCALE,
                                       chaos_point_spec, fct_point_spec,
                                       sharedbuf_point_spec,
                                       xscale_point_spec)
from repro.experiments.scale import TINY
from repro.net.sharedbuf import SharedBufferSpec
from repro.net.topology import TopologySpec
from repro.sim.faults import FaultSpec
from repro.store import RunConfig
from repro.store import sweep as store_sweep
from repro.store.sweep import run_sweep

FABRIC = "clos:tiers=2,ports=4,oversub=3"
VALUES = {
    "faults": (FaultSpec(model="iid-loss", rate=0.001, links="*"),),
    "shared_buffer": SharedBufferSpec(policy="dt", capacity=40, alpha=0.5),
    "topology": TopologySpec.parse(FABRIC),
}

#: family -> (the fields its runner honours, its point spec called with
#: those fields as keywords, its smallest sweep as ``run(config)``).
FAMILIES = {
    "sweep": (
        ("faults", "shared_buffer", "topology"),
        lambda **kw: fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3, **kw),
        lambda config: run_sweep(FCT, {"scheme_name": ("pmsb",)}, config)),
    "chaos-sweep": (
        ("shared_buffer", "topology"),
        lambda **kw: chaos_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                                      "iid-loss", 0.001, **kw),
        lambda config: run_sweep(CHAOS, {"scheme_name": ("pmsb",),
                                         "loss_rate": (0.001,)}, config)),
    "sharedbuf": (
        ("faults", "topology"),
        lambda **kw: sharedbuf_point_spec("pmsb", "dwrr", None, TINY, 3,
                                          **kw),
        lambda config: run_sweep(SHAREDBUF, {"scheme_name": ("pmsb",),
                                             "shared_buffer": (None,)},
                                 config)),
    "xscale": (
        ("shared_buffer",),
        lambda **kw: xscale_point_spec("pmsb", "dwrr", FABRIC, TINY, 3,
                                       hogs=4, **kw),
        lambda config: run_sweep(XSCALE, {"scheme_name": ("pmsb",),
                                          "topology": (FABRIC,),
                                          "hogs": (4,)}, config)),
}
HONOURED = [(family, field) for family, (fields, _spec, _run)
            in FAMILIES.items() for field in fields]


@pytest.fixture
def shipped(monkeypatch):
    """Every point a sweep hands its workers, as ``(point, key)``."""
    points = []
    real = store_sweep.run_parallel

    def recording(jobs_list, worker, **kwargs):
        points.extend((job[1], job[2].key()) for job in jobs_list)
        return real(jobs_list, worker, **kwargs)

    monkeypatch.setattr(store_sweep, "run_parallel", recording)
    return points


@pytest.mark.parametrize("family,field", HONOURED)
def test_set_field_moves_the_point_key(family, field):
    _fields, point_spec, _run = FAMILIES[family]
    assert point_spec(**{field: VALUES[field]}).key() != point_spec().key()


@pytest.mark.parametrize("family", FAMILIES)
def test_store_filled_without_the_field_recomputes_with_it(
        family, tmp_path, shipped):
    fields, _spec, run = FAMILIES[family]
    base = RunConfig(profile=TINY, seed=3, jobs=1, cache_dir=str(tmp_path))
    clean_rows = run(base)
    clean = list(shipped)
    assert clean
    for field in fields:
        value = VALUES[field]
        del shipped[:]
        rows = run(base.evolve(**{field: value}))
        # 0 hits: every point is simulated again, under a new key, and
        # the mapping its worker receives carries the resolved spec.
        assert len(shipped) == len(clean)
        assert {key for _point, key in shipped}.isdisjoint(
            key for _point, key in clean)
        assert all(value in point.values() for point, _key in shipped)
        # … and the worker simulated it.  (Not asserted for a fabric
        # change: where the receiver's downlink is the only bottleneck
        # the victim row can legitimately come out the same.)
        assert field == "topology" or rows != clean_rows
        del shipped[:]
        assert run(base.evolve(**{field: value})) == rows  # now warm
        assert shipped == []
    del shipped[:]
    assert run(base) == clean_rows  # and the flagless records still answer
    assert shipped == []


@pytest.mark.parametrize("field", ["shared_buffer"])
def test_jobs_2_rows_equal_jobs_1(field, shipped):
    config = RunConfig(profile=TINY, seed=3, **{field: VALUES[field]})
    schemes = {"scheme_name": ("pmsb", "tcn")}
    serial = run_sweep(FCT, schemes, config.evolve(jobs=1))
    parallel = run_sweep(FCT, schemes, config.evolve(jobs=2))
    assert parallel == serial
    assert len(shipped) == 4
    assert all(VALUES[field] in point.values() for point, _key in shipped)
