"""Configuration is a value: what configures the fabric is what keys it.

``RunConfig.faults`` / ``shared_buffer`` / ``controller`` / ``topology``
are resolved once, in the runner; the resolved values are what each
sweep point ships to its worker *and* what its
:class:`~repro.store.ExperimentSpec` is built from.  So for every
store-backed family × every field it honours: the key moves with the
field, a store filled without it answers nothing once it is set, and
the shipped point tuple — not process state a forked worker happens to
inherit — carries the spec.

The two stale hits this replaced (``sweep`` + shared buffer answered
from private-buffer records; ``chaos-sweep`` + controller from
open-loop ones) are rows of ``HONOURED`` below.
"""

from __future__ import annotations

import pytest

from repro.control.controller import ControllerSpec
from repro.experiments.autotune import autotune_point_spec, run_autotune
from repro.experiments.chaos import chaos_point_spec, run_chaos_sweep
from repro.experiments.largescale import fct_point_spec, run_fct_sweep
from repro.experiments.scale import TINY
from repro.experiments.sharedbuf import (run_sharedbuf_sweep,
                                         sharedbuf_point_spec)
from repro.experiments.xscale import run_xscale_sweep, xscale_point_spec
from repro.net.sharedbuf import SharedBufferSpec
from repro.net.topology import TopologySpec
from repro.sim.faults import FaultSpec
from repro.store import RunConfig
from repro.store import sweep as store_sweep

FABRIC = "clos:tiers=2,ports=4,oversub=3"
VALUES = {
    "faults": (FaultSpec(model="iid-loss", rate=0.001, links="*"),),
    "shared_buffer": SharedBufferSpec(policy="dt", capacity=40, alpha=0.5),
    "controller": ControllerSpec.parse("theorem:period=0.0005,margin=1.5"),
    "topology": TopologySpec.parse(FABRIC),
}

#: family -> (the fields its runner honours, its point spec called with
#: those fields as keywords, its smallest sweep as ``run(config)``).
FAMILIES = {
    "sweep": (
        ("faults", "shared_buffer", "controller", "topology"),
        lambda **kw: fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3, **kw),
        lambda config: run_fct_sweep(("pmsb",), config=config)),
    "chaos-sweep": (
        ("shared_buffer", "controller", "topology"),
        lambda **kw: chaos_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                                      "iid-loss", 0.001, **kw),
        lambda config: run_chaos_sweep(("pmsb",), loss_rates=(0.001,),
                                       config=config)),
    "sharedbuf": (
        ("faults", "controller", "topology"),
        lambda **kw: sharedbuf_point_spec("pmsb", "dwrr", None, TINY, 3,
                                          **kw),
        lambda config: run_sharedbuf_sweep(("pmsb",), policies=(),
                                           config=config)),
    "autotune": (
        ("shared_buffer", "topology"),
        lambda **kw: autotune_point_spec(12.0, 12.0, "dwrr", 0.3, 0.7,
                                         TINY, 3, **kw),
        lambda config: run_autotune(grid=(12.0,), rounds=1, population=1,
                                    config=config).static_rows),
    "xscale": (
        ("shared_buffer",),
        lambda **kw: xscale_point_spec("pmsb", "dwrr", FABRIC, TINY, 3,
                                       hogs=4, **kw),
        lambda config: run_xscale_sweep(("pmsb",), ladder=(FABRIC,), hogs=4,
                                        config=config)),
}
HONOURED = [(family, field) for family, (fields, _spec, _run)
            in FAMILIES.items() for field in fields]


@pytest.fixture
def shipped(monkeypatch):
    """Every point a sweep hands its workers, as ``(point, key)``."""
    points = []
    real = store_sweep.run_parallel

    def recording(jobs_list, worker, jobs=None):
        points.extend((job[1], job[2].key()) for job in jobs_list)
        return real(jobs_list, worker, jobs=jobs)

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
        # the tuple its worker receives carries the resolved spec.
        assert len(shipped) == len(clean)
        assert {key for _point, key in shipped}.isdisjoint(
            key for _point, key in clean)
        assert all(value in point for point, _key in shipped)
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


@pytest.mark.parametrize("field", ["shared_buffer", "controller"])
def test_jobs_2_rows_equal_jobs_1(field, shipped):
    config = RunConfig(profile=TINY, seed=3, **{field: VALUES[field]})
    serial = run_fct_sweep(("pmsb", "tcn"), config=config.evolve(jobs=1))
    parallel = run_fct_sweep(("pmsb", "tcn"), config=config.evolve(jobs=2))
    assert parallel == serial
    assert len(shipped) == 4
    assert all(VALUES[field] in point for point, _key in shipped)
