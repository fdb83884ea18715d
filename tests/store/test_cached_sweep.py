"""The cache boundary itself (`repro.store.sweep.cached_sweep`), driven
with a stand-in for the simulator: hits answered without computing,
misses computed and persisted, rows in point order at every jobs level."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import pytest

from repro.store import ExperimentSpec, RunStore, cached_sweep

COMPUTE = f"{__name__}:compute_square"


@dataclass
class Row:
    n: int
    square: int
    pid: int

    def to_payload(self):
        return asdict(self)

    @classmethod
    def from_payload(cls, data):
        return cls(**data)


def compute_square(point, provenance):
    provenance["elapsed_s"] = 0.25
    return Row(n=point, square=point * point, pid=os.getpid())


def _path(store, key):
    return os.path.join(store.runs_dir, f"{key}.json")


def _sweep(points, store, **kwargs):
    specs = [ExperimentSpec.create("square", params={"n": n})
             for n in points]
    return cached_sweep(points, specs, COMPUTE, Row.from_payload, store,
                        **kwargs)


class TestCachedSweep:
    def test_without_a_store_every_point_is_computed(self):
        rows = _sweep([3, 1, 2], None)
        assert [row.square for row in rows] == [9, 1, 4]

    def test_hits_are_answered_here_and_misses_computed(self, tmp_path):
        store = RunStore(tmp_path)
        first = _sweep([1, 3], store, jobs=1)
        records = {key: open(_path(store, key), "rb").read()
                   for key in store.keys()}
        # Stored rows carry the pid that computed them; a recomputed hit
        # in a forked worker would carry another.
        rows = _sweep([4, 3, 2, 1], store, jobs=2)
        assert [row.n for row in rows] == [4, 3, 2, 1]
        assert rows[1] == first[1] and rows[3] == first[0]
        assert {rows[0].pid, rows[2].pid}.isdisjoint({os.getpid()})
        assert len(store) == 4
        for key, blob in records.items():
            assert open(_path(store, key), "rb").read() == blob

    def test_fresh_rows_are_persisted_with_provenance(self, tmp_path):
        store = RunStore(tmp_path)
        _sweep([5], store, profile_name="tiny")
        (record,) = store.records()
        assert record.result == {"n": 5, "square": 25, "pid": os.getpid()}
        assert record.provenance["profile"] == "tiny"
        assert record.provenance["elapsed_s"] == 0.25

    def test_force_recomputes_and_overwrites(self, tmp_path):
        store = RunStore(tmp_path)
        _sweep([5], store)
        before = next(store.records()).provenance["wall_time_unix"]
        _sweep([5], store, force=True)
        assert next(store.records()).provenance["wall_time_unix"] > before

    def test_a_corrupt_record_is_recomputed_not_trusted(self, tmp_path,
                                                        capsys):
        store = RunStore(tmp_path)
        _sweep([6, 7], store)
        damaged = _path(store, store.keys()[0])
        with open(damaged, "w") as handle:
            handle.write('{"key": ')
        rows = _sweep([6, 7], store)
        assert [row.square for row in rows] == [36, 49]
        assert damaged in capsys.readouterr().err
        assert store.corrupt == [damaged]
        assert all(record is not None for record in map(store.get,
                                                        store.keys()))

    def test_a_sweep_of_hits_does_not_import_the_compute_module(
            self, tmp_path):
        store = RunStore(tmp_path)
        _sweep([8], store)
        specs = [ExperimentSpec.create("square", params={"n": 8})]
        rows = cached_sweep([8], specs, "no.such.module:function",
                            Row.from_payload, store)
        assert rows[0].square == 64
        with pytest.raises(ImportError):
            cached_sweep([8], specs, "no.such.module:function",
                         Row.from_payload, store, force=True)
