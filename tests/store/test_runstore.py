"""RunStore persistence: atomicity, hit/miss/force, gc, diff."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.families import fct_point_spec
from repro.experiments.scale import TINY
from repro.store import (RunRecord, RunStore, SPEC_SCHEMA_VERSION,
                         diff_records, make_provenance)


def _spec(load=0.5, seed=1, scheme="pmsb"):
    return fct_point_spec(scheme, "dwrr", load, TINY, seed=seed)


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, {"answer": 42}, make_provenance(profile_name="tiny"))
        record = store.get(spec)
        assert record is not None
        assert record.key == spec.key()
        assert record.result == {"answer": 42}
        assert record.provenance["profile"] == "tiny"
        assert record.experiment_spec == spec

    def test_miss_returns_none(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        assert store.get(_spec()) is None
        assert _spec() not in store

    def test_get_by_key_string(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, 1)
        assert store.get(spec.key()).result == 1

    def test_put_overwrites(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, "old")
        store.put(spec, "new")
        assert store.get(spec).result == "new"
        assert len(store) == 1

    def test_float_exact_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        value = 0.1 + 0.2  # famously not 0.3
        store.put(spec, {"fct": value})
        assert store.get(spec).result["fct"] == value

    def test_corrupt_record_reads_as_miss(self, tmp_path, capsys):
        # A miss for the caller (the sweep recomputes and overwrites),
        # but a reported one — unlike a record that is simply absent.
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, 1)
        path = os.path.join(store.runs_dir, f"{spec.key()}.json")
        with open(path, "w") as handle:
            handle.write("{half a rec")
        assert store.get(spec) is None
        assert store.get(spec) is None
        assert store.get(_spec(load=0.9)) is None  # absent: silent
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1  # once per process, not per lookup
        assert "corrupt run-store record" in err[0] and path in err[0]
        assert store.corrupt == [path]
        # Another store object counts it again but does not re-report.
        other = RunStore(tmp_path / "cache")
        assert other.get(spec) is None
        assert other.corrupt == [path]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("damage", ["", "[1, 2]", '{"key": "k"}',
                                        '{"key": "k", "spec": {}}\x00'])
    def test_every_kind_of_damage_is_reported(self, tmp_path, capsys, damage):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, 1)
        path = os.path.join(store.runs_dir, f"{spec.key()}.json")
        with open(path, "w") as handle:
            handle.write(damage)
        assert store.get(spec) is None
        assert path in capsys.readouterr().err
        # A recomputed point overwrites the damage.
        store.put(spec, 2)
        assert store.get(spec).result == 2

    def test_records_are_single_line_json(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        store.put(_spec(), {"x": 1})
        path = os.path.join(store.runs_dir, f"{_spec().key()}.json")
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["result"] == {"x": 1}


class TestListingAndFind:
    def test_keys_sorted(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        for load in (0.3, 0.5, 0.7):
            store.put(_spec(load=load), load)
        assert store.keys() == sorted(store.keys())
        assert len(list(store.records())) == 3

    def test_find_by_prefix(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, 1)
        matches = store.find(spec.key()[:10])
        assert [record.key for record in matches] == [spec.key()]
        assert store.find("") and not store.find("zzzz")

    def test_delete(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, 1)
        assert store.delete(spec) is True
        assert store.delete(spec) is False
        assert len(store) == 0


class TestGc:
    def test_reclaims_tmp_and_unreadable(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        store.put(_spec(), 1)
        # A temp file a killed writer left behind, plus a corrupt record.
        with open(os.path.join(store.runs_dir, ".tmp-dead.part"), "w"):
            pass
        with open(os.path.join(store.runs_dir, "bad.json"), "w") as handle:
            handle.write("not json")
        removed = store.gc()
        assert removed["tmp"] == 1
        assert removed["unreadable"] == 1
        assert len(store) == 1  # the good record survived

    def test_reclaims_stale_schema(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        spec = _spec()
        record = store.put(spec, 1)
        stale_spec = dict(record.spec, schema_version=SPEC_SCHEMA_VERSION - 1)
        stale = RunRecord(key=record.key, spec=stale_spec, result=1,
                          provenance=record.provenance)
        with open(os.path.join(store.runs_dir, f"{record.key}.json"),
                  "w") as handle:
            handle.write(stale.to_line() + "\n")
        assert store.gc()["stale_schema"] == 1
        assert len(store) == 0

    def test_reclaims_aged(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        old = make_provenance()
        old["wall_time_unix"] = 0.0  # 1970
        store.put(_spec(load=0.3), 1, old)
        store.put(_spec(load=0.5), 2)
        assert store.gc(older_than_days=365)["aged"] == 1
        assert len(store) == 1


class TestDiff:
    def test_diff_surfaces_spec_and_result_deltas(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        a = store.put(_spec(seed=1), {"overall": {"mean": 1.0}})
        b = store.put(_spec(seed=2), {"overall": {"mean": 2.0}})
        delta = diff_records(a, b)
        assert delta["spec"]["seed"] == (1, 2)
        assert delta["result"]["overall.mean"] == (1.0, 2.0)
        assert "scheme" not in delta["spec"]

    def test_identical_records_empty_diff(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        record = store.put(_spec(), {"x": 1})
        delta = diff_records(record, record)
        assert delta == {"spec": {}, "result": {}}
