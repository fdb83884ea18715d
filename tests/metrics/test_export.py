"""Unit tests for result export."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.metrics.export import (fct_records_to_csv, mean_of_summaries,
                                  rows_to_csv, series_to_csv, to_json)
from repro.metrics.fct import FctRecord
from repro.metrics.stats import SummaryStats, summarize


def _records():
    return [
        FctRecord(flow_id=1, size_bytes=50_000, service=2,
                  start_time=0.001, fct=0.002),
        FctRecord(flow_id=2, size_bytes=20_000_000, service=5,
                  start_time=0.003, fct=0.050),
    ]


class TestFctCsv:
    def test_roundtrip(self):
        buffer = io.StringIO()
        fct_records_to_csv(_records(), buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(rows) == 2
        assert rows[0]["flow_id"] == "1"
        assert float(rows[1]["fct"]) == 0.050

    def test_file_path(self, tmp_path):
        path = str(tmp_path / "fct.csv")
        fct_records_to_csv(_records(), path)
        with open(path) as handle:
            assert "flow_id" in handle.readline()


class TestSeriesCsv:
    def test_writes_pairs(self):
        buffer = io.StringIO()
        series_to_csv([0.0, 1.0], [5.0, 6.0], buffer,
                      header=("t", "gbps"))
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == ["t", "gbps"]
        assert float(rows[2][1]) == 6.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            series_to_csv([0.0], [1.0, 2.0], io.StringIO())


class TestRowsCsv:
    def test_flattens_summaries(self):
        from repro.experiments.families import FctRow
        row = FctRow(
            scheme="PMSB", scheduler="dwrr", load=0.5, n_flows=10,
            completed=10, overall=summarize([1.0, 2.0]),
            small=summarize([0.5]), medium=None, large=None,
        )
        buffer = io.StringIO()
        rows_to_csv([row], buffer)
        parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert parsed[0]["scheme"] == "PMSB"
        assert float(parsed[0]["overall_mean"]) == 1.5
        assert parsed[0]["medium"] == ""

    def test_accepts_plain_dicts(self):
        # Run-store records hand back dicts; they flatten identically
        # to the dataclass rows they round-tripped from.
        buffer = io.StringIO()
        rows_to_csv([{"scheme": "PMSB",
                      "overall": {"mean": 1.5, "p99": 2.0}}], buffer)
        parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert parsed[0]["scheme"] == "PMSB"
        assert float(parsed[0]["overall_mean"]) == 1.5

    def test_rejects_non_row_values(self):
        with pytest.raises(TypeError):
            rows_to_csv(["not-a-row"], io.StringIO())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rows_to_csv([], io.StringIO())


class TestToJson:
    def test_dataclasses_and_arrays(self):
        import numpy as np
        buffer = io.StringIO()
        to_json({"stats": summarize([1.0]), "series": np.array([1.0, 2.0])},
                buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["stats"]["count"] == 1
        assert payload["series"] == [1.0, 2.0]


class TestMeanOfSummaries:
    def test_averages_stats(self):
        a = SummaryStats(count=2, mean=1.0, p50=1.0, p95=2.0, p99=2.0,
                         minimum=0.5, maximum=2.0)
        b = SummaryStats(count=4, mean=3.0, p50=3.0, p95=4.0, p99=6.0,
                         minimum=1.0, maximum=6.0)
        merged = mean_of_summaries([a, b])
        assert merged.count == 6
        assert merged.mean == 2.0
        assert merged.p99 == 4.0
        assert merged.minimum == 0.5
        assert merged.maximum == 6.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_of_summaries([])
