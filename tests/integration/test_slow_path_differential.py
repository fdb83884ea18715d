"""Differential determinism: slow path vs. optimized datapath.

The fast paths — the engine's timing-wheel tier and fire-and-forget
scheduling, the ports' specialised hop and the DCTCP endpoints'
straight-line ACK/data paths — are pure performance substitutions: they
must never change *what* a simulation computes, only how fast.
``REPRO_SLOW_PATH=1`` selects every reference: the heap-only loop, in
which fire-and-forget entries become ordinary events, the general hop on
every port (scheduler pair and both marker hooks per packet, see
``tests/net/test_hop_differential.py`` for the per-port differential)
and the general transport paths.  These tests
run the same experiments twice, once on each engine, and require exact
equality of the results — byte-identical JSON exports for the CLI
figures, field-exact FCT rows for the sweep point — across schemes,
schedulers, and with the fabric auditor attached.

``REPRO_SLOW_PATH`` is read per :class:`~repro.sim.engine.Simulator`
construction, so both modes can be toggled in-process between runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.experiments.chaos import chaos_faults
from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import TINY
from repro.sim.faults import FaultSpec

pytestmark = pytest.mark.slow


def _go_fast(monkeypatch) -> None:
    monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)


def _go_slow(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_SLOW_PATH", "1")


def _fct_row(scheme: str, scheduler: str):
    row = run_fct_point(scheme, scheduler, 0.5, TINY, seed=3)
    return dataclasses.asdict(row)


class TestFctSweepPoint:
    """One sweep point per scheme x scheduler must match field-for-field."""

    @pytest.mark.parametrize("scheme,scheduler", [
        ("pmsb", "dwrr"),
        ("pmsb", "wfq"),
        ("pmsb-e", "dwrr"),
        ("mq-ecn", "dwrr"),
        ("tcn", "wfq"),
    ])
    def test_fast_and_slow_rows_identical(self, monkeypatch,
                                          scheme, scheduler):
        _go_fast(monkeypatch)
        fast = _fct_row(scheme, scheduler)
        _go_slow(monkeypatch)
        slow = _fct_row(scheme, scheduler)
        assert fast == slow

    def test_modes_actually_differ_in_engine_tier(self, monkeypatch):
        # Guard against the differential becoming vacuous: the fast run
        # must exercise the wheel tier, the slow run must not.
        from repro.sim.engine import Simulator
        _go_fast(monkeypatch)
        assert not Simulator()._slow
        _go_slow(monkeypatch)
        assert Simulator()._slow


class TestCliExports:
    """fig3 / fig8 JSON exports must be byte-identical across modes."""

    def _export(self, tmp_path, monkeypatch, name: str, argv, slow: bool):
        path = tmp_path / name
        if slow:
            _go_slow(monkeypatch)
        else:
            _go_fast(monkeypatch)
        assert main(argv + ["--json", str(path)]) == 0
        return path.read_bytes()

    def test_fig3_byte_identical(self, tmp_path, monkeypatch):
        argv = ["fig3", "--duration", "0.006"]
        fast = self._export(tmp_path, monkeypatch, "fast.json", argv, False)
        slow = self._export(tmp_path, monkeypatch, "slow.json", argv, True)
        assert fast == slow

    def test_fig8_byte_identical(self, tmp_path, monkeypatch):
        argv = ["fig8", "--duration", "0.006"]
        fast = self._export(tmp_path, monkeypatch, "fast.json", argv, False)
        slow = self._export(tmp_path, monkeypatch, "slow.json", argv, True)
        assert fast == slow

    def test_fig3_audited_byte_identical(self, tmp_path, monkeypatch):
        # The auditor observes every port event on both engines; the
        # result must still match the reference engine exactly.
        argv = ["fig3", "--duration", "0.006", "--audit"]
        fast = self._export(tmp_path, monkeypatch, "fast.json", argv, False)
        slow = self._export(tmp_path, monkeypatch, "slow.json", argv, True)
        assert fast == slow


class TestFaultedDifferential:
    """The chaos layer must not decohere the two engine paths: fault
    RNG draws happen at ``Link.deliver()`` time, so identical
    FaultSpecs must produce identical loss patterns — and identical
    results — on the wheel fast path and the reference engine."""

    @pytest.mark.parametrize("model,rate", [
        ("iid-loss", 1e-3),
        ("gilbert-elliott", 1e-3),
        ("crc-corrupt", 1e-3),
    ])
    def test_faulted_fct_rows_identical(self, monkeypatch, model, rate):
        def row():
            stats = {}
            r = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                              faults=chaos_faults(model, rate),
                              fault_stats_out=stats)
            return dataclasses.asdict(r), stats

        _go_fast(monkeypatch)
        fast = row()
        _go_slow(monkeypatch)
        slow = row()
        assert fast == slow
        # Guard against vacuity: loss must actually have happened.
        assert sum(fast[1]["drops"].values()) > 0

    def test_flapped_fct_rows_identical(self, monkeypatch):
        # A flap kills in-flight packets through the epoch guard on the
        # fast lane and through ordinary events on the slow path; the
        # outcome must be identical either way.
        flap = (FaultSpec(model="flap", links="leaf0->spine*",
                          down=1e-3, up=2e-3, period=8e-3, stop=20e-3),)

        def row():
            stats = {}
            r = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                              faults=flap, fault_stats_out=stats)
            return dataclasses.asdict(r), stats

        _go_fast(monkeypatch)
        fast = row()
        _go_slow(monkeypatch)
        slow = row()
        assert fast == slow
        drops = fast[1]["drops"]
        assert drops.get("down", 0) + drops.get("flight", 0) > 0

    def test_cli_faults_audited_byte_identical(self, tmp_path, monkeypatch):
        # End to end through the CLI: fig3 with an injected loss model
        # under the auditor exports the same bytes on both paths.
        argv = ["fig3", "--duration", "0.006", "--audit",
                "--faults", "iid-loss:rate=0.002,links=bottleneck"]
        exporter = TestCliExports()
        fast = exporter._export(tmp_path, monkeypatch, "fast.json", argv,
                                False)
        slow = exporter._export(tmp_path, monkeypatch, "slow.json", argv,
                                True)
        assert fast == slow
