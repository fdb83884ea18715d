"""Exactness guards for the single per-packet datapath.

There is one datapath per hop: every segment is its own event.  Two
contracts keep it that way:

- a neutral execution flag (``--shards 1``) must take the exact
  per-packet code path — CLI JSON exports and the FCT point are
  byte-identical to the unset flag;
- the removed packet-train surface (``--trains``, ``RunConfig.trains``)
  must fail loudly instead of being silently ignored.

Fast-versus-reference exactness is covered by the REPRO_SLOW_PATH
differential in ``test_slow_path_differential.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import TINY
from repro.store.spec import RunConfig

pytestmark = pytest.mark.slow


def _export(tmp_path, name: str, argv) -> bytes:
    path = tmp_path / name
    assert main(argv + ["--json", str(path)]) == 0
    return path.read_bytes()


class TestTrainWidthOneIsExact:
    """A neutral ``--shards 1`` must be byte-identical to the unset flag."""

    def test_fig3(self, tmp_path):
        base = _export(tmp_path, "base.json", ["fig3", "--duration", "0.006"])
        one = _export(tmp_path, "one.json",
                      ["fig3", "--duration", "0.006", "--shards", "1"])
        assert base == one

    def test_fig8(self, tmp_path):
        base = _export(tmp_path, "base.json", ["fig8", "--duration", "0.006"])
        one = _export(tmp_path, "one.json",
                      ["fig8", "--duration", "0.006", "--shards", "1"])
        assert base == one

    def test_fct_point(self):
        base = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3)
        one = run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                            config=RunConfig(shards=1))
        assert dataclasses.asdict(base) == dataclasses.asdict(one)


class TestTrainGuardRails:
    """The removed packet-train tier cannot be asked for any more."""

    def test_trains_reject_shards(self):
        with pytest.raises(TypeError, match="trains"):
            RunConfig(trains=16, shards=2)

    def test_trains_reject_faults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--trains", "16",
                  "--faults", "iid-loss:rate=0.001,links=bottleneck"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --trains 16" in capsys.readouterr().err
