"""Guard rails for the single per-packet datapath.

There is one datapath per hop: every segment is its own event.  The
removed packet-train surface (``--trains``, ``RunConfig.trains``) must
fail loudly instead of being silently ignored.

Fast-versus-reference exactness is covered by the REPRO_SLOW_PATH
differential in ``test_slow_path_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.store.spec import RunConfig

pytestmark = pytest.mark.slow


class TestTrainGuardRails:
    """The removed packet-train tier cannot be asked for any more."""

    def test_trains_is_not_a_config_field(self):
        with pytest.raises(TypeError, match="trains"):
            RunConfig(trains=16)

    def test_trains_reject_faults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--trains", "16",
                  "--faults", "iid-loss:rate=0.001,links=bottleneck"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --trains 16" in capsys.readouterr().err
