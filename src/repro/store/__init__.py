"""Content-addressed run store (specs, records, persistence).

The paper's evaluation is dozens of (scheme, scheduler, load, seed)
points taking hours at the PAPER profile; this package makes each point
cacheable, addressable and resumable instead of ephemeral stdout:

- :class:`ExperimentSpec` canonically identifies a point and hashes to
  its content address;
- :class:`RunConfig` carries execution knobs (duration / profile / seed
  / jobs / audit / cache-dir) as one object instead of scattered kwargs;
- :class:`RunStore` persists :class:`RunRecord` results atomically so
  concurrent workers and killed runs never corrupt the cache;
- the ``repro runs`` CLI group lists, shows, diffs and garbage-collects
  stored records.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .spec import (ExperimentSpec, RunConfig, SPEC_SCHEMA_VERSION,
                       check_compatibility)
    from .sweep import cached_sweep, sweep_setup
    from .runstore import (RunRecord, RunStore, diff_records, git_revision,
                           make_provenance, open_store)

_EXPORTS = {
    ".spec": (
        "ExperimentSpec", "RunConfig", "SPEC_SCHEMA_VERSION",
        "check_compatibility",
    ),
    ".sweep": ("cached_sweep", "sweep_setup"),
    ".runstore": (
        "RunRecord", "RunStore", "diff_records", "git_revision",
        "make_provenance", "open_store",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
