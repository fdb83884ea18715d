"""Content-addressed persistence for experiment results.

Every completed experiment point becomes one :class:`RunRecord` — spec,
result payload, provenance — filed under the SHA-256 key of its
:class:`~repro.store.spec.ExperimentSpec`:

::

    <root>/
        runs/<key>.json      # one single-line JSON record per point
        STORE_FORMAT         # store layout version

Records are single-line JSON (JSON-lines compatible: ``cat runs/*.json``
is a valid ``.jsonl`` stream).  Writes go through a temp file in the
same directory followed by :func:`os.replace`, so a record is either
fully present or absent — concurrent ``run_parallel`` workers and a
``kill -9`` mid-write can never corrupt the store, which is what makes
``--resume`` trustworthy.

Reading is the start-up path of a resumed or fully cached sweep, so the
modules only a write needs (``subprocess``, ``platform``, ``tempfile``)
are imported by the functions that write.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Union

from .spec import ExperimentSpec, SPEC_SCHEMA_VERSION, CODE_VERSION

__all__ = ["RunRecord", "RunStore", "diff_records", "git_revision",
           "make_provenance", "open_store"]

#: Version of the on-disk layout (not of the result schema — that lives
#: in the spec).  Bump only if the directory structure changes.
STORE_FORMAT = 1

_TMP_PREFIX = ".tmp-"

_GIT_REVISION: Optional[str] = None

#: Record paths this process has already reported as corrupt: a damaged
#: record costs one stderr line, not one per lookup.
_CORRUPT_REPORTED: Set[str] = set()


def git_revision() -> str:
    """The repository revision this process runs from (``"unknown"``
    outside a git checkout).  Cached after the first call — provenance
    stamping must not fork a subprocess per sweep point."""
    global _GIT_REVISION
    if _GIT_REVISION is None:
        import subprocess
        try:
            _GIT_REVISION = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5.0, check=True,
            ).stdout.strip() or "unknown"
        except Exception:
            _GIT_REVISION = "unknown"
    return _GIT_REVISION


def make_provenance(profile_name: Optional[str] = None,
                    elapsed_s: Optional[float] = None,
                    engine: Optional[Dict[str, int]] = None,
                    shards: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The standard provenance block stored with every record.

    Provenance is *descriptive* (where did this number come from), never
    part of the cache key — wall time and host name must not defeat
    content addressing.  When both ``elapsed_s`` and engine counters are
    supplied, a derived ``events_per_second`` rides along so
    ``repro runs show`` can answer "how fast was this run"
    retroactively; ``shards`` carries the per-shard counter block of a
    sharded run (see :func:`repro.sim.shard.aggregate_shard_stats`).
    """
    import platform
    prov: Dict[str, Any] = {
        "wall_time_unix": time.time(),
        "git_rev": git_revision(),
        "code_version": CODE_VERSION,
        "python": platform.python_version(),
        "host": platform.node(),
    }
    if profile_name is not None:
        prov["profile"] = profile_name
    if elapsed_s is not None:
        prov["elapsed_s"] = elapsed_s
    if engine is not None:
        prov["engine"] = dict(engine)
        events = engine.get("events_processed")
        if elapsed_s and events is not None:
            prov["events_per_second"] = events / elapsed_s
    if shards is not None:
        prov["shards"] = dict(shards)
    return prov


@dataclass(frozen=True)
class RunRecord:
    """One persisted experiment point."""

    #: Content address (``spec.key()``); also the file name.
    key: str
    #: Canonical spec dict (see :meth:`ExperimentSpec.canonical`).
    spec: Dict[str, Any]
    #: Experiment-defined result payload (JSON-able).
    result: Any
    #: Where/when/how the result was produced (see :func:`make_provenance`).
    provenance: Dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        """Serialize as one line of JSON (JSON-lines record)."""
        return json.dumps(
            {"key": self.key, "spec": self.spec, "result": self.result,
             "provenance": self.provenance},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        return cls(key=data["key"], spec=data["spec"],
                   result=data["result"],
                   provenance=data.get("provenance", {}))

    @property
    def experiment_spec(self) -> ExperimentSpec:
        return ExperimentSpec.from_canonical(self.spec)


SpecOrKey = Union[ExperimentSpec, str]


def _key_of(spec_or_key: SpecOrKey) -> str:
    if isinstance(spec_or_key, ExperimentSpec):
        return spec_or_key.key()
    return spec_or_key


class RunStore:
    """A directory of content-addressed :class:`RunRecord` files.

    Safe for concurrent writers: records land via atomic rename, and two
    workers racing on the same key simply write identical bytes.  All
    read paths tolerate (and :meth:`gc` reclaims) leftover temp files
    from killed runs.  A record that exists but cannot be read back
    (truncated, not JSON, missing fields) is a miss for the caller — the
    point is recomputed and the record overwritten — but never a silent
    one: :meth:`get` reports it on stderr and lists it in
    :attr:`corrupt`.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        #: Paths of the damaged records this store object has read.
        self.corrupt: List[str] = []

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.root, "runs")

    def _ensure_layout(self) -> None:
        os.makedirs(self.runs_dir, exist_ok=True)
        marker = os.path.join(self.root, "STORE_FORMAT")
        if not os.path.exists(marker):
            self._atomic_write(marker, f"{STORE_FORMAT}\n")

    def _path(self, key: str) -> str:
        return os.path.join(self.runs_dir, f"{key}.json")

    def _atomic_write(self, path: str, content: str) -> None:
        import tempfile
        directory = os.path.dirname(path)
        fd, tmp_path = tempfile.mkstemp(prefix=_TMP_PREFIX, suffix=".part",
                                        dir=directory)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(content)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # -- record I/O ---------------------------------------------------------

    def put(self, spec: ExperimentSpec, result: Any,
            provenance: Optional[Dict[str, Any]] = None) -> RunRecord:
        """Persist one point atomically; returns the stored record."""
        self._ensure_layout()
        record = RunRecord(key=spec.key(), spec=spec.canonical(),
                           result=result,
                           provenance=provenance or make_provenance())
        self._atomic_write(self._path(record.key), record.to_line() + "\n")
        return record

    def get(self, spec_or_key: SpecOrKey) -> Optional[RunRecord]:
        """The stored record, or None on a cache miss.

        A record that is there but unreadable or invalid also reads as
        None, after being reported (see the class docstring).
        """
        path = self._path(_key_of(spec_or_key))
        try:
            with open(path) as handle:
                return RunRecord.from_line(handle.read())
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._note_corrupt(path, exc)
            return None

    def _note_corrupt(self, path: str, exc: Exception) -> None:
        if path not in self.corrupt:
            self.corrupt.append(path)
        if path not in _CORRUPT_REPORTED:
            _CORRUPT_REPORTED.add(path)
            print(f"warning: corrupt run-store record {path} "
                  f"({type(exc).__name__}: {exc}); treated as a miss — "
                  "`repro runs gc` reclaims it", file=sys.stderr)

    def __contains__(self, spec_or_key: SpecOrKey) -> bool:
        return os.path.exists(self._path(_key_of(spec_or_key)))

    def delete(self, spec_or_key: SpecOrKey) -> bool:
        """Remove one record; True if it existed."""
        try:
            os.unlink(self._path(_key_of(spec_or_key)))
            return True
        except OSError:
            return False

    def keys(self) -> List[str]:
        """All stored keys, sorted (stable listing order)."""
        try:
            names = os.listdir(self.runs_dir)
        except OSError:
            return []
        return sorted(name[:-len(".json")] for name in names
                      if name.endswith(".json")
                      and not name.startswith(_TMP_PREFIX))

    def records(self) -> Iterator[RunRecord]:
        """All readable records in key order."""
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield record

    def __len__(self) -> int:
        return len(self.keys())

    def find(self, key_prefix: str) -> List[RunRecord]:
        """Records whose key starts with ``key_prefix`` (CLI ``show``)."""
        return [record for key in self.keys() if key.startswith(key_prefix)
                for record in [self.get(key)] if record is not None]

    # -- maintenance --------------------------------------------------------

    def gc(self, older_than_days: Optional[float] = None) -> Dict[str, int]:
        """Reclaim junk: temp files from killed writers, unreadable or
        schema-stale records, and (optionally) records older than
        ``older_than_days``.  Returns per-category removal counts."""
        removed = {"tmp": 0, "unreadable": 0, "stale_schema": 0, "aged": 0}
        try:
            names = os.listdir(self.runs_dir)
        except OSError:
            return removed
        cutoff = (time.time() - older_than_days * 86400.0
                  if older_than_days is not None else None)
        for name in names:
            path = os.path.join(self.runs_dir, name)
            if name.startswith(_TMP_PREFIX):
                os.unlink(path)
                removed["tmp"] += 1
                continue
            if not name.endswith(".json"):
                continue
            record = self.get(name[:-len(".json")])
            if record is None:
                os.unlink(path)
                removed["unreadable"] += 1
            elif record.spec.get("schema_version") != SPEC_SCHEMA_VERSION:
                os.unlink(path)
                removed["stale_schema"] += 1
            elif (cutoff is not None and
                  record.provenance.get("wall_time_unix", 0.0) < cutoff):
                os.unlink(path)
                removed["aged"] += 1
        return removed


def open_store(
    store: Union[RunStore, str, os.PathLike, None],
) -> Optional[RunStore]:
    """A sweep's ``store`` argument as its one :class:`RunStore`: an
    instance as is, a root path opened, None (or ``""``) for no store."""
    if isinstance(store, RunStore):  # not truthiness: an empty store is falsy
        return store
    return RunStore(store) if store else None


def diff_records(a: RunRecord, b: RunRecord) -> Dict[str, Any]:
    """Field-level differences between two records (CLI ``runs diff``).

    Returns ``{"spec": {field: (a, b)}, "result": {path: (a, b)}}`` with
    only differing entries; nested result dicts are flattened with
    dot-separated paths.
    """

    def flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
        if isinstance(value, dict):
            out: Dict[str, Any] = {}
            for key in value:
                out.update(flatten(value[key], f"{prefix}{key}."))
            return out
        return {prefix.rstrip("."): value}

    def diff_maps(ma: Dict[str, Any], mb: Dict[str, Any]) -> Dict[str, Any]:
        delta = {}
        for key in sorted(set(ma) | set(mb)):
            va, vb = ma.get(key), mb.get(key)
            if va != vb:
                delta[key] = (va, vb)
        return delta

    result_a = a.result if isinstance(a.result, dict) else {"result": a.result}
    result_b = b.result if isinstance(b.result, dict) else {"result": b.result}
    return {
        "spec": diff_maps(flatten(a.spec), flatten(b.spec)),
        "result": diff_maps(flatten(result_a), flatten(result_b)),
    }
