"""Parent side: run workloads in fresh children and measure from outside.

One child at a time; the only parallelism is the ``--jobs 2`` the sweep
workloads themselves request.  Wall time of the entry call comes from
the child (or is the child, for ``repro sweep``); CPU time and peak RSS
of the child's whole process tree come from ``wait4``.  This process
never imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .catalog import (DIGESTS_JSON, ROOT, SRC, WARM_RUNS_PER_REPEAT,
                      WORK_ROOT, WORKLOADS, Workload, exact_metrics,
                      load_pins, per_layer_metrics)

#: Every run takes at least this many repeats, whatever ``--seconds``
#: says: two digests are the self-consistency check at unpinned seeds.
MIN_REPEATS = 2
#: Set-up is cheap to sample and noisy, so every run takes at least
#: this many samples of it.
MIN_SETUP_SAMPLES = 5
CLI_SAMPLES = 5


class HarnessError(RuntimeError):
    """The benchmark cannot run here (not: a repeat failed)."""


# -- spawning --------------------------------------------------------------

@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out

    def why(self) -> str:
        if self.timed_out:
            return "timeout"
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {self.exit_code}: {tail[0]}"

    def json(self) -> Dict[str, Any]:
        return json.loads(self.stdout.strip().splitlines()[-1])


def _kill_group(pid: int, flag: Optional[List[bool]] = None) -> None:
    if flag is not None:
        flag.append(True)
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv: Sequence[str], work_dir: Path, timeout_s: float) -> Child:
    """Run ``argv`` in its own session, wait for it and report what its
    process tree used.  On timeout the whole session is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(work_dir)
    # numpy's OpenBLAS starts a worker thread at import; that costs
    # 0-65 ms depending on whether the second vCPU happens to be awake,
    # which made set-up time bimodal.  The simulator never calls BLAS.
    env["OPENBLAS_NUM_THREADS"] = "1"
    out_path, err_path = work_dir / "child.out", work_dir / "child.err"
    out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    timed_out: List[bool] = []
    try:
        start = time.monotonic()
        pid = os.posix_spawn(
            argv[0], list(argv), env, setsid=True,
            file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1),
                          (os.POSIX_SPAWN_DUP2, err_fd, 2)])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    killer = threading.Timer(timeout_s, _kill_group, (pid, timed_out))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill_group(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    wall_s = time.monotonic() - start
    # Nothing the child started may outlive it (orphaned pool workers).
    _kill_group(pid)
    return Child(
        exit_code=os.waitstatus_to_exitcode(status), wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0, timed_out=bool(timed_out),
        stdout=out_path.read_text(), stderr=err_path.read_text())


# -- one measured repeat ---------------------------------------------------

@dataclass
class Repeat:
    ok: bool = True
    why: str = ""
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    rss_mib: Optional[float] = None
    digest: Optional[str] = None
    events: Optional[int] = None
    counters: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def failure(cls, why: str) -> "Repeat":
        return cls(ok=False, why=why)


def digest_of(stats: Any) -> str:
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Session:
    """One workload at one seed: inputs, scratch space, pins."""

    def __init__(self, workload: str, seed: int, quick: bool) -> None:
        if not (SRC / "repro").is_dir():
            raise HarnessError(f"no program to measure: {SRC}/repro missing")
        self.workload: Workload = WORKLOADS[workload]
        self.seed = seed
        self.quick = quick
        self.pins = load_pins()[workload]
        WORK_ROOT.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                              dir=WORK_ROOT))
        self.program_seed = seed
        self.setup_samples: List[float] = []
        self._store: Optional[Path] = None
        self._cold_export: Optional[bytes] = None

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def timeout_s(self) -> float:
        """Three times the wall time pinned at the seed commit, with
        room for interpreter start; profiled children get eight times
        that (cProfile costs about four)."""
        return 3.0 * self.pins["wall_s"] + 10.0

    def worker(self, *args: str, timeout_s: Optional[float] = None) -> Child:
        argv = [sys.executable, "-m", "perfbench.worker", *args]
        if self.quick:
            argv.append("--quick")
        return spawn(argv, self.work_dir, timeout_s or self.timeout_s)

    def repro(self, *args: str, timeout_s: Optional[float] = None) -> Child:
        return spawn([sys.executable, "-m", "repro", *args], self.work_dir,
                     timeout_s or self.timeout_s)

    # -- preparation -------------------------------------------------------

    def prepare(self) -> None:
        """Size the inputs and let byte-code caches fill, untimed: users
        do not pay either on every run."""
        shape = self.workload.fct_shape
        if shape is not None and not self.quick:
            child = self.worker(
                "pick", "--seed", str(self.seed), "--topology", shape[0],
                "--flows", str(shape[1]), "--target-links",
                str(self.pins["target_links"]), timeout_s=120.0)
            if not child.ok:
                raise HarnessError(f"input generation failed: {child.why()}")
            self.program_seed = child.json()["program_seed"]
        warm = self.sample_setup(record=False)
        if not warm.ok:
            raise HarnessError(f"warm-up failed: {warm.why}")

    def sample_setup(self, record: bool = True) -> Repeat:
        """One set-up sample: child spawn up to the entry call — for the
        sweep workloads one ``python -m repro list``."""
        if self.workload.kind == "sweep":
            child = self.repro("list")
            setup_s = child.wall_s
        else:
            child = self.worker(
                "run", self.workload.name, "--setup-only", "--point-seed",
                str(self.program_seed), "--spawned-at",
                repr(time.monotonic()))
            setup_s = child.json()["setup_s"] if child.ok else None
        if not child.ok:
            return Repeat.failure(child.why())
        if record:
            self.setup_samples.append(setup_s)
        return Repeat()

    # -- in-process workloads ----------------------------------------------

    def run_inproc(self, trace: bool = False) -> Repeat:
        args = ["run", self.workload.name, "--point-seed",
                str(self.program_seed)]
        if trace:
            args.append("--trace")
        child = self.worker(
            *args, "--spawned-at", repr(time.monotonic()),
            timeout_s=self.timeout_s * (8 if trace else 1))
        if not child.ok:
            return Repeat.failure(child.why())
        out = child.json()
        repeat = Repeat(
            wall_s=out["wall_s"], cpu_s=child.cpu_s, rss_mib=child.rss_mib,
            digest=digest_of(out["stats"]),
            events=out["events"], counters=out["counters"])
        if not out["complete"]:
            repeat.ok, repeat.why = False, "incomplete"
        elif not trace:
            self.setup_samples.append(out["setup_s"])
        return repeat

    # -- sweep workloads ---------------------------------------------------

    def _sweep(self, store: Path, export: Path) -> Child:
        profile, loads = (("tiny", ["0.5"]) if self.quick
                          else ("bench", ["0.5", "0.7"]))
        return self.repro(
            "sweep", "--profile", profile, "--loads", *loads, "--jobs", "2",
            "--seed", str(self.program_seed), "--cache-dir", str(store),
            "--json", str(export))

    @staticmethod
    def _store_records(store: Path) -> Dict[str, bytes]:
        runs = store / "runs"
        return {path.name: path.read_bytes()
                for path in sorted(runs.glob("*.json"))}

    @staticmethod
    def _store_counters(records: Dict[str, bytes]) -> Dict[str, Any]:
        provenance = [json.loads(blob)["provenance"]
                      for blob in records.values()]
        return {
            "experiments.points": len(records),
            "experiments.point_s_sum": sum(
                p.get("elapsed_s") or 0.0 for p in provenance),
            "store.records": len(records),
            "store.bytes": sum(len(blob) for blob in records.values()),
            "sim.events": sum(
                (p.get("engine") or {}).get("events_processed", 0)
                for p in provenance),
        }

    def run_sweep_cold(self) -> Repeat:
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.work_dir))
        export = store / "out.json"
        child = self._sweep(store, export)
        try:
            if not child.ok:
                return Repeat.failure(child.why())
            exported = export.read_bytes()
            counters = self._store_counters(self._store_records(store))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        repeat = Repeat(
            wall_s=child.wall_s, cpu_s=child.cpu_s, rss_mib=child.rss_mib,
            digest=hashlib.sha256(exported).hexdigest(),
            events=counters["sim.events"], counters=counters)
        counters["experiments.parallel_eff"] = (
            counters["experiments.point_s_sum"] / (2.0 * child.wall_s))
        rows = json.loads(exported)
        if not all(row["completed"] == row["n_flows"] for row in rows):
            repeat.ok, repeat.why = False, "incomplete"
        return repeat

    def fill_store(self) -> None:
        """The cold sweep whose store the warm repeats read."""
        self._store = self.work_dir / "warm-store"
        export = self.work_dir / "cold.json"
        child = self._sweep(self._store, export)
        if not child.ok:
            raise HarnessError(f"filling the store failed: {child.why()}")
        self._cold_export = export.read_bytes()

    def run_sweep_warm(self) -> Repeat:
        assert self._store is not None and self._cold_export is not None
        before = self._store_records(self._store)
        export = self.work_dir / "warm.json"
        wall_s = cpu_s = rss_mib = 0.0
        hits = 0
        for _ in range(WARM_RUNS_PER_REPEAT):
            child = self._sweep(self._store, export)
            if not child.ok:
                return Repeat.failure(child.why())
            if export.read_bytes() != self._cold_export:
                return Repeat.failure("warm export differs from cold")
            after = self._store_records(self._store)
            hits += sum(after.get(name) == blob
                        for name, blob in before.items())
            wall_s += child.wall_s
            cpu_s += child.cpu_s
            rss_mib = max(rss_mib, child.rss_mib)
        counters = self._store_counters(before)
        counters["store.hits"] = hits
        counters["experiments.points"] *= WARM_RUNS_PER_REPEAT
        del counters["experiments.point_s_sum"]
        repeat = Repeat(
            wall_s=wall_s, cpu_s=cpu_s, rss_mib=rss_mib,
            digest=hashlib.sha256(self._cold_export).hexdigest(),
            events=counters["sim.events"] * WARM_RUNS_PER_REPEAT,
            counters=counters)
        if hits != len(before) * WARM_RUNS_PER_REPEAT:
            repeat.ok, repeat.why = False, "a warm run re-simulated a point"
        return repeat

    def run_once(self) -> Repeat:
        if self.workload.kind == "inproc":
            return self.run_inproc()
        if self.workload.name == "sweep_warm":
            return self.run_sweep_warm()
        return self.run_sweep_cold()

    # -- traced pass -------------------------------------------------------

    def cli_samples(self) -> Dict[str, Any]:
        """Interpreter start + import, and the cheapest full command."""
        def median_wall(run: Any) -> Optional[float]:
            walls = [child.wall_s for child in (run() for _ in
                                                range(CLI_SAMPLES))
                     if child.ok]
            return statistics.median(walls) if walls else None

        return {
            "cli.import_s": median_wall(lambda: spawn(
                [sys.executable, "-c", "import repro.cli"], self.work_dir,
                self.timeout_s)),
            "cli.list_s": median_wall(lambda: self.repro("list")),
        }

    def probes(self) -> Dict[str, Any]:
        child = self.worker("probes", *self.workload.probes, "--work-dir",
                            str(self.work_dir), timeout_s=120.0)
        return child.json()["probes"] if child.ok else {}

    def trace(self, untraced_wall_s: Optional[float]) -> Repeat:
        """The per-layer pass.  ``repeat.counters`` ends up holding every
        per-layer metric this workload can report."""
        if self.workload.kind == "inproc":
            repeat = self.run_inproc(trace=True)
            if repeat.wall_s and untraced_wall_s:
                repeat.counters["trace.overhead_ratio"] = (
                    repeat.wall_s / untraced_wall_s)
        else:
            # No profiler crosses the process boundary: the sweep layers
            # are timed and counted from outside.
            repeat = self.run_once()
            repeat.counters.update(self.cli_samples())
        repeat.counters.update(self.probes())
        return repeat


# -- a whole measurement ---------------------------------------------------

def measure(workload: str, seed: int, *, quick: bool = False,
            repeats: Optional[int] = None, seconds: Optional[float] = None,
            untraced: bool = True, trace: bool = False,
            check_pins: bool = True) -> Dict[str, Any]:
    """Measure one workload at one seed.

    Untraced repeats run until there are ``repeats`` of them, or (with
    ``seconds``) until that much time has been spent measuring — never
    fewer than ``MIN_REPEATS``.  ``trace`` adds the per-layer pass; with
    ``untraced=False`` a single untraced repeat is taken, as the
    reference the trace overhead is a ratio of.  Digests are pinned at
    seed 1 and full size; ``check_pins=False`` is for rewriting them.
    """
    pinned_digest = None
    if check_pins and seed == 1 and not quick:
        with open(DIGESTS_JSON) as handle:
            pinned_digest = json.load(handle).get(workload)
    with Session(workload, seed, quick) as session:
        session.prepare()
        if workload == "sweep_warm":
            session.fill_store()
        done: List[Repeat] = []
        started = time.monotonic()

        def wanted() -> bool:
            if not untraced:
                # Only the profiler's overhead needs an untraced reference.
                return not done and session.workload.kind == "inproc"
            if len(done) < MIN_REPEATS:
                return True
            if repeats is not None:
                return len(done) < repeats
            return time.monotonic() - started < (seconds or 0.0)

        while wanted():
            done.append(session.run_once())
        if untraced:
            while len(session.setup_samples) < MIN_SETUP_SAMPLES:
                if not session.sample_setup().ok:
                    break
        good = [r for r in done if r.ok]
        traced = None
        if trace:
            walls = [r.wall_s for r in good]
            traced = session.trace(statistics.median(walls) if walls
                                   else None)
            done.append(traced)
            good = [r for r in done if r.ok]

        # A digest that differs from the pin — or, at an unpinned seed,
        # from the first repeat's — is a failed repeat.
        reference = pinned_digest or (good[0].digest if good else None)
        for repeat in good:
            if repeat.digest != reference:
                repeat.ok, repeat.why = False, "digest mismatch"
        good = [r for r in done if r.ok and r is not traced]
        failures = [r.why for r in done if not r.ok]
        pinned_events = session.pins["events"]
        exact = exact_metrics()
        result: Dict[str, Any] = {
            "program_seed": session.program_seed,
            "attempted": len(done),
            "failed": len(failures),
            "failures": failures,
            "correct": not failures and bool(done),
            "digest": reference,
            "events": good[0].events if good else None,
            "pinned_events": pinned_events,
            "samples": {
                "wall_s": [r.wall_s for r in good],
                "equiv_events_per_s": [pinned_events / r.wall_s
                                       for r in good],
                "cpu_s": [r.cpu_s for r in good],
                "setup_s": list(session.setup_samples),
                "peak_rss_mib": [r.rss_mib for r in good],
            },
            "counters": good[0].counters if good else {},
            "counters_repeat": all(
                [r.counters.get(name) for name in exact]
                == [good[0].counters.get(name) for name in exact]
                for r in good),
        }
        if traced is not None:
            names = [metric["name"] for metric in per_layer_metrics()]
            result["per_layer"] = {name: traced.counters.get(name)
                                   for name in names}
        return result
