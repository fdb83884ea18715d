#!/usr/bin/env python
"""CI gate: an interrupted sweep, resumed, matches a clean run byte-for-byte.

Drives the real CLI end to end:

1. a clean TINY sweep exported to ``clean.json``;
2. the same sweep against a fresh cache, killed halfway through via the
   deterministic ``REPRO_SWEEP_CRASH_AFTER`` hook (must exit nonzero and
   leave exactly the completed points in the store);
3. the same command re-run against the same cache with more workers
   (must exit zero and export JSON byte-identical to the clean run);
4. ``repro runs list`` over the resumed cache (must show every point).

Exits 0 only if every step holds.  Run from the repo root:

    PYTHONPATH=src python scripts/check_resume.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

from repro.store import RunStore

SWEEP = [sys.executable, "-m", "repro", "sweep", "--profile", "tiny",
         "--seed", "7"]
TOTAL_POINTS = 4   # TINY: 4 schemes x 1 load
CRASH_AFTER = 2


def run(argv, env=None, expect_failure=False):
    print(f"$ {' '.join(argv)}")
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    if expect_failure:
        if result.returncode == 0:
            fail(f"expected a nonzero exit, got 0:\n{result.stdout}")
    elif result.returncode != 0:
        fail(f"exit {result.returncode}:\n{result.stdout}\n{result.stderr}")
    return result


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        clean_json = os.path.join(workdir, "clean.json")
        resumed_json = os.path.join(workdir, "resumed.json")
        clean_cache = os.path.join(workdir, "clean-cache")
        cache = os.path.join(workdir, "cache")

        print("== step 1: clean run ==")
        run(SWEEP + ["--cache-dir", clean_cache, "--json", clean_json])

        print("== step 2: crash at ~50% ==")
        env = dict(os.environ, REPRO_SWEEP_CRASH_AFTER=str(CRASH_AFTER))
        run(SWEEP + ["--cache-dir", cache, "--jobs", "1"],
            env=env, expect_failure=True)
        persisted = len(RunStore(cache))
        if persisted != CRASH_AFTER:
            fail(f"crashed sweep persisted {persisted} points, "
                 f"expected {CRASH_AFTER}")
        print(f"   crashed as injected; {persisted}/{TOTAL_POINTS} "
              f"points persisted")

        print("== step 3: resume (more workers) ==")
        run(SWEEP + ["--cache-dir", cache, "--jobs", "2",
                     "--json", resumed_json])
        with open(clean_json, "rb") as a, open(resumed_json, "rb") as b:
            clean_bytes, resumed_bytes = a.read(), b.read()
        if resumed_bytes != clean_bytes:
            fail("resumed export differs from the clean run "
                 f"({len(clean_bytes)} vs {len(resumed_bytes)} bytes)")
        print(f"   resumed export byte-identical "
              f"({len(clean_bytes)} bytes)")

        print("== step 4: runs list ==")
        listing = run([sys.executable, "-m", "repro", "runs", "list",
                       "--cache-dir", cache])
        if f"{TOTAL_POINTS} record(s)" not in listing.stdout:
            fail(f"runs list did not show {TOTAL_POINTS} records:\n"
                 f"{listing.stdout}")
        if "fct-point" not in listing.stdout:
            fail(f"runs list missing fct-point rows:\n{listing.stdout}")

        print("OK: interrupted sweep resumed byte-identical to clean run")
        return 0


if __name__ == "__main__":
    sys.exit(main())
