"""Command line: ``python -m perfbench {run,once,compare,selfcheck}``.

``run`` is for people: every workload, a fixed number of repeats, every
metric by name with its unit, a result file.  ``once`` is what
``BENCHMARK.json`` names as the command: one workload for a number of
seconds, one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .catalog import (DIGESTS_JSON, WORK_ROOT, WORKLOADS,
                      end_to_end_metrics, per_layer_metrics)
from .compare import compare, disagreements
from .harness import HarnessError, measure
from .report import (SCHEMA, environment, read_document, record_history,
                     render, workload_entry, write_document)

DEFAULT_REPEATS = 5


def run_set(args: argparse.Namespace, check_pins: bool = True,
            note: str = "") -> Dict[str, Any]:
    """Measure the chosen workloads one after another."""
    document: Dict[str, Any] = {
        "schema": SCHEMA, "env": environment(), "seed": args.seed,
        "repeats": args.repeats, "quick": args.quick, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        print(f"{note}{name} ...", file=sys.stderr, flush=True)
        document["workloads"][name] = workload_entry(measure(
            name, args.seed, quick=args.quick, repeats=args.repeats,
            trace=args.trace, check_pins=check_pins))
    return document


def command_run(args: argparse.Namespace) -> int:
    if args.update_digests and (args.seed != 1 or args.quick):
        sys.exit("digests are pinned at --seed 1 and full size")
    document = run_set(args, check_pins=not args.update_digests)
    print(render(document))
    write_document(document, Path(args.out))
    print(f"\nwrote {args.out}")
    failed = sum(entry["failed"]
                 for entry in document["workloads"].values())
    if args.update_digests and not failed:
        with open(DIGESTS_JSON) as handle:
            digests = json.load(handle)
        digests.update({name: entry["digest"]
                        for name, entry in document["workloads"].items()})
        with open(DIGESTS_JSON, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"rewrote {DIGESTS_JSON}")
    if args.record:
        record_history(document)
    return 1 if failed else 0


def command_once(args: argparse.Namespace) -> int:
    """The contract of ``BENCHMARK.json``: one JSON object, last line."""
    measured = measure(args.workload, args.seed, seconds=args.seconds,
                       untraced=not args.trace, trace=bool(args.trace))
    if args.trace:
        # Every per-layer metric must read as a number here: one that
        # does not apply to this workload (or whose source is gone)
        # reads 0; result files written by ``run`` keep it null.
        values = {name: value if value is not None else 0
                  for name, value in measured["per_layer"].items()}
        units = {m["name"]: m["unit"] for m in per_layer_metrics()}
    else:
        values = {name: statistics.median(samples)
                  for name, samples in measured["samples"].items()
                  if samples}
        units = {m["name"]: m["unit"] for m in end_to_end_metrics()}
        if len(values) != len(units):
            print(f"no successful repeat: {measured['failures']}",
                  file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def command_compare(args: argparse.Namespace) -> int:
    text, verdicts = compare(read_document(args.parent),
                             read_document(args.change))
    print(text)
    return 1 if "regressed" in verdicts else 0


def command_selfcheck(args: argparse.Namespace) -> int:
    """Two full sets on the same tree must agree within every bound."""
    first = run_set(args, note="set 1: ")
    second = run_set(args, note="set 2: ")
    for label, document in (("first", first), ("second", second)):
        write_document(document, WORK_ROOT / f"selfcheck-{label}.json")
    print(compare(first, second)[0])
    problems = disagreements(first, second)
    for problem in problems:
        print(f"DISAGREE {problem}")
    print(f"\nselfcheck: {'FAILED' if problems else 'passed'} "
          f"({len(first['workloads'])} workloads x "
          f"{len(end_to_end_metrics())} metrics, "
          f"{args.repeats} repeats per set)")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def measuring(name: str, **kwargs: Any) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, **kwargs)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                         help="untraced repeats per workload, each in a "
                              "fresh interpreter (default %(default)s)")
        sub.add_argument("--trace", action="store_true",
                         help="add the per-layer pass (cProfile, counters, "
                              "layer probes)")
        sub.add_argument("--quick", action="store_true",
                         help="every workload at 1/20 size (harness "
                              "self-test; numbers mean nothing)")
        sub.add_argument("--workload", action="append",
                         choices=sorted(WORKLOADS),
                         help="only this workload (repeatable)")
        return sub

    run = measuring("run", help="measure every workload, print and write "
                                "the results")
    run.add_argument("--out", default=str(WORK_ROOT / "latest.json"))
    run.add_argument("--record", action="store_true",
                     help="append the one-line summary to HISTORY.jsonl")
    run.add_argument("--update-digests", action="store_true",
                     help="rewrite digests.json from this run; the only "
                          "way the pins change")
    run.set_defaults(handler=command_run)

    once = commands.add_parser("once", help="one workload, one JSON line")
    once.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    once.add_argument("--seed", type=int, required=True)
    once.add_argument("--seconds", type=float, required=True)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    once.set_defaults(handler=command_once)

    comparing = commands.add_parser(
        "compare", help="A.json against B.json, one row per pair")
    comparing.add_argument("parent")
    comparing.add_argument("change")
    comparing.set_defaults(handler=command_compare)

    selfcheck = measuring("selfcheck", help="two sets on the same tree "
                                            "must agree within the bounds")
    selfcheck.set_defaults(handler=command_selfcheck)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
