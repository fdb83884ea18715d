"""Command-line interface: run any paper experiment from the shell.

::

    python -m repro list
    python -m repro fig3                  # per-port victim (Fig. 3)
    python -m repro fig9 --duration 0.06  # RTT distributions
    python -m repro sweep --scheduler wfq --loads 0.3 0.5 --json out.json
    python -m repro sweep --profile tiny --cache-dir .repro-cache
    python -m repro runs list --cache-dir .repro-cache
    python -m repro table1
    python -m repro theorem
    python -m repro pool                  # §II-B service-pool conjecture
    python -m repro coexist               # §V-B incremental deployment
    python -m repro chaos3 --loss-rates 0 0.001 0.01
    python -m repro chaos-sweep --profile tiny --model gilbert-elliott
    python -m repro fig3 --faults iid-loss:rate=0.001,links=bottleneck
    python -m repro sweep --topology clos:tiers=2,ports=16,oversub=2
    python -m repro xscale --profile tiny     # victim error, 48-1024 hosts

Every experiment command accepts the same execution flags —
``--json/--csv/--duration/--profile/--jobs/--audit`` — spelled
identically (they come from one shared parent parser).  ``--profile``
selects the scale profile (tiny/bench/paper) and, for static
experiments, sets the default simulated duration.

The store-backed commands (``sweep``, ``chaos-sweep``, ``sharedbuf``,
``xscale``) each run one family row of
:mod:`repro.experiments.families` through
:func:`~repro.store.sweep.run_sweep`, with a flag per grid axis the row
sweeps.  ``--cache-dir`` keys every point by its
:class:`~repro.store.ExperimentSpec` hash and skips completed points
(so a re-run resumes an interrupted sweep); ``--force`` recomputes
them.  ``repro runs list|show|diff|gc`` inspects and maintains the
store.

Each command prints the same rows the corresponding paper figure plots;
``--json``/``--csv`` additionally export machine-readable results.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import import_module
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from .experiments.scale import BENCH, PAPER, TINY
from .store.spec import RunConfig

if TYPE_CHECKING:  # pragma: no cover
    from .store.runstore import RunStore

__all__ = ["main"]

# Import policy (docs/API.md, "Start-up and import policy"): this module
# imports the scale profiles and the store's spec half; a command imports
# its experiment family when it runs, and a spec flag imports its parser
# when given — `repro list` and a cache-hit `repro sweep` pay for
# neither the simulator nor numpy.

PROFILES = {"tiny": TINY, "bench": BENCH, "paper": PAPER}

#: Where ``repro runs`` looks when ``--cache-dir`` is not given — the
#: same directory a bare ``sweep --cache-dir .repro-cache`` writes.
DEFAULT_CACHE_DIR = ".repro-cache"


#: The three ``--flag name:key=val,…`` spec options every experiment
#: command shares: dest (the :class:`~repro.store.RunConfig` field it
#: fills) -> (module, spec class, help).  The class's ``parse`` reads
#: the flag's text; it is named, not imported — the module loads when
#: the flag is given.  ``faults`` is repeatable and collects a tuple.
SPEC_FLAGS = {
    "shared_buffer": (
        "repro.net.sharedbuf", "SharedBufferSpec",
        "give every switch the command builds a shared memory all "
        "its ports draw from; SPEC is policy:key=val,key=val with "
        "policies complete / static / dt / bshare, e.g. "
        "'dt:capacity=200,alpha=2' or "
        "'bshare:capacity=128,target_delay=100e-6'"),
    "faults": (
        "repro.sim.faults", "FaultSpec",
        "inject a fault into every fabric the command builds; SPEC "
        "is model:key=val,key=val with models iid-loss / "
        "gilbert-elliott / crc-corrupt / flap, e.g. "
        "'iid-loss:rate=0.001,links=leaf*->spine*' or "
        "'flap:links=bottleneck,down=0.01,up=0.02' (repeatable)"),
    "topology": (
        "repro.net.topology", "TopologySpec",
        "build every fabric the command uses from this declarative "
        "spec; SPEC is preset:key=val,key=val with presets "
        "single-bottleneck / leaf-spine / fat-tree / clos, e.g. "
        "'clos:tiers=2,ports=16,oversub=2' (256 hosts), "
        "'clos:tiers=3,ports=16' (1024 hosts) or 'fat-tree:k=8'"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse_spec_flags(parser: argparse.ArgumentParser,
                      args) -> Dict[str, Any]:
    """The spec objects of the :data:`SPEC_FLAGS` given on the command
    line, by dest (None when absent); a parse failure exits 2 as
    ``--flag: <reason>``."""
    specs: Dict[str, Any] = {}
    for dest, (module, spec_class, _help) in SPEC_FLAGS.items():
        text = getattr(args, dest)
        if not text:
            specs[dest] = None
            continue
        parse = getattr(import_module(module), spec_class).parse
        try:
            specs[dest] = (tuple(parse(item) for item in text)
                           if isinstance(text, list) else parse(text))
        except ValueError as exc:
            parser.error(f"{_flag(dest)}: {exc}")
    return specs


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:8.1f}us"


def _ms(row, size_class, stat: str) -> str:
    """One FCT statistic of a sweep row in milliseconds (``--`` when the
    size class is empty)."""
    value = row.stat(size_class, stat)
    return f"{value * 1e3:8.3f}m" if value is not None else "      --"


def _profile(args):
    """The ScaleProfile selected by ``--profile``, or None."""
    name = getattr(args, "profile", None)
    return PROFILES[name] if name else None


#: The marking-point traces run their own 0.02 s (1 Gbps links, a
#: slow-start transient) whatever the profile.
_OWN_DURATION = ("fig4", "fig5", "fig11", "fig12")


def _duration(args) -> Optional[float]:
    """Simulated seconds for a static experiment: an explicit
    ``--duration``, else the selected profile's static duration, else
    0.03 (None, the helper's own default, for ``_OWN_DURATION``)."""
    if args.duration is not None or args.command in _OWN_DURATION:
        return args.duration
    profile = _profile(args)
    return profile.static_duration if profile is not None else 0.03


def _run_config(args, specs: Dict[str, Any]) -> RunConfig:
    """The one :class:`~repro.store.RunConfig` a command runs under:
    every execution flag and parsed spec flag, so what configures the
    fabric and what keys the run store are the same value."""
    return RunConfig(
        duration=_duration(args),
        profile=_profile(args),
        seed=getattr(args, "seed", None),
        jobs=args.jobs,
        audit=True if args.audit else None,
        profile_events=getattr(args, "profile_events", False),
        cache_dir=getattr(args, "cache_dir", None),
        force=getattr(args, "force", False),
        **specs,
    )


def _maybe_export(args, payload: Any) -> None:
    from .metrics.export import rows_to_csv, to_json
    if getattr(args, "json", None):
        to_json(payload, args.json)
        print(f"\n[written {args.json}]")
    if getattr(args, "csv", None):
        if isinstance(payload, list) and payload:
            rows_to_csv(payload, args.csv)
            print(f"\n[written {args.csv}]")
        else:
            print("\n[--csv supported only for row-list results]",
                  file=sys.stderr)


# -- command implementations -------------------------------------------------

def cmd_fig1(args, config) -> Any:
    from .experiments import motivation
    results = motivation.per_queue_standard_rtt(config=config)
    print(f"{'queues':>6s} {'mean':>10s} {'p99':>10s}")
    for n_queues, stats in sorted(results.items()):
        print(f"{n_queues:6d} {_us(stats.mean)} {_us(stats.p99)}")
    return {str(k): asdict(v) for k, v in results.items()}


def cmd_fig2(args, config) -> Any:
    from .experiments import motivation
    results = motivation.per_queue_fractional_throughput(config=config)
    for threshold, gbps in sorted(results.items()):
        print(f"K={threshold:4.0f} pkts -> {gbps:5.2f} Gbps")
    return {str(k): v for k, v in results.items()}


def _victim(config, threshold: float, flows: int) -> Any:
    from .experiments import motivation
    result = motivation.per_port_victim(threshold, flows, config=config)
    print(f"per-port K={threshold:.0f}, 1 flow vs {flows} flows:")
    print(f"  queue 1: {result.queue1_gbps:5.2f} Gbps")
    print(f"  queue 2: {result.queue2_gbps:5.2f} Gbps")
    print(f"  fair-share error: {result.fair_share_error:.2f}")
    return asdict(result)


def cmd_fig3(args, config) -> Any:
    return _victim(config, 16.0, 8)


def cmd_fig6(args, config) -> Any:
    return _victim(config, 65.0, 8)


def cmd_fig7(args, config) -> Any:
    return _victim(config, 65.0, 40)


def _trace_pair(traces) -> Any:
    enq, deq = traces["enqueue"], traces["dequeue"]
    print(f"  enqueue peak {enq.peak:3d} pkts | dequeue peak {deq.peak:3d} "
          f"pkts | reduction {100 * (1 - deq.peak / enq.peak):4.1f}%")
    return {"enqueue_peak": enq.peak, "dequeue_peak": deq.peak}


def cmd_fig4(args, config) -> Any:
    from .experiments import marking_point
    print("DCTCP marking point (4 flows, 1 Gbps):")
    return _trace_pair(marking_point.dctcp_enqueue_dequeue(config=config))


def cmd_fig5(args, config) -> Any:
    from .experiments import marking_point
    trace = marking_point.tcn_trace(config=config)
    print(f"TCN (dequeue-only): peak {trace.peak} pkts, "
          f"steady mean {trace.steady_mean:.1f}")
    return {"peak": trace.peak}


def cmd_fig8(args, config) -> Any:
    from .experiments import static_flows
    result = static_flows.weighted_fair_sharing("pmsb", config=config)
    print(f"PMSB DWRR 1:4 -> q1 {result.queue_gbps[0]:.2f} G, "
          f"q2 {result.queue_gbps[1]:.2f} G")
    return result.queue_gbps


def cmd_fig9(args, config) -> Any:
    from .experiments import static_flows
    results = static_flows.rtt_distribution(config=config)
    print(f"{'scheme':18s} {'mean':>10s} {'p99':>10s}")
    for name, stats in results.items():
        print(f"{name:18s} {_us(stats.mean)} {_us(stats.p99)}")
    return {k: asdict(v) for k, v in results.items()}


def cmd_fig10(args, config) -> Any:
    from .experiments import static_flows
    result = static_flows.weighted_fair_sharing(
        "pmsb", flows_queue2=100, warmup_fraction=0.5, stagger=5e-3,
        config=config.evolve(duration=max(config.duration, 0.03)))
    print(f"PMSB DWRR 1:100 -> q1 {result.queue_gbps[0]:.2f} G, "
          f"q2 {result.queue_gbps[1]:.2f} G")
    return result.queue_gbps


def cmd_fig11(args, config) -> Any:
    from .experiments import marking_point
    print("PMSB marking point (4 flows, 1 Gbps):")
    return _trace_pair(marking_point.pmsb_trace(config=config))


def cmd_fig12(args, config) -> Any:
    from .experiments import marking_point
    print("PMSB(e) marking point (4 flows, 1 Gbps):")
    return _trace_pair(marking_point.pmsbe_trace(config=config))


def _policy(result) -> Any:
    for _t0, _t1, label in result.phases:
        rates = result.phase_gbps[label]
        cells = "  ".join(f"q{q + 1}={rates[q]:5.2f}G" for q in sorted(rates))
        print(f"  {label:12s} {cells}")
    return {label: result.phase_gbps[label]
            for _t0, _t1, label in result.phases}


def cmd_fig13(args, config) -> Any:
    from .experiments import static_flows
    print("PMSB over SP+WFQ (expect 5 / 2.5 / 2.5 G settled):")
    return _policy(static_flows.scheduler_sp_wfq(config=config))


def cmd_fig14(args, config) -> Any:
    from .experiments import static_flows
    print("PMSB over SP (expect 5 / 3 / 2 G settled):")
    return _policy(static_flows.scheduler_sp(config=config))


def cmd_fig15(args, config) -> Any:
    from .experiments import static_flows
    print("PMSB over WFQ (expect 10 G -> 5 / 5 G):")
    return _policy(static_flows.scheduler_wfq(config=config))


def _print_fct(rows) -> None:
    from .metrics.fct import SizeClass
    print(f"{'scheme':10s} {'load':>5s} {'overall':>9s} {'sm avg':>9s} "
          f"{'sm p99':>9s} {'lg avg':>9s}")
    for row in rows:
        print(f"{row.scheme:10s} {row.load:5.1f} {_ms(row, None, 'mean')} "
              f"{_ms(row, SizeClass.SMALL, 'mean')} "
              f"{_ms(row, SizeClass.SMALL, 'p99')} "
              f"{_ms(row, SizeClass.LARGE, 'mean')}")


def cmd_table1(args, config) -> Any:
    from .core.capabilities import capability_table
    print(capability_table())
    return None


def cmd_theorem(args, config) -> Any:
    from .experiments import analysis_validation
    rows = analysis_validation.threshold_bound_sweep(config=config)
    print(f"{'k_i/bound':>9s} {'predicted ok':>13s} {'utilization':>12s}")
    for row in rows:
        print(f"{row.queue_threshold / row.bound:9.2f} "
              f"{str(row.predicted_underflow_free):>13s} "
              f"{row.utilization:12.3f}")
    return rows


def cmd_ablation(args, config) -> Any:
    from .experiments import ablations
    print("blindness scale sweep (1:8 victim scenario):")
    rows = ablations.blindness_aggressiveness(config=config)
    for row in rows:
        print(f"  scale {row.parameter:4.2f}: q1 {row.queue1_gbps:5.2f} G, "
              f"err {row.fair_share_error:4.2f}, "
              f"RTT p99 {row.rtt_p99_us:4.0f} us")
    return rows


def cmd_pool(args, config) -> Any:
    from .experiments import extensions
    result = extensions.service_pool_victim(config=config)
    print(f"shared-pool marking, disjoint links:")
    print(f"  port A (1 flow):  {result.port_a_gbps:5.2f} G "
          f"({result.port_a_utilization * 100:.0f}% of its own link)")
    print(f"  port B (8 flows): {result.port_b_gbps:5.2f} G")
    return asdict(result)


def cmd_burst(args, config) -> Any:
    from .experiments import extensions
    print("32-way micro-burst vs buffer-sharing policy (DT alpha=2):")
    config = config.evolve(duration=max(config.duration, 0.04))
    rows = []
    for hog in (True, False):
        for policy in extensions.BUFFER_POLICIES:
            rows.append(extensions.microburst_absorption(
                policy=policy, hog_active=hog, dt_alpha=2.0, config=config))
    for row in rows:
        p99 = (f"{row.burst_fct_p99 * 1e3:6.2f}ms"
               if row.burst_fct_p99 else "    n/a")
        print(f"  hog={str(row.hog_active):5s} {row.policy:7s} "
              f"drops={row.burst_drops:4d} p99={p99}")
    return rows


def cmd_transports(args, config) -> Any:
    from .experiments import extensions
    print("1:8 victim scenario across transports:")
    rows = []
    for transport in ("dctcp", "dcqcn"):
        for marker in ("per-port", "pmsb"):
            rows.append(extensions.transport_agnostic_victim(
                transport=transport, marker=marker, config=config))
    for row in rows:
        print(f"  {row.transport:6s} {row.marker:9s} "
              f"victim={row.victim_gbps:5.2f}G "
              f"others={row.others_gbps:5.2f}G "
              f"err={row.fair_share_error:.2f}")
    return rows


def _print_victim_rows(rows) -> None:
    print(f"{'scheme':16s} {'loss':>8s} {'q1':>6s} {'q2':>6s} "
          f"{'err':>5s} {'drops':>7s}")
    for row in rows:
        dropped = sum(row.drops.values())
        print(f"{row.scheme:16s} {row.loss_rate:8.4f} "
              f"{row.queue1_gbps:5.2f}G {row.queue2_gbps:5.2f}G "
              f"{row.fair_share_error:5.2f} {dropped:7d}")


def cmd_chaos3(args, config) -> Any:
    from .experiments import chaos
    print(f"1:8 victim scenario under {args.model} loss "
          f"(bottleneck wire):")
    rows = []
    for scheme in ("per-port", "pmsb"):
        for rate in args.loss_rates:
            rows.append(chaos.chaos_victim(
                scheme, loss_rate=rate, model=args.model, config=config))
    _print_victim_rows(rows)
    return rows


def cmd_chaos8(args, config) -> Any:
    from .experiments import chaos
    print(f"PMSB DWRR 1:4 fair sharing under {args.model} loss:")
    rows = [chaos.chaos_fair_share("pmsb", loss_rate=rate,
                                   model=args.model, config=config)
            for rate in args.loss_rates]
    _print_victim_rows(rows)
    return rows


def _print_chaos(rows) -> None:
    from .metrics.fct import SizeClass
    print(f"{'scheme':16s} {'load':>5s} {'loss':>8s} {'overall':>9s} "
          f"{'sm p99':>9s} {'drops':>8s}")
    for row in rows:
        print(f"{row.fct.scheme:16s} {row.fct.load:5.1f} "
              f"{row.loss_rate:8.4f} {_ms(row, None, 'mean')} "
              f"{_ms(row, SizeClass.SMALL, 'p99')} "
              f"{sum(row.drops.values()):8d}")


def _print_sharedbuf(rows) -> None:
    print(f"{'scheme':16s} {'policy':7s} {'knob':>8s} {'victim':>7s} "
          f"{'hogs':>7s} {'err':>6s} {'bdrops':>6s} {'bloss':>6s} "
          f"{'peak':>5s}")
    for row in rows:
        knob = (f"a={row.alpha:g}" if row.policy == "dt"
                else f"{row.target_delay * 1e6:.0f}us"
                if row.policy == "bshare" else "--")
        print(f"{row.scheme:16s} {row.policy:7s} {knob:>8s} "
              f"{row.victim_gbps:6.2f}G {row.hogs_gbps:6.2f}G "
              f"{row.victim_err:6.3f} {row.burst_drops:6d} "
              f"{row.burst_loss_fraction:6.3f} {row.pool_peak:5d}")


def _print_xscale(rows) -> None:
    print(f"{'hosts':>6s} {'fabric':30s} {'scheme':10s} {'victim':>7s} "
          f"{'hogs':>7s} {'err':>6s}")
    for row in rows:
        print(f"{row.n_hosts:6d} {row.topology:30s} {row.scheme:10s} "
              f"{row.victim_gbps:6.2f}G {row.hogs_gbps:6.2f}G "
              f"{row.victim_err:6.3f}")


#: The store-backed commands: command -> (its row in
#: :mod:`repro.experiments.families`, its table printer).
SWEEPS = {
    "sweep": ("FCT", _print_fct),
    "chaos-sweep": ("CHAOS", _print_chaos),
    "sharedbuf": ("SHAREDBUF", _print_sharedbuf),
    "xscale": ("XSCALE", _print_xscale),
}


def _family(command: str):
    from .experiments import families
    return getattr(families, SWEEPS[command][0])


#: Grid axis -> (flag, argparse keywords): a store-backed command takes
#: the flag of every axis its family row sweeps, defaulting to the
#: row's values (a flag without ``nargs`` sets a one-value axis).
AXIS_FLAGS = {
    "load": ("--loads", {"type": float, "nargs": "+",
                         "help": "override the profile's load points"}),
    "loss_rate": ("--loss-rates", {"type": float, "nargs": "+",
                                   "help": "average per-packet loss rates"}),
    "scheme_name": ("--schemes", {"nargs": "+",
                                  "help": "marking schemes to compare"}),
    "scheduler_name": ("--scheduler", {
        "choices": ("dwrr", "wfq"),
        "help": "scheduler every switch port runs"}),
    "model": ("--model", {
        "choices": ("iid-loss", "gilbert-elliott", "crc-corrupt"),
        "help": "loss model to inject"}),
    "hogs": ("--hogs", {"type": int,
                        "help": "hog flows crushing the victim's downlink"}),
    "topology": ("--ladder", {
        "nargs": "+", "metavar": "SPEC",
        "help": "topology specs to walk, e.g. "
                "'clos:tiers=2,ports=16,oversub=2'"}),
}

#: The shared-buffer policy axis is spelled by three flags: the
#: private-buffer baseline, then DT across ``--alphas`` and BShare
#: across ``--target-delays``, all at ``--capacity``
#: (``families.default_policies``).  Flag -> (the families constant
#: that is its default, argparse keywords).
POLICY_FLAGS = {
    "--capacity": ("DEFAULT_CAPACITY", {
        "type": int, "help": "switch-wide shared memory in packets"}),
    "--alphas": ("DEFAULT_ALPHAS", {
        "type": float, "nargs": "+",
        "help": "dynamic-threshold alpha grid"}),
    "--target-delays": ("DEFAULT_TARGET_DELAYS", {
        "type": float, "nargs": "+",
        "help": "BShare queueing-delay targets in seconds"}),
}

#: ``sweep`` runs the paper's full scheme line-up (Figs. 16-27): its
#: scheme axis keeps the row's default and takes no flag.
_UNFLAGGED = {("sweep", "scheme_name")}


def _add_axis_flags(cmd: argparse.ArgumentParser, name: str,
                    axes) -> None:
    from .experiments import families
    flags = []
    for axis, default in axes:
        if axis == "shared_buffer":
            flags += [(flag, getattr(families, constant), options)
                      for flag, (constant, options) in POLICY_FLAGS.items()]
        elif (name, axis) not in _UNFLAGGED:
            flags.append((AXIS_FLAGS[axis][0], default, AXIS_FLAGS[axis][1]))
    for flag, default, options in flags:
        if default is not None:
            values = default if isinstance(default, tuple) else (default,)
            options = dict(
                options, default=list(values) if "nargs" in options
                else values[0],
                help=f"{options['help']} (default: "
                     f"{' '.join(str(value) for value in values)})")
        cmd.add_argument(flag, **options)


def _grid(args, family) -> Dict[str, Any]:
    """The grid a store-backed command's flags select."""
    grid: Dict[str, Any] = {}
    for axis, _default in family.axes:
        if axis == "shared_buffer":
            from .experiments.families import default_policies
            grid[axis] = (None,) + default_policies(
                args.capacity, args.alphas, args.target_delays)
        elif (args.command, axis) not in _UNFLAGGED:
            flag, options = AXIS_FLAGS[axis]
            value = getattr(args, flag[2:].replace("-", "_"))
            grid[axis] = (value if value is None or "nargs" in options
                          else (value,))
    return grid


def cmd_sweep(args, config) -> Any:
    """Every store-backed command: its family row's grid, as its flags
    select it, through :func:`~repro.store.sweep.run_sweep`."""
    from .store.sweep import run_sweep
    family = _family(args.command)
    rows = run_sweep(family, _grid(args, family), config)
    SWEEPS[args.command][1](rows)
    return rows


def cmd_coexist(args, config) -> Any:
    from .experiments import extensions
    baseline = extensions.pmsbe_coexistence(False, config=config)
    upgraded = extensions.pmsbe_coexistence(True, config=config)
    print("incremental PMSB(e) deployment (per-port switch, DCTCP peers):")
    print(f"  stock DCTCP victim: {baseline.victim_gbps:5.2f} G "
          f"(err {baseline.fair_share_error:.2f})")
    print(f"  upgraded victim:    {upgraded.victim_gbps:5.2f} G "
          f"(err {upgraded.fair_share_error:.2f})")
    return {"baseline": asdict(baseline), "upgraded": asdict(upgraded)}


COMMANDS = {
    "fig1": (cmd_fig1, "Fig. 1 — per-queue standard threshold RTT"),
    "fig2": (cmd_fig2, "Fig. 2 — fractional threshold throughput"),
    "fig3": (cmd_fig3, "Fig. 3 — per-port victim (K=16, 1:8)"),
    "fig4": (cmd_fig4, "Fig. 4 — DCTCP enqueue vs dequeue marking"),
    "fig5": (cmd_fig5, "Fig. 5 — TCN marking point"),
    "fig6": (cmd_fig6, "Fig. 6 — per-port K=65, 1:8"),
    "fig7": (cmd_fig7, "Fig. 7 — per-port K=65, 1:40"),
    "fig8": (cmd_fig8, "Fig. 8 — PMSB DWRR fair sharing (1:4)"),
    "fig9": (cmd_fig9, "Fig. 9 — RTT distribution by scheme"),
    "fig10": (cmd_fig10, "Fig. 10 — PMSB fair sharing (1:100)"),
    "fig11": (cmd_fig11, "Fig. 11 — PMSB marking point"),
    "fig12": (cmd_fig12, "Fig. 12 — PMSB(e) marking point"),
    "fig13": (cmd_fig13, "Fig. 13 — SP+WFQ policy"),
    "fig14": (cmd_fig14, "Fig. 14 — SP policy"),
    "fig15": (cmd_fig15, "Fig. 15 — WFQ policy"),
    "sweep": (cmd_sweep, "Figs. 16-27 — large-scale FCT sweep"),
    "table1": (cmd_table1, "Table I — scheme capabilities"),
    "theorem": (cmd_theorem, "Theorem IV.1 — threshold bound validation"),
    "ablation": (cmd_ablation, "AB1 — blindness aggressiveness sweep"),
    "pool": (cmd_pool, "E-POOL — service-pool conjecture (§II-B)"),
    "coexist": (cmd_coexist, "E-COEXIST — incremental deployment (§V-B)"),
    "burst": (cmd_burst, "E-BURST — micro-burst vs buffer policy"),
    "transports": (cmd_transports,
                   "E-TRANSPORT — PMSB across DCTCP and DCQCN"),
    "chaos3": (cmd_chaos3, "C-FIG3 — victim scenario under wire loss"),
    "chaos8": (cmd_chaos8, "C-FIG8 — PMSB fair sharing under wire loss"),
    "chaos-sweep": (cmd_sweep, "C-SWEEP — FCT sweep across loss rates"),
    "sharedbuf": (cmd_sweep,
                  "X-SHAREDBUF — buffer-contention sweep (DT + BShare)"),
    "xscale": (cmd_sweep,
               "X-SCALE — victim-flow error vs fabric size (48-1024)"),
}

#: The paper-figure commands: each hands the CLI's RunConfig to
#: ``run_incast`` whole, so all three spec flags reach the fabric.
_INCAST = tuple(f"fig{n}" for n in range(1, 16)) + ("theorem", "ablation")

#: Flag -> the commands whose runner reads it *and* keys it.  The table
#: is total: anywhere else the flag exits 2 instead of being parsed and
#: dropped.  A family's own sweep variable beats the matching flag
#: (chaos* inject their loss grid, sharedbuf its policy grid, xscale
#: its ladder); the extension builders (pool / coexist / burst /
#: transports) wire their own two-port fabrics and table1 simulates
#: nothing.
_READ_BY = {
    "faults": _INCAST + ("sweep", "sharedbuf"),
    "topology": _INCAST + ("chaos3", "chaos8", "sweep", "chaos-sweep",
                           "sharedbuf"),
    "shared_buffer": _INCAST + ("chaos3", "chaos8", "sweep", "chaos-sweep",
                                "xscale"),
}


# -- run-store maintenance commands ------------------------------------------

def _record_json(record) -> str:
    return json.dumps(
        {"key": record.key, "spec": record.spec, "result": record.result,
         "provenance": record.provenance},
        indent=2, sort_keys=True)


def _resolve_record(store: RunStore, key_prefix: str):
    """The unique record matching ``key_prefix``, or None (with a
    message on stderr) on a miss or an ambiguous prefix."""
    matches = store.find(key_prefix)
    if not matches:
        print(f"no record matching {key_prefix!r} under {store.root}",
              file=sys.stderr)
        return None
    if len(matches) > 1:
        print(f"{key_prefix!r} is ambiguous ({len(matches)} matches):",
              file=sys.stderr)
        for record in matches:
            print(f"  {record.key}", file=sys.stderr)
        return None
    return matches[0]


def _elide_params(params: Any, budget: int = 44) -> str:
    """Render a spec's params as key-sorted ``k=v`` cells that fit
    ``budget`` columns.

    Entries are dropped whole — never cut mid-key or mid-value — and
    the elision is explicit: ``alpha=2,policy=dt +3 more``.  The first
    entry always prints, even when it alone blows the budget, so every
    row names at least one parameter.
    """
    if isinstance(params, (list, tuple)):
        params = dict(params)
    if not params:
        return "-"
    items = [f"{key}={params[key]}" for key in sorted(params)]
    cell = items[0]
    shown = 1
    for item in items[1:]:
        trial = f"{cell},{item}"
        # Reserve room for a worst-case " +NN more" tail.
        if len(trial) + 9 > budget:
            break
        cell = trial
        shown += 1
    if shown < len(items):
        cell += f" +{len(items) - shown} more"
    return cell


def cmd_runs_list(args) -> int:
    from .store.runstore import RunStore
    store = RunStore(args.cache_dir)
    keys = store.keys()
    if not keys:
        print(f"[no records under {store.root}]")
        return 0
    print(f"{'key':12s} {'experiment':12s} {'scheme':10s} {'sched':5s} "
          f"{'load':>5s} {'seed':>10s} {'profile':8s} {'elapsed':>9s} "
          f"{'params':s}")
    for key in keys:
        record = store.get(key)
        if record is None:  # reported on stderr by the store
            print(f"{key[:12]:12s} corrupt")
            continue
        spec = record.spec
        elapsed = record.provenance.get("elapsed_s")
        print(f"{record.key[:12]:12s} {spec.get('experiment', '?'):12s} "
              f"{spec.get('scheme', '-'):10s} "
              f"{spec.get('scheduler', '-'):5s} "
              f"{spec.get('load', 0.0):5.2f} {spec.get('seed', 0):10d} "
              f"{record.provenance.get('profile', '-'):8s} "
              f"{f'{elapsed:8.2f}s' if elapsed is not None else '       --'} "
              f"{_elide_params(spec.get('params'))}")
    corrupt = f", {len(store.corrupt)} corrupt" if store.corrupt else ""
    print(f"[{len(keys) - len(store.corrupt)} record(s){corrupt} "
          f"under {store.root}]")
    return 0


def cmd_runs_show(args) -> int:
    from .store.runstore import RunStore
    record = _resolve_record(RunStore(args.cache_dir), args.key)
    if record is None:
        return 1
    print(_record_json(record))
    return 0


def cmd_runs_diff(args) -> int:
    from .store.runstore import RunStore, diff_records
    store = RunStore(args.cache_dir)
    record_a = _resolve_record(store, args.key_a)
    record_b = _resolve_record(store, args.key_b)
    if record_a is None or record_b is None:
        return 1
    delta = diff_records(record_a, record_b)
    if not delta["spec"] and not delta["result"]:
        print("records are identical")
        return 0
    for section in ("spec", "result"):
        for field_name, (va, vb) in delta[section].items():
            print(f"{section}.{field_name}: {va!r} -> {vb!r}")
    return 0


def cmd_runs_gc(args) -> int:
    from .store.runstore import RunStore
    removed = RunStore(args.cache_dir).gc(
        older_than_days=args.older_than_days)
    total = sum(removed.values())
    detail = ", ".join(f"{k}={v}" for k, v in sorted(removed.items()) if v)
    print(f"removed {total} file(s)" + (f" ({detail})" if detail else ""))
    return 0


RUNS_COMMANDS = {
    "list": (cmd_runs_list, "list stored run records"),
    "show": (cmd_runs_show, "print one record (by key prefix) as JSON"),
    "diff": (cmd_runs_diff, "field-level diff of two records"),
    "gc": (cmd_runs_gc, "reclaim temp files and stale/aged records"),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The full CLI parser.  ``command`` — the one about to be parsed,
    which ``_dispatch`` reads off argv — keeps the family options (and
    the family rows their defaults come from) to that command's
    sub-parser; None builds them for every command."""
    # One shared parent so every experiment command spells the common
    # flags identically (and `fig3 --help` documents the same contract
    # as `sweep --help`).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", help="write results as JSON")
    common.add_argument("--csv", help="write row results as CSV")
    common.add_argument("--duration", type=float, default=None,
                        help="simulated seconds for static experiments "
                             "(default: the profile's static duration, "
                             "else 0.03)")
    common.add_argument("--profile", choices=tuple(PROFILES), default=None,
                        help="scale profile (tiny/bench/paper): sweep "
                             "fabric size and static default duration")
    common.add_argument("--jobs", type=int, default=None,
                        help="worker processes (1 = serial, 0 = all "
                             "cores; points are independent, results "
                             "are identical at any jobs level)")
    common.add_argument("--audit", action="store_true",
                        help="run under the fabric invariant auditor "
                             "(cross-layer conservation checks; raises "
                             "on the first violation)")
    for dest, (_module, _spec_class, help_text) in SPEC_FLAGS.items():
        if dest == "faults":
            common.add_argument(_flag(dest), action="append",
                                metavar="SPEC", help=help_text)
        else:
            common.add_argument(_flag(dest), metavar="SPEC", default=None,
                                help=help_text)

    store_dir = argparse.ArgumentParser(add_help=False)
    store_dir.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                           help="run-store root directory "
                                f"(default: {DEFAULT_CACHE_DIR})")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PMSB (ICDCS 2018) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, (_fn, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        if name in SWEEPS:
            cmd.add_argument("--seed", type=int, default=1)
            cmd.add_argument("--cache-dir", default=None,
                             help="content-addressed run store: completed "
                                  "points are persisted here and skipped "
                                  "on re-run, so a re-run resumes an "
                                  "interrupted sweep")
            cmd.add_argument("--force", action="store_true",
                             help="recompute cached points and overwrite "
                                  "their records")
        if name == "sweep":
            cmd.add_argument("--profile-events", action="store_true",
                             help="print a per-run event/heap profile "
                                  "(events/sec, category counters, heap "
                                  "size over time)")
        if command not in (None, name):
            continue
        if name in SWEEPS:
            _add_axis_flags(cmd, name, _family(name).axes)
        elif name in ("chaos3", "chaos8"):
            # The static chaos variants share the chaos row's loss grid.
            _add_axis_flags(cmd, name, [
                (axis, values) for axis, values in _family("chaos-sweep").axes
                if axis in ("loss_rate", "model")])

    runs = sub.add_parser("runs",
                          help="inspect the content-addressed run store")
    runs_sub = runs.add_subparsers(dest="runs_command")
    for name, (_fn, help_text) in RUNS_COMMANDS.items():
        runs_cmd = runs_sub.add_parser(name, help=help_text,
                                       parents=[store_dir])
        if name == "show":
            runs_cmd.add_argument("key", help="record key (prefix ok)")
        elif name == "diff":
            runs_cmd.add_argument("key_a", help="first key (prefix ok)")
            runs_cmd.add_argument("key_b", help="second key (prefix ok)")
        elif name == "gc":
            runs_cmd.add_argument("--older-than-days", type=float,
                                  default=None,
                                  help="also remove records older than "
                                       "this many days")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # `repro runs show … | head` closes our stdout mid-print; exit
        # quietly instead of dumping a traceback.  Point the fd at
        # /dev/null so the interpreter's shutdown flush stays silent.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(argv: Optional[List[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no options of its own, so the command,
    # when there is one, is the first argument (none at all means `list`).
    parser = build_parser(argv[0] if argv else "list")
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        for name, (_fn, help_text) in COMMANDS.items():
            print(f"  {name:10s} {help_text}")
        print(f"  {'runs':10s} run-store maintenance "
              f"({'/'.join(RUNS_COMMANDS)})")
        return 0
    if args.command == "runs":
        if args.runs_command is None:
            for name, (_fn, help_text) in RUNS_COMMANDS.items():
                print(f"  runs {name:5s} {help_text}")
            return 0
        fn, _help = RUNS_COMMANDS[args.runs_command]
        return fn(args)
    if getattr(args, "force", False) and not args.cache_dir:
        parser.error("--force requires --cache-dir")
    fn, _help = COMMANDS[args.command]
    specs = _parse_spec_flags(parser, args)
    for dest, commands in _READ_BY.items():
        if getattr(args, dest) is not None and args.command not in commands:
            only = (f" (only {', '.join(commands)} do)"
                    if len(commands) <= 5 else "")
            parser.error(f"{_flag(dest)}: {args.command} does not support "
                         f"it{only}")
    # Input a runner cannot honour — a fabric too small for the
    # scenario, say — is one `error:` line and exit 2; anything else
    # keeps its traceback.
    try:
        payload = fn(args, _run_config(args, specs))
    except ValueError as exc:
        parser.error(str(exc))
    if payload is not None:
        _maybe_export(args, payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
