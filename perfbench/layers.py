"""Per-layer attribution of one ``cProfile`` pass, taken from outside.

A layer is a package under ``src/repro/``.  Self time and call counts
are summed per layer; spans are cumulative time / call counts of public
boundary functions, found by file and qualified name — one that no
longer exists reads None, never an error.

cProfile charges every Python call but no native work, so shares lean
towards call-heavy code; the numbers locate candidates, the untraced
end-to-end metrics judge them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .catalog import LAYERS

_ENGINE = "sim/engine.py"
_FCT = "metrics/fct.py"

#: metric -> ("time" | "calls", [(file under src/repro/, qualified name)]).
#: With several functions the metric counts entries into the group:
#: calls from one member to another (``schedule`` delegating to ``at``)
#: are subtracted, so it survives a change in who delegates to whom.
SPANS: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {
    "sim.run_s": ("time", [(_ENGINE, "Simulator.run")]),
    "sim.schedule_calls": ("calls", [(_ENGINE, "Simulator.schedule"),
                                     (_ENGINE, "Simulator.at"),
                                     (_ENGINE, "Simulator.at_ff")]),
    "net.build_s": ("time", [("net/topology.py", "TopologySpec.build")]),
    "net.port_enqueues": ("calls", [("net/port.py", "Port.enqueue")]),
    "transport.open_flow_s": ("time", [("transport/endpoints.py",
                                        "open_flow")]),
    "transport.open_flows": ("calls", [("transport/endpoints.py",
                                        "open_flow")]),
    "workloads.generate_s": ("time", [("workloads/generator.py",
                                       "PoissonFlowGenerator.generate")]),
    "metrics.summary_s": ("time", [(_FCT, "FctCollector.summary"),
                                   (_FCT, "FctCollector.summary_by_class")]),
}


def _repro_path(code: Any) -> Optional[str]:
    """``sim/engine.py`` for a frame under ``…/repro/``, else None."""
    if isinstance(code, str):  # builtin
        return None
    path = code.co_filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    return None if cut < 0 else path[cut + len("/repro/"):]


def layer_of(code: Any) -> str:
    path = _repro_path(code)
    if path is None or "/" not in path:
        return "other"
    package = path.split("/", 1)[0]
    return package if package in LAYERS else "other"


def _span(entries: Iterable[Any], kind: str,
          functions: List[Tuple[str, str]]) -> Optional[float]:
    members = [entry for entry in entries
               if not isinstance(entry.code, str)
               and (_repro_path(entry.code), entry.code.co_qualname)
               in functions]
    if not members:
        return None
    inside = {id(entry.code) for entry in members}
    field = "totaltime" if kind == "time" else "callcount"
    total = sum(getattr(entry, field) for entry in members)
    for entry in members:
        for callee in entry.calls or ():
            if id(callee.code) in inside:
                total -= getattr(callee, field)
    return total


def summarize_profile(entries: List[Any]) -> Dict[str, Any]:
    """``L.self_s`` and ``L.calls`` for every layer, and the spans."""
    metrics: Dict[str, Any] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.calls"] = 0
    for entry in entries:
        layer = layer_of(entry.code)
        metrics[f"{layer}.self_s"] += entry.inlinetime
        metrics[f"{layer}.calls"] += entry.callcount
    for name, (kind, functions) in SPANS.items():
        metrics[name] = _span(entries, kind, functions)
    return metrics
