"""Per-layer tracing from outside the simulator.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever a caller looks it up: on its class for methods, and in every
loaded `fognet` module that holds the function under its own name (for
example `constrained_route`, which `fogctrl` imports by name). Install
before the `Simulation` is built, so bound methods captured at build
time (`SliceManager` keeps `FogControl.physical_capacity`) are wrappers
too. Nothing under `src/` changes.

Each call is timed. A call's self time is its duration minus the time
covered by its direct child calls. With `keep_spans`, every call is also
kept in memory as a span and written at exit as Chrome Trace Event JSON,
which Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (stat name, module, attribute path). The stat name is
# <module>.<Class>.<function> with the "fognet." prefix dropped.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("scenario.parse_scenario", "fognet.scenario", "parse_scenario"),
    ("topology.generate_clustered", "fognet.topology", "generate_clustered"),
    ("workload.generate_workload", "fognet.workload", "generate_workload"),
    ("simulation.Simulation.__init__", "fognet.simulation", "Simulation.__init__"),
    ("simulation.Simulation.write_outputs", "fognet.simulation", "Simulation.write_outputs"),
    ("engine.recompute_fair_shares", "fognet.engine", "recompute_fair_shares"),
    ("dataplane.NetworkState.recompute", "fognet.dataplane", "NetworkState.recompute"),
    ("dataplane.NetworkState.install_flow", "fognet.dataplane", "NetworkState.install_flow"),
    ("dataplane.NetworkState.remove_flow", "fognet.dataplane", "NetworkState.remove_flow"),
    ("dataplane.constrained_route", "fognet.dataplane", "constrained_route"),
    ("fogctrl.FogControl.handle_flow_request", "fognet.fogctrl", "FogControl.handle_flow_request"),
    ("fogctrl.FogControl.slice_gbr_ok", "fognet.fogctrl", "FogControl.slice_gbr_ok"),
    ("fogctrl.FogControl.physical_capacity", "fognet.fogctrl", "FogControl.physical_capacity"),
    ("fogctrl.FogControl.scoring_utilization", "fognet.fogctrl", "FogControl.scoring_utilization"),
    ("fogctrl.FogControl.handover", "fognet.fogctrl", "FogControl.handover"),
    ("fogctrl.FogControl.redecide_flow", "fognet.fogctrl", "FogControl.redecide_flow"),
    ("cloudctrl.CloudControl.setup_external_path", "fognet.cloudctrl", "CloudControl.setup_external_path"),
    ("cloudctrl.CloudControl.setup_interfog_path", "fognet.cloudctrl", "CloudControl.setup_interfog_path"),
    ("cloudctrl.CloudControl.on_backhaul_change", "fognet.cloudctrl", "CloudControl.on_backhaul_change"),
    ("slicing.SliceManager.entitled", "fognet.slicing", "SliceManager.entitled"),
    ("slicing.SliceManager.compute_slice_allocations", "fognet.slicing", "SliceManager.compute_slice_allocations"),
    ("metrics.MetricsCollector.set_backhaul_rate", "fognet.metrics", "MetricsCollector.set_backhaul_rate"),
    ("metrics.MetricsCollector.tick_row", "fognet.metrics", "MetricsCollector.tick_row"),
)

# Stats whose per-call durations are kept for percentiles.
KEEP_DURATIONS = {"engine.recompute_fair_shares", "fogctrl.FogControl.handle_flow_request"}


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    raised: int = 0
    size_sum: int = 0
    durations_ns: List[int] = field(default_factory=list)


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.stats: Dict[str, Stat] = {name: Stat() for name, _, _ in TARGETS}
        # (name, start_ns, dur_ns) of every call, kept only for a timeline.
        self.spans: Optional[List[Tuple[str, int, int]]] = [] if keep_spans else None
        self._children: List[List[int]] = []  # child time of each open span
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        children = self._children
        spans = self.spans
        keep = name in KEEP_DURATIONS
        sized = name == "engine.recompute_fair_shares"  # records the flows handed to the allocator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = [0]
            children.append(inner)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dur = perf_counter_ns() - start
                children.pop()
                if children:
                    children[-1][0] += dur
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - inner[0]
                if keep:
                    stat.durations_ns.append(dur)
                if sized:
                    stat.size_sum += len(args[0])
                if spans is not None:
                    spans.append((name, start, dur))

        return traced

    def install(self) -> None:
        """Wrap every target at each name its callers use."""
        importlib.import_module("fognet.cli")  # loads every module that imports a target by name
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fognet" or mod_name.startswith("fognet.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self, scale: float = 1.0) -> Dict[str, dict]:
        """Counts, and times multiplied by `scale` (nominal ns per host ns)."""
        return {
            name: {
                "calls": s.calls,
                "self_ns": s.self_ns * scale,
                "raised": s.raised,
                "size_sum": s.size_sum,
                "durations_ns": [ns * scale for ns in s.durations_ns],
            }
            for name, s in self.stats.items()
        }

    def write_chrome_trace(self, path: str, event_spans: List[Tuple[str, int, int, int]], meta: dict) -> None:
        """Chrome Trace Event JSON: one complete ("X") event per span, in µs.

        `event_spans` adds one (name, start_ns, dur_ns, index) span per
        engine event; layer spans nest inside the event they ran under."""
        spans = [(name, start, dur, {}) for name, start, dur in self.spans or ()]
        spans += [(name, start, dur, {"event": index}) for name, start, dur, index in event_spans]
        origin = min((s[1] for s in spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": dur / 1000,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
            for name, start, dur, args in sorted(spans, key=lambda s: (s[1], -s[2]))
        ]
        doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
        with open(path, "w") as fh:
            json.dump(doc, fh)
