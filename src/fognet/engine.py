"""Deterministic discrete-event core and the fluid-rate bandwidth allocator.

Time is integer milliseconds. Events at equal times dequeue in schedule
order via a monotonically increasing sequence counter, so a run is a pure
function of the scheduled inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import count
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from .util import ZERO


class EventKind(str, Enum):
    FLOW_ARRIVAL = "FlowArrival"
    FLOW_DEPARTURE = "FlowDeparture"
    LINK_STATE_CHANGE = "LinkStateChange"
    NODE_STATE_CHANGE = "NodeStateChange"
    HANDOVER_TRIGGER = "HandoverTrigger"
    METRICS_TICK = "MetricsTick"
    # Fog <-> cloud control-plane exchanges (state sync) ride the event
    # queue like everything else instead of blocking calls.
    CONTROL_MESSAGE = "ControlMessage"


@dataclass(frozen=True)
class Event:
    time: int
    seq: int
    kind: EventKind
    subjects: Tuple[str, ...] = ()
    payload: object = field(default=None, compare=False)

    def trace_row(self) -> str:
        return f"{self.time}\t{self.seq}\t{self.kind.value}\t{';'.join(self.subjects) or '-'}"


class SchedulingInPast(Exception):
    pass


class GbrOvercommit(Exception):
    def __init__(self, link_id: str, reserved: Fraction, capacity: Fraction):
        super().__init__(f"link {link_id}: guaranteed rates {reserved} exceed capacity {capacity}")
        self.link_id = link_id


class Engine:
    """Single-threaded event loop; one instance per scenario run."""

    def __init__(self):
        self._now = 0
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = count()
        self._handlers: Dict[EventKind, List[Callable[[Event], None]]] = {}
        self.trace: List[Event] = []

    def now(self) -> int:
        return self._now

    def pending(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, kind: EventKind, subjects: Tuple[str, ...] = (), payload=None) -> Event:
        if time < self._now:
            raise SchedulingInPast(f"cannot schedule {kind.value} at {time}, now is {self._now}")
        event = Event(time=int(time), seq=next(self._seq), kind=kind, subjects=tuple(subjects), payload=payload)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def on(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        self._handlers.setdefault(kind, []).append(handler)

    def run_until(self, t: int) -> None:
        if t < self._now:
            raise SchedulingInPast(f"cannot run backwards to {t}, now is {self._now}")
        while self._heap and self._heap[0][0] <= t:
            _, _, event = heapq.heappop(self._heap)
            self._now = event.time
            self.trace.append(event)
            for handler in self._handlers.get(event.kind, ()):
                handler(event)
        self._now = t


# ---------------------------------------------------------------------------
# fluid link sharing


@dataclass(frozen=True)
class FlowDemand:
    """One flow's view for the allocator: its links, demand, and guarantee."""

    flow_id: str
    links: Tuple[str, ...]
    demand: Fraction
    gbr: Fraction = ZERO


def recompute_fair_shares(
    flows: Iterable[FlowDemand], capacity: Mapping[str, Fraction]
) -> Dict[str, Fraction]:
    """Max-min allocation by a water-level solve over residual capacities.

    `flows` may be any objects with `flow_id`, `links`, `demand` and `gbr`
    (`FlowDemand`, or the dataplane's `InstalledFlow`). A guaranteed-rate
    flow (`gbr > 0`) receives exactly its guarantee, taken from every link
    it lists, once per listing; `GbrOvercommit` is raised when the
    guarantees on a link exceed its capacity. A best-effort flow with
    demand <= 0 gets 0 and one with no links gets its demand.

    Every other best-effort flow rises from 0 at one common level. With
    `avail` the link's capacity left after guarantees and frozen flows and
    `n` the rising flows on it, a link saturates at level `avail/n`. Each
    round one pass over the links finds the lowest level at which a link
    saturates or a rising flow meets its demand, and the links tight at
    it. Their rising flows and the flows whose demand is met freeze at
    that level; then each link they cross is updated once for the round
    (`avail -= level*k`, `n -= k` for its k newly frozen flows). A flow
    that lists a link twice counts once on it. This is progressive
    filling (Bertsekas & Gallager, *Data Networks*, 6.5) taken one
    saturation level at a time; exact Fraction arithmetic, so capacity
    is conserved with no tolerance.
    """
    alloc: Dict[str, Fraction] = {}
    avail: Dict[str, Fraction] = {}
    rising = []
    for flow in flows:
        if flow.gbr > 0:
            alloc[flow.flow_id] = flow.gbr
            for lid in flow.links:
                avail[lid] = avail.get(lid, capacity[lid]) - flow.gbr
        elif flow.demand <= 0:
            alloc[flow.flow_id] = ZERO
        elif not flow.links:
            # unconstrained (e.g. zero-hop local path)
            alloc[flow.flow_id] = flow.demand
        else:
            rising.append(flow)
    for lid, left in avail.items():
        if left < 0:
            raise GbrOvercommit(lid, capacity[lid] - left, capacity[lid])

    users: Dict[str, List] = {}  # link -> best-effort flows crossing it
    crossed: Dict[str, Tuple[str, ...]] = {}  # flow -> its distinct links
    for flow in rising:
        links = flow.links
        if len(set(links)) != len(links):
            links = tuple(dict.fromkeys(links))
        crossed[flow.flow_id] = links
        for lid in links:
            users.setdefault(lid, []).append(flow)
    # Levels are compared as integer pairs (numerator, positive
    # denominator), avoiding a Fraction operation per link per round.
    count: Dict[str, int] = {}  # link -> rising flows on it
    saturates: Dict[str, Tuple[int, int]] = {}  # link with rising flows -> avail/n
    for lid, on in users.items():
        left = avail.setdefault(lid, capacity[lid])
        count[lid] = len(on)
        saturates[lid] = (left.numerator, left.denominator * len(on))
    scale = math.lcm(*(f.demand.denominator for f in rising))

    def scaled_demand(flow) -> int:
        return flow.demand.numerator * (scale // flow.demand.denominator)

    rising.sort(key=scaled_demand)
    wants = [scaled_demand(f) for f in rising]
    next_met = 0  # every flow before rising[next_met] is frozen

    while saturates:
        while rising[next_met].flow_id in alloc:
            next_met += 1
        num, den = wants[next_met], scale
        tight: List[str] = []
        for lid, (p, q) in saturates.items():
            if p * den < num * q:
                num, den = p, q
                tight = [lid]
            elif p * den == num * q:
                tight.append(lid)
        level = Fraction(num, den)

        frozen = []
        for lid in tight:
            for flow in users[lid]:
                if flow.flow_id not in alloc:
                    alloc[flow.flow_id] = level
                    frozen.append(flow)
        met = next_met
        while met < len(rising) and wants[met] * den == num * scale:
            flow = rising[met]
            if flow.flow_id not in alloc:
                alloc[flow.flow_id] = level
                frozen.append(flow)
            met += 1

        touched: Dict[str, int] = {}
        for flow in frozen:
            for lid in crossed[flow.flow_id]:
                touched[lid] = touched.get(lid, 0) + 1
        for lid, k in touched.items():
            n = count[lid] - k
            count[lid] = n
            if n:
                left = avail[lid] - level * k
                avail[lid] = left
                saturates[lid] = (left.numerator, left.denominator * n)
            else:
                del saturates[lid]

    return alloc
