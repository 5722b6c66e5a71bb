"""Deterministic discrete-event core and the max-min solve behind fluid rates.

Time is integer milliseconds. Events at equal times dequeue in schedule
order via a monotonically increasing sequence counter, so a run is a pure
function of the scheduled inputs.

The max-min solve (`FairShareIndex`, `recompute_fair_shares`) has one
caller, `dataplane.NetworkState.recompute`, which owns every fact it
reads: the rising flows, each link's capacity net of guarantees and the
congested links. Guarantees, their overcommit check and the rates of
flows that do not rise stay with `NetworkState`.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, count
from math import gcd
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple


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


class FairShareIndex:
    """The max-min solver's rising flows, kept across solves.

    A flow rises when it is best-effort with demand > 0 and lists at least
    one link; `NetworkState` adds exactly those and removes them again,
    each in O(path), so it keeps one index while some link is congested and
    hands it to every `recompute_fair_shares` call instead of rebuilding
    the inputs per solve. A flow is an `InstalledFlow`: `flow_id`, `links`
    (never one twice) and `rate_units`, its demand in units of `1/unit`
    Mb/s. `len()` counts the rising flows.

    - `crossed`: each rising flow's links. `users`: the rising flows on
      each link, for the links that have any.
    - `buckets`: the rising flows keyed by demand in units. Flows share a
      few demands, so a solve walks the buckets in demand order instead of
      sorting flows.
    - `rounds`: left by the last solve, one `(ln, ld, touched)` per round:
      the round's level `ln/ld` in units and, per link, how many rising
      flows froze at it (`touched`, a `Counter`). `best_effort_on` turns
      them into the best-effort total of any set of links on demand, so a
      solve does no arithmetic for totals nobody reads.
    """

    def __init__(self, flows: Iterable = (), unit: int = 1):
        self.unit = unit
        self.crossed: Dict[str, Tuple[str, ...]] = {}
        self.users: Dict[str, Set[str]] = {}
        self.buckets: Dict[int, Set[str]] = {}
        self.rounds: List[Tuple[int, int, Counter]] = []
        for flow in flows:
            self.add(flow)

    def __len__(self) -> int:
        return len(self.crossed)

    def add(self, flow) -> None:
        fid = flow.flow_id
        self.crossed[fid] = flow.links
        for lid in flow.links:
            self.users.setdefault(lid, set()).add(fid)
        self.buckets.setdefault(flow.rate_units, set()).add(fid)

    def remove(self, flow) -> None:
        fid = flow.flow_id
        del self.crossed[fid]
        users = self.users
        for lid in flow.links:
            on = users[lid]
            on.discard(fid)
            if not on:
                del users[lid]
        bucket = self.buckets[flow.rate_units]
        bucket.discard(fid)
        if not bucket:
            del self.buckets[flow.rate_units]

    def best_effort_on(self, *link_ids: str) -> int | Fraction:
        """Sum over the links of the last solve's rates of the best-effort
        flows on each, in units: an int, or a `Fraction` when levels are
        not whole units; 0 when none of them crosses the links."""
        whole = num = 0
        den = 1
        for ln, ld, touched in self.rounds:
            k = 0
            for lid in link_ids:
                k += touched.get(lid, 0)
            if not k:
                continue
            if ld == 1:
                whole += ln * k
            else:
                num, den = num * ld + ln * k * den, den * ld
                g = gcd(num, den)
                num //= g
                den //= g
        return whole + num if den == 1 else Fraction(whole * den + num, den)


def recompute_fair_shares(
    index: FairShareIndex, capacity: Mapping[str, int], contended: Iterable[str]
) -> Dict[str, Fraction]:
    """Max-min shares of the index's rising flows, by a water-level solve
    over residual capacities; exact `Fraction`s in Mb/s, keyed by flow id.

    `capacity` is each link's capacity for the rising flows, in the index's
    unit: `NetworkState` passes its capacity net of guarantees. `contended`
    are the links whose rising flows' demand exceeds it (`NetworkState`
    passes `_congested`), and each has at least one rising flow.

    Every rising flow rises from 0 at one common level. With `avail` the
    link's capacity left after frozen flows and `n` the rising flows on it,
    a link saturates at level `avail/n`. Each round finds the lowest level
    at which a link saturates or the lowest demand bucket that still rises
    is met, and the links tight at it. Their rising flows and the met
    bucket's freeze at that level; then each link they cross is updated
    once for the round (`avail -= level*k`, `n -= k` for its k newly frozen
    flows). This is progressive filling (Bertsekas & Gallager, *Data
    Networks*, 6.5) taken one saturation level at a time, and the rounds
    run until every rising flow is frozen.

    Only the contended links take part. A slack link never binds. Frozen
    flows on it hold at most their demand and each rising one wants at
    least the lowest unmet demand D, so its level `avail/n` is never below
    D; and when it equals D, every rising flow on it has demand D and
    freezes with the met bucket at that same level. So the levels are those
    of a solve over every link, while the rounds update only the links that
    can be bottlenecks (Ros-Giralt et al., "On the Bottleneck Structure of
    Congestion-Controlled Networks", SIGMETRICS 2020).

    Each round is kept in the index's `rounds` as its level and a `Counter`
    of the flows it froze per link, from which `FairShareIndex.best_effort_on`
    reads the total of any set of links. Capacities and demands are whole
    units, `avail` and levels integer pairs, and each round makes one
    `Fraction`, its level in Mb/s, so capacity is conserved with no
    tolerance.
    """
    unit = index.unit
    users = index.users
    crossed = index.crossed
    alloc: Dict[str, Fraction] = {}
    # `avail` is kept as a reduced integer pair and levels are compared as
    # integer pairs (numerator, positive denominator), all in units.
    avail = {lid: (capacity[lid], 1) for lid in contended}  # contended link -> a/b left
    count = {lid: len(users[lid]) for lid in avail}  # contended link -> rising flows on it
    saturates = {lid: (a, count[lid]) for lid, (a, _) in avail.items()}  # contended link -> avail/n
    rounds = index.rounds = []
    buckets = sorted(index.buckets.items())  # (demand, its rising flows)
    next_met = 0  # every flow of a bucket before buckets[next_met] is frozen
    rising = len(crossed)

    while rising:
        while buckets[next_met][1] <= alloc.keys():
            next_met += 1
        demand, bucket = buckets[next_met]
        num, den = demand, 1
        tight: List[str] = []
        for lid, (p, q) in saturates.items():
            if p * den < num * q:
                num, den = p, q
                tight = [lid]
            elif p * den == num * q:
                tight.append(lid)
        g = gcd(num, den)
        ln, ld = num // g, den // g
        level = Fraction(ln, ld * unit)

        frozen = []
        for lid in tight:
            new = users[lid].difference(alloc)
            alloc.update(dict.fromkeys(new, level))
            frozen += new
        if ln == demand * ld:
            new = bucket.difference(alloc)
            alloc.update(dict.fromkeys(new, level))
            frozen += new
        rising -= len(frozen)

        touched = Counter(chain.from_iterable(map(crossed.__getitem__, frozen)))
        rounds.append((ln, ld, touched))
        for lid in [lid for lid in count if lid in touched]:
            k = touched[lid]
            n = count[lid] - k
            if n:
                count[lid] = n
                a, b = avail[lid]
                a, b = a * ld - ln * k * b, b * ld
                g = gcd(a, b)
                a //= g
                b //= g
                avail[lid] = (a, b)
                saturates[lid] = (a, b * n)
            else:
                del count[lid], saturates[lid]

    return alloc
