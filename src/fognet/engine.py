"""Deterministic discrete-event core and the max-min solve behind fluid rates.

Time is integer milliseconds. Events at equal times dequeue in schedule
order via a monotonically increasing sequence counter, so a run is a pure
function of the scheduled inputs.

The max-min solve (`FairShareIndex`, `recompute_fair_shares`) has one
caller, `dataplane.NetworkState.recompute`, which owns every fact it
reads (the rising flows, each link's capacity net of guarantees and the
congested links) and derives every rate and total when asked from the
levels and freeze rounds the solve leaves. Guarantees, their overcommit
check and the rates of flows that do not rise stay with `NetworkState`.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Set, Tuple


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


class Event(NamedTuple):
    """Orders by (time, seq), and seq is unique: the queue holds events."""

    time: int
    seq: int
    kind: EventKind
    subjects: Tuple[str, ...] = ()
    payload: object = None


class SchedulingInPast(Exception):
    pass


class Engine:
    """Single-threaded event loop; one instance per scenario run."""

    def __init__(self):
        self._now = 0
        self._heap: List[Event] = []
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
        event = Event(int(time), next(self._seq), kind, tuple(subjects), payload)
        heapq.heappush(self._heap, event)
        return event

    def on(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        self._handlers.setdefault(kind, []).append(handler)

    def run_until(self, t: int) -> None:
        if t < self._now:
            raise SchedulingInPast(f"cannot run backwards to {t}, now is {self._now}")
        while self._heap and self._heap[0][0] <= t:
            event = heapq.heappop(self._heap)
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
    (never one twice) and `rate_units`, its demand in the owner's units
    (`NetworkState.unit`). `len()` counts the rising flows.

    - `crossed`: each rising flow's links. `users`: the rising flows on
      each link, for the links that have any.
    - `buckets`: the rising flows keyed by demand in units. Flows share a
      few demands, so a solve walks the buckets in demand order instead of
      sorting flows.
    - `rounds` and `froze`, left by the last solve: each round's level
      `(ln, ld)`, `ln/ld` in units, and the round each flow it solved
      froze in, whose level is the flow's rate; a flow added since is in
      none. `best_effort_on` sums any set of links from them on demand,
      so a solve does no arithmetic for rates or totals nobody reads.
    """

    def __init__(self, flows: Iterable = ()):
        self.crossed: Dict[str, Tuple[str, ...]] = {}
        self.users: Dict[str, Set[str]] = {}
        self.buckets: Dict[int, Set[str]] = {}
        self.rounds: List[Tuple[int, int]] = []
        self.froze: Dict[str, int] = {}
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
        self.froze.pop(fid, None)
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
        """Sum over the links of the last solve's rates of the rising flows
        on each, in units: an int, or a `Fraction` when levels are not
        whole units; 0 when none of them crosses the links. A flow added
        since the solve counts 0."""
        froze = self.froze.get
        per_round: Dict[int | None, int] = {}  # freeze round (None: added since) -> flows on the links
        for lid in link_ids:
            for r in map(froze, self.users.get(lid, ())):
                per_round[r] = per_round.get(r, 0) + 1
        per_round.pop(None, None)
        rounds = self.rounds
        num, den = 0, 1
        for r, k in per_round.items():
            ln, ld = rounds[r]
            if ld == den:
                num += ln * k
            else:
                num, den = num * ld + ln * k * den, den * ld
        if den == 1:
            return num
        g = gcd(num, den)
        return num // g if g == den else Fraction(num // g, den // g)


def recompute_fair_shares(index: FairShareIndex, capacity: Mapping[str, int], contended: Iterable[str]) -> None:
    """Max-min shares of the index's rising flows, by a water-level solve
    over residual capacities, left in the index: the level of each round
    (`rounds`) and the round each flow froze in (`froze`), all in units.

    `capacity` is each link's capacity for the rising flows, in the units
    of their demands: `NetworkState` passes its capacity net of
    guarantees. `contended` are the links whose rising flows' demand
    exceeds it (`NetworkState` passes `_congested`), and each has at least
    one rising flow.

    Every rising flow rises from 0 at one common level. With `avail` the
    link's capacity left after frozen flows and `n` the rising flows on it,
    a link saturates at level `avail/n`. Each round finds the lowest level
    at which a link saturates or the lowest demand bucket that still rises
    is met, and the links tight at it. Their rising flows and the met
    bucket's freeze at that level; then each contended link is updated
    once for the round (`avail -= level*k`, `n -= k` for its k newly frozen
    flows). This is progressive filling (Bertsekas & Gallager, *Data
    Networks*, 6.5) taken one saturation level at a time, and the rounds
    run until every rising flow is frozen.

    Only the contended links take part. A slack link never binds. Frozen
    flows on it hold at most their demand and each rising one wants at
    least the lowest unmet demand D, so its level `avail/n` is never below
    D; and when it equals D, every rising flow on it has demand D and
    freezes with the met bucket at that same level. So the levels are those
    of a solve over every link, while the rounds count frozen flows only on
    the links that can be bottlenecks (Ros-Giralt et al., "On the
    Bottleneck Structure of Congestion-Controlled Networks", SIGMETRICS
    2020).

    Capacities and demands are whole units, and `avail` and levels integer
    pairs, so capacity is conserved with no tolerance and a solve makes no
    `Fraction`: `NetworkState.allocated` makes one per rate it is asked.
    """
    users = index.users
    # `avail` is kept as a reduced integer pair and levels are compared as
    # integer pairs (numerator, positive denominator), all in units.
    avail = {lid: (capacity[lid], 1) for lid in contended}  # contended link -> a/b left
    count = {lid: len(users[lid]) for lid in avail}  # contended link -> rising flows on it
    saturates = {lid: (a, count[lid]) for lid, (a, _) in avail.items()}  # contended link -> avail/n
    rounds = index.rounds = []
    froze = index.froze = {}
    buckets = sorted(index.buckets.items())  # (demand, its rising flows)
    next_met = 0  # every flow of a bucket before buckets[next_met] is frozen
    rising = len(index)

    while rising:
        while buckets[next_met][1] <= froze.keys():
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

        frozen = set().union(*map(users.__getitem__, tight))
        if ln == demand * ld:
            frozen |= bucket
        frozen = frozen.difference(froze)
        froze.update(dict.fromkeys(frozen, len(rounds)))
        rounds.append((ln, ld))
        rising -= len(frozen)

        for lid in list(count):
            k = len(frozen & users[lid])
            if not k:
                continue
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
