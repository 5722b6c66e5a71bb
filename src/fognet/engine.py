"""Deterministic discrete-event core and the max-min solve behind fluid rates.

Time is integer milliseconds. Events at equal times dequeue in schedule
order via a monotonically increasing sequence counter, so a run is a pure
function of the scheduled inputs.

The max-min solve (`FairShareIndex`, `recompute_fair_shares`) has one
caller, `dataplane.NetworkState.recompute`, which owns every fact it
reads (the rising flows, each link's capacity net of guarantees and the
congested links) and derives every rate and total when asked from the
level at which each rate class of rising flows froze. Guarantees, their
overcommit check and the rates of flows that do not rise stay with
`NetworkState`.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from itertools import count
from math import gcd
from operator import attrgetter
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


class RateClass:
    """Rising flows that always share one max-min rate: one demand (in
    units) and one set of key links crossed. `size` counts its members,
    `links` are its key links and `level`, `(ln, ld)`, is each member's
    rate in the last solve, `ln/ld` units: the level it froze at."""

    __slots__ = ("demand", "links", "size", "level")

    def __init__(self, demand: int, links: Tuple[str, ...]):
        self.demand = demand
        self.links = links
        self.size = 0
        self.level: Tuple[int, int] | None = None


class FairShareIndex:
    """The max-min solver's rising flows, kept across solves in rate
    classes.

    A flow rises when it is best-effort with demand > 0 and lists at least
    one link; `NetworkState` adds exactly those and removes them again
    while some link is congested, and hands the index to every
    `recompute_fair_shares` call instead of rebuilding the inputs per
    solve. A flow is an `InstalledFlow`: `flow_id`, `links` (never one
    twice) and `rate_units`, its demand in the owner's units
    (`NetworkState.unit`). `len()` counts the rising flows.

    The rising flows are kept in rate classes, keyed by `(demand in
    units, the flow's links that lie in keys)`. `keys` is the union of the
    contended links of every solve since the index was built. A solve lets
    only contended links bind, so a flow's max-min rate is fixed by its
    demand and the contended links it crosses: flows that agree on both
    rise together and freeze in the same round (Bertsekas & Gallager,
    *Data Networks*, 6.5). The contended links of a solve always lie in
    `keys`, so the members of a class agree on both and share one rate,
    and the solve runs over classes instead of flows.
    `keys` only grows, for the life of the index: a link that stops
    contending stays a key, so a class may split where no solve needs it
    to, but classes are rebuilt only when a link contends for the first
    time since the index was built, not each time the contended links
    change, which on a congested mesh happens several times as often.
    `NetworkState` drops the index once no link is congested.

    - `classes`: key -> its `RateClass`, for the classes with members.
    - `on_link`: for each link a member crosses, each class on it -> its
      members on the link (the class's `size` on its key links).

    A flow added since the last solve is pending: it is in no class until
    the next solve (`classify`) and counts 0. A removed flow leaves its
    class and every count at once. `level` reads a flow's rate through
    its class, and `best_effort_on` sums `members x level` over the
    classes on the links it is given, so a solve does no arithmetic for
    rates or totals nobody reads.
    """

    def __init__(self, flows: Iterable = ()):
        self.keys: Set[str] = set()
        self.classes: Dict[Tuple[int, Tuple[str, ...]], RateClass] = {}
        self.on_link: Dict[str, Dict[RateClass, int]] = {}
        self._flows: Dict[str, object] = {}  # every rising flow
        self._class_of: Dict[str, RateClass] = {}  # flow id -> its class; none while pending
        self._pending: Dict[str, object] = {}
        for flow in flows:
            self.add(flow)

    def __len__(self) -> int:
        return len(self._flows)

    def add(self, flow) -> None:
        self._flows[flow.flow_id] = flow
        self._pending[flow.flow_id] = flow

    def remove(self, flow) -> None:
        fid = flow.flow_id
        del self._flows[fid]
        cls = self._class_of.pop(fid, None)
        if cls is None:
            del self._pending[fid]
            return
        cls.size -= 1
        if not cls.size:
            del self.classes[cls.demand, cls.links]
        on_link = self.on_link
        for lid in flow.links:
            on = on_link[lid]
            n = on[cls] - 1
            if n:
                on[cls] = n
            elif len(on) > 1:
                del on[cls]
            else:
                del on_link[lid]

    def classify(self, contended: Iterable[str]) -> List[RateClass]:
        """Put the pending flows in their classes, after adding
        `contended` to `keys`; when that grows `keys`, every class is
        rebuilt under the new keys first. Returns the classes it made,
        whose `level` is None."""
        keys = self.keys
        if not keys.issuperset(contended):
            keys.update(contended)
            self.classes, self.on_link, self._class_of = {}, {}, {}
            self._pending = dict(self._flows)
        classes, on_link, class_of = self.classes, self.on_link, self._class_of
        made: List[RateClass] = []
        for fid, flow in self._pending.items():
            links = flow.links
            key = (flow.rate_units, tuple(filter(keys.__contains__, links)))
            cls = classes.get(key)
            if cls is None:
                cls = classes[key] = RateClass(*key)
                made.append(cls)
            cls.size += 1
            class_of[fid] = cls
            for lid in links:
                on = on_link.get(lid)
                if on is None:
                    on_link[lid] = {cls: 1}
                else:
                    on[cls] = on.get(cls, 0) + 1
        self._pending = {}
        return made

    def level(self, flow_id: str) -> Tuple[int, int] | None:
        """The flow's rate `(ln, ld)`, `ln/ld` units, in the last solve;
        None while it is pending."""
        cls = self._class_of.get(flow_id)
        return None if cls is None else cls.level

    def best_effort_on(self, link_ids: Iterable[str], held: int) -> int | Fraction:
        """`held` units plus the sum over the links of the last solve's
        rates of the rising flows on each, in units: an int, or a
        `Fraction` when levels are not whole units. A pending flow counts
        0."""
        on_link = self.on_link
        num, den = held, 1
        for lid in link_ids:
            on = on_link.get(lid)
            if on is not None:
                for cls, k in on.items():
                    ln, ld = cls.level
                    if ld == den:
                        num += ln * k
                    else:
                        num, den = num * ld + ln * k * den, den * ld
        if den == 1:
            return num
        whole, part = divmod(num, den)
        return Fraction(num, den) if part else whole


def recompute_fair_shares(index: FairShareIndex, capacity: Mapping[str, int], contended: Iterable[str]) -> None:
    """Max-min shares of the index's rising flows, by a water-level solve
    over residual capacities run over the index's rate classes: each
    class's `level` is left as the level it froze at, in units.

    `capacity` is each link's capacity for the rising flows, in the units
    of their demands: `NetworkState` passes its capacity net of
    guarantees. `contended` are the links whose rising flows' demand
    exceeds it (`NetworkState` passes `_congested`), and each has at least
    one rising flow.

    The solve first classifies the pending flows (`FairShareIndex.classify`).
    A rate class holds the rising flows of one demand that cross the same
    links of the index's `keys`, and `classify` first adds `contended` to
    `keys`, which only grow, rebuilding the classes only when that adds a
    link. So every class crosses each contended link with all of its
    members or none; its members rise and freeze together at one rate, and
    a class is a unit of the solve. Rebuilding the classes whenever the
    contended links changed, to key them by exactly the contended links,
    would rebuild them several times as often, for no fewer rounds.

    Every rising flow rises from 0 at one common level. With `avail` the
    link's capacity left after frozen flows and `n` the rising flows on it,
    a link saturates at level `avail/n`. Each round finds the lowest level
    at which a link saturates or the lowest demand that still rises is
    met, and the links tight at it. The classes on those links and the
    classes of the met demand freeze at that level; then each contended
    link is updated once for the round (`avail -= level*k`, `n -= k` for
    its k newly frozen flows, the sizes of its newly frozen classes). This
    is progressive filling (Bertsekas & Gallager, *Data Networks*, 6.5)
    taken one saturation level at a time, and the rounds run until every
    class is frozen.

    Only the contended links take part. A slack link never binds. Frozen
    flows on it hold at most their demand and each rising one wants at
    least the lowest unmet demand D, so its level `avail/n` is never below
    D; and when it equals D, every rising flow on it has demand D and
    freezes with the met demand at that same level. So the levels are
    those of a solve over every link, while the rounds count frozen flows
    only on the links that can be bottlenecks (Ros-Giralt et al., "On the
    Bottleneck Structure of Congestion-Controlled Networks", SIGMETRICS
    2020), and only by class.

    Capacities and demands are whole units, and `avail` and levels integer
    pairs, so capacity is conserved with no tolerance and a solve makes no
    `Fraction`: `NetworkState.allocated` makes one per rate it is asked.
    """
    index.classify(contended)
    on_link = index.on_link
    # `avail` is kept as a reduced integer pair and levels are compared as
    # integer pairs (numerator, positive denominator), all in units.
    avail = {lid: (capacity[lid], 1) for lid in contended}  # contended link -> a/b left
    count = {lid: sum(on_link[lid].values()) for lid in avail}  # contended link -> rising flows on it
    saturates = {lid: (a, count[lid]) for lid, (a, _) in avail.items()}  # contended link -> avail/n
    by_demand = sorted(index.classes.values(), key=attrgetter("demand"))
    for cls in by_demand:
        cls.level = None
    next_met = 0  # every class before by_demand[next_met] is frozen
    rising = len(by_demand)  # classes not frozen yet

    while rising:
        while by_demand[next_met].level is not None:
            next_met += 1
        demand = by_demand[next_met].demand
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

        level = (ln, ld)
        frozen: List[RateClass] = []
        for lid in tight:
            for cls in on_link[lid]:
                if cls.level is None:
                    cls.level = level
                    frozen.append(cls)
        if ln == demand * ld:
            for cls in by_demand[next_met:]:
                if cls.demand != demand:
                    break
                if cls.level is None:
                    cls.level = level
                    frozen.append(cls)
        if not frozen:
            # a tight link or the met demand always holds a rising class, unless
            # some contended link lies outside the keys the classes were built on
            raise RuntimeError(f"max-min round at level {ln}/{ld} froze no rate class")
        rising -= len(frozen)

        newly: Dict[str, int] = {}  # contended link -> its newly frozen flows
        for cls in frozen:
            for lid in cls.links:
                if lid in count:
                    newly[lid] = newly.get(lid, 0) + cls.size
        for lid, k in newly.items():
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
