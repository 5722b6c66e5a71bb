"""Forwarding state, mesh routing and the fog service functions.

Holds the runtime overlay on an immutable topology: link/node health, the
installed flows (`InstalledFlow`, slotted, mutable) with their hop-by-hop
paths (`FlowPath`, immutable tuples that derive their link and node ids
from the hops when read, unless handed them), guaranteed-rate
reservations and current fluid allocations, plus the fog-resident DHCP
pool and LRU content cache.

`NetworkState` keeps each load fact in one incremental ledger, updated by
`install_flow`, `remove_flow` and the health setters in O(path): offered
load and congestion per link, each link's capacity net of guaranteed-rate
(GBR) use (its GBR use is its capacity less that), the GBR use of
unsliced flows per link, the Down links, and per fog the slices' GBR use
and demand and the sliceable capacity of each resource class, plus an
epoch for the fogs' entitlement caches (see its docstring for who
updates what).

Rates: a flow holds its guarantee and rate only in units of
`1/NetworkState.unit` Mb/s (`InstalledFlow.gbr_units`, `.rate_units`).
Every ledger is a plain `int` in the same units (`util.in_units`), and
so is what the `*_units` readers return and what `constrained_route`
takes as `need`; the one exception is a link's best-effort total while
congested, a `Fraction` of units, since max-min levels need not be whole
units. Only `allocated()` returns an exact `Fraction` in Mb/s. The
unit is fixed when the state is built, from every rate a flow can hold
and the slice shares, so that each slice's entitlement is whole units
too (`util.rate_unit`); converting a rate that is not a whole number of
it (`NetworkState.units`) raises ValueError. Each configured rate is
converted once, when the simulation and its fog controls are built: a
policy rule's guarantee (`FogControl.grants`), a workload class's demand
(`FlowSpec.demand_units`) and the WLAN control overhead. So a flow
reaches `install_flow` with its guarantee and rate in units already,
and installs, removals, congestion and headroom tests add and compare
ints, converting nothing.

Fluid allocations: a GBR flow always carries its guarantee. While no link
is congested every best-effort flow carries its demand, and `allocated()`
and `load_units()` derive rates from the installed flows. While some
link is congested, `recompute()` is the one caller of the max-min solve
(`engine.recompute_fair_shares`) and hands it only facts kept here: the
rising flows (best-effort, demand > 0, at least one link) as a
`FairShareIndex` kept across solves, the net-of-GBR capacities and the
congested links, the only ones that can bind. It solves only when an
install or removal since the last solve crossed a congested link; after
any other change the last solve's levels stand, and a flow new since
then rises to its demand. It alone raises `GbrOvercommit`. The index
keeps the rising flows in rate classes of flows that share one max-min
rate, so `allocated()` reads a flow's rate through its class, and
`load_units()` sums members times level over the classes on the links
it is given. A path never lists a link twice
(`install_flow` refuses one that does), so every ledger counts a flow
once per link it crosses.

Routing is one minimum-hop search, `constrained_route`, over a set of
permitted link ids: a BFS of distances to the destination
(`route_distances`) and a greedy lexicographic walk down them
(`descend`), which fog control also runs over a full BFS that it keeps
per destination. Which links a fog may route over is a fact of the
topology (`Topology.fog_domain`), so callers pass those sets, not
predicates. A route depends only on link and node health and, for a
guaranteed rate, on headroom, so fog control memoizes its mesh segments
between two attachment points, checks each on read against the Down
set (`down_links`) and on the Ups it hears of through `watch_health`,
and adds the access hops itself (`FogControl.segment`, `_fill_target`
and `_candidates`). The WLAN
control-overhead flows ride the same memo: each AP's flow is its fog's
segment from the AP to the PoP (`Simulation._route_control_overhead`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import AbstractSet, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .engine import FairShareIndex, recompute_fair_shares
from .topology import LinkState, ResourceClass, Topology
from .util import ZERO, in_units, rate_unit


class RouteKind(str, Enum):
    MACRO = "Macro"
    WLAN_VIA_MIDDLE_MILE = "WlanViaMiddleMile"
    INTRA_FOG_LOCAL = "IntraFogLocal"
    CLOUD_BOUND = "CloudBound"


class DataplaneError(Exception):
    def __init__(self, message: str, element: str = ""):
        super().__init__(message)
        self.element = element


class LinkDown(DataplaneError):
    pass


class DuplicateFlow(DataplaneError):
    pass


class UnknownFlow(DataplaneError):
    pass


class NoRoute(DataplaneError):
    pass


class PoolExhausted(DataplaneError):
    pass


class NotAuthenticated(DataplaneError):
    pass


class GbrOvercommit(Exception):
    def __init__(self, link_id: str, held: Fraction, capacity: Fraction):
        super().__init__(f"link {link_id}: guaranteed rates {held} exceed capacity {capacity}")
        self.link_id = link_id


class FlowPath(NamedTuple):
    """Installed hop sequence: hops[i] = (node, outgoing link).

    Its link ids and node ids are derived from the hops on each call of
    `links()` and `nodes()`, unless the builder hands them in (`link_ids`,
    `node_ids`), as fog control does from a candidate that already holds
    them."""

    src: str
    dst: str
    hops: Tuple[Tuple[str, str], ...]
    rat_used: RouteKind
    link_ids: Optional[Tuple[str, ...]] = None
    node_ids: Optional[Tuple[str, ...]] = None

    def links(self) -> Tuple[str, ...]:
        if self.link_ids is not None:
            return self.link_ids
        return tuple(map(itemgetter(1), self.hops))

    def nodes(self) -> Tuple[str, ...]:
        if self.node_ids is not None:
            return self.node_ids
        return (*map(itemgetter(0), self.hops), self.dst)


@dataclass(slots=True)
class InstalledFlow:
    flow_id: str
    path: FlowPath
    slice_id: Optional[str]
    latency_ms: float
    # guarantee and rate (guarantee, else demand) in the network state's
    # units, which the builder converted once (`NetworkState.units`): the
    # flow's only record of its rates
    gbr_units: int
    rate_units: int
    spec: object = None  # originating FlowSpec; None for a control-overhead flow
    links: Tuple[str, ...] = ()  # the path's; hot in the allocator

    def __post_init__(self):
        self.links = self.path.links()


class NetworkState:
    """Mutable runtime state over one topology; engine-loop use only.

    Every rate ledger below holds plain ints in units of `1/unit` Mb/s.
    `unit` is fixed at build by `util.rate_unit`: the least common
    multiple of the denominators of the link capacities and of `rates`,
    every rate a flow may hold, times that of `shares`, the slice shares
    of the fogs' resource classes, so that every slice's entitlement
    (`SliceManager.entitled`) is whole units as well; `units` refuses
    any other rate with a ValueError. A flow arrives at `install_flow`
    with its rates in units (`InstalledFlow.gbr_units`, `.rate_units`),
    and `install_flow` refuses a path that lists a link twice with a
    ValueError before it changes a ledger.
    The `*_units` readers (`capacity_units`, `residual_units`,
    `slice_gbr_units`, `slice_demand_units`, `sliceable_units`,
    `fog_sliceable_units`, `offered_units`, `load_units`) return the
    ledgers in units to the controllers and metrics; only `allocated()`
    returns a `Fraction` in Mb/s, a flow's own rate or its max-min share,
    derived from the flow's units or the solve's level and `unit`.

    Each fact below is kept in one place and updated where it changes,
    never recounted:

    - `flows` (each with its hop-by-hop path) and `_on_link` (link -> flow
      ids): `install_flow` and `remove_flow`. They are the only record of
      which flows are active and whose they are: `flows_on_link` and
      `flows_at` answer "which flows touch this link or node", and a
      user's flows are `flows_at(user)`, since controller paths have at
      least one hop and never pass through a user node.
    - `_capacity` (per link), `_offered` (per link: each flow's guarantee,
      else its demand) and `_congested` (links whose offered load exceeds
      capacity, so whose rising flows want more than `_be_capacity`: the
      links a solve lets bind): `install_flow` and `remove_flow`.
    - Guaranteed-rate (GBR) ledger, in O(path) per `install_flow` and
      `remove_flow` of a flow with `gbr > 0`: `_be_capacity` (per link,
      capacity net of the guarantees held: what the max-min solver
      shares among best-effort flows, read by `residual_units`; the
      guarantees held on a link are `_capacity` less it, as `load_units`
      reads them) and `_unsliced_gbr` (per link, the guarantees of flows
      without a slice, read by `sliceable_units`).
    - Per-fog slice ledgers. At build each metered link gets its
      (fog, resource class) keys, `_meter_keys`: one per fog at either
      end, as in `Topology.fog_domain(fog).metered`, so a link in two
      fogs' domains counts in both. `_slice_gbr[(fog, slice, class)]`
      holds the guarantees of the slice's flows on those links
      (`slice_gbr_units`). `_slice_demand[(fog, slice, class)]`
      holds each sliced flow's guarantee, else its demand, once per
      distinct key of its path (`slice_demand_units`); a path's keys are
      memoized by its link tuple in `_path_keys`. Both change in O(path)
      with `install_flow` and `remove_flow`.
    - `_down` (the links that are Down or have a Down end node, read by
      `effective_up`) and `_sliceable[(fog, class)]` (`sliceable_units`
      summed over the Up links of the key, read by
      `fog_sliceable_units`): `set_link_state`, and `set_node_state`
      through the node's incident links. An unsliced reservation on an
      Up link also moves `_sliceable`.
    - `_rising` (installed best-effort flows with demand > 0 and at least
      one link, the flows a solve shares capacity among): `install_flow`
      and `remove_flow`.
    - `epoch`: bumped by `set_link_state`, `set_node_state` and the
      install or removal of an unsliced GBR flow, the inputs of each
      fog's sliceable capacity (`fog_sliceable_units`) and so of its
      slices' entitlements, which `FogControl.entitlements` keeps per
      epoch.
      `set_link_state` and `set_node_state` also tell each callback given
      to `watch_health`.
    - `_fair`: the max-min solver's index of the rising flows, which
      exists only while some link is congested. The first `recompute()`
      that finds `_congested` non-empty builds it from `_rising`;
      `install_flow` and `remove_flow` add and remove rising flows while
      it exists; the uncongested fast path of `recompute()` drops
      it. So a run that never congests never builds one. The index keeps
      the rising flows in rate classes (`engine.RateClass`), keyed by
      demand and by the flow's links that have been in `_congested` at
      some solve since the index was built. Only those links can have
      bound, so the members of a class always share one max-min rate,
      and each solve freezes every class at one level: the rate of each
      of its members, made a `Fraction` only when `allocated()` asks. The
      key links only grow while the index lives, so a change in
      `_congested` rebuilds no class unless a link contends for the
      first time since then. A flow installed since the last solve is in
      no class yet: it reads 0 and counts in no total. A flow removed
      leaves its class's counts at once. While no link is congested
      rates come from the installed flows themselves. A GBR flow's rate
      is always its own guarantee, and a best-effort flow that does not
      rise carries its demand (0 when it has none): each its
      `rate_units`.
    - `_stale`: whether the last solve's levels may have moved, set by
      `install_flow` and `remove_flow` when the flow crosses a link
      congested after the install or before the removal, and cleared
      by each solve. Only then does `recompute()` solve; see its
      docstring for why its levels otherwise stand.

    `load_units(*link_ids)` is the one reader of allocated load, summed
    over the links it is given, so a caller that wants a class total asks
    once. While no link is congested it sums `_offered`; while congested,
    the guarantees held (`_capacity` less `_be_capacity`) plus the
    best-effort total of the last solve, which `_fair` sums over the
    rate classes on the links, so a read costs O(classes), not O(flows).
    Like `allocated()`, it is current once `recompute()` has run after
    the last install or removal.
    """

    def __init__(self, topology: Topology, rates: Iterable[Fraction], shares: Iterable[Fraction] = ()):
        self.topology = topology
        self.link_up: Dict[str, bool] = {
            lid: link.state == LinkState.UP for lid, link in topology.links.items()
        }
        self.node_up: Dict[str, bool] = {nid: True for nid in topology.nodes}
        self.flows: Dict[str, InstalledFlow] = {}
        self.epoch = 0
        self._health_watchers: List[Callable[[str, bool], None]] = []
        self.unit = rate_unit([link.capacity for link in topology.links.values()] + list(rates), shares)
        self._capacity: Dict[str, int] = {
            lid: in_units(link.capacity, self.unit) for lid, link in topology.links.items()
        }
        self._be_capacity: Dict[str, int] = dict(self._capacity)
        self._unsliced_gbr: Dict[str, int] = {}
        self._rising: Dict[str, InstalledFlow] = {}
        self._fair: Optional[FairShareIndex] = None
        self._stale = True  # a change since the last solve may move its levels
        self._on_link: Dict[str, Set[str]] = {}
        self._offered: Dict[str, int] = {}
        self._congested: Set[str] = set()
        # (fog, resource class) of each metered link, one per fog metering it
        meter_keys: Dict[str, List[Tuple[str, str]]] = {}
        for fog in topology.fogs():
            for cls, links in topology.fog_domain(fog).metered.items():
                if cls is not None:
                    for link in links:
                        meter_keys.setdefault(link.id, []).append((fog, cls))
        self._meter_keys: Dict[str, Tuple[Tuple[str, str], ...]] = {
            lid: tuple(keys) for lid, keys in meter_keys.items()
        }
        self._path_keys: Dict[Tuple[str, ...], Tuple[Tuple[str, str], ...]] = {}
        self._slice_gbr: Dict[Tuple[str, str, str], int] = {}
        self._slice_demand: Dict[Tuple[str, str, str], int] = {}
        self._down: Set[str] = {lid for lid, up in self.link_up.items() if not up}
        self._sliceable: Dict[Tuple[str, str], int] = {
            (fog, cls): 0 for fog in topology.fogs() for cls in ResourceClass.ALL
        }
        for lid, keys in self._meter_keys.items():
            if lid not in self._down:
                for key in keys:
                    self._sliceable[key] += self._capacity[lid]

    def units(self, rate: Fraction) -> int:
        """`rate` (Mb/s) in units; raises ValueError unless it is a whole number of them."""
        return in_units(rate, self.unit)

    # -- health ----------------------------------------------------------

    def effective_up(self, link_id: str) -> bool:
        """The link and both its end nodes are Up."""
        return link_id not in self._down

    def down_links(self) -> AbstractSet[str]:
        """The links that are Down or have a Down end node, `effective_up`'s
        complement: the live set, kept current by every state change, so a
        reader may hold it. Do not mutate it."""
        return self._down

    def watch_health(self, callback: Callable[[str, bool], None]) -> None:
        """Call `callback(element, up)` on every link or node state change."""
        self._health_watchers.append(callback)

    def set_link_state(self, link_id: str, up: bool) -> None:
        self.link_up[link_id] = up
        self._update_effective(link_id)
        self.epoch += 1
        for callback in self._health_watchers:
            callback(link_id, up)

    def set_node_state(self, node_id: str, up: bool) -> None:
        self.node_up[node_id] = up
        for lid in self.topology.adjacency().get(node_id, ()):
            self._update_effective(lid)
        self.epoch += 1
        for callback in self._health_watchers:
            callback(node_id, up)

    def _update_effective(self, link_id: str) -> None:
        """Bring `_down` and `_sliceable` up to date with the link's health."""
        link = self.topology.links[link_id]
        up = self.link_up[link_id] and self.node_up[link.a] and self.node_up[link.b]
        if up != (link_id in self._down):
            return
        if up:
            self._down.discard(link_id)
            change = self.sliceable_units(link_id)
        else:
            self._down.add(link_id)
            change = -self.sliceable_units(link_id)
        for key in self._meter_keys.get(link_id, ()):
            self._sliceable[key] += change

    # -- reservations and load --------------------------------------------

    def capacity_units(self, link_id: str) -> int:
        return self._capacity[link_id]

    def residual_units(self, link_id: str) -> int:
        """Admission headroom: capacity net of the guarantees held."""
        return self._be_capacity[link_id]

    def slice_gbr_units(self, fog_id: str, slice_id: str, resource_class: str) -> int:
        """GBR held by the slice's flows on the fog's metered links of the
        class, counted once per flow per link."""
        return self._slice_gbr.get((fog_id, slice_id, resource_class), 0)

    def slice_demand_units(self, fog_id: str, slice_id: str, resource_class: str) -> int:
        """The rate (guarantee, else demand) of the slice's flows that use
        a metered link of the class in the fog, once per flow."""
        return self._slice_demand.get((fog_id, slice_id, resource_class), 0)

    def sliceable_units(self, link_id: str) -> int:
        """The link's capacity net of the guarantees of unsliced flows."""
        return self._capacity[link_id] - self._unsliced_gbr.get(link_id, 0)

    def fog_sliceable_units(self, fog_id: str, resource_class: str) -> int:
        """`sliceable_units` summed over the fog's Up metered links of the class."""
        return self._sliceable.get((fog_id, resource_class), 0)

    def offered_units(self, link_id: str) -> int:
        return self._offered.get(link_id, 0)

    def flows_on_link(self, link_id: str) -> List[str]:
        return sorted(self._on_link.get(link_id, ()))

    def flows_at(self, node_id: str) -> List[str]:
        """Sorted ids of the flows whose path uses a link incident to the node."""
        on_link = self._on_link
        found: Set[str] = set()
        for lid in self.topology.adjacency().get(node_id, ()):
            found.update(on_link.get(lid, ()))
        return sorted(found)

    # -- install / remove --------------------------------------------------

    def install_flow(self, flow: InstalledFlow) -> None:
        if flow.flow_id in self.flows:
            raise DuplicateFlow(f"flow {flow.flow_id} already installed", flow.flow_id)
        if len(set(flow.links)) != len(flow.links):
            raise ValueError(f"flow {flow.flow_id}: path lists a link twice: {flow.links}")
        for lid in flow.links:
            if lid in self._down:
                raise LinkDown(f"link {lid} is down", lid)
        gbr, want = flow.gbr_units, flow.rate_units
        self.flows[flow.flow_id] = flow
        if gbr > 0:
            self._reserve(flow, gbr)
        elif want > 0 and flow.links:
            self._rising[flow.flow_id] = flow
            if self._fair is not None:
                self._fair.add(flow)
        if flow.slice_id is not None:
            self._add_demand(flow, want)
        capacity, congested = self._capacity, self._congested
        for lid in flow.links:
            self._on_link.setdefault(lid, set()).add(flow.flow_id)
            load = self._offered.get(lid, 0) + want
            self._offered[lid] = load
            if load > capacity[lid]:  # congested now, whether or not it was before
                congested.add(lid)
                self._stale = True

    def remove_flow(self, flow_id: str) -> InstalledFlow:
        flow = self.flows.pop(flow_id, None)
        if flow is None:
            raise UnknownFlow(f"flow {flow_id} not installed", flow_id)
        gbr, want = flow.gbr_units, flow.rate_units
        if gbr > 0:
            self._reserve(flow, -gbr)
        elif self._rising.pop(flow_id, None) is not None and self._fair is not None:
            self._fair.remove(flow)
        if flow.slice_id is not None:
            self._add_demand(flow, -want)
        capacity, congested = self._capacity, self._congested
        for lid in flow.links:
            self._on_link[lid].discard(flow_id)
            load = self._offered[lid] - want
            self._offered[lid] = load
            if lid in congested:
                self._stale = True
                if load <= capacity[lid]:
                    congested.discard(lid)
        return flow

    def _reserve(self, flow: InstalledFlow, gbr: int) -> None:
        """Add `gbr` units (negative to release) to the GBR ledger along the flow's path."""
        slice_id = flow.slice_id
        meter_keys = self._meter_keys
        for lid in flow.links:
            self._be_capacity[lid] -= gbr
            keys = meter_keys.get(lid, ())
            if slice_id is None:
                self._unsliced_gbr[lid] = self._unsliced_gbr.get(lid, 0) + gbr
                if lid not in self._down:
                    for key in keys:
                        self._sliceable[key] -= gbr
            else:
                for fog, cls in keys:
                    key = (fog, slice_id, cls)
                    self._slice_gbr[key] = self._slice_gbr.get(key, 0) + gbr
        if slice_id is None:
            self.epoch += 1

    def _add_demand(self, flow: InstalledFlow, want: int) -> None:
        """Add `want` units (negative to release) to the slice's demand in
        each (fog, resource class) that the flow's path meters."""
        keys = self._path_keys.get(flow.links)
        if keys is None:
            meter_keys = self._meter_keys
            keys = tuple(sorted({key for lid in flow.links for key in meter_keys.get(lid, ())}))
            self._path_keys[flow.links] = keys
        demand = self._slice_demand
        slice_id = flow.slice_id
        for fog, cls in keys:
            key = (fog, slice_id, cls)
            demand[key] = demand.get(key, 0) + want

    # -- allocation ---------------------------------------------------------

    def recompute(self) -> None:
        """Bring the rates up to date with the installed flows.

        While no link is congested this only drops the solver index. While
        some link is, it runs the max-min solve when the solve is stale:
        when there is no index yet, or some install or removal since the
        last solve crossed a link congested before or after it (`_stale`).
        That covers every change to the congested links, to a contended
        link's capacity net of guarantees and to the rising flows on one,
        so otherwise the solve's input is what it was, and its levels
        stand: only the pending flows are classified, and a class that
        this makes gets level `(demand, 1)`. That is exact. A pending flow
        crossed no congested link when installed, and none has changed
        since, so it crosses no contended link; only a contended link can
        bind, so its class rises to its demand and freezes there, as does
        a class that a solve already froze, which it may join."""
        if not self._congested:
            # uncongested fast path: every flow carries its own rate, which
            # allocated() and load_units() read off the installed flows
            self._fair = None
            return
        fair = self._fair
        if fair is not None and not self._stale:
            for cls in fair.classify(self._congested):
                cls.level = (cls.demand, 1)
            return
        overcommitted = [lid for lid in self._congested if self._be_capacity[lid] < 0]
        if overcommitted:
            lid = min(overcommitted)
            held = self._capacity[lid] - self._be_capacity[lid]
            raise GbrOvercommit(lid, Fraction(held, self.unit), self.topology.links[lid].capacity)
        if fair is None:
            fair = self._fair = FairShareIndex(self._rising.values())
        recompute_fair_shares(fair, self._be_capacity, self._congested)
        self._stale = False

    def allocated(self, flow_id: str) -> Fraction:
        flow = self.flows.get(flow_id)
        if flow is None:
            return ZERO
        if flow.gbr_units > 0 or not self._congested or not flow.links:
            return Fraction(flow.rate_units, self.unit)
        level = None if self._fair is None else self._fair.level(flow_id)
        if level is None:
            return ZERO  # no solve since it was installed
        ln, ld = level
        return Fraction(ln, ld * self.unit)

    def load_units(self, *link_ids: str) -> int | Fraction:
        """The allocated rate summed over the links, in units: an int, or
        while congested a `Fraction` when the solve's levels are not whole
        units. A flow counts once per link it is summed on."""
        if not self._congested:
            # fast path: allocation equals offered load everywhere
            offered = self._offered
            used = 0
            for lid in link_ids:
                used += offered.get(lid, 0)
            return used
        # guarantees from the ledger (`_capacity` less `_be_capacity`),
        # best-effort rates from the last solve (none yet when no
        # recompute() has run since congestion began)
        capacity, be_capacity = self._capacity, self._be_capacity
        used = 0
        for lid in link_ids:
            used += capacity[lid] - be_capacity[lid]
        fair = self._fair
        return used if fair is None else fair.best_effort_on(link_ids, used)


# ---------------------------------------------------------------------------
# routing


def constrained_route(
    net: NetworkState,
    src: str,
    dst: str,
    allowed: AbstractSet[str],
    need: int = 0,
) -> List[Tuple[str, str]]:
    """Minimum-hop route over the Up links whose ids are in `allowed` and
    whose admission headroom (`residual_units`) is at least `need` units
    (when > 0).

    Ties break toward the smallest lexicographic node-id sequence (then
    smallest link id between the same pair). Raises NoRoute when the
    destination is unreachable.
    """
    if src == dst:
        return []
    # Distance-to-destination by BFS, then a greedy lexicographic walk. The
    # walk only reads distances below src's, so the BFS stops at src's level.
    dist = route_distances(net, dst, allowed, need, src)
    if src not in dist:
        raise NoRoute(f"no route {src} -> {dst}", src)
    return descend(net, src, dist, allowed, need)


def route_distances(
    net: NetworkState, dst: str, allowed: AbstractSet[str], need: int = 0, src: Optional[str] = None
) -> Dict[str, int]:
    """Hop distance to `dst` of each node that reaches it over the usable
    links of `allowed`, as `constrained_route` defines them, by BFS. With
    `src` the search stops once src's level is complete; without, it maps
    every node that reaches `dst`, which holds the same distance on every
    level, so `descend` reads the same route from either."""
    adjacency = net.topology.adjacency()
    links = net.topology.links
    residual = net._be_capacity
    down = net._down
    dist = {dst: 0}
    frontier = [dst]
    while frontier and src not in dist:
        nxt = []
        for node in frontier:
            level = dist[node] + 1
            for lid in adjacency.get(node, ()):
                if lid in allowed:
                    peer = links[lid].other(node)
                    if peer not in dist and lid not in down and (need <= 0 or residual[lid] >= need):
                        dist[peer] = level
                        nxt.append(peer)
        frontier = nxt
    return dist


def descend(
    net: NetworkState, src: str, dist: Dict[str, int], allowed: AbstractSet[str], need: int = 0
) -> List[Tuple[str, str]]:
    """The route from `src`, which `dist` (`route_distances`) maps, to the
    node at distance 0: from each node, the usable link of `allowed` one
    level down toward the smallest peer id (then smallest link id)."""
    adjacency = net.topology.adjacency()
    links = net.topology.links
    residual = net._be_capacity
    down = net._down
    hops: List[Tuple[str, str]] = []
    node = src
    remaining = dist[src]
    while remaining:
        remaining -= 1
        choices = []
        for lid in adjacency.get(node, ()):
            if lid in allowed:
                peer = links[lid].other(node)
                if dist.get(peer) == remaining and lid not in down and (need <= 0 or residual[lid] >= need):
                    choices.append((peer, lid))
        peer, lid = min(choices)
        hops.append((node, lid))
        node = peer
    return hops


def reverse_hops(hops: List[Tuple[str, str]], end: str) -> List[Tuple[str, str]]:
    """Reverse a hop list: a walk src->end becomes end->src."""
    nodes = [n for n, _ in hops] + [end]
    links = [l for _, l in hops]
    return [(nodes[i + 1], links[i]) for i in range(len(links) - 1, -1, -1)]


# ---------------------------------------------------------------------------
# fog service functions


class LruCache:
    """Unit-sized-item LRU content cache with hit/miss counters."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._store: "OrderedDict[str, None]" = OrderedDict()  # keys in LRU -> MRU order
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def peek(self, content_id: str) -> bool:
        """Residency check without touching counters or recency."""
        return content_id in self._store

    def lookup(self, content_id: str) -> bool:
        if content_id in self._store:
            self._store.move_to_end(content_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, content_id: str) -> Optional[str]:
        evicted = None
        if content_id in self._store:
            self._store.move_to_end(content_id)
            return None
        if len(self._store) >= self.capacity:
            evicted, _ = self._store.popitem(last=False)
        self._store[content_id] = None
        return evicted

    def resident(self) -> List[str]:
        """LRU -> MRU order."""
        return list(self._store)


class AddressPool:
    """Fog-scoped DHCP: unique address per authenticated user, no leases."""

    def __init__(self, fog_id: str, size: int, subnet_index: int = 0):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.fog_id = fog_id
        self.size = size
        self.subnet_index = subnet_index
        self._assigned: Dict[str, int] = {}

    def _format(self, index: int) -> str:
        return f"10.{self.subnet_index}.{index // 256}.{index % 256}"

    def assign(self, user_id: str, *, authenticated: bool) -> str:
        if not authenticated:
            raise NotAuthenticated(f"user {user_id} has no live session", user_id)
        if user_id in self._assigned:
            return self._format(self._assigned[user_id])
        used = set(self._assigned.values())
        for index in range(self.size):
            if index not in used:
                self._assigned[user_id] = index
                return self._format(index)
        raise PoolExhausted(f"pool of fog {self.fog_id} exhausted ({self.size} addresses)", user_id)

    def assigned_count(self) -> int:
        return len(self._assigned)
