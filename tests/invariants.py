"""Recount every kept fact of a simulation's network state after every event.

`check_after_every_event(sim)` registers one handler for every `EventKind`
through `sim.engine.on`. It is registered after the simulator's own
handlers, so it runs last for each event and sees the state that event
left. The handler recounts from the installed flows (`net.flows`, each
with the links of its path and the rates the scenario configures for
it: its class's demand and policy guarantee, or for a control-overhead
flow `ctl-<ap>` the overhead rate), the link and node health flags
(`link_up`, `node_up`) and the topology alone, and asserts that each of
these equals its recount:

- `NetworkState._offered` (per link: each flow's guarantee, else its
  demand, once per listing of the link), the guarantees per link, per
  listing (`capacity_units` less `_be_capacity`), and `_be_capacity`
  (capacity net of those guarantees), each an `int` in
  the network state's units of `1/net.unit` Mb/s; and `_congested` (links
  whose offered load exceeds capacity);
- the per-fog slice ledgers, keyed by (fog, slice, resource class), where
  a fog meters each link of a class with an end in it: `_slice_gbr`
  (guarantees, per listing) and `_slice_demand` (each sliced flow's
  guarantee, else its demand, once per key its path touches);
- each install plan `NetworkState._plans` keeps, one per link tuple a
  flow has been installed on: the tuple lists no link twice, and the
  plan is the tuple's (fog, class) keys, sorted (each tuple recounted
  once per run, `_Layout.plan`);
- `_down` (the links that are Down or have a Down end node) and
  `_sliceable` (per (fog, class): the Up metered links' capacity net of
  the unsliced guarantees on them), and from them, for every fog,
  `FogControl.physical_capacity()` and `FogControl.entitlements()` (each
  slice's share of that capacity);
- `flows_on_link` for every link, and `flows_at` for every node (the
  flows on the links incident to it);
- each WLAN AP's control-overhead flow `ctl-<ap>`: installed exactly
  when the scenario has control overhead and a fresh `constrained_route`
  from the AP to its fog's PoP over the fog's mesh links exists, and then
  on that route's hops, at the overhead rate as demand and guarantee;
- the rows the event appended to the slice report (`sim.slice_rows`),
  string for string, against the rows `oracles.slice_rows_oracle`
  rebuilds from the configured slices and the recounted capacity and
  demands.

It also asserts that each installed flow holds its configured guarantee
and rate (the guarantee, else the demand) in the network state's units
(`gbr_units`, `rate_units`), and that every installed path lists each
link once; on every link, that no installed flow crosses it while it or
one of its end nodes is Down, that its guarantees fit its capacity
(`residual_units >= 0`) and that its allocated rate does too
(`load_units <= capacity_units`); and on the links of each resource
class, that `load_units` over all of them at once equals the sum of its
per-link values.

The slice entitlement holds after every admission: right after the
install of each sliced flow with a guarantee, on every (fog, class) its
path meters, the slice's guarantees there are at most its entitlement
there. The check wraps `sim.net.install_flow`. It cannot be stated after
every event: a link going Down lowers the entitlements of its fog and
class while every guarantee on other links stays.

It returns a three-item list: the events checked, the admissions
checked and the slice report rows checked.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from fognet.dataplane import NoRoute, constrained_route
from fognet.engine import EventKind
from fognet.topology import LINK_TO_RESOURCE, NodeKind, ResourceClass
from fognet.util import ZERO
from oracles import slice_rows_oracle


class _Layout:
    """What the recounts read of the network, fogs and configuration and
    never changes in a run: each link's resource class, the fogs that
    meter it (those of its end nodes) and its (fog, class) keys, the links
    of each class, and the capacities and configured rates at one common
    denominator `den`, the LCM of the denominators of every capacity and
    every rate a flow can hold.

    A flow's rates are keyed by its class (`flow.spec.app_class`), or
    None for a control-overhead flow, which has no spec: `scaled[key]` is
    its guarantee and rate (the guarantee, else the demand) times `den`,
    and `units[key]` the same pair in the network state's units."""

    def __init__(self, sim):
        config = sim.config
        topo = sim.net.topology
        self.resource = {lid: LINK_TO_RESOURCE.get(link.link_class) for lid, link in topo.links.items()}
        self.fogs_of = {
            lid: sorted({topo.nodes[link.a].fog, topo.nodes[link.b].fog} & set(sim.fogs))
            for lid, link in topo.links.items()
        }
        self.link_keys = {
            lid: frozenset((fog, cls) for fog in self.fogs_of[lid]) if cls else frozenset()
            for lid, cls in self.resource.items()
        }
        self.links_of: Dict[Tuple[str, str], List[str]] = defaultdict(list)  # (fog, class) -> links
        for lid, keys in self.link_keys.items():
            for key in keys:
                self.links_of[key].append(lid)
        self.class_links = [
            [lid for lid in sorted(topo.links) if self.resource[lid] == cls] for cls in ResourceClass.ALL
        ]
        # (demand, guarantee) in Mb/s per class, and the overhead's under None
        overhead = config.wlan_control_overhead
        rates: Dict[Optional[str], Tuple[Fraction, Fraction]] = {None: (overhead, overhead)}
        for name, spec in config.workload.classes.items():
            rule = config.policy.get(name)
            rates[name] = (spec.demand, rule.gbr_rate if rule is not None else ZERO)
        self.den = den = lcm(
            *(link.capacity.denominator for link in topo.links.values()),
            *(rate.denominator for pair in rates.values() for rate in pair),
        )

        def scaled(rate: Fraction) -> int:
            return rate.numerator * (den // rate.denominator)

        unit = sim.net.unit
        self.scaled = {key: (scaled(gbr), scaled(gbr or demand)) for key, (demand, gbr) in rates.items()}
        self.units = {key: (gbr * unit, (gbr or demand) * unit) for key, (demand, gbr) in rates.items()}
        self.capacities = {lid: scaled(link.capacity) for lid, link in topo.links.items()}
        # (AP, its fog's PoP, the fog's mesh links) per WLAN AP
        self.control_routes = [
            (ap.id, topo.pop_of(ap.fog), topo.fog_domain(ap.fog).mesh) for ap in topo.nodes_of_kind(NodeKind.WLAN_AP)
        ]
        self._path_keys: Dict[Tuple[str, ...], FrozenSet[Tuple[str, str]]] = {}
        self._plans: Dict[Tuple[str, ...], Tuple[Tuple[str, str], ...]] = {}

    @staticmethod
    def key(flow) -> Optional[str]:
        """The key of the flow's configured rates."""
        return flow.spec.app_class if flow.spec is not None else None

    def meter_keys(self, links: Tuple[str, ...]) -> FrozenSet[Tuple[str, str]]:
        """The (fog, class) keys that the links are metered under."""
        if links not in self._path_keys:
            self._path_keys[links] = frozenset().union(*(self.link_keys[lid] for lid in links))
        return self._path_keys[links]

    def plan(self, links: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
        """The install plan of a link tuple that lists no link twice: its
        (fog, class) keys, sorted."""
        plan = self._plans.get(links)
        if plan is None:
            assert len(set(links)) == len(links), ("plan_lists_a_link_twice", links)
            plan = self._plans[links] = tuple(sorted(self.meter_keys(links)))
        return plan


_flow_id = attrgetter("flow_id")


def _up(net, lid: str) -> bool:
    link = net.topology.links[lid]
    return net.link_up[lid] and net.node_up[link.a] and net.node_up[link.b]


def check_state(sim, layout: _Layout, now_ms: int = 0, slice_rows: List[str] = ()) -> None:
    """The recounts are exact integers: every rate times the common
    denominator `layout.den` of this check's own. `slice_rows` are the
    slice report rows written at `now_ms` since the last check."""
    net = sim.net
    links = net.topology.links
    resource = layout.resource
    fogs_of = layout.fogs_of
    # in id order, so that each link's list of flows below is built sorted:
    # one sort per event, not one per link
    flows = sorted(net.flows.values(), key=_flow_id)
    den = layout.den
    unit = net.unit

    def same(ledger: int, total: int) -> bool:
        """A ledger entry in `net.unit` against a recount in `den`."""
        return type(ledger) is int and ledger * den == total * unit

    def units(total: int) -> Fraction:
        """A recount in `den` as a rate in `net.unit`."""
        return Fraction(total * unit, den)

    offered: Dict[str, int] = defaultdict(int)
    gbr: Dict[str, int] = defaultdict(int)
    unsliced: Dict[str, int] = defaultdict(int)
    slice_gbr: Dict[Tuple[str, str, str], int] = defaultdict(int)  # (fog, slice, class)
    demands: Dict[Tuple[str, str, str], int] = defaultdict(int)  # (fog, slice, class)
    on_link: Dict[str, List[str]] = defaultdict(list)
    for flow in flows:
        assert len(set(flow.links)) == len(flow.links), ("link_listed_twice", flow.flow_id)
        key = layout.key(flow)
        assert (flow.gbr_units, flow.rate_units) == layout.units[key], ("flow_rates", flow.flow_id)
        guarantee, want = layout.scaled[key]
        for lid in flow.links:
            offered[lid] += want
            on_link[lid].append(flow.flow_id)
            if guarantee > 0:
                gbr[lid] += guarantee
                if flow.slice_id is None:
                    unsliced[lid] += guarantee
                elif resource[lid] is not None:
                    for fog_id in fogs_of[lid]:
                        slice_gbr[fog_id, flow.slice_id, resource[lid]] += guarantee
        if flow.slice_id is not None:
            for fog_id, cls in layout.meter_keys(flow.links):
                demands[fog_id, flow.slice_id, cls] += want

    congested = set()
    down = set()
    physical = {(fog_id, cls): 0 for fog_id in sim.fogs for cls in ResourceClass.ALL}
    at: Dict[str, Set[str]] = defaultdict(set)  # node -> flows on its incident links
    load: Dict[str, int | Fraction] = {}  # link -> load_units(link)
    capacities = layout.capacities
    ledger_offered, be_capacity, link_up, node_up = net._offered, net._be_capacity, net.link_up, net.node_up
    for lid, link in links.items():
        # `same` inlined: each ledger an int, in `unit`, against its recount in `den`
        capacity, held, total = capacities[lid], gbr.get(lid, 0), offered.get(lid, 0)
        ledger = ledger_offered.get(lid, 0)
        assert type(ledger) is int and ledger * den == total * unit, ("offered", lid)
        ledger = net.capacity_units(lid) - be_capacity[lid]
        assert type(ledger) is int and ledger * den == held * unit, ("gbr", lid)
        ledger = be_capacity[lid]
        assert type(ledger) is int and ledger * den == (capacity - held) * unit, ("be_capacity", lid)
        assert net.flows_on_link(lid) == on_link.get(lid, []), ("flows_on_link", lid)
        assert net.residual_units(lid) >= 0, ("gbr_overcommit", lid)
        load[lid] = net.load_units(lid)
        assert load[lid] <= net.capacity_units(lid), ("load_over_capacity", lid)
        if total > capacity:
            congested.add(lid)
        up = link_up[lid] and node_up[link.a] and node_up[link.b]
        if not up:
            down.add(lid)
        if lid in on_link:
            assert up, ("flow_on_down_link", lid)
            at[link.a].update(on_link[lid])
            at[link.b].update(on_link[lid])
        if resource[lid] is not None and up:
            for fog_id in fogs_of[lid]:
                physical[fog_id, resource[lid]] += capacity - unsliced.get(lid, 0)
    assert net._congested == congested
    for ids in layout.class_links:
        assert net.load_units(*ids) == sum(load[lid] for lid in ids), ("class_load", ids[:1])
    assert net._down == down
    flows_at = net.flows_at
    for node in net.topology.nodes:
        found = flows_at(node)
        assert found == (sorted(at[node]) if node in at else []), ("flows_at", node)
    for key in set(slice_gbr) | set(net._slice_gbr):
        assert same(net._slice_gbr.get(key, 0), slice_gbr.get(key, 0)), ("slice_gbr", key)
    for key in set(demands) | set(net._slice_demand):
        assert same(net._slice_demand.get(key, 0), demands.get(key, 0)), ("slice_demand", key)
    for key in set(physical) | set(net._sliceable):
        assert same(net._sliceable.get(key, 0), physical.get(key, 0)), ("sliceable", key)
    plan_of = layout.plan
    for path, plan in net._plans.items():
        assert plan == plan_of(path), ("install_plan", path)

    overhead = sim.config.wlan_control_overhead
    for ap, pop, mesh in layout.control_routes:
        flow = net.flows.get(f"ctl-{ap}")
        try:
            route = tuple(constrained_route(net, ap, pop, mesh)) if overhead > 0 else None
        except NoRoute:
            route = None
        assert (flow.path.hops if flow else None) == route, ("control_route", ap)
        assert flow is None or flow.gbr_units == flow.rate_units == overhead * net.unit, ("control_rate", ap)

    for fog_id, fog in sim.fogs.items():
        expected = {cls: units(physical[fog_id, cls]) for cls in ResourceClass.ALL}
        assert fog.physical_capacity() == expected, ("physical_capacity", fog_id)
        manager = fog.slice_manager
        entitled = {
            (sid, cls): manager.spec(sid).share(cls) * expected[cls]
            for sid in manager.slice_ids()
            for cls in ResourceClass.ALL
        }
        assert fog.entitlements() == entitled, ("entitlements", fog_id)

    if slice_rows:
        expected = []
        for fog_id in sorted(sim.fogs):
            capacity = {cls: Fraction(physical[fog_id, cls], den) for cls in ResourceClass.ALL}
            demand = {
                (spec.slice_id, cls): Fraction(demands.get((fog_id, spec.slice_id, cls), 0), den)
                for spec in sim.config.slices
                for cls in ResourceClass.ALL
            }
            expected += slice_rows_oracle(now_ms, fog_id, sim.config.slices, capacity, demand)
        assert list(slice_rows) == expected, "slice_rows"


def check_admission(sim, layout: _Layout, flow) -> None:
    """Right after `flow`, a sliced flow with a guarantee, is installed:
    on every (fog, class) its path meters, the slice's guarantees there (per
    listing) are at most its share of the fog's Up capacity of the class,
    net of unsliced guarantees. Exact, in integers: every rate times
    `layout.den`, as in `check_state`."""
    net = sim.net
    keys = layout.meter_keys(flow.links)
    used: Dict[Tuple[str, str], int] = defaultdict(int)
    unsliced: Dict[str, int] = defaultdict(int)
    for other in net.flows.values():
        guarantee = layout.scaled[layout.key(other)][0]
        if guarantee == 0 or other.slice_id not in (None, flow.slice_id):
            continue
        for lid in other.links:
            if other.slice_id is None:
                unsliced[lid] += guarantee
            else:
                for key in layout.link_keys[lid] & keys:
                    used[key] += guarantee
    capacities = layout.capacities
    for key in sorted(keys):
        fog_id, cls = key
        capacity = sum(capacities[lid] - unsliced[lid] for lid in layout.links_of[key] if _up(net, lid))
        share = sim.fogs[fog_id].slice_manager.spec(flow.slice_id).share(cls)
        assert used[key] * share.denominator <= share.numerator * capacity, ("over_entitlement", flow.flow_id, key)


def check_after_every_event(sim) -> List[int]:
    layout = _Layout(sim)
    checked = [0, 0, 0]
    reported = [len(sim.slice_rows)]  # the slice report rows already checked or written at build

    def check(event) -> None:
        rows = sim.slice_rows
        check_state(sim, layout, event.time, rows[reported[0] :])
        checked[2] += len(rows) - reported[0]
        reported[0] = len(rows)
        checked[0] += 1

    install = sim.net.install_flow

    def install_and_check(flow) -> None:
        install(flow)
        if layout.scaled[layout.key(flow)][0] > 0 and flow.slice_id is not None:
            check_admission(sim, layout, flow)
            checked[1] += 1

    sim.net.install_flow = install_and_check
    for kind in EventKind:
        sim.engine.on(kind, check)
    return checked
