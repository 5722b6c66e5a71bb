"""Recount every kept fact of a simulation's network state after every event.

`check_after_every_event(sim)` registers one handler for every `EventKind`
through `sim.engine.on`. It is registered after the simulator's own
handlers, so it runs last for each event and sees the state that event
left. The handler recounts from the installed flows (`net.flows`, each
with the links of its path) and the link and node health alone, and asserts that each of these equals its
recount:

- `NetworkState._offered` (per link: each flow's guarantee, else its
  demand, once per listing of the link), `_gbr` (guarantees per link, per
  listing), `_be_capacity` (capacity net of `_gbr`) and `_slice_gbr`
  (guarantees per (slice, resource class), per listing), each an `int` in
  the network state's units of `1/net.unit` Mb/s; and `_congested` (links
  whose offered load exceeds capacity);
- `flows_on_link` for every link, and `flows_at` for every node (the
  flows on the links incident to it);
- `FogControl.physical_capacity()` for every fog: its Up metered links of
  each class, net of the unsliced guarantees on them;
- `Simulation._slice_demands(fog)` for every fog: per slice and class, the
  rate (guarantee, else demand) of each flow the fog's slice owns, once
  per flow per class its path touches.

Both of the last two are in the network state's units. It also asserts,
on every link, that no installed flow crosses it while it or one of its
end nodes is Down, that its guarantees fit its capacity
(`residual_units >= 0`) and that its allocated rate does too
(`load_units <= capacity_units`).

It returns a one-item list that counts the events checked.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Set, Tuple

from fognet.engine import EventKind
from fognet.topology import LINK_TO_RESOURCE, ResourceClass


class _Layout:
    """What the recounts read of the network and fogs and never changes in
    a run: each link's resource class and metering fogs, each user's
    (fog, slice) registrations, and what follows from them (a flow's owner
    fogs, the capacities at a common denominator), memoized."""

    def __init__(self, sim):
        topo = sim.net.topology
        self.resource = {lid: LINK_TO_RESOURCE.get(link.link_class) for lid, link in topo.links.items()}
        self.fogs_of = {
            lid: {topo.nodes[link.a].fog, topo.nodes[link.b].fog} & set(sim.fogs)
            for lid, link in topo.links.items()
        }
        self.slices_of: Dict[str, List[Tuple[str, str]]] = {}
        for fog_id, fog in sim.fogs.items():
            for user in topo.nodes:
                if fog.has_user(user):
                    self.slices_of.setdefault(user, []).append((fog_id, fog.slice_of_user(user)))
        self.capacity_den = lcm(*(link.capacity.denominator for link in topo.links.values()))
        self._links = topo.links
        self._capacities: Dict[int, Dict[str, int]] = {}
        self._owners: Dict[Tuple[str, str, Optional[str]], Set[str]] = {}

    def capacities(self, den: int) -> Dict[str, int]:
        """Each link's capacity times `den`."""
        if den not in self._capacities:
            self._capacities[den] = {
                lid: link.capacity.numerator * (den // link.capacity.denominator) for lid, link in self._links.items()
            }
        return self._capacities[den]

    def owners(self, flow) -> Set[str]:
        """The fogs whose slice `flow.slice_id` holds one of its path's end users."""
        key = (flow.path.src, flow.path.dst, flow.slice_id)
        if key not in self._owners:
            self._owners[key] = {
                fog_id
                for end in key[:2]
                for fog_id, slice_id in self.slices_of.get(end, ())
                if slice_id == flow.slice_id
            }
        return self._owners[key]


def check_state(sim, layout: _Layout) -> None:
    """The recounts are exact integers: every rate times a common
    denominator `den` of this check's own (the LCM of the denominators of
    every capacity and installed flow rate)."""
    net = sim.net
    links = net.topology.links
    resource = layout.resource
    flows = list(net.flows.values())
    den = lcm(layout.capacity_den, *(rate.denominator for f in flows for rate in (f.demand, f.gbr)))

    def scaled(rate: Fraction) -> int:
        return rate.numerator * (den // rate.denominator)

    def same(ledger: int, total: int) -> bool:
        """A ledger entry in `net.unit` against a recount in `den`."""
        return type(ledger) is int and ledger * den == total * net.unit

    def units(total: int) -> Fraction:
        """A recount in `den` as a rate in `net.unit`."""
        return Fraction(total * net.unit, den)

    offered: Dict[str, int] = defaultdict(int)
    gbr: Dict[str, int] = defaultdict(int)
    unsliced: Dict[str, int] = defaultdict(int)
    slice_gbr: Dict[Tuple[str, str], int] = defaultdict(int)
    demands: Dict[Tuple[str, str, str], int] = defaultdict(int)  # (fog, slice, class)
    on_link: Dict[str, Set[str]] = defaultdict(set)
    for flow in flows:
        guarantee = scaled(flow.gbr)
        want = guarantee if guarantee > 0 else scaled(flow.demand)
        for lid in flow.links:
            offered[lid] += want
            on_link[lid].add(flow.flow_id)
            if guarantee > 0:
                gbr[lid] += guarantee
                if flow.slice_id is None:
                    unsliced[lid] += guarantee
                elif resource[lid] is not None:
                    slice_gbr[flow.slice_id, resource[lid]] += guarantee
        for fog_id in layout.owners(flow):
            for cls in {resource[lid] for lid in flow.links} - {None}:
                demands[fog_id, flow.slice_id, cls] += want

    congested = set()
    physical = {fog_id: {cls: 0 for cls in ResourceClass.ALL} for fog_id in sim.fogs}
    at: Dict[str, Set[str]] = defaultdict(set)  # node -> flows on its incident links
    capacities = layout.capacities(den)
    for lid, link in links.items():
        capacity = capacities[lid]
        assert same(net._offered.get(lid, 0), offered.get(lid, 0)), ("offered", lid)
        assert same(net._gbr.get(lid, 0), gbr.get(lid, 0)), ("gbr", lid)
        assert same(net._be_capacity[lid], capacity - gbr.get(lid, 0)), ("be_capacity", lid)
        assert net.flows_on_link(lid) == sorted(on_link.get(lid, ())), ("flows_on_link", lid)
        assert net.residual_units(lid) >= 0, ("gbr_overcommit", lid)
        assert net.load_units(lid) <= net.capacity_units(lid), ("load_over_capacity", lid)
        if offered.get(lid, 0) > capacity:
            congested.add(lid)
        up = net.link_up[lid] and net.node_up[link.a] and net.node_up[link.b]
        if lid in on_link:
            assert up, ("flow_on_down_link", lid)
            at[link.a] |= on_link[lid]
            at[link.b] |= on_link[lid]
        if resource[lid] is not None and up:
            for fog_id in layout.fogs_of[lid]:
                physical[fog_id][resource[lid]] += capacity - unsliced.get(lid, 0)
    assert net._congested == congested
    flows_at = net.flows_at
    for node in net.topology.nodes:
        found = flows_at(node)
        assert found == (sorted(at[node]) if node in at else []), ("flows_at", node)
    for key in set(slice_gbr) | set(net._slice_gbr):
        assert same(net._slice_gbr.get(key, 0), slice_gbr.get(key, 0)), ("slice_gbr", key)

    for fog_id, fog in sim.fogs.items():
        expected = {cls: units(total) for cls, total in physical[fog_id].items()}
        assert fog.physical_capacity() == expected, ("physical_capacity", fog_id)
        per_slice: Dict[str, Dict[str, Fraction]] = {sid: {} for sid in fog.slice_manager.slice_ids()}
        for (owner, slice_id, cls), total in demands.items():
            if owner == fog_id:
                per_slice[slice_id][cls] = units(total)
        assert sim._slice_demands(fog) == per_slice, ("slice_demands", fog_id)


def check_after_every_event(sim) -> List[int]:
    layout = _Layout(sim)
    checked = [0]

    def check(_event) -> None:
        check_state(sim, layout)
        checked[0] += 1

    for kind in EventKind:
        sim.engine.on(kind, check)
    return checked
