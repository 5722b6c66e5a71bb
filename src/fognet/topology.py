"""Rural access-network topology: typed graph, validation, clustered generator.

The graph mixes five link classes: fibre backhaul from each PoP up to the
cloud gateway, a multi-hop wireless middle mile between mast sites, WLAN
and macro access links down to users, and internal wiring between
co-located elements. One fog element spans a PoP, its co-located macro BS,
the middle-mile mesh and the cluster WLANs hanging off it.

Topologies are immutable after construction and safe to share read-only
across scenario replicas.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

import yaml

from .util import rate_str, to_rate


class NodeKind(str, Enum):
    CLOUD_GATEWAY = "CloudGateway"
    POP = "PoP"
    MACRO_BS = "MacroBS"
    MIDDLE_MILE_AP = "MiddleMileAP"
    MIDDLE_MILE_CLIENT = "MiddleMileClient"
    WLAN_AP = "WlanAP"
    USER = "User"


class LinkClass(str, Enum):
    BACKHAUL = "Backhaul"
    MIDDLE_MILE = "MiddleMile"
    WLAN_ACCESS = "WlanAccess"
    MACRO_ACCESS = "MacroAccess"
    INTERNAL = "Internal"


class LinkState(str, Enum):
    UP = "Up"
    DOWN = "Down"


class ResourceClass:
    """The resource classes that slices share and metrics report: one per
    metered link class."""

    MACRO = "Macro"
    WLAN = "Wlan"
    MIDDLE_MILE = "MiddleMile"
    BACKHAUL = "Backhaul"

    ALL = (MACRO, WLAN, MIDDLE_MILE, BACKHAUL)


LINK_TO_RESOURCE = {
    LinkClass.MACRO_ACCESS: ResourceClass.MACRO,
    LinkClass.WLAN_ACCESS: ResourceClass.WLAN,
    LinkClass.MIDDLE_MILE: ResourceClass.MIDDLE_MILE,
    LinkClass.BACKHAUL: ResourceClass.BACKHAUL,
    # Internal wiring is unmetered and belongs to no resource class.
}

# Per-class (capacity Mb/s, latency ms) used by the generator. Harness
# configs may override these per scenario; nothing in the engine assumes
# them.
DEFAULT_LINK_PROFILE = {
    LinkClass.BACKHAUL: (Fraction(100), 10.0),
    LinkClass.MIDDLE_MILE: (Fraction(50), 2.0),
    LinkClass.WLAN_ACCESS: (Fraction(25), 1.0),
    LinkClass.MACRO_ACCESS: (Fraction(10), 2.0),
    LinkClass.INTERNAL: (Fraction(1000), 0.0),
}


class TopologyError(Exception):
    """Base class for topology construction failures."""

    def __init__(self, message: str, element: str = ""):
        super().__init__(message)
        self.element = element


class MissingPoP(TopologyError):
    pass


class DanglingLinkEndpoint(TopologyError):
    pass


class DisconnectedWlanAP(TopologyError):
    pass


class InvalidCapacity(TopologyError):
    pass


class InfeasiblePlacement(TopologyError):
    pass


class InvalidTopology(TopologyError):
    """Raised when a document violates invariants not covered by a named error."""

    def __init__(self, violations: List["Violation"]):
        first = violations[0]
        super().__init__(f"{first.rule}: {first.detail}", first.element)
        self.violations = violations


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    fog: Optional[str] = None
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class Link:
    id: str
    a: str
    b: str
    link_class: LinkClass
    capacity: Fraction
    latency_ms: float
    state: LinkState = LinkState.UP

    def other(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a


@dataclass(frozen=True)
class Cluster:
    id: str
    x: float
    y: float
    wlan_aps: Tuple[str, ...]
    users: Tuple[str, ...]


@dataclass(frozen=True)
class FogDomain:
    """The links one fog routes over and meters, by role.

    - `mesh`: ids of the MiddleMile and Internal links with both ends in
      the fog, the middle-mile graph its routes run over;
    - `backhaul`: Backhaul links with either end in the fog, by id, and
      `backhaul_ids`, their ids, which cloud-bound routes add to `mesh`;
    - `metered`: resource class -> links of that class with either end in
      the fog, by id; the key None holds every metered link of the fog.

    Shared by every caller; do not mutate the lists.
    """

    mesh: FrozenSet[str] = frozenset()
    backhaul: List[Link] = field(default_factory=list)
    backhaul_ids: FrozenSet[str] = frozenset()
    metered: Dict[Optional[str], List[Link]] = field(default_factory=dict)


@dataclass
class Topology:
    """Immutable-by-convention container; do not mutate after construction."""

    nodes: Dict[str, Node]
    links: Dict[str, Link]
    clusters: Dict[str, Cluster]
    _adj: Dict[str, List[str]] = field(default=None, compare=False, repr=False)
    _domains: Dict[str, FogDomain] = field(default=None, compare=False, repr=False)
    _gateway: Optional[str] = field(default=None, compare=False, repr=False)
    _cyclic: Dict[Tuple[str, bool], FrozenSet[str]] = field(default=None, compare=False, repr=False)

    # -- indexed lookups -------------------------------------------------

    def adjacency(self) -> Dict[str, List[str]]:
        """node id -> sorted link ids incident to it (cached)."""
        if self._adj is None:
            adj: Dict[str, List[str]] = {nid: [] for nid in self.nodes}
            for link in self.links.values():
                if link.a in adj:
                    adj[link.a].append(link.id)
                if link.b in adj:
                    adj[link.b].append(link.id)
            for lids in adj.values():
                lids.sort()
            self._adj = adj
        return self._adj

    def fog_domain(self, fog: Optional[str]) -> FogDomain:
        """The fog's links by role (cached for every fog on first use); an
        unknown fog, or None, has no links."""
        if self._domains is None:
            parts = {f: (set(), [], {None: []}) for f in self.fogs()}  # mesh, backhaul, metered
            for lid in sorted(self.links):
                link = self.links[lid]
                fa, fb = self.nodes[link.a].fog, self.nodes[link.b].fog
                resource = LINK_TO_RESOURCE.get(link.link_class)
                for f in {fa, fb} - {None}:
                    mesh, backhaul, metered = parts[f]
                    if fa == fb and link.link_class in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL):
                        mesh.add(lid)
                    if link.link_class == LinkClass.BACKHAUL:
                        backhaul.append(link)
                    if resource is not None:
                        metered[None].append(link)
                        metered.setdefault(resource, []).append(link)
            self._domains = {
                f: FogDomain(frozenset(mesh), backhaul, frozenset(l.id for l in backhaul), metered)
                for f, (mesh, backhaul, metered) in parts.items()
            }
        return self._domains.get(fog, _NO_DOMAIN)

    def cyclic_links(self, fog: str, via_backhaul: bool) -> FrozenSet[str]:
        """The links of the fog's routing graph, its mesh and, `via_backhaul`,
        its backhaul, that lie on a cycle of that graph: every link of it
        but its bridges (cached per key on first use). Health plays no
        part. A bridge is on every route between nodes on its two sides,
        and so on none between nodes on one side."""
        if self._cyclic is None:
            self._cyclic = {}
        key = (fog, via_backhaul)
        if key not in self._cyclic:
            domain = self.fog_domain(fog)
            graph = domain.mesh | domain.backhaul_ids if via_backhaul else domain.mesh
            self._cyclic[key] = graph - _bridges(self.links, graph)
        return self._cyclic[key]

    def links_at(self, node_id: str) -> List[Link]:
        return [self.links[lid] for lid in self.adjacency().get(node_id, [])]

    def fogs(self) -> List[str]:
        return sorted({n.fog for n in self.nodes.values() if n.fog is not None})

    def nodes_of_kind(self, kind: NodeKind, fog: Optional[str] = None) -> List[Node]:
        out = [n for n in self.nodes.values() if n.kind == kind]
        if fog is not None:
            out = [n for n in out if n.fog == fog]
        return sorted(out, key=lambda n: n.id)

    def gateway_id(self) -> str:
        """The lowest-id CloudGateway node (cached once found)."""
        if self._gateway is None:
            gws = self.nodes_of_kind(NodeKind.CLOUD_GATEWAY)
            if not gws:
                raise InvalidTopology([Violation("MissingCloudGateway", "-", "no CloudGateway node")])
            self._gateway = gws[0].id
        return self._gateway

    def pop_of(self, fog: str) -> str:
        pops = self.nodes_of_kind(NodeKind.POP, fog)
        if not pops:
            raise MissingPoP(f"fog {fog} has no PoP", fog)
        return pops[0].id

    def fog_of(self, node_id: str) -> Optional[str]:
        return self.nodes[node_id].fog

    def access_links(self, user_id: str) -> List[Link]:
        return [
            l
            for l in self.links_at(user_id)
            if l.link_class in (LinkClass.WLAN_ACCESS, LinkClass.MACRO_ACCESS)
        ]

    def client_of_ap(self, ap_id: str) -> Optional[str]:
        for link in self.links_at(ap_id):
            if link.link_class == LinkClass.INTERNAL:
                peer = self.nodes.get(link.other(ap_id))
                if peer and peer.kind == NodeKind.MIDDLE_MILE_CLIENT:
                    return peer.id
        return None

    def cluster_of_user(self, user_id: str) -> Optional[str]:
        for cluster in sorted(self.clusters.values(), key=lambda c: c.id):
            if user_id in cluster.users:
                return cluster.id
        return None

    def wlan_link(self, user_id: str, cluster_id: str) -> Optional[Link]:
        """The user's WLAN access link into the given cluster, if any."""
        cluster = self.clusters.get(cluster_id)
        if cluster is None:
            return None
        for link in self.links_at(user_id):
            if link.link_class == LinkClass.WLAN_ACCESS and link.other(user_id) in cluster.wlan_aps:
                return link
        return None

    def macro_link(self, user_id: str) -> Optional[Link]:
        for link in self.links_at(user_id):
            if link.link_class == LinkClass.MACRO_ACCESS:
                return link
        return None

    def backhaul_links(self, fog: str) -> List[Link]:
        """Backhaul links with either end in the fog, by id (shared; do not mutate)."""
        return self.fog_domain(fog).backhaul


_NO_DOMAIN = FogDomain()


def _bridges(links: Dict[str, Link], graph: FrozenSet[str]) -> set:
    """The ids of the bridges of the graph of the links `graph`, in linear
    time: one depth-first search per component, iterative, in which a tree
    link is a bridge when nothing below it reaches above it (Tarjan, "A
    note on finding the bridges of a graph", 1974). Parallel links are
    told apart by id, so a link doubled by another is no bridge."""
    adj: Dict[str, List[Tuple[str, str]]] = {}
    for lid in sorted(graph):
        link = links[lid]
        adj.setdefault(link.a, []).append((link.b, lid))
        adj.setdefault(link.b, []).append((link.a, lid))
    order: Dict[str, int] = {}
    low: Dict[str, int] = {}
    bridges = set()
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, via, edges = stack[-1]
            for peer, lid in edges:
                if lid == via:
                    continue
                if peer in order:
                    low[node] = min(low[node], order[peer])
                else:
                    order[peer] = low[peer] = len(order)
                    stack.append((peer, lid, iter(adj[peer])))
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > order[parent]:
                        bridges.add(via)
    return bridges


@dataclass(frozen=True)
class Violation:
    rule: str
    element: str
    detail: str


@dataclass(frozen=True)
class TopologyGenParams:
    clusters: int
    users_min: int
    users_max: int
    cluster_radius_m: float
    area_side_m: float
    mesh_degree_bound: int
    macro_radius_m: float
    wlan_radius_m: float
    seed: int

    def check(self) -> None:
        if min(self.clusters, self.users_min, self.users_max, self.mesh_degree_bound) < 1:
            raise ValueError("all counts must be >= 1")
        if self.users_max < self.users_min:
            raise ValueError("users_max < users_min")
        if min(self.cluster_radius_m, self.area_side_m, self.macro_radius_m, self.wlan_radius_m) <= 0:
            raise ValueError("radii and area side must be > 0")
        if self.clusters > 1 and self.mesh_degree_bound < 2:
            raise ValueError("mesh_degree_bound must be >= 2 for multi-cluster meshes")


# ---------------------------------------------------------------------------
# validation


def _endpoint_kinds_ok(link: Link, ka: NodeKind, kb: NodeKind) -> bool:
    pair = {ka, kb}
    cls = link.link_class
    if cls == LinkClass.BACKHAUL:
        return pair == {NodeKind.POP, NodeKind.CLOUD_GATEWAY}
    if cls == LinkClass.MIDDLE_MILE:
        return pair in (
            {NodeKind.MIDDLE_MILE_AP, NodeKind.MIDDLE_MILE_CLIENT},
            {NodeKind.MIDDLE_MILE_CLIENT},
        )
    if cls == LinkClass.WLAN_ACCESS:
        return pair == {NodeKind.USER, NodeKind.WLAN_AP}
    if cls == LinkClass.MACRO_ACCESS:
        return pair == {NodeKind.USER, NodeKind.MACRO_BS}
    if cls == LinkClass.INTERNAL:
        return NodeKind.USER not in pair and NodeKind.CLOUD_GATEWAY not in pair
    return False


def validate(topo: Topology) -> List[Violation]:
    """Check every structural invariant; returns one violation per breach."""
    out: List[Violation] = []

    gws = topo.nodes_of_kind(NodeKind.CLOUD_GATEWAY)
    if len(gws) == 0:
        out.append(Violation("MissingCloudGateway", "-", "scenario needs exactly one CloudGateway"))
    elif len(gws) > 1:
        out.append(Violation("MultipleCloudGateways", gws[1].id, f"{len(gws)} CloudGateway nodes"))

    for node in sorted(topo.nodes.values(), key=lambda n: n.id):
        if node.kind == NodeKind.CLOUD_GATEWAY:
            if node.fog is not None:
                out.append(Violation("FogAssignment", node.id, "CloudGateway must not belong to a fog"))
        elif node.fog is None:
            out.append(Violation("FogAssignment", node.id, "node has no fog assignment"))

    for fog in topo.fogs():
        pops = topo.nodes_of_kind(NodeKind.POP, fog)
        if len(pops) == 0:
            out.append(Violation("MissingPoP", fog, "fog has no PoP"))
        elif len(pops) > 1:
            out.append(Violation("MultiplePoP", fog, f"fog has {len(pops)} PoPs"))
        macros = topo.nodes_of_kind(NodeKind.MACRO_BS, fog)
        if len(macros) == 0:
            out.append(Violation("MissingMacroBS", fog, "fog has no macro BS"))
        elif len(macros) > 1:
            out.append(Violation("MultipleMacroBS", fog, f"fog has {len(macros)} macro BSs"))

    for link in sorted(topo.links.values(), key=lambda l: l.id):
        missing = [e for e in (link.a, link.b) if e not in topo.nodes]
        if missing:
            out.append(Violation("DanglingLinkEndpoint", link.id, f"unknown endpoint {missing[0]}"))
            continue
        ka, kb = topo.nodes[link.a].kind, topo.nodes[link.b].kind
        if not _endpoint_kinds_ok(link, ka, kb):
            out.append(
                Violation(
                    "BadLinkEndpoints",
                    link.id,
                    f"{link.link_class.value} cannot join {ka.value} and {kb.value}",
                )
            )
        if link.capacity <= 0:
            out.append(Violation("InvalidCapacity", link.id, f"capacity {link.capacity} must be > 0"))
        if link.latency_ms < 0:
            out.append(Violation("InvalidLatency", link.id, f"latency {link.latency_ms} must be >= 0"))
        if link.link_class != LinkClass.BACKHAUL:
            fa, fb = topo.nodes[link.a].fog, topo.nodes[link.b].fog
            if fa != fb:
                out.append(Violation("LinkFogSpan", link.id, f"link spans fogs {fa} and {fb}"))

    clustered_aps: Dict[str, str] = {}
    seen_members: Dict[str, str] = {}
    for cluster in sorted(topo.clusters.values(), key=lambda c: c.id):
        if not cluster.wlan_aps:
            out.append(Violation("EmptyCluster", cluster.id, "cluster has no WLAN AP"))
        for member in list(cluster.wlan_aps) + list(cluster.users):
            if member not in topo.nodes:
                out.append(Violation("BadClusterMember", cluster.id, f"unknown member {member}"))
                continue
            if member in seen_members and seen_members[member] != cluster.id:
                out.append(
                    Violation("OverlappingClusters", member, f"member of {seen_members[member]} and {cluster.id}")
                )
            seen_members[member] = cluster.id
        for ap in cluster.wlan_aps:
            if ap in topo.nodes and topo.nodes[ap].kind != NodeKind.WLAN_AP:
                out.append(Violation("BadClusterMember", cluster.id, f"{ap} is not a WlanAP"))
            clustered_aps[ap] = cluster.id
        for user in cluster.users:
            if user in topo.nodes and topo.nodes[user].kind != NodeKind.USER:
                out.append(Violation("BadClusterMember", cluster.id, f"{user} is not a User"))

    for ap in topo.nodes_of_kind(NodeKind.WLAN_AP):
        clients = [
            l.other(ap.id)
            for l in topo.links_at(ap.id)
            if l.link_class == LinkClass.INTERNAL
            and l.other(ap.id) in topo.nodes
            and topo.nodes[l.other(ap.id)].kind == NodeKind.MIDDLE_MILE_CLIENT
        ]
        if len(clients) != 1:
            out.append(Violation("WlanApAttachment", ap.id, f"attached to {len(clients)} middle-mile clients"))
        if ap.id not in clustered_aps:
            out.append(Violation("UnclusteredWlanAP", ap.id, "WLAN AP belongs to no cluster"))

    for client in topo.nodes_of_kind(NodeKind.MIDDLE_MILE_CLIENT):
        ap_clusters = sorted(
            {
                clustered_aps.get(l.other(client.id), "?")
                for l in topo.links_at(client.id)
                if l.link_class == LinkClass.INTERNAL
                and l.other(client.id) in topo.nodes
                and topo.nodes[l.other(client.id)].kind == NodeKind.WLAN_AP
            }
        )
        if len(ap_clusters) != 1 or "?" in ap_clusters:
            out.append(
                Violation("ClientClusterMembership", client.id, f"serves clusters {ap_clusters or '[]'}")
            )

    # Every WLAN AP must reach its fog's PoP over Up middle-mile/internal links.
    for fog in topo.fogs():
        pops = topo.nodes_of_kind(NodeKind.POP, fog)
        if len(pops) != 1:
            continue
        reachable = _mesh_component(topo, pops[0].id, fog)
        for ap in topo.nodes_of_kind(NodeKind.WLAN_AP, fog):
            if ap.id not in reachable:
                out.append(Violation("DisconnectedWlanAP", ap.id, f"no middle-mile path to {pops[0].id}"))

    for user in topo.nodes_of_kind(NodeKind.USER):
        if not topo.access_links(user.id):
            out.append(Violation("UserUnreachable", user.id, "user has no access link"))

    return out


def _mesh_component(topo: Topology, start: str, fog: str) -> set:
    """Nodes reachable from start over Up MiddleMile/Internal links of one fog."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for link in topo.links_at(node):
            if link.state != LinkState.UP:
                continue
            if link.link_class not in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL):
                continue
            peer = link.other(node)
            if peer not in topo.nodes or topo.nodes[peer].fog != fog:
                continue
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return seen


_RULE_TO_ERROR = {
    "MissingPoP": MissingPoP,
    "DanglingLinkEndpoint": DanglingLinkEndpoint,
    "DisconnectedWlanAP": DisconnectedWlanAP,
    "InvalidCapacity": InvalidCapacity,
}


def check_or_raise(topo: Topology) -> Topology:
    violations = validate(topo)
    if violations:
        first = violations[0]
        exc = _RULE_TO_ERROR.get(first.rule)
        if exc is not None:
            raise exc(f"{first.rule}: {first.detail}", first.element)
        raise InvalidTopology(violations)
    return topo


# ---------------------------------------------------------------------------
# document serialization


_NODE_KEYS = {"id", "kind", "fog", "x", "y"}
_LINK_KEYS = {"id", "a", "b", "class", "capacity", "latency_ms", "state"}
_CLUSTER_KEYS = {"id", "x", "y", "wlan_aps", "users"}


def _strict(entry: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise InvalidTopology([Violation("UnknownKey", where, f"unknown key {unknown[0]!r}")])


def build_from_config(doc: dict) -> Topology:
    """Build and fully validate a topology from a parsed document."""
    if not isinstance(doc, dict):
        raise InvalidTopology([Violation("BadDocument", "-", "topology document must be a mapping")])
    _strict(doc, {"nodes", "links", "clusters"}, "topology")

    nodes: Dict[str, Node] = {}
    for entry in doc.get("nodes", []) or []:
        _strict(entry, _NODE_KEYS, f"nodes[{entry.get('id', '?')}]")
        nid = str(entry["id"])
        if nid in nodes:
            raise InvalidTopology([Violation("DuplicateId", nid, "duplicate node id")])
        kind = NodeKind(entry["kind"])
        fog = entry.get("fog")
        nodes[nid] = Node(
            id=nid,
            kind=kind,
            fog=None if fog is None else str(fog),
            x=float(entry.get("x", 0.0)),
            y=float(entry.get("y", 0.0)),
        )

    links: Dict[str, Link] = {}
    for entry in doc.get("links", []) or []:
        _strict(entry, _LINK_KEYS, f"links[{entry.get('id', '?')}]")
        lid = str(entry["id"])
        if lid in links:
            raise InvalidTopology([Violation("DuplicateId", lid, "duplicate link id")])
        try:
            capacity = to_rate(entry["capacity"])
        except (ValueError, TypeError) as exc:
            raise InvalidCapacity(f"link {lid}: {exc}", lid) from exc
        links[lid] = Link(
            id=lid,
            a=str(entry["a"]),
            b=str(entry["b"]),
            link_class=LinkClass(entry["class"]),
            capacity=capacity,
            latency_ms=float(entry.get("latency_ms", 0.0)),
            state=LinkState(entry.get("state", "Up")),
        )

    clusters: Dict[str, Cluster] = {}
    for entry in doc.get("clusters", []) or []:
        _strict(entry, _CLUSTER_KEYS, f"clusters[{entry.get('id', '?')}]")
        cid = str(entry["id"])
        if cid in clusters:
            raise InvalidTopology([Violation("DuplicateId", cid, "duplicate cluster id")])
        clusters[cid] = Cluster(
            id=cid,
            x=float(entry.get("x", 0.0)),
            y=float(entry.get("y", 0.0)),
            wlan_aps=tuple(str(a) for a in entry.get("wlan_aps", [])),
            users=tuple(str(u) for u in entry.get("users", [])),
        )

    return check_or_raise(Topology(nodes=nodes, links=links, clusters=clusters))


def to_doc(topo: Topology) -> dict:
    """Canonical document form: sections sorted by id, defaults omitted."""
    nodes = []
    for node in sorted(topo.nodes.values(), key=lambda n: n.id):
        entry = {"id": node.id, "kind": node.kind.value}
        if node.fog is not None:
            entry["fog"] = node.fog
        if node.x or node.y:
            entry["x"] = node.x
            entry["y"] = node.y
        nodes.append(entry)
    links = []
    for link in sorted(topo.links.values(), key=lambda l: l.id):
        entry = {
            "id": link.id,
            "a": link.a,
            "b": link.b,
            "class": link.link_class.value,
            "capacity": yaml.safe_load(rate_str(link.capacity)),
            "latency_ms": link.latency_ms,
        }
        if link.state != LinkState.UP:
            entry["state"] = link.state.value
        links.append(entry)
    clusters = []
    for cluster in sorted(topo.clusters.values(), key=lambda c: c.id):
        clusters.append(
            {
                "id": cluster.id,
                "x": cluster.x,
                "y": cluster.y,
                "wlan_aps": list(cluster.wlan_aps),
                "users": list(cluster.users),
            }
        )
    return {"nodes": nodes, "links": links, "clusters": clusters}


def dumps(topo: Topology) -> str:
    return yaml.safe_dump(to_doc(topo), sort_keys=False, default_flow_style=None)


def loads(text: str) -> Topology:
    return build_from_config(yaml.safe_load(text))


def save_topology(topo: Topology, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(topo))


def load_topology(path) -> Topology:
    with open(path) as fh:
        return loads(fh.read())


def with_link_profile(topo: Topology, profile: Dict[LinkClass, Tuple[Fraction, float]]) -> Topology:
    """Copy of the topology with per-class capacity/latency overrides applied."""
    links = {}
    for lid, link in topo.links.items():
        override = profile.get(link.link_class)
        if override is None:
            links[lid] = link
        else:
            cap, lat = override
            links[lid] = replace(link, capacity=cap, latency_ms=lat)
    return Topology(nodes=dict(topo.nodes), links=links, clusters=dict(topo.clusters))


# ---------------------------------------------------------------------------
# clustered generator


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


def generate_clustered(params: TopologyGenParams) -> Topology:
    """Generate a single-fog topology with far-apart village clusters.

    The PoP, macro BS and middle-mile AP sit at the area centre; each
    cluster gets one middle-mile client, one WLAN AP and a seeded number
    of users. The mesh grows greedily: every client attaches to its
    nearest already-connected middle-mile node with spare degree.
    """
    params.check()
    rng = random.Random(params.seed)
    fog = "fog1"
    side = params.area_side_m
    cx = cy = side / 2.0

    nodes: Dict[str, Node] = {}
    links: Dict[str, Link] = {}
    clusters: Dict[str, Cluster] = {}

    def add_node(nid, kind, x=0.0, y=0.0, in_fog=True):
        nodes[nid] = Node(id=nid, kind=kind, fog=fog if in_fog else None, x=x, y=y)

    def add_link(lid, a, b, cls):
        cap, lat = DEFAULT_LINK_PROFILE[cls]
        links[lid] = Link(id=lid, a=a, b=b, link_class=cls, capacity=cap, latency_ms=lat)

    add_node("gw", NodeKind.CLOUD_GATEWAY, cx, cy, in_fog=False)
    add_node("pop", NodeKind.POP, cx, cy)
    add_node("macro", NodeKind.MACRO_BS, cx, cy)
    add_node("mmap", NodeKind.MIDDLE_MILE_AP, cx, cy)
    add_link("bh-pop-gw", "pop", "gw", LinkClass.BACKHAUL)
    add_link("in-pop-macro", "pop", "macro", LinkClass.INTERNAL)
    add_link("in-pop-mmap", "pop", "mmap", LinkClass.INTERNAL)

    # Cluster centroids: rejection-sample pairwise separation >= 2 * radius.
    r = params.cluster_radius_m
    centroids: List[Tuple[float, float]] = []
    budget = 1000 * params.clusters
    lo, hi = min(r, side - r), max(r, side - r)
    while len(centroids) < params.clusters:
        if budget <= 0:
            raise InfeasiblePlacement(
                f"could not place {params.clusters} clusters with separation {2 * r} in {side}x{side}",
                f"cluster{len(centroids) + 1}",
            )
        budget -= 1
        px, py = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if all(_dist(px, py, qx, qy) >= 2 * r for qx, qy in centroids):
            centroids.append((px, py))

    user_radius = min(params.cluster_radius_m, params.wlan_radius_m)
    user_positions: Dict[str, Tuple[float, float]] = {}
    for i, (px, py) in enumerate(centroids, start=1):
        cid, client, ap = f"c{i}", f"mmc{i}", f"wap{i}"
        add_node(client, NodeKind.MIDDLE_MILE_CLIENT, px, py)
        add_node(ap, NodeKind.WLAN_AP, px, py)
        add_link(f"in-{ap}-{client}", ap, client, LinkClass.INTERNAL)
        members = []
        for j in range(1, rng.randint(params.users_min, params.users_max) + 1):
            uid = f"u{i}-{j}"
            rho = user_radius * math.sqrt(rng.random())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            ux, uy = px + rho * math.cos(theta), py + rho * math.sin(theta)
            add_node(uid, NodeKind.USER, ux, uy)
            user_positions[uid] = (ux, uy)
            members.append(uid)
        clusters[cid] = Cluster(id=cid, x=px, y=py, wlan_aps=(ap,), users=tuple(members))

    # Mesh: nearest already-connected node with spare degree, clients
    # processed closest-to-mast first.
    degree = {"mmap": 0}
    positions = {"mmap": (cx, cy)}
    pending = sorted(
        (f"mmc{i}" for i in range(1, params.clusters + 1)),
        key=lambda nid: (_dist(nodes[nid].x, nodes[nid].y, cx, cy), nid),
    )
    for client in pending:
        cxy = (nodes[client].x, nodes[client].y)
        options = [
            nid
            for nid, deg in degree.items()
            if deg < params.mesh_degree_bound
        ]
        if not options:
            raise InfeasiblePlacement("mesh degree bound exhausted", client)
        target = min(options, key=lambda nid: (_dist(*cxy, *positions[nid]), nid))
        add_link(f"mm-{target}-{client}", target, client, LinkClass.MIDDLE_MILE)
        degree[target] += 1
        degree[client] = 1
        positions[client] = cxy

    # Access links: WLAN to every cluster AP in range, macro inside the disk.
    for uid, (ux, uy) in sorted(user_positions.items()):
        for i, (px, py) in enumerate(centroids, start=1):
            if _dist(ux, uy, px, py) <= params.wlan_radius_m:
                add_link(f"wl-{uid}-wap{i}", uid, f"wap{i}", LinkClass.WLAN_ACCESS)
        if _dist(ux, uy, cx, cy) <= params.macro_radius_m:
            add_link(f"ma-{uid}", uid, "macro", LinkClass.MACRO_ACCESS)

    return check_or_raise(Topology(nodes=nodes, links=links, clusters=clusters))
