"""Fog-resident layered SDN control plane.

One `FogControl` instance runs the control functions of a single fog
element: subscriber, policy and mobility state, one `Subscriber` record
per user (its slice, credentials, subscription, session, attachment and
mobility) behind a session gate, the per-technology abstraction (each
resource class's sliceable capacity, `physical_capacity`, read from
`NetworkState`'s per-fog ledger, and each slice's share of it,
`entitlements`, kept once per epoch), and flexible placement via
`FogProfile`. Functions absent from the profile fall back to the cloud:
each use costs the cloud's round trip (`CloudControl.rtt_ms`) and fails
while the fog is isolated.

A fog is complete once constructed: it is built with its cloud, which
dispatches every request and re-decision (`CloudControl.decide`), and
from its slice specs it builds its `SliceManager`, which validates them
(one slice per operator), and the map from each operator to its slice,
which places each registered user in its operator's slice. It builds its
content cache, an `LruCache` of `cache_capacity` items, exactly when its
profile places the cache in the fog (`FogProfile.cache_in_fog`). The
dispatch settles locality: a fog is asked only about requests whose
source is one of its users, and whose user peer, if any, is one of its
users too or has no known location.

Rates are converted to the network state's units once, at
construction: each policy rule's guarantee is kept as a `Grant` in units
(`grants`), and each subscriber's cap in units, floored
(`Subscriber.gbr_cap`). A request's demand arrives in units too
(`FlowSpec.demand_units`). So classification, admission and the install
(`conclude`) compare and hand on ints, and convert no rate; the one
refusal note that names a guarantee renders it from its units.

Flows are not registered per slice or per user: the installed flows in
`NetworkState` are the one record of them. A flow belongs to the slice
in its `slice_id`, the source user's, in every fog whose metered links
its path uses; a user's flows are `NetworkState.flows_at(user)`.

A decision's candidates come from the templates (`UserTemplate`) of its
user endpoints: each user's access options and its finished candidates
to the PoP and the gateway, kept per (user, attachment), so a request
re-derives none of them. A fog-local decision enumerates them in
`_candidates`; an inter-fog one (`CloudControl.setup_interfog_path`)
joins each user's candidates to its own fog's PoP through the cloud
gateway.

Routes and templates are kept across link and node faults and checked
on read, not dropped on a change. The check rests on one static fact
per routing graph (the fog's mesh, or its mesh and backhaul): which of
its links lie on a cycle of it (`Topology.cyclic_links`); every other
link is a bridge. A route is the minimum-hop, lexicographically first
one, and a Down only removes routes, so a kept route R whose links are
all Up was the answer and still is, unless a better route P has come
Up since R was kept. P and R together hold a cycle, and a link of P
not in R that was Down when R was kept has come Up since: it lies on
a cycle, so its Up cleared R. So an Up clears a graph's routes only
when a link it brings Up is cyclic; an Up of bridges keeps every route
and drops only the None answers (`_on_health`). A Down bridge on a
kept route cuts its ends apart, so the answer is None without a
search. A change costs O(links of the element), and a Down only drops
the distance maps of the graphs it touches (below); while no link is
Down, a read checks only counters.

A route's first fill searches nothing of its own. Per routing graph
and end, one full BFS of distances to the end (`route_distances`) is
kept, and each key to that end walks it (`descend`), as
`constrained_route` walks its own early-stopped BFS, whose distances
the full one holds on every level the walk reads; so the route is the
same. A map is kept until a Down or Up touches its graph, so the many
keys to a PoP or the gateway cost one search between two faults.

Path selection is deliberately ordinal and deterministic:

1. discard candidates that fail guaranteed-rate admission (per-hop
   residual, and per class the slice's entitlement in this fog, on the
   links this fog meters);
2. prefer fog-local candidates over cloud-bound ones for local flows;
3. prefer WLAN access for stationary users and macro for mobile ones;
4. tie-break by lower bottleneck utilization (offered load over capacity),
   then hop count, then lexicographic node sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .dataplane import (
    FlowPath,
    InstalledFlow,
    LruCache,
    NetworkState,
    NoRoute,
    RouteKind,
    constrained_route,
    descend,
    route_distances,
)
from .slicing import SliceManager, SliceSpec
from .topology import LINK_TO_RESOURCE, Link, ResourceClass
from .util import ZERO


class QosClass(str, Enum):
    REAL_TIME_GBR = "RealTimeGBR"
    BEST_EFFORT = "BestEffort"


class RejectReason(str, Enum):
    NO_COVERAGE = "NoCoverage"
    GBR_ADMISSION_FAIL = "GbrAdmissionFail"
    NOT_AUTHENTICATED = "NotAuthenticated"
    POLICY_DENIED = "PolicyDenied"
    NO_ROUTE = "NoRoute"
    # Profile/connectivity outcomes surfaced by the cloud side:
    FOG_ISOLATED = "FogIsolated"
    CLOUD_UNREACHABLE = "CloudUnreachable"


class ControlError(Exception):
    def __init__(self, message: str, element: str = ""):
        super().__init__(message)
        self.element = element


class BadCredentials(ControlError):
    pass


class CloudUnreachable(ControlError):
    pass


class PolicyDenied(ControlError):
    pass


class UnknownEndpoint(ControlError):
    pass


class UnknownUser(ControlError):
    pass


class SessionRequired(ControlError):
    """Raised by the security gate in front of subscriber records."""


class EndpointKind(str, Enum):
    USER = "user"
    CONTENT = "content"
    EXTERNAL = "external"


class Endpoint(NamedTuple):
    kind: EndpointKind
    ident: Optional[str] = None

    @classmethod
    def user(cls, user_id: str) -> "Endpoint":
        return cls(EndpointKind.USER, user_id)

    @classmethod
    def content(cls, content_id) -> "Endpoint":
        return cls(EndpointKind.CONTENT, str(content_id))

    @classmethod
    def external(cls) -> "Endpoint":
        return cls(EndpointKind.EXTERNAL, None)

    def __str__(self) -> str:
        return self.kind.value if self.ident is None else f"{self.kind.value}:{self.ident}"


class FlowSpec(NamedTuple):
    flow_id: str
    src: Endpoint
    dst: Endpoint
    app_class: str
    demand_units: int  # the class's demand in the network state's units, converted at build (`Simulation`)


@dataclass(frozen=True)
class PolicyRule:
    app_class: str
    qos: QosClass
    gbr_rate: Fraction = ZERO

    def __post_init__(self):
        if (self.qos == QosClass.REAL_TIME_GBR) != (self.gbr_rate > 0):
            raise ValueError(f"rule {self.app_class}: gbr_rate must be > 0 exactly for RealTimeGBR")


class Grant(NamedTuple):
    """A policy rule as the flow controller applies it, kept per app class
    from construction: the QoS class and the guarantee (0 for best
    effort) in the network state's units, for the subscription cap,
    admission and the ledger."""

    qos: QosClass
    units: int


class Attachment(NamedTuple):
    """Which of the user's provisioned access links are currently usable."""

    wlan_cluster: Optional[str] = None
    macro: bool = False


@dataclass(slots=True)
class Subscriber:
    """A user's one record in its fog: its slice, its credentials and
    subscription, whether it holds a session, its attachment and its
    mobility. Its flows are `NetworkState.flows_at(user_id)`, not kept
    here.

    `gbr_cap` is its cap on a guarantee in the network state's units,
    floored: for a guarantee of `g` units, `g > floor(cap * unit)`
    exactly when `g / unit > cap`."""

    user_id: str
    slice_id: str
    token: str
    allowed_classes: FrozenSet[str]
    gbr_cap: int
    attachment: Attachment
    mobile: bool = False
    session: bool = False


@dataclass(frozen=True)
class FogProfile:
    udf_in_fog: bool = True
    pcrf_in_fog: bool = True
    mlmf_in_fog: bool = True
    cache_in_fog: bool = True
    dhcp_in_fog: bool = True
    # Inert placeholder: configurable but without behavior.
    tcp_opt_in_fog: bool = False


class Candidate(NamedTuple):
    """One way to route a request. A tuple, so that the candidates a
    template holds can be handed to every request that reads them.
    So are the records built per request: `Endpoint`, `FlowSpec`,
    `FlowDecision`, `Attachment`, `FlowPath`, `Event` and `FlowRequest`,
    immutable like frozen dataclasses but built with no `__setattr__`.

    `links`, `nodes` and `latency_ms` (the latency summed over `links`)
    are derived from `hops`. A template's candidates hold them
    (`finished`); one built for a single request holds None, and only
    the chosen one's are derived (`FogControl.conclude`, and
    `FlowPath.nodes` when read)."""

    label: str
    hops: Tuple[Tuple[str, str], ...]
    end: str
    rat: RouteKind
    access_used: Tuple[Tuple[str, str], ...]  # (user id, "wlan" | "macro") per user endpoint
    links: Optional[Tuple[str, ...]] = None
    nodes: Optional[Tuple[str, ...]] = None
    latency_ms: Optional[float] = None


_first, _second, _latency = itemgetter(0), itemgetter(1), attrgetter("latency_ms")


def finished(label, hops, end, rat, access_used, topology_links: Dict[str, Link]) -> Candidate:
    """The candidate with its links, nodes and latency derived from `hops`."""
    links = tuple(map(_second, hops))
    nodes = (*map(_first, hops), end)
    return Candidate(label, hops, end, rat, access_used, links, nodes, latency_sum(links, topology_links))


def latency_sum(links: Tuple[str, ...], topology_links: Dict[str, Link]) -> float:
    return sum(map(_latency, map(topology_links.__getitem__, links)))


def route_nodes(c: Candidate) -> Tuple[str, ...]:
    return c.nodes if c.nodes is not None else (*map(_first, c.hops), c.end)


class AccessOption(NamedTuple):
    """One usable access link of a user: its kind, its id, and the node at
    its far end, where the user's routes join the mesh."""

    kind: str  # "wlan" | "macro"
    link_id: str
    attach: str


class UserTemplate(NamedTuple):
    """What a user's requests share under one attachment: its access
    options, and per fixed target, keyed (PoP or gateway, label tag), the
    finished candidates to it, one per access option with a route.

    It holds what `FogControl.user_template` checks on read to tell
    whether it is still exact. It is while all of these hold:

    - `links`, its option links and the links of every candidate in
      `fixed`, are all Up (options and routes are kept while Up). It
      holds them as tuples, the options' and each candidate's own, not
      as one set, since it is read only while some link is Down;
    - `dormant`, the user's access links under the attachment that were
      Down at build, are all still Down (no option has appeared);
    - `clears`, `FogControl._clears` at build, is unchanged: no Up that
      closes a cycle has cleared a routing graph's routes since;
    - per routing graph (via backhaul or not) in `gaps`, where some
      option had no candidate, no Up has touched that graph since the
      gap was found (`FogControl._ups`): a route may have appeared."""

    options: Tuple[AccessOption, ...]
    fixed: Dict[Tuple[str, str], Tuple[Candidate, ...]]
    links: List[Tuple[str, ...]]
    dormant: FrozenSet[str]
    clears: int
    gaps: Dict[bool, int]


class FlowDecision(NamedTuple):
    flow_id: str
    accepted: bool
    path: Optional[FlowPath] = None
    qos: Optional[QosClass] = None
    slice_id: Optional[str] = None
    reason: Optional[RejectReason] = None
    discriminator: str = ""
    candidates: Tuple[str, ...] = ()
    setup_ms: int = 0
    latency_ms: float = 0.0
    note: str = ""

    @classmethod
    def rejected(
        cls,
        flow_id: str,
        reason: RejectReason,
        note: str = "",
        setup_ms: int = 0,
        candidates: Tuple[str, ...] = (),
    ) -> "FlowDecision":
        return cls(
            flow_id=flow_id,
            accepted=False,
            reason=reason,
            note=note,
            setup_ms=setup_ms,
            candidates=candidates,
        )


REFUSALS = (SessionRequired, UnknownUser, PolicyDenied, CloudUnreachable)


def refusal(flow_id: str, exc: ControlError) -> FlowDecision:
    """The rejection for a `classify_flow` refusal, one of `REFUSALS`."""
    if isinstance(exc, PolicyDenied):
        return FlowDecision.rejected(flow_id, RejectReason.POLICY_DENIED, note=str(exc))
    if isinstance(exc, CloudUnreachable):
        return FlowDecision.rejected(flow_id, RejectReason.CLOUD_UNREACHABLE)
    return FlowDecision.rejected(flow_id, RejectReason.NOT_AUTHENTICATED)


def select_candidate(
    candidates: List[Candidate],
    *,
    prefer_local: bool,
    mobile_of: Dict[str, bool],
    utilization: Callable[[str], Fraction],
) -> Tuple[Candidate, str]:
    """Apply selection rules 2..4 to an admission-filtered candidate list."""
    pool = list(candidates)
    discriminator = "only_candidate"

    def narrow(better: List[Candidate], rule: str) -> None:
        nonlocal pool, discriminator
        if 0 < len(better) < len(pool):
            pool = better
            discriminator = rule

    if prefer_local:
        narrow([c for c in pool if c.rat == RouteKind.INTRA_FOG_LOCAL], "locality")

    def violations(c: Candidate) -> int:
        count = 0
        for user, kind in c.access_used:
            wanted = "macro" if mobile_of.get(user, False) else "wlan"
            if kind != wanted:
                count += 1
        return count

    if len(pool) > 1:
        counts = [violations(c) for c in pool]
        best = min(counts)
        narrow([c for c, n in zip(pool, counts) if n == best], "mobility")

    if len(pool) > 1:

        def bottleneck(c: Candidate) -> Fraction:
            return max((utilization(lid) for _, lid in c.hops), default=ZERO)

        best_u = min(bottleneck(c) for c in pool)
        narrow([c for c in pool if bottleneck(c) == best_u], "utilization")

    if len(pool) > 1:
        best_h = min(len(c.hops) for c in pool)
        narrow([c for c in pool if len(c.hops) == best_h], "hop_count")

    if len(pool) > 1:
        pool = [min(pool, key=route_nodes)]
        discriminator = "lex"

    return pool[0], discriminator


class FogControl:
    """Control plane of one fog element, beneath its `CloudControl`.

    `_candidates` enumerates a request's candidates: per target, one for
    each source access option times, for a user peer, each of the peer's.
    A candidate's route is its access hop, the mesh segment from the
    user's attachment point to the PoP, the gateway or the peer user's
    attachment point, and the peer's access hop. Segments are memoized
    per routing graph (via backhaul or not) and (start, end) (`segment`,
    which the simulator also reads for each WLAN AP's control-overhead
    flow), first filled by a walk over the graph's kept distance map to
    the end (`_search`), and checked on read against the Down set. A GBR
    request keeps that route when every hop has headroom
    (`_with_headroom`).

    What does not depend on load is kept per user in a `UserTemplate`,
    keyed (user, attachment), so a handover needs no hook: the access
    options, and per PoP or gateway target the finished candidates
    (`fixed_candidates`), which also serve as the halves of the user's
    inter-fog paths. A candidate to a peer user is assembled per request
    from the two users' options and the segment memo, never kept per
    pair. A template is rebuilt only when a read finds it stale
    (`user_template`). A request then does only what depends on live
    load: the headroom and slice tests of a GBR request,
    `select_candidate` and the install.

    A link or node state change reaches `_on_health`, which keeps the
    memo exact in O(links of the element) by the static cyclic-link rule
    of the module docstring, and drops the distance maps of each graph
    it touches; it scans no route and no template.
    """

    def __init__(
        self,
        fog_id: str,
        profile: FogProfile,
        net: NetworkState,
        slices: Sequence[SliceSpec],
        cloud,
        policy: Optional[Dict[str, PolicyRule]] = None,
        cache_capacity: int = 100,
        dhcp=None,
    ):
        self.fog_id = fog_id
        self.profile = profile
        self.net = net
        self.slice_manager = SliceManager(slices)
        self._slice_of_operator = {spec.operator: spec.slice_id for spec in slices}
        self.subscribers: Dict[str, Subscriber] = {}
        self.grants: Dict[str, Grant] = {}
        for app_class, rule in (policy or {}).items():
            gbr = rule.gbr_rate if rule.qos == QosClass.REAL_TIME_GBR else ZERO
            self.grants[app_class] = Grant(rule.qos, net.units(gbr))
        self.cache = LruCache(cache_capacity) if profile.cache_in_fog else None
        self.dhcp = dhcp
        self.cloud = cloud
        self.pop = net.topology.pop_of(fog_id)
        self.domain = net.topology.fog_domain(fog_id)
        self._meters = {link.id: LINK_TO_RESOURCE[link.link_class] for link in self.domain.metered.get(None, ())}
        self._entitled: Dict[Tuple[str, str], int] = {}
        self._entitled_epoch = -1  # NetworkState.epoch of `_entitled`
        self._down = net.down_links()
        # per routing graph, indexed by via backhaul: its links, its memo
        # (start, end) -> route or None, its BFS distance maps end -> (node
        # -> hops to end), the keys answered None, and the Ups that touched it
        self._allowed = (self.domain.mesh, self.domain.mesh | self.domain.backhaul_ids)
        self._routes: List[Dict[Tuple[str, str], Optional[Tuple[Tuple[str, str], ...]]]] = [{}, {}]
        self._dists: List[Dict[str, Dict[str, int]]] = [{}, {}]
        self._unroutable: List[List[Tuple[str, str]]] = [[], []]
        self._ups = [0, 0]
        self._clears = 0  # Ups that cleared a graph's routes
        self._templates: Dict[Tuple[str, Attachment], UserTemplate] = {}
        net.watch_health(self._on_health)

    # -- subscribers ----------------------------------------------------------

    def register_user(
        self,
        user_id: str,
        operator: str,
        token: str,
        allowed_classes: Iterable[str],
        gbr_cap: int,
        attachment: Attachment,
        mobile: bool = False,
    ) -> None:
        """Register the user in its operator's slice; `gbr_cap` is its cap
        on a guarantee in the network state's units, floored
        (`Subscriber.gbr_cap`)."""
        slice_id = self._slice_of_operator.get(operator)
        if slice_id is None:
            raise ControlError(f"operator {operator} holds no slice in fog {self.fog_id}", operator)
        self.subscribers[user_id] = Subscriber(
            user_id, slice_id, token, frozenset(allowed_classes), gbr_cap, attachment, mobile
        )

    def has_user(self, user_id: str) -> bool:
        return user_id in self.subscribers

    def subscriber(self, user_id: str) -> Subscriber:
        try:
            return self.subscribers[user_id]
        except KeyError:
            raise UnknownUser(f"user {user_id} unknown in fog {self.fog_id}", user_id) from None

    # -- connectivity and placement fallbacks --------------------------------

    def connected(self) -> bool:
        return self.cloud.is_connected(self.fog_id)

    def control_latency_ms(self) -> int:
        """Extra setup latency when any control function lives in the cloud."""
        remote = not (self.profile.udf_in_fog and self.profile.pcrf_in_fog)
        return self.cloud.rtt_ms if remote else 0

    # -- security / subscriber functions --------------------------------------

    def authenticate_user(self, user_id: str, token: str) -> None:
        sub = self.subscribers.get(user_id)
        if sub is None:
            raise BadCredentials(f"unknown user {user_id}", user_id)
        if not self.profile.udf_in_fog and not self.connected():
            raise CloudUnreachable(f"subscriber database unreachable for {user_id}", user_id)
        if sub.token != token:
            raise BadCredentials(f"bad credentials for {user_id}", user_id)
        sub.session = True

    # -- policy ----------------------------------------------------------------

    def classify_flow(self, spec: FlowSpec) -> Tuple[Grant, str]:
        """The grant of the request's class to its source user, a user of
        this fog (`CloudControl.decide`), and the user's slice. Raises one
        of `REFUSALS`; the guarantee is compared with the user's cap in
        units (`Subscriber.gbr_cap`)."""
        user = spec.src.ident
        sub = self.subscriber(user)
        if not sub.session:
            raise SessionRequired(f"user {user} has no session", user)
        if not (self.profile.pcrf_in_fog and self.profile.udf_in_fog) and not self.connected():
            raise CloudUnreachable("policy/subscriber functions unreachable", user)
        grant = self.grants.get(spec.app_class)
        if grant is None or spec.app_class not in sub.allowed_classes:
            raise PolicyDenied(f"class {spec.app_class} not allowed for {user}", user)
        if grant.units > sub.gbr_cap:
            gbr = Fraction(grant.units, self.net.unit)
            raise PolicyDenied(f"guaranteed rate {gbr} above subscription cap for {user}", user)
        return grant, sub.slice_id

    # -- locality ----------------------------------------------------------------

    def is_local_flow(self, spec: FlowSpec) -> bool:
        """Whether both ends are in this fog. `CloudControl.decide` sends a
        request between users of two fogs to the cloud, so a user end that
        this fog does not hold has no known location."""

        def in_fog(end: Endpoint) -> bool:
            if end.kind == EndpointKind.USER:
                if self.has_user(end.ident):
                    return True
                raise UnknownEndpoint(f"no location known for user {end.ident}", end.ident)
            if end.kind == EndpointKind.CONTENT:
                return self.cache is not None and self.cache.peek(end.ident)
            return False

        return in_fog(spec.src) and in_fog(spec.dst)

    # -- candidate construction -----------------------------------------------

    def access_links(self, user_id: str, attachment: Attachment) -> List[Tuple[str, Link]]:
        """The user's access links usable under `attachment`, by kind, Up
        or not; its access options are those Up."""
        topo = self.net.topology
        out: List[Tuple[str, Link]] = []
        if attachment.wlan_cluster is not None:
            link = topo.wlan_link(user_id, attachment.wlan_cluster)
            if link is not None:
                out.append(("wlan", link))
        if attachment.macro:
            link = topo.macro_link(user_id)
            if link is not None:
                out.append(("macro", link))
        return out

    def _with_headroom(self, hops, src: str, dst: str, need: int, include_backhaul: bool):
        """The candidate route `hops` from `src` to `dst` given `need`
        units of headroom: kept (the same object) when every hop has it, as
        it is then also the first minimum-hop route over the links with
        headroom; else searched afresh over those links, as a new list, or
        NoRoute. The request's access links are the first and last hops of
        `hops`: every other hop is a mesh or backhaul link."""
        if need > 0:
            residual = self.net.residual_units
            if any(residual(lid) < need for _, lid in hops):
                allowed = self.domain.mesh | {hops[0][1], hops[-1][1]}
                if include_backhaul:
                    allowed |= self.domain.backhaul_ids
                return constrained_route(self.net, src, dst, allowed, need)
        return hops

    def segment(self, start: str, end: str, via_backhaul: bool) -> Optional[Tuple[Tuple[str, str], ...]]:
        """The minimum-hop route from `start` to `end` over the fog's Up
        mesh links (and backhaul links, `via_backhaul`), as
        `constrained_route` finds it, or None when there is none.

        Memoized per graph and (start, end), filled on first use, and
        checked on read: a kept route is the answer while every link on it
        is Up, and an empty one always is. When a link on it is Down, the
        answer is None if that link is a bridge of the graph, and the route
        is kept for when it comes back; else it is searched afresh. A None
        is kept until an Up touches the graph (`_on_health`)."""
        try:
            hops = self._routes[via_backhaul][start, end]
        except KeyError:
            return self._search(start, end, via_backhaul)
        down = self._down
        if hops and down:
            for _, lid in hops:
                if lid in down:
                    if lid in self.net.topology.cyclic_links(self.fog_id, via_backhaul):
                        return self._search(start, end, via_backhaul)
                    return None
        return hops

    def _search(self, start: str, end: str, via_backhaul: bool) -> Optional[Tuple[Tuple[str, str], ...]]:
        """Fill the memo entry of `segment` from the graph's distance map
        to `end`, one full BFS (`route_distances`) kept until a state
        change touches the graph (`_on_health`): its greedy walk
        (`descend`) is `constrained_route`'s, and the map holds the
        distances of that search's early-stopped BFS on every level the
        walk reads, so the route is the same."""
        dists = self._dists[via_backhaul]
        dist = dists.get(end)
        if dist is None:
            dist = dists[end] = route_distances(self.net, end, self._allowed[via_backhaul])
        if start in dist:
            hops = tuple(descend(self.net, start, dist, self._allowed[via_backhaul]))
        else:
            hops = None
            self._unroutable[via_backhaul].append((start, end))
        self._routes[via_backhaul][start, end] = hops
        return hops

    def _on_health(self, element: str, up: bool) -> None:
        """Keep the segment memo exact across one link or node state change,
        in O(links of the element), by the rule of the module docstring.

        The change touches, in each routing graph, the links of the element
        there: the link itself, or a node's incident links. Any change that
        touches a graph, Down or Up, drops its distance maps, since the
        usable links they were searched over have changed. Beyond that a
        Down changes nothing kept: reads check routes against the Down set.
        If a link an Up touches lies on a cycle of the graph, its routes
        are cleared (and `_clears` counts it, which stales every template);
        else every route is kept and only its None answers are dropped.
        Either way `_ups` counts the Up for the graph, which stales a
        template with an option that had no candidate in it."""
        topo = self.net.topology
        touched = topo.adjacency().get(element, [])
        if element in topo.links:
            touched = [element, *touched]
        for via_backhaul, allowed in enumerate(self._allowed):
            hit = [lid for lid in touched if lid in allowed]
            if not hit:
                continue
            self._dists[via_backhaul].clear()
            if not up:
                continue
            self._ups[via_backhaul] += 1
            if topo.cyclic_links(self.fog_id, bool(via_backhaul)).isdisjoint(hit):
                routes = self._routes[via_backhaul]
                for key in self._unroutable[via_backhaul]:
                    del routes[key]
            else:
                self._routes[via_backhaul] = {}
                self._clears += 1
            self._unroutable[via_backhaul] = []

    def slice_gbr_ok(self, slice_id: Optional[str], links: List[str], need: int) -> bool:
        """Guaranteed admissions are capped at the slice's entitlement in
        this fog, never at borrowed capacity: on the links of `links` that
        this fog meters, each class's guarantees stay within the slice's
        share of it, and a slice this fog does not hold is entitled to
        nothing here. `need` is the guarantee in units, and the ledger and
        each entitlement hold ints in the same units."""
        if need <= 0 or slice_id is None:
            return True
        meters = self._meters
        count: Dict[str, int] = {}
        for lid in links:
            cls = meters.get(lid)
            if cls is not None:
                count[cls] = count.get(cls, 0) + 1
        if not count:
            return True
        entitled = self.entitlements()
        used = self.net.slice_gbr_units
        fog_id = self.fog_id
        for cls, n in count.items():
            if used(fog_id, slice_id, cls) + n * need > entitled.get((slice_id, cls), 0):
                return False
        return True

    def user_template(self, sub: Subscriber) -> UserTemplate:
        """The template of the subscriber `sub` under its current
        attachment: kept while a read finds it exact (`UserTemplate`), else
        built afresh, its access options read on build."""
        key = (sub.user_id, sub.attachment)
        template = self._templates.get(key)
        if template is not None and template.clears == self._clears:
            down = self._down
            if (
                (not down or all(map(down.isdisjoint, template.links)))
                and (not template.dormant or template.dormant <= down)
                and (not template.gaps or all(self._ups[via] == n for via, n in template.gaps.items()))
            ):
                return template
        user = sub.user_id
        options, dormant = [], []
        for kind, link in self.access_links(user, sub.attachment):
            if self.net.effective_up(link.id):
                options.append(AccessOption(kind, link.id, link.other(user)))
            else:
                dormant.append(link.id)
        links = [tuple(option.link_id for option in options)]
        template = UserTemplate(tuple(options), {}, links, frozenset(dormant), self._clears, {})
        self._templates[key] = template
        return template

    def _fill_target(
        self, src: str, options: Tuple[AccessOption, ...], end: str, rat: RouteKind, tag: str
    ) -> Tuple[Candidate, ...]:
        """The finished candidates from the user `src` with the access
        `options` to the PoP or gateway `end`, one per option with a route,
        labelled `tag(kind)`."""
        via_backhaul = rat == RouteKind.CLOUD_BOUND
        topology_links = self.net.topology.links
        out = []
        for kind, link_id, attach in options:
            segment = self.segment(attach, end, via_backhaul)
            if segment is not None:
                hops = ((src, link_id), *segment)
                out.append(finished(f"{tag}({kind})", hops, end, rat, ((src, kind),), topology_links))
        return tuple(out)

    def fixed_candidates(
        self, user: str, template: UserTemplate, end: str, rat: RouteKind, tag: str
    ) -> Tuple[Candidate, ...]:
        """The finished candidates labelled `tag(kind)` from `user`, whose
        template is `template`, to the PoP or gateway `end`, filled on first
        use (`_fill_target`), which adds their links to the template's and,
        when some option has no route, a gap in the graph. A user's entry
        to its PoP serves both its cache hits and the user's half of its
        inter-fog paths."""
        found = template.fixed.get((end, tag))
        if found is None:
            found = template.fixed[(end, tag)] = self._fill_target(user, template.options, end, rat, tag)
            template.links.extend(c.links for c in found)
            if len(found) < len(template.options):
                via_backhaul = rat == RouteKind.CLOUD_BOUND
                template.gaps.setdefault(via_backhaul, self._ups[via_backhaul])
        return found

    def _candidates(
        self,
        src: str,
        template: UserTemplate,
        targets: List[Tuple[str, RouteKind, Union[str, UserTemplate]]],
        need: int,
        slice_id: Optional[str],
    ) -> Tuple[List[Candidate], bool]:
        """The admissible candidates from the user `src`, in order, and
        whether any was routable without headroom. Each target is (end,
        kind, peer): `peer` is the template of a user `end` (labels
        `wlan+macro`), or a tag for the PoP or gateway (labels
        `tag(wlan)`). There is one candidate per target, access option of
        `src` and, for a user peer, access option of the peer, in that
        order. Candidates to the PoP or gateway come from `src`'s
        template (`fixed_candidates`); those to a user are assembled
        here. Each is admitted given headroom (`_with_headroom`) and
        entitlement (`slice_gbr_ok`)."""
        out: List[Candidate] = []
        structural = False
        for end, rat, peer in targets:
            if isinstance(peer, str):
                found = self.fixed_candidates(src, template, end, rat, peer)
            else:
                found = []
                for skind, slink, sattach in template.options:
                    for dkind, dlink, dattach in peer.options:
                        if src == end:  # a flow to oneself takes no hop
                            hops, used = (), ((end, dkind),)
                        else:
                            segment = self.segment(sattach, dattach, False)
                            if segment is None:
                                continue
                            hops, used = ((src, slink), *segment, (dattach, dlink)), ((src, skind), (end, dkind))
                        found.append(Candidate(f"{skind}+{dkind}", hops, end, rat, used))
            if not found:
                continue
            structural = True
            if need <= 0:
                out.extend(found)
                continue
            via_backhaul = rat == RouteKind.CLOUD_BOUND
            for c in found:
                try:
                    hops = self._with_headroom(c.hops, src, end, need, via_backhaul)
                except NoRoute:
                    continue
                if hops is not c.hops:
                    c = Candidate(c.label, tuple(hops), end, rat, c.access_used)
                links = c.links if c.links is not None else tuple(map(_second, c.hops))
                if self.slice_gbr_ok(slice_id, links, need):
                    out.append(c)
        return out, structural

    # -- the flow controller -------------------------------------------------

    def scoring_utilization(self, link_id: str) -> Fraction:
        """Offered load over capacity; scale-free, so decisions survive a
        uniform rescaling of link capacities."""
        return Fraction(self.net.offered_units(link_id), self.net.capacity_units(link_id))

    def handle_flow_request(self, spec: FlowSpec) -> FlowDecision:
        try:
            grant, slice_id = self.classify_flow(spec)
        except REFUSALS as exc:
            return refusal(spec.flow_id, exc)
        setup_ms = self.control_latency_ms()

        def reject(reason: RejectReason, note: str = "") -> FlowDecision:
            return FlowDecision.rejected(spec.flow_id, reason, note=note, setup_ms=setup_ms)

        try:
            local = self.is_local_flow(spec)
        except UnknownEndpoint as exc:
            return reject(RejectReason.NO_COVERAGE, str(exc))

        src, dst = spec.src.ident, spec.dst.ident
        sub = self.subscribers[src]  # found by `classify_flow`
        template = self.user_template(sub)
        if not template.options:
            return reject(RejectReason.NO_COVERAGE)

        note = ""
        mobile_of = {src: sub.mobile}
        if spec.dst.kind == EndpointKind.USER:  # this fog's user, as `is_local_flow` found
            peer_sub = self.subscribers[dst]
            peer = self.user_template(peer_sub)
            if not peer.options:
                return reject(RejectReason.NO_COVERAGE)
            targets = [(dst, RouteKind.INTRA_FOG_LOCAL, peer)]
            mobile_of[dst] = peer_sub.mobile
        elif spec.dst.kind == EndpointKind.CONTENT:
            if self.cache is None and not self.connected():
                return reject(RejectReason.FOG_ISOLATED)
            hit = False
            if self.cache is not None:
                hit = self.cache.lookup(dst)
                note = "cache_hit" if hit else "cache_miss"
                if not hit:
                    # fetch-through fill happens as part of request handling
                    self.cache.insert(dst)
            targets = [(self.pop, RouteKind.INTRA_FOG_LOCAL, "cache")] if hit else []
            if self.connected():
                targets.append((self.net.topology.gateway_id(), RouteKind.CLOUD_BOUND, "fetch"))
            elif not hit:
                return reject(RejectReason.FOG_ISOLATED, note)
        elif spec.dst.kind == EndpointKind.EXTERNAL:
            if not self.connected():
                return reject(RejectReason.FOG_ISOLATED)
            targets = [(self.net.topology.gateway_id(), RouteKind.CLOUD_BOUND, "egress")]
        else:  # pragma: no cover - enum is closed
            raise UnknownEndpoint(str(spec.dst))

        candidates, structural = self._candidates(src, template, targets, grant.units, slice_id)
        return self.conclude(
            spec, candidates, structural, (grant, slice_id), setup_ms,
            prefer_local=local, mobile_of=mobile_of, note=note,
        )

    def conclude(
        self,
        spec: FlowSpec,
        candidates: List[Candidate],
        structural: bool,
        classified: Tuple[Grant, str],
        setup_ms: int,
        *,
        prefer_local: bool,
        mobile_of: Dict[str, bool],
        note: str = "",
    ) -> FlowDecision:
        """The end of every flow decision, fog-local or inter-fog.

        With no admissible candidate the request fails admission when some
        candidate was routable without headroom (`structural`), else it has
        no route. Otherwise rules 2..4 pick the candidate, and the flow is
        installed along it with the classification (grant, slice), its rates
        already in units. The chosen candidate's links, nodes and latency
        are reused when it holds them."""
        if not candidates:
            reason = RejectReason.GBR_ADMISSION_FAIL if structural else RejectReason.NO_ROUTE
            return FlowDecision.rejected(spec.flow_id, reason, note=note, setup_ms=setup_ms)
        chosen, discriminator = select_candidate(
            candidates,
            prefer_local=prefer_local,
            mobile_of=mobile_of,
            utilization=self.scoring_utilization,
        )
        links, latency = chosen.links, chosen.latency_ms
        if links is None:
            links = tuple(map(_second, chosen.hops))
            latency = latency_sum(links, self.net.topology.links)
        path = FlowPath(spec.src.ident, chosen.end, chosen.hops, chosen.rat, links, chosen.nodes)
        grant, slice_id = classified
        gbr = grant.units
        self.net.install_flow(InstalledFlow(spec.flow_id, path, slice_id, latency, gbr, gbr or spec.demand_units, spec))
        return FlowDecision(
            flow_id=spec.flow_id,
            accepted=True,
            path=path,
            qos=grant.qos,
            slice_id=slice_id,
            discriminator=discriminator,
            candidates=tuple(c.label for c in candidates),
            setup_ms=setup_ms,
            latency_ms=latency,
            note=note,
        )

    # -- abstraction -----------------------------------------------------------

    def physical_capacity(self) -> Dict[str, int]:
        """Per-class sliceable capacity in units: the fog's Up metered links
        net of unsliced reservations, read from the ledger
        `NetworkState.fog_sliceable_units`."""
        return {cls: self.net.fog_sliceable_units(self.fog_id, cls) for cls in ResourceClass.ALL}

    def entitlements(self) -> Dict[Tuple[str, str], int]:
        """(slice, class) -> the slice's entitlement, a whole number of
        units (`SliceManager.entitlements`). Kept once per
        `NetworkState.epoch`, which moves whenever link or node health or
        an unsliced GBR flow changes; the dict is shared until then, so do
        not mutate it."""
        if self._entitled_epoch != self.net.epoch:
            self._entitled = self.slice_manager.entitlements(self.physical_capacity())
            self._entitled_epoch = self.net.epoch
        return self._entitled

    # -- mobility ----------------------------------------------------------------

    def handover(self, user_id: str, new_attachment: Attachment) -> List[Tuple[str, FlowDecision]]:
        """Update the user's attachment and re-decide every active flow.

        Old and new paths swap within one event; flows without a feasible
        path afterwards are terminated with the rejection reason
        (`redecide_flow`).
        """
        sub = self.subscriber(user_id)
        if not self.profile.mlmf_in_fog and not self.connected():
            raise CloudUnreachable(f"mobility state unreachable for {user_id}", user_id)
        sub.attachment = new_attachment
        self.cloud.push_context_update(self.fog_id, user_id, new_attachment)
        return [(fid, self.redecide_flow(self.net.flows[fid])) for fid in self.net.flows_at(user_id)]

    def redecide_flow(self, flow: InstalledFlow) -> FlowDecision:
        """Remove one installed flow and decide it afresh, under the same
        id, as the cloud decides an arrival (`CloudControl.decide`); a
        refused flow is reported terminated with the refusal's reason."""
        self.net.remove_flow(flow.flow_id)
        decision = self.cloud.decide(flow.spec)
        if not decision.accepted:
            self.cloud.report_termination(flow, decision.reason)
        return decision
