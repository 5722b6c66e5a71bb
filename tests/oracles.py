"""Independent reference implementations used as test oracles.

Each oracle recomputes its answer from scratch with a different structure
than the code under test: the allocator solves per-round saturation levels
instead of stepping incrementally, routing enumerates every simple path,
the LRU is a plain list, the flow-controller and inter-fog oracles
rebuild candidates by exhaustive search before applying the same rule
order, and the slice report is rebuilt in `Fraction`s of Mb/s by the
allocator's first design and rendered by scaling with powers of ten.

An installed flow holds its rates only in the network state's units, so
the oracles that read the installed flows take the test's own record of
each one's rates in Mb/s (`rates`, flow id -> `FlowRates`): the rates a
test built it with, or requested it at under the policy it configured.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from fognet.dataplane import RouteKind
from fognet.topology import LINK_TO_RESOURCE, LinkClass, ResourceClass

ZERO = Fraction(0)


class FlowRates(NamedTuple):
    """A flow's demand and guarantee (0 for best effort) in Mb/s."""

    demand: Fraction
    gbr: Fraction = ZERO


# ---------------------------------------------------------------------------
# max-min fairness


@dataclass(frozen=True)
class OracleFlow:
    fid: str
    links: Tuple[str, ...]
    demand: Fraction
    gbr: Fraction = ZERO


def maxmin_oracle(flows: Sequence[OracleFlow], capacity: Dict[str, Fraction]) -> Dict[str, Fraction]:
    """Progressive filling via per-round saturation-level solving.

    All unfrozen best-effort flows sit at one common level; each round
    solves, per link, the level at which that link would saturate given
    the flows frozen so far, freezes whatever binds first, and recomputes
    everything from scratch.
    """
    alloc: Dict[str, Fraction] = {}
    gbr_flows = [f for f in flows if f.gbr > 0]
    for f in gbr_flows:
        alloc[f.fid] = f.gbr
    be = sorted((f for f in flows if f.gbr == 0), key=lambda f: f.fid)
    frozen: Dict[str, Fraction] = {}
    for f in be:
        if f.demand <= 0:
            frozen[f.fid] = ZERO
        elif not f.links:
            frozen[f.fid] = f.demand

    def fixed_usage(lid: str) -> Fraction:
        used = sum((g.gbr for g in gbr_flows if lid in g.links), ZERO)
        used += sum((frozen[g.fid] for g in be if g.fid in frozen and lid in g.links), ZERO)
        return used

    level = ZERO
    while True:
        active = [f for f in be if f.fid not in frozen]
        if not active:
            break
        saturation: Dict[str, Fraction] = {}
        for f in active:
            for lid in f.links:
                if lid not in saturation:
                    n = sum(1 for g in active if lid in g.links)
                    saturation[lid] = (capacity[lid] - fixed_usage(lid)) / n
        next_level = min(list(saturation.values()) + [f.demand for f in active])
        next_level = max(next_level, level)
        tight = {lid for lid, lvl in saturation.items() if lvl <= next_level}
        for f in active:
            if f.demand <= next_level or any(lid in tight for lid in f.links):
                frozen[f.fid] = min(next_level, f.demand)
        level = next_level
    alloc.update(frozen)
    return alloc


# ---------------------------------------------------------------------------
# graph search


def bfs_hops(adjacency: Dict[str, List[str]], start: str) -> Dict[str, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in adjacency.get(node, []):
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return dist


def enumerate_simple_paths(
    net, rates: Dict[str, FlowRates], src: str, dst: str, allow, min_residual: Fraction = ZERO, limit: int = 200000
) -> List[List[Tuple[str, str]]]:
    """Every simple path src->dst over permitted healthy links with
    `min_residual` left after the guarantees of the installed flows, whose
    rates are `rates`."""
    topo = net.topology
    out: List[List[Tuple[str, str]]] = []
    seen = {src}
    hops: List[Tuple[str, str]] = []

    def usable(link) -> bool:
        reserved = _link_gbr(net, rates, link.id)
        return (
            allow(link)
            and _up(net, link.id)
            and (net.topology.links[link.id].capacity - reserved) >= min_residual
        )

    def walk(node: str) -> None:
        if len(out) >= limit:
            raise RuntimeError("path explosion")
        if node == dst:
            out.append(list(hops))
            return
        for link in topo.links_at(node):
            if not usable(link):
                continue
            peer = link.other(node)
            if peer in seen:
                continue
            seen.add(peer)
            hops.append((node, link.id))
            walk(peer)
            hops.pop()
            seen.remove(peer)

    walk(src)
    return out


def best_path(paths: List[List[Tuple[str, str]]], end: str) -> Optional[List[Tuple[str, str]]]:
    """Min hops, then lexicographic node sequence, then link sequence."""
    if not paths:
        return None

    def key(path):
        nodes = tuple(n for n, _ in path) + (end,)
        links = tuple(l for _, l in path)
        return (len(path), nodes, links)

    return min(paths, key=key)


# ---------------------------------------------------------------------------
# LRU reference


class ReferenceLru:
    """List-backed LRU: index 0 is coldest."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: List[str] = []
        self.hits = 0
        self.misses = 0
        self.evictions: List[str] = []

    def access(self, content_id: str) -> bool:
        """One request: lookup plus fetch-through insert on miss."""
        if content_id in self.items:
            self.items.remove(content_id)
            self.items.append(content_id)
            self.hits += 1
            return True
        self.misses += 1
        if len(self.items) >= self.capacity:
            self.evictions.append(self.items.pop(0))
        self.items.append(content_id)
        return False


# ---------------------------------------------------------------------------
# slice allocation and report


def slice_allocation_oracle(
    shares: Dict[str, Fraction], capacity: Fraction, demands: Dict[str, Fraction]
) -> Dict[str, Fraction]:
    """One resource class's grant per slice, in Mb/s, by the allocator's
    first design, all in `Fraction`s: every slice is granted min(demand,
    share x capacity); the leftover is offered to the slices still short
    of their demand in proportion to their shares (equally when those are
    all 0), pass after pass, until no offer is capped or nothing is left."""
    ids = sorted(shares)
    granted = {sid: min(demands[sid], shares[sid] * capacity) for sid in ids}
    leftover = capacity - sum(granted.values(), ZERO)
    hungry = [sid for sid in ids if demands[sid] > granted[sid]]
    while leftover > 0 and hungry:
        weights = {sid: shares[sid] for sid in hungry}
        wsum = sum(weights.values(), ZERO)
        if wsum == 0:
            weights = {sid: Fraction(1) for sid in hungry}
            wsum = Fraction(len(hungry))
        capped = False
        still_hungry = []
        for sid in hungry:
            offer = leftover * weights[sid] / wsum
            take = min(offer, demands[sid] - granted[sid])
            if take < offer:
                capped = True
            granted[sid] += take
            if granted[sid] < demands[sid]:
                still_hungry.append(sid)
        leftover = capacity - sum(granted.values(), ZERO)
        hungry = still_hungry
        if not capped:
            break
    return granted


def rate_text(x: Fraction) -> str:
    """`x` as the shortest exact decimal, found by scaling with powers of
    ten, or as p/q when none makes it whole (a decimal's digits never
    exceed the bit length of its denominator)."""
    for digits in range(x.denominator.bit_length() + 1):
        scaled = x * 10**digits
        if scaled.denominator == 1:
            if digits == 0:
                return str(scaled.numerator)
            whole, part = divmod(abs(scaled.numerator), 10**digits)
            return f"{'-' if x < 0 else ''}{whole}.{part:0{digits}d}"
    return f"{x.numerator}/{x.denominator}"


def slice_rows_oracle(
    now_ms: int, fog_id: str, specs, capacity: Dict[str, Fraction], demands: Dict[Tuple[str, str], Fraction]
) -> List[str]:
    """One fog's slice report rows at `now_ms`, per slice of `specs` (by
    id) and resource class: entitlement, demand and grant, from the fog's
    per-class capacity and each (slice, class) demand, all in Mb/s."""
    specs = sorted(specs, key=lambda spec: spec.slice_id)
    rows = []
    grants = {}
    for cls in ResourceClass.ALL:
        shares = {spec.slice_id: spec.share(cls) for spec in specs}
        per_slice = {sid: demands[sid, cls] for sid in shares}
        for sid, grant in slice_allocation_oracle(shares, capacity[cls], per_slice).items():
            grants[sid, cls] = grant
    for spec in specs:
        for cls in ResourceClass.ALL:
            figures = (spec.share(cls) * capacity[cls], demands[spec.slice_id, cls], grants[spec.slice_id, cls])
            rows.append("\t".join([str(now_ms), fog_id, spec.slice_id, cls, *map(rate_text, figures)]))
    return rows


# ---------------------------------------------------------------------------
# flow-controller oracle


def _link_gbr(net, rates: Dict[str, FlowRates], lid: str) -> Fraction:
    return sum((rates[fid].gbr for fid, f in net.flows.items() if lid in f.path.links()), ZERO)


def _link_be_demand(net, rates: Dict[str, FlowRates], lid: str) -> Fraction:
    return sum(
        (rates[fid].demand for fid, f in net.flows.items() if rates[fid].gbr == 0 and lid in f.path.links()), ZERO
    )


def _up(net, lid: str) -> bool:
    """The link and both its end nodes are Up, from the raw health flags."""
    link = net.topology.links[lid]
    return net.link_up[lid] and net.node_up[link.a] and net.node_up[link.b]


def _metered_in(topo, fog_id: str, lid: str) -> Optional[str]:
    """The link's resource class when it has an end in the fog, else None."""
    link = topo.links[lid]
    if fog_id not in (topo.nodes[link.a].fog, topo.nodes[link.b].fog):
        return None
    return LINK_TO_RESOURCE.get(link.link_class)


def _slice_cap_ok(fog, rates: Dict[str, FlowRates], slice_id: str, links: Sequence[str], gbr: Fraction) -> bool:
    """Admission against the slice's entitlement in `fog`, in Mb/s: on the
    links of `links` with an end in the fog, per class, the slice's
    guarantees on such links (per listing) plus `gbr` per listing stay
    within its share of the fog's Up links of the class, net of unsliced
    guarantees. Recounted from the topology, health, flows and `rates`."""
    if gbr <= 0:
        return True
    net = fog.net
    topo = net.topology
    per_class: Dict[str, int] = {}
    for lid in links:
        cls = _metered_in(topo, fog.fog_id, lid)
        if cls is not None:
            per_class[cls] = per_class.get(cls, 0) + 1
    unsliced: Dict[str, Fraction] = {}
    for fid, flow in net.flows.items():
        if flow.slice_id is None:
            for lid in flow.path.links():
                unsliced[lid] = unsliced.get(lid, ZERO) + rates[fid].gbr
    for cls, count in per_class.items():
        used = ZERO
        for fid, flow in net.flows.items():
            held = rates[fid].gbr
            if flow.slice_id == slice_id and held > 0:
                used += held * sum(1 for lid in flow.path.links() if _metered_in(topo, fog.fog_id, lid) == cls)
        capacity = ZERO
        for lid, link in topo.links.items():
            if _metered_in(topo, fog.fog_id, lid) == cls and _up(net, lid):
                capacity += link.capacity - unsliced.get(lid, ZERO)
        if used + count * gbr > fog.slice_manager.spec(slice_id).share(cls) * capacity:
            return False
    return True


@dataclass
class OracleCandidate:
    label: str
    hops: List[Tuple[str, str]]
    end: str
    rat: RouteKind
    access_used: Dict[str, str]


@dataclass
class OracleDecision:
    accepted: bool
    reason: Optional[str] = None
    nodes: Optional[Tuple[str, ...]] = None
    links: Optional[Tuple[str, ...]] = None
    rat: Optional[str] = None
    labels: Optional[Tuple[str, ...]] = None  # every admissible candidate's, in order


_REFUSED = {
    "SessionRequired": "NotAuthenticated",
    "UnknownUser": "NotAuthenticated",
    "PolicyDenied": "PolicyDenied",
    "CloudUnreachable": "CloudUnreachable",
}


def _options(fog, user: str):
    """(kind, link) of each healthy access link under the user's attachment."""
    topo = fog.net.topology
    attachment = fog.subscriber(user).attachment
    found = []
    if attachment.wlan_cluster is not None:
        link = topo.wlan_link(user, attachment.wlan_cluster)
        if link is not None and _up(fog.net, link.id):
            found.append(("wlan", link))
    if attachment.macro:
        link = topo.macro_link(user)
        if link is not None and _up(fog.net, link.id):
            found.append(("macro", link))
    return found


def _allow_factory(topo, fog_id: str, access_ids, include_backhaul: bool):
    """The links a fog routes a request over: its access links, the fog's
    own mesh and, for cloud-bound traffic, the fog's backhaul."""

    def allow(link):
        if link.id in access_ids:
            return True
        if link.link_class in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL):
            return topo.fog_of(link.a) == fog_id and topo.fog_of(link.b) == fog_id
        if include_backhaul and link.link_class == LinkClass.BACKHAUL:
            return topo.fog_of(link.a) == fog_id or topo.fog_of(link.b) == fog_id
        return False

    return allow


def _choose(
    net, rates: Dict[str, FlowRates], candidates: List[OracleCandidate], local: bool, mobile: Dict[str, bool]
) -> OracleDecision:
    """Rules 2..4 over the admissible candidates: locality (for a local
    flow), mobility preference, bottleneck utilization, hop count,
    lexicographic order."""
    topo = net.topology
    pool = list(candidates)
    if local:
        better = [c for c in pool if c.rat == RouteKind.INTRA_FOG_LOCAL]
        if 0 < len(better) < len(pool):
            pool = better

    def violations(c: OracleCandidate) -> int:
        total = 0
        for user, kind in c.access_used.items():
            wanted = "macro" if mobile[user] else "wlan"
            if kind != wanted:
                total += 1
        return total

    if len(pool) > 1:
        best_v = min(violations(c) for c in pool)
        pool = [c for c in pool if violations(c) == best_v]

    def bottleneck(c: OracleCandidate) -> Fraction:
        worst = ZERO
        for _, lid in c.hops:
            cap = topo.links[lid].capacity
            util = (_link_gbr(net, rates, lid) + _link_be_demand(net, rates, lid)) / cap
            if util > worst:
                worst = util
        return worst

    if len(pool) > 1:
        best_u = min(bottleneck(c) for c in pool)
        pool = [c for c in pool if bottleneck(c) == best_u]

    if len(pool) > 1:
        best_h = min(len(c.hops) for c in pool)
        pool = [c for c in pool if len(c.hops) == best_h]

    if len(pool) > 1:
        pool = [min(pool, key=lambda c: tuple(n for n, _ in c.hops) + (c.end,))]

    chosen = pool[0]
    return OracleDecision(
        accepted=True,
        nodes=tuple(n for n, _ in chosen.hops) + (chosen.end,),
        links=tuple(l for _, l in chosen.hops),
        rat=chosen.rat.value,
        labels=tuple(c.label for c in candidates),
    )


def controller_oracle(env, spec) -> OracleDecision:
    """Exhaustive-search replica of the fog flow controller.

    Rebuilds each access-combo candidate by enumerating all simple paths,
    then applies the same rule order: admission, locality, mobility
    preference, bottleneck utilization, hop count, lexicographic order.
    The request's guarantee is its class's in the policy `env` configured,
    and the installed flows' rates are `env.rates`.
    """
    fog = env.fog
    net = env.net
    rates = env.rates
    topo = net.topology

    try:
        _, slice_id = fog.classify_flow(spec)
    except Exception as exc:  # mapped identically by the controller
        name = type(exc).__name__
        return OracleDecision(accepted=False, reason=_REFUSED.get(name, name))
    gbr = env.policy[spec.app_class].gbr_rate

    src = spec.src.ident
    if not _options(fog, src):
        return OracleDecision(accepted=False, reason="NoCoverage")

    connected = fog.connected()
    targets: List[Tuple[str, str, RouteKind, Optional[str]]] = []
    local = False
    if spec.dst.kind.value == "user":
        if not fog.has_user(spec.dst.ident) or not _options(fog, spec.dst.ident):
            return OracleDecision(accepted=False, reason="NoCoverage")
        local = True
    elif spec.dst.kind.value == "content":
        hit = bool(fog.profile.cache_in_fog and fog.cache and fog.cache.peek(spec.dst.ident))
        local = hit
        if hit:
            targets.append(("cache", fog.pop, RouteKind.INTRA_FOG_LOCAL, None))
        if connected:
            targets.append(("fetch", topo.gateway_id(), RouteKind.CLOUD_BOUND, None))
        elif not hit:
            return OracleDecision(accepted=False, reason="FogIsolated")
    else:
        if not connected:
            return OracleDecision(accepted=False, reason="FogIsolated")
        targets.append(("egress", topo.gateway_id(), RouteKind.CLOUD_BOUND, None))

    candidates: List[OracleCandidate] = []
    structural = False
    if spec.dst.kind.value == "user":
        dst = spec.dst.ident
        for skind, slink in _options(fog, src):
            for dkind, dlink in _options(fog, dst):
                allow = _allow_factory(topo, fog.fog_id, {slink.id, dlink.id}, include_backhaul=False)
                feasible = enumerate_simple_paths(net, rates, src, dst, allow, min_residual=gbr)
                if enumerate_simple_paths(net, rates, src, dst, allow):
                    structural = True
                chosen = best_path(feasible, dst)
                if chosen is None:
                    continue
                if not _slice_cap_ok(fog, rates, slice_id, [l for _, l in chosen], gbr):
                    structural = True
                    continue
                candidates.append(
                    OracleCandidate(
                        label=f"{skind}+{dkind}",
                        hops=chosen,
                        end=dst,
                        rat=RouteKind.INTRA_FOG_LOCAL,
                        access_used={src: skind, dst: dkind},
                    )
                )
    else:
        for tag, target, rat, _ in targets:
            for skind, slink in _options(fog, src):
                allow = _allow_factory(topo, fog.fog_id, {slink.id}, include_backhaul=rat == RouteKind.CLOUD_BOUND)
                feasible = enumerate_simple_paths(net, rates, src, target, allow, min_residual=gbr)
                if enumerate_simple_paths(net, rates, src, target, allow):
                    structural = True
                chosen = best_path(feasible, target)
                if chosen is None:
                    continue
                if not _slice_cap_ok(fog, rates, slice_id, [l for _, l in chosen], gbr):
                    structural = True
                    continue
                candidates.append(
                    OracleCandidate(
                        label=f"{tag}({skind})",
                        hops=chosen,
                        end=target,
                        rat=rat,
                        access_used={src: skind},
                    )
                )

    if not candidates:
        return OracleDecision(
            accepted=False, reason="GbrAdmissionFail" if structural else "NoRoute"
        )

    mobile = {user: fog.subscriber(user).mobile for c in candidates for user in c.access_used}
    return _choose(net, rates, candidates, local, mobile)


def _backhauls(topo, fog_id: str) -> List[str]:
    """The ids of the backhaul links with an end in the fog, in order."""
    return [
        lid
        for lid, link in sorted(topo.links.items())
        if link.link_class == LinkClass.BACKHAUL and fog_id in (topo.fog_of(link.a), topo.fog_of(link.b))
    ]


def _backhaul(net, rates: Dict[str, FlowRates], fog_id: str, gbr: Fraction) -> Optional[str]:
    """The fog's lowest-id Up backhaul with `gbr` of capacity left after
    the guarantees it holds, if any."""
    for lid in _backhauls(net.topology, fog_id):
        if _up(net, lid) and net.topology.links[lid].capacity - _link_gbr(net, rates, lid) >= gbr:
            return lid
    return None


def interfog_oracle(env, spec) -> OracleDecision:
    """Exhaustive-search replica of the cloud's inter-fog path setup.

    Per pair of access links (source major), rebuilds each user's half to
    its own fog's PoP by enumerating all simple paths over that link and
    the fog's mesh, takes each fog's lowest-id Up backhaul with headroom,
    and joins them through the gateway. A join is admissible when it
    repeats no node and fits the source user's slice entitlement in both
    fogs; the request is routable without headroom when some join is,
    with no guarantee and no entitlement test. Then the rule order of
    `controller_oracle`, without locality, with the guarantee and rates
    it reads."""
    net = env.net
    rates = env.rates
    topo = net.topology
    src, dst = spec.src.ident, spec.dst.ident
    fa, fb = env.fogs[topo.fog_of(src)], env.fogs[topo.fog_of(dst)]
    for fog in (fa, fb):
        if not any(_up(net, lid) for lid in _backhauls(topo, fog.fog_id)):
            return OracleDecision(accepted=False, reason="FogIsolated")
    try:
        _, slice_id = fa.classify_flow(spec)
    except Exception as exc:  # mapped identically by the controller
        name = type(exc).__name__
        return OracleDecision(accepted=False, reason=_REFUSED.get(name, name))
    gbr = env.policy[spec.app_class].gbr_rate
    if not _options(fa, src) or not _options(fb, dst):
        return OracleDecision(accepted=False, reason="NoCoverage")

    def half(fog, user, link, need):
        allow = _allow_factory(topo, fog.fog_id, {link.id}, include_backhaul=False)
        return best_path(enumerate_simple_paths(net, rates, user, fog.pop, allow, min_residual=need), fog.pop)

    def join(a, b, need):
        """The hops src -> gateway -> dst over halves `a` and `b`, or None."""
        bh_a, bh_b = _backhaul(net, rates, fa.fog_id, need), _backhaul(net, rates, fb.fog_id, need)
        if a is None or b is None or bh_a is None or bh_b is None:
            return None
        b_nodes = [n for n, _ in b] + [fb.pop]
        back = list(zip(b_nodes[:0:-1], [l for _, l in b][::-1]))
        hops = a + [(fa.pop, bh_a), (topo.gateway_id(), bh_b)] + back
        nodes = [n for n, _ in hops] + [dst]
        return hops if len(set(nodes)) == len(nodes) else None

    candidates: List[OracleCandidate] = []
    structural = False
    for skind, slink in _options(fa, src):
        for dkind, dlink in _options(fb, dst):
            if join(half(fa, src, slink, ZERO), half(fb, dst, dlink, ZERO), ZERO) is not None:
                structural = True
            hops = join(half(fa, src, slink, gbr), half(fb, dst, dlink, gbr), gbr)
            if hops is None:
                continue
            links = [l for _, l in hops]
            if not (_slice_cap_ok(fa, rates, slice_id, links, gbr) and _slice_cap_ok(fb, rates, slice_id, links, gbr)):
                continue
            structural = True
            used = {src: skind, dst: dkind}
            candidates.append(OracleCandidate(f"{skind}+{dkind}", hops, dst, RouteKind.CLOUD_BOUND, used))

    if not candidates:
        return OracleDecision(accepted=False, reason="GbrAdmissionFail" if structural else "NoRoute")
    mobile = {src: fa.subscriber(src).mobile, dst: fb.subscriber(dst).mobile}
    return _choose(net, rates, candidates, False, mobile)
