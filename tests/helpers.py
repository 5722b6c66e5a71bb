"""Shared builders for unit tests: hand-made one- and two-fog deployments,
their control planes wired under a cloud controller (`CloudEnv`, and
`FogEnv` for one fog), and a bare network of independent links for
allocation tests."""

from fractions import Fraction

from fognet.cloudctrl import CloudControl
from fognet.dataplane import FlowPath, InstalledFlow, NetworkState, RouteKind
from fognet.engine import Engine
from fognet.fogctrl import (
    Attachment,
    Endpoint,
    FlowSpec,
    FogControl,
    FogProfile,
    PolicyRule,
    QosClass,
)
from fognet.slicing import SliceSpec
from fognet.topology import Link, LinkClass, NodeKind, ResourceClass, Topology, build_from_config
from fognet.util import ZERO
from oracles import FlowRates

VOIP = "local_voip"
CONTENT = "content_request"
WEB = "external_web"

DEFAULT_POLICY = {
    VOIP: PolicyRule(app_class=VOIP, qos=QosClass.REAL_TIME_GBR, gbr_rate=Fraction(1, 2)),
    CONTENT: PolicyRule(app_class=CONTENT, qos=QosClass.BEST_EFFORT),
    WEB: PolicyRule(app_class=WEB, qos=QosClass.BEST_EFFORT),
}


def full_share_slice(slice_id="s1", operator="op1"):
    return SliceSpec(
        slice_id=slice_id,
        operator=operator,
        shares={cls: Fraction(1) for cls in ResourceClass.ALL},
    )


def configured_rates(policy, demands):
    """Every rate a test network's flows may hold: the policy's guarantees
    and the demands its tests request."""
    return [rule.gbr_rate for rule in policy.values()] + [Fraction(d) for d in demands]


def slice_shares(slices):
    """Every share of `slices`, which a network state's unit must cover so
    that each entitlement is whole units."""
    return [share for spec in slices for share in spec.shares.values()]


def two_cluster_doc(
    *,
    backhaul_capacity=100,
    middle_mile_capacity=50,
    wlan_capacity=25,
    macro_capacity=10,
    macro_only_user=True,
    mesh_cross_link=False,
):
    """PoP + macro + middle-mile AP, two clusters each with client, WLAN AP
    and two users; optionally one macro-only user and a redundant mesh link."""
    nodes = [
        {"id": "gw", "kind": "CloudGateway"},
        {"id": "pop", "kind": "PoP", "fog": "fog1"},
        {"id": "macro", "kind": "MacroBS", "fog": "fog1"},
        {"id": "mmap", "kind": "MiddleMileAP", "fog": "fog1"},
        {"id": "mmc1", "kind": "MiddleMileClient", "fog": "fog1"},
        {"id": "mmc2", "kind": "MiddleMileClient", "fog": "fog1"},
        {"id": "wap1", "kind": "WlanAP", "fog": "fog1"},
        {"id": "wap2", "kind": "WlanAP", "fog": "fog1"},
        {"id": "u1", "kind": "User", "fog": "fog1"},
        {"id": "u2", "kind": "User", "fog": "fog1"},
        {"id": "u3", "kind": "User", "fog": "fog1"},
        {"id": "u4", "kind": "User", "fog": "fog1"},
    ]
    links = [
        {"id": "bh-pop-gw", "a": "pop", "b": "gw", "class": "Backhaul", "capacity": backhaul_capacity, "latency_ms": 10},
        {"id": "in-pop-macro", "a": "pop", "b": "macro", "class": "Internal", "capacity": 1000, "latency_ms": 0},
        {"id": "in-pop-mmap", "a": "pop", "b": "mmap", "class": "Internal", "capacity": 1000, "latency_ms": 0},
        {"id": "in-wap1-mmc1", "a": "wap1", "b": "mmc1", "class": "Internal", "capacity": 1000, "latency_ms": 0},
        {"id": "in-wap2-mmc2", "a": "wap2", "b": "mmc2", "class": "Internal", "capacity": 1000, "latency_ms": 0},
        {"id": "mm-mmap-mmc1", "a": "mmap", "b": "mmc1", "class": "MiddleMile", "capacity": middle_mile_capacity, "latency_ms": 2},
        {"id": "mm-mmap-mmc2", "a": "mmap", "b": "mmc2", "class": "MiddleMile", "capacity": middle_mile_capacity, "latency_ms": 2},
        {"id": "wl-u1-wap1", "a": "u1", "b": "wap1", "class": "WlanAccess", "capacity": wlan_capacity, "latency_ms": 1},
        {"id": "wl-u2-wap1", "a": "u2", "b": "wap1", "class": "WlanAccess", "capacity": wlan_capacity, "latency_ms": 1},
        {"id": "wl-u3-wap2", "a": "u3", "b": "wap2", "class": "WlanAccess", "capacity": wlan_capacity, "latency_ms": 1},
        {"id": "wl-u4-wap2", "a": "u4", "b": "wap2", "class": "WlanAccess", "capacity": wlan_capacity, "latency_ms": 1},
        {"id": "ma-u1", "a": "u1", "b": "macro", "class": "MacroAccess", "capacity": macro_capacity, "latency_ms": 2},
        {"id": "ma-u2", "a": "u2", "b": "macro", "class": "MacroAccess", "capacity": macro_capacity, "latency_ms": 2},
        {"id": "ma-u3", "a": "u3", "b": "macro", "class": "MacroAccess", "capacity": macro_capacity, "latency_ms": 2},
        {"id": "ma-u4", "a": "u4", "b": "macro", "class": "MacroAccess", "capacity": macro_capacity, "latency_ms": 2},
    ]
    clusters = [
        {"id": "c1", "x": -1000, "y": 0, "wlan_aps": ["wap1"], "users": ["u1", "u2"]},
        {"id": "c2", "x": 1000, "y": 0, "wlan_aps": ["wap2"], "users": ["u3", "u4"]},
    ]
    if macro_only_user:
        nodes.append({"id": "u5", "kind": "User", "fog": "fog1"})
        links.append({"id": "ma-u5", "a": "u5", "b": "macro", "class": "MacroAccess", "capacity": macro_capacity, "latency_ms": 2})
    if mesh_cross_link:
        links.append({"id": "mm-mmc1-mmc2", "a": "mmc1", "b": "mmc2", "class": "MiddleMile", "capacity": middle_mile_capacity, "latency_ms": 2})
    return {"nodes": nodes, "links": links, "clusters": clusters}


def two_fog_doc():
    """Two fog elements under one cloud gateway, one cluster each."""
    nodes = [{"id": "gw", "kind": "CloudGateway"}]
    links = []
    clusters = []
    for f in ("f1", "f2"):
        nodes += [
            {"id": f"pop-{f}", "kind": "PoP", "fog": f},
            {"id": f"macro-{f}", "kind": "MacroBS", "fog": f},
            {"id": f"mmap-{f}", "kind": "MiddleMileAP", "fog": f},
            {"id": f"mmc-{f}", "kind": "MiddleMileClient", "fog": f},
            {"id": f"wap-{f}", "kind": "WlanAP", "fog": f},
            {"id": f"{f}-u1", "kind": "User", "fog": f},
            {"id": f"{f}-u2", "kind": "User", "fog": f},
        ]
        links += [
            {"id": f"bh-{f}", "a": f"pop-{f}", "b": "gw", "class": "Backhaul", "capacity": 100, "latency_ms": 10},
            {"id": f"in-{f}-macro", "a": f"pop-{f}", "b": f"macro-{f}", "class": "Internal", "capacity": 1000, "latency_ms": 0},
            {"id": f"in-{f}-mmap", "a": f"pop-{f}", "b": f"mmap-{f}", "class": "Internal", "capacity": 1000, "latency_ms": 0},
            {"id": f"in-{f}-wap", "a": f"wap-{f}", "b": f"mmc-{f}", "class": "Internal", "capacity": 1000, "latency_ms": 0},
            {"id": f"mm-{f}", "a": f"mmap-{f}", "b": f"mmc-{f}", "class": "MiddleMile", "capacity": 50, "latency_ms": 2},
            {"id": f"wl-{f}-u1", "a": f"{f}-u1", "b": f"wap-{f}", "class": "WlanAccess", "capacity": 25, "latency_ms": 1},
            {"id": f"wl-{f}-u2", "a": f"{f}-u2", "b": f"wap-{f}", "class": "WlanAccess", "capacity": 25, "latency_ms": 1},
            {"id": f"ma-{f}-u1", "a": f"{f}-u1", "b": f"macro-{f}", "class": "MacroAccess", "capacity": 10, "latency_ms": 2},
            {"id": f"ma-{f}-u2", "a": f"{f}-u2", "b": f"macro-{f}", "class": "MacroAccess", "capacity": 10, "latency_ms": 2},
        ]
        clusters.append({"id": f"c-{f}", "wlan_aps": [f"wap-{f}"], "users": [f"{f}-u1", f"{f}-u2"]})
    return {"nodes": nodes, "links": links, "clusters": clusters}


class CloudEnv:
    """Full multi-fog wiring, as `Simulation` wires a scenario: one
    network, an engine, a cloud controller, and per fog a fog control
    built with that cloud and registered to it. Every fog holds `slices`
    (one full-share slice by default), and users take their operators in
    turn, by id, and are registered with their fog and the cloud and
    authenticated. Tests move time with `engine.run_until`, which also
    delivers the cloud's control messages. A `FakeCloud` passed as
    `cloud` stands in for the cloud controller.

    `rates` is the tests' record of each flow's rates in Mb/s, for the
    oracles: `spec` enters each request's, and a test that installs a
    flow by hand enters that flow's."""

    def __init__(
        self,
        doc=None,
        profiles=None,
        policy=None,
        rtt_ms=20,
        demands=(Fraction(1, 2),),
        slices=None,
        cache_capacity=8,
        max_gbr=Fraction(10),
        cloud=None,
    ):
        self.topo = build_from_config(doc or two_fog_doc())
        self.policy = policy or dict(DEFAULT_POLICY)
        slices = slices or [full_share_slice()]
        self.net = NetworkState(self.topo, configured_rates(self.policy, demands), slice_shares(slices))
        self.rates = {}
        self.engine = Engine()
        self.cloud = cloud or CloudControl(self.net, self.engine, rtt_ms=rtt_ms)
        self.fogs = {}
        self.operator_of = {}
        for fog_id in self.topo.fogs():
            profile = (profiles or {}).get(fog_id, FogProfile())
            fog = FogControl(
                fog_id,
                profile,
                self.net,
                slices,
                self.cloud,
                policy=self.policy,
                cache_capacity=cache_capacity,
            )
            self.cloud.register_fog(fog)
            self.fogs[fog_id] = fog
        operators = [spec.operator for spec in slices]
        for i, node in enumerate(self.topo.nodes_of_kind(NodeKind.USER)):
            fog = self.fogs[node.fog]
            operator = operators[i % len(operators)]
            cluster = self.topo.cluster_of_user(node.id)
            attachment = Attachment(
                wlan_cluster=cluster if cluster and self.topo.wlan_link(node.id, cluster) else None,
                macro=self.topo.macro_link(node.id) is not None,
            )
            gbr_cap = max_gbr.numerator * self.net.unit // max_gbr.denominator
            fog.register_user(node.id, operator, f"tok-{node.id}", self.policy, gbr_cap, attachment)
            self.cloud.register_user(node.id, node.fog, attachment)
            self.operator_of[node.id] = operator
            try:
                fog.authenticate_user(node.id, f"tok-{node.id}")
            except Exception:
                pass  # e.g. isolated fog with a cloud-resident subscriber DB

    def spec(self, flow_id, src, dst, app_class=VOIP, demand=Fraction(1, 2)):
        """A request at `demand` Mb/s, converted to units here as
        `Simulation` converts each workload class's demand at build. Its
        rates, `demand` and its class's guarantee in the configured policy,
        go to `rates`."""
        if isinstance(dst, str):
            dst = Endpoint.user(dst)
        demand = Fraction(demand)
        rule = self.policy.get(app_class)
        self.rates[flow_id] = FlowRates(demand, rule.gbr_rate if rule else ZERO)
        return FlowSpec(
            flow_id=flow_id,
            src=Endpoint.user(src),
            dst=dst,
            app_class=app_class,
            demand_units=self.net.units(demand),
        )

    def set_backhaul(self, fog_id, up):
        """Set every backhaul of the fog Up or Down now; returns whether
        that isolated the fog."""
        for link in self.topo.backhaul_links(fog_id):
            self.net.set_link_state(link.id, up)
        return self.cloud.on_backhaul_change(fog_id)


class FogEnv(CloudEnv):
    """The one fog `fog1` of a single-fog topology (`two_cluster_doc` by
    default) under its cloud, wired as `CloudEnv` wires every fog."""

    def __init__(self, doc=None, profile=None, cache_capacity=4, **kw):
        profiles = {"fog1": profile or FogProfile()}
        super().__init__(doc or two_cluster_doc(), profiles, cache_capacity=cache_capacity, **kw)
        self.fog = self.fogs["fog1"]


def wired_fogs(net, slices=()):
    """Per fog of `net`'s topology a fog control with no users or policy,
    built with one cloud on a fresh engine and registered to it."""
    cloud = CloudControl(net, Engine())
    fogs = {fog_id: FogControl(fog_id, FogProfile(), net, slices, cloud) for fog_id in net.topology.fogs()}
    for fog in fogs.values():
        cloud.register_fog(fog)
    return fogs


def bare_net(capacity, rates=()):
    """A network state over a bare topology: one Internal link per id of
    `capacity` (id -> Mb/s), with no nodes, fogs or validation. Its unit
    covers the capacities and `rates`, every rate a flow will hold."""
    links = {
        lid: Link(lid, f"{lid}-a", f"{lid}-b", LinkClass.INTERNAL, Fraction(cap), 0.0) for lid, cap in capacity.items()
    }
    return NetworkState(Topology(nodes={}, links=links, clusters={}), [Fraction(r) for r in rates])


def flow_units(net, demand, gbr):
    """A flow's guarantee and rate (the guarantee, else the demand) in
    `net`'s units, the `InstalledFlow.gbr_units` and `.rate_units` that
    the controllers take from the rates `Simulation` converts at build."""
    gbr_units = net.units(Fraction(gbr))
    return gbr_units, gbr_units or net.units(Fraction(demand))


def install(net, fid, links, demand, gbr=0):
    """Install an unsliced flow over `links` (ids, in order) at `demand`
    with guarantee `gbr` (Mb/s); return it."""
    hops = tuple((net.topology.links[lid].a, lid) for lid in links)
    path = FlowPath(hops[0][0] if hops else "-", "-", hops, RouteKind.INTRA_FOG_LOCAL)
    flow = InstalledFlow(fid, path, None, 0.0, *flow_units(net, demand, gbr))
    net.install_flow(flow)
    return flow


def fresh_solve(net, links):
    """What `net` reads, while some link is congested, from a solve over a
    solver index built fresh from its rising flows, as the first
    `recompute()` after congestion begins builds one: the rising flows
    the index holds (`len()`), each installed flow's `allocated()` and each
    of `links`' `load_units()`. The kept index, and whether it is due a
    solve (`_stale`), are put back."""
    kept, stale, net._fair = net._fair, net._stale, None
    try:
        net.recompute()
        rates = {fid: net.allocated(fid) for fid in net.flows}
        return len(net._fair), rates, {lid: net.load_units(lid) for lid in links}
    finally:
        net._fair, net._stale = kept, stale


class FakeCloud:
    """A cloud whose connectivity a test forces, for the profile fallback
    tests: it holds a round trip and answers `is_connected`, and takes the
    registrations of `CloudEnv` without keeping them."""

    rtt_ms = 20

    def __init__(self, connected):
        self.connected = connected

    def is_connected(self, fog_id):
        return self.connected

    def register_fog(self, fog):
        pass

    def register_user(self, user_id, fog_id, attachment):
        pass
