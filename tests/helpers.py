"""Shared builders for unit tests: a hand-made two-cluster deployment, a
single-fog control-plane environment, and a bare network of independent
links for allocation tests."""

from fractions import Fraction

from fognet.dataplane import AddressPool, FlowPath, InstalledFlow, LruCache, NetworkState, RouteKind
from fognet.engine import Engine
from fognet.fogctrl import (
    Attachment,
    Endpoint,
    FlowSpec,
    FogControl,
    FogProfile,
    PolicyRule,
    QosClass,
    UserRecord,
)
from fognet.slicing import SliceSpec
from fognet.topology import Link, LinkClass, NodeKind, ResourceClass, Topology, build_from_config

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


class FogEnv:
    """One fog plus registered, authenticated subscribers."""

    def __init__(
        self,
        doc=None,
        profile=None,
        slices=None,
        policy=None,
        cache_capacity=4,
        pool_size=16,
        cloud=None,
        max_gbr=Fraction(10),
        demands=(Fraction(1, 2),),
    ):
        self.topo = build_from_config(doc or two_cluster_doc())
        self.policy = policy or dict(DEFAULT_POLICY)
        self.slices = slices or [full_share_slice()]
        self.net = NetworkState(self.topo, configured_rates(self.policy, demands), slice_shares(self.slices))
        self.profile = profile or FogProfile()
        cache = LruCache(cache_capacity) if self.profile.cache_in_fog else None
        dhcp = AddressPool("fog1", pool_size) if self.profile.dhcp_in_fog else None
        self.fog = FogControl(
            "fog1",
            self.profile,
            self.net,
            self.slices,
            policy=self.policy,
            cache=cache,
            dhcp=dhcp,
            cloud=cloud,
        )
        operators = [s.operator for s in self.slices]
        self.operator_of = {}
        users = [n.id for n in self.topo.nodes_of_kind(NodeKind.USER)]
        for i, user in enumerate(users):
            operator = operators[i % len(operators)]
            self.operator_of[user] = operator
            record = UserRecord(
                user_id=user,
                token=f"tok-{user}",
                operator=operator,
                allowed_classes=frozenset(self.policy),
                max_gbr=max_gbr,
            )
            cluster = self.topo.cluster_of_user(user)
            attachment = Attachment(
                wlan_cluster=cluster if cluster and self.topo.wlan_link(user, cluster) else None,
                macro=self.topo.macro_link(user) is not None,
            )
            self.fog.register_user(record, attachment)
            try:
                self.fog.authenticate_user(user, record.token)
            except Exception:
                pass  # e.g. isolated fog with a cloud-resident subscriber DB

    def spec(self, flow_id, src, dst, app_class=VOIP, demand=Fraction(1, 2)):
        if isinstance(dst, str):
            dst = Endpoint.user(dst)
        return FlowSpec(
            flow_id=flow_id,
            src=Endpoint.user(src),
            dst=dst,
            app_class=app_class,
            demand=Fraction(demand),
        )


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
    """Full multi-fog wiring: one network, an engine, a cloud controller,
    fog controls. Every fog holds `slices` (one full-share slice by
    default), and users take their operators in turn, by id. Tests move
    time with `engine.run_until`, which also delivers the cloud's control
    messages."""

    def __init__(self, doc=None, profiles=None, policy=None, rtt_ms=20, demands=(Fraction(1, 2),), slices=None):
        from fognet.cloudctrl import CloudControl

        self.topo = build_from_config(doc or two_fog_doc())
        self.policy = policy or dict(DEFAULT_POLICY)
        slices = slices or [full_share_slice()]
        self.net = NetworkState(self.topo, configured_rates(self.policy, demands), slice_shares(slices))
        self.engine = Engine()
        self.cloud = CloudControl(self.net, self.engine, rtt_ms=rtt_ms)
        self.fogs = {}
        self.operator_of = {}
        for fog_id in self.topo.fogs():
            profile = (profiles or {}).get(fog_id, FogProfile())
            fog = FogControl(
                fog_id,
                profile,
                self.net,
                slices,
                policy=self.policy,
                cache=LruCache(8) if profile.cache_in_fog else None,
            )
            self.cloud.register_fog(fog)
            self.fogs[fog_id] = fog
        operators = [spec.operator for spec in slices]
        for i, node in enumerate(self.topo.nodes_of_kind(NodeKind.USER)):
            fog = self.fogs[node.fog]
            operator = operators[i % len(operators)]
            record = UserRecord(
                user_id=node.id,
                token=f"tok-{node.id}",
                operator=operator,
                allowed_classes=frozenset(self.policy),
                max_gbr=Fraction(10),
            )
            cluster = self.topo.cluster_of_user(node.id)
            attachment = Attachment(
                wlan_cluster=cluster if cluster and self.topo.wlan_link(node.id, cluster) else None,
                macro=self.topo.macro_link(node.id) is not None,
            )
            fog.register_user(record, attachment)
            self.cloud.register_user(node.id, node.fog, attachment)
            self.operator_of[node.id] = operator
            try:
                fog.authenticate_user(node.id, record.token)
            except Exception:
                pass

    def spec(self, flow_id, src, dst, app_class=VOIP, demand=Fraction(1, 2)):
        if isinstance(dst, str):
            dst = Endpoint.user(dst)
        return FlowSpec(
            flow_id=flow_id,
            src=Endpoint.user(src),
            dst=dst,
            app_class=app_class,
            demand=Fraction(demand),
        )

    def set_backhaul(self, fog_id, up):
        """Set every backhaul of the fog Up or Down now; returns whether
        that isolated the fog."""
        for link in self.topo.backhaul_links(fog_id):
            self.net.set_link_state(link.id, up)
        return self.cloud.on_backhaul_change(fog_id)


def bare_net(capacity, rates=()):
    """A network state over a bare topology: one Internal link per id of
    `capacity` (id -> Mb/s), with no nodes, fogs or validation. Its unit
    covers the capacities and `rates`, every rate a flow will hold."""
    links = {
        lid: Link(lid, f"{lid}-a", f"{lid}-b", LinkClass.INTERNAL, Fraction(cap), 0.0) for lid, cap in capacity.items()
    }
    return NetworkState(Topology(nodes={}, links=links, clusters={}), [Fraction(r) for r in rates])


def install(net, fid, links, demand, gbr=0):
    """Install an unsliced flow over `links` (ids, in order) at `demand`
    with guarantee `gbr` (Mb/s); return it."""
    hops = tuple((net.topology.links[lid].a, lid) for lid in links)
    path = FlowPath(fid, hops[0][0] if hops else "-", "-", hops, RouteKind.INTRA_FOG_LOCAL)
    flow = InstalledFlow(fid, path, Fraction(demand), Fraction(gbr), None, "t", 0.0)
    net.install_flow(flow)
    return flow


class FakeCloud:
    """Minimal cloud stand-in for profile fallback tests."""

    def __init__(self, connected=True, known_users=()):
        self.connected = connected
        self.known = dict(known_users)

    def is_connected(self, fog_id):
        return self.connected

    def fog_of_user(self, user_id):
        return self.known.get(user_id)

    def push_context_update(self, fog_id, user_id, attachment):
        pass
