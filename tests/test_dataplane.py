import random
from fractions import Fraction

import pytest

from fognet.dataplane import (
    AddressPool,
    DuplicateFlow,
    FlowPath,
    InstalledFlow,
    LinkDown,
    LruCache,
    NetworkState,
    NoRoute,
    NotAuthenticated,
    PoolExhausted,
    RouteKind,
    UnknownFlow,
    constrained_route,
)
from fognet.fogctrl import Attachment, Endpoint, FlowDecision, FlowSpec
from fognet.topology import LINK_TO_RESOURCE, LinkClass, ResourceClass, build_from_config
from fognet.workload import FlowRequest
from helpers import flow_units, fresh_solve, two_cluster_doc, wired_fogs
from oracles import FlowRates, OracleFlow, ReferenceLru, best_path, enumerate_simple_paths, maxmin_oracle

F = Fraction


def make_net(rates=(), **kw):
    """The two-cluster network, its unit covering `rates` (Mb/s)."""
    return NetworkState(build_from_config(two_cluster_doc(**kw)), rates)


def flow(net, fid, hops, *, demand=F(1), gbr=F(0), rat=RouteKind.INTRA_FOG_LOCAL, slice_id="s1", rates=None):
    """A flow over `hops`, its rates in `net`'s units (`flow_units`); its
    rates in Mb/s go to `rates`, when given, for the oracles."""
    path = FlowPath(src=hops[0][0], dst="x", hops=tuple(hops), rat_used=rat)
    gbr_units, rate_units = flow_units(net, demand, gbr)
    if rates is not None:
        rates[fid] = FlowRates(demand, gbr)
    return InstalledFlow(
        flow_id=fid,
        path=path,
        slice_id=slice_id,
        latency_ms=0.0,
        gbr_units=gbr_units,
        rate_units=rate_units,
    )


def oracle_flows(flows, rates):
    """The installed `flows` as the max-min oracle takes them, at `rates`."""
    return [OracleFlow(f.flow_id, f.links, *rates[f.flow_id]) for f in flows]


def forwarding_entries(net):
    """node -> flow -> (outgoing link, slice), read off the installed paths."""
    out = {}
    for fid, f in net.flows.items():
        for node, lid in f.path.hops:
            out.setdefault(node, {})[fid] = (lid, f.slice_id)
    return out


class TestFlowTables:
    """Per-node forwarding entries, as `net.flows[fid].path.hops` holds them."""

    def test_single_hop_macro_entry(self):
        net = make_net()
        net.install_flow(flow(net, "f1", [("u5", "ma-u5")]))
        assert net.flows["f1"].path.hops == (("u5", "ma-u5"),)
        assert forwarding_entries(net) == {"u5": {"f1": ("ma-u5", "s1")}}

    def test_pop_to_user_chain_has_four_entries(self):
        net = make_net()
        hops = [("pop", "in-pop-mmap"), ("mmap", "mm-mmap-mmc1"), ("mmc1", "in-wap1-mmc1"), ("wap1", "wl-u1-wap1")]
        net.install_flow(flow(net, "f1", hops))
        entries = forwarding_entries(net)
        for node, lid in hops:
            assert entries[node]["f1"] == (lid, "s1")
        assert len(net.flows["f1"].path.hops) == 4

    def test_install_remove_restores_snapshot(self):
        net = make_net()
        before = forwarding_entries(net)
        net.install_flow(flow(net, "f1", [("u1", "wl-u1-wap1"), ("wap1", "wl-u2-wap1")]))
        net.remove_flow("f1")
        assert forwarding_entries(net) == before
        assert net.flows_on_link("wl-u1-wap1") == []

    def test_remove_keeps_other_flow(self):
        net = make_net()
        net.install_flow(flow(net, "a", [("u1", "wl-u1-wap1"), ("wap1", "wl-u2-wap1")]))
        net.install_flow(flow(net, "b", [("u2", "wl-u2-wap1"), ("wap1", "wl-u1-wap1")]))
        net.remove_flow("a")
        entries = forwarding_entries(net)
        assert "b" in entries["u2"]
        assert "u1" not in entries

    def test_duplicate_and_unknown(self):
        net = make_net()
        net.install_flow(flow(net, "a", [("u5", "ma-u5")]))
        with pytest.raises(DuplicateFlow):
            net.install_flow(flow(net, "a", [("u5", "ma-u5")]))
        with pytest.raises(UnknownFlow):
            net.remove_flow("nope")

    def test_down_link_rejected(self):
        net = make_net()
        net.set_link_state("ma-u5", False)
        with pytest.raises(LinkDown):
            net.install_flow(flow(net, "a", [("u5", "ma-u5")]))
        assert net.flows == {}

    def test_random_trace_matches_shadow_map(self):
        net = make_net()
        rng = random.Random(11)
        shadow = {}  # flow -> hops
        serial = 0
        for _ in range(300):
            if shadow and rng.random() < 0.45:
                fid = rng.choice(sorted(shadow))
                net.remove_flow(fid)
                del shadow[fid]
            else:
                serial += 1
                fid = f"f{serial}"
                hops = [("u1", "wl-u1-wap1"), ("wap1", "wl-u2-wap1")] if rng.random() < 0.5 else [("u5", "ma-u5")]
                net.install_flow(flow(net, fid, hops))
                shadow[fid] = hops
            assert {fid: list(f.path.hops) for fid, f in net.flows.items()} == shadow
            for lid in ("wl-u1-wap1", "wl-u2-wap1", "ma-u5"):
                expected = sorted(fid for fid, hops in shadow.items() if any(l == lid for _, l in hops))
                assert net.flows_on_link(lid) == expected

    def test_installed_flow_walk_terminates(self):
        net = make_net()
        hops = [("u1", "wl-u1-wap1"), ("wap1", "in-wap1-mmc1"), ("mmc1", "mm-mmap-mmc1")]
        net.install_flow(flow(net, "f1", hops))
        # follow the forwarding entries hop by hop from the source
        entries = forwarding_entries(net)
        node, visited = "u1", ["u1"]
        while "f1" in entries.get(node, {}):
            lid, _ = entries[node]["f1"]
            node = net.topology.links[lid].other(node)
            assert node not in visited, "forwarding loop"
            visited.append(node)
            assert len(visited) <= len(net.topology.nodes)
        assert node == "mmap"


_ALLOC_PATHS = [
    [("u1", "wl-u1-wap1"), ("wap1", "in-wap1-mmc1"), ("mmc1", "mm-mmap-mmc1"), ("mmap", "in-pop-mmap"), ("pop", "bh-pop-gw")],
    [("u3", "wl-u3-wap2"), ("wap2", "in-wap2-mmc2"), ("mmc2", "mm-mmap-mmc2"), ("mmap", "in-pop-mmap"), ("pop", "bh-pop-gw")],
    [("u5", "ma-u5"), ("macro", "in-pop-macro"), ("pop", "bh-pop-gw")],
    [("u1", "wl-u1-wap1"), ("wap1", "wl-u2-wap1")],
    [("u2", "ma-u2"), ("macro", "ma-u4")],
    [("u5", "ma-u5")],
]


class TestAllocation:
    def test_random_sequences_match_fair_share_solver(self):
        """allocated()/load_units() equal the max-min oracle's answer
        after every recompute(), on and off the uncongested fast path;
        load_units() also summed over random sets of links."""
        demands = [F(n, d) for n in range(9) for d in (1, 2, 3)]  # and half of each as a guarantee
        net = make_net(
            demands + [demand / 2 for demand in demands],
            backhaul_capacity=20,
            middle_mile_capacity=15,
            wlan_capacity=10,
            macro_capacity=8,
        )
        capacity = {lid: link.capacity for lid, link in net.topology.links.items()}
        rng = random.Random(5)
        pick = random.Random(6)  # the link sets summed, apart from the walk
        states = []
        rates = {}
        serial = 0
        for _ in range(400):
            if net.flows and rng.random() < 0.5:
                net.remove_flow(rng.choice(sorted(net.flows)))
            else:
                serial += 1
                hops = rng.choice(_ALLOC_PATHS)
                demand = F(rng.randint(0, 8), rng.choice([1, 2, 3]))
                gbr = F(0)
                if demand > 0 and rng.random() < 0.25:
                    if all(net.residual_units(lid) >= net.units(demand / 2) for _, lid in hops):
                        gbr = demand / 2
                net.install_flow(flow(net, f"f{serial}", hops, demand=demand, gbr=gbr, rates=rates))
            net.recompute()

            expected = maxmin_oracle(oracle_flows(net.flows.values(), rates), capacity)
            for fid in net.flows:
                assert net.allocated(fid) == expected[fid]
            assert net.allocated("not-installed") == F(0)
            per_link = {}
            for lid in capacity:
                on_link = sum((expected[f.flow_id] for f in net.flows.values() if lid in f.links), F(0))
                per_link[lid] = on_link * net.unit
                assert net.load_units(lid) == per_link[lid]
            subset = pick.sample(sorted(capacity), pick.randint(0, len(capacity)))
            assert net.load_units(*subset) == sum((per_link[lid] for lid in subset), F(0))

            offered = {}
            for f in net.flows.values():
                demand, gbr = rates[f.flow_id]
                for lid in f.links:
                    offered[lid] = offered.get(lid, F(0)) + (gbr if gbr > 0 else demand)
            states.append(any(load > capacity[lid] for lid, load in offered.items()))
        # the sequence enters and leaves congestion, so both paths are checked
        assert (True, False) in zip(states, states[1:])
        assert (False, True) in zip(states, states[1:])


class TestKeptFairShareIndex:
    def test_random_steps_match_fresh_solve_and_oracle(self):
        """The solver index that NetworkState keeps while a link is congested
        holds its rising flows (`len()`) and gives the same answer as one
        built fresh from them (every flow's exact rate, every link's total)
        and as the oracle after every recompute(), through installs,
        removals and link flaps, on each link and summed over random sets
        of links; it exists exactly while some link is congested, and it
        is kept while a link contends for the first time since it was
        built and while contention on another link ends. Reads between a
        change and the next recompute() see the last solve's rates: a
        rising flow installed into a solved index reads 0 and counts in no
        total, a removed flow leaves every total at once, and a link flap
        moves no rate."""
        demands = [F(0), F(1, 2), F(1), F(2), F(3)]  # few values, so ties
        net = make_net(demands, backhaul_capacity=16, middle_mile_capacity=12, wlan_capacity=8, macro_capacity=6)
        capacity = {lid: link.capacity for lid, link in net.topology.links.items()}
        rng = random.Random(41)
        pick = random.Random(42)  # the link sets summed, apart from the walk
        serial = 0
        kept = transitions = 0
        seen = set()
        was_congested = False
        fair = None  # the index after the last recompute()
        last = set()  # the links congested at the last recompute()
        contended = set()  # every link congested since that index was built
        per_link = {lid: F(0) for lid in capacity}
        oracle = {}
        built = {}  # flow id -> the rates it was built with

        def reads_last_solve(gone=None):
            for lid in capacity:
                left = per_link[lid] - (oracle[gone.flow_id] * net.unit if gone and lid in gone.links else 0)
                assert net.load_units(lid) == left
            assert {fid: net.allocated(fid) for fid in net.flows} == {fid: oracle[fid] for fid in net.flows}

        for _ in range(600):
            roll = rng.random()
            if roll < 0.08:
                down = sorted(lid for lid, up in net.link_up.items() if not up)
                if down and rng.random() < 0.7:
                    net.set_link_state(rng.choice(down), True)
                else:
                    net.set_link_state(rng.choice(sorted(capacity)), False)
                seen.add("flap")
                reads_last_solve()
            elif net.flows and roll < 0.5:
                gone = net.remove_flow(rng.choice(sorted(net.flows)))
                if net._congested or not was_congested:
                    seen.add("removed")
                    reads_last_solve(gone)
            else:
                serial += 1
                hops = rng.choice(_ALLOC_PATHS)
                demand = rng.choice(demands)
                gbr = F(0)
                if demand > 0 and rng.random() < 0.25:
                    if all(net.residual_units(lid) >= net.units(demand) for _, lid in hops):
                        gbr = demand
                slice_id = rng.choice(["s1", "s2"])
                new = flow(net, f"f{serial}", hops, demand=demand, gbr=gbr, slice_id=slice_id, rates=built)
                try:
                    net.install_flow(new)
                except LinkDown:
                    continue
                seen.add("gbr" if gbr else "zero" if not demand else "be")
                if fair is not None and not gbr and demand:
                    # read before the solve: the new flow is in the index but has no rate
                    seen.add("unsolved")
                    assert len(fair) == len(net._rising)
                    assert net.allocated(new.flow_id) == 0
                    for lid in capacity:
                        assert net.load_units(lid) == per_link[lid]
            net.recompute()

            congested = bool(net._congested)
            assert (net._fair is not None) == congested
            if congested:
                assert len(net._fair) == len(net._rising)
                assert fresh_solve(net, capacity) == (
                    len(net._rising),
                    {fid: net.allocated(fid) for fid in net.flows},
                    {lid: net.load_units(lid) for lid in capacity},
                )
                if net._fair is fair:
                    kept += 1
                    if not contended.issuperset(net._congested):
                        seen.add("first-contends")
                    if not last <= net._congested:
                        seen.add("contention-ends")
                    contended |= net._congested
                else:
                    contended = set(net._congested)
            transitions += congested != was_congested
            was_congested, fair, last = congested, net._fair, set(net._congested)

            oracle = maxmin_oracle(oracle_flows(net.flows.values(), built), capacity)
            for fid in net.flows:
                assert net.allocated(fid) == oracle[fid]
            for lid in capacity:
                recount = sum((oracle[f.flow_id] for f in net.flows.values() if lid in f.links), F(0))
                per_link[lid] = recount * net.unit
                assert net.load_units(lid) == per_link[lid]
            # the summed reader over a random set of links
            subset = pick.sample(sorted(capacity), pick.randint(0, len(capacity)))
            assert net.load_units(*subset) == sum((per_link[lid] for lid in subset), F(0))
        assert seen == {"gbr", "zero", "be", "unsolved", "removed", "flap", "first-contends", "contention-ends"}
        assert transitions > 10 and kept > 100


class TestNonDecimalRates:
    def test_getters_equal_recounts_at_mixed_denominators(self):
        """Flows of 1/10 Mb/s, then flows of 4/3 Mb/s, then one of 2/7 Mb/s
        while the 4/3 flows congest a link, then their removal: after each
        step every public getter equals its recount in exact Mb/s. The unit
        covers all three rates from the start."""
        net = make_net([F(1, 10), F(4, 3), F(2, 7)], wlan_capacity=2, macro_capacity=F(3, 2))
        fog = wired_fogs(net)["fog1"]
        topo = net.topology
        capacity = {lid: link.capacity for lid, link in topo.links.items()}
        wlan_path = _ALLOC_PATHS[0]
        macro_path = _ALLOC_PATHS[2]
        rates = {}
        built = [
            flow(net, "tenth-gbr", wlan_path, demand=F(1, 10), gbr=F(1, 10), slice_id="s1", rates=rates),
            flow(net, "tenth-be", wlan_path, demand=F(1, 10), rates=rates),
            flow(net, "tenth-unsliced", macro_path, demand=F(1, 10), gbr=F(1, 10), slice_id=None, rates=rates),
            flow(net, "third-gbr", macro_path, demand=F(4, 3), gbr=F(4, 3), slice_id="s2", rates=rates),
            flow(net, "third-be", wlan_path, demand=F(4, 3), rates=rates),
            flow(net, "third-be-2", wlan_path, demand=F(4, 3), rates=rates),
            flow(net, "seventh-be", wlan_path, demand=F(2, 7), rates=rates),
        ]
        steps = [("install", new) for new in built]

        def gbr_of(f):
            return rates[f.flow_id].gbr

        removals = ("tenth-be", "third-gbr", "seventh-be", "third-be", "tenth-unsliced", "third-be-2", "tenth-gbr")
        steps += [("remove", fid) for fid in removals]
        congested = []
        for action, arg in steps:
            if action == "install":
                assert arg.flow_id != "seventh-be" or net._fair is not None  # into a live solver index
                net.install_flow(arg)
            else:
                net.remove_flow(arg)
            net.recompute()
            flows = list(net.flows.values())
            oracle = maxmin_oracle(oracle_flows(flows, rates), capacity)
            for fid in net.flows:
                assert net.allocated(fid) == oracle[fid]
            for lid, cap in capacity.items():
                gbr = sum((gbr_of(f) * f.links.count(lid) for f in flows if gbr_of(f) > 0), F(0))
                assert net.capacity_units(lid) - net.residual_units(lid) == gbr * net.unit
                assert net.residual_units(lid) == (cap - gbr) * net.unit
                assert net.load_units(lid) == sum((oracle[f.flow_id] for f in flows if lid in f.links), F(0)) * net.unit
                assert net.flows_on_link(lid) == sorted(f.flow_id for f in flows if lid in f.links)
            for slice_id in ("s1", "s2"):
                for cls in ResourceClass.ALL:
                    used = sum(
                        (
                            gbr_of(f)
                            for f in flows
                            if gbr_of(f) > 0 and f.slice_id == slice_id
                            for lid in f.links
                            if LINK_TO_RESOURCE.get(topo.links[lid].link_class) == cls
                        ),
                        F(0),
                    )
                    assert net.slice_gbr_units("fog1", slice_id, cls) == used * net.unit
            physical = {cls: F(0) for cls in ResourceClass.ALL}
            for link in topo.links.values():
                cls = LINK_TO_RESOURCE.get(link.link_class)
                if cls is not None:
                    unsliced = sum((gbr_of(f) for f in flows if f.slice_id is None and link.id in f.links), F(0))
                    physical[cls] += link.capacity - unsliced
            assert fog.physical_capacity() == {cls: total * net.unit for cls, total in physical.items()}
            offered = {
                lid: sum((gbr_of(f) or rates[f.flow_id].demand for f in flows if lid in f.links), F(0))
                for lid in capacity
            }
            congested.append(any(offered[lid] > capacity[lid] for lid in capacity))
        assert any(congested) and not congested[-1]

    def test_rate_outside_the_unit_raises_before_any_ledger_changes(self):
        """Converting a demand or guarantee that is not a whole number of
        `1/net.unit` Mb/s (`NetworkState.units`) raises ValueError, so no
        flow with such a rate is built or installed, and the flows and
        ledgers stay as they were. An installed flow keeps its guarantee
        and rate in units, which its removal reads back."""
        net = make_net([F(1, 10)])
        assert net.unit == 10
        path = _ALLOC_PATHS[0]
        net.install_flow(flow(net, "tenth", path, demand=F(1, 10), gbr=F(1, 10)))
        net.install_flow(flow(net, "tenth-be", path, demand=F(3, 10)))
        assert [(f.gbr_units, f.rate_units) for f in net.flows.values()] == [(1, 1), (0, 3)]
        before = (dict(net.flows), dict(net._offered), dict(net._be_capacity), dict(net._rising))
        for fid, gbr in (("third-be", F(0)), ("third-gbr", F(1, 3))):
            with pytest.raises(ValueError, match=r"^rate 1/3 is not a whole number of 1/10 Mb/s$"):
                net.install_flow(flow(net, fid, path, demand=F(1, 3), gbr=gbr))
            assert (net.flows, net._offered, net._be_capacity, net._rising) == before
        net.remove_flow("tenth-be")
        assert net._offered == {lid: 1 for _, lid in path}
        net.remove_flow("tenth")
        assert set(net._offered.values()) == {0} and net._be_capacity == net._capacity


def _random_walk(topo, rng, max_hops=5):
    """A loop-free walk of 1..max_hops links from a random node, as (hops, end)."""
    adjacency = topo.adjacency()
    node = rng.choice(sorted(topo.nodes))
    visited, hops = {node}, []
    for _ in range(rng.randint(1, max_hops)):
        choices = [lid for lid in adjacency[node] if topo.links[lid].other(node) not in visited]
        if not choices:
            break
        lid = rng.choice(choices)
        hops.append((node, lid))
        node = topo.links[lid].other(node)
        visited.add(node)
    return hops, node


class TestFlowIndex:
    def test_random_steps_match_path_scan(self):
        """flows_on_link and flows_at equal a scan of every installed path
        after each install, removal and link or node state change."""
        net = make_net(mesh_cross_link=True)
        topo = net.topology
        rng = random.Random(23)
        serial = 0
        installs = faults = 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.1:
                net.set_link_state(rng.choice(sorted(topo.links)), rng.random() < 0.7)
                faults += 1
            elif roll < 0.15:
                net.set_node_state(rng.choice(sorted(topo.nodes)), rng.random() < 0.7)
                faults += 1
            elif net.flows and roll < 0.4:
                net.remove_flow(rng.choice(sorted(net.flows)))
            else:
                hops, end = _random_walk(topo, rng)
                if not hops:
                    continue
                serial += 1
                fid = f"f{serial}"
                path = FlowPath(src=hops[0][0], dst=end, hops=tuple(hops), rat_used=RouteKind.INTRA_FOG_LOCAL)
                new = InstalledFlow(fid, path, "s1", 0.0, *flow_units(net, F(1), F(0)))
                try:
                    net.install_flow(new)
                    installs += 1
                except LinkDown:
                    assert fid not in net.flows
            installed = sorted(net.flows)
            for node in topo.nodes:
                assert net.flows_at(node) == [fid for fid in installed if node in net.flows[fid].path.nodes()]
            for lid in topo.links:
                assert net.flows_on_link(lid) == [fid for fid in installed if lid in net.flows[fid].path.links()]
        assert installs > 80 and faults > 40 and net.flows


def _mesh_allow(net):
    def allow(link):
        return link.link_class in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL)

    return allow


def _mesh(net, fog="fog1"):
    return net.topology.fog_domain(fog).mesh


class TestMeshRoute:
    """`constrained_route` over a fog's mesh links (`FogDomain.mesh`)."""

    def test_src_equals_dst(self):
        net = make_net()
        assert constrained_route(net, "mmc1", "mmc1", _mesh(net)) == []

    def test_linear_chain(self):
        net = make_net()
        hops = constrained_route(net, "mmap", "wap2", _mesh(net))
        assert hops == [("mmap", "mm-mmap-mmc2"), ("mmc2", "in-wap2-mmc2")]

    def test_no_route_when_link_down(self):
        net = make_net()
        net.set_link_state("mm-mmap-mmc1", False)
        with pytest.raises(NoRoute):
            constrained_route(net, "mmap", "wap1", _mesh(net))

    def test_residual_filter_diverts(self):
        net = make_net(mesh_cross_link=True)
        # reserve most of the direct link mmap->mmc2
        net.install_flow(flow(net, "g", [("mmap", "mm-mmap-mmc2")], demand=F(45), gbr=F(45)))
        hops = constrained_route(net, "mmap", "mmc2", _mesh(net), need=net.units(F(10)))
        assert [l for _, l in hops] == ["mm-mmap-mmc1", "mm-mmc1-mmc2"]

    def test_random_meshes_match_exhaustive_oracle(self):
        rng = random.Random(23)
        for trial in range(40):
            # random mesh of one AP and five clients with random extra links
            nodes = [
                {"id": "gw", "kind": "CloudGateway"},
                {"id": "pop", "kind": "PoP", "fog": "f"},
                {"id": "macro", "kind": "MacroBS", "fog": "f"},
                {"id": "mmap", "kind": "MiddleMileAP", "fog": "f"},
            ]
            links = [
                {"id": "bh", "a": "pop", "b": "gw", "class": "Backhaul", "capacity": 100, "latency_ms": 1},
                {"id": "in-pm", "a": "pop", "b": "macro", "class": "Internal", "capacity": 100, "latency_ms": 0},
                {"id": "in-pa", "a": "pop", "b": "mmap", "class": "Internal", "capacity": 100, "latency_ms": 0},
            ]
            clients = [f"m{i}" for i in range(5)]
            clusters = []
            for i, cid in enumerate(clients):
                nodes.append({"id": cid, "kind": "MiddleMileClient", "fog": "f"})
                nodes.append({"id": f"w{i}", "kind": "WlanAP", "fog": "f"})
                nodes.append({"id": f"u{i}", "kind": "User", "fog": "f"})
                links.append({"id": f"in-w{i}", "a": f"w{i}", "b": cid, "class": "Internal", "capacity": 100, "latency_ms": 0})
                links.append({"id": f"wl-u{i}", "a": f"u{i}", "b": f"w{i}", "class": "WlanAccess", "capacity": 20, "latency_ms": 1})
                clusters.append({"id": f"c{i}", "wlan_aps": [f"w{i}"], "users": [f"u{i}"]})
                anchor = "mmap" if i == 0 else rng.choice(clients[:i] + ["mmap"])
                links.append(
                    {"id": f"mm-{anchor}-{cid}", "a": anchor, "b": cid, "class": "MiddleMile",
                     "capacity": rng.choice([5, 20, 50]), "latency_ms": 2}
                )
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(clients, 2)
                lid = f"mm-x-{a}-{b}-{trial}"
                if not any(l["id"] == lid for l in links):
                    links.append({"id": lid, "a": a, "b": b, "class": "MiddleMile",
                                  "capacity": rng.choice([5, 20, 50]), "latency_ms": 2})
            net = NetworkState(build_from_config({"nodes": nodes, "links": links, "clusters": clusters}), ())
            src, dst = rng.sample(clients + ["mmap", "pop"], 2)
            need = F(rng.choice([0, 10, 30]))
            expected = best_path(
                enumerate_simple_paths(net, {}, src, dst, _mesh_allow(net), min_residual=need), dst
            )
            mesh = _mesh(net, "f")
            if expected is None:
                with pytest.raises(NoRoute):
                    constrained_route(net, src, dst, mesh, need=net.units(need))
            else:
                assert constrained_route(net, src, dst, mesh, need=net.units(need)) == expected


class TestLruCache:
    def test_empty_cache_misses(self):
        cache = LruCache(2)
        assert cache.lookup("x") is False
        assert (cache.hits, cache.misses) == (0, 1)

    def test_insert_then_hit(self):
        cache = LruCache(2)
        cache.insert("x")
        assert cache.lookup("x") is True
        assert cache.hits == 1

    def test_capacity_two_hand_trace(self):
        cache = LruCache(2)
        trace = ["x", "y", "z", "x"]
        results = []
        for cid in trace:
            hit = cache.lookup(cid)
            if not hit:
                cache.insert(cid)
            results.append(hit)
        # hand-traced LRU: x miss, y miss, z miss evicts x, x miss evicts y
        assert results == [False, False, False, False]
        assert cache.resident() == ["z", "x"]
        assert (cache.hits, cache.misses) == (0, 4)

    def test_thousand_op_trace_matches_reference(self):
        rng = random.Random(77)
        cache = LruCache(8)
        ref = ReferenceLru(8)
        evictions = []
        for _ in range(1000):
            cid = str(rng.randint(1, 30))
            hit = cache.lookup(cid)
            if not hit:
                evicted = cache.insert(cid)
                if evicted is not None:
                    evictions.append(evicted)
            assert hit == ref.access(cid)
            assert cache.resident() == ref.items
        assert evictions == ref.evictions
        assert cache.hits == ref.hits and cache.misses == ref.misses

    def test_counters_close(self):
        cache = LruCache(3)
        rng = random.Random(5)
        for _ in range(200):
            cid = str(rng.randint(1, 9))
            if not cache.lookup(cid):
                cache.insert(cid)
            assert cache.hits + cache.misses == cache.lookups

    def test_peek_does_not_count(self):
        cache = LruCache(2)
        cache.insert("a")
        cache.insert("b")
        assert cache.peek("a") is True
        assert cache.lookups == 0
        # peek must not refresh recency either
        cache.insert("c")
        assert cache.resident() == ["b", "c"]


class TestAddressPool:
    def test_lowest_free_first(self):
        pool = AddressPool("fog1", 4)
        assert pool.assign("u1", authenticated=True) == "10.0.0.0"
        assert pool.assign("u2", authenticated=True) == "10.0.0.1"

    def test_idempotent_per_user(self):
        pool = AddressPool("fog1", 4)
        first = pool.assign("u1", authenticated=True)
        assert pool.assign("u1", authenticated=True) == first
        assert pool.assigned_count() == 1

    def test_exhaustion_exact(self):
        pool = AddressPool("fog1", 3)
        addresses = {pool.assign(f"u{i}", authenticated=True) for i in range(3)}
        assert len(addresses) == 3
        with pytest.raises(PoolExhausted):
            pool.assign("u99", authenticated=True)

    def test_requires_session(self):
        pool = AddressPool("fog1", 3)
        with pytest.raises(NotAuthenticated):
            pool.assign("u1", authenticated=False)


HOPS = (("u1", "wl-u1"), ("wap1", "mm-1"), ("pop1", "bh-1"))


def records():
    """One of each immutable record built per request, by name."""
    spec = FlowSpec("f1", Endpoint.user("u1"), Endpoint.content("7"), "content", 1)
    path = FlowPath("u1", "gw", HOPS, RouteKind.CLOUD_BOUND)
    return {
        "Endpoint": spec.src,
        "FlowSpec": spec,
        "FlowDecision": FlowDecision("f1", True, path, discriminator="lex"),
        "FlowPath": path,
        "FlowRequest": FlowRequest(0, "f1", "content", "u1", spec.dst, 1000),
        "Attachment": Attachment("c1", True),
    }


class TestRecords:
    """The per-request records stay immutable, hashable where they are
    keys, and free of an instance `__dict__`."""

    @pytest.mark.parametrize("name", sorted(records()))
    def test_fields_cannot_be_assigned(self, name):
        record = records()[name]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    @pytest.mark.parametrize("name", ["Attachment", "Endpoint", "FlowSpec"])
    def test_hashes_by_value(self, name):
        assert {records()[name]: 1}[records()[name]] == 1

    @pytest.mark.parametrize("name", sorted(records()))
    def test_no_instance_dict(self, name):
        assert not hasattr(records()[name], "__dict__")

    def test_installed_flow_no_instance_dict(self):
        installed = flow(make_net(), "f1", HOPS)
        installed.rate_units = 2  # mutable by design
        assert not hasattr(installed, "__dict__")
        with pytest.raises(AttributeError):
            installed.extra = 1

    def test_links_and_nodes_same_whether_supplied_or_derived(self):
        derived = FlowPath("u1", "gw", HOPS, RouteKind.CLOUD_BOUND)
        links, nodes = ("wl-u1", "mm-1", "bh-1"), ("u1", "wap1", "pop1", "gw")
        supplied = derived._replace(link_ids=links, node_ids=nodes)
        assert derived.links() == supplied.links() == links
        assert derived.nodes() == supplied.nodes() == nodes
