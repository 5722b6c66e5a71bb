import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fognet.topology import (
    LINK_TO_RESOURCE,
    DanglingLinkEndpoint,
    InfeasiblePlacement,
    InvalidCapacity,
    InvalidTopology,
    LinkClass,
    LinkState,
    MissingPoP,
    Node,
    NodeKind,
    Topology,
    TopologyGenParams,
    build_from_config,
    dumps,
    generate_clustered,
    loads,
    validate,
    with_link_profile,
)
from helpers import two_cluster_doc, two_fog_doc
from oracles import bfs_hops


def minimal_doc():
    return {
        "nodes": [
            {"id": "gw", "kind": "CloudGateway"},
            {"id": "pop", "kind": "PoP", "fog": "f"},
            {"id": "macro", "kind": "MacroBS", "fog": "f"},
            {"id": "u1", "kind": "User", "fog": "f"},
        ],
        "links": [
            {"id": "bh", "a": "pop", "b": "gw", "class": "Backhaul", "capacity": 100, "latency_ms": 10},
            {"id": "in1", "a": "pop", "b": "macro", "class": "Internal", "capacity": 1000, "latency_ms": 0},
            {"id": "ma1", "a": "u1", "b": "macro", "class": "MacroAccess", "capacity": 10, "latency_ms": 2},
        ],
        "clusters": [],
    }


def gen_params(**overrides):
    base = dict(
        clusters=2,
        users_min=2,
        users_max=4,
        cluster_radius_m=300.0,
        area_side_m=7000.0,
        mesh_degree_bound=3,
        macro_radius_m=10000.0,
        wlan_radius_m=300.0,
        seed=7,
    )
    base.update(overrides)
    return TopologyGenParams(**base)


class TestBuildFromConfig:
    def test_minimal_legal_network(self):
        topo = build_from_config(minimal_doc())
        assert len(topo.nodes) == 4
        assert validate(topo) == []

    def test_missing_client_is_dangling(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "wap1", "kind": "WlanAP", "fog": "f"})
        doc["links"].append(
            {"id": "in2", "a": "wap1", "b": "mmc1", "class": "Internal", "capacity": 1000, "latency_ms": 0}
        )
        doc["clusters"] = [{"id": "c1", "wlan_aps": ["wap1"], "users": []}]
        with pytest.raises(DanglingLinkEndpoint) as err:
            build_from_config(doc)
        assert "in2" in str(err.value) or err.value.element == "in2"

    def test_two_cluster_deployment(self):
        topo = build_from_config(two_cluster_doc())
        assert len(topo.clusters) == 2
        assert validate(topo) == []
        assert topo.pop_of("fog1") == "pop"
        assert topo.client_of_ap("wap1") == "mmc1"

    def test_missing_pop(self):
        doc = minimal_doc()
        doc["nodes"] = [n for n in doc["nodes"] if n["id"] != "pop"]
        doc["links"] = [l for l in doc["links"] if l["id"] not in ("bh", "in1")]
        doc["nodes"].append({"id": "pop2", "kind": "PoP", "fog": "g"})  # wrong fog
        doc["nodes"].append({"id": "macro2", "kind": "MacroBS", "fog": "g"})
        doc["links"].append({"id": "in9", "a": "pop2", "b": "macro2", "class": "Internal", "capacity": 1, "latency_ms": 0})
        with pytest.raises(MissingPoP):
            build_from_config(doc)

    def test_zero_capacity_rejected(self):
        doc = minimal_doc()
        doc["links"][0]["capacity"] = 0
        with pytest.raises((InvalidCapacity, InvalidTopology)):
            build_from_config(doc)

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["nodes"][0]["bogus"] = 1
        with pytest.raises(InvalidTopology):
            build_from_config(doc)


class TestValidate:
    def test_user_without_access(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "u2", "kind": "User", "fog": "f"})
        with pytest.raises(InvalidTopology) as err:
            build_from_config(doc)
        assert any(v.rule == "UserUnreachable" and v.element == "u2" for v in err.value.violations)

    def test_mutated_topology_matches_connectivity_oracle(self):
        rng = random.Random(3)
        for _ in range(10):
            topo = build_from_config(two_cluster_doc(mesh_cross_link=True))
            mesh_links = [l for l in topo.links.values() if l.link_class == LinkClass.MIDDLE_MILE]
            victim = rng.choice(sorted(l.id for l in mesh_links))
            del topo.links[victim]
            topo._adj = None

            # independent connectivity scan over Up MiddleMile/Internal links
            adjacency = {}
            for link in topo.links.values():
                if link.link_class in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL) and link.state == LinkState.UP:
                    adjacency.setdefault(link.a, []).append(link.b)
                    adjacency.setdefault(link.b, []).append(link.a)
            reach = bfs_hops(adjacency, "pop")
            expected = {
                ap.id
                for ap in topo.nodes_of_kind(NodeKind.WLAN_AP)
                if ap.id not in reach
            }
            got = {v.element for v in validate(topo) if v.rule == "DisconnectedWlanAP"}
            assert got == expected

    def test_backhaul_removal_never_disconnects_wlan(self):
        doc = two_cluster_doc()
        for link in doc["links"]:
            if link["class"] == "Backhaul":
                link["state"] = "Down"
        topo = build_from_config(doc)
        assert not [v for v in validate(topo) if v.rule == "DisconnectedWlanAP"]


class TestGenerator:
    def test_single_cluster_user_has_both_access(self):
        topo = generate_clustered(gen_params(clusters=1, users_min=1, users_max=1, seed=7))
        users = topo.nodes_of_kind(NodeKind.USER)
        assert len(users) == 1
        classes = {l.link_class for l in topo.access_links(users[0].id)}
        assert classes == {LinkClass.WLAN_ACCESS, LinkClass.MACRO_ACCESS}

    def test_determinism(self):
        a = generate_clustered(gen_params(seed=13))
        b = generate_clustered(gen_params(seed=13))
        assert a == b
        c = generate_clustered(gen_params(seed=14))
        assert c != a

    def test_mesh_hops_match_bfs_oracle(self):
        topo = generate_clustered(gen_params(clusters=4, seed=13))
        adjacency = {}
        for link in topo.links.values():
            if link.link_class in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL):
                adjacency.setdefault(link.a, []).append(link.b)
                adjacency.setdefault(link.b, []).append(link.a)
        hops = bfs_hops(adjacency, "pop")
        for ap in topo.nodes_of_kind(NodeKind.WLAN_AP):
            assert ap.id in hops  # every WLAN AP reaches the PoP over the mesh
            client = topo.client_of_ap(ap.id)
            assert hops[ap.id] == hops[client] + 1

    def test_infeasible_placement(self):
        with pytest.raises(InfeasiblePlacement):
            generate_clustered(gen_params(clusters=30, cluster_radius_m=400.0, area_side_m=1500.0))

    def test_centroid_separation(self):
        topo = generate_clustered(gen_params(clusters=4, seed=21))
        cs = sorted(topo.clusters.values(), key=lambda c: c.id)
        for i, a in enumerate(cs):
            for b in cs[i + 1 :]:
                assert ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5 >= 2 * 300.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_generated_always_validates(self, seed):
        topo = generate_clustered(gen_params(clusters=3, users_min=1, users_max=5, seed=seed))
        assert validate(topo) == []


class TestSerialization:
    def test_round_trip_object_equality(self):
        topo = generate_clustered(gen_params(seed=5))
        again = loads(dumps(topo))
        assert again == topo

    def test_round_trip_byte_stability(self):
        topo = build_from_config(two_cluster_doc())
        text = dumps(topo)
        assert dumps(loads(text)) == text

    def test_fractional_capacity_round_trip(self):
        doc = minimal_doc()
        doc["links"][2]["capacity"] = "1/3"
        topo = build_from_config(doc)
        assert topo.links["ma1"].capacity == Fraction(1, 3)
        again = loads(dumps(topo))
        assert again.links["ma1"].capacity == Fraction(1, 3)

    def test_link_profile_override(self):
        topo = build_from_config(two_cluster_doc())
        scaled = with_link_profile(topo, {LinkClass.WLAN_ACCESS: (Fraction(40), 3.0)})
        assert scaled.links["wl-u1-wap1"].capacity == Fraction(40)
        assert scaled.links["wl-u1-wap1"].latency_ms == 3.0
        assert scaled.links["bh-pop-gw"].capacity == topo.links["bh-pop-gw"].capacity


class TestFogDomain:
    """`Topology.fog_domain` against the link predicates it replaces."""

    @pytest.mark.parametrize("which", ["two_fog", "generated"])
    def test_roles_match_predicates(self, which):
        if which == "two_fog":
            topo = build_from_config(two_fog_doc())
        else:
            topo = generate_clustered(gen_params(clusters=4, seed=8))
        fogs_of = {lid: (topo.fog_of(l.a), topo.fog_of(l.b)) for lid, l in topo.links.items()}
        cls_of = {lid: l.link_class for lid, l in topo.links.items()}
        for fog in topo.fogs():
            domain = topo.fog_domain(fog)
            assert domain.mesh == {
                lid
                for lid, ends in fogs_of.items()
                if cls_of[lid] in (LinkClass.MIDDLE_MILE, LinkClass.INTERNAL) and ends == (fog, fog)
            }
            backhaul = sorted(lid for lid, ends in fogs_of.items() if cls_of[lid] == LinkClass.BACKHAUL and fog in ends)
            assert [l.id for l in topo.backhaul_links(fog)] == backhaul
            assert domain.backhaul_ids == set(backhaul)
            metered = sorted(lid for lid, ends in fogs_of.items() if cls_of[lid] != LinkClass.INTERNAL and fog in ends)
            assert [l.id for l in domain.metered[None]] == metered
            for cls in (LinkClass.MACRO_ACCESS, LinkClass.WLAN_ACCESS, LinkClass.MIDDLE_MILE, LinkClass.BACKHAUL):
                resource = LINK_TO_RESOURCE[cls]
                assert [l.id for l in domain.metered[resource]] == [lid for lid in metered if cls_of[lid] == cls]
        assert topo.fog_domain(topo.fogs()[0]) is topo.fog_domain(topo.fogs()[0])

    def test_unknown_fog_has_no_links(self):
        topo = build_from_config(two_cluster_doc())
        for fog in ("nope", None):
            domain = topo.fog_domain(fog)
            assert domain.mesh == set() and domain.backhaul == [] and domain.metered == {}
        assert topo.backhaul_links("nope") == []


class TestGateway:
    def test_gateway_is_the_lowest_id_gateway_node(self):
        topo = build_from_config(two_fog_doc())
        assert topo.gateway_id() == topo.gateway_id() == "gw"
        nodes = {**topo.nodes, "a-gw": Node(id="a-gw", kind=NodeKind.CLOUD_GATEWAY)}
        assert Topology(nodes, topo.links, topo.clusters).gateway_id() == "a-gw"

    def test_missing_gateway_raises_on_every_call(self):
        topo = build_from_config(two_fog_doc())
        nodes = {nid: node for nid, node in topo.nodes.items() if node.kind != NodeKind.CLOUD_GATEWAY}
        bare = Topology(nodes, topo.links, topo.clusters)
        for _ in range(2):
            with pytest.raises(InvalidTopology, match="MissingCloudGateway"):
                bare.gateway_id()
