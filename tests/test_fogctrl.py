import copy
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fognet import fogctrl
from fognet.cloudctrl import CloudControl
from fognet.dataplane import FlowPath, InstalledFlow, NetworkState, NoRoute, RouteKind, constrained_route
from fognet.fogctrl import (
    Attachment,
    BadCredentials,
    Candidate,
    CloudUnreachable,
    ControlError,
    Endpoint,
    FogControl,
    FogProfile,
    PolicyDenied,
    PolicyRule,
    QosClass,
    RejectReason,
    SessionRequired,
    UnknownEndpoint,
    UnknownUser,
)
from fognet.scenario import parse_scenario
from fognet.simulation import Simulation
from fognet.slicing import SliceSpec
from fognet.topology import NodeKind, ResourceClass, TopologyGenParams, build_from_config, generate_clustered, to_doc
from helpers import (
    CONTENT,
    DEFAULT_POLICY,
    VOIP,
    WEB,
    CloudEnv,
    FakeCloud,
    FogEnv,
    flow_units,
    two_cluster_doc,
    two_fog_doc,
    wired_fogs,
)
from oracles import controller_oracle, select_oracle
from test_golden import _two_fog_sim
from test_invariants import _mesh_cycle_sim, _mesh_cycle_topology

F = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestAuthentication:
    def test_local_udf_works_while_cloud_down(self):
        env = FogEnv(cloud=FakeCloud(connected=False))
        env.fog.subscriber("u1").session = False
        env.fog.authenticate_user("u1", "tok-u1")
        assert env.fog.subscriber("u1").session

    def test_remote_udf_fails_while_cloud_down(self):
        env = FogEnv(profile=FogProfile(udf_in_fog=False), cloud=FakeCloud(connected=False))
        env.fog.subscriber("u1").session = False
        with pytest.raises(CloudUnreachable):
            env.fog.authenticate_user("u1", "tok-u1")
        assert not env.fog.subscriber("u1").session

    def test_bad_token_rejected_regardless_of_profile(self):
        for profile, cloud in (
            (FogProfile(), FakeCloud(connected=False)),
            (FogProfile(udf_in_fog=False), FakeCloud(connected=True)),
        ):
            env = FogEnv(profile=profile, cloud=cloud)
            with pytest.raises(BadCredentials):
                env.fog.authenticate_user("u1", "wrong")

    def test_session_gate_guards_subscriber_records(self):
        env = FogEnv()
        env.fog.subscriber("u1").session = False
        with pytest.raises(SessionRequired):
            env.fog.classify_flow(env.spec("f", "u1", "u2"))


class TestRegistration:
    def test_operator_without_slice_registers_nothing(self):
        env = FogEnv()
        before = dict(env.fog.subscribers)
        with pytest.raises(ControlError):
            env.fog.register_user("u9", "op9", "tok-u9", {VOIP}, env.net.unit, Attachment(macro=True))
        assert env.fog.subscribers == before and not env.fog.has_user("u9")


class TestClassify:
    def test_voip_maps_to_gbr_with_configured_rate(self):
        env = FogEnv()
        grant, slice_id = env.fog.classify_flow(env.spec("f", "u1", "u2", app_class=VOIP))
        assert grant.qos == QosClass.REAL_TIME_GBR
        assert F(grant.units, env.net.unit) == F(1, 2)
        assert grant.units == env.net.units(F(1, 2))
        assert slice_id == "s1"

    def test_bulk_is_best_effort(self):
        env = FogEnv()
        grant, _ = env.fog.classify_flow(env.spec("f", "u1", Endpoint.external(), app_class=WEB))
        assert grant.qos == QosClass.BEST_EFFORT and F(grant.units, env.net.unit) == 0 and grant.units == 0

    def test_class_outside_subscription_denied(self):
        env = FogEnv()
        env.fog.subscriber("u1").allowed_classes = frozenset({WEB})
        with pytest.raises(PolicyDenied):
            env.fog.classify_flow(env.spec("f", "u1", "u2", app_class=VOIP))

    def test_gbr_above_subscription_cap_denied(self):
        env = FogEnv(max_gbr=F(1, 10))
        with pytest.raises(PolicyDenied):
            env.fog.classify_flow(env.spec("f", "u1", "u2", app_class=VOIP))

    def test_cap_between_two_units(self):
        """A subscription cap need not be a whole number of units: it is
        kept floored in units, which refuses exactly the guarantees above
        it. At a unit of 1/10 Mb/s, a 0.1 Mb/s guarantee is admitted under
        caps of 0.15 and 0.1 Mb/s and refused under 0.08 and 0.05, its note
        still rendering the guarantee in Mb/s."""
        policy = {**DEFAULT_POLICY, VOIP: PolicyRule(app_class=VOIP, qos=QosClass.REAL_TIME_GBR, gbr_rate=F(1, 10))}
        for cap, admitted in ((F(15, 100), True), (F(1, 10), True), (F(8, 100), False), (F(5, 100), False)):
            env = FogEnv(policy=policy, demands=[F(1, 10)], max_gbr=cap)
            assert env.net.unit == 10
            decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2", app_class=VOIP, demand=F(1, 10)))
            if admitted:
                assert decision.accepted, cap
            else:
                assert (decision.accepted, decision.reason, decision.note) == (
                    False,
                    RejectReason.POLICY_DENIED,
                    "guaranteed rate 1/10 above subscription cap for u1",
                ), cap

    def test_remote_pcrf_fails_when_isolated(self):
        env = FogEnv(profile=FogProfile(pcrf_in_fog=False), cloud=FakeCloud(connected=False))
        with pytest.raises(CloudUnreachable):
            env.fog.classify_flow(env.spec("f", "u1", "u2"))
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2"))
        assert not decision.accepted and decision.reason == RejectReason.CLOUD_UNREACHABLE

    def test_remote_pcrf_adds_setup_latency(self):
        env = FogEnv(profile=FogProfile(pcrf_in_fog=False), cloud=FakeCloud(connected=True))
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2"))
        assert decision.accepted and decision.setup_ms == env.cloud.rtt_ms > 0


class TestIsLocalFlow:
    def test_two_users_same_fog(self):
        env = FogEnv()
        assert env.fog.is_local_flow(env.spec("f", "u1", "u3")) is True

    def test_external_is_not_local(self):
        env = FogEnv()
        assert env.fog.is_local_flow(env.spec("f", "u1", Endpoint.external())) is False

    def test_content_residency_table(self):
        env = FogEnv()
        table = []
        for cid, resident in (("7", True), ("8", False)):
            if resident:
                env.fog.cache.insert(cid)
            table.append((cid, resident))
        for cid, resident in table:
            spec = env.spec("f", "u1", Endpoint.content(cid), app_class=CONTENT)
            assert env.fog.is_local_flow(spec) is resident

    def test_cache_disabled_means_not_local(self):
        env = FogEnv(profile=FogProfile(cache_in_fog=False))
        spec = env.spec("f", "u1", Endpoint.content("7"), app_class=CONTENT)
        assert env.fog.is_local_flow(spec) is False

    def test_unknown_endpoint(self):
        env = FogEnv()
        with pytest.raises(UnknownEndpoint):
            env.fog.is_local_flow(env.spec("f", "u1", "ghost"))


class TestHandleFlowRequest:
    def test_macro_only_user_single_candidate(self):
        env = FogEnv()
        decision = env.fog.handle_flow_request(env.spec("f", "u5", Endpoint.external(), app_class=WEB, demand=1))
        assert decision.accepted
        assert decision.candidates == ("egress(macro)",)
        assert decision.discriminator == "only_candidate"
        assert decision.path.nodes() == ("u5", "macro", "pop", "gw")

    def test_local_voip_on_wlan_avoids_backhaul(self):
        env = FogEnv()
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2", app_class=VOIP))
        assert decision.accepted
        assert decision.path.rat_used == RouteKind.INTRA_FOG_LOCAL
        backhaul = [l for l in decision.path.links() if l.startswith("bh")]
        assert backhaul == []
        assert "gw" not in decision.path.nodes()
        assert decision.path.nodes() == ("u1", "wap1", "u2")

    def test_stationary_users_prefer_wlan(self):
        env = FogEnv()
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u3", app_class=VOIP))
        assert decision.accepted
        assert decision.discriminator == "mobility"
        assert set(decision.path.links()) >= {"wl-u1-wap1", "wl-u3-wap2"}

    def test_mobile_user_prefers_macro(self):
        env = FogEnv()
        env.fog.subscriber("u1").mobile = True
        env.fog.subscriber("u3").mobile = True
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u3", app_class=VOIP))
        assert decision.accepted
        assert decision.path.nodes() == ("u1", "macro", "u3")

    def test_no_coverage(self):
        env = FogEnv()
        env.fog.subscriber("u1").attachment = Attachment(wlan_cluster=None, macro=False)
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2"))
        assert not decision.accepted and decision.reason == RejectReason.NO_COVERAGE

    def test_gbr_admission_fail_when_saturated(self):
        env = FogEnv(demands=[F(1, 2), F(97, 10)])
        # saturate u5's only access link with reservations
        link = env.topo.macro_link("u5").id
        env.net.install_flow(
            InstalledFlow(
                flow_id="fill",
                path=FlowPath(src="u5", dst="macro", hops=(("u5", link),), rat_used=RouteKind.MACRO),
                slice_id="s1",
                latency_ms=0.0,
                gbr_units=env.net.units(F(97, 10)),
                rate_units=env.net.units(F(97, 10)),
            )
        )
        decision = env.fog.handle_flow_request(env.spec("f", "u5", "u1", app_class=VOIP))
        assert not decision.accepted
        assert decision.reason == RejectReason.GBR_ADMISSION_FAIL

    def test_slice_entitlement_caps_gbr(self):
        tight = SliceSpec(
            slice_id="s1",
            operator="op1",
            shares={
                ResourceClass.MACRO: F(1, 100),
                ResourceClass.WLAN: F(1),
                ResourceClass.MIDDLE_MILE: F(1),
                ResourceClass.BACKHAUL: F(1),
            },
        )
        env = FogEnv(slices=[tight])
        env.fog.subscriber("u1").mobile = True
        env.fog.subscriber("u2").mobile = True
        # entitled macro = 0.5 Mb/s; macro+macro needs 2 hops x 0.5 = 1.0
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2", app_class=VOIP))
        assert decision.accepted
        nodes = decision.path.nodes()
        assert nodes != ("u1", "macro", "u2")
        assert "macro+macro" not in decision.candidates

    def test_content_hit_is_local_and_miss_goes_cloud(self):
        env = FogEnv()
        miss = env.fog.handle_flow_request(env.spec("c1", "u1", Endpoint.content("9"), app_class=CONTENT, demand=2))
        assert miss.accepted and miss.path.rat_used == RouteKind.CLOUD_BOUND
        assert miss.note == "cache_miss"
        assert miss.path.nodes()[-1] == "gw"
        env.net.remove_flow("c1")
        hit = env.fog.handle_flow_request(env.spec("c2", "u1", Endpoint.content("9"), app_class=CONTENT, demand=2))
        assert hit.accepted and hit.path.rat_used == RouteKind.INTRA_FOG_LOCAL
        assert hit.note == "cache_hit"
        # cloud-fetch alternatives were considered and discarded by locality
        assert any(c.startswith("fetch(") for c in hit.candidates)
        assert hit.path.nodes()[-1] == "pop"

    def test_cache_disabled_never_local_content(self):
        env = FogEnv(profile=FogProfile(cache_in_fog=False))
        for i in range(5):
            decision = env.fog.handle_flow_request(
                env.spec(f"c{i}", "u1", Endpoint.content("3"), app_class=CONTENT, demand=1)
            )
            assert decision.accepted
            assert decision.path.rat_used == RouteKind.CLOUD_BOUND
            env.net.remove_flow(f"c{i}")

    def test_gbr_flow_allocation_equals_guarantee(self):
        env = FogEnv()
        env.fog.handle_flow_request(env.spec("f1", "u1", "u2", app_class=VOIP))
        env.fog.handle_flow_request(env.spec("f2", "u1", Endpoint.external(), app_class=WEB, demand=100))
        env.net.recompute()
        assert env.net.allocated("f1") == F(1, 2)

    def test_argmax_stable_under_capacity_scaling(self):
        for scale in (2, 10, F(1, 2)):
            base = FogEnv()
            scaled_doc = two_cluster_doc()
            for link in scaled_doc["links"]:
                link["capacity"] = str(F(link["capacity"]) * scale)
            scaled = FogEnv(doc=scaled_doc)
            for fen in (base, scaled):
                fen.fog.handle_flow_request(fen.spec("bg", "u3", Endpoint.external(), app_class=WEB, demand=4))
            d_base = base.fog.handle_flow_request(base.spec("f", "u1", "u4", app_class=VOIP))
            d_scaled = scaled.fog.handle_flow_request(scaled.spec("f", "u1", "u4", app_class=VOIP))
            assert d_base.accepted and d_scaled.accepted
            assert d_base.path.nodes() == d_scaled.path.nodes()
            assert d_base.discriminator == d_scaled.discriminator

    def test_decision_never_references_down_link(self):
        env = FogEnv()
        env.net.set_link_state("wl-u1-wap1", False)
        decision = env.fog.handle_flow_request(env.spec("f", "u1", "u2", app_class=VOIP))
        assert decision.accepted
        assert "wl-u1-wap1" not in decision.path.links()


class TestControllerOracle:
    def test_sequential_requests_match_exhaustive_oracle(self):
        rng = random.Random(20)
        users = ["u1", "u2", "u3", "u4", "u5"]
        for trial in range(25):
            env = FogEnv(doc=two_cluster_doc(mesh_cross_link=trial % 2 == 0))
            for user in users:
                env.fog.subscriber(user).mobile = rng.random() < 0.4
            for k in range(6):
                kind = rng.random()
                if kind < 0.5:
                    a, b = rng.sample(users, 2)
                    spec = env.spec(f"f{trial}-{k}", a, b, app_class=VOIP)
                elif kind < 0.8:
                    spec = env.spec(
                        f"f{trial}-{k}",
                        rng.choice(users),
                        Endpoint.content(str(rng.randint(1, 6))),
                        app_class=CONTENT,
                        demand=2,
                    )
                else:
                    spec = env.spec(
                        f"f{trial}-{k}", rng.choice(users), Endpoint.external(), app_class=WEB, demand=1
                    )
                expected = controller_oracle(env, spec)
                decision = env.fog.handle_flow_request(spec)
                assert decision.accepted == expected.accepted, (trial, k, spec, expected)
                if expected.accepted:
                    assert decision.path.nodes() == expected.nodes
                    assert decision.path.links() == expected.links
                    assert decision.path.rat_used.value == expected.rat
                else:
                    assert decision.reason.value == expected.reason


@st.composite
def selection_cases(draw):
    """Inputs of `select_candidate`: 1 to 6 candidates of mixed kind over
    one or two users, some mobile, and a utilization per link. Links,
    nodes and hop counts come from small pools, so that bottlenecks, hop
    counts and whole node sequences tie often and each rule gets to
    decide."""
    links = ["l0", "l1", "l2", "l3"]
    levels = [F(0), F(1, 2), F(1)]
    utilization = {lid: draw(st.sampled_from(levels)) for lid in links}
    # a user missing from `mobile_of` counts as stationary
    mobility = {user: draw(st.sampled_from([True, False, None])) for user in ("u1", "u2")}
    mobile_of = {user: mobile for user, mobile in mobility.items() if mobile is not None}
    kinds = st.sampled_from(["wlan", "macro"])
    rats = st.sampled_from([RouteKind.INTRA_FOG_LOCAL, RouteKind.CLOUD_BOUND])
    candidates = []
    for i in range(draw(st.integers(1, 6))):
        hops = tuple(
            (draw(st.sampled_from(["a", "b", "c"])), draw(st.sampled_from(links)))
            for _ in range(draw(st.integers(0, 3)))
        )
        users = ["u1", "u2"][: draw(st.integers(1, 2))]
        used = tuple((user, draw(kinds)) for user in users)
        end = draw(st.sampled_from(["p", "g"]))
        nodes = (*(n for n, _ in hops), end) if draw(st.booleans()) else None
        candidates.append(Candidate(f"c{i}", hops, end, draw(rats), used, nodes=nodes))
    return candidates, draw(st.booleans()), mobile_of, utilization


class TestSelectCandidate:
    RULES = {"only_candidate", "locality", "mobility", "utilization", "hop_count", "lex"}

    def test_matches_the_closure_oracle(self):
        """`select_candidate` picks the oracle's candidate with the
        oracle's discriminator, leaves its list as it was, and reads no
        more utilizations. The benchmark seeds decide almost nothing by
        utilization, hop count or lex, so every rule must decide here."""
        seen = Counter()

        @given(selection_cases())
        @settings(max_examples=150, deadline=None, derandomize=True)
        def check(case):
            candidates, prefer_local, mobile_of, utilization = case
            reads = Counter()

            def counted(side):
                def read(lid):
                    reads[side] += 1
                    return utilization[lid]

                return read

            given_list = list(candidates)
            got = fogctrl.select_candidate(
                candidates, prefer_local=prefer_local, mobile_of=mobile_of, utilization=counted("got")
            )
            expected = select_oracle(
                candidates, prefer_local=prefer_local, mobile_of=mobile_of, utilization=counted("oracle")
            )
            assert got == expected
            assert candidates == given_list
            assert reads["got"] <= reads["oracle"], reads
            seen[got[1]] += 1

        check()
        assert set(seen) == self.RULES, seen


class TestPhysicalCapacity:
    def test_down_mesh_link_leaves_capacity(self):
        env = FogEnv()
        before = env.fog.physical_capacity()[ResourceClass.MIDDLE_MILE]
        env.net.set_link_state("mm-mmap-mmc1", False)
        after = env.fog.physical_capacity()[ResourceClass.MIDDLE_MILE]
        assert after == before - 50 * env.net.unit


class TestHandover:
    def _dual_cluster_user_doc(self):
        doc = two_cluster_doc()
        doc["links"].append(
            {"id": "wl-u1-wap2", "a": "u1", "b": "wap2", "class": "WlanAccess", "capacity": 25, "latency_ms": 1}
        )
        return doc

    def test_cluster_to_cluster_rerouting(self):
        env = FogEnv(doc=self._dual_cluster_user_doc())
        d = env.fog.handle_flow_request(env.spec("f", "u1", "u3", app_class=VOIP))
        assert "wl-u1-wap1" in d.path.links()
        results = env.fog.handover("u1", Attachment(wlan_cluster="c2", macro=True))
        assert len(results) == 1
        _, redo = results[0]
        assert redo.accepted
        assert "wl-u1-wap2" in redo.path.links()
        assert env.net.flows["f"].path.links() == redo.path.links()

    def test_losing_wlan_shifts_to_macro(self):
        env = FogEnv()
        env.fog.handle_flow_request(env.spec("f", "u1", "u3", app_class=VOIP))
        results = env.fog.handover("u1", Attachment(wlan_cluster=None, macro=True))
        _, redo = results[0]
        assert redo.accepted
        assert redo.path.links()[0] == "ma-u1"

    def test_leaving_all_coverage_terminates(self):
        env = FogEnv()
        terminated = []
        env.cloud.on_flow_terminated = lambda flow, reason: terminated.append((flow.flow_id, reason))
        env.fog.handle_flow_request(env.spec("f", "u1", "u3", app_class=VOIP))
        results = env.fog.handover("u1", Attachment(wlan_cluster=None, macro=False))
        _, redo = results[0]
        assert not redo.accepted and redo.reason == RejectReason.NO_COVERAGE
        assert terminated == [("f", RejectReason.NO_COVERAGE)]
        assert "f" not in env.net.flows

    def test_unknown_user(self):
        env = FogEnv()
        with pytest.raises(UnknownUser):
            env.fog.handover("ghost", Attachment(macro=True))

    def test_remote_mlmf_while_isolated(self):
        env = FogEnv(profile=FogProfile(mlmf_in_fog=False), cloud=FakeCloud(connected=False))
        with pytest.raises(CloudUnreachable):
            env.fog.handover("u1", Attachment(macro=True))


def generated_four_cluster_doc():
    """A generated 4-cluster fog (users in WLAN range of several clusters),
    plus one mesh cross link so that some routes have detours."""
    params = TopologyGenParams(
        clusters=4,
        users_min=1,
        users_max=3,
        cluster_radius_m=300.0,
        area_side_m=1600.0,
        mesh_degree_bound=2,
        macro_radius_m=700.0,
        wlan_radius_m=700.0,
        seed=0,
    )
    doc = to_doc(generate_clustered(params))
    doc["links"].append(
        {"id": "mm-mmc1-mmc2", "a": "mmc1", "b": "mmc2", "class": "MiddleMile", "capacity": 50, "latency_ms": 2}
    )
    return doc


def diamond_doc():
    """`two_cluster_doc` and a third cluster `c3` (client `mmc3`, AP `wap3`,
    users `u6` and `u7` with WLAN and macro access), whose client hangs off
    both `mmc1` and `mmc2`: from `wap3` two routes of equal length reach
    the PoP, through `mmc1` (the lexicographically first) and through
    `mmc2`, and `mmc1` and `mmc2` are two hops apart either way round.
    Middle-mile links carry 20 Mb/s, so a few guarantees drain one."""
    doc = two_cluster_doc(middle_mile_capacity=20)
    doc["nodes"] += [
        {"id": "mmc3", "kind": "MiddleMileClient", "fog": "fog1"},
        {"id": "wap3", "kind": "WlanAP", "fog": "fog1"},
        {"id": "u6", "kind": "User", "fog": "fog1"},
        {"id": "u7", "kind": "User", "fog": "fog1"},
    ]

    def link(lid, a, b, cls, capacity, latency_ms):
        return {"id": lid, "a": a, "b": b, "class": cls, "capacity": capacity, "latency_ms": latency_ms}

    doc["links"] += [
        link("mm-mmc1-mmc3", "mmc1", "mmc3", "MiddleMile", 20, 2),
        link("mm-mmc2-mmc3", "mmc2", "mmc3", "MiddleMile", 20, 2),
        link("in-wap3-mmc3", "wap3", "mmc3", "Internal", 1000, 0),
        link("wl-u6-wap3", "u6", "wap3", "WlanAccess", 25, 1),
        link("wl-u7-wap3", "u7", "wap3", "WlanAccess", 25, 1),
        link("ma-u6", "u6", "macro", "MacroAccess", 10, 2),
        link("ma-u7", "u7", "macro", "MacroAccess", 10, 2),
    ]
    doc["clusters"].append({"id": "c3", "x": 0, "y": 1000, "wlan_aps": ["wap3"], "users": ["u6", "u7"]})
    return doc


def up_burst(rng, net, check):
    """An Up-heavy step: bring every Down link and node back Up, one at a
    time in random order, and `check()` after each. Returns how many came
    Up."""
    down = [("link", l) for l in sorted(net.link_up) if not net.link_up[l]]
    down += [("node", n) for n in sorted(net.node_up) if not net.node_up[n]]
    rng.shuffle(down)
    for kind, ident in down:
        (net.set_link_state if kind == "link" else net.set_node_state)(ident, True)
        check()
    return len(down)


class TestRouteMemo:
    """A route as the controller builds it (access hops around a memoized
    mesh segment, `segment`, kept or searched afresh by `_with_headroom`)
    against a from-scratch `constrained_route`, under random link and node
    flaps, Up-heavy steps that restore everything Down one element at a
    time, and guaranteed-rate installs that drain headroom."""

    @staticmethod
    def fresh_search(net, fog, src, end, access, need, via_backhaul):
        allowed = fog.domain.mesh | access
        if via_backhaul:
            allowed |= fog.domain.backhaul_ids
        try:
            return constrained_route(net, src, end, allowed, need)
        except NoRoute:
            return None

    @staticmethod
    def memo_route(net, fog, src, end, access, need, via_backhaul):
        """The route from the user `src` over its access link in `access`
        to `end`, a PoP, the gateway or a user over its access link in
        `access`, or None."""
        if not all(net.effective_up(lid) for lid in access):
            return None
        start, stop, head, tail = src, end, (), ()
        for lid in sorted(access):
            link = net.topology.links[lid]
            if src in (link.a, link.b):
                start, head = link.other(src), ((src, lid),)
            else:
                stop = link.other(end)
                tail = ((stop, lid),)
        segment = fog.segment(start, stop, via_backhaul)
        if segment is None:
            return None
        try:
            return fog._with_headroom((*head, *segment, *tail), src, end, need, via_backhaul)
        except NoRoute:
            return None

    def check_all_routes(self, topo, net, fogs, gbr, counts):
        gateway = topo.gateway_id()
        users = [n.id for n in topo.nodes_of_kind(NodeKind.USER)]
        for fog in fogs:
            for src in users:
                if topo.fog_of(src) != fog.fog_id:
                    continue
                ends = [(fog.pop, set(), False), (gateway, set(), True)]
                ends += [(u, {l.id}, False) for u in users if u != src for l in topo.access_links(u)]
                for slink in topo.access_links(src):
                    for end, end_access, via_backhaul in ends:
                        access = {slink.id} | end_access
                        structural = None
                        for need in (0, net.units(gbr)):
                            expected = self.fresh_search(net, fog, src, end, access, need, via_backhaul)
                            got = self.memo_route(net, fog, src, end, access, need, via_backhaul)
                            assert (None if got is None else list(got)) == expected, (
                                fog.fog_id, src, end, sorted(access), need, via_backhaul
                            )  # fmt: skip
                            if need == 0:
                                structural = expected
                            elif structural and expected != structural:
                                counts["no_headroom" if expected is None else "detour"] += 1
                            if isinstance(got, list):
                                got.clear()  # a fresh search's list must not alias the memo
                            assert all(
                                isinstance(seg, (tuple, type(None))) for routes in fog._routes for seg in routes.values()
                            )
                            counts["checked"] += 1

    @pytest.mark.parametrize(
        "doc, has_detours",
        [(generated_four_cluster_doc, True), (two_fog_doc, False), (diamond_doc, True)],
        ids=["generated4", "two_fog", "diamond"],
    )
    def test_random_steps_match_fresh_search(self, doc, has_detours):
        rng = random.Random(66)
        topo = build_from_config(doc())
        gbrs = [F(2), F(3), F(5), F(8)]
        net = NetworkState(topo, gbrs)
        fogs = list(wired_fogs(net).values())
        users = [n.id for n in topo.nodes_of_kind(NodeKind.USER)]
        sources = users + [n.id for n in topo.nodes.values() if n.kind in (NodeKind.WLAN_AP, NodeKind.MACRO_BS)]
        link_ids = sorted(topo.links)
        node_ids = sorted(topo.nodes)
        installed = []
        counts = {"checked": 0, "detour": 0, "no_headroom": 0}
        ups = 0
        for step in range(60):
            r = rng.random()
            down = [("link", l) for l in link_ids if not net.link_up[l]]
            down += [("node", n) for n in node_ids if not net.node_up[n]]
            if step % 15 == 14:
                ups += up_burst(rng, net, lambda: self.check_all_routes(topo, net, fogs, F(4), counts))
            elif step % 15 >= 11:  # Downs ahead of the burst
                if r < 0.5:
                    net.set_node_state(rng.choice(node_ids), False)
                else:
                    net.set_link_state(rng.choice(link_ids), False)
            elif r < 0.15:
                net.set_link_state(rng.choice(link_ids), False)
            elif r < 0.25:
                net.set_node_state(rng.choice(node_ids), False)
            elif r < 0.45 and down:
                kind, ident = rng.choice(down)
                (net.set_link_state if kind == "link" else net.set_node_state)(ident, True)
            elif r < 0.85:
                # from a user over one access link, or from inside the mesh
                src = rng.choice(sources)
                fog = next(f for f in fogs if f.fog_id == topo.fog_of(src))
                access = {rng.choice(topo.access_links(src)).id} if src in users else set()
                gbr = rng.choice(gbrs)
                end, via_backhaul = rng.choice([(fog.pop, False), (topo.gateway_id(), True)])
                hops = self.fresh_search(net, fog, src, end, access, net.units(gbr), via_backhaul)
                if hops:
                    path = FlowPath(src, end, tuple(hops), RouteKind.WLAN_VIA_MIDDLE_MILE)
                    # a sliced install leaves the epoch, and so the memo, in place
                    slice_id = rng.choice([None, "s1"])
                    net.install_flow(InstalledFlow(f"g{step}", path, slice_id, 0.0, *flow_units(net, gbr, gbr)))
                    installed.append(f"g{step}")
            elif installed:
                net.remove_flow(installed.pop(rng.randrange(len(installed))))
            self.check_all_routes(topo, net, fogs, F(rng.choice([1, 4, 9])), counts)
        # GBR requests must have met routes they could not reuse
        assert counts["no_headroom"] > 0 and (counts["detour"] > 0) == has_detours, counts
        assert ups > 5, ups

    def test_distance_maps_go_stale_on_down_and_up(self):
        """A segment's first fill walks the graph's one BFS distance map to
        its end, so a state change of the graph must drop the map. On the
        mesh-cycle build, fill one key to the PoP, take Down the cyclic
        link mmc1-mmc3 that lies on the unfilled key (wap3, PoP)'s route,
        and read that key: it must be the detour a fresh search finds,
        where a walk over the map searched before the Down would fail.
        Once the link is Up again, the key and the unfilled (mmc3, PoP)
        must be their fresh routes, not walks over the map searched while
        it was Down."""
        topo = build_from_config(_mesh_cycle_topology())
        net = NetworkState(topo, [F(1)])
        fog = wired_fogs(net)["fog1"]
        assert "mmc1-mmc3" in topo.cyclic_links("fog1", False)

        def fresh(start):
            return tuple(constrained_route(net, start, fog.pop, fog.domain.mesh))

        assert fog.segment("wap1", fog.pop, False) == fresh("wap1")
        assert list(fog._dists[False]) == [fog.pop]
        shortest = fresh("wap3")
        assert ("mmc3", "mmc1-mmc3") in shortest
        net.set_link_state("mmc1-mmc3", False)
        detour = fog.segment("wap3", fog.pop, False)
        assert detour == fresh("wap3") and len(detour) == len(shortest) + 1
        net.set_link_state("mmc1-mmc3", True)
        assert fog.segment("wap3", fog.pop, False) == fresh("wap3") == shortest
        assert fog.segment("mmc3", fog.pop, False) == fresh("mmc3") == shortest[1:]

    def test_down_keeps_and_up_clears_by_the_cyclic_rule(self):
        """Random link and node faults on the two-cluster topology with a
        redundant mesh link, whose three middle-mile links lie on a cycle
        and whose other links are bridges. Per routing graph (mesh, or mesh
        and backhaul): a Down drops no memo entry, and a kept route across
        a Down bridge answers None with no search and stays kept; an Up
        that touches only bridges of the graph keeps every route and drops
        only the None answers; one that touches a cyclic link clears the
        graph's memo; and after every fault each memo answer equals a
        fresh search."""
        rng = random.Random(8)
        topo = build_from_config(two_cluster_doc(mesh_cross_link=True))
        net = NetworkState(topo, [F(1)])
        fog = wired_fogs(net)["fog1"]
        cycle = {"mm-mmap-mmc1", "mm-mmap-mmc2", "mm-mmc1-mmc2"}
        assert topo.cyclic_links("fog1", False) == topo.cyclic_links("fog1", True) == cycle
        graphs = (fog.domain.mesh, fog.domain.mesh | fog.domain.backhaul_ids)
        elements = [("link", lid) for lid in sorted(topo.links)]
        elements += [("node", n.id) for n in topo.nodes.values() if n.kind != NodeKind.USER]
        counts = {"checked": 0, "detour": 0, "no_headroom": 0}
        seen = Counter()
        for _ in range(80):
            self.check_all_routes(topo, net, [fog], F(1), counts)
            before = [dict(routes) for routes in fog._routes]
            down = [(k, e) for k, e in elements if not (net.link_up if k == "link" else net.node_up)[e]]
            if down and rng.random() < 0.5:
                kind, element = rng.choice(down)
                up = True
            else:
                kind, element = rng.choice(elements)
                up = False
            (net.set_link_state if kind == "link" else net.set_node_state)(element, up)
            touched = {element} if kind == "link" else set(topo.adjacency()[element])
            for via, graph in enumerate(graphs):
                routes, hit = fog._routes[via], touched & graph
                if not up or not hit:
                    assert routes == before[via], (element, up, via)
                    seen["unchanged"] += bool(before[via])
                elif hit & cycle:
                    assert routes == {}, (element, via)
                    seen["cleared"] += bool(before[via])
                else:
                    assert routes == {key: hops for key, hops in before[via].items() if hops is not None}
                    seen["kept"] += any(before[via].values())
                    seen["dropped_none"] += None in before[via].values()
                if up:
                    continue
                for (start, end), hops in before[via].items():
                    cut = [lid for _, lid in hops or () if not net.effective_up(lid)]
                    if cut and not set(cut) & cycle:
                        assert fog.segment(start, end, bool(via)) is None
                        assert fog._routes[via][start, end] == hops  # kept, not searched
                        seen["bridge_down"] += 1
        self.check_all_routes(topo, net, [fog], F(1), counts)
        assert min(seen[k] for k in ("unchanged", "cleared", "kept", "dropped_none", "bridge_down")) > 0, seen


class TestTemplates:
    """Candidates built from the kept access options and finished
    candidates (`FogControl._candidates` over `access_options` and
    `fixed_candidates`) against a fresh enumeration: from-scratch routes,
    read on a fog control that keeps no option, no candidate and no
    segment memo. Random handovers, link and node flips, Up-heavy steps
    that restore everything Down one element at a time, best-effort and
    GBR installs (inter-fog ones too) and removals run between the checks.
    The `diamond` case has routes of equal length, so a tie that a kept
    route or candidate resolves wrongly shows."""

    @staticmethod
    def twin(fog):
        """A fog control over the same network, users and slices, with no
        kept option, candidate or segment and a copy of the cache."""
        manager = fog.slice_manager
        twin = FogControl(
            fog.fog_id, fog.profile, fog.net, [manager.spec(sid) for sid in manager.slice_ids()], fog.cloud
        )  # fmt: skip
        twin.subscribers, twin.grants = fog.subscribers, fog.grants
        twin.cache = copy.deepcopy(fog.cache)
        fog.net._health_watchers.remove(twin._on_health)  # used within one step only
        return twin

    @staticmethod
    def options(fog, user):
        """The user's Up access links under its current attachment, by
        kind, WLAN first."""
        topo, attachment = fog.net.topology, fog.subscriber(user).attachment
        links = [("wlan", attachment.wlan_cluster and topo.wlan_link(user, attachment.wlan_cluster))]
        links.append(("macro", attachment.macro and topo.macro_link(user)))
        return [(kind, link) for kind, link in links if link and fog.net.effective_up(link.id)]

    @staticmethod
    def fresh_candidates(fog, users, src, targets, need, slice_id):
        """(label, hops) of each admissible candidate, and whether any was
        routable without headroom, by the enumeration's definition."""
        out, structural = [], False
        for end, rat, peer in targets:
            via_backhaul = rat == RouteKind.CLOUD_BOUND
            peers = [(k, {l.id}) for k, l in TestTemplates.options(fog, peer)] if peer in users else [(peer, set())]
            for skind, slink in TestTemplates.options(fog, src):
                for dkind, peer_access in peers:
                    access = {slink.id} | peer_access
                    if TestRouteMemo.fresh_search(fog.net, fog, src, end, access, 0, via_backhaul) is None:
                        continue
                    structural = True
                    hops = TestRouteMemo.fresh_search(fog.net, fog, src, end, access, need, via_backhaul)
                    if hops is not None and fog.slice_gbr_ok(slice_id, [lid for _, lid in hops], need):
                        label = f"{skind}+{dkind}" if peer_access else f"{dkind}({skind})"
                        out.append((label, tuple(hops)))
        return out, structural

    def check_candidates(self, topo, fogs, need, counts):
        users = {n.id for n in topo.nodes_of_kind(NodeKind.USER)}
        gateway = topo.gateway_id()
        for fog in fogs.values():
            fresh = self.twin(fog)
            mine = sorted(u for u in users if fog.has_user(u))
            for src in mine:
                sub = fog.subscriber(src)
                slice_id = sub.slice_id
                kinds = [[(u, RouteKind.INTRA_FOG_LOCAL, u)] for u in mine if u != src]
                kinds.append([(fog.pop, RouteKind.INTRA_FOG_LOCAL, "cache"), (gateway, RouteKind.CLOUD_BOUND, "fetch")])
                kinds.append([(gateway, RouteKind.CLOUD_BOUND, "egress")])
                for targets in kinds:
                    for units in (0, need):
                        expected = self.fresh_candidates(fresh, users, src, targets, units, slice_id)
                        if units:
                            counts["refused"] += len(unrefused) - len(expected[0])
                        else:
                            unrefused = expected[0]
                        built = [
                            (end, rat, fog.access_options(fog.subscriber(peer)) if peer in users else peer)
                            for end, rat, peer in targets
                        ]
                        got, structural = fog._candidates(src, fog.access_options(sub), built, units, slice_id)
                        assert ([(c.label, c.hops) for c in got], structural) == expected, (src, targets, units)
                        counts["checked"] += 1
                        counts["candidates"] += len(got)
            for via, kept in enumerate(fog._cands):
                end = gateway if via else fog.pop
                for (link_id, tag), c in kept.items():
                    assert tag in (("fetch", "egress") if via else ("cache",)), tag
                    assert isinstance(c, tuple) and isinstance(c.hops, tuple) and isinstance(c.access_used, tuple)
                    assert all(isinstance(hop, tuple) for hop in c.hops)
                    ((user, kind),) = c.access_used
                    assert (c.label, c.hops[0], c.end) == (f"{tag}({kind})", (user, link_id), end)
                    assert c.links == tuple(lid for _, lid in c.hops)
                    assert c.nodes == tuple(n for n, _ in c.hops) + (c.end,)
                    assert c.latency_ms == sum(topo.links[lid].latency_ms for lid in c.links)
                    assert c.path == kept_path(c) and c.path.src == user
                    with pytest.raises(AttributeError):
                        c.label = "changed"
                    if all(map(fog.net.effective_up, c.links)):
                        # standing, under any attachment: its access hop and the twin's fresh segment
                        segment = fresh.segment(topo.links[link_id].other(user), end, bool(via))
                        assert c.hops == ((user, link_id), *segment), (link_id, tag)
                        counts["kept"] += 1

    def request(self, env, fogs, spec, counts):
        """Decide `spec` on fresh twins, take that flow out again, then
        decide it for real: the two decisions must be equal."""
        env.cloud.fogs = {fog_id: self.twin(fog) for fog_id, fog in fogs.items()}
        expected = env.cloud.decide(spec)
        env.cloud.fogs = fogs
        if expected.accepted:
            env.net.remove_flow(spec.flow_id)
        got = env.cloud.decide(spec)
        assert got == expected, spec
        if got.accepted:
            assert (got.path.links(), got.path.nodes()) == (expected.path.links(), expected.path.nodes())
            assert env.net.flows[spec.flow_id].latency_ms == got.latency_ms
        counts["accepted" if got.accepted else got.reason.value] += 1

    @pytest.mark.parametrize("case", ["one_fog", "two_fog", "diamond"])
    def test_random_steps_match_fresh_enumeration(self, case):
        rng = random.Random(14)
        gbrs = (F(1), F(4), F(9))
        # a 9 Mb/s guarantee drains a 10 Mb/s macro link at once, and a middle-mile link in a few installs
        policy = {**DEFAULT_POLICY, VOIP: PolicyRule(app_class=VOIP, qos=QosClass.REAL_TIME_GBR, gbr_rate=F(9))}
        if case == "one_fog":
            # uneven slices, so the entitlement test refuses some guarantees
            slices = [
                SliceSpec("s1", "op1", dict.fromkeys(ResourceClass.ALL, F(3, 5))),
                SliceSpec("s2", "op2", dict.fromkeys(ResourceClass.ALL, F(2, 5))),
            ]
            env = FogEnv(doc=generated_four_cluster_doc(), slices=slices, policy=policy, demands=gbrs)
            fogs = {"fog1": env.fog}
        elif case == "diamond":
            env = FogEnv(doc=diamond_doc(), policy=policy, demands=gbrs)
            fogs = {"fog1": env.fog}
        else:
            env = CloudEnv(doc=two_fog_doc(), policy=policy, demands=gbrs)
            fogs = env.fogs
        topo, net = env.topo, env.net
        users = [n.id for n in topo.nodes_of_kind(NodeKind.USER)]
        clusters = sorted({topo.cluster_of_user(u) for u in users} - {None})
        link_ids, node_ids = sorted(topo.links), sorted(topo.nodes)
        counts = Counter()
        for step in range(80):
            r = rng.random()
            down = [("link", l) for l in link_ids if not net.link_up[l]]
            down += [("node", n) for n in node_ids if not net.node_up[n]]
            if step % 16 == 15:
                need = net.units(rng.choice(gbrs))
                counts["up"] += up_burst(rng, net, lambda: self.check_candidates(topo, fogs, need, counts))
            elif step % 16 >= 12:  # Downs ahead of the burst
                if r < 0.5:
                    net.set_node_state(rng.choice(node_ids), False)
                else:
                    net.set_link_state(rng.choice(link_ids), False)
            elif r < 0.1:
                net.set_link_state(rng.choice(link_ids), False)
            elif r < 0.15:
                net.set_node_state(rng.choice(node_ids), False)
            elif r < 0.3 and down:
                kind, ident = rng.choice(down)
                (net.set_link_state if kind == "link" else net.set_node_state)(ident, True)
            elif r < 0.45:
                user = rng.choice(users)
                in_range = [c for c in clusters if topo.wlan_link(user, c) is not None]
                attachment = Attachment(wlan_cluster=rng.choice(in_range + [None]), macro=rng.random() < 0.7)
                fogs[topo.fog_of(user)].handover(user, attachment)
                counts["handover"] += 1
            elif r < 0.9:
                src = rng.choice(users)
                dst = rng.choice(
                    [Endpoint.user(u) for u in users if u != src] + [Endpoint.content("c1"), Endpoint.external()]
                )
                app_class = VOIP if dst.kind.value == "user" else rng.choice([CONTENT, WEB])
                spec = env.spec(f"f{step}", src, dst, app_class=app_class, demand=rng.choice(gbrs))
                self.request(env, fogs, spec, counts)
            elif net.flows:
                net.remove_flow(rng.choice(sorted(net.flows)))
            self.check_candidates(topo, fogs, net.units(rng.choice(gbrs)), counts)
        assert min(counts[k] for k in ("handover", "accepted", "kept", "refused", "GbrAdmissionFail")) > 0, counts
        assert counts["up"] > 5, counts


def kept_path(c):
    """The `FlowPath` a kept candidate must hold: from its access hop's user
    to its end, with its links and nodes."""
    return FlowPath(c.hops[0][0], c.end, c.hops, c.rat, c.links, c.nodes)


class TestKeptCandidates:
    """A finished candidate is kept by the segment memo's rule
    (`FogControl.fixed_candidates`): across a Down bridge, and until an Up
    of a cyclic link clears its graph."""

    @staticmethod
    def to_pop(fog, user, options):
        return fog.fixed_candidates(user, options, fog.pop, RouteKind.INTRA_FOG_LOCAL, "cache")

    def test_kept_across_a_bridge_fault(self, monkeypatch):
        """Take Down a bridge on a finished candidate's segment: reads give
        no candidate. After the Up the same object returns, with no
        finish."""
        env = FogEnv()
        fog = env.fog
        user = next(u for u in sorted(fog.subscribers) if fog.subscriber(u).attachment.wlan_cluster)
        wlan = fog.access_options(fog.subscriber(user))[:1]
        (kept,) = self.to_pop(fog, user, wlan)
        assert kept.path == kept_path(kept)
        bridges = [lid for lid in kept.links[1:] if lid not in env.topo.cyclic_links("fog1", False)]
        finishes = []
        monkeypatch.setattr(fogctrl, "finished", lambda *args: finishes.append(args))
        for bridge in bridges:
            env.net.set_link_state(bridge, False)
            assert fog.segment(wlan[0].attach, fog.pop, False) is None
            assert self.to_pop(fog, user, wlan) == []
            env.net.set_link_state(bridge, True)
            assert self.to_pop(fog, user, wlan)[0] is kept
        assert bridges and not finishes, bridges

    def test_cyclic_up_clears_kept_candidates(self):
        """On the mesh-cycle build, a Down cyclic link detours the kept
        candidates across it, finished anew; its Up empties the graph's
        kept candidates, and the next reads match the fresh enumeration."""
        env = FogEnv(doc=_mesh_cycle_topology())
        fog, net = env.fog, env.net
        users = sorted(fog.subscribers)

        def read(user):
            return [(c.label, c.hops) for c in self.to_pop(fog, user, fog.access_options(fog.subscriber(user)))]

        def fresh(user):
            targets = [(fog.pop, RouteKind.INTRA_FOG_LOCAL, "cache")]
            return TestTemplates.fresh_candidates(fog, set(users), user, targets, 0, None)[0]

        assert [read(u) for u in users] == [fresh(u) for u in users]
        assert all(c.path == kept_path(c) for c in fog._cands[False].values())
        crossing = {c for c in fog._cands[False].values() if "mmc1-mmc3" in c.links}
        assert crossing and "mmc1-mmc3" in env.topo.cyclic_links("fog1", False)
        net.set_link_state("mmc1-mmc3", False)
        assert [read(u) for u in users] == [fresh(u) for u in users]
        assert crossing.isdisjoint(fog._cands[False].values()) and fog._cands[False]
        assert all(c.path == kept_path(c) for c in fog._cands[False].values())
        net.set_link_state("mmc1-mmc3", True)
        assert fog._cands[False] == {}
        assert [read(u) for u in users] == [fresh(u) for u in users]


def cache_churn_doc(faults: bool) -> dict:
    """Acceptance 06's cache-on shape, 20 s long: 200 content requests/s
    over a cache of 10. With `faults`, backhaul outages, cluster power
    failures and mobile users move link and node health and attachments."""
    doc = {
        "duration_ms": 20_000,
        "seed": 606,
        "metrics_tick_ms": 10_000,
        "topology": {"file": str(SCENARIOS / "two_cluster.topo.yaml")},
        "fogs": {"fog1": {"cache": True, "cache_capacity": 10}},
        "workload": {
            "local_voip": {"rate_per_s": 0.0, "demand_mbps": 0.1, "holding_mean_s": 1},
            "content_request": {"rate_per_s": 200.0, "demand_mbps": 0.5, "holding_mean_s": 0.2},
            "external_web": {"rate_per_s": 0.0, "demand_mbps": 1.0, "holding_mean_s": 1},
            "content": {"catalog_size": 100, "zipf_exponent": 1.0},
        },
    }
    if faults:
        doc["faults"] = {
            "backhaul_random": {"mean_up_s": 4, "mean_down_s": 1},
            "cluster_power": {"mean_up_s": 6, "mean_down_s": 1},
        }
        doc["workload"]["mobility"] = {"mobile_fraction": 0.5, "relocation_rate_per_s": 0.5}
    return doc


def voip_doc() -> dict:
    """Eight generated clusters of four to eight users, mostly VoIP between
    users of the fog, no faults and no mobility."""
    return {
        "duration_ms": 20_000,
        "seed": 16,
        "metrics_tick_ms": 10_000,
        "topology": {"generate": {"clusters": 8, "users_min": 4, "users_max": 8, "seed": 16}},
        "workload": {
            "local_voip": {"rate_per_s": 20.0, "demand_mbps": 0.1, "holding_mean_s": 2},
            "content_request": {"rate_per_s": 2.0, "demand_mbps": 0.5, "holding_mean_s": 2},
            "external_web": {"rate_per_s": 2.0, "demand_mbps": 1.0, "holding_mean_s": 2},
            "content": {"catalog_size": 20, "zipf_exponent": 1.0},
        },
    }


class TestTemplateReuse:
    """The kept options and candidates must keep hitting, and must not
    grow with user pairs. Over a whole run each user's access options are
    built (`access_options`) at most once per (user, attachment), and each
    (access link, tag) is finished at most once between two changes that
    touch a cyclic link of its graph: the Ups that clear the graph's
    routes and candidates, and the Downs that detour its routes. A
    graph's kept candidates target the PoP or the gateway, never a user,
    and stay within access links x 3 tags. A change keeps every candidate
    of a graph it does not clear, as the same object."""

    @staticmethod
    def check_kept(fog):
        """Each kept candidate's key is an access link of a user of the fog
        and a tag of its graph; returns how many are kept, and the bound."""
        topo = fog.net.topology
        access = {link.id for user in fog.subscribers for link in topo.access_links(user)}
        for via, kept in enumerate(fog._cands):
            for link_id, tag in kept:
                assert link_id in access and tag in (("fetch", "egress") if via else ("cache",)), (link_id, tag)
        return sum(map(len, fog._cands)), len(access) * 3

    def run_counted(self, make_sim, monkeypatch):
        calls = {"options": Counter(), "finishes": Counter()}
        worst, health, most = Counter(), Counter(), Counter()
        access_options, finish = FogControl.access_options, fogctrl.finished
        snapshots = []

        def count(kind, key):
            calls[kind][key] += 1
            worst[kind] = max(worst[kind], calls[kind][key])

        def counted_options(fog, sub):
            if (sub.user_id, sub.attachment) not in fog._access:
                count("options", (fog.fog_id, sub.user_id, sub.attachment))
            return access_options(fog, sub)

        def counted_finish(label, hops, end, rat, access_used, topology_links):
            topo = sim.net.topology  # the simulation built below
            (user, link_id), via = hops[0], rat == RouteKind.CLOUD_BOUND
            fog = sim.fogs[topo.fog_of(user)]
            assert end == (topo.gateway_id() if via else fog.pop), (end, rat)
            count("finishes", (fog.fog_id, via, link_id, label.split("(")[0]))
            return finish(label, hops, end, rat, access_used, topology_links)

        monkeypatch.setattr(FogControl, "access_options", counted_options)
        monkeypatch.setattr(fogctrl, "finished", counted_finish)
        sim = make_sim()
        fogs = list(sim.fogs.values())

        def before(element, up):
            snapshots[:] = [[dict(kept) for kept in fog._cands] for fog in fogs]

        def after(element, up):
            """A new interval for each graph whose cyclic links the change
            touches. Runs after each fog's `_on_health`."""
            health["changes"] += 1
            topo = sim.net.topology
            touched = set(topo.adjacency().get(element, ())) | ({element} if element in topo.links else set())
            for fog, snapshot in zip(fogs, snapshots):
                for via, was in enumerate(snapshot):
                    kept = fog._cands[via]
                    if touched & topo.cyclic_links(fog.fog_id, bool(via)):
                        for key in [key for key in calls["finishes"] if key[:2] == (fog.fog_id, bool(via))]:
                            del calls["finishes"][key]
                        if up:
                            assert kept == {}, (element, via)
                            health["cleared"] += bool(was)
                            continue
                    assert kept.keys() == was.keys() and all(kept[key] is c for key, c in was.items()), element
                    health["kept"] += len(was)

        sim.net._health_watchers.insert(0, before)
        sim.net.watch_health(after)
        sim.run()
        for fog in fogs:
            size, bound = self.check_kept(fog)
            most["kept"], most["bound"] = max(most["kept"], size), max(most["bound"], bound)
            assert size <= bound, (fog.fog_id, size, bound)
        return sim, worst, most, health

    @pytest.mark.parametrize("faults", [False, True], ids=["steady", "faults"])
    def test_cache_churn_fills_once_per_interval(self, faults, monkeypatch):
        doc = cache_churn_doc(faults)
        sim, worst, _, health = self.run_counted(lambda: Simulation(parse_scenario(doc)), monkeypatch)
        requests = sim.fogs["fog1"].cache.lookups
        assert requests > 3000 and worst["options"] == 1 and worst["finishes"] == 1, (requests, worst)
        assert (health["changes"] > 0) == faults and (health["kept"] > 0) == faults, health

    def test_voip_candidates_stay_per_access_link(self, monkeypatch):
        _, worst, most, _ = self.run_counted(lambda: Simulation(parse_scenario(voip_doc())), monkeypatch)
        assert worst["options"] == 1 and worst["finishes"] == 1, worst
        assert 0 < most["kept"] <= most["bound"], most

    def test_mesh_cycle_finishes_once_per_interval(self, monkeypatch, tmp_path):
        """Cluster power faults on the mesh-cycle build take cyclic links
        Down and Up: the Ups clear kept candidates, and still no candidate
        is finished twice in one interval."""
        _, worst, _, health = self.run_counted(lambda: _mesh_cycle_sim(tmp_path), monkeypatch)
        assert worst["options"] == 1 and worst["finishes"] == 1, worst
        assert health["cleared"] > 0 and health["kept"] > 0, health

    def test_interfog_halves_come_from_the_pop_entry(self, monkeypatch, tmp_path):
        """An inter-fog request reads each user's half from the user's
        candidates to its PoP, the ones its cache hits read, so it finishes
        each at most once per interval too, and later requests reuse it."""
        reads, inside = Counter(), []
        setup, fixed = CloudControl.setup_interfog_path, FogControl.fixed_candidates

        def counted_setup(cloud, spec, **kwargs):
            reads["requests"] += 1
            inside.append(spec.flow_id)
            try:
                return setup(cloud, spec, **kwargs)
            finally:
                inside.pop()

        def counted_fixed(fog, user, options, end, rat, tag):
            if inside:
                assert (end, tag) == (fog.pop, "cache"), (end, tag)
                for option in options:
                    reads["hit" if (option.link_id, tag) in fog._cands[False] else "miss"] += 1
            return fixed(fog, user, options, end, rat, tag)

        monkeypatch.setattr(CloudControl, "setup_interfog_path", counted_setup)
        monkeypatch.setattr(FogControl, "fixed_candidates", counted_fixed)
        _, worst, _, health = self.run_counted(lambda: _two_fog_sim(tmp_path), monkeypatch)
        assert worst["options"] == 1 and worst["finishes"] == 1, worst
        assert health["changes"] > 0 and health["kept"] > 0 and reads["requests"] > 100, (health, reads)
        # the halves of most requests find their candidates kept
        assert reads["hit"] > reads["miss"] > 0, reads
