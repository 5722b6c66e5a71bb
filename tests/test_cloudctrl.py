import random
from collections import Counter
from fractions import Fraction

import pytest

from fognet.cloudctrl import CloudControl, FogIsolated
from fognet.dataplane import FlowPath, InstalledFlow, RouteKind
from fognet.fogctrl import Attachment, Endpoint, FogControl, Grant, PolicyRule, QosClass, RejectReason
from fognet.slicing import SliceSpec
from fognet.topology import NodeKind, ResourceClass
from helpers import CONTENT, VOIP, WEB, CloudEnv, flow_units, two_fog_doc
from oracles import FlowRates, interfog_oracle

F = Fraction


class TestDecide:
    """`CloudControl.decide`, the one dispatch of arrivals and
    re-decisions."""

    def test_each_request_reaches_one_controller(self, monkeypatch):
        """A flow between users of two fogs takes the inter-fog path, an
        external flow the external path (which hands it to its fog), and
        any other flow its source user's fog; a source no fog holds is
        refused before any controller is asked."""
        env = CloudEnv()
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(self, spec):
                calls.append((name, getattr(self, "fog_id", "cloud"), spec.flow_id))
                return original(self, spec)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in (
            (CloudControl, "setup_external_path"),
            (CloudControl, "setup_interfog_path"),
            (FogControl, "handle_flow_request"),
        ):
            spy(owner, name)
        specs = [
            env.spec("l", "f2-u1", "f2-u2"),
            env.spec("c", "f1-u1", Endpoint.content("7"), app_class=CONTENT),
            env.spec("x", "f1-u1", "f2-u1"),
            env.spec("e", "f1-u2", Endpoint.external(), app_class=WEB, demand=1),
        ]
        assert all(env.cloud.decide(spec).accepted for spec in specs)
        refused = env.cloud.decide(env.spec("g", "ghost", Endpoint.external(), app_class=WEB, demand=1))
        assert (refused.accepted, refused.reason, refused.note) == (False, RejectReason.NO_COVERAGE, "unknown source")
        assert calls == [
            ("handle_flow_request", "f2", "l"),
            ("handle_flow_request", "f1", "c"),
            ("setup_interfog_path", "cloud", "x"),
            ("setup_external_path", "cloud", "e"),
            ("handle_flow_request", "f1", "e"),
        ]

    def test_handover_redecides_an_external_flow_as_an_arrival(self):
        """A handover re-decides the user's web flow as the cloud decides
        an arrival: each re-decision, the move to Macro and then the
        refusal once no access is left, equals the decision of a fresh
        arrival of the same spec, and the refused flow is reported
        terminated through the cloud's hook."""
        env = CloudEnv()
        terminated = []
        env.cloud.on_flow_terminated = lambda flow, reason: terminated.append((flow.flow_id, reason))
        spec = env.spec("e", "f1-u1", Endpoint.external(), app_class=WEB, demand=1)
        assert env.cloud.decide(spec).path.links()[0] == "wl-f1-u1"
        for attachment, first_link in ((Attachment(macro=True), "ma-f1-u1"), (Attachment(), None)):
            [(fid, redo)] = env.fogs["f1"].handover("f1-u1", attachment)
            assert fid == "e" and (redo.path.links()[0] if redo.accepted else None) == first_link
            if redo.accepted:
                env.net.remove_flow("e")
            assert env.cloud.decide(spec) == redo
        assert redo.reason == RejectReason.NO_COVERAGE
        assert terminated == [("e", RejectReason.NO_COVERAGE)]


class TestExternalPath:
    def test_best_effort_web_accepted_on_idle_network(self):
        env = CloudEnv()
        decision = env.cloud.setup_external_path(env.spec("w1", "f1-u1", Endpoint.external(), app_class=WEB, demand=1))
        assert decision.accepted
        assert decision.path.nodes()[-1] == "gw"
        assert "bh-f1" in decision.path.links()

    def test_isolated_fog_rejected(self):
        env = CloudEnv()
        env.set_backhaul("f1", False)
        decision = env.cloud.setup_external_path(env.spec("w1", "f1-u1", Endpoint.external(), app_class=WEB, demand=1))
        assert not decision.accepted and decision.reason == RejectReason.FOG_ISOLATED

    def test_gbr_admission_threshold_is_backhaul_residual(self):
        # backhaul capacity 100; make voip guarantee large enough to matter
        env = CloudEnv(policy=None, demands=[F(1, 2), F(498, 5), F(2, 5)])
        env.policy[VOIP] = env.policy[VOIP]
        big = env.spec("g1", "f1-u1", Endpoint.external(), app_class=VOIP, demand=F(1, 2))
        # reserve 99.6 of the backhaul by hand: threshold left = 0.4 < 0.5
        from fognet.dataplane import FlowPath, InstalledFlow, RouteKind

        env.net.install_flow(
            InstalledFlow(
                flow_id="fill",
                path=FlowPath(src="pop-f1", dst="gw", hops=(("pop-f1", "bh-f1"),), rat_used=RouteKind.CLOUD_BOUND),
                slice_id="s1",
                latency_ms=10.0,
                gbr_units=env.net.units(F(498, 5)),
                rate_units=env.net.units(F(498, 5)),
            )
        )
        decision = env.cloud.setup_external_path(big)
        assert not decision.accepted and decision.reason == RejectReason.GBR_ADMISSION_FAIL
        # a guarantee that fits the remaining 0.4 still passes
        for fog in env.fogs.values():
            fog.grants[VOIP] = Grant(env.policy[VOIP].qos, env.net.units(F(2, 5)))
        small = env.spec("g2", "f1-u1", Endpoint.external(), app_class=VOIP, demand=F(2, 5))
        decision = env.cloud.setup_external_path(small)
        assert decision.accepted


class TestInterFogPath:
    def test_path_crosses_exactly_two_backhauls(self):
        env = CloudEnv()
        decision = env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP))
        assert decision.accepted
        backhauls = [l for l in decision.path.links() if l.startswith("bh-")]
        assert backhauls == ["bh-f1", "bh-f2"]
        assert "gw" in decision.path.nodes()
        assert decision.path.nodes()[0] == "f1-u1" and decision.path.nodes()[-1] == "f2-u1"

    def test_gbr_needs_headroom_on_the_remote_backhaul(self):
        # bh-f2 (capacity 100) keeps 0.4 of headroom, below the 0.5 guarantee;
        # the filler holds another slice's guarantee, so slice s1's
        # entitlement alone would admit the request
        env = CloudEnv(demands=[F(1, 2), F(498, 5)])
        fill = FlowPath(src="pop-f2", dst="gw", hops=(("pop-f2", "bh-f2"),), rat_used=RouteKind.CLOUD_BOUND)
        units = flow_units(env.net, F(498, 5), F(498, 5))
        env.net.install_flow(InstalledFlow("fill", fill, "other", 10.0, *units))
        decision = env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP))
        assert not decision.accepted and decision.reason == RejectReason.GBR_ADMISSION_FAIL
        env.net.remove_flow("fill")
        assert env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP)).accepted

    def test_remote_fog_isolated(self):
        env = CloudEnv()
        env.set_backhaul("f2", False)
        decision = env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP))
        assert not decision.accepted and decision.reason == RejectReason.FOG_ISOLATED

    def test_end_to_end_latency_is_hop_sum(self):
        env = CloudEnv()
        decision = env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP))
        assert decision.accepted
        # hand sum: wlan 1 + internal 0 + mm 2 + internal 0 + bh 10 + bh 10
        #           + internal 0 + mm 2 + internal 0 + wlan 1 = 26
        assert decision.latency_ms == 26.0
        by_hand = sum(env.topo.links[l].latency_ms for l in decision.path.links())
        assert decision.latency_ms == by_hand

    def test_both_fog_contexts_track_the_flow(self):
        env = CloudEnv()
        env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP))
        assert "x1" in env.net.flows_at("f1-u1")
        assert "x1" in env.net.flows_at("f2-u1")

    def test_destination_handover_redecides_through_gateway(self):
        env = CloudEnv()
        assert env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u1", app_class=VOIP)).accepted
        results = env.fogs["f2"].handover("f2-u1", Attachment(macro=True))
        assert [fid for fid, _ in results] == ["x1"]
        decision = results[0][1]
        assert decision.accepted
        assert "gw" in decision.path.nodes()
        assert decision.path.nodes()[0] == "f1-u1" and decision.path.nodes()[-1] == "f2-u1"
        assert env.net.flows["x1"].path == decision.path


    def test_destination_fog_caps_the_source_slice(self):
        """An inter-fog flow counts against the source user's slice in both
        fogs, and each fog admits it within that slice's entitlement there.
        Slice s1 is entitled to 10 Mb/s of f2's Macro, and a local s1 flow
        holds 8 of it. A 4 Mb/s flow from f1's s1 user to f2's s2 user,
        whose only access is Macro, would bring s1 to 12 Mb/s in f2: it is
        refused, though f1's s1 and f2's s2 have room."""
        halves = {cls: F(1, 2) for cls in ResourceClass.ALL}
        slices = [SliceSpec("s1", "op1", halves), SliceSpec("s2", "op2", halves)]
        policy = {VOIP: PolicyRule(app_class=VOIP, qos=QosClass.REAL_TIME_GBR, gbr_rate=F(4))}
        env = CloudEnv(policy=policy, demands=[F(4)], slices=slices)
        net, f2, macro = env.net, env.fogs["f2"], ResourceClass.MACRO
        assert [f2.subscriber(u).slice_id for u in ("f2-u1", "f2-u2")] == ["s1", "s2"]
        for user in ("f2-u1", "f2-u2"):
            f2.subscriber(user).attachment = Attachment(macro=True)
        local = f2.handle_flow_request(env.spec("local", "f2-u1", "f2-u2", demand=4))
        assert local.accepted and local.path.nodes() == ("f2-u1", "macro-f2", "f2-u2")
        assert net.slice_gbr_units("f2", "s1", macro) == 8 * net.unit
        assert f2.entitlements()["s1", macro] == 10 * net.unit

        refused = env.cloud.setup_interfog_path(env.spec("x1", "f1-u1", "f2-u2", demand=4))
        assert not refused.accepted and refused.reason == RejectReason.GBR_ADMISSION_FAIL
        assert "x1" not in net.flows

        # over WLAN in f2 the same flow fits, and both fogs count it against s1
        f2.subscriber("f2-u2").attachment = Attachment(wlan_cluster="c-f2", macro=True)
        admitted = env.cloud.setup_interfog_path(env.spec("x2", "f1-u1", "f2-u2", demand=4))
        assert admitted.accepted and "wl-f2-u2" in admitted.path.links()
        wlan = ResourceClass.WLAN
        assert net.slice_gbr_units("f1", "s1", wlan) == net.slice_gbr_units("f2", "s1", wlan) == 4 * net.unit
        assert net.slice_gbr_units("f2", "s2", wlan) == 0
        assert net.slice_gbr_units("f2", "s1", macro) == 8 * net.unit


class TestInterFogOracle:
    def test_random_steps_match_exhaustive_oracle(self):
        """Inter-fog requests against `interfog_oracle` on the two-fog
        network with 60/40 slices and more Macro in f2 than in f1, so that
        either fog's entitlement test may refuse a guarantee the other
        admits. Guarantees of a slice that neither fog holds drain the
        40 Mb/s backhauls and the mesh, between random link and node
        flips, handovers, mobility changes and removals. A few requests
        join two users of one fog, which repeats the PoP."""
        rng = random.Random(15)
        gbrs = {f"voip{g}": F(g) for g in (1, 4, 9)}
        policy = {name: PolicyRule(name, QosClass.REAL_TIME_GBR, g) for name, g in gbrs.items()}
        policy[WEB] = PolicyRule(app_class=WEB, qos=QosClass.BEST_EFFORT)
        slices = [
            SliceSpec("s1", "op1", dict.fromkeys(ResourceClass.ALL, F(3, 5))),
            SliceSpec("s2", "op2", dict.fromkeys(ResourceClass.ALL, F(2, 5))),
        ]
        doc = two_fog_doc()
        for link in doc["links"]:
            if link["class"] == "Backhaul":
                link["capacity"] = 40
            elif link["id"].startswith("ma-f2-"):
                link["capacity"] = 12
        env = CloudEnv(doc=doc, policy=policy, demands=[F(2), F(4), F(9)], slices=slices)
        topo, net = env.topo, env.net
        users = [n.id for n in topo.nodes_of_kind(NodeKind.USER)]
        link_ids, node_ids = sorted(topo.links), sorted(topo.nodes)
        core_ids = [l for l in link_ids if not set(users) & {topo.links[l].a, topo.links[l].b}]
        counts = Counter()
        for step in range(500):
            r = rng.random()
            down = [("link", l) for l in link_ids if not net.link_up[l]]
            down += [("node", n) for n in node_ids if not net.node_up[n]]
            if r < 0.05:
                net.set_link_state(rng.choice(link_ids), False)
            elif r < 0.07:
                net.set_node_state(rng.choice(node_ids), False)
            elif r < 0.2 and down:
                kind, ident = rng.choice(down)
                (net.set_link_state if kind == "link" else net.set_node_state)(ident, True)
            elif r < 0.4:
                user = rng.choice(users)
                fog = env.fogs[topo.fog_of(user)]
                fog.subscriber(user).mobile = rng.random() < 0.4
                cluster = topo.cluster_of_user(user)
                wlan = cluster if rng.random() < 0.7 else None
                fog.handover(user, Attachment(wlan_cluster=wlan, macro=rng.random() < 0.7))
            elif r < 0.5:
                lid = rng.choice(["bh-f1", "bh-f2"] if rng.random() < 0.5 else core_ids)
                link, gbr = topo.links[lid], rng.choice([F(4), F(9)])
                if net.effective_up(link.id) and net.residual_units(link.id) >= net.units(gbr):
                    path = FlowPath(link.a, link.b, ((link.a, link.id),), RouteKind.CLOUD_BOUND)
                    net.install_flow(InstalledFlow(f"fill{step}", path, "other", 10.0, *flow_units(net, gbr, gbr)))
                    env.rates[f"fill{step}"] = FlowRates(gbr, gbr)
            elif r < 0.9:
                src = rng.choice(users)
                far = [u for u in users if topo.fog_of(u) != topo.fog_of(src)]
                dst = rng.choice(far if rng.random() < 0.95 else [u for u in users if u not in far + [src]])
                app_class = rng.choice([*gbrs, WEB])
                spec = env.spec(f"x{step}", src, dst, app_class=app_class, demand=gbrs.get(app_class, F(2)))
                expected = interfog_oracle(env, spec)
                decision = env.cloud.setup_interfog_path(spec)
                assert decision.accepted == expected.accepted, (step, spec, expected)
                if expected.accepted:
                    assert decision.path.nodes() == expected.nodes, (step, spec)
                    assert decision.path.links() == expected.links, (step, spec)
                    assert decision.path.rat_used.value == expected.rat
                    assert decision.candidates == expected.labels, (step, spec)
                    counts["accepted"] += 1
                    counts["several"] += len(expected.labels) > 1
                else:
                    assert decision.reason.value == expected.reason, (step, spec, decision)
                    counts[expected.reason] += 1
            elif net.flows:
                net.remove_flow(rng.choice(sorted(net.flows)))
            for fog_id in env.fogs:  # as the simulation does after a health change
                env.cloud.on_backhaul_change(fog_id)
        assert min(counts[k] for k in ("accepted", "several", "GbrAdmissionFail", "NoRoute")) > 0, counts


class TestBackhaulChange:
    def _mixed_flows(self, env):
        a = env.fogs["f1"].handle_flow_request(env.spec("local1", "f1-u1", "f1-u2", app_class=VOIP))
        b = env.cloud.setup_external_path(env.spec("ext1", "f1-u1", Endpoint.external(), app_class=WEB, demand=1))
        assert a.accepted and b.accepted
        return a, b

    def test_only_local_flows_zero_terminated(self):
        env = CloudEnv()
        terminated = []
        env.cloud.on_flow_terminated = lambda flow, reason: terminated.append(flow.flow_id)
        env.fogs["f1"].handle_flow_request(env.spec("local1", "f1-u1", "f1-u2", app_class=VOIP))
        env.set_backhaul("f1", False)
        assert terminated == []
        assert "local1" in env.net.flows

    def test_exactly_the_external_flow_terminated(self):
        env = CloudEnv()
        terminated = []
        env.cloud.on_flow_terminated = lambda flow, reason: terminated.append((flow.flow_id, reason))
        self._mixed_flows(env)
        env.set_backhaul("f1", False)
        assert terminated == [("ext1", RejectReason.FOG_ISOLATED)]
        assert "local1" in env.net.flows and "ext1" not in env.net.flows

    def test_flap_sequence_matches_hand_trace(self):
        env = CloudEnv()
        log = []
        env.cloud.on_flow_terminated = lambda flow, reason: log.append(flow.flow_id)
        env.fogs["f1"].handle_flow_request(env.spec("l1", "f1-u1", "f1-u2", app_class=VOIP))
        env.cloud.setup_external_path(env.spec("e1", "f1-u1", Endpoint.external(), app_class=WEB, demand=1))
        env.cloud.setup_interfog_path(env.spec("x1", "f1-u2", "f2-u1", app_class=VOIP))
        run_until = env.engine.run_until
        run_until(10)
        assert env.set_backhaul("f1", False)  # isolates; kills e1 and x1, l1 survives
        run_until(20)
        assert not env.set_backhaul("f1", True)
        d = env.cloud.setup_external_path(env.spec("e2", "f1-u1", Endpoint.external(), app_class=WEB, demand=1))
        assert d.accepted
        run_until(30)
        assert env.set_backhaul("f1", False)  # kills e2
        run_until(40)
        assert not env.set_backhaul("f1", False)  # already isolated: no transition
        assert log == ["e1", "x1", "e2"]
        assert sorted(env.net.flows) == ["l1"]
        assert env.cloud.transitions[-3:] == [
            (10, "f1", "Isolated"),
            (20, "f1", "Connected"),
            (30, "f1", "Isolated"),
        ]

    def test_no_installed_path_crosses_down_backhaul(self):
        env = CloudEnv()
        self._mixed_flows(env)
        env.set_backhaul("f1", False)
        for flow in env.net.flows.values():
            assert "bh-f1" not in flow.path.links()

    def test_isolation_membership_invariant(self):
        """While isolated: survivors at onset are local; new local flows admitted."""
        env = CloudEnv()
        self._mixed_flows(env)
        env.set_backhaul("f1", False)
        survivors = set(env.net.flows)
        assert survivors == {"local1"}
        d = env.fogs["f1"].handle_flow_request(env.spec("local2", "f1-u2", "f1-u1", app_class=VOIP))
        assert d.accepted
        miss = env.fogs["f1"].handle_flow_request(
            env.spec("c1", "f1-u1", Endpoint.content("4"), app_class=CONTENT, demand=1)
        )
        assert not miss.accepted and miss.reason == RejectReason.FOG_ISOLATED


class TestSync:
    def test_noop_sync_when_no_deltas(self):
        env = CloudEnv()
        env.cloud.sync_fog_state("f1")
        assert env.cloud.pending["f1"] == []

    def test_sync_while_isolated_raises_and_retains(self):
        env = CloudEnv()
        env.set_backhaul("f1", False)
        env.fogs["f1"].handover("f1-u1", Attachment(wlan_cluster=None, macro=True))
        assert len(env.cloud.pending["f1"]) == 1
        with pytest.raises(FogIsolated):
            env.cloud.sync_fog_state("f1")
        assert len(env.cloud.pending["f1"]) == 1

    def test_queued_updates_drain_after_reconnect(self):
        env = CloudEnv()
        env.set_backhaul("f1", False)
        moves = [
            Attachment(wlan_cluster=None, macro=True),
            Attachment(wlan_cluster="c-f1", macro=True),
            Attachment(wlan_cluster=None, macro=True),
        ]
        for i, att in enumerate(moves):
            env.engine.run_until(100 + i)
            env.fogs["f1"].handover("f1-u1", att)
        assert len(env.cloud.pending["f1"]) == 3
        env.engine.run_until(500)
        env.set_backhaul("f1", True)
        # the sync round lands one round trip after the reconnect
        env.engine.run_until(519)
        assert len(env.cloud.pending["f1"]) == 3
        env.engine.run_until(520)
        assert env.cloud.pending["f1"] == []
        assert env.cloud.context_replica["f1-u1"][0] == moves[-1]

    def test_interleaved_two_fog_updates_replay_in_event_time(self):
        env = CloudEnv()
        env.set_backhaul("f1", False)
        env.set_backhaul("f2", False)
        updates = [
            (5, "f1", "f1-u1", Attachment(wlan_cluster=None, macro=True)),
            (7, "f2", "f2-u1", Attachment(wlan_cluster=None, macro=True)),
            (9, "f1", "f1-u1", Attachment(wlan_cluster="c-f1", macro=True)),
            (11, "f2", "f2-u1", Attachment(wlan_cluster="c-f2", macro=True)),
        ]
        for t, fog_id, user, att in updates:
            env.engine.run_until(t)
            env.fogs[fog_id].handover(user, att)
        env.engine.run_until(50)
        env.set_backhaul("f2", True)
        env.engine.run_until(60)
        env.set_backhaul("f1", True)
        env.engine.run_until(100)  # both sync rounds land
        # replay oracle: apply all updates in event-time order; each is
        # stamped with the engine time of its handover
        replica = {}
        for t, fog_id, user, att in sorted(updates, key=lambda u: u[0]):
            replica[user] = (att, t)
        for user, entry in replica.items():
            assert env.cloud.context_replica[user] == entry

    def test_connected_updates_flow_through_scheduled_messages(self):
        env = CloudEnv(rtt_ms=5)
        engine = env.engine
        env.fogs["f1"].handover("f1-u1", Attachment(wlan_cluster=None, macro=True))
        # not yet applied: the update rides a control message
        assert env.cloud.context_replica["f1-u1"][0].wlan_cluster == "c-f1"
        engine.run_until(10)
        assert env.cloud.context_replica["f1-u1"][0].wlan_cluster is None

    def test_eventual_consistency_at_quiescence(self):
        env = CloudEnv(rtt_ms=5)
        engine = env.engine
        fog = env.fogs["f1"]
        fog.handover("f1-u1", Attachment(wlan_cluster=None, macro=True))
        fog.handover("f1-u2", Attachment(wlan_cluster=None, macro=True))
        engine.run_until(100)
        for user in ("f1-u1", "f1-u2"):
            assert env.cloud.context_replica[user][0] == fog.subscriber(user).attachment
