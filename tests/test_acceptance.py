"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fognet.dataplane import RouteKind
from fognet.fogctrl import Endpoint, RejectReason
from fognet.scenario import load_scenario, parse_scenario
from fognet.simulation import OUTPUT_FILES, Simulation
from fognet.slicing import SliceManager, SliceSpec
from fognet.topology import LinkClass, ResourceClass
from helpers import CONTENT, VOIP, WEB, CloudEnv, FogEnv, bare_net, install, two_cluster_doc
from oracles import OracleFlow, ReferenceLru, controller_oracle, maxmin_oracle

F = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------------------
# 1. locality: fog-local decisions never touch backhaul or the gateway


def test_01_locality_over_1000_seeded_scenarios():
    t0 = time.perf_counter()
    local_seen = 0
    checked = 0
    for seed in range(1000):
        clusters = 1 + seed % 4
        users_max = max(2, min(10, 40 // clusters))
        doc = {
            "duration_ms": 1500,
            "seed": seed,
            "metrics_tick_ms": 1500,
            "topology": {
                "generate": {"clusters": clusters, "users_min": 2, "users_max": users_max}
            },
            "workload": {
                "local_voip": {"rate_per_s": 3.0, "demand_mbps": 0.1, "holding_mean_s": 2},
                "content_request": {"rate_per_s": 2.0, "demand_mbps": 2.0, "holding_mean_s": 1},
                "external_web": {"rate_per_s": 1.0, "demand_mbps": 1.0, "holding_mean_s": 1},
                "content": {"catalog_size": 10, "zipf_exponent": 1.0},
            },
        }
        sim = Simulation(parse_scenario(doc))
        decisions = []
        log_decision = sim._log_decision

        def log_and_keep(time_ms, spec, decision, reroute):
            log_decision(time_ms, spec, decision, reroute)
            decisions.append(decision)

        sim._log_decision = log_and_keep
        sim.run()
        topo = sim.config.topology
        gateway = topo.gateway_id()
        for decision in decisions:
            checked += 1
            if not decision.accepted or decision.path.rat_used != RouteKind.INTRA_FOG_LOCAL:
                continue
            local_seen += 1
            assert gateway not in decision.path.nodes(), decision
            for lid in decision.path.links():
                assert topo.links[lid].link_class != LinkClass.BACKHAUL, decision
    elapsed = time.perf_counter() - t0
    verdict(
        "01 locality",
        local_seen > 1000 and elapsed < 60,
        f"{local_seen} local decisions across {checked} total, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 2. isolation survival


def test_02_isolation_survival():
    t0 = time.perf_counter()
    env = CloudEnv(doc=two_cluster_doc())
    fog = env.fogs["fog1"]
    terminated = []
    env.cloud.on_flow_terminated = lambda flow, reason: terminated.append((flow.flow_id, reason))

    # pre-outage: two local guaranteed calls, one cached item, one external
    # flow and one cache-miss fetch (both cloud-bound)
    assert fog.handle_flow_request(env.spec("local1", "u1", "u2", app_class=VOIP)).accepted
    assert fog.handle_flow_request(env.spec("local2", "u3", "u4", app_class=VOIP)).accepted
    fog.cache.insert("top")
    hit = fog.handle_flow_request(env.spec("local3", "u1", Endpoint.content("top"), app_class=CONTENT, demand=1))
    assert hit.accepted and hit.path.rat_used == RouteKind.INTRA_FOG_LOCAL
    assert env.cloud.setup_external_path(env.spec("ext1", "u5", Endpoint.external(), app_class=WEB, demand=1)).accepted
    miss = fog.handle_flow_request(env.spec("fetch1", "u2", Endpoint.content("cold"), app_class=CONTENT, demand=1))
    assert miss.accepted and miss.path.rat_used == RouteKind.CLOUD_BOUND

    env.net.recompute()
    before = {fid: env.net.allocated(fid) for fid in ("local1", "local2", "local3")}
    assert before["local1"] == F(1, 2)  # guaranteed rate, exact

    env.engine.run_until(1000)
    env.set_backhaul("fog1", False)  # scripted outage at t=T
    env.net.recompute()

    cloud_bound_killed = sorted(fid for fid, _ in terminated)
    survivors_exact = all(env.net.allocated(fid) == before[fid] for fid in ("local1", "local2"))
    local3_kept = "local3" in env.net.flows
    reasons_ok = all(reason == RejectReason.FOG_ISOLATED for _, reason in terminated)

    # new local flows are admitted during the outage
    new_voip = fog.handle_flow_request(env.spec("local4", "u2", "u3", app_class=VOIP))
    new_hit = fog.handle_flow_request(env.spec("local5", "u4", Endpoint.content("top"), app_class=CONTENT, demand=1))
    elapsed = time.perf_counter() - t0
    verdict(
        "02 isolation survival",
        cloud_bound_killed == ["ext1", "fetch1"]
        and reasons_ok
        and survivors_exact
        and local3_kept
        and new_voip.accepted
        and new_hit.accepted
        and new_hit.path.rat_used == RouteKind.INTRA_FOG_LOCAL
        and elapsed < 1.0,
        f"cloud-bound terminated={cloud_bound_killed}, locals exact, {elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 3. flow-controller optimality against the brute-force oracle


def _variant_docs():
    """Topology family, every member <= 12 nodes."""
    docs = []
    for cross in (False, True):
        for wlan_cap, macro_cap, mesh_cap in (
            (25, 10, 50),
            (1, 10, 50),
            (25, 1, 50),
            (25, 10, 1),
            (2, 2, 2),
        ):
            docs.append(
                two_cluster_doc(
                    macro_only_user=False,
                    mesh_cross_link=cross,
                    wlan_capacity=wlan_cap,
                    macro_capacity=macro_cap,
                    middle_mile_capacity=mesh_cap,
                )
            )
    return docs


def test_03_controller_matches_bruteforce_oracle():
    t0 = time.perf_counter()
    rng = random.Random(303)
    decisions = 0
    docs = _variant_docs()
    for d_idx, doc in enumerate(docs):
        for variant in range(4):
            env = FogEnv(doc=doc, cache_capacity=3)
            users = sorted(env.operator_of)
            if variant == 1:
                env.net.set_link_state("wl-u1-wap1", False)
            elif variant == 2:
                env.net.set_link_state("mm-mmap-mmc1", False)
            elif variant == 3:
                for user in users:
                    env.fog.subscriber(user).mobile = rng.random() < 0.5
            for seq in range(5):
                for k in range(6):
                    roll = rng.random()
                    if roll < 0.55:
                        a, b = rng.sample(users, 2)
                        spec = env.spec(f"f{d_idx}-{variant}-{seq}-{k}", a, b, app_class=VOIP)
                    elif roll < 0.85:
                        spec = env.spec(
                            f"f{d_idx}-{variant}-{seq}-{k}",
                            rng.choice(users),
                            Endpoint.content(str(rng.randint(1, 5))),
                            app_class=CONTENT,
                            demand=2,
                        )
                    else:
                        spec = env.spec(
                            f"f{d_idx}-{variant}-{seq}-{k}",
                            rng.choice(users),
                            Endpoint.external(),
                            app_class=WEB,
                            demand=1,
                        )
                    expected = controller_oracle(env, spec)
                    got = env.fog.handle_flow_request(spec)
                    assert got.accepted == expected.accepted, (doc is docs[0], variant, seq, k)
                    if expected.accepted:
                        assert got.path.nodes() == expected.nodes
                        assert got.path.links() == expected.links
                        assert got.path.rat_used.value == expected.rat
                    else:
                        assert got.reason.value == expected.reason
                    decisions += 1
                # drain between sequences so congestion states vary
                for fid in sorted(env.net.flows):
                    if rng.random() < 0.5:
                        env.net.remove_flow(fid)
    elapsed = time.perf_counter() - t0
    verdict("03 controller optimality", elapsed < 300, f"{decisions} decisions, 100% match, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 4. max-min fairness against the independent progressive-filling oracle


def test_04_maxmin_500_instances():
    t0 = time.perf_counter()
    rng = random.Random(404)
    checked = 0
    while checked < 500:
        n_links = rng.randint(1, 7)
        links = [f"l{i}" for i in range(n_links)]
        caps = {l: F(rng.randint(1, 60)) for l in links}
        flows = []
        reserved = {l: F(0) for l in links}
        for i in range(rng.randint(1, 10)):
            path = tuple(sorted(rng.sample(links, rng.randint(1, n_links))))
            if rng.random() < 0.3:
                g = F(rng.randint(1, 4))
                if any(reserved[l] + g > caps[l] for l in path):
                    continue
                for l in path:
                    reserved[l] += g
                flows.append(OracleFlow(f"f{i}", path, g, g))
            else:
                flows.append(OracleFlow(f"f{i}", path, F(rng.randint(1, 50))))
        if not flows:
            continue
        # the simulator's own path: install on a network, recompute(), read allocated()
        net = bare_net(caps, [rate for f in flows for rate in (f.demand, f.gbr)])
        for f in flows:
            install(net, f.fid, f.links, f.demand, f.gbr)
        net.recompute()
        alloc = {f.fid: net.allocated(f.fid) for f in flows}
        oracle = maxmin_oracle(flows, caps)
        for fid in alloc:
            a, b = alloc[fid], oracle[fid]
            if a != b:  # 1e-9 relative would pass; exact equality is stronger
                rel = abs(float(a - b)) / max(float(b), 1e-30)
                assert rel <= 1e-9, (fid, a, b)
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict("04 max-min fairness", elapsed < 30, f"500 instances exact, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 5. slicing conservation and diversion


def test_05_slicing_conservation_and_diversion():
    t0 = time.perf_counter()
    physical = {cls: 100 for cls in ResourceClass.ALL}
    sm = SliceManager(
        [
            SliceSpec("a", "op-a", {cls: F(6, 10) for cls in ResourceClass.ALL}),
            SliceSpec("b", "op-b", {cls: F(4, 10) for cls in ResourceClass.ALL}),
        ]
    )
    cls = ResourceClass.MACRO
    entitled = sm.entitlements(physical)
    idle = {key: 0 for key in entitled}

    hand_cases_ok = True
    r = sm.compute_slice_allocations({**idle, ("a", cls): 90}, entitled, physical)
    hand_cases_ok &= r["a", cls] == 90 and r["b", cls] == 0
    r = sm.compute_slice_allocations({**idle, ("a", cls): 90, ("b", cls): 30}, entitled, physical)
    hand_cases_ok &= r["a", cls] == 70 and r["b", cls] == 30
    hand_cases_ok &= r["a", cls] + r["b", cls] == 100

    rng = random.Random(505)
    conserved = True
    for _ in range(1000):
        demands = {(s, c): rng.randint(0, 150) for s in ("a", "b") for c in ResourceClass.ALL}
        granted = sm.compute_slice_allocations(demands, entitled, physical)
        for c in ResourceClass.ALL:
            total = sum(granted[s, c] for s in ("a", "b"))
            if total > physical[c]:
                conserved = False
            for sid, share in (("a", 60), ("b", 40)):
                if granted[sid, c] < min(demands[sid, c], share):
                    conserved = False
    elapsed = time.perf_counter() - t0
    verdict(
        "05 slicing diversion",
        hand_cases_ok and conserved and elapsed < 30,
        f"hand cases + 1000 random traces exact, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 6. cache effect


def _cache_scenario(cache_on: bool) -> dict:
    return {
        "duration_ms": 60_000,
        "seed": 606,
        "metrics_tick_ms": 30_000,
        "topology": {"file": str(SCENARIOS / "two_cluster.topo.yaml")},
        "fogs": {"fog1": {"cache": cache_on, "cache_capacity": 10}},
        "workload": {
            "local_voip": {"rate_per_s": 0.0, "demand_mbps": 0.1, "holding_mean_s": 1},
            "content_request": {"rate_per_s": 200.0, "demand_mbps": 0.5, "holding_mean_s": 0.2},
            "external_web": {"rate_per_s": 0.0, "demand_mbps": 1.0, "holding_mean_s": 1},
            "content": {"catalog_size": 100, "zipf_exponent": 1.0},
        },
    }


def test_06_cache_effect():
    t0 = time.perf_counter()
    sim_on = Simulation(parse_scenario(_cache_scenario(True)))
    rec_on = sim_on.run()
    rec_off = Simulation(parse_scenario(_cache_scenario(False))).run()

    # replay the same request trace through an independent LRU
    ref = ReferenceLru(10)
    # the requests are the decision rows that are not re-decisions or terminations
    header = sim_on.decision_rows[0].split("\t")
    dst, status, reroute = header.index("dst"), header.index("status"), header.index("reroute")
    for row in sim_on.decision_rows[1:]:
        cols = row.split("\t")
        kind, _, ident = cols[dst].partition(":")
        if cols[reroute] == "0" and cols[status] != "terminated" and kind == "content":
            ref.access(ident)
    oracle_rate = ref.hits / (ref.hits + ref.misses)
    elapsed = time.perf_counter() - t0
    verdict(
        "06 cache effect",
        rec_on.cache_lookups >= 10_000
        and abs(rec_on.cache_hit_rate - oracle_rate) <= 0.05
        and rec_on.backhaul_bytes < rec_off.backhaul_bytes
        and elapsed < 10,
        f"{rec_on.cache_lookups} requests, hit rate {rec_on.cache_hit_rate:.3f} vs oracle "
        f"{oracle_rate:.3f}, backhaul {float(rec_on.backhaul_bytes/1e6):.1f} < "
        f"{float(rec_off.backhaul_bytes/1e6):.1f} MB, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 7. determinism


def test_07_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        config = load_scenario(SCENARIOS / "two_cluster.scn")
        sim = Simulation(config)
        record = sim.run()
        sim.write_outputs(tmp_path / name, record)
        blob = b""
        for fname in OUTPUT_FILES:
            blob += (tmp_path / name / fname).read_bytes()
        outputs.append(blob)
    verdict("07 determinism", outputs[0] == outputs[1], f"{len(outputs[0])} bytes byte-identical")


# -------------------------------------------------------------------------
# 8. guaranteed-rate protection


def test_08_gbr_protection():
    t0 = time.perf_counter()
    rng = random.Random(808)
    violations = 0
    admitted_checked = 0
    for trial in range(40):
        env = FogEnv(doc=two_cluster_doc(mesh_cross_link=trial % 2 == 0))
        users = sorted(env.operator_of)
        serial = 0
        for _ in range(30):
            if env.net.flows and rng.random() < 0.35:
                fid = rng.choice(sorted(env.net.flows))
                env.net.remove_flow(fid)
            else:
                serial += 1
                a, b = rng.sample(users, 2)
                env.fog.handle_flow_request(env.spec(f"g{trial}-{serial}", a, b, app_class=VOIP))
            env.net.recompute()
            for lid, link in env.topo.links.items():
                reserved = sum(
                    (env.rates[fid].gbr for fid, f in env.net.flows.items() if lid in f.links), F(0)
                )
                if reserved > link.capacity:
                    violations += 1
            for fid in env.net.flows:
                gbr = env.rates[fid].gbr
                if gbr > 0:
                    admitted_checked += 1
                    if env.net.allocated(fid) != gbr:
                        violations += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "08 GBR protection",
        violations == 0 and admitted_checked > 500,
        f"{admitted_checked} guarantee checks, 0 violations, {elapsed:.1f}s",
    )
