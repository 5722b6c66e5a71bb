"""Every kept ledger equals its recount after every event, every slice
report row equals the oracle's, and every slice admission keeps the slice
within its entitlement (`invariants.py`), over the golden scenarios and
short builds of the benchmark workloads."""

import copy
import sys
from pathlib import Path

import pytest
import yaml

from fognet.engine import EventKind
from fognet.scenario import load_scenario, parse_scenario
from fognet.simulation import Simulation
from invariants import check_after_every_event
from test_golden import (
    SCENARIOS,
    _fault_redecisions_sim,
    _handover_terminations_sim,
    _non_decimal_sim,
    _overhead_faults_sim,
    _two_fog_sim,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

def _capped_split_sim(tmp_path):
    """`two_operator` with shares of 1/2 and 3/10, so a fifth of each class
    is left over, and web traffic heavy enough that both slices often want
    more than their entitlement. Where one slice wants less than its offer
    of the leftover, `SliceManager.compute_slice_allocations` caps it and
    makes a second pass for the other: at 18 of the 61 slice report emits
    of this run."""
    doc = yaml.safe_load((SCENARIOS / "two_operator.scn").read_text())
    doc["slices"][0]["shares"] = "1/2"
    doc["slices"][1]["shares"] = "3/10"
    doc["metrics_tick_ms"] = 1_000
    doc["duration_ms"] = 60_000
    doc["workload"]["external_web"].update(rate_per_s=2.0, demand_mbps=5.0)
    return Simulation(parse_scenario(doc, base_dir=str(SCENARIOS), name="capped_split"))


def _mesh_cycle_topology() -> dict:
    """One fog, four clusters (`c<i>`: WLAN AP `wap<i>` on middle-mile
    client `mmc<i>`, users `u<i>a`, `u<i>b` with WLAN and macro access) on a
    mesh with a cycle: mmap-mmc1-mmc3-mmc4-mmc2-mmap. `wap3` reaches the
    PoP through mmc1 and `wap4` through mmc2, each with a detour one hop
    longer through the other side of the cycle."""
    def link(a, b, cls, capacity, latency_ms):
        return {"id": f"{a}-{b}", "a": a, "b": b, "class": cls, "capacity": capacity, "latency_ms": latency_ms}

    nodes = [
        {"id": "gw", "kind": "CloudGateway"},
        {"id": "pop", "kind": "PoP", "fog": "fog1"},
        {"id": "macro", "kind": "MacroBS", "fog": "fog1"},
        {"id": "mmap", "kind": "MiddleMileAP", "fog": "fog1"},
    ]
    links = [
        link("pop", "gw", "Backhaul", 100, 10),
        link("pop", "macro", "Internal", 1000, 0),
        link("pop", "mmap", "Internal", 1000, 0),
    ]
    for a, b in (("mmap", "mmc1"), ("mmap", "mmc2"), ("mmc1", "mmc3"), ("mmc2", "mmc4"), ("mmc3", "mmc4")):
        links.append(link(a, b, "MiddleMile", 50, 2))
    clusters = []
    for i in range(1, 5):
        users = [f"u{i}a", f"u{i}b"]
        nodes.append({"id": f"mmc{i}", "kind": "MiddleMileClient", "fog": "fog1"})
        nodes.append({"id": f"wap{i}", "kind": "WlanAP", "fog": "fog1"})
        links.append(link(f"wap{i}", f"mmc{i}", "Internal", 1000, 0))
        for user in users:
            nodes.append({"id": user, "kind": "User", "fog": "fog1"})
            links.append(link(user, f"wap{i}", "WlanAccess", 25, 1))
            links.append(link(user, "macro", "MacroAccess", 10, 2))
        clusters.append({"id": f"c{i}", "x": 1000 * i, "y": 0, "wlan_aps": [f"wap{i}"], "users": users})
    return {"nodes": nodes, "links": links, "clusters": clusters}


def _mesh_cycle_sim(tmp_path):
    """Control overhead and cluster power faults on `_mesh_cycle_topology`:
    a power fault of c1 or c2 detours the control flow of wap3 or wap4,
    and its end restores the shorter route."""
    (tmp_path / "mesh_cycle.topo.yaml").write_text(yaml.safe_dump(_mesh_cycle_topology()))
    doc = {
        "name": "mesh cycle",
        "seed": 5,
        "duration_ms": 90_000,
        "metrics_tick_ms": 5_000,
        "wlan_control_overhead_mbps": 0.5,
        "topology": {"file": "mesh_cycle.topo.yaml"},
        "slices": [
            {"id": "op-a", "operator": "alpha", "shares": 0.6},
            {"id": "op-b", "operator": "beta", "shares": 0.4},
        ],
        "policy": {
            "local_voip": {"qos": "RealTimeGBR", "gbr_mbps": 0.5},
            "content_request": {"qos": "BestEffort"},
            "external_web": {"qos": "BestEffort"},
        },
        "workload": {
            "local_voip": {"rate_per_s": 1.0, "demand_mbps": 0.5, "holding_mean_s": 15},
            "content_request": {"rate_per_s": 1.0, "demand_mbps": 4.0, "holding_mean_s": 8},
            "external_web": {"rate_per_s": 0.5, "demand_mbps": 6.0, "holding_mean_s": 10},
        },
        "faults": {"cluster_power": {"mean_up_s": 15, "mean_down_s": 5}},
    }
    return Simulation(parse_scenario(doc, base_dir=str(tmp_path), name="mesh_cycle"))


BUILDS = {
    "two_cluster": lambda tmp: Simulation(load_scenario(SCENARIOS / "two_cluster.scn")),
    "isolation": lambda tmp: Simulation(load_scenario(SCENARIOS / "isolation.scn")),
    "two_operator": lambda tmp: Simulation(load_scenario(SCENARIOS / "two_operator.scn")),
    "two_fog": _two_fog_sim,
    "overhead_faults": lambda tmp: _overhead_faults_sim(),
    "non_decimal": _non_decimal_sim,
    "handover_terminations": _handover_terminations_sim,
    "fault_redecisions": _fault_redecisions_sim,
    "capped_split": _capped_split_sim,
    "mesh_cycle": _mesh_cycle_sim,
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_golden_scenario_keeps_invariants(name, tmp_path):
    sim = BUILDS[name](tmp_path)
    checked = check_after_every_event(sim)
    sim.run()
    assert checked[0] == len(sim.engine.trace) > 0
    assert checked[1] > 0  # sliced guarantees were admitted
    # every slice report row but the header and those written at build
    assert checked[2] == len(sim.slice_rows) - 1 - len(sim.fogs) * len(sim.config.slices) * 4 > 0


def test_control_flow_returns_to_shorter_route(tmp_path):
    """On the mesh cycle, some control flow moves onto its detour and some
    back to its shorter route. Only an Up can shorten a route, and an Up
    leaves the detour Up, so the invariant's route check sees a flow whose
    installed route still works but is no longer the shortest."""
    sim = _mesh_cycle_sim(tmp_path)
    check_after_every_event(sim)
    hops = {}  # AP -> its control flow's hop count after the last event, None when uninstalled
    moves = {"detour": 0, "return": 0}

    def record(event) -> None:
        for ap in ("wap3", "wap4"):
            flow = sim.net.flows.get(f"ctl-{ap}")
            now = len(flow.path.hops) if flow else None
            before = hops.get(ap)
            if before is not None and now is not None and now != before:
                moves["detour" if now > before else "return"] += 1
            hops[ap] = now

    for kind in EventKind:
        sim.engine.on(kind, record)
    sim.run()
    assert moves["detour"] > 0 and moves["return"] > 0, moves


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_workload_keeps_invariants(workload):
    """The first 20 s of each benchmark workload at its default seed."""
    spec = workloads.WORKLOADS[workload]
    doc = copy.deepcopy(workloads.build(workload, spec.default_seed))
    doc["duration_ms"] = 20_000
    sim = Simulation(parse_scenario(doc, base_dir=str(workloads.DATA_DIR), name=workload))
    checked = check_after_every_event(sim)
    sim.run()
    assert checked[0] == len(sim.engine.trace) > 0
