"""Rates are converted to units once, when a `Simulation` is built: each
policy rule's guarantee and each subscriber's cap (`FogControl`), each
workload class's demand and the WLAN control overhead (`Simulation`). A
run then carries ints from the policy to the ledger and converts no rate."""

import random
import sys
from collections import Counter
from pathlib import Path

import yaml

from fognet import util
from fognet.dataplane import NetworkState
from fognet.engine import EventKind
from fognet.fogctrl import Endpoint
from fognet.scenario import parse_scenario
from fognet.simulation import Simulation
from fognet.workload import FlowRequest
from helpers import two_fog_doc


def _every_path_sim(tmp_path: Path) -> Simulation:
    """Two fogs with GBR and best-effort classes, WLAN control overhead,
    mobility, backhaul and cluster power faults, and requests between
    users of the two fogs added as `test_golden._two_fog_sim` adds them."""
    (tmp_path / "two_fog.topo.yaml").write_text(yaml.safe_dump(two_fog_doc()))
    doc = {
        "name": "every rate path",
        "seed": 23,
        "duration_ms": 40_000,
        "metrics_tick_ms": 5_000,
        "wlan_control_overhead_mbps": 0.5,
        "topology": {"file": "two_fog.topo.yaml"},
        "slices": [
            {"id": "op-a", "operator": "alpha", "shares": 0.6},
            {"id": "op-b", "operator": "beta", "shares": 0.4},
        ],
        "policy": {
            "local_voip": {"qos": "RealTimeGBR", "gbr_mbps": 3},
            "content_request": {"qos": "BestEffort"},
            "external_web": {"qos": "BestEffort"},
        },
        "subscribers": {"max_gbr_mbps": 5},
        "workload": {
            "local_voip": {"rate_per_s": 0.5, "demand_mbps": 3, "holding_mean_s": 10},
            "content_request": {"rate_per_s": 0.5, "demand_mbps": 2.0, "holding_mean_s": 6},
            "external_web": {"rate_per_s": 0.5, "demand_mbps": 8, "holding_mean_s": 10},
            "content": {"catalog_size": 20, "zipf_exponent": 1.0},
            "mobility": {"mobile_fraction": 0.5, "relocation_rate_per_s": 0.2},
        },
        "faults": {
            "backhaul_random": {"mean_up_s": 12, "mean_down_s": 3},
            "cluster_power": {"mean_up_s": 12, "mean_down_s": 3},
        },
    }
    sim = Simulation(parse_scenario(doc, base_dir=str(tmp_path), name="every_rate_path"))
    rng = random.Random(2323)
    users = {fog: [f"{fog}-u1", f"{fog}-u2"] for fog in ("f1", "f2")}
    for i in range(1, 61):
        src_fog, dst_fog = ("f1", "f2") if rng.random() < 0.5 else ("f2", "f1")
        request = FlowRequest(
            time_ms=rng.randrange(1, 40_000),
            flow_id=f"xfog-{i:05d}",
            app_class=rng.choice(["local_voip", "external_web"]),
            src_user=rng.choice(users[src_fog]),
            dst=Endpoint.user(rng.choice(users[dst_fog])),
            holding_ms=rng.randrange(2_000, 20_000),
        )
        sim.engine.schedule(request.time_ms, EventKind.FLOW_ARRIVAL, subjects=(request.flow_id,), payload=request)
    return sim


def test_run_converts_no_rate(tmp_path, monkeypatch):
    """After the build, no call of `NetworkState.units` or `util.in_units`
    (under any name a `fognet` module binds it to) happens in the run."""
    sim = _every_path_sim(tmp_path)
    calls = Counter()

    def counted(name, convert):
        def wrapper(*args):
            calls[name] += 1
            return convert(*args)

        return wrapper

    monkeypatch.setattr(NetworkState, "units", counted("NetworkState.units", NetworkState.units))
    in_units = util.in_units
    fognet = [m for name, m in sys.modules.items() if name.partition(".")[0] == "fognet"]
    bound = [m for m in fognet if vars(m).get("in_units") is in_units]
    assert util in bound
    for module in bound:
        monkeypatch.setattr(module, "in_units", counted("in_units", in_units))
    control_installs = Counter()
    install_flow = NetworkState.install_flow

    def install(net, flow):
        control_installs[flow.slice_id is None] += 1
        return install_flow(net, flow)

    monkeypatch.setattr(NetworkState, "install_flow", install)

    sim.run()

    assert calls == Counter()
    # the run reached every path that carries a rate to the ledger
    rows = [r.split("\t") for r in sim.decision_rows[1:]]
    accepted = [r for r in rows if r[5] == "accepted"]
    assert {r[9] for r in accepted} == {"RealTimeGBR", "BestEffort"}
    interfog = [r for r in accepted if r[1].startswith("xfog-") and r[7] == "CloudBound"]
    assert {r[9] for r in interfog} == {"RealTimeGBR", "BestEffort"}
    at = {kind: {e.time for e in sim.engine.trace if e.kind == kind} for kind in EventKind}
    faults = at[EventKind.LINK_STATE_CHANGE] | at[EventKind.NODE_STATE_CHANGE]
    rerouted = {int(r[0]) for r in accepted if r[16] == "1"}
    assert rerouted & at[EventKind.HANDOVER_TRIGGER] and rerouted & faults
    assert control_installs[True] > 0  # control-overhead flows moved by faults
    # the counters see a conversion
    sim.net.units(sim.config.wlan_control_overhead)
    assert calls == Counter({"NetworkState.units": 1, "in_units": 1})
