"""Golden output digests: SHA-256 of the six OUTPUT_FILES per scenario.

Every refactor must leave these bytes unchanged. Besides the three bundled
scenarios, three built here reach paths that no bundled scenario does: a
two-fog network with user-to-user traffic across fogs (inter-fog paths
through the cloud gateway, backhaul flaps while they are installed); a
single fog with WLAN control overhead plus link and node faults (the
unsliced overhead flows on the fog's mesh segments, moved when a fault
changes a segment);
the two-cluster network with every capacity, demand, guarantee, share
and the control overhead a ratio with denominator 3 or 7, none of them a
finite decimal (exact rates that congest, with guaranteed-rate refusals);
the two-cluster network with scarce Macro access and frequent
relocations, where handover re-decisions terminate flows (the order of
the termination and re-decision rows at a handover); and the same scarce
network with cluster power failures and no mobility, where the
re-decisions at a fault terminate flows too (a refused re-decision is
written only as its termination, as at a handover).

A digest may change only with a deliberate change of behaviour; re-record
it then and say why in the change notes.
"""

import hashlib
import random
from pathlib import Path

import pytest
import yaml

from fognet.engine import EventKind
from fognet.fogctrl import Endpoint
from fognet.scenario import load_scenario, parse_scenario
from fognet.simulation import OUTPUT_FILES, Simulation
from fognet.workload import FlowRequest
from helpers import two_fog_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "two_cluster": {
        "metrics.tsv": "e9e05473329f645ac6d90a05fc151defc24cc0b16f289afd4889f46954a42ced",
        "decisions.log": "89f76c28263c5842bea68fb462480eb98011d407ec8cc91c20e32ef4edd10a05",
        "events.log": "09b46f9de73b2ffac4ae425afa13f5252a38256b8e8939b7caf1d43f4ed00007",
        "connectivity.log": "4edaba907a4a0e7ec50427d6e7086586561be0ac514907662c8393744f236cc2",
        "slices.tsv": "ad8fa3784c38f94266616b934b7313e8ee2b0687395397f667b23ba167871614",
        "run.log": "ef72876431b309586c23e92f820c3e6a9f9c2b67de6f5d29b12b75fa02be18da",
    },
    "isolation": {
        "metrics.tsv": "d20abaee89d2d508bbdd1903e63fcb271d01acb4a4990eb68f58085d7213cd1d",
        "decisions.log": "72d41dbbfe1a2e7cf7e0ba95e580587ef1bd7c9561c53443b278fee022d24374",
        "events.log": "53bafad9ccd2b421c8a8d26294370f8b1d2408839836a56fa7cd519c9c2131db",
        "connectivity.log": "49cf8ce8dc7b298a169381635839cd64746fadca5f7ccd195af63d793396d2a8",
        "slices.tsv": "875469d8434102a34707df673392bae9b1b4fd45a5440f699cb858aa0f50e325",
        "run.log": "2a518064177f0e10631d4c69302792eb269f036dc3c6f9291eedadacbd5f0c6a",
    },
    "two_operator": {
        "metrics.tsv": "d518f60bb11a892c685283c1ad231de3a2892fd2075120374f3c60b417c6ce48",
        "decisions.log": "bf759c758eeef79a73690014ad1213855ddd15a248c03a0cd5c6f3f8a7da99e4",
        "events.log": "4df389ace5d831db6df2ed1d6addf54a460ce9cbe832c19bd22b044bb4539862",
        "connectivity.log": "4edaba907a4a0e7ec50427d6e7086586561be0ac514907662c8393744f236cc2",
        "slices.tsv": "b843e3de639ce3c00dfe80753d58297e69c0ef8778a5342166c17fc6a01f0719",
        "run.log": "e5664ef8aa8c376b257f222f683c19a3ba07662d6cf4b3e8551e2dc0463c676a",
    },
    "two_fog": {
        "metrics.tsv": "0371a19c5722f80ab4fe39eff5bc4babf5ce19c44fb3c11c2c4a316278553e18",
        "decisions.log": "af4a2c26cb82acda2fe4052d7b8c10d7495183a10cc8de16f18d25b81a9566e8",
        "events.log": "4c8e2631d84bba675126395f076dcc772847bdff44568472d878e1e6c55a5c8d",
        "connectivity.log": "5a342e2b38f1de29ac85dc128fe0d9c50fb39c4c295ad88d0fa30e974c1ed29b",
        "slices.tsv": "1b6ff2399e76756f64913494a77282311baf37a13d3b66294c85964a97d19c7c",
        "run.log": "4038a870f353721f8977c67197d785562ccd3db18f138942b02bb38db3f51817",
    },
    "overhead_faults": {
        "metrics.tsv": "d65ad5e5d32b540061d982e290305dfd6d1af036bc8d3b50e67daef76704cc92",
        "decisions.log": "a3daf9ee348c98b0b3008a0c0ba3291d4177d702a250f86aa280e2915685d431",
        "events.log": "1bd2359f240479ca1536431bf83c8e8ce19026975ad69f37b2543a718186c1a9",
        "connectivity.log": "a9ba7675421f454f1b87ca390f8940c762f18606828c6b21522e382bce32eb41",
        "slices.tsv": "584d0b9c5f102f01b1cb1e947be0656a660cf187943e95044fe9ded8deaf8008",
        "run.log": "c4438ec798bf6315e0d30bb69e20c9daa61ee33f1bca735ebfa7ec67307e33c6",
    },
    "non_decimal": {
        "metrics.tsv": "24ee945b2a7477d4f83619e07be42550013037879f3855370f3591342fcb4c9c",
        "decisions.log": "4380d8321f49885da3fb16003361d62d050ac66fb7256d29f13ec033cb343e6d",
        "events.log": "d8eb98b70b9f39d89d1736cbe8d86692ab77bef2495c89bbc2c25d55d4de7b5c",
        "connectivity.log": "5f7e8492cd53af5d3ae6cf53dc49936d4fe2170999d85859fb98086444c0b1df",
        "slices.tsv": "cadee01580da991a153eea15a95ef2810b6709881839ac693d9955e666c68398",
        "run.log": "633cc5c9f61939af7b3111ea6e04c1b80f4787066027e49290932cf1bd9d93fe",
    },
    "handover_terminations": {
        "metrics.tsv": "9a08f41474e4420c4cbf0b1c0cfadd0f87d473af1532b8776e45798685a35a72",
        "decisions.log": "61d3d0ed6e6e5c83beabbaf39a0fc029bfd08d5593aad877bfd318cc5c4f51c1",
        "events.log": "1ecd2c46229eb5592750ed70bad8e5658ad3fc1aefe83b584ce0ab6553f20e9b",
        "connectivity.log": "4edaba907a4a0e7ec50427d6e7086586561be0ac514907662c8393744f236cc2",
        "slices.tsv": "9d398f9098983f0820cc7dcbec539341affb9e8156af95a3447d9b7928b26db2",
        "run.log": "9856bab6e242d4bb51c3666632c8c6e47e3e3899ad80a8e322961d761aa50fce",
    },
    "fault_redecisions": {
        "metrics.tsv": "43783a37c5ba06213f85eaa34b9a8a103ec087cc1142efc80b2280f8f9c441c7",
        "decisions.log": "cc599c3880d422104caa4121b1449b0f29f1c641aa041bcad08c1ceee89453a0",
        "events.log": "6e0a638539f6fa94b1a9c0fc839ff72e14e28ee373bbd7f432b15b5b4f6fc6ac",
        "connectivity.log": "4edaba907a4a0e7ec50427d6e7086586561be0ac514907662c8393744f236cc2",
        "slices.tsv": "0bb29e88c12189c5460ed09310059d795282ada43ab80cff64ddf2560a470c34",
        "run.log": "2b655b324ad21e01d2aa139ad984e2579376e24c62e0c69645676050c5a2d8a6",
    },
}


def _digests(sim: Simulation, out_dir: Path) -> dict:
    sim.write_outputs(str(out_dir), sim.run())
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}


def _two_fog_sim(tmp_path: Path) -> Simulation:
    (tmp_path / "two_fog.topo.yaml").write_text(yaml.safe_dump(two_fog_doc()))
    doc = {
        "name": "two-fog golden",
        "seed": 13,
        "duration_ms": 40_000,
        "metrics_tick_ms": 5_000,
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
        },
        "faults": {"backhaul_random": {"mean_up_s": 12, "mean_down_s": 3}},
    }
    sim = Simulation(parse_scenario(doc, base_dir=str(tmp_path), name="two_fog"))
    # The workload generator pairs users within one fog only; add requests
    # between users of different fogs so that the cloud sets up their paths.
    rng = random.Random(1313)
    users = {fog: [f"{fog}-u1", f"{fog}-u2"] for fog in ("f1", "f2")}
    for i in range(1, 121):
        src_fog, dst_fog = ("f1", "f2") if rng.random() < 0.5 else ("f2", "f1")
        request = FlowRequest(
            time_ms=rng.randrange(1, 40_000),
            flow_id=f"xfog-{i:05d}",
            app_class=rng.choice(["local_voip", "external_web"]),
            src_user=rng.choice(users[src_fog]),
            dst=Endpoint.user(rng.choice(users[dst_fog])),
            holding_ms=rng.randrange(2_000, 20_000),
        )
        sim.engine.schedule(
            request.time_ms, EventKind.FLOW_ARRIVAL, subjects=(request.flow_id,), payload=request
        )
    return sim


def _overhead_faults_sim() -> Simulation:
    doc = {
        "name": "overhead and faults golden",
        "seed": 29,
        "duration_ms": 120_000,
        "metrics_tick_ms": 5_000,
        "wlan_control_overhead_mbps": 0.5,
        "topology": {"generate": {"clusters": 4, "users_min": 2, "users_max": 4}},
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
            "content": {"catalog_size": 30, "zipf_exponent": 1.0},
            "mobility": {"mobile_fraction": 0.3, "relocation_rate_per_s": 0.05},
        },
        "faults": {
            "backhaul_random": {"mean_up_s": 20, "mean_down_s": 4},
            "cluster_power": {"mean_up_s": 15, "mean_down_s": 5},
        },
    }
    return Simulation(parse_scenario(doc, name="overhead_faults"))


NON_DECIMAL_CAPACITY = {
    "Backhaul": "100/3",
    "MiddleMile": "50/7",
    "WlanAccess": "25/3",
    "MacroAccess": "10/7",
    "Internal": "3000/7",
}


def _scarce_macro_doc(tmp_path: Path, name: str) -> dict:
    """The two-cluster network with 1.5 Mb/s Macro access, where a
    re-decided guarantee often finds no admissible path, and its slices,
    policy and workload; the caller adds seed, duration, mobility and
    faults."""
    topo = yaml.safe_load((SCENARIOS / "two_cluster.topo.yaml").read_text())
    for link in topo["links"]:
        if link["class"] == "MacroAccess":
            link["capacity"] = 1.5
    (tmp_path / f"{name}.topo.yaml").write_text(yaml.safe_dump(topo))
    return {
        "metrics_tick_ms": 5_000,
        "topology": {"file": f"{name}.topo.yaml"},
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
            "local_voip": {"rate_per_s": 1.5, "demand_mbps": 0.5, "holding_mean_s": 15},
            "content_request": {"rate_per_s": 0.5, "demand_mbps": 2.0, "holding_mean_s": 8},
            "external_web": {"rate_per_s": 0.3, "demand_mbps": 1.5, "holding_mean_s": 10},
            "content": {"catalog_size": 20, "zipf_exponent": 1.0},
        },
    }


def _handover_terminations_sim(tmp_path: Path) -> Simulation:
    doc = _scarce_macro_doc(tmp_path, "handover")
    doc.update(name="handover terminations golden", seed=41, duration_ms=60_000)
    doc["workload"]["mobility"] = {"mobile_fraction": 0.6, "relocation_rate_per_s": 0.5}
    return Simulation(parse_scenario(doc, base_dir=str(tmp_path), name="handover_terminations"))


def _fault_redecisions_sim(tmp_path: Path) -> Simulation:
    doc = _scarce_macro_doc(tmp_path, "fault_redecisions")
    doc.update(name="fault re-decisions golden", seed=41, duration_ms=30_000)
    doc["faults"] = {"cluster_power": {"mean_up_s": 15, "mean_down_s": 5}}
    return Simulation(parse_scenario(doc, base_dir=str(tmp_path), name="fault_redecisions"))


def _non_decimal_sim(tmp_path: Path) -> Simulation:
    topo = yaml.safe_load((SCENARIOS / "two_cluster.topo.yaml").read_text())
    for link in topo["links"]:
        link["capacity"] = NON_DECIMAL_CAPACITY[link["class"]]
    (tmp_path / "non_decimal.topo.yaml").write_text(yaml.safe_dump(topo))
    doc = {
        "name": "non-decimal rates golden",
        "seed": 37,
        "duration_ms": 60_000,
        "metrics_tick_ms": 5_000,
        "wlan_control_overhead_mbps": "1/21",
        "topology": {"file": "non_decimal.topo.yaml"},
        "slices": [
            {"id": "op-a", "operator": "alpha", "shares": "2/3"},
            {"id": "op-b", "operator": "beta", "shares": "1/3"},
        ],
        "policy": {
            "local_voip": {"qos": "RealTimeGBR", "gbr_mbps": "3/7"},
            "content_request": {"qos": "BestEffort"},
            "external_web": {"qos": "BestEffort"},
        },
        "workload": {
            "local_voip": {"rate_per_s": 1.0, "demand_mbps": "3/7", "holding_mean_s": 15},
            "content_request": {"rate_per_s": 1.0, "demand_mbps": "4/3", "holding_mean_s": 8},
            "external_web": {"rate_per_s": 0.6, "demand_mbps": "5/7", "holding_mean_s": 12},
            "content": {"catalog_size": 30, "zipf_exponent": 1.0},
            "mobility": {"mobile_fraction": 0.3, "relocation_rate_per_s": 0.05},
        },
        "faults": {"backhaul_random": {"mean_up_s": 12, "mean_down_s": 3}},
    }
    return Simulation(parse_scenario(doc, base_dir=str(tmp_path), name="non_decimal"))


@pytest.mark.parametrize("name", ["two_cluster", "isolation", "two_operator"])
def test_bundled_scenario_digests(name, tmp_path):
    sim = Simulation(load_scenario(SCENARIOS / f"{name}.scn"))
    assert _digests(sim, tmp_path / "out") == GOLDEN[name]


def test_two_fog_interfog_digests(tmp_path):
    sim = _two_fog_sim(tmp_path)
    digests = _digests(sim, tmp_path / "out")
    rows = [r.split("\t") for r in sim.decision_rows[1:]]
    # inter-fog user-to-user flows were admitted, and some were refused
    xfog = [r for r in rows if r[1].startswith("xfog-")]
    assert any(r[5] == "accepted" and r[7] == "CloudBound" for r in xfog)
    assert any(r[5] == "rejected" for r in xfog)
    assert digests == GOLDEN["two_fog"]


def test_overhead_and_faults_digests(tmp_path):
    sim = _overhead_faults_sim()
    digests = _digests(sim, tmp_path / "out")
    kinds = {event.kind for event in sim.engine.trace}
    assert {EventKind.LINK_STATE_CHANGE, EventKind.NODE_STATE_CHANGE} <= kinds
    # the unsliced control-overhead flows are installed at the end of the run
    assert any(f.slice_id is None for f in sim.net.flows.values())
    assert digests == GOLDEN["overhead_faults"]


def test_non_decimal_rates_digests(tmp_path):
    sim = _non_decimal_sim(tmp_path)
    digests = _digests(sim, tmp_path / "out")
    rows = [r.split("\t") for r in sim.decision_rows[1:]]
    # guarantees were refused for headroom, and slice rows carry sevenths
    assert any(r[5] == "rejected" and r[6] == "GbrAdmissionFail" for r in rows)
    assert any("/7\t" in row or row.endswith("/7") for row in sim.slice_rows)
    assert digests == GOLDEN["non_decimal"]


def test_handover_terminations_digests(tmp_path):
    sim = _handover_terminations_sim(tmp_path)
    digests = _digests(sim, tmp_path / "out")
    handovers = {event.time for event in sim.engine.trace if event.kind == EventKind.HANDOVER_TRIGGER}
    rows = [r.split("\t") for r in sim.decision_rows[1:]]
    terminated = [r for r in rows if r[5] == "terminated"]
    # the run has no faults: every termination is a handover re-decision
    # that found no admissible path, and some handovers also moved flows
    assert terminated and all(int(r[0]) in handovers and r[6] == "GbrAdmissionFail" for r in terminated)
    assert any(r[16] == "1" and r[5] == "accepted" for r in rows)
    assert digests == GOLDEN["handover_terminations"]


def test_fault_redecisions_digests(tmp_path):
    sim = _fault_redecisions_sim(tmp_path)
    digests = _digests(sim, tmp_path / "out")
    faults = {e.time for e in sim.engine.trace if e.kind in (EventKind.LINK_STATE_CHANGE, EventKind.NODE_STATE_CHANGE)}
    rows = [r.split("\t") for r in sim.decision_rows[1:]]
    terminated = [r for r in rows if r[5] == "terminated"]
    # the run has no mobility: every termination is a fault re-decision that
    # found no admissible path, written once, with no rejected re-decision row
    assert terminated and all(int(r[0]) in faults and r[6] == "GbrAdmissionFail" for r in terminated)
    assert not any(r[16] == "1" and r[5] == "rejected" for r in rows)
    assert any(r[16] == "1" and r[5] == "accepted" and int(r[0]) in faults for r in rows)
    assert sum(sim.metrics.rejected.values()) == sum(r[5] == "rejected" for r in rows)
    assert digests == GOLDEN["fault_redecisions"]
