"""Checks on the benchmark itself: wrappers fire where expected, counts
repeat exactly, tracing changes no output byte, host times convert to
nominal speed, a failed check fails the command, and BENCHMARK.json
lists exactly the metrics the command prints.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from fognet import dataplane, engine, fogctrl, scenario, simulation  # noqa: E402
from fognet.engine import EventKind  # noqa: E402

import calib  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# Shortened runs that still reach each workload's distinctive layers
# (congested_scale's links congest about 5 s in).
SHORT_MS = {"cache_churn": 5_000, "congested_scale": 7_000, "faults_slicing": 100_000}

EVERYWHERE = {
    "scenario.parse_scenario",
    "workload.generate_workload",
    "simulation.Simulation.__init__",
    "dataplane.NetworkState.recompute",
    "dataplane.NetworkState.install_flow",
    "dataplane.NetworkState.remove_flow",
    "dataplane.constrained_route",
    "fogctrl.FogControl.handle_flow_request",
    "fogctrl.FogControl.physical_capacity",
    "slicing.SliceManager.compute_slice_allocations",
    "metrics.MetricsCollector.set_backhaul_rate",
    "metrics.MetricsCollector.tick_row",
}
EXERCISED = {
    "cache_churn": EVERYWHERE,
    "congested_scale": EVERYWHERE
    | {
        "topology.generate_clustered",
        "engine.recompute_fair_shares",
        "fogctrl.FogControl.slice_gbr_ok",
        "slicing.SliceManager.entitled",
        "cloudctrl.CloudControl.setup_external_path",
    },
    "faults_slicing": EVERYWHERE
    | {
        "topology.generate_clustered",
        "fogctrl.FogControl.slice_gbr_ok",
        "fogctrl.FogControl.scoring_utilization",
        "fogctrl.FogControl.handover",
        "fogctrl.FogControl.redecide_flow",
        "cloudctrl.CloudControl.setup_external_path",
        "cloudctrl.CloudControl.on_backhaul_change",
        "slicing.SliceManager.entitled",
    },
}


def short_sim(name: str) -> simulation.Simulation:
    doc = workloads.build(name, workloads.WORKLOADS[name].default_seed)
    doc["duration_ms"] = SHORT_MS[name]
    sim = simulation.Simulation(scenario.parse_scenario(doc, base_dir=str(workloads.DATA_DIR), name=name))
    sim.run()
    return sim


def traced_calls(name: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        short_sim(name)
    finally:
        tracer.uninstall()
    return {stat: s.calls for stat, s in tracer.stats.items()}


@pytest.fixture(scope="module")
def calls():
    return {name: traced_calls(name) for name in SHORT_MS}


@pytest.mark.parametrize("name", sorted(SHORT_MS))
def test_each_wrapper_fires_on_its_workload(calls, name):
    silent = sorted(stat for stat in EXERCISED[name] if calls[name][stat] == 0)
    assert silent == []


def test_allocator_bypassed_on_cache_churn(calls):
    assert calls["cache_churn"]["engine.recompute_fair_shares"] == 0
    assert calls["cache_churn"]["dataplane.NetworkState.recompute"] > 0


def test_handover_highest_on_faults_slicing(calls):
    handovers = {name: c["fogctrl.FogControl.handover"] for name, c in calls.items()}
    assert max(handovers, key=handovers.get) == "faults_slicing"


def test_counts_repeat_exactly(calls):
    assert traced_calls("congested_scale") == calls["congested_scale"]


def test_caller_names_are_wrapped_and_restored():
    originals = (dataplane.constrained_route, dataplane.recompute_fair_shares, fogctrl.FogControl.physical_capacity)
    tracer = Tracer()
    tracer.install()
    try:
        assert fogctrl.constrained_route is dataplane.constrained_route is not originals[0]
        assert dataplane.recompute_fair_shares is engine.recompute_fair_shares is not originals[1]
        assert fogctrl.FogControl.physical_capacity is not originals[2]
    finally:
        tracer.uninstall()
    assert fogctrl.constrained_route is dataplane.constrained_route is originals[0]
    assert dataplane.recompute_fair_shares is engine.recompute_fair_shares is originals[1]
    assert fogctrl.FogControl.physical_capacity is originals[2]


def test_tracing_changes_no_output_byte(tmp_path):
    untraced = rep.run_rep("faults_slicing", 1, str(tmp_path / "plain"))
    traced = rep.run_rep("faults_slicing", 1, str(tmp_path / "traced"), traced=True)
    assert traced["digests"] == untraced["digests"]
    assert traced["report_rc"] == untraced["report_rc"] == 0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        short_sim("cache_churn")
    finally:
        tracer.uninstall()
    for stat in tracer.stats.values():
        assert 0 <= stat.self_ns <= stat.total_ns
    decide = tracer.stats["fogctrl.FogControl.handle_flow_request"]
    assert decide.self_ns < decide.total_ns  # routing runs inside it


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    printed = run.per_layer_names([name for name, _, _ in TARGETS])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == printed
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.EVENT_KINDS) == [kind.value for kind in EventKind]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cache_churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_nominal_time_scales_by_the_bracketing_chunks():
    cal = calib.Calibrator()
    nominal = calib.NOMINAL_CHUNK_NS
    cal.ends, cal.chunks = [100, 200, 300], [nominal, 2 * nominal, 4 * nominal]
    assert cal.nominal_ns(100, 200) == pytest.approx(100 / 1.5)  # samples at 100 and 200
    assert cal.nominal_ns(210, 290) == pytest.approx(80 / 3)  # samples at 200 and 300
    assert cal.nominal_ns(150, 250) == pytest.approx(100 / (7 / 3))  # 100, 200 and 300
    assert cal.nominal_ns(310, 320) == pytest.approx(10 / 4)  # only the last sample precedes it


def test_failed_check_fails_the_command(tmp_path, monkeypatch, capsys):
    wrong = {"faults_slicing": {"1": {name: "0" * 64 for name in simulation.OUTPUT_FILES}}}
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(wrong))
    monkeypatch.setattr(run, "GOLDEN", golden)
    assert run.main(["--workload", "faults_slicing", "--seed", "1", "--seconds", "1"]) == 1
    out = capsys.readouterr()
    assert "digest differs from golden" in out.out
    assert "all 1 repetitions failed" in out.err
