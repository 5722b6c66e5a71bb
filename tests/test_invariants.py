"""Every kept ledger equals its recount after every event, every slice
report row equals the oracle's, and every slice admission keeps the slice
within its entitlement (`invariants.py`), over the golden scenarios and
short builds of the benchmark workloads."""

import copy
import sys
from pathlib import Path

import pytest
import yaml

from fognet.scenario import load_scenario, parse_scenario
from fognet.simulation import Simulation
from invariants import check_after_every_event
from test_golden import SCENARIOS, _non_decimal_sim, _overhead_faults_sim, _two_fog_sim

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


BUILDS = {
    "two_cluster": lambda tmp: Simulation(load_scenario(SCENARIOS / "two_cluster.scn")),
    "isolation": lambda tmp: Simulation(load_scenario(SCENARIOS / "isolation.scn")),
    "two_operator": lambda tmp: Simulation(load_scenario(SCENARIOS / "two_operator.scn")),
    "two_fog": _two_fog_sim,
    "overhead_faults": lambda tmp: _overhead_faults_sim(),
    "non_decimal": _non_decimal_sim,
    "capped_split": _capped_split_sim,
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
