"""A cache-free twin run. Each build of `test_invariants.BUILDS`, and the
first 120 s of the `faults_slicing` benchmark workload at seeds 300 and
3003, runs twice: once as is, and once with the fog controls' kept
routing state switched off, so that `FogControl.segment` searches afresh
and `FogControl.user_template` builds afresh on every call. The six
OUTPUT_FILES must be byte-identical (McKeeman, "Differential Testing for
Software", 1998). This covers the state that carries across events: the
segment memo and the templates, kept across faults and checked on read."""

import copy
import sys
from pathlib import Path

import pytest

from fognet.dataplane import NoRoute, constrained_route
from fognet.fogctrl import FogControl
from fognet.scenario import parse_scenario
from fognet.simulation import OUTPUT_FILES, Simulation
from test_invariants import BUILDS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _faults_slicing(seed):
    def build(tmp_path):
        doc = copy.deepcopy(workloads.build("faults_slicing", seed))
        doc["duration_ms"] = 120_000
        return Simulation(parse_scenario(doc, base_dir=str(workloads.DATA_DIR), name="faults_slicing"))

    return build


RUNS = {**BUILDS, "faults_slicing:300": _faults_slicing(300), "faults_slicing:3003": _faults_slicing(3003)}


def fresh_segment(fog, start, end, via_backhaul):
    """`FogControl.segment` with no memo: a search over the fog's mesh
    (and backhaul) links on every call."""
    allowed = fog.domain.mesh | fog.domain.backhaul_ids if via_backhaul else fog.domain.mesh
    try:
        return tuple(constrained_route(fog.net, start, end, allowed))
    except NoRoute:
        return None


def _outputs(build, out_dir: Path) -> dict:
    out_dir.mkdir()
    sim = build(out_dir)
    sim.write_outputs(str(out_dir), sim.run())
    return {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_kept_state_changes_no_output_byte(name, tmp_path, monkeypatch):
    kept = _outputs(RUNS[name], tmp_path / "kept")
    user_template = FogControl.user_template

    def fresh_template(fog, ctx):
        fog._templates.clear()
        return user_template(fog, ctx)

    with monkeypatch.context() as patch:
        patch.setattr(FogControl, "segment", fresh_segment)
        patch.setattr(FogControl, "user_template", fresh_template)
        fresh = _outputs(RUNS[name], tmp_path / "fresh")
    assert kept.keys() == fresh.keys()
    for fname in OUTPUT_FILES:
        assert kept[fname] == fresh[fname], fname
    assert kept["decisions.log"].count(b"\n") > 1
