"""A cache-free twin run. Each build of `test_invariants.BUILDS`, the
first 120 s of the `faults_slicing` benchmark workload at seeds 300 and
3003, and the whole `congested_scale` workload at seeds 16 and 1616,
runs twice: once as is, and once with the kept state switched off, so
that `FogControl.segment` searches afresh (bypassing the segment memo and
the per-end distance maps), `FogControl.access_options` and
`FogControl.fixed_candidates` find nothing kept on any call, and
`NetworkState.recompute` runs a full max-min solve over a fresh solver
index on every call while some link is congested, as
`helpers.fresh_solve` does. The six OUTPUT_FILES must be byte-identical
(McKeeman, "Differential Testing for Software", 1998). This covers the
state that carries across events: the segment memo, the distance maps,
the access options and the finished candidates, kept across faults and
checked on read, and the solver index with its levels, kept across the
recomputes whose changes reach no contended link."""

import copy
import sys
from pathlib import Path

import pytest

from fognet.dataplane import NetworkState, NoRoute, constrained_route
from fognet.fogctrl import FogControl
from fognet.scenario import parse_scenario
from fognet.simulation import OUTPUT_FILES, Simulation
from test_invariants import BUILDS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _workload(name, seed, duration_ms=None):
    def build(tmp_path):
        doc = copy.deepcopy(workloads.build(name, seed))
        if duration_ms is not None:
            doc["duration_ms"] = duration_ms
        return Simulation(parse_scenario(doc, base_dir=str(workloads.DATA_DIR), name=name))

    return build


RUNS = {
    **BUILDS,
    "faults_slicing:300": _workload("faults_slicing", 300, 120_000),
    "faults_slicing:3003": _workload("faults_slicing", 3003, 120_000),
    "congested_scale:16": _workload("congested_scale", 16),
    "congested_scale:1616": _workload("congested_scale", 1616),
}


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
    access_options, fixed_candidates = FogControl.access_options, FogControl.fixed_candidates

    def fresh_options(fog, sub):
        fog._access.clear()
        return access_options(fog, sub)

    def fresh_fixed(fog, *args):
        for kept in fog._cands:
            kept.clear()
        return fixed_candidates(fog, *args)

    recompute = NetworkState.recompute

    def fresh_recompute(net):
        if net._congested:
            net._fair = None
        recompute(net)

    with monkeypatch.context() as patch:
        patch.setattr(FogControl, "segment", fresh_segment)
        patch.setattr(FogControl, "access_options", fresh_options)
        patch.setattr(FogControl, "fixed_candidates", fresh_fixed)
        patch.setattr(NetworkState, "recompute", fresh_recompute)
        fresh = _outputs(RUNS[name], tmp_path / "fresh")
    assert kept.keys() == fresh.keys()
    for fname in OUTPUT_FILES:
        assert kept[fname] == fresh[fname], fname
    assert kept["decisions.log"].count(b"\n") > 1
