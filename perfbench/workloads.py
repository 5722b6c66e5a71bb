"""The benchmark's workloads: each builds one scenario doc from a seed.

The simulator sees only the doc returned by `build`; everything it does
is a function of that doc. Topologies are fixed per workload (a bundled
file or a generator seed of its own), so the seed varies traffic, faults
and mobility but not the network they run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

DATA_DIR = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    held_out_seed: int
    doc: Callable[[int], dict]


def _cache_churn(seed: int) -> dict:
    # Acceptance 06's cache-on scenario: 200 content requests/s, 0.2 s
    # holding, cache of 10 over a catalog of 100. No link congests.
    return {
        "duration_ms": 60_000,
        "seed": seed,
        "metrics_tick_ms": 30_000,
        "topology": {"file": "two_cluster.topo.yaml"},
        "fogs": {"fog1": {"cache": True, "cache_capacity": 10}},
        "workload": {
            "local_voip": {"rate_per_s": 0.0, "demand_mbps": 0.1, "holding_mean_s": 1},
            "content_request": {"rate_per_s": 200.0, "demand_mbps": 0.5, "holding_mean_s": 0.2},
            "external_web": {"rate_per_s": 0.0, "demand_mbps": 1.0, "holding_mean_s": 1},
            "content": {"catalog_size": 100, "zipf_exponent": 1.0},
        },
    }


CONGESTED_CLUSTERS = 16


def _congested_scale(seed: int) -> dict:
    # Offered load grows with the cluster count; at 16 clusters the
    # backhaul and middle-mile links congest within a few seconds and
    # stay congested, so every change re-runs the global max-min solve.
    c = CONGESTED_CLUSTERS
    return {
        "duration_ms": 25_000,
        "seed": seed,
        "metrics_tick_ms": 1_000,
        "topology": {"generate": {"clusters": c, "users_min": 4, "users_max": 8, "seed": 16}},
        "workload": {
            "local_voip": {"rate_per_s": 1.0 * c, "demand_mbps": 0.1, "holding_mean_s": 10},
            "content_request": {"rate_per_s": 0.8 * c, "demand_mbps": 2.0, "holding_mean_s": 5},
            "external_web": {"rate_per_s": 0.6 * c, "demand_mbps": 1.0, "holding_mean_s": 10},
            "content": {"catalog_size": 50, "zipf_exponent": 1.0},
        },
    }


def _faults_slicing(seed: int) -> dict:
    # Two operators 60/40, backhaul outages, cluster power failures and
    # mobile users: topology changes force re-decisions, handovers and
    # slice-report rows while the allocator stays mostly on its fast path.
    # 900 s gives about 10k events, so the event p99 rests on about 100
    # rare topology-change events per run rather than 33.
    return {
        "duration_ms": 900_000,
        "seed": seed,
        "metrics_tick_ms": 5_000,
        "topology": {"generate": {"clusters": 8, "users_min": 6, "users_max": 6, "seed": 7}},
        "slices": [
            {"id": "op-a", "operator": "alpha", "shares": 0.6},
            {"id": "op-b", "operator": "beta", "shares": 0.4},
        ],
        "workload": {
            "local_voip": {"rate_per_s": 2.0, "demand_mbps": 0.1, "holding_mean_s": 10},
            "content_request": {"rate_per_s": 1.5, "demand_mbps": 1.0, "holding_mean_s": 5},
            "external_web": {"rate_per_s": 1.5, "demand_mbps": 1.0, "holding_mean_s": 5},
            "content": {"catalog_size": 30, "zipf_exponent": 1.0},
            "mobility": {"mobile_fraction": 0.5, "relocation_rate_per_s": 0.02},
        },
        "faults": {
            "backhaul_random": {"mean_up_s": 15, "mean_down_s": 5},
            "cluster_power": {"mean_up_s": 60, "mean_down_s": 10},
        },
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cache_churn",
            "acceptance-06 shape: no link congests, so per-event fixed costs (fast-path recompute, routing) dominate",
            606,
            6061,
            _cache_churn,
        ),
        Workload(
            "congested_scale",
            "16 clusters with congested backhaul and mesh plus GBR VoIP: loads the max-min re-solve and slice GBR recounts",
            16,
            1616,
            _congested_scale,
        ),
        Workload(
            "faults_slicing",
            "60/40 slices, outages, power failures and mobility: loads re-decisions, handovers and slice rows, allocator idle",
            300,
            3003,
            _faults_slicing,
        ),
    )
}


def build(name: str, seed: int) -> dict:
    """The scenario doc for workload `name` at `seed` (topology paths relative to DATA_DIR)."""
    return WORKLOADS[name].doc(seed)
