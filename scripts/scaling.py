#!/usr/bin/env python3
"""How simulation speed scales with network size on the congested workload.

    python3 scripts/scaling.py [--clusters 8 16 32] [--seconds 10] [--seed 16] [--repeats 5]

Builds the benchmark's `congested_scale` scenario doc (from
`perfbench/workloads.py`, which is only imported) and re-sizes it: the
generated topology gets each cluster count in turn, and every arrival
rate is scaled by clusters / 16, as the workload itself scales them. The
run is cut to `--seconds` of simulated time. It times `Simulation.run()`
`--repeats` times per size, taking the sizes in turn on each repeat so
that host drift falls on every size alike, and prints each size's median
raw events/s (host time, not converted to nominal speed), and then the
drop in events/s from each size to the next.
"""

from __future__ import annotations

import argparse
import copy
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from fognet.scenario import parse_scenario  # noqa: E402
from fognet.simulation import Simulation  # noqa: E402

import workloads  # noqa: E402


def sized_doc(clusters: int, seconds: float, seed: int) -> dict:
    doc = copy.deepcopy(workloads.build("congested_scale", seed))
    generate = doc["topology"]["generate"]
    scale = clusters / generate["clusters"]
    generate["clusters"] = clusters
    for app in ("local_voip", "content_request", "external_web"):
        doc["workload"][app]["rate_per_s"] *= scale
    doc["duration_ms"] = int(seconds * 1000)
    return doc


def events_per_s(doc: dict) -> float:
    sim = Simulation(parse_scenario(copy.deepcopy(doc), base_dir=str(workloads.DATA_DIR), name="congested_scale"))
    start = time.perf_counter()
    sim.run()
    return len(sim.engine.trace) / (time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clusters", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--seconds", type=float, default=10.0, help="simulated seconds per run")
    parser.add_argument("--seed", type=int, default=workloads.WORKLOADS["congested_scale"].default_seed)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    docs = [sized_doc(clusters, args.seconds, args.seed) for clusters in args.clusters]
    samples = [[] for _ in docs]
    for _ in range(args.repeats):
        for doc, runs in zip(docs, samples):
            runs.append(events_per_s(doc))
    rates = [statistics.median(runs) for runs in samples]
    print(f"{'clusters':>8} {'events/s':>10}")
    for clusters, rate in zip(args.clusters, rates):
        print(f"{clusters:>8} {rate:>10.0f}")
    for (a, ra), (b, rb) in zip(zip(args.clusters, rates), zip(args.clusters[1:], rates[1:])):
        print(f"{a} -> {b} clusters: events/s fall x{ra / rb:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
