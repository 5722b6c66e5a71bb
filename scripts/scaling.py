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
events/s, and then the drop in events/s from each size to the next.

Every time is at nominal speed, so that two trees or two sessions can be
compared: `perfbench/calib.py`'s `Calibrator` (imported unchanged) times
its reference chunk five times before and five times after each run, and
between events at most every 100 ms, and the run's host time (less the
chunks) and its solves' host times are scaled by its `factor()`, the
nominal chunk time over the median of those chunk times. A run of about
0.1 s sees only a few chunks between its events, and one chunk time can
be 10% off the next, so the median over at least ten is used.

It also separates the workload's share of that drop from the max-min
solver's. Per size it prints the solves per event and the mean µs per
solve (the median over repeats of each run's solve time over its solves,
timed around each `recompute_fair_shares` call), and, from one more
untimed run, the median per solve of the links with rising flows, of the
contended links (the congested links the solve is handed), of the
flow-link incidences (each rising flow's links, summed) and of the rate
classes the solve runs over, each read from the index the solve leaves.
From that run it also prints, per event, the recomputes that ran no
solve (`NetworkState.recompute` calls less solves: those while no link
is congested, and those whose changes since the last solve reached no
congested link) and the BFS distance maps the fog controls built for
their route memos (`fogctrl.route_distances` calls), each counted by a
wrapper installed here. A size that makes no solve (its network never
congests within `--seconds`) prints `-` in place of the µs per solve
and of the per-solve medians, since there is nothing to measure.
"""

from __future__ import annotations

import argparse
import copy
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from fognet import dataplane, fogctrl  # noqa: E402
from fognet.engine import EventKind  # noqa: E402
from fognet.scenario import parse_scenario  # noqa: E402
from fognet.simulation import Simulation  # noqa: E402

import workloads  # noqa: E402
from calib import Calibrator  # noqa: E402


def sized_doc(clusters: int, seconds: float, seed: int) -> dict:
    doc = copy.deepcopy(workloads.build("congested_scale", seed))
    generate = doc["topology"]["generate"]
    scale = clusters / generate["clusters"]
    generate["clusters"] = clusters
    for app in ("local_voip", "content_request", "external_web"):
        doc["workload"][app]["rate_per_s"] *= scale
    doc["duration_ms"] = int(seconds * 1000)
    return doc


def run_with(doc: dict, on_solve) -> tuple:
    """Run the doc with `on_solve(solve, index, capacity, contended)`
    standing in for each solve. Returns its events, its host ns less the
    reference chunks timed between its events, and its nominal ns per
    host ns."""
    sim = Simulation(parse_scenario(copy.deepcopy(doc), base_dir=str(workloads.DATA_DIR), name="congested_scale"))
    cal = Calibrator()
    paused = [0]  # host ns spent on chunks during the run

    def stamp(_event) -> None:  # registered last, so it runs after each event's handlers
        now = perf_counter_ns()
        if cal.due(now):
            paused[0] += cal.sample() - now

    for kind in EventKind:
        sim.engine.on(kind, stamp)
    solve = dataplane.recompute_fair_shares
    dataplane.recompute_fair_shares = lambda *args: on_solve(solve, *args)
    try:
        for _ in range(5):
            cal.sample()
        start = perf_counter_ns()
        sim.run()
        host_ns = perf_counter_ns() - start - paused[0]
        for _ in range(5):
            cal.sample()
    finally:
        dataplane.recompute_fair_shares = solve
    return len(sim.engine.trace), host_ns, cal.factor()


def timed(doc: dict) -> tuple:
    """(events/s, solves per event, mean µs per solve or None) of one run,
    at nominal speed."""
    spent = []  # host ns of each solve

    def on_solve(solve, index, capacity, contended):
        start = perf_counter_ns()
        alloc = solve(index, capacity, contended)
        spent.append(perf_counter_ns() - start)
        return alloc

    events, host_ns, factor = run_with(doc, on_solve)
    return (
        events * 1e9 / (host_ns * factor),
        len(spent) / events,
        sum(spent) * factor / 1e3 / len(spent) if spent else None,
    )


def solve_sizes(doc: dict) -> tuple:
    """Median per solve of (links with rising flows, contended links,
    flow-link incidences, rate classes), read from the contended links
    each solve is handed and from the index it leaves, whose every rising
    flow is then in a class; each None when the run makes no solve. Then,
    per event, the recomputes that ran no solve and the BFS distance maps
    built."""
    sizes = links, contended_links, incidences, classes = [], [], [], []
    calls = {"recompute": 0, "maps": 0}

    def on_solve(solve, index, capacity, contended):
        solve(index, capacity, contended)
        links.append(len(index.on_link))
        contended_links.append(len(contended))
        incidences.append(sum(sum(on.values()) for on in index.on_link.values()))
        classes.append(len(index.classes))

    recompute, route_distances = dataplane.NetworkState.recompute, fogctrl.route_distances

    def counted_recompute(net):
        calls["recompute"] += 1
        recompute(net)

    def counted_distances(*args):
        calls["maps"] += 1
        return route_distances(*args)

    dataplane.NetworkState.recompute, fogctrl.route_distances = counted_recompute, counted_distances
    try:
        events, _, _ = run_with(doc, on_solve)
    finally:
        dataplane.NetworkState.recompute, fogctrl.route_distances = recompute, route_distances
    medians = tuple(statistics.median(counts) if counts else None for counts in sizes)
    return (*medians, (calls["recompute"] - len(classes)) / events, calls["maps"] / events)


def cell(value, width: int, spec: str) -> str:
    """`value` right-aligned in `width`, or `-` where there was no solve."""
    return f"{'-' if value is None else format(value, spec):>{width}}"


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
            runs.append(timed(doc))
    print(
        f"{'clusters':>8} {'events/s':>10} {'solves/event':>12} {'us/solve':>9}"
        f" {'rising links':>12} {'contended':>9} {'incidences':>10} {'classes/solve':>13}"
        f" {'no-solve/event':>14} {'maps/event':>10}"
    )
    rates = []
    for clusters, doc, runs in zip(args.clusters, docs, samples):
        rate = statistics.median(r for r, _, _ in runs)
        per_event = statistics.median(n for _, n, _ in runs)
        solved = [us for _, _, us in runs if us is not None]
        us = statistics.median(solved) if solved else None
        rates.append(rate)
        links, contended, incidences, classes, unsolved, maps = solve_sizes(doc)
        print(
            f"{clusters:>8} {rate:>10.0f} {per_event:>12.2f} {cell(us, 9, '.0f')}"
            f" {cell(links, 12, 'g')} {cell(contended, 9, 'g')} {cell(incidences, 10, 'g')}"
            f" {cell(classes, 13, 'g')} {unsolved:>14.2f} {maps:>10.3f}"
        )
    for (a, ra), (b, rb) in zip(zip(args.clusters, rates), zip(args.clusters[1:], rates[1:])):
        print(f"{a} -> {b} clusters: events/s fall x{ra / rb:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
