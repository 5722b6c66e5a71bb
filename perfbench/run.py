"""fognet benchmark: run one workload for a host-time budget, check it, report metrics.

    python3 perfbench/run.py --workload cache_churn [--seed N] [--seconds 40] [--trace 0|1]

Each repetition is a fresh single-threaded process (`rep.py`) that sets
the workload up, runs it, writes the six output files and checks them.
Repetitions run one after another until the next one would overrun
`--seconds`. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones (tracing off); with `--trace 1` they are
the per-layer ones from the traced repetitions. Metrics come only from
repetitions that pass every check; any failed repetition makes the exit
code 1. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

RUN_LIMIT_S = 170  # a whole run stays under this, repetitions included
P99_MIN_SAMPLES = 1000  # the end-to-end p99 needs at least 10 samples beyond it

EVENT_KINDS = (
    "FlowArrival",
    "FlowDeparture",
    "LinkStateChange",
    "NodeStateChange",
    "HandoverTrigger",
    "MetricsTick",
    "ControlMessage",
)

END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("arrival_us_p50", "us"),
    ("event_us_p99", "us"),
    ("write_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names(stats: List[str]) -> List[Tuple[str, str]]:
    """Every per-layer metric, in print order, with its unit."""
    out = []
    for name in stats:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("engine.recompute_fair_shares.us_p99", "us"),
        ("engine.recompute_fair_shares.flows_mean", "flows"),
        ("dataplane.recompute.fast_share", "share"),
        ("dataplane.constrained_route.noroute_share", "share"),
        ("fogctrl.FogControl.handle_flow_request.us_p50", "us"),
        ("fogctrl.FogControl.handle_flow_request.us_p99", "us"),
        ("fogctrl.routes_per_decision", "routes/decision"),
    ]
    for kind in EVENT_KINDS:
        out += [(f"event.{kind}.count", "count"), (f"event.{kind}.us_p50", "us"), (f"event.{kind}.us_p99", "us")]
    out.append(("trace.events_per_s", "1/s"))
    return out


def p50(values: List[float]) -> float:
    """The median, or 0 when there are no samples (the count reads 0 too)."""
    return statistics.median(values) if values else 0.0


def p99(values: List[float]) -> float:
    """The nearest-rank 99th percentile (the maximum below 100 samples),
    or 0 when there are no samples (the count reads 0 too)."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(0.99 * len(values)) - 1]


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    event_us = [ns / 1000 for r in reps for samples in r["event_ns"].values() for ns in samples]
    if len(event_us) < P99_MIN_SAMPLES:
        raise RuntimeError(f"{len(event_us)} events measured; p99 needs {P99_MIN_SAMPLES}")
    return {
        "setup_s": statistics.median(ns for r in reps for ns in r["setup_ns"]) / 1e9,
        "events_per_s": statistics.median(r["events"] / (r["run_ns"] / 1e9) for r in reps),
        "arrival_us_p50": statistics.median(ns / 1000 for r in reps for ns in r["event_ns"]["FlowArrival"]),
        "event_us_p99": statistics.quantiles(event_us, n=100)[98],
        "write_s": statistics.median(ns for r in reps for ns in r["write_ns"]) / 1e9,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
    }


def per_layer(reps: List[dict]) -> Dict[str, float]:
    """Counts and percentiles come from the first repetition, so their
    sample counts depend only on (workload, seed); self times are medians
    over repetitions."""
    layers = [r["layers"] for r in reps]
    first = layers[0]
    out: Dict[str, float] = {}
    for name, stat in first.items():
        out[f"{name}.calls"] = stat["calls"]
        out[f"{name}.self_s"] = statistics.median(lay[name]["self_ns"] for lay in layers) / 1e9

    def durations_us(name: str) -> List[float]:
        return [ns / 1000 for ns in first[name]["durations_ns"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fair = first["engine.recompute_fair_shares"]
    recompute = first["dataplane.NetworkState.recompute"]
    route = first["dataplane.constrained_route"]
    decide = first["fogctrl.FogControl.handle_flow_request"]
    out["engine.recompute_fair_shares.us_p99"] = p99(durations_us("engine.recompute_fair_shares"))
    out["engine.recompute_fair_shares.flows_mean"] = ratio(fair["size_sum"], fair["calls"])
    out["dataplane.recompute.fast_share"] = 1 - ratio(fair["calls"], recompute["calls"])
    out["dataplane.constrained_route.noroute_share"] = ratio(route["raised"], route["calls"])
    out["fogctrl.FogControl.handle_flow_request.us_p50"] = p50(durations_us("fogctrl.FogControl.handle_flow_request"))
    out["fogctrl.FogControl.handle_flow_request.us_p99"] = p99(durations_us("fogctrl.FogControl.handle_flow_request"))
    out["fogctrl.routes_per_decision"] = ratio(route["calls"], decide["calls"])
    for kind in EVENT_KINDS:
        samples = [ns / 1000 for ns in reps[0]["event_ns"][kind]]
        out[f"event.{kind}.count"] = len(samples)
        out[f"event.{kind}.us_p50"] = p50(samples)
        out[f"event.{kind}.us_p99"] = p99(samples)
    out["trace.events_per_s"] = statistics.median(r["events"] / (r["run_ns"] / 1e9) for r in reps)
    return out


def check(rep: dict, expected: Optional[dict], first: Optional[dict]) -> List[str]:
    """Why this repetition's outputs are wrong; empty when they are right."""
    problems = []
    if rep["report_rc"] != 0:
        problems.append(f"fognet report exited {rep['report_rc']}")
    if expected is not None:
        problems += [f"{f} digest differs from golden" for f in expected if rep["digests"].get(f) != expected[f]]
    if first is not None:
        problems += [f"{f} differs between repetitions" for f in first["digests"] if rep["digests"][f] != first["digests"][f]]
        if "layers" in rep:
            problems += [
                f"{name}.calls differs between repetitions"
                for name, stat in first["layers"].items()
                if rep["layers"][name]["calls"] != stat["calls"]
            ]
    return problems


def run_one(cmd: List[str], timeout: float) -> Tuple[Optional[dict], str]:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fognet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="host-time budget for repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fognet" / "simulation.py").is_file():
        print(f"error: fognet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    name = args.workload
    seed = workloads.WORKLOADS[name].default_seed if args.seed is None else args.seed
    expected = json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))

    WORK_DIR.mkdir(exist_ok=True)
    chrome = WORK_DIR / f"trace-{name}-{seed}.json"
    reps: List[dict] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        out = WORK_DIR / f"out-{name}-{seed}-{attempted}"
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", name, "--seed", str(seed), "--out", str(out)]
        if args.trace:
            cmd += ["--trace", "1"] + (["--chrome", str(chrome)] if attempted == 0 else [])
        started = time.perf_counter()
        rep, error = run_one(cmd, timeout=max(1.0, RUN_LIMIT_S - (started - t0)))
        shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.perf_counter() - started)
        attempted += 1
        problems = check(rep, expected, reps[0] if reps else None) if rep else [error]
        if problems:
            failed += 1
            print(f"repetition {attempted} failed: {'; '.join(problems)}")
        else:
            reps.append(rep)
        elapsed = time.perf_counter() - t0
        if elapsed + longest > min(args.seconds, RUN_LIMIT_S):
            break

    if not reps:
        print(f"error: all {attempted} repetitions failed", file=sys.stderr)
        return 1
    golden_note = "checked against golden digests" if expected else "no golden digests for this seed"
    print(
        f"workload {name} seed {seed}: {attempted} repetitions ({failed} failed) in "
        f"{time.perf_counter() - t0:.1f} s host time, {reps[0]['events']} events each; {golden_note}"
    )
    if args.trace:
        values = per_layer(reps)
        units = per_layer_names(list(reps[0]["layers"]))
        print(f"timeline: {chrome}")
    else:
        values = end_to_end(reps)
        units = END_TO_END
        samples = sum(len(s) for r in reps for s in r["event_ns"].values())
        setups = sum(len(r["setup_ns"]) for r in reps)
        writes = sum(len(r["write_ns"]) for r in reps)
        print(f"samples: {samples} events, {setups} set-ups, {writes} writes")
    metrics = {}
    for metric, unit in units:
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"  {metric:52s} {values[metric]:>16.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
