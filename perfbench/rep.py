"""One benchmark repetition, run in a process of its own.

Sets the workload up (timing each set-up), runs the last simulation
once with a terminal per-event stamp handler, writes the six output
files (timing each write), then checks them: SHA-256 digests and
`fognet report`. Untraced, set-ups repeat until they have taken SETUP_S
seconds and writes until WRITE_S seconds (each between MIN_REPEATS and
MAX_REPEATS times). With `--trace 1` each happens once, and the layer
wrappers are installed before the set-up. Every time is converted to
the host's nominal speed with `calib.Calibrator`, from reference chunks
timed before and after each step and during the run. Prints one JSON
object on stdout.

    python3 perfbench/rep.py --workload cache_churn --seed 606 --out .perfbench/rep
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fognet import cli, scenario, simulation  # noqa: E402
from fognet.engine import EventKind  # noqa: E402

import workloads  # noqa: E402
from calib import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402


def digests(out_dir: str) -> Dict[str, str]:
    out = {}
    for name in simulation.OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# Host time spent on repeated set-ups and on repeated writes per untraced
# repetition. Both take milliseconds, so they repeat for a steady median.
SETUP_S = 1.0
WRITE_S = 4.0
MIN_REPEATS = 3
MAX_REPEATS = 400


def repeats(spans: List[Tuple[int, int]], budget_s: float) -> bool:
    """Whether a timed step, done at the (start, end) `spans`, should run
    again under a `budget_s` budget."""
    if not spans:
        return True
    if budget_s <= 0 or len(spans) >= MAX_REPEATS:
        return False
    return len(spans) < MIN_REPEATS or sum(end - start for start, end in spans) < budget_s * 1e9


def run_rep(
    workload: str,
    seed: int,
    out_dir: str,
    *,
    traced: bool = False,
    chrome_path: Optional[str] = None,
) -> dict:
    doc = workloads.build(workload, seed)
    setup_s, write_s = (0.0, 0.0) if traced else (SETUP_S, WRITE_S)
    cal = Calibrator()
    tracer = Tracer(keep_spans=chrome_path is not None) if traced else None
    if tracer is not None:
        tracer.install()
    try:
        # Raw (start, end) stamps; converted once the closing sample is in.
        setups: List[Tuple[int, int]] = []
        sim = None
        while repeats(setups, setup_s):
            sim = None
            gc.collect()
            fresh = copy.deepcopy(doc)
            if cal.due(perf_counter_ns()):
                cal.sample()
            start = perf_counter_ns()
            config = scenario.parse_scenario(fresh, base_dir=str(workloads.DATA_DIR), name=workload)
            sim = simulation.Simulation(config)
            setups.append((start, perf_counter_ns()))

        # Registered after the simulator's own handlers, so it runs last
        # for every event: an event's host time runs from the previous
        # event's resume stamp to its own end stamp. A calibration chunk,
        # when due, runs between the two stamps, outside every event.
        ends: List[int] = []
        resumes: List[int] = []

        def stamp(_event, _now=perf_counter_ns):
            now = _now()
            ends.append(now)
            resumes.append(cal.sample() if cal.due(now) else now)

        for kind in EventKind:
            sim.engine.on(kind, stamp)
        cal.sample()
        start = perf_counter_ns()
        record = sim.run()
        cal.sample()

        trace = sim.engine.trace
        if len(ends) != len(trace):
            raise RuntimeError(f"stamp handler fired {len(ends)} times for {len(trace)} events")
        event_ns: Dict[str, List[float]] = {kind.value: [] for kind in EventKind}
        event_spans = []
        prev = start
        for i, (event, end, resume) in enumerate(zip(trace, ends, resumes)):
            event_ns[event.kind.value].append(cal.nominal_ns(prev, end))
            if chrome_path:
                event_spans.append((f"event.{event.kind.value}", prev, end - prev, i))
            prev = resume

        # Every repeat after the first writes new files and deletes them
        # untimed: rewriting the same files would wait on their writeback.
        writes: List[Tuple[int, int]] = []
        while repeats(writes, write_s):
            target = out_dir if not writes else f"{out_dir}.again"
            if cal.due(perf_counter_ns()):
                cal.sample()
            start = perf_counter_ns()
            sim.write_outputs(target, record)
            writes.append((start, perf_counter_ns()))
            if target != out_dir:
                shutil.rmtree(target)
        cal.sample()
        with contextlib.redirect_stdout(io.StringIO()):
            report_rc = cli.main(["report", out_dir])

        result = {
            "setup_ns": [cal.nominal_ns(start, end) for start, end in setups],
            "run_ns": sum(ns for samples in event_ns.values() for ns in samples),
            "events": len(trace),
            "event_ns": event_ns,
            "write_ns": [cal.nominal_ns(start, end) for start, end in writes],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "digests": digests(out_dir),
            "report_rc": report_rc,
        }
        if tracer is not None:
            result["layers"] = tracer.summary(cal.factor())
            if chrome_path:
                meta = {"workload": workload, "seed": seed, "events": len(trace)}
                tracer.write_chrome_trace(chrome_path, event_spans, meta)
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the six output files")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome", default=None, help="write the traced spans here (Chrome Trace JSON)")
    args = parser.parse_args(argv)
    result = run_rep(args.workload, args.seed, args.out, traced=bool(args.trace), chrome_path=args.chrome)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
