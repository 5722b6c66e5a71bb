#!/usr/bin/env python3
"""Paired A/B benchmark: a parent ref against the working tree.

    python3 scripts/bench_ab.py --base HEAD --pairs 10 \
        --run congested_scale:16 --run congested_scale:1616 [--run cache_churn:606:5] \
        [--seconds 40] [--trace 0|1] --out BENCH_n.json

Both sides run from fresh copies in one temporary directory, so neither
carries the other's build or run leftovers: the parent's committed files
are exported with `git archive` (no worktree is registered in `.git`),
and the working tree's files as they are on disk, tracked or untracked
but not ignored (`git ls-files -co --exclude-standard`).
`perfbench/run.py` runs alternately in the two copies,
`--pairs` times per `--run` workload:seed (or the pairs a run names in a
third field), swapping which side goes
first on every pair so that host drift falls on both alike. Each run is
a fresh `perfbench/run.py` process with the same `--seconds` budget.

The output JSON holds, per run and metric, each side's per-run values,
median and quartiles, the change's wins (pairs where it is better in the
direction `BENCHMARK.json` gives, ties counting for neither), and
whether the medians differ by more than the parent's interquartile
range. A run that does not report `"correct": true` is kept in the file
and counted in `failed`, and its metrics go into no statistic.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def export_ref(ref: str, dest: Path) -> str:
    """Extract the committed files of `ref` into `dest`; return its commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_worktree(root: Path, dest: Path) -> int:
    """Copy the files of the working tree at `root` into `dest` as they are
    on disk: tracked ones and untracked ones that are not ignored. A tracked
    file deleted on disk is left out. Returns the number copied."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=root, check=True, capture_output=True
    ).stdout.decode()
    copied = 0
    for name in set(filter(None, listed.split("\0"))):  # a conflicted file is listed per stage
        source = root / name
        if not source.is_file():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
        copied += 1
    return copied


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `tree`; its result line, or a failure record."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    started = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        result = {"correct": False, "metrics": {}, "error": (proc.stderr or proc.stdout)[-2000:]}
    result["returncode"] = proc.returncode
    result["started"] = started
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: List[Dict[str, dict]], better: Dict[str, str]) -> Dict[str, dict]:
    """Per-metric statistics over the pairs where both sides were correct."""
    good = [p for p in pairs if p["base"].get("correct") and p["change"].get("correct")]
    out: Dict[str, dict] = {}
    if not good:
        return out
    for metric in good[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][metric]["value"] for p in good]
        change = [p["change"]["metrics"][metric]["value"] for p in good]
        direction = better.get(metric, "lower")
        wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(base, change))
        losses = sum((c < b) if direction == "higher" else (c > b) for b, c in zip(base, change))
        b_stats, c_stats = quartiles(base), quartiles(change)
        out[metric] = {
            "better": direction,
            "unit": good[0]["base"]["metrics"][metric]["unit"],
            "base": {**b_stats, "values": base},
            "change": {**c_stats, "values": change},
            "ratio_of_medians": c_stats["median"] / b_stats["median"] if b_stats["median"] else None,
            "wins": wins,
            "losses": losses,
            "pairs": len(good),
            "median_gap_exceeds_base_iqr": abs(c_stats["median"] - b_stats["median"]) > b_stats["q3"] - b_stats["q1"],
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="parent git ref (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED[:PAIRS]")
    parser.add_argument("--seconds", type=float, default=40.0, help="perfbench/run.py budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="result JSON; name a new file, as it is overwritten")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = []
    for item in args.run:
        workload, sep, rest = item.partition(":")
        seed, _, pairs = rest.partition(":")
        if not sep or not seed.isdigit() or not (pairs or "1").isdigit() or pairs == "0":
            parser.error(f"--run {item!r}: expected WORKLOAD:SEED or WORKLOAD:SEED:PAIRS")
        runs.append((workload, int(seed), int(pairs) if pairs else args.pairs))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout)

    report = {
        "base": {"ref": args.base},
        "change": {
            "tree": "working tree, copied: git ls-files -co --exclude-standard",
            "head": head,
            "uncommitted_changes": dirty,
        },
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"python": sys.version.split()[0], "platform": sys.platform},
        "runs": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        base_tree, change_tree = Path(tmp) / "base", Path(tmp) / "change"
        report["base"]["commit"] = export_ref(args.base, base_tree)
        report["change"]["files"] = export_worktree(ROOT, change_tree)
        for workload, seed, count in runs:
            pairs: List[Dict[str, dict]] = []
            for i in range(count):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    tree = base_tree if side == "base" else change_tree
                    pair[side] = run_bench(tree, workload, seed, args.seconds, args.trace)
                pairs.append(pair)
                rates = {side: pair[side]["metrics"].get("events_per_s", {}).get("value") for side in order}
                print(f"{workload}:{seed} pair {i + 1}/{count}: events_per_s {rates}", flush=True)
            report["runs"][f"{workload}:{seed}"] = {
                "failed": {side: sum(1 for p in pairs if not p[side].get("correct")) for side in ("base", "change")},
                "metrics": summarize(pairs, better),
                "pairs": pairs,
            }
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
