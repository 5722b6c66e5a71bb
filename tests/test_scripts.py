"""The scripts under `scripts/` run to completion: each is started as its
own process, as a user would run it, and must exit 0 with some output.
They call the simulator's public API (`slicing_diversion.py` builds a
`SliceManager` directly), so an API change that misses them fails here.
`bench_ab.py` runs benchmarks for many minutes, so only its working-tree
export, in a scratch repository, and its statistics and summary, over
synthetic pairs, are tested."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "slicing_diversion": [],
    "isolation_timeline": [],
    "cache_effect": [],
    "scaling": ["--clusters", "2", "4", "--seconds", "1", "--repeats", "1"],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_exits_zero(name):
    cmd = [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *SCRIPTS[name]]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{name} printed nothing"


def load_bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    return bench_ab


def test_bench_ab_exports_working_tree_files(tmp_path):
    bench_ab = load_bench_ab()
    repo = tmp_path / "repo"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / ".perfbench").mkdir()
    (repo / ".gitignore").write_text(".perfbench/\n__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("old\n")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", ".gitignore", "pkg/mod.py"], cwd=repo, check=True)
    (repo / "pkg" / "mod.py").write_text("modified\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"\0")
    (repo / ".perfbench" / "rep.json").write_text("{}")

    dest = tmp_path / "copy"
    assert bench_ab.export_worktree(repo, dest) == 3
    assert (dest / "pkg" / "mod.py").read_text() == "modified\n"
    assert (dest / "pkg" / "new.py").read_text() == "untracked\n"
    assert (dest / ".gitignore").is_file()
    assert not (dest / ".perfbench").exists() and not (dest / "pkg" / "__pycache__").exists()


def test_bench_ab_summary_lines_from_synthetic_pairs():
    """The summary prints, per run and end-to-end metric, the ratio of
    medians, the wins and the IQR verdict that `summarize` computed; a
    pair with an incorrect side counts in no statistic."""
    bench_ab = load_bench_ab()

    def side(rate, p50, correct=True):
        metrics = {"events_per_s": {"value": rate, "unit": "1/s"}, "arrival_us_p50": {"value": p50, "unit": "us"}}
        return {"correct": correct, "metrics": metrics}

    values = [(100, 110, 30, 30), (102, 111, 31, 29), (98, 109, 30, 31), (101, 99, 29, 30)]
    pairs = [{"base": side(b, bp), "change": side(c, cp)} for b, c, bp, cp in values]
    pairs.append({"base": side(1, 1), "change": side(10**6, 1, correct=False)})
    stats = bench_ab.summarize(pairs, {"events_per_s": "higher", "arrival_us_p50": "lower"})
    rate = stats["events_per_s"]
    assert (rate["base"]["median"], rate["change"]["median"], rate["wins"], rate["pairs"]) == (100.5, 109.5, 3, 4)
    runs = {"cache_churn:606": {"failed": {"base": 0, "change": 1}, "metrics": stats}}
    lines = bench_ab.summary_lines(runs, ["setup_s", "events_per_s", "arrival_us_p50"])
    assert lines == [
        "cache_churn:606 events_per_s: change/parent x1.090 (100.5 -> 109.5 1/s, higher is better),"
        " wins 3/4, gap > parent IQR: yes",
        "cache_churn:606 arrival_us_p50: change/parent x1.000 (30 -> 30 us, lower is better),"
        " wins 1/4, gap > parent IQR: no",
    ]
