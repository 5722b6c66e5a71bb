"""The scripts under `scripts/` run to completion: each is started as its
own process, as a user would run it, and must exit 0 with some output.
They call the simulator's public API (`slicing_diversion.py` builds a
`SliceManager` directly), so an API change that misses them fails here.
`bench_ab.py` runs benchmarks for many minutes, so only its working-tree
export is tested, in a scratch repository."""

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


def test_bench_ab_exports_working_tree_files(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
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
