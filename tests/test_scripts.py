"""The scripts under `scripts/` run to completion: each is started as its
own process, as a user would run it, and must exit 0 with some output.
They call the simulator's public API (`slicing_diversion.py` builds a
`SliceManager` directly), so an API change that misses them fails here."""

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
