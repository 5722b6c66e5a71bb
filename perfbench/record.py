"""Record the golden output digests the benchmark checks every run against.

    python3 perfbench/record.py

Writes `golden.json`: the SHA-256 of each of the six output files for
every workload at its default and held-out seed. Re-record only in a
change meant to alter simulated behaviour; a speed-up must reproduce the
recorded digests unchanged.
"""

from __future__ import annotations

import json
import shutil
import sys

from rep import run_rep
from run import GOLDEN, WORK_DIR
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    WORK_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in (workload.default_seed, workload.held_out_seed):
            out = WORK_DIR / f"golden-{name}-{seed}"
            result = run_rep(name, seed, str(out))
            shutil.rmtree(out, ignore_errors=True)
            if result["report_rc"] != 0:
                print(f"error: {name} seed {seed}: fognet report failed", file=sys.stderr)
                return 1
            golden[name][str(seed)] = result["digests"]
            print(f"{name} seed {seed}: {result['events']} events")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
