#!/usr/bin/env python3
"""Trace idle-capacity diversion between two operator slices.

Slice A holds 60% of a 100 Mb/s resource, slice B 40%. As B's demand
ramps up, A's borrowed capacity is reclaimed; A's entitlement is never
touched.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fognet.slicing import SliceManager, SliceSpec
from fognet.topology import ResourceClass


def main() -> int:
    physical = {cls: 100 for cls in ResourceClass.ALL}
    manager = SliceManager(
        [
            SliceSpec("op-a", "alpha", {cls: Fraction(6, 10) for cls in ResourceClass.ALL}),
            SliceSpec("op-b", "beta", {cls: Fraction(4, 10) for cls in ResourceClass.ALL}),
        ]
    )

    cls = ResourceClass.WLAN
    demand_a = 90
    print(f"physical {cls} capacity: 100 Mb/s, shares 60/40, A demands {demand_a} throughout")
    print(f"{'B demand':>9} {'A granted':>10} {'B granted':>10} {'A borrowed':>11}")
    entitled = manager.entitlements(physical)
    for demand_b in range(0, 75, 10):
        demands = {key: 0 for key in entitled}
        demands["op-a", cls], demands["op-b", cls] = demand_a, demand_b
        granted = manager.compute_slice_allocations(demands, entitled, physical)
        a, b = granted["op-a", cls], granted["op-b", cls]
        borrowed = max(a - entitled["op-a", cls], 0)
        print(f"{demand_b:>9} {str(a):>10} {str(b):>10} {str(borrowed):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
