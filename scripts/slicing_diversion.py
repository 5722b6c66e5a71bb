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
    physical = {cls: Fraction(100) for cls in ResourceClass.ALL}
    manager = SliceManager(physical=lambda: dict(physical))
    manager.create_slice(SliceSpec("op-a", "alpha", {cls: Fraction(6, 10) for cls in ResourceClass.ALL}))
    manager.create_slice(SliceSpec("op-b", "beta", {cls: Fraction(4, 10) for cls in ResourceClass.ALL}))

    cls = ResourceClass.WLAN
    demand_a = Fraction(90)
    print(f"physical {cls} capacity: 100 Mb/s, shares 60/40, A demands {demand_a} throughout")
    print(f"{'B demand':>9} {'A granted':>10} {'B granted':>10} {'A borrowed':>11}")
    for demand_b in range(0, 75, 10):
        runtimes = manager.compute_slice_allocations(
            {"op-a": {cls: demand_a}, "op-b": {cls: Fraction(demand_b)}}, manager.entitlements()
        )
        a = runtimes["op-a"].per_class[cls]
        b = runtimes["op-b"].per_class[cls]
        borrowed = max(a.granted - a.entitled, Fraction(0))
        print(f"{demand_b:>9} {str(a.granted):>10} {str(b.granted):>10} {str(borrowed):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
