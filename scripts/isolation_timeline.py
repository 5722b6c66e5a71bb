#!/usr/bin/env python3
"""Show what isolated operation looks like on the bundled outage scenario.

Runs scenarios/isolation.scn (backhaul down from t=10s to t=20s) and prints
the connectivity timeline plus how each flow fared around the outage.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fognet.scenario import load_scenario
from fognet.simulation import Simulation

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "isolation.scn"


def main() -> int:
    config = load_scenario(SCENARIO)
    sim = Simulation(config)
    record = sim.run()

    print(f"scenario: {config.name} (outage 10s..20s, duration {config.duration_ms} ms)")
    print("\nconnectivity timeline:")
    for row in sim.cloud.connectivity_rows():
        t, fog, state = row.split("\t")
        print(f"  t={int(t):>6} ms  {fog}: {state}")

    # requests are the decision rows (decisions.log) that are neither
    # re-decisions nor terminations
    outcomes = Counter()
    during_outage = Counter()
    header = sim.decision_rows[0].split("\t")
    for line in sim.decision_rows[1:]:
        row = dict(zip(header, line.split("\t")))
        if row["reroute"] == "1" or row["status"] == "terminated":
            continue
        accepted = row["status"] == "accepted"
        key = "accepted" if accepted else f"rejected:{row['reason']}"
        outcomes[key] += 1
        if 10_000 <= int(row["time_ms"]) < 20_000:
            label = row["rat"] if accepted else key
            during_outage[f"{row['class']}/{label}"] += 1

    print("\nrequest outcomes over the whole run:")
    for key in sorted(outcomes):
        print(f"  {key:32s} {outcomes[key]}")

    print("\nrequests arriving during the outage window:")
    for key in sorted(during_outage):
        print(f"  {key:48s} {during_outage[key]}")

    print("\nflows terminated by the outage (reason buckets):")
    for reason, count in sorted(record.terminated.items()):
        if count:
            print(f"  {reason:24s} {count}")
    print(f"\nflows surviving isolation onset: {record.isolation_survivors}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
