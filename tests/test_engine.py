import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fognet.engine import (
    Engine,
    EventKind,
    FairShareIndex,
    FlowDemand,
    GbrOvercommit,
    SchedulingInPast,
    recompute_fair_shares,
)
from oracles import OracleFlow, maxmin_oracle

F = Fraction


class TestEventQueue:
    def test_schedule_at_now_runs_before_later(self):
        eng = Engine()
        seen = []
        eng.on(EventKind.METRICS_TICK, lambda ev: seen.append(ev.subjects[0]))
        eng.schedule(5, EventKind.METRICS_TICK, subjects=("late",))
        eng.schedule(0, EventKind.METRICS_TICK, subjects=("now",))
        eng.run_until(10)
        assert seen == ["now", "late"]
        assert eng.now() == 10

    def test_equal_times_fifo(self):
        eng = Engine()
        seen = []
        eng.on(EventKind.METRICS_TICK, lambda ev: seen.append(ev.subjects[0]))
        for name in "abc":
            eng.schedule(3, EventKind.METRICS_TICK, subjects=(name,))
        eng.run_until(3)
        assert seen == ["a", "b", "c"]

    def test_scheduling_in_past_raises(self):
        eng = Engine()
        eng.run_until(10)
        with pytest.raises(SchedulingInPast):
            eng.schedule(9, EventKind.METRICS_TICK)

    def test_empty_run_until(self):
        eng = Engine()
        calls = []
        eng.on(EventKind.METRICS_TICK, lambda ev: calls.append(ev))
        eng.run_until(100)
        assert eng.now() == 100 and calls == []

    def test_single_event_exact_clock(self):
        eng = Engine()
        at = []
        eng.on(EventKind.FLOW_ARRIVAL, lambda ev: at.append(eng.now()))
        eng.schedule(50, EventKind.FLOW_ARRIVAL)
        eng.run_until(200)
        assert at == [50]

    def test_10k_random_events_match_stable_sort(self):
        rng = random.Random(99)
        eng = Engine()
        order = []
        eng.on(EventKind.METRICS_TICK, lambda ev: order.append((ev.time, ev.seq)))
        scheduled = []
        for _ in range(10_000):
            t = rng.randrange(0, 500)
            ev = eng.schedule(t, EventKind.METRICS_TICK)
            scheduled.append((ev.time, ev.seq))
        eng.run_until(500)
        assert order == sorted(scheduled, key=lambda p: (p[0], p[1]))

    def test_handler_interleaving_respects_order(self):
        eng = Engine()
        log = []

        def handler(ev):
            log.append((ev.time, ev.seq))
            if ev.payload:
                # handlers may schedule at the current instant or later
                eng.schedule(ev.time, EventKind.METRICS_TICK, payload=None)
                eng.schedule(ev.time + 7, EventKind.METRICS_TICK, payload=None)

        eng.on(EventKind.METRICS_TICK, handler)
        for t in (4, 2, 9):
            eng.schedule(t, EventKind.METRICS_TICK, payload=True)
        eng.run_until(100)
        assert log == sorted(log, key=lambda p: (p[0], p[1]))
        assert [t for t, _ in log] == [2, 2, 4, 4, 9, 9, 9, 11, 16]


def entries(*specs):
    return [FlowDemand(flow_id=fid, links=tuple(links), demand=F(d), gbr=F(g)) for fid, links, d, g in specs]


class TestFairShares:
    def test_single_flow_unconstrained(self):
        alloc = recompute_fair_shares(entries(("f1", ["l1"], 5, 0)), {"l1": F(10)})
        assert alloc["f1"] == 5

    def test_two_identical_flows_split_evenly(self):
        alloc = recompute_fair_shares(
            entries(("f1", ["l1"], 10, 0), ("f2", ["l1"], 10, 0)), {"l1": F(10)}
        )
        assert alloc["f1"] == alloc["f2"] == 5

    def test_classic_two_link_instance_matches_oracle(self):
        # one long flow over both links, one short flow per link
        caps = {"l1": F(10), "l2": F(6)}
        flows = entries(
            ("long", ["l1", "l2"], 100, 0),
            ("s1", ["l1"], 100, 0),
            ("s2", ["l2"], 100, 0),
        )
        alloc = recompute_fair_shares(flows, caps)
        oracle = maxmin_oracle(
            [OracleFlow(f.flow_id, f.links, f.demand, f.gbr) for f in flows], caps
        )
        assert alloc == oracle
        assert alloc["long"] == 3 and alloc["s2"] == 3 and alloc["s1"] == 7

    def test_gbr_exact_and_reserved_first(self):
        caps = {"l1": F(10)}
        flows = entries(("g", ["l1"], 4, 4), ("b", ["l1"], 100, 0))
        alloc = recompute_fair_shares(flows, caps)
        assert alloc["g"] == 4
        assert alloc["b"] == 6

    def test_gbr_overcommit_raises(self):
        with pytest.raises(GbrOvercommit):
            recompute_fair_shares(
                entries(("g1", ["l1"], 6, 6), ("g2", ["l1"], 6, 6)), {"l1": F(10)}
            )

    def test_zero_demand_and_empty_path(self):
        alloc = recompute_fair_shares(
            entries(("z", ["l1"], 0, 0), ("e", [], 3, 0)), {"l1": F(1)}
        )
        assert alloc["z"] == 0 and alloc["e"] == 3

    @staticmethod
    def _matches_oracle(flows, caps):
        alloc = recompute_fair_shares(flows, caps)
        assert alloc == maxmin_oracle([OracleFlow(f.flow_id, f.links, f.demand, f.gbr) for f in flows], caps)
        return alloc

    def test_best_effort_path_listing_a_link_twice_counts_once(self):
        caps = {"l1": F(10), "l2": F(100)}
        alloc = self._matches_oracle(
            entries(("dup", ["l1", "l2", "l1"], 100, 0), ("other", ["l1"], 100, 0)), caps
        )
        assert alloc["dup"] == alloc["other"] == 5

    def test_links_saturated_by_gbr_pin_flows_at_zero(self):
        caps = {"l1": F(4), "l2": F(6), "l3": F(3)}
        alloc = self._matches_oracle(
            entries(
                ("g1", ["l1"], 4, 4),
                ("g2", ["l3"], 1, 1),
                ("g3", ["l3"], 2, 2),
                ("pinned", ["l2", "l1"], 10, 0),
                ("pinned3", ["l3"], 10, 0),
                ("free", ["l2"], 10, 0),
            ),
            caps,
        )
        assert alloc["pinned"] == alloc["pinned3"] == 0
        assert alloc["free"] == 6

    def test_links_and_a_demand_tie_at_one_level(self):
        # l1 saturates at 6/2, l2 at 9/3, and "d" wants exactly 3
        caps = {"l1": F(6), "l2": F(9), "l3": F(20)}
        alloc = self._matches_oracle(
            entries(
                ("a", ["l1"], 10, 0),
                ("b", ["l1", "l3"], 10, 0),
                ("c", ["l2"], 10, 0),
                ("d", ["l2", "l3"], 3, 0),
                ("e", ["l2", "l3"], 10, 0),
                ("f", ["l3"], 20, 0),
            ),
            caps,
        )
        assert [alloc[x] for x in "abcde"] == [3] * 5
        assert alloc["f"] == 11

    def test_zero_demand_and_linkless_flows_beside_congestion(self):
        caps = {"l1": F(2)}
        alloc = self._matches_oracle(
            entries(("z", ["l1"], 0, 0), ("e", [], 3, 0), ("b", ["l1"], 5, 0), ("c", ["l1"], F(1, 3), 0)), caps
        )
        assert alloc == {"z": 0, "e": 3, "b": F(5, 3), "c": F(1, 3)}

    def test_random_instances_with_repeated_links_match_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            links = [f"l{i}" for i in range(rng.randint(1, 5))]
            caps = {l: F(rng.randint(0, 30), rng.choice([1, 2, 3])) for l in links}
            flows = [
                FlowDemand(
                    f"f{i}",
                    tuple(rng.choice(links) for _ in range(rng.randint(0, 4))),
                    F(rng.randint(0, 20), rng.choice([1, 2, 5])),
                )
                for i in range(rng.randint(1, 9))
            ]
            self._matches_oracle(flows, caps)

    @staticmethod
    def _random_instance(rng):
        n_links = rng.randint(1, 6)
        links = [f"l{i}" for i in range(n_links)]
        caps = {l: F(rng.randint(1, 50)) for l in links}
        flows = []
        for i in range(rng.randint(1, 8)):
            path = tuple(sorted(rng.sample(links, rng.randint(1, n_links))))
            if rng.random() < 0.25:
                g = F(rng.randint(1, 3))
                flows.append(FlowDemand(f"f{i}", path, g, g))
            else:
                flows.append(FlowDemand(f"f{i}", path, F(rng.randint(1, 40)), F(0)))
        total = {l: F(0) for l in links}
        for f in flows:
            if f.gbr > 0:
                for l in f.links:
                    total[l] += f.gbr
        if any(total[l] > caps[l] for l in links):
            return None
        return flows, caps

    def test_500_random_instances_match_oracle_exactly(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 500:
            instance = self._random_instance(rng)
            if instance is None:
                continue
            flows, caps = instance
            alloc = recompute_fair_shares(flows, caps)
            oracle = maxmin_oracle([OracleFlow(f.flow_id, f.links, f.demand, f.gbr) for f in flows], caps)
            assert alloc == oracle, (flows, caps)
            # conservation is exact, no tolerance
            for lid, cap in caps.items():
                used = sum((alloc[f.flow_id] for f in flows if lid in f.links), F(0))
                assert used <= cap
            checked += 1

    def test_maxmin_perturbation_property(self):
        rng = random.Random(7)
        for _ in range(50):
            instance = self._random_instance(rng)
            if instance is None:
                continue
            flows, caps = instance
            alloc = recompute_fair_shares(flows, caps)
            be = [f for f in flows if f.gbr == 0]
            # no flow can gain without hurting an equal-or-poorer flow:
            # every unsatisfied flow crosses a saturated link where it is
            # among the largest allocations
            for f in be:
                if not f.links or alloc[f.flow_id] >= f.demand:
                    continue
                bottlenecks = [
                    lid
                    for lid in f.links
                    if sum((alloc[g.flow_id] for g in flows if lid in g.links), F(0)) == caps[lid]
                ]
                assert bottlenecks, f
                ok = False
                for lid in bottlenecks:
                    rivals = [alloc[g.flow_id] for g in be if lid in g.links]
                    if all(alloc[f.flow_id] >= r or r == 0 for r in rivals):
                        ok = True
                assert ok, (f, alloc)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_conserve_capacity(self, seed):
        rng = random.Random(seed)
        instance = self._random_instance(rng)
        if instance is None:
            return
        flows, caps = instance
        alloc = recompute_fair_shares(flows, caps)
        for lid, cap in caps.items():
            used = sum((alloc[f.flow_id] for f in flows if lid in f.links), F(0))
            assert used <= cap
        for f in flows:
            if f.gbr > 0:
                assert alloc[f.flow_id] == f.gbr
            else:
                assert alloc[f.flow_id] <= f.demand

    def test_determinism(self):
        rng = random.Random(5)
        instance = None
        while instance is None:
            instance = self._random_instance(rng)
        flows, caps = instance
        first = recompute_fair_shares(flows, caps)
        second = recompute_fair_shares(list(reversed(flows)), caps)
        assert first == second


class TestFairShareIndex:
    def test_random_adds_and_removes_solve_as_a_fresh_index(self):
        """An index kept through adds and removes solves exactly as one built
        from the remaining flows, and as the oracle; its per-link rising
        demand equals a recount, its best-effort total over each link and
        over random sets of links equals a recount of the allocation, and
        its length counts every flow (zero-demand and linkless ones too)."""
        rng = random.Random(31)
        pick = random.Random(32)  # the link sets summed, apart from the walk
        links = [f"l{i}" for i in range(5)]
        caps = {l: F(rng.randint(4, 30), rng.choice([1, 2, 3])) for l in links}
        demands = [F(0), F(1, 2), F(1), F(2), F(5, 2), F(7)]  # few values, so ties
        unit = 6  # every rate below is a whole number of 1/6
        index = FairShareIndex(unit=unit)
        live = {}
        reserved = {l: F(0) for l in links}
        serial = 0
        kinds = set()
        for _ in range(300):
            if live and rng.random() < 0.45:
                gone = live.pop(rng.choice(sorted(live)))
                index.remove(gone)
                for lid in gone.links:
                    reserved[lid] -= gone.gbr
            else:
                serial += 1
                path = tuple(rng.choice(links) for _ in range(rng.randint(0, 4)))
                demand = rng.choice(demands)
                gbr = F(0)
                # a guarantee is taken once per listing, the oracle's once per
                # link, so guaranteed flows list each link once
                distinct = len(set(path)) == len(path)
                fits = all(reserved[l] + demand <= caps[l] for l in path)
                if demand > 0 and distinct and rng.random() < 0.2 and fits:
                    gbr = demand
                    for lid in path:
                        reserved[lid] += gbr
                new = FlowDemand(f"f{serial}", path, demand, gbr)
                kind = "gbr" if gbr else "zero" if not demand else "linkless" if not path else "be"
                kinds.add("twice" if kind == "be" and not distinct else kind)
                live[new.flow_id] = new
                index.add(new)
            flows = list(live.values())
            alloc = recompute_fair_shares(index, {lid: int(cap * unit) for lid, cap in caps.items()})
            assert alloc == recompute_fair_shares(flows, caps)
            assert len(index) == len(flows)
            assert alloc == maxmin_oracle([OracleFlow(f.flow_id, f.links, f.demand, f.gbr) for f in flows], caps)
            per_link = {}
            for lid in links:
                be = [f for f in flows if f.gbr == 0 and lid in f.links]
                per_link[lid] = sum((alloc[f.flow_id] for f in be), F(0)) * unit
                assert index.best_effort_on(lid) == per_link[lid]
                rising = sum(f.demand for f in be if f.demand > 0) * unit
                assert index.load.get(lid, 0) == rising and (lid in index.load) == (rising > 0)
            for _ in range(3):
                subset = pick.sample(links, pick.randint(0, len(links)))
                assert index.best_effort_on(*subset) == sum((per_link[lid] for lid in subset), F(0))
        assert kinds == {"gbr", "zero", "linkless", "twice", "be"} and live


class TestContendedBoundary:
    """Only links whose capacity net of guarantees is below the demand of
    their rising flows take part in a solve. These instances put links at
    that boundary: net capacity equal to their best-effort demand, one
    unit below it and one unit above it."""

    UNIT = 3  # every rate below is a whole number of 1/3 Mb/s

    @classmethod
    def _instance(cls, rng):
        """Flows, capacities in units, and each link's offset from its
        best-effort demand (None for a link given a random capacity)."""
        links = [f"l{i}" for i in range(rng.randint(2, 6))]
        flows = []
        for i in range(rng.randint(1, 10)):
            path = tuple(rng.sample(links, rng.randint(1, len(links))))
            demand = F(rng.choice([1, 2, 3, 5, 6, 9]), cls.UNIT)
            if rng.random() < 0.2:
                flows.append(FlowDemand(f"g{i}", path, demand, demand))
            else:
                if rng.random() < 0.2:
                    path += (path[0],)  # a best-effort path may list a link twice
                flows.append(FlowDemand(f"f{i}", path, demand))
        gbr = {lid: 0 for lid in links}
        load = {lid: 0 for lid in links}
        for f in flows:
            for lid in dict.fromkeys(f.links):
                if f.gbr:
                    gbr[lid] += int(f.gbr * cls.UNIT)
                else:
                    load[lid] += int(f.demand * cls.UNIT)
        offsets = {lid: rng.choice([-1, 0, 1, None]) for lid in links}
        caps = {}
        for lid in links:
            if offsets[lid] is None or load[lid] + offsets[lid] < 0:
                offsets[lid] = None
                caps[lid] = gbr[lid] + rng.randint(0, 3 * load[lid] + 3)
            else:
                caps[lid] = gbr[lid] + load[lid] + offsets[lid]
        return flows, caps, offsets, load

    def test_solves_at_the_boundary_match_oracle_and_recounts(self):
        rng = random.Random(1212)
        unit = self.UNIT
        seen = set()
        for _ in range(400):
            flows, caps, offsets, load = self._instance(rng)
            index = FairShareIndex(flows, unit)
            alloc = recompute_fair_shares(index, caps)
            oracle = maxmin_oracle(
                [OracleFlow(f.flow_id, f.links, f.demand, f.gbr) for f in flows],
                {lid: F(cap, unit) for lid, cap in caps.items()},
            )
            assert alloc == oracle, (flows, caps)
            per_link = {
                lid: sum((alloc[f.flow_id] for f in flows if f.gbr == 0 and lid in f.links), F(0)) * unit
                for lid in caps
            }
            for lid, offset in offsets.items():
                if load[lid]:
                    seen.add(offset)
                    if offset is not None:
                        # within the net capacity, and within the demand
                        assert per_link[lid] <= load[lid] + min(offset, 0)
            for _ in range(4):
                subset = rng.sample(sorted(caps), rng.randint(0, len(caps)))
                assert index.best_effort_on(*subset) == sum((per_link[lid] for lid in subset), F(0))
        assert seen == {-1, 0, 1, None}
