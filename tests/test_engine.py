import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fognet.engine import Engine, Event, EventKind, SchedulingInPast
from helpers import bare_net, fresh_solve, install, rising_ids
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


class TestEventRecord:
    """An `Event` stays immutable and hashable, with no instance `__dict__`."""

    def test_fields_cannot_be_assigned(self):
        event = Engine().schedule(5, EventKind.FLOW_DEPARTURE, subjects=("f1",))
        for field in Event._fields:
            with pytest.raises(AttributeError):
                setattr(event, field, None)

    def test_hashes_and_has_no_instance_dict(self):
        event = Engine().schedule(5, EventKind.FLOW_DEPARTURE, subjects=("f1",))
        assert {event: 1}[Event(5, 0, EventKind.FLOW_DEPARTURE, ("f1",))] == 1
        assert not hasattr(event, "__dict__")


def entries(*specs):
    return [OracleFlow(fid, tuple(links), F(d), F(g)) for fid, links, d, g in specs]


def solve(flows, caps):
    """Each flow's rate after installing `flows` (`OracleFlow`s) on a bare
    network of `caps` (Mb/s) and one `recompute()`."""
    net = bare_net(caps, [rate for f in flows for rate in (f.demand, f.gbr)])
    for f in flows:
        install(net, f.fid, f.links, f.demand, f.gbr)
    net.recompute()
    return {f.fid: net.allocated(f.fid) for f in flows}


class TestFairShares:
    """Max-min shares as `NetworkState` computes them: flows installed on a
    bare network, one `recompute()`, rates read through `allocated()`."""

    def test_single_flow_unconstrained(self):
        alloc = solve(entries(("f1", ["l1"], 5, 0)), {"l1": F(10)})
        assert alloc["f1"] == 5

    def test_two_identical_flows_split_evenly(self):
        alloc = solve(entries(("f1", ["l1"], 10, 0), ("f2", ["l1"], 10, 0)), {"l1": F(10)})
        assert alloc["f1"] == alloc["f2"] == 5

    def test_classic_two_link_instance_matches_oracle(self):
        # one long flow over both links, one short flow per link
        caps = {"l1": F(10), "l2": F(6)}
        flows = entries(
            ("long", ["l1", "l2"], 100, 0),
            ("s1", ["l1"], 100, 0),
            ("s2", ["l2"], 100, 0),
        )
        alloc = solve(flows, caps)
        assert alloc == maxmin_oracle(flows, caps)
        assert alloc["long"] == 3 and alloc["s2"] == 3 and alloc["s1"] == 7

    def test_gbr_exact_and_reserved_first(self):
        caps = {"l1": F(10)}
        flows = entries(("g", ["l1"], 4, 4), ("b", ["l1"], 100, 0))
        alloc = solve(flows, caps)
        assert alloc["g"] == 4
        assert alloc["b"] == 6

    def test_zero_demand_and_empty_path(self):
        alloc = solve(entries(("z", ["l1"], 0, 0), ("e", [], 3, 0)), {"l1": F(1)})
        assert alloc["z"] == 0 and alloc["e"] == 3

    @staticmethod
    def _matches_oracle(flows, caps):
        alloc = solve(flows, caps)
        assert alloc == maxmin_oracle(flows, caps)
        return alloc

    def test_path_listing_a_link_twice_is_refused(self):
        """`install_flow` refuses a path that lists a link twice, best-effort
        or guaranteed, with a ValueError before any ledger or the kept
        solver index changes, and keeps no install plan for it, so it is
        refused again on every attempt: also once the same links, each
        listed once in another order, have a plan of their own. The flows
        installed before still solve."""
        net = bare_net({"l1": 10, "l2": 100})
        install(net, "a", ["l1"], 8)
        install(net, "b", ["l1", "l2"], 8)
        net.recompute()
        assert net._fair is not None

        def ledgers():
            return (
                dict(net.flows),
                {lid: set(fids) for lid, fids in net._on_link.items()},
                dict(net._offered),
                set(net._congested),
                dict(net._be_capacity),
                dict(net._unsliced_gbr),
                dict(net._plans),
                rising_ids(net),
                net.epoch,
                net._fair,
                len(net._fair),
                {fid: net.allocated(fid) for fid in ("a", "b", "twice", "twice-gbr")},
                net.load_units("l1"),
                net.load_units("l2"),
            )

        def refused_each_time():
            before = ledgers()
            for fid, gbr in (("twice", 0), ("twice-gbr", 1)):
                with pytest.raises(ValueError, match="lists a link twice"):
                    install(net, fid, ["l1", "l2", "l1"], 1, gbr)
                assert ledgers() == before
                assert ("l1", "l2", "l1") not in net._plans

        refused_each_time()
        install(net, "c", ["l2", "l1"], 8)
        assert ("l2", "l1") in net._plans
        refused_each_time()
        net.remove_flow("c")
        net.recompute()
        assert net.allocated("a") == net.allocated("b") == 5

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
        """Random paths, some listing a link more than once: `install_flow`
        refuses those, and the flows it keeps solve as the oracle says."""
        rng = random.Random(99)
        refused = 0
        for _ in range(200):
            links = [f"l{i}" for i in range(rng.randint(1, 5))]
            caps = {l: F(rng.randint(0, 30), rng.choice([1, 2, 3])) for l in links}
            flows = [
                OracleFlow(
                    f"f{i}",
                    tuple(rng.choice(links) for _ in range(rng.randint(0, 4))),
                    F(rng.randint(0, 20), rng.choice([1, 2, 5])),
                )
                for i in range(rng.randint(1, 9))
            ]
            net = bare_net(caps, [f.demand for f in flows])
            kept = []
            for f in flows:
                if len(set(f.links)) < len(f.links):
                    with pytest.raises(ValueError):
                        install(net, f.fid, f.links, f.demand)
                    refused += 1
                else:
                    install(net, f.fid, f.links, f.demand)
                    kept.append(f)
            net.recompute()
            assert sorted(net.flows) == sorted(f.fid for f in kept)
            assert {f.fid: net.allocated(f.fid) for f in kept} == maxmin_oracle(kept, caps)
        assert refused > 100

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
                flows.append(OracleFlow(f"f{i}", path, g, g))
            else:
                flows.append(OracleFlow(f"f{i}", path, F(rng.randint(1, 40))))
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
            alloc = solve(flows, caps)
            assert alloc == maxmin_oracle(flows, caps), (flows, caps)
            # conservation is exact, no tolerance
            for lid, cap in caps.items():
                used = sum((alloc[f.fid] for f in flows if lid in f.links), F(0))
                assert used <= cap
            checked += 1

    def test_maxmin_perturbation_property(self):
        rng = random.Random(7)
        for _ in range(50):
            instance = self._random_instance(rng)
            if instance is None:
                continue
            flows, caps = instance
            alloc = solve(flows, caps)
            be = [f for f in flows if f.gbr == 0]
            # no flow can gain without hurting an equal-or-poorer flow:
            # every unsatisfied flow crosses a saturated link where it is
            # among the largest allocations
            for f in be:
                if not f.links or alloc[f.fid] >= f.demand:
                    continue
                bottlenecks = [
                    lid
                    for lid in f.links
                    if sum((alloc[g.fid] for g in flows if lid in g.links), F(0)) == caps[lid]
                ]
                assert bottlenecks, f
                ok = False
                for lid in bottlenecks:
                    rivals = [alloc[g.fid] for g in be if lid in g.links]
                    if all(alloc[f.fid] >= r or r == 0 for r in rivals):
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
        alloc = solve(flows, caps)
        for lid, cap in caps.items():
            used = sum((alloc[f.fid] for f in flows if lid in f.links), F(0))
            assert used <= cap
        for f in flows:
            if f.gbr > 0:
                assert alloc[f.fid] == f.gbr
            else:
                assert alloc[f.fid] <= f.demand

    def test_determinism(self):
        rng = random.Random(5)
        instance = None
        while instance is None:
            instance = self._random_instance(rng)
        flows, caps = instance
        first = solve(flows, caps)
        second = solve(list(reversed(flows)), caps)
        assert first == second


WALK_DEMANDS = [F(1, 3), F(2, 7), F(1), F(5, 2), F(4, 9), F(3)]


@st.composite
def index_walks(draw):
    """A small max-min instance and a walk over it: 2-6 links of
    non-decimal capacity (Mb/s); 1-30 flows drawing on a few shared
    demands and paths; and steps that each install the next flow or
    remove a live one (`(install?, which, solve after?)`)."""
    links = [f"l{i}" for i in range(draw(st.integers(2, 6)))]
    caps = {lid: F(draw(st.integers(1, 24)), draw(st.sampled_from([3, 7, 9]))) for lid in links}
    demands = draw(st.lists(st.sampled_from(WALK_DEMANDS), min_size=1, max_size=3, unique=True))
    path = st.permutations(links).flatmap(lambda order: st.integers(1, len(order)).map(lambda n: tuple(order[:n])))
    paths = draw(st.lists(path, min_size=1, max_size=4))
    count = draw(st.integers(1, 30))  # drawn first, so that long walks are as likely as short ones
    flows = draw(st.lists(st.tuples(st.sampled_from(demands), st.sampled_from(paths)), min_size=count, max_size=count))
    count = draw(st.integers(1, 45))
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 29), st.booleans()), min_size=count, max_size=count))
    return caps, flows, steps


class TestFairShareIndex:
    def test_random_adds_and_removes_solve_as_a_fresh_index(self):
        """Through installs and removals on a bare network, the solver index
        that `NetworkState` keeps holds exactly the rising flows (`len()`)
        and solves as one built fresh from them: every flow's exact
        rate and every link's total agree. Every rate equals the oracle's.
        `_congested`, the links a solve lets bind, equals a recount of the
        links whose rising flows want more than the capacity net of
        guarantees, and `load_units()` over each link and over random sets
        of links equals a recount of the rates. Reads between a change and
        the next solve see the last solve's rates: a rising flow installed
        into a solved index reads 0 and counts in no total, and a removed
        flow leaves every total at once. The walk keeps one index while a
        link contends for the first time since it was built, and while
        contention on another link ends. Zero-demand and linkless flows are
        installed too, and paths that list a link twice are refused."""
        rng = random.Random(31)
        pick = random.Random(32)  # the link sets summed, apart from the walk
        links = [f"l{i}" for i in range(5)]
        caps = {l: F(rng.randint(4, 30), rng.choice([1, 2, 3])) for l in links}
        demands = [F(0), F(1, 2), F(1), F(2), F(5, 2), F(7)]  # few values, so ties
        net = bare_net(caps, demands)
        live = {}
        serial = 0
        kinds = set()
        per_link = {lid: F(0) for lid in links}
        oracle = {}
        fair = None  # the index after the last solve
        last = set()  # the links congested at the last solve
        contended = set()  # every link congested since that index was built
        for _ in range(300):
            if live and rng.random() < 0.45:
                gone = live.pop(rng.choice(sorted(live)))
                was_congested = bool(net._congested)
                net.remove_flow(gone.fid)
                if net._congested or not was_congested:
                    # read before the solve: the flow left every total, the rest kept their rates
                    kinds.add("removed")
                    for lid in links:
                        left = per_link[lid] - (oracle[gone.fid] * net.unit if lid in gone.links else 0)
                        assert net.load_units(lid) == left
                    assert {fid: net.allocated(fid) for fid in live} == {fid: oracle[fid] for fid in live}
            else:
                serial += 1
                path = tuple(rng.choice(links) for _ in range(rng.randint(0, 4)))
                demand = rng.choice(demands)
                if len(set(path)) < len(path):
                    with pytest.raises(ValueError):
                        install(net, f"f{serial}", path, demand)
                    kinds.add("refused")
                else:
                    gbr = F(0)
                    if demand > 0 and rng.random() < 0.2:
                        if all(net.residual_units(l) >= net.units(demand) for l in path):
                            gbr = demand
                    new = OracleFlow(f"f{serial}", path, demand, gbr)
                    install(net, new.fid, new.links, new.demand, new.gbr)
                    kinds.add("gbr" if gbr else "zero" if not demand else "linkless" if not path else "be")
                    live[new.fid] = new
                    if net._fair is not None and not gbr and demand and path:
                        # read before the solve: the new flow is in the index but has no rate
                        kinds.add("unsolved")
                        assert len(net._fair) == len(rising_ids(net))
                        assert net.allocated(new.fid) == 0
                        for lid in links:
                            assert net.load_units(lid) == per_link[lid]
                        assert net.load_units(*path) == sum((per_link[lid] for lid in path), F(0))
            net.recompute()
            flows = list(live.values())
            oracle = maxmin_oracle(flows, caps)
            assert {fid: net.allocated(fid) for fid in live} == oracle
            rising = [f for f in flows if f.gbr == 0 and f.demand > 0 and f.links]
            net_capacity = {l: caps[l] - sum((f.gbr for f in flows if l in f.links), F(0)) for l in links}
            wanted = {l: sum((f.demand for f in rising if l in f.links), F(0)) for l in links}
            assert net._congested == {l for l in links if wanted[l] > net_capacity[l]}
            if net._congested:
                kinds.add("congested")
                assert len(net._fair) == len(rising)
                assert fresh_solve(net, links) == (
                    len(rising),
                    {fid: net.allocated(fid) for fid in live},
                    {lid: net.load_units(lid) for lid in links},
                )
                if net._fair is fair:
                    if not contended.issuperset(net._congested):
                        kinds.add("first-contends")
                    if not last <= net._congested:
                        kinds.add("contention-ends")
                    contended |= net._congested
                else:
                    contended = set(net._congested)
            fair, last = net._fair, set(net._congested)
            for lid in links:
                per_link[lid] = sum((oracle[f.fid] for f in flows if lid in f.links), F(0)) * net.unit
                assert net.load_units(lid) == per_link[lid]
            for _ in range(3):
                subset = pick.sample(links, pick.randint(0, len(links)))
                assert net.load_units(*subset) == sum((per_link[lid] for lid in subset), F(0))
        assert live and kinds == {
            "gbr", "zero", "linkless", "refused", "be", "congested", "unsolved", "removed",
            "first-contends", "contention-ends",
        }  # fmt: skip

    @given(index_walks())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_walks_solve_as_the_oracle(self, walk):
        """After every solve of a random walk of installs and removals,
        with solves between some steps only, every live flow's
        `allocated()` equals the max-min oracle's rate."""
        caps, flows, steps = walk
        net = bare_net(caps, WALK_DEMANDS)
        live = {}
        installed = 0
        for serial, (grow, which, solve) in enumerate(steps):
            if (grow or not live) and installed < len(flows):
                demand, path = flows[installed]
                installed += 1
                live[f"f{serial}"] = OracleFlow(f"f{serial}", path, demand)
                install(net, f"f{serial}", path, demand)
            elif live:
                net.remove_flow(live.pop(sorted(live)[which % len(live)]).fid)
            if solve or serial == len(steps) - 1:
                net.recompute()
                assert {fid: net.allocated(fid) for fid in live} == maxmin_oracle(list(live.values()), caps)

    def test_a_flow_reinstalled_before_the_solve_reads_zero(self):
        """A flow removed and installed again under its id, as a
        re-decision does, has no rate until the next solve: it reads 0 and
        counts in no link's total, while the flow it shares a link with
        keeps its solved rate."""
        net = bare_net({"a": 4, "b": 10}, [3])
        install(net, "x", ("a",), 3)
        install(net, "y", ("a", "b"), 3)
        net.recompute()
        assert net.allocated("y") == 2 and net.load_units("a", "b") == 6
        net.install_flow(net.remove_flow("y"))
        assert net._fair is not None and net._congested == {"a"}
        assert net.allocated("y") == 0 and net.allocated("x") == 2
        assert (net.load_units("a"), net.load_units("b")) == (2, 0)
        net.recompute()
        assert net.allocated("y") == 2 and net.load_units("a", "b") == 6


class TestContendedBoundary:
    """A solve lets only `NetworkState._congested` bind: the links whose
    offered load exceeds their capacity, so whose rising flows want more
    than the capacity net of guarantees. These instances put links at that
    boundary: net capacity equal to their best-effort demand, one unit
    below it and one unit above it."""

    UNIT = 3  # every rate below is a whole number of 1/3 Mb/s

    @classmethod
    def _instance(cls, rng):
        """Flows, capacities in units, each link's offset from its
        best-effort demand (None for a link given a random capacity), and
        that demand in units."""
        links = [f"l{i}" for i in range(rng.randint(2, 6))]
        flows = []
        for i in range(rng.randint(1, 10)):
            path = tuple(rng.sample(links, rng.randint(1, len(links))))
            demand = F(rng.choice([1, 2, 3, 5, 6, 9]), cls.UNIT)
            if rng.random() < 0.2:
                flows.append(OracleFlow(f"g{i}", path, demand, demand))
            else:
                flows.append(OracleFlow(f"f{i}", path, demand))
        gbr = {lid: 0 for lid in links}
        load = {lid: 0 for lid in links}
        for f in flows:
            for lid in f.links:
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
        slack_beside_solve = 0
        for _ in range(400):
            flows, caps, offsets, load = self._instance(rng)
            mbps = {lid: F(cap, unit) for lid, cap in caps.items()}
            net = bare_net(mbps, [F(1, unit)])
            for f in flows:
                install(net, f.fid, f.links, f.demand, f.gbr)
            net.recompute()
            alloc = {f.fid: net.allocated(f.fid) for f in flows}
            assert alloc == maxmin_oracle(flows, mbps), (flows, caps)
            per_link = {}
            for lid in caps:
                on_link = [f for f in flows if lid in f.links]
                best_effort = sum((alloc[f.fid] for f in on_link if f.gbr == 0), F(0)) * unit
                per_link[lid] = sum((alloc[f.fid] for f in on_link), F(0)) * unit
                offset = offsets[lid]
                if load[lid]:
                    seen.add(offset)
                    if offset is not None:
                        # congested exactly when the demand is a unit above the net capacity
                        assert (lid in net._congested) == (offset == -1)
                        slack_beside_solve += offset >= 0 and bool(net._congested)
                        # within the net capacity, and within the demand
                        assert best_effort <= load[lid] + min(offset, 0)
            for _ in range(4):
                subset = rng.sample(sorted(caps), rng.randint(0, len(caps)))
                assert net.load_units(*subset) == sum((per_link[lid] for lid in subset), F(0))
        assert seen == {-1, 0, 1, None}
        assert slack_beside_solve > 100
