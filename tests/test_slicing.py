import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fognet.slicing import (
    DuplicateOperator,
    RateTexts,
    ShareOvercommit,
    SliceManager,
    SliceSpec,
    slice_rows,
)
from fognet.topology import ResourceClass
from fognet.util import in_units, rate_str, rate_unit
from helpers import VOIP, FogEnv
from oracles import rate_text, slice_allocation_oracle, slice_rows_oracle

F = Fraction


def fixed_physical(amount=100):
    return dict.fromkeys(ResourceClass.ALL, amount)


def demand_map(sm, demands):
    """(slice, class) -> demand for every slice and class of `sm`, from
    {slice: {class: demand}}, 0 where absent."""
    return {(sid, cls): demands.get(sid, {}).get(cls, 0) for sid in sm.slice_ids() for cls in ResourceClass.ALL}


def spec(sid, op, share):
    return SliceSpec(slice_id=sid, operator=op, shares={cls: F(share) for cls in ResourceClass.ALL})


def decimal_spec(sid, op, num, den):
    return SliceSpec(slice_id=sid, operator=op, shares={cls: F(num, den) for cls in ResourceClass.ALL})


class TestCreateSlice:
    """A fog's slices are created with its `SliceManager`, which validates
    them in its constructor."""

    def test_full_share_entitlement_equals_physical(self):
        sm = SliceManager([spec("s1", "op1", 1)])
        for cls in ResourceClass.ALL:
            assert sm.entitlements(fixed_physical(100))["s1", cls] == 100

    def test_overcommit_rejected(self):
        SliceManager([decimal_spec("s1", "op1", 6, 10)])
        with pytest.raises(ShareOvercommit):
            SliceManager([decimal_spec("s1", "op1", 6, 10), decimal_spec("s2", "op2", 5, 10)])

    def test_duplicate_operator_rejected(self):
        SliceManager([decimal_spec("s1", "op1", 3, 10)])
        with pytest.raises(DuplicateOperator):
            SliceManager([decimal_spec("s1", "op1", 3, 10), decimal_spec("s2", "op1", 3, 10)])

    def test_entitlement_split(self):
        sm = SliceManager([decimal_spec("a", "op1", 6, 10), decimal_spec("b", "op2", 4, 10)])
        assert sm.entitlements(fixed_physical(100))["a", ResourceClass.MACRO] == 60
        assert sm.entitlements(fixed_physical(100))["b", ResourceClass.MACRO] == 40

    def test_each_user_recorded_in_its_operators_slice(self):
        env = FogEnv(slices=[decimal_spec("a", "op1", 6, 10), decimal_spec("b", "op2", 4, 10)])
        slice_of = {"op1": "a", "op2": "b"}
        assert env.fog.subscribers.keys() == env.operator_of.keys()
        for user, operator in env.operator_of.items():
            assert env.fog.subscriber(user).slice_id == slice_of[operator]
        assert {sub.slice_id for sub in env.fog.subscribers.values()} == {"a", "b"}


class TestComputeAllocations:
    def setup_method(self):
        self.sm = SliceManager([decimal_spec("a", "op1", 6, 10), decimal_spec("b", "op2", 4, 10)])
        self.physical = fixed_physical(100)

    def _granted(self, da, db, cls=ResourceClass.MACRO):
        grants = self.sm.compute_slice_allocations(
            demand_map(self.sm, {"a": {cls: da}, "b": {cls: db}}), self.sm.entitlements(self.physical), self.physical
        )
        return grants["a", cls], grants["b", cls]

    def test_within_entitlement_granted_exactly(self):
        assert self._granted(50, 30) == (50, 30)

    def test_idle_peer_diverts_capacity(self):
        assert self._granted(90, 0) == (90, 0)

    def test_partial_diversion_with_active_peer(self):
        assert self._granted(90, 30) == (70, 30)

    def test_conservation_on_random_traces(self):
        rng = random.Random(42)
        for _ in range(300):
            da, db = rng.randint(0, 200), rng.randint(0, 200)
            ga, gb = self._granted(da, db)
            assert ga + gb <= 100
            assert ga >= min(da, 60) and gb >= min(db, 40)
            assert ga <= da and gb <= db

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_three_slice_conservation_property(self, d1, d2, d3):
        sm = SliceManager(
            [decimal_spec("x", "o1", 5, 10), decimal_spec("y", "o2", 3, 10), decimal_spec("z", "o3", 1, 10)]
        )
        physical = fixed_physical(100)
        cls = ResourceClass.WLAN
        demands = demand_map(sm, {"x": {cls: d1}, "y": {cls: d2}, "z": {cls: d3}})
        granted = sm.compute_slice_allocations(demands, sm.entitlements(physical), physical)
        grants = {sid: granted[sid, cls] for sid in ("x", "y", "z")}
        assert sum(grants.values()) <= 100
        for sid, share in (("x", 50), ("y", 30), ("z", 10)):
            demand = demands[sid, cls]
            assert grants[sid] >= min(demand, share)
            assert grants[sid] <= demand

    def test_entitlement_tracks_live_physical(self):
        caps = {cls: 100 for cls in ResourceClass.ALL}
        sm = SliceManager([decimal_spec("a", "op1", 6, 10)])
        assert sm.entitlements(caps)["a", ResourceClass.MACRO] == 60
        caps[ResourceClass.MACRO] = 50
        assert sm.entitlements(caps)["a", ResourceClass.MACRO] == 30


class TestControlStateIsolation:
    def test_slice_state_never_crosses(self):
        env = FogEnv(slices=[decimal_spec("a", "op1", 5, 10), decimal_spec("b", "op2", 5, 10)])
        # u1 -> op1/slice a, u2 -> op2/slice b (round-robin registration)
        assert env.operator_of["u1"] != env.operator_of["u2"]
        assert (env.fog.subscriber("u1").slice_id, env.fog.subscriber("u2").slice_id) == ("a", "b")

        for flow_id, src, slice_id in (("f1", "u1", "a"), ("f2", "u2", "b")):
            decision = env.fog.handle_flow_request(env.spec(flow_id, src, "u3", app_class=VOIP))
            assert decision.accepted and decision.slice_id == slice_id
            assert env.net.flows[flow_id].slice_id == slice_id


# Uneven and decimal slice shares, non-decimal capacities (2.2 Mb/s is the
# case where a unit from one least common multiple leaves a 0.6 share
# fractional), and demands whose denominators differ from both.
SHARES = [F(1, 3), F(2, 7), F(3, 5), F(1, 2), F(1, 10), F(0), F(1)]
CAPACITIES = [F(11, 5), F(7, 3), F(10, 7), F(25, 3), F(100), F(0)]
DEMAND_STEPS = [F(1), F(1, 3), F(1, 10), F(2, 9)]


@st.composite
def slice_cases(draw):
    """Slice specs, per-class capacities (Mb/s) and a few rounds of
    (slice, class) demands (Mb/s) for one fog."""
    count = draw(st.integers(1, 3))
    shares = {sid: {} for sid in "abc"[:count]}
    for cls in ResourceClass.ALL:
        left = F(1)
        for sid in shares:
            shares[sid][cls] = draw(st.sampled_from([share for share in SHARES if share <= left]))
            left -= shares[sid][cls]
    specs = [SliceSpec(sid, f"op-{sid}", per_class) for sid, per_class in shares.items()]
    capacity = {cls: draw(st.sampled_from(CAPACITIES)) * draw(st.integers(1, 3)) for cls in ResourceClass.ALL}
    step = draw(st.sampled_from(DEMAND_STEPS))
    keys = [(sid, cls) for sid in shares for cls in ResourceClass.ALL]
    demands = st.fixed_dictionaries({key: st.integers(0, 120).map(step.__mul__) for key in keys})
    rounds = draw(st.lists(demands, min_size=1, max_size=3))
    return specs, capacity, rounds


def integer_rows(specs, capacity, rounds):
    """The slice report rounds as the simulator writes them: the state's
    unit from every rate and share, capacities and demands as ints in it,
    and one `RateTexts` across the rounds, so its kept texts are reused.
    Also whether the leftover split ran."""
    rates = list(capacity.values()) + [demand for demands in rounds for demand in demands.values()]
    unit = rate_unit(rates, [share for spec in specs for share in spec.shares.values()])
    physical = {cls: in_units(rate, unit) for cls, rate in capacity.items()}
    manager = SliceManager(specs)
    texts = RateTexts(unit)
    entitled = manager.entitlements(physical)
    rows, split = [], False
    for now_ms, demands in enumerate(rounds):
        in_unit = {key: in_units(demand, unit) for key, demand in demands.items()}
        split |= manager.compute_slice_allocations(in_unit, entitled, physical) is not in_unit
        rows.append(slice_rows(now_ms, "f1", manager, texts, physical, entitled, in_unit))
    return rows, split


class TestIntegerSliceRows:
    """The slice report built in integer units equals the one rebuilt in
    `Fraction`s of Mb/s by the oracle allocator and renderer."""

    @given(slice_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    @example(  # 0.6 of 2.2 Mb/s
        (
            [SliceSpec("a", "op-a", {cls: F(3, 5) for cls in ResourceClass.ALL})],
            {cls: F(11, 5) for cls in ResourceClass.ALL},
            [{("a", cls): F(1) for cls in ResourceClass.ALL}],
        )
    )
    def test_rows_match_fraction_oracle(self, case):
        specs, capacity, rounds = case
        rows, _ = integer_rows(specs, capacity, rounds)
        expected = [slice_rows_oracle(now_ms, "f1", specs, capacity, demands) for now_ms, demands in enumerate(rounds)]
        assert rows == expected

    def test_leftover_split_on_uneven_shares(self):
        """Every demand above its entitlement: the split runs two passes
        (b's offer is capped, and a takes the rest; c's share is 0), the
        grants are non-whole units, and the rows still match."""
        shares = {"a": F(1, 3), "b": F(2, 7), "c": F(0)}
        specs = [
            SliceSpec(sid, f"op-{sid}", {cls: share for cls in ResourceClass.ALL}) for sid, share in shares.items()
        ]
        capacity = {cls: F(7, 3) for cls in ResourceClass.ALL}
        per_slice = {"a": F(3), "b": F(3, 4), "c": F(1)}
        demands = {(sid, cls): demand for sid, demand in per_slice.items() for cls in ResourceClass.ALL}
        rows, split = integer_rows(specs, capacity, [demands])
        assert split
        assert rows == [slice_rows_oracle(0, "f1", specs, capacity, demands)]
        assert slice_allocation_oracle(shares, F(7, 3), per_slice) == {"a": F(19, 12), "b": F(3, 4), "c": 0}
        assert rows[0][0].endswith("\t7/9\t3\t19/12")

    def test_entitlement_needs_the_product_of_denominators(self):
        """2.2 Mb/s is 11 units of 1/5 Mb/s, and its 0.6 share, 1.32 Mb/s,
        is 33/5 of them: fractional, so refused, never floored. With the
        shares' denominator multiplied in (5 x 5 = 25 units per Mb/s) it
        is 33 whole units."""
        capacity, share = F(11, 5), F(3, 5)
        assert rate_unit([capacity]) == rate_unit([capacity, share]) == 5
        physical = {cls: in_units(capacity, 5) for cls in ResourceClass.ALL}
        manager = SliceManager([SliceSpec("a", "op-a", {cls: share for cls in ResourceClass.ALL})])
        with pytest.raises(ValueError, match="not a whole number"):
            manager.entitlements(physical)["a", ResourceClass.WLAN]
        unit = rate_unit([capacity], [share])
        assert unit == 25
        physical.update({cls: in_units(capacity, unit) for cls in ResourceClass.ALL})
        assert manager.entitlements(physical)["a", ResourceClass.WLAN] == 33
        assert rate_str(33, unit) == "1.32"

    @given(st.fractions(max_denominator=10**6), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rate_str_of_units_matches_oracle_renderer(self, x, unit):
        assert rate_str(x, unit) == rate_text(x / unit)
        assert rate_str(x) == rate_text(x)
        assert rate_str(x.numerator * unit, unit * x.denominator) == rate_text(x)

    def test_rate_texts_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(RateTexts, "LIMIT", 2)
        texts = RateTexts(unit=4)
        assert [texts[x] for x in (1, 2, 3, 1, F(1, 3))] == ["0.25", "0.5", "0.75", "0.25", "1/12"]
        assert len(texts) <= 2
