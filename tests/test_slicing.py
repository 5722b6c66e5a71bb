import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fognet.slicing import (
    DuplicateOperator,
    ShareOvercommit,
    SliceManager,
    SliceSpec,
)
from fognet.topology import ResourceClass
from helpers import VOIP, FogEnv

F = Fraction


def fixed_physical(amount=100):
    caps = {cls: F(amount) for cls in ResourceClass.ALL}
    return lambda: dict(caps)


def spec(sid, op, share):
    return SliceSpec(slice_id=sid, operator=op, shares={cls: F(share) for cls in ResourceClass.ALL})


def decimal_spec(sid, op, num, den):
    return SliceSpec(slice_id=sid, operator=op, shares={cls: F(num, den) for cls in ResourceClass.ALL})


class TestCreateSlice:
    def test_full_share_entitlement_equals_physical(self):
        sm = SliceManager(physical=fixed_physical(100))
        sm.create_slice(spec("s1", "op1", 1))
        for cls in ResourceClass.ALL:
            assert sm.entitled("s1", cls) == 100

    def test_overcommit_rejected(self):
        sm = SliceManager(physical=fixed_physical())
        sm.create_slice(decimal_spec("s1", "op1", 6, 10))
        with pytest.raises(ShareOvercommit):
            sm.create_slice(decimal_spec("s2", "op2", 5, 10))

    def test_duplicate_operator_rejected(self):
        sm = SliceManager(physical=fixed_physical())
        sm.create_slice(decimal_spec("s1", "op1", 3, 10))
        with pytest.raises(DuplicateOperator):
            sm.create_slice(decimal_spec("s2", "op1", 3, 10))

    def test_entitlement_split(self):
        sm = SliceManager(physical=fixed_physical(100))
        sm.create_slice(decimal_spec("a", "op1", 6, 10))
        sm.create_slice(decimal_spec("b", "op2", 4, 10))
        assert sm.entitled("a", ResourceClass.MACRO) == 60
        assert sm.entitled("b", ResourceClass.MACRO) == 40

    def test_racf_instances_created_per_slice(self):
        env = FogEnv(slices=[decimal_spec("a", "op1", 6, 10), decimal_spec("b", "op2", 4, 10)])
        assert set(env.fog.racfs) == {"a", "b"}
        assert env.fog.racfs["a"] is not env.fog.racfs["b"]


class TestComputeAllocations:
    def setup_method(self):
        self.sm = SliceManager(physical=fixed_physical(100))
        self.sm.create_slice(decimal_spec("a", "op1", 6, 10))
        self.sm.create_slice(decimal_spec("b", "op2", 4, 10))

    def _granted(self, da, db, cls=ResourceClass.MACRO):
        runtimes = self.sm.compute_slice_allocations(
            {"a": {cls: F(da)}, "b": {cls: F(db)}}, self.sm.entitlements()
        )
        return runtimes["a"].per_class[cls].granted, runtimes["b"].per_class[cls].granted

    def test_within_entitlement_granted_exactly(self):
        assert self._granted(50, 30) == (50, 30)

    def test_idle_peer_diverts_capacity(self):
        assert self._granted(90, 0) == (90, 0)

    def test_partial_diversion_with_active_peer(self):
        assert self._granted(90, 30) == (70, 30)

    def test_conservation_on_random_traces(self):
        rng = random.Random(42)
        for _ in range(300):
            da, db = F(rng.randint(0, 200)), F(rng.randint(0, 200))
            ga, gb = self._granted(da, db)
            assert ga + gb <= 100
            assert ga >= min(da, F(60)) and gb >= min(db, F(40))
            assert ga <= da and gb <= db

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_three_slice_conservation_property(self, d1, d2, d3):
        sm = SliceManager(physical=fixed_physical(100))
        sm.create_slice(decimal_spec("x", "o1", 5, 10))
        sm.create_slice(decimal_spec("y", "o2", 3, 10))
        sm.create_slice(decimal_spec("z", "o3", 1, 10))
        cls = ResourceClass.WLAN
        runtimes = sm.compute_slice_allocations(
            {"x": {cls: F(d1)}, "y": {cls: F(d2)}, "z": {cls: F(d3)}}, sm.entitlements()
        )
        grants = {sid: runtimes[sid].per_class[cls].granted for sid in ("x", "y", "z")}
        assert sum(grants.values()) <= 100
        for sid, share in (("x", F(50)), ("y", F(30)), ("z", F(10))):
            demand = runtimes[sid].per_class[cls].demand
            assert grants[sid] >= min(demand, share)
            assert grants[sid] <= demand

    def test_entitlement_tracks_live_physical(self):
        caps = {cls: F(100) for cls in ResourceClass.ALL}
        sm = SliceManager(physical=lambda: dict(caps))
        sm.create_slice(decimal_spec("a", "op1", 6, 10))
        assert sm.entitled("a", ResourceClass.MACRO) == 60
        caps[ResourceClass.MACRO] = F(50)
        assert sm.entitled("a", ResourceClass.MACRO) == 30


class TestControlStateIsolation:
    def test_slice_state_never_crosses(self):
        env = FogEnv(slices=[decimal_spec("a", "op1", 5, 10), decimal_spec("b", "op2", 5, 10)])
        # u1 -> op1/slice a, u2 -> op2/slice b (round-robin registration)
        assert env.operator_of["u1"] != env.operator_of["u2"]
        racf_a = env.fog.racfs["a"]
        racf_b = env.fog.racfs["b"]
        assert "u1" in racf_a.user_records and "u1" not in racf_b.user_records
        assert "u2" in racf_b.user_records and "u2" not in racf_a.user_records

        decision = env.fog.handle_flow_request(env.spec("f1", "u1", "u3", app_class=VOIP))
        assert decision.accepted and decision.slice_id == "a"
        assert env.net.flows["f1"].slice_id == "a"
        assert racf_a.charging.get(VOIP) == 1
        assert racf_b.charging == {}
        assert "u1" not in racf_b.contexts
