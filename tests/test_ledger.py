"""Differential test of NetworkState's incremental ledgers.

Random sequences of sliced GBR, unsliced (control-overhead) GBR and
best-effort installs and removals, interleaved with link and node
up/down changes (at least as likely to bring an element Up as to take
one Down, so installs keep landing), over two fogs with two slices; some
paths cross both fogs through the gateway. After every step the guaranteed-rate ledger,
the health ledger (`_down`), each fog's sliceable capacity
(`_sliceable`, `physical_capacity()`), the per-(fog, slice, class)
guarantee and demand ledgers and the fogs' entitlements are checked
against from-scratch recounts, and admission against the independent
oracles.
"""

import random
from fractions import Fraction

import pytest

from fognet.dataplane import FlowPath, GbrOvercommit, InstalledFlow, NetworkState, RouteKind
from fognet.slicing import SliceSpec
from fognet.topology import ResourceClass, build_from_config
from helpers import flow_units, two_fog_doc, wired_fogs
from oracles import FlowRates, OracleFlow, _metered_in, _slice_cap_ok, _up, maxmin_oracle

F = Fraction
SLICES = (("s1", "op1", F(3, 5)), ("s2", "op2", F(2, 5)))


def _paths():
    """Hop lists inside each fog, plus inter-fog paths over the gateway."""
    out = []
    for f in ("f1", "f2"):
        for u in ("u1", "u2"):
            wlan = [(f"{f}-{u}", f"wl-{f}-{u}"), (f"wap-{f}", f"in-{f}-wap"), (f"mmc-{f}", f"mm-{f}"), (f"mmap-{f}", f"in-{f}-mmap")]
            out.append(wlan + [(f"pop-{f}", f"bh-{f}")])
            out.append(wlan)
            out.append([(f"{f}-{u}", f"ma-{f}-{u}"), (f"macro-{f}", f"in-{f}-macro"), (f"pop-{f}", f"bh-{f}")])
            out.append([(f"{f}-{u}", f"ma-{f}-{u}")])
        out.append([(f"{f}-u1", f"wl-{f}-u1"), (f"wap-{f}", f"wl-{f}-u2")])
    out.append([("f1-u1", "ma-f1-u1"), ("macro-f1", "in-f1-macro"), ("pop-f1", "bh-f1"), ("gw", "bh-f2")])
    out.append([("pop-f2", "bh-f2"), ("gw", "bh-f1")])
    return out


def _build():
    # the denominators of the random demands and guarantees below, and the slice shares
    net = NetworkState(
        build_from_config(two_fog_doc()), [F(1, 2), F(1, 3), F(1, 4)], [share for _, _, share in SLICES]
    )
    specs = [SliceSpec(sid, operator, dict.fromkeys(ResourceClass.ALL, share)) for sid, operator, share in SLICES]
    return net, wired_fogs(net, specs)


def _flow(net, fid, hops, demand, gbr, slice_id, rates=None):
    """A flow over `hops`; its rates in Mb/s go to `rates`, when given."""
    path = FlowPath(src=hops[0][0], dst="x", hops=tuple(hops), rat_used=RouteKind.INTRA_FOG_LOCAL)
    if rates is not None:
        rates[fid] = FlowRates(demand, gbr)
    return InstalledFlow(fid, path, slice_id, 0.0, *flow_units(net, demand, gbr))


def _physical_recount(net, rates, fog_id):
    """Each class's sliceable capacity in the network state's units, the
    installed flows' guarantees read from `rates`."""
    topo = net.topology
    out = {cls: F(0) for cls in ResourceClass.ALL}
    for lid, link in topo.links.items():
        cls = _metered_in(topo, fog_id, lid)
        if cls is None or not _up(net, lid):
            continue
        out[cls] += link.capacity
        for fid, flow in net.flows.items():
            gbr = rates[fid].gbr
            if flow.slice_id is None and gbr > 0 and lid in flow.path.links():
                out[cls] -= gbr
    return {cls: total * net.unit for cls, total in out.items()}


def _check(net, rates, fogs, rng, paths, seen):
    """Every ledger against its recount from the flows, whose rates in Mb/s
    are `rates`, and admission and allocation against the oracles."""
    topo = net.topology
    for lid, link in topo.links.items():
        gbr = sum((rates[fid].gbr * f.path.links().count(lid) for fid, f in net.flows.items()), F(0))
        assert net.capacity_units(lid) - net.residual_units(lid) == gbr * net.unit
        assert net.residual_units(lid) == (link.capacity - gbr) * net.unit
        assert net.capacity_units(lid) == link.capacity * net.unit
    assert net._down == {lid for lid in topo.links if not _up(net, lid)}
    for fog_id in fogs:
        for slice_id, _, _ in SLICES:
            for cls in ResourceClass.ALL:
                used = demand = F(0)
                for fid, f in net.flows.items():
                    if f.slice_id != slice_id:
                        continue
                    listed = sum(1 for lid in f.path.links() if _metered_in(topo, fog_id, lid) == cls)
                    used += rates[fid].gbr * listed
                    if listed:
                        demand += rates[fid].gbr or rates[fid].demand
                assert net.slice_gbr_units(fog_id, slice_id, cls) == used * net.unit
                assert net.slice_demand_units(fog_id, slice_id, cls) == demand * net.unit

    for fog_id, fog in fogs.items():
        physical = fog.physical_capacity()
        assert physical == _physical_recount(net, rates, fog_id)
        assert {cls: net.fog_sliceable_units(fog_id, cls) for cls in ResourceClass.ALL} == physical
        assert fog.entitlements() == {
            (slice_id, cls): share * physical[cls] for slice_id, _, share in SLICES for cls in ResourceClass.ALL
        }
        seen.add(("physical", fog_id, tuple(physical[c] for c in ResourceClass.ALL)))
        for _ in range(4):
            hops = rng.choice(paths)
            links = [lid for _, lid in hops]
            slice_id = rng.choice(SLICES)[0]
            gbr = F(rng.randint(1, 160), 4)  # up to 40 Mb/s: often at an entitlement
            ok = fog.slice_gbr_ok(slice_id, links, net.units(gbr))
            assert ok == _slice_cap_ok(fog, rates, slice_id, links, gbr)
            seen.add(("slice_gbr_ok", ok))

    # a forced overcommit on an Up link, if one is left, still raises from recompute()
    up = sorted(lid for lid in topo.links if net.effective_up(lid))
    if up:
        lid = rng.choice(up)
        over = _flow(net, "overcommit", [(topo.links[lid].a, lid)], F(0), F(net.residual_units(lid), net.unit) + 1, "s1")
        net.install_flow(over)
        with pytest.raises(GbrOvercommit) as raised:
            net.recompute()
        assert raised.value.link_id == lid
        net.remove_flow("overcommit")
        seen.add(("overcommit", True))

    net.recompute()
    capacity = {lid: link.capacity for lid, link in topo.links.items()}
    oracle = maxmin_oracle([OracleFlow(fid, f.links, *rates[fid]) for fid, f in net.flows.items()], capacity)
    for fid in net.flows:
        assert net.allocated(fid) == oracle[fid]
    for lid in capacity:
        assert net.load_units(lid) == sum(
            (oracle[f.flow_id] for f in net.flows.values() if lid in f.links), F(0)
        ) * net.unit
    seen.add(("congested", bool(net._congested)))


def _to_flip(rng, elements, up):
    """A link or node to flip, chosen so that the walk does not drift Down:
    half the time a Down one if any, else any one, so an Up flip is at
    least as likely as a Down flip."""
    down = [e for e in elements if not up[e]]
    if down and rng.random() < 0.5:
        return rng.choice(down)
    return rng.choice(elements)


@pytest.mark.parametrize("seed", [3, 17])
def test_ledger_matches_recounts_and_oracles(seed):
    net, fogs = _build()
    rng = random.Random(seed)
    paths = _paths()
    topo = net.topology
    health_links = sorted(topo.links)
    health_nodes = sorted(n for n in topo.nodes if not n.startswith(("f1-u", "f2-u")))
    seen = set()
    rates = {}  # flow id -> its rates in Mb/s
    serial = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.1:
            lid = _to_flip(rng, health_links, net.link_up)
            net.set_link_state(lid, not net.link_up[lid])
        elif roll < 0.15:
            node = _to_flip(rng, health_nodes, net.node_up)
            net.set_node_state(node, not net.node_up[node])
        elif roll < 0.5 and net.flows:
            flow = net.remove_flow(rng.choice(sorted(net.flows)))
            if flow.slice_id is None and rates[flow.flow_id].gbr > 0:
                seen.add(("unsliced_removed", all(net.effective_up(lid) for lid in flow.links)))
        else:
            hops = rng.choice(paths)
            if all(net.effective_up(lid) for _, lid in hops):
                serial += 1
                kind = rng.choice(("sliced", "sliced", "unsliced", "best_effort", "best_effort"))
                if kind == "best_effort":
                    demand = F(rng.randint(1, 40), rng.choice([1, 2, 3]))
                    slice_id = rng.choice(["s1", "s2", None])
                    net.install_flow(_flow(net, f"f{serial}", hops, demand, F(0), slice_id, rates))
                else:
                    gbr = F(rng.randint(1, 8), 4)
                    if all(net.residual_units(lid) >= net.units(gbr) for _, lid in hops):
                        slice_id = rng.choice(["s1", "s2"]) if kind == "sliced" else None
                        net.install_flow(_flow(net, f"f{serial}", hops, gbr, gbr, slice_id, rates))
        _check(net, rates, fogs, rng, paths, seen)

    # both admission outcomes, both allocation paths and several capacity
    # states were exercised
    assert ("slice_gbr_ok", True) in seen and ("slice_gbr_ok", False) in seen
    assert ("congested", True) in seen and ("congested", False) in seen
    assert len({key for key in seen if key[0] == "physical"}) > 4
    assert ("unsliced_removed", True) in seen  # an unsliced guarantee left Up links
    assert ("overcommit", True) in seen


def test_unsliced_guarantee_released_while_its_link_is_down():
    """A Down link's capacity leaves its fog's sliceable capacity whatever
    it carries; an unsliced guarantee released meanwhile changes nothing
    there, and the link's return brings back its whole capacity."""
    net, fogs = _build()
    unit = net.unit
    mm = ResourceClass.MIDDLE_MILE
    hops = _paths()[1]  # f1-u1 over WLAN to the PoP, through mm-f1
    full = fogs["f1"].physical_capacity()[mm]
    net.install_flow(_flow(net, "ctl", hops, F(1, 2), F(1, 2), None))
    assert net.fog_sliceable_units("f1", mm) == full - unit // 2
    net.set_link_state("mm-f1", False)
    assert net.fog_sliceable_units("f1", mm) == 0
    net.remove_flow("ctl")
    assert net.fog_sliceable_units("f1", mm) == 0
    net.set_node_state("mmc-f1", False)  # the link is Down twice over
    net.set_link_state("mm-f1", True)
    assert net.fog_sliceable_units("f1", mm) == 0 and "mm-f1" in net._down
    net.set_node_state("mmc-f1", True)
    assert net.fog_sliceable_units("f1", mm) == full and not net._down
    assert fogs["f1"].physical_capacity()[mm] == full
    assert net.fog_sliceable_units("f2", mm) == full  # the other fog never moved


def test_capacity_drop_alone_can_leave_a_slice_over_its_entitlement():
    """Why the entitlement invariant is checked at each admission, not
    after every event: a Down link lowers its fog's entitlement and moves
    no guarantee, so admitted guarantees can stand above it."""
    net, fogs = _build()
    wlan = ResourceClass.WLAN
    assert fogs["f1"].entitlements()["s1", wlan] == 30 * net.unit  # 3/5 of 2 x 25
    assert fogs["f1"].slice_gbr_ok("s1", ["wl-f1-u1"], net.units(F(20)))
    net.install_flow(_flow(net, "g", [("f1-u1", "wl-f1-u1")], F(20), F(20), "s1"))
    net.set_link_state("wl-f1-u2", False)
    assert fogs["f1"].entitlements()["s1", wlan] == 15 * net.unit
    assert net.slice_gbr_units("f1", "s1", wlan) == 20 * net.unit
