"""Cloud-side control: the dispatch of every flow request, arrival or
re-decision (`CloudControl.decide`), external and inter-fog paths, fog
state sync, isolation detection.

A fog is isolated exactly when all of its backhaul links are down. While
isolated, its cloud-crossing flows are torn down, local flows continue
untouched, and control-state updates queue as deltas; on reconnect a sync
round drains the queue into the cloud replicas, last writer (by event
time) winning.

The cloud runs on the simulation's engine: it stamps transitions and
updates with `engine.now()`, and a connected fog's update, like the sync
round after a reconnect, lands as a control message one round trip later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .dataplane import InstalledFlow, NoRoute, RouteKind, reverse_hops
from .engine import Engine, EventKind
from .fogctrl import REFUSALS, Attachment, Candidate, EndpointKind, FlowDecision, FlowSpec, RejectReason, refusal


class FogIsolated(Exception):
    def __init__(self, fog_id: str):
        super().__init__(f"fog {fog_id} is isolated from the cloud")
        self.fog_id = fog_id


@dataclass(frozen=True)
class ContextDelta:
    """One queued control-state update from a fog."""

    time_ms: int
    fog_id: str
    user_id: str
    attachment: Attachment


class CloudControl:
    """Core-network control plane over all fogs of a scenario."""

    def __init__(self, net, engine: Engine, rtt_ms: int = 20):
        self.net = net
        self.engine = engine
        self.rtt_ms = rtt_ms
        self.fogs: Dict[str, object] = {}
        self.user_fog: Dict[str, str] = {}
        self._connected: Dict[str, bool] = {}
        self.transitions: List[Tuple[int, str, str]] = []
        # per fog, the updates queued while it is isolated, in time order:
        # each is queued at `engine.now()`
        self.pending: Dict[str, List[ContextDelta]] = {}
        self.context_replica: Dict[str, Tuple[Attachment, int]] = {}
        self.on_flow_terminated: Optional[Callable[[InstalledFlow, RejectReason], None]] = None
        engine.on(EventKind.CONTROL_MESSAGE, self._handle_control_message)

    # -- registration -------------------------------------------------------

    def register_fog(self, fog) -> None:
        self.fogs[fog.fog_id] = fog
        self.pending[fog.fog_id] = []
        state = self._derive_connected(fog.fog_id)
        self._connected[fog.fog_id] = state
        self.transitions.append((self.engine.now(), fog.fog_id, "Connected" if state else "Isolated"))

    def register_user(self, user_id: str, fog_id: str, attachment: Attachment) -> None:
        self.user_fog[user_id] = fog_id
        self.context_replica[user_id] = (attachment, self.engine.now())

    def fog_of_user(self, user_id: str) -> Optional[str]:
        return self.user_fog.get(user_id)

    # -- connectivity ---------------------------------------------------------

    def _derive_connected(self, fog_id: str) -> bool:
        links = self.net.topology.backhaul_links(fog_id)
        return any(self.net.effective_up(l.id) for l in links)

    def is_connected(self, fog_id: str) -> bool:
        return self._connected[fog_id]

    def on_backhaul_change(self, fog_id: str) -> bool:
        """React to a transition of one of the fog's backhaul links, which
        isolates the fog when it leaves none of them Up; returns whether
        this isolated the fog. A reconnect schedules the sync round one
        round trip later."""
        now = self.engine.now()
        state = self._derive_connected(fog_id)
        if state == self._connected[fog_id]:
            return False
        self._connected[fog_id] = state
        self.transitions.append((now, fog_id, "Connected" if state else "Isolated"))
        if not state:
            self._terminate_cloud_flows(fog_id)
        else:
            self.engine.schedule(
                now + self.rtt_ms, EventKind.CONTROL_MESSAGE, subjects=(fog_id,), payload={"op": "sync", "fog": fog_id}
            )
        return not state

    def _terminate_cloud_flows(self, fog_id: str) -> None:
        crossing = set()
        for lid in self.net.topology.fog_domain(fog_id).backhaul_ids:
            crossing.update(self.net.flows_on_link(lid))
        for fid in sorted(crossing):
            self.report_termination(self.net.remove_flow(fid), RejectReason.FOG_ISOLATED)

    def report_termination(self, flow: InstalledFlow, reason: RejectReason) -> None:
        """Pass a flow torn down by isolation or re-decision to the hook."""
        if self.on_flow_terminated is not None:
            self.on_flow_terminated(flow, reason)

    # -- state synchronization --------------------------------------------------

    def push_context_update(self, fog_id: str, user_id: str, attachment: Attachment) -> None:
        """Send the user's new attachment, stamped now, to the cloud
        replica: it lands one round trip later, or queues while the fog is
        isolated."""
        now = self.engine.now()
        delta = ContextDelta(now, fog_id, user_id, attachment)
        if self.is_connected(fog_id):
            self.engine.schedule(
                now + self.rtt_ms,
                EventKind.CONTROL_MESSAGE,
                subjects=(fog_id, user_id),
                payload={"op": "delta", "delta": delta},
            )
        else:
            self.pending[fog_id].append(delta)

    def _apply_delta(self, delta: ContextDelta) -> None:
        current = self.context_replica.get(delta.user_id)
        if current is None or delta.time_ms >= current[1]:
            self.context_replica[delta.user_id] = (delta.attachment, delta.time_ms)
            self.user_fog[delta.user_id] = delta.fog_id

    def sync_fog_state(self, fog_id: str) -> None:
        pending = self.pending[fog_id]
        if not self.is_connected(fog_id):
            raise FogIsolated(fog_id)
        for delta in pending:
            self._apply_delta(delta)
        pending.clear()

    def _handle_control_message(self, event) -> None:
        payload = event.payload or {}
        op = payload.get("op")
        if op == "sync":
            fog_id = payload["fog"]
            if self.is_connected(fog_id):
                self.sync_fog_state(fog_id)
            # a fog that re-isolated before the sync landed keeps its queue
        elif op == "delta":
            self._apply_delta(payload["delta"])

    # -- path setup ----------------------------------------------------------------

    def decide(self, spec: FlowSpec) -> FlowDecision:
        """Decide a request, or re-decide an installed flow: an external
        flow, or one between users of two fogs, takes a cloud path; any
        other flow is decided by its source user's fog. A source user no
        fog holds is refused."""
        src_fog = self.fog_of_user(spec.src.ident) if spec.src.kind == EndpointKind.USER else None
        if src_fog is None:
            return FlowDecision.rejected(spec.flow_id, RejectReason.NO_COVERAGE, note="unknown source")
        if spec.dst.kind == EndpointKind.EXTERNAL:
            return self.setup_external_path(spec)
        if spec.dst.kind == EndpointKind.USER:
            dst_fog = self.fog_of_user(spec.dst.ident)
            if dst_fog is not None and dst_fog != src_fog:
                return self.setup_interfog_path(spec)
        return self.fogs[src_fog].handle_flow_request(spec)

    def setup_external_path(self, spec: FlowSpec) -> FlowDecision:
        """External-network flow from a located user (`decide`): fog access
        segment plus backhaul egress."""
        fog_id = self.user_fog[spec.src.ident]
        if not self.is_connected(fog_id):
            return FlowDecision.rejected(spec.flow_id, RejectReason.FOG_ISOLATED)
        return self.fogs[fog_id].handle_flow_request(spec)

    def setup_interfog_path(self, spec: FlowSpec) -> FlowDecision:
        """Flow between located users of two fogs (`decide`) hairpinning
        through the cloud gateway: one candidate per pair of halves, source
        major, a half being a user's kept candidate from one of its Up
        access options (`access_options`) to its own fog's PoP
        (`fixed_candidates`). It is routable without headroom when some
        pair, as it is, repeats no node and both fogs have a backhaul Up."""
        src, dst = spec.src.ident, spec.dst.ident
        fa_id, fb_id = self.user_fog[src], self.user_fog[dst]
        fa, fb = self.fogs[fa_id], self.fogs[fb_id]
        for fog_id in (fa_id, fb_id):
            if not self.is_connected(fog_id):
                return FlowDecision.rejected(spec.flow_id, RejectReason.FOG_ISOLATED, note=fog_id)

        try:
            grant, slice_a = fa.classify_flow(spec)
        except REFUSALS as exc:
            return refusal(spec.flow_id, exc)
        need = grant.units
        setup_ms = fa.control_latency_ms() + fb.control_latency_ms()

        src_sub, dst_sub = fa.subscriber(src), fb.subscriber(dst)
        src_options, dst_options = fa.access_options(src_sub), fb.access_options(dst_sub)
        if not src_options or not dst_options:
            return FlowDecision.rejected(spec.flow_id, RejectReason.NO_COVERAGE, setup_ms=setup_ms)
        src_halves = fa.fixed_candidates(src, src_options, fa.pop, RouteKind.INTRA_FOG_LOCAL, "cache")
        dst_halves = fb.fixed_candidates(dst, dst_options, fb.pop, RouteKind.INTRA_FOG_LOCAL, "cache")
        backhauls = (self._pick_backhaul(fa_id, need), self._pick_backhaul(fb_id, need))
        open_at_zero = all(self._pick_backhaul(fog_id, 0) for fog_id in (fa_id, fb_id))
        gateway = self.net.topology.gateway_id()

        candidates: List[Candidate] = []
        structural = False
        for a in src_halves:
            for b in dst_halves:
                hops = self._build_interfog(fa, fb, a, b, backhauls, need, slice_a)
                if hops is not None:
                    structural = True
                    used = a.access_used + b.access_used
                    label = f"{a.access_used[0][1]}+{b.access_used[0][1]}"
                    candidates.append(Candidate(label, hops, dst, RouteKind.CLOUD_BOUND, used))
                elif open_at_zero and not structural:
                    nodes = (*a.nodes, gateway, *b.nodes)
                    structural = len(set(nodes)) == len(nodes)
        mobile_of = {src: src_sub.mobile, dst: dst_sub.mobile}
        return fa.conclude(
            spec, candidates, structural, (grant, slice_a), setup_ms,
            prefer_local=False, mobile_of=mobile_of,
        )

    def _build_interfog(
        self, fa, fb, half_a, half_b, backhauls, need, slice_id
    ) -> Optional[Tuple[Tuple[str, str], ...]]:
        """The hops through the gateway over the halves, given `need` units
        of headroom (`_with_headroom`, and `backhauls` have it), within
        the entitlement of the source user's slice in each fog, or None.
        The flow is that slice's in both fogs: each fog checks it on the
        links of the path it meters."""
        bh_a, bh_b = backhauls
        if bh_a is None or bh_b is None:
            return None
        try:
            seg_a = fa._with_headroom(half_a.hops, half_a.nodes[0], fa.pop, need, False)
            seg_b = fb._with_headroom(half_b.hops, half_b.nodes[0], fb.pop, need, False)
        except NoRoute:
            return None
        hops = (*seg_a, (fa.pop, bh_a), (self.net.topology.gateway_id(), bh_b), *reverse_hops(seg_b, fb.pop))
        links = [lid for _, lid in hops]
        if not (fa.slice_gbr_ok(slice_id, links, need) and fb.slice_gbr_ok(slice_id, links, need)):
            return None
        # guard against degenerate same-fog calls producing node repeats
        nodes = [n for n, _ in hops] + [half_b.nodes[0]]
        if len(set(nodes)) != len(nodes):
            return None
        return hops

    def _pick_backhaul(self, fog_id: str, need: int) -> Optional[str]:
        """The fog's lowest-id Up backhaul with `need` units of headroom, if any."""
        for link in self.net.topology.backhaul_links(fog_id):
            if self.net.effective_up(link.id) and self.net.residual_units(link.id) >= need:
                return link.id
        return None

    # -- export ---------------------------------------------------------------------

    def connectivity_rows(self) -> List[str]:
        return [f"{t}\t{fog}\t{state}" for t, fog, state in self.transitions]
