"""Scenario execution: wiring, event handlers, trace and metrics output.

One `Simulation` owns one engine instance; replicas run as separate
instances. Every output byte is a function of (config, seed).

Link and node faults share one handler (`_on_fault`). Each WLAN AP's
control-overhead flow lies on its fog's memoized mesh segment to the PoP
(`FogControl.segment`), which the fog keeps exact across health changes,
so a fault moves only the control flows whose segment it changed.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import yaml

from .cloudctrl import CloudControl
from .dataplane import (
    AddressPool,
    FlowPath,
    InstalledFlow,
    LruCache,
    NetworkState,
    PoolExhausted,
    RouteKind,
)
from .engine import Engine, Event, EventKind
from .fogctrl import (
    Attachment,
    CloudUnreachable,
    Endpoint,
    EndpointKind,
    FlowDecision,
    FlowSpec,
    FogControl,
    QosClass,
    RejectReason,
    UserRecord,
    latency_sum,
)
from .metrics import MetricsCollector, MetricsRecord
from .scenario import ScenarioConfig
from .slicing import RateTexts, slice_rows
from .topology import LinkClass, NodeKind
from .util import fmt6
from .workload import (
    FaultEvent,
    FlowRequest,
    Relocation,
    assign_mobility,
    generate_faults,
    generate_relocations,
    generate_workload,
)

OUTPUT_FILES = ("metrics.tsv", "decisions.log", "events.log", "connectivity.log", "slices.tsv", "run.log")

# each decision row field's enum member as its text, and None as "-"
VALUE_TEXT = {None: "-", **{member: member.value for kind in (RejectReason, RouteKind, QosClass) for member in kind}}

DECISION_HEADER = (
    "time_ms\tflow\tclass\tsrc\tdst\tstatus\treason\trat\tslice\tqos\t"
    "discriminator\tcandidates\tsetup_ms\tlatency_ms\tnote\tpath\treroute"
)


class Simulation:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.engine = Engine()
        # the unit covers every rate a flow of this scenario can hold, and
        # makes every share of a sum of them whole
        self.net = NetworkState(
            config.topology,
            [spec.demand for spec in config.workload.classes.values()]
            + [rule.gbr_rate for rule in config.policy.values()]
            + [config.wlan_control_overhead],
            [share for spec in config.slices for share in spec.shares.values()],
        )
        self.metrics = MetricsCollector(self.net)
        self.cloud = CloudControl(self.net, self.engine, rtt_ms=config.cloud_rtt_ms)
        self.cloud.on_flow_terminated = self._on_terminated
        self.decision_rows: List[str] = [DECISION_HEADER]
        self.slice_rows: List[str] = ["time_ms\tfog\tslice\tresource\tentitled\tdemand\tgranted"]
        self.fogs: Dict[str, FogControl] = {}
        # the decision rows' endpoint texts, per kind and id (`_endpoint_text`)
        self._end_text: Dict[EndpointKind, Dict[Optional[str], str]] = {kind: {} for kind in EndpointKind}

        topo = config.topology
        for index, fog_id in enumerate(topo.fogs()):
            fc = config.fogs[fog_id]
            profile = fc.profile
            cache = LruCache(fc.cache_capacity) if profile.cache_in_fog else None
            dhcp = AddressPool(fog_id, fc.address_pool, subnet_index=index) if profile.dhcp_in_fog else None
            fog = FogControl(
                fog_id=fog_id,
                profile=profile,
                net=self.net,
                slices=config.slices,
                policy=config.policy,
                cache=cache,
                dhcp=dhcp,
                cloud_rtt_ms=config.cloud_rtt_ms,
            )
            fog.on_terminate = self._on_terminated
            self.cloud.register_fog(fog)
            self.fogs[fog_id] = fog
        self._slice_texts = RateTexts(self.net.unit)

        self._register_subscribers()
        self._route_control_overhead()

        self.mobile_flags = assign_mobility(config.workload, topo, config.seed)
        for user, mobile in self.mobile_flags.items():
            fog = self.fogs[topo.fog_of(user)]
            if fog.has_user(user):
                fog.context_of(user).mobile = mobile

        for request in generate_workload(config.workload, topo, config.seed, config.duration_ms):
            self.engine.schedule(
                request.time_ms, EventKind.FLOW_ARRIVAL, subjects=(request.flow_id,), payload=request
            )
        for relocation in generate_relocations(
            config.workload, topo, self.mobile_flags, config.seed, config.duration_ms
        ):
            self.engine.schedule(
                relocation.time_ms,
                EventKind.HANDOVER_TRIGGER,
                subjects=(relocation.user,),
                payload=relocation,
            )
        for fault in generate_faults(config.faults, topo, config.seed, config.duration_ms):
            kind = EventKind.LINK_STATE_CHANGE if fault.kind == "link" else EventKind.NODE_STATE_CHANGE
            self.engine.schedule(
                fault.time_ms, kind, subjects=(fault.subject, "Up" if fault.up else "Down"), payload=fault
            )
        tick = config.metrics_tick_ms
        for t in range(tick, config.duration_ms + 1, tick):
            self.engine.schedule(t, EventKind.METRICS_TICK)

        self.engine.on(EventKind.FLOW_ARRIVAL, self._on_flow_arrival)
        self.engine.on(EventKind.FLOW_DEPARTURE, self._on_flow_departure)
        self.engine.on(EventKind.LINK_STATE_CHANGE, self._on_fault)
        self.engine.on(EventKind.NODE_STATE_CHANGE, self._on_fault)
        self.engine.on(EventKind.HANDOVER_TRIGGER, self._on_handover)
        self.engine.on(EventKind.METRICS_TICK, self._on_tick)

        self._after_change(0)
        self._emit_slice_rows(0)

    # -- setup ------------------------------------------------------------

    def _register_subscribers(self) -> None:
        config = self.config
        topo = config.topology
        operators = [s.operator for s in config.slices]
        override_by_user = {o.user: o for o in config.subscribers.overrides}
        users = [n.id for n in topo.nodes_of_kind(NodeKind.USER)]
        for i, user in enumerate(users):
            override = override_by_user.get(user)
            operator = (
                override.operator
                if override is not None and override.operator is not None
                else operators[i % len(operators)]
            )
            allowed = (
                override.allowed_classes
                if override is not None and override.allowed_classes is not None
                else config.subscribers.allowed_classes
            )
            max_gbr = (
                override.max_gbr
                if override is not None and override.max_gbr is not None
                else config.subscribers.max_gbr
            )
            record = UserRecord(
                user_id=user,
                token=f"tok-{user}",
                operator=operator,
                allowed_classes=frozenset(allowed),
                max_gbr=max_gbr,
            )
            fog_id = topo.fog_of(user)
            fog = self.fogs[fog_id]
            cluster = topo.cluster_of_user(user)
            has_wlan = cluster is not None and topo.wlan_link(user, cluster) is not None
            attachment = Attachment(
                wlan_cluster=cluster if has_wlan else None,
                macro=topo.macro_link(user) is not None,
            )
            fog.register_user(record, attachment)
            self.cloud.register_user(user, fog_id, attachment)
            try:
                fog.authenticate_user(user, record.token)
            except CloudUnreachable:
                continue  # isolated at start with remote subscriber DB
            if fog.dhcp is not None:
                try:
                    fog.dhcp.assign(user, authenticated=True)
                except PoolExhausted:
                    pass

    def _route_control_overhead(self) -> None:
        """WLAN controller <-> AP keepalive load riding the middle mile: per
        AP an unsliced flow `ctl-<ap>` guaranteed the overhead rate on the
        AP's segment to the PoP. A flow whose segment is unchanged stays; one
        whose AP has no route is removed; any other moves to its segment."""
        rate = self.config.wlan_control_overhead
        if rate <= 0:
            return
        net = self.net
        for ap in net.topology.nodes_of_kind(NodeKind.WLAN_AP):
            fog = self.fogs[ap.fog]
            hops = fog.segment(ap.id, fog.pop, False)
            flow_id = f"ctl-{ap.id}"
            flow = net.flows.get(flow_id)
            if flow is not None:
                if flow.path.hops == hops:
                    continue
                net.remove_flow(flow_id)
            if hops is None:
                continue
            path = FlowPath(flow_id, ap.id, fog.pop, hops, RouteKind.WLAN_VIA_MIDDLE_MILE)
            latency = latency_sum(path.links(), net.topology.links)
            net.install_flow(InstalledFlow(flow_id, path, rate, rate, None, "control", latency))

    # -- decision plumbing ---------------------------------------------------

    def _decide(self, spec: FlowSpec) -> FlowDecision:
        src_fog = self.cloud.fog_of_user(spec.src.ident) if spec.src.kind == EndpointKind.USER else None
        if src_fog is None:
            return FlowDecision.rejected(spec.flow_id, RejectReason.NO_COVERAGE, note="unknown source")
        if spec.dst.kind == EndpointKind.EXTERNAL:
            return self.cloud.setup_external_path(spec)
        if spec.dst.kind == EndpointKind.USER:
            dst_fog = self.cloud.fog_of_user(spec.dst.ident)
            if dst_fog is not None and dst_fog != src_fog:
                return self.cloud.setup_interfog_path(spec)
        return self.fogs[src_fog].handle_flow_request(spec)

    def _endpoint_text(self, end: Endpoint) -> str:
        """`str(end)`, kept per kind and id: a dict keyed by the id is
        several times faster than either rendering or hashing `end`."""
        texts = self._end_text[end.kind]
        text = texts.get(end.ident)
        if text is None:
            text = texts[end.ident] = str(end)
        return text

    def _log_decision(self, time_ms: int, spec: FlowSpec, decision: FlowDecision, reroute: bool) -> None:
        path = decision.path
        self.decision_rows.append(
            "\t".join(
                [
                    str(time_ms),
                    spec.flow_id,
                    spec.app_class,
                    self._endpoint_text(spec.src),
                    self._endpoint_text(spec.dst),
                    "accepted" if decision.accepted else "rejected",
                    VALUE_TEXT[decision.reason],
                    VALUE_TEXT[path.rat_used] if path else "-",
                    decision.slice_id or "-",
                    VALUE_TEXT[decision.qos],
                    decision.discriminator or "-",
                    "|".join(decision.candidates) or "-",
                    str(decision.setup_ms),
                    fmt6(decision.latency_ms),
                    decision.note or "-",
                    ">".join(path.nodes()) if path else "-",
                    "1" if reroute else "0",
                ]
            )
        )

    def _log_termination(self, time_ms: int, flow: InstalledFlow, reason: RejectReason) -> None:
        spec = flow.spec
        self.decision_rows.append(
            "\t".join(
                [
                    str(time_ms),
                    flow.flow_id,
                    flow.app_class,
                    self._endpoint_text(spec.src) if spec else flow.path.src,
                    self._endpoint_text(spec.dst) if spec else flow.path.dst,
                    "terminated",
                    VALUE_TEXT[reason],
                    VALUE_TEXT[flow.path.rat_used],
                    flow.slice_id or "-",
                    "-",
                    "-",
                    "-",
                    "0",
                    fmt6(flow.latency_ms),
                    "-",
                    ">".join(flow.path.nodes()),
                    "0",
                ]
            )
        )

    def _on_terminated(self, flow: InstalledFlow, reason: RejectReason) -> None:
        self.metrics.on_terminate(reason)
        self._log_termination(self.engine.now(), flow, reason)

    def _after_change(self, now_ms: int) -> None:
        """Re-run the allocator after any rate change."""
        self.metrics.advance(now_ms)
        self.net.recompute()
        self.metrics.set_backhaul_rate(self.net)

    def _emit_slice_rows(self, now_ms: int) -> None:
        """Slice report rows, per fog in id order (`slicing.slice_rows`);
        written at ticks and capacity-change events.

        Admission uses live entitlements, so reporting granularity does not
        affect behavior. Entitlements (`FogControl.entitlements`), demands
        (`slice_demand_units`) and grants are in the network state's units
        until they are written."""
        demand = self.net.slice_demand_units
        for fog_id in sorted(self.fogs):
            fog = self.fogs[fog_id]
            entitled = fog.entitlements()
            demands = {key: demand(fog_id, *key) for key in entitled}
            self.slice_rows += slice_rows(
                now_ms, fog_id, fog.slice_manager, self._slice_texts, fog.physical_capacity(), entitled, demands
            )

    # -- handlers ----------------------------------------------------------------

    def _on_flow_arrival(self, event: Event) -> None:
        request: FlowRequest = event.payload
        self.metrics.on_request()
        spec = FlowSpec(
            flow_id=request.flow_id,
            src=Endpoint.user(request.src_user),
            dst=request.dst,
            app_class=request.app_class,
            demand=self.config.workload.classes[request.app_class].demand,
        )
        decision = self._decide(spec)
        self._log_decision(event.time, spec, decision, reroute=False)
        if decision.accepted:
            self.metrics.on_admit(spec.app_class, decision.latency_ms)
            self.engine.schedule(
                event.time + request.holding_ms, EventKind.FLOW_DEPARTURE, subjects=(spec.flow_id,)
            )
            self._after_change(event.time)
        else:
            self.metrics.on_reject(decision.reason)

    def _on_flow_departure(self, event: Event) -> None:
        flow_id = event.subjects[0]
        if flow_id not in self.net.flows:
            return  # terminated earlier
        self.net.remove_flow(flow_id)
        self._after_change(event.time)

    def _redecide(self, flow_ids: List[str]) -> None:
        for fid in flow_ids:
            flow = self.net.flows.get(fid)
            if flow is None:
                continue
            if flow.slice_id is None:
                continue  # control overhead, moved by `_route_control_overhead`
            # a sliced flow's source is a registered user (`_decide`)
            decision = self.fogs[self.cloud.fog_of_user(flow.path.src)].redecide_flow(flow)
            if decision.accepted:  # a refused one was written as its termination (`on_terminate`)
                self._log_decision(self.engine.now(), flow.spec, decision, reroute=True)

    def _on_fault(self, event: Event) -> None:
        """A link or node going Down or Up."""
        fault: FaultEvent = event.payload
        net = self.net
        self.metrics.advance(event.time)
        if fault.kind == "link":
            net.set_link_state(fault.subject, fault.up)
            link = net.topology.links[fault.subject]
            if link.link_class == LinkClass.BACKHAUL:
                fog_id = net.topology.fog_of(link.a) or net.topology.fog_of(link.b)
                if self.cloud.on_backhaul_change(fog_id):
                    self.metrics.on_isolation(sum(1 for f in net.flows.values() if f.slice_id is not None))
            through = net.flows_on_link
        else:
            net.set_node_state(fault.subject, fault.up)
            through = net.flows_at
        if not fault.up:
            self._redecide(through(fault.subject))
        self._route_control_overhead()
        self._after_change(event.time)
        self._emit_slice_rows(event.time)

    def _on_handover(self, event: Event) -> None:
        relocation: Relocation = event.payload
        self.metrics.advance(event.time)
        fog_id = self.cloud.fog_of_user(relocation.user)
        if fog_id is None:
            return
        fog = self.fogs[fog_id]
        try:
            results = fog.handover(relocation.user, relocation.attachment)
        except CloudUnreachable:
            return  # mobility state out of reach while isolated; attachment unchanged
        for _, decision in results:
            flow = self.net.flows.get(decision.flow_id)
            spec = flow.spec if flow is not None else None
            if spec is not None:
                self._log_decision(event.time, spec, decision, reroute=True)
        self._after_change(event.time)

    def _cache_totals(self) -> Tuple[int, int]:
        lookups = hits = 0
        for fog_id in sorted(self.fogs):
            cache = self.fogs[fog_id].cache
            if cache is not None:
                lookups += cache.lookups
                hits += cache.hits
        return lookups, hits

    def _on_tick(self, event: Event) -> None:
        lookups, hits = self._cache_totals()
        self.metrics.tick_row(event.time, self.net, lookups, hits)
        self._emit_slice_rows(event.time)

    # -- run ------------------------------------------------------------------------

    def run(self) -> MetricsRecord:
        self.engine.run_until(self.config.duration_ms)
        self.metrics.advance(self.config.duration_ms)
        lookups, hits = self._cache_totals()
        if not self.metrics.rows or not self.metrics.rows[-1].startswith(f"{self.config.duration_ms}\t"):
            self.metrics.tick_row(self.config.duration_ms, self.net, lookups, hits)
        return self.metrics.record(self.net, lookups, hits, self.config.duration_ms)

    def write_outputs(self, out_dir: str, record: MetricsRecord) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.tsv"), "w") as fh:
            fh.write(self.metrics.render())
        with open(os.path.join(out_dir, "decisions.log"), "w") as fh:
            fh.write("\n".join(self.decision_rows) + "\n")
        with open(os.path.join(out_dir, "events.log"), "w") as fh:
            fh.write("time_ms\tseq\tkind\tsubjects\n")
            for event in self.engine.trace:
                fh.write(event.trace_row() + "\n")
        with open(os.path.join(out_dir, "connectivity.log"), "w") as fh:
            fh.write("time_ms\tfog\tstate\n")
            fh.write("\n".join(self.cloud.connectivity_rows()) + "\n")
        with open(os.path.join(out_dir, "slices.tsv"), "w") as fh:
            fh.write("\n".join(self.slice_rows) + "\n")
        with open(os.path.join(out_dir, "run.log"), "w") as fh:
            fh.write("# resolved configuration\n")
            fh.write(yaml.safe_dump(self.config.to_doc(), sort_keys=False))
            fh.write("# summary\n")
            fh.write(f"requests\t{record.requests}\n")
            fh.write(f"admitted\t{record.admitted}\n")
            fh.write(f"rejected\t{record.rejected_total}\n")
            fh.write(f"backhaul_mbytes\t{fmt6(record.backhaul_bytes / 1_000_000)}\n")
            fh.write(f"cache_hit_rate\t{fmt6(record.cache_hit_rate)}\n")


def run_scenario(config: ScenarioConfig, out_dir: Optional[str] = None) -> MetricsRecord:
    sim = Simulation(config)
    record = sim.run()
    if out_dir is not None:
        sim.write_outputs(out_dir, record)
    return record
