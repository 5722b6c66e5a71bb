"""Seeded traffic, mobility and fault stream generation.

Every stream draws from its own sub-seed (derived by a fixed label from
the scenario seed), so adding or re-parameterizing one stream never
perturbs the draws of another. Arrivals are Poisson per class, holding
times exponential, content ids Zipf, local call pairs uniform over the
user pairs of one fog.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from .fogctrl import Attachment, Endpoint
from .scenario import CONTENT_REQUEST, EXTERNAL_WEB, LOCAL_VOIP, FaultSpec, WorkloadSpec
from .topology import NodeKind, Topology
from .util import derive_seed

_PREFIX = {LOCAL_VOIP: "voip", CONTENT_REQUEST: "cont", EXTERNAL_WEB: "web"}


class FlowRequest(NamedTuple):
    time_ms: int
    flow_id: str
    app_class: str
    src_user: str
    dst: Endpoint
    holding_ms: int


@dataclass(frozen=True)
class Relocation:
    time_ms: int
    user: str
    attachment: Attachment


@dataclass(frozen=True)
class FaultEvent:
    time_ms: int
    kind: str  # "link" | "node"
    subject: str
    up: bool


class ZipfSampler:
    """Rank-k probability proportional to k^(-s) over a finite catalog."""

    def __init__(self, catalog_size: int, exponent: float):
        weights = [k ** (-exponent) for k in range(1, catalog_size + 1)]
        total = sum(weights)
        acc = 0.0
        self._cum: List[float] = []
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self._cum[-1] = 1.0

    def mass(self, rank: int) -> float:
        return self._cum[rank - 1] - (self._cum[rank - 2] if rank > 1 else 0.0)

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cum, rng.random()) + 1


def _poisson_times(rng: random.Random, rate_per_s: float, duration_ms: int) -> List[int]:
    if rate_per_s <= 0:
        return []
    out = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_s)
        ms = int(round(t * 1000))
        if ms >= duration_ms:
            return out
        out.append(ms)


def _holding_ms(rng: random.Random, mean_s: float) -> int:
    return max(1, int(round(rng.expovariate(1.0 / mean_s) * 1000)))


def users_by_fog(topology: Topology) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for node in topology.nodes_of_kind(NodeKind.USER):
        out.setdefault(node.fog, []).append(node.id)
    return {fog: sorted(users) for fog, users in sorted(out.items())}


def generate_workload(spec: WorkloadSpec, topology: Topology, seed: int, duration_ms: int) -> List[FlowRequest]:
    """The flow-request event stream, sorted by arrival time."""
    requests: List[FlowRequest] = []
    per_fog = users_by_fog(topology)
    all_users = sorted(u for users in per_fog.values() for u in users)

    voip = spec.classes[LOCAL_VOIP]
    rng = random.Random(derive_seed(seed, "workload:voip"))
    pair_fogs = [(fog, users) for fog, users in per_fog.items() if len(users) >= 2]
    if pair_fogs:
        weights = [len(users) * (len(users) - 1) // 2 for _, users in pair_fogs]
        cum = []
        acc = 0
        for w in weights:
            acc += w
            cum.append(acc)
        for i, ms in enumerate(_poisson_times(rng, voip.rate_per_s, duration_ms), start=1):
            pick = rng.randrange(acc)
            fog_users = pair_fogs[bisect.bisect_right(cum, pick)][1]
            a, b = rng.sample(fog_users, 2)
            requests.append(
                FlowRequest(
                    time_ms=ms,
                    flow_id=f"voip-{i:05d}",
                    app_class=LOCAL_VOIP,
                    src_user=a,
                    dst=Endpoint.user(b),
                    holding_ms=_holding_ms(rng, voip.holding_mean_s),
                )
            )

    content = spec.classes[CONTENT_REQUEST]
    rng = random.Random(derive_seed(seed, "workload:content"))
    zipf = ZipfSampler(spec.catalog_size, spec.zipf_exponent)
    if all_users:
        for i, ms in enumerate(_poisson_times(rng, content.rate_per_s, duration_ms), start=1):
            user = all_users[rng.randrange(len(all_users))]
            requests.append(
                FlowRequest(
                    time_ms=ms,
                    flow_id=f"cont-{i:05d}",
                    app_class=CONTENT_REQUEST,
                    src_user=user,
                    dst=Endpoint.content(zipf.draw(rng)),
                    holding_ms=_holding_ms(rng, content.holding_mean_s),
                )
            )

    web = spec.classes[EXTERNAL_WEB]
    rng = random.Random(derive_seed(seed, "workload:web"))
    if all_users:
        for i, ms in enumerate(_poisson_times(rng, web.rate_per_s, duration_ms), start=1):
            user = all_users[rng.randrange(len(all_users))]
            requests.append(
                FlowRequest(
                    time_ms=ms,
                    flow_id=f"web-{i:05d}",
                    app_class=EXTERNAL_WEB,
                    src_user=user,
                    dst=Endpoint.external(),
                    holding_ms=_holding_ms(rng, web.holding_mean_s),
                )
            )

    requests.sort(key=lambda r: (r.time_ms, r.flow_id))
    return requests


def assign_mobility(spec: WorkloadSpec, topology: Topology, seed: int) -> Dict[str, bool]:
    rng = random.Random(derive_seed(seed, "workload:flags"))
    flags = {}
    for node in topology.nodes_of_kind(NodeKind.USER):
        flags[node.id] = rng.random() < spec.mobile_fraction
    return flags


def attachment_options(topology: Topology, user: str) -> List[Attachment]:
    """Attachments consistent with the user's provisioned access links."""
    has_macro = topology.macro_link(user) is not None
    clusters = sorted(
        cluster.id
        for cluster in topology.clusters.values()
        if topology.wlan_link(user, cluster.id) is not None
    )
    out = [Attachment(wlan_cluster=c, macro=has_macro) for c in clusters]
    if has_macro:
        out.append(Attachment(wlan_cluster=None, macro=True))
    return out


def generate_relocations(
    spec: WorkloadSpec, topology: Topology, mobile: Dict[str, bool], seed: int, duration_ms: int
) -> List[Relocation]:
    if spec.relocation_rate_per_s <= 0:
        return []
    out: List[Relocation] = []
    for user in sorted(u for u, m in mobile.items() if m):
        options = attachment_options(topology, user)
        if len(options) < 2:
            continue
        rng = random.Random(derive_seed(seed, f"workload:move:{user}"))
        for ms in _poisson_times(rng, spec.relocation_rate_per_s, duration_ms):
            out.append(Relocation(time_ms=ms, user=user, attachment=options[rng.randrange(len(options))]))
    out.sort(key=lambda r: (r.time_ms, r.user))
    return out


def _alternating_outages(
    rng: random.Random, mean_up_s: float, mean_down_s: float, duration_ms: int
) -> List[Tuple[int, bool]]:
    """(time, up) transitions for an up/down renewal process starting Up."""
    out = []
    t_ms = 0.0
    up = True
    while True:
        mean = mean_up_s if up else mean_down_s
        t_ms += rng.expovariate(1.0 / mean) * 1000
        if t_ms >= duration_ms:
            return out
        up = not up
        out.append((int(round(t_ms)), up))


def generate_faults(spec: FaultSpec, topology: Topology, seed: int, duration_ms: int) -> List[FaultEvent]:
    out: List[FaultEvent] = []
    for outage in spec.backhaul_schedule:
        for link in topology.backhaul_links(outage.fog):
            if outage.down_ms < duration_ms:
                out.append(FaultEvent(time_ms=outage.down_ms, kind="link", subject=link.id, up=False))
            if outage.up_ms < duration_ms:
                out.append(FaultEvent(time_ms=outage.up_ms, kind="link", subject=link.id, up=True))
    if spec.backhaul_random is not None:
        for fog in topology.fogs():
            rng = random.Random(derive_seed(seed, f"faults:backhaul:{fog}"))
            transitions = _alternating_outages(
                rng, spec.backhaul_random.mean_up_s, spec.backhaul_random.mean_down_s, duration_ms
            )
            for link in topology.backhaul_links(fog):
                for ms, up in transitions:
                    out.append(FaultEvent(time_ms=ms, kind="link", subject=link.id, up=up))
    if spec.cluster_power is not None:
        for cluster in sorted(topology.clusters.values(), key=lambda c: c.id):
            rng = random.Random(derive_seed(seed, f"faults:power:{cluster.id}"))
            transitions = _alternating_outages(
                rng, spec.cluster_power.mean_up_s, spec.cluster_power.mean_down_s, duration_ms
            )
            subjects = sorted(
                set(cluster.wlan_aps)
                | {topology.client_of_ap(ap) for ap in cluster.wlan_aps if topology.client_of_ap(ap)}
            )
            for ms, up in transitions:
                for subject in subjects:
                    out.append(FaultEvent(time_ms=ms, kind="node", subject=subject, up=up))
    out.sort(key=lambda e: (e.time_ms, e.kind, e.subject, e.up))
    return out
