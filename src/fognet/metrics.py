"""Measurement collection and the metrics table.

Backhaul volume is an exact rate-time integral, kept in the network
state's rate units (`NetworkState.unit`) and advanced on every allocation
change, so the accounting closure (bytes == sum of per-flow integrals over
backhaul links) holds with no tolerance. Utilization divides two sums of
units. Both become exact Mb/s values only for output. Each reads the
allocated load of a resource class with one `NetworkState.load_units`
call over the class's links, not one call per link: ints summed in
`NetworkState`, and while congested a `Fraction` per class, not per link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List

from .fogctrl import RejectReason
from .scenario import APP_CLASSES
from .topology import LINK_TO_RESOURCE, ResourceClass
from .util import ZERO, fmt6

REJECT_ORDER = [r.value for r in RejectReason]
TERMINATE_ORDER = [
    RejectReason.NO_COVERAGE.value,
    RejectReason.NO_ROUTE.value,
    RejectReason.GBR_ADMISSION_FAIL.value,
    RejectReason.FOG_ISOLATED.value,
    RejectReason.CLOUD_UNREACHABLE.value,
]

# 1 Mb/s for 1 ms = 125 bytes.
BYTES_PER_MBPS_MS = 125


@dataclass
class MetricsRecord:
    """End-of-run summary; the per-tick series lives in metrics.tsv."""

    duration_ms: int = 0
    requests: int = 0
    admitted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    terminated: Dict[str, int] = field(default_factory=dict)
    mean_latency_ms: Dict[str, float] = field(default_factory=dict)
    backhaul_bytes: Fraction = ZERO
    cache_lookups: int = 0
    cache_hits: int = 0
    utilization: Dict[str, float] = field(default_factory=dict)
    isolation_survivors: int = 0
    active_at_end: int = 0

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0


class MetricsCollector:
    def __init__(self, net):
        topology = net.topology
        self.requests = 0
        self.admitted = 0
        self.rejected: Dict[str, int] = {r: 0 for r in REJECT_ORDER}
        self.terminated: Dict[str, int] = {r: 0 for r in TERMINATE_ORDER}
        self.latency_sum: Dict[str, float] = {c: 0.0 for c in APP_CLASSES}
        self.latency_count: Dict[str, int] = {c: 0 for c in APP_CLASSES}
        self.isolation_survivors = 0
        # the backhaul rate in units of 1/`_unit` Mb/s and its integral over
        # time in those units x ms; a rate from a max-min solve may be a
        # Fraction of a unit. The integral is kept in parts, so that an
        # event adds ints only: the whole-unit rates' as an int, and each
        # Fraction rate's `numerator x ms` in the int bucket of its
        # denominator, which a read (`backhaul_bytes`) folds into the
        # buckets read so far and empties. Those are kept as one unreduced
        # pair (numerator, the lcm of their denominators): a fold then
        # costs a gcd of that lcm with each bucket's small denominator,
        # and only the read reduces the total
        self._unit = net.unit
        self._backhaul_rate: int | Fraction = 0
        self._backhaul_whole = 0
        self._backhaul_parts: Dict[int, int] = {}  # denominator -> numerator x ms
        self._backhaul_folded = (0, 1)
        self._last_ms = 0
        self.rows: List[str] = []
        # resource class -> the ids of its links, sorted; built once, read
        # on every change and tick
        self._class_links: Dict[str, List[str]] = {cls: [] for cls in ResourceClass.ALL}
        for lid in sorted(topology.links):
            cls = LINK_TO_RESOURCE.get(topology.links[lid].link_class)
            if cls is not None:
                self._class_links[cls].append(lid)

    # -- time integration ---------------------------------------------------

    @property
    def backhaul_bytes(self) -> Fraction:
        parts = self._backhaul_parts
        num, den = self._backhaul_folded
        if parts:
            for d, n in parts.items():
                scale = d // gcd(den, d)
                if scale > 1:
                    num *= scale
                    den *= scale
                num += n * (den // d)
            self._backhaul_folded = (num, den)
            parts.clear()
        return Fraction((self._backhaul_whole * den + num) * BYTES_PER_MBPS_MS, den * self._unit)

    def advance(self, now_ms: int) -> None:
        """Integrate the backhaul rate up to `now_ms` (call before changes),
        adding ints only."""
        if now_ms > self._last_ms:
            rate, dt = self._backhaul_rate, now_ms - self._last_ms
            if rate.__class__ is int:
                self._backhaul_whole += rate * dt
            else:
                parts, den = self._backhaul_parts, rate.denominator
                parts[den] = parts.get(den, 0) + rate.numerator * dt
            self._last_ms = now_ms

    def set_backhaul_rate(self, net) -> None:
        self._backhaul_rate = net.load_units(*self._class_links[ResourceClass.BACKHAUL])

    # -- counters ---------------------------------------------------------

    def on_request(self) -> None:
        self.requests += 1

    def on_admit(self, app_class: str, latency_ms: float) -> None:
        self.admitted += 1
        if app_class in self.latency_sum:
            self.latency_sum[app_class] += latency_ms
            self.latency_count[app_class] += 1

    def on_reject(self, reason: RejectReason) -> None:
        self.rejected[reason.value] += 1

    def on_terminate(self, reason: RejectReason) -> None:
        self.terminated.setdefault(reason.value, 0)
        self.terminated[reason.value] += 1

    def on_isolation(self, survivors: int) -> None:
        self.isolation_survivors += survivors

    def mean_latency(self, app_class: str) -> float:
        count = self.latency_count.get(app_class, 0)
        return self.latency_sum[app_class] / count if count else 0.0

    # -- table -------------------------------------------------------------

    def header(self) -> str:
        cols = ["time_ms", "requests", "admitted", "rejected_total"]
        cols += [f"rej_{r}" for r in REJECT_ORDER]
        cols += ["terminated_total"]
        cols += [f"term_{r}" for r in TERMINATE_ORDER]
        cols += ["active_flows"]
        cols += [f"mean_latency_ms_{c}" for c in APP_CLASSES]
        cols += ["backhaul_mbytes", "cache_lookups", "cache_hits", "cache_hit_rate"]
        cols += [f"util_{cls}" for cls in ResourceClass.ALL]
        cols += ["isolation_survivors"]
        return "\t".join(cols)

    def utilization(self, net, cls: str) -> float:
        up = [lid for lid in self._class_links[cls] if net.effective_up(lid)]
        total = 0
        for lid in up:
            total += net.capacity_units(lid)
        # int / int and float(Fraction) both round the exact quotient once
        return float(net.load_units(*up) / total) if total else 0.0

    def tick_row(self, now_ms: int, net, cache_lookups: int, cache_hits: int) -> None:
        self.advance(now_ms)
        cells = [
            str(now_ms),
            str(self.requests),
            str(self.admitted),
            str(sum(self.rejected.values())),
        ]
        cells += [str(self.rejected[r]) for r in REJECT_ORDER]
        cells += [str(sum(self.terminated.values()))]
        cells += [str(self.terminated.get(r, 0)) for r in TERMINATE_ORDER]
        cells += [str(len(net.flows))]
        cells += [fmt6(self.mean_latency(c)) for c in APP_CLASSES]
        cells += [
            fmt6(self.backhaul_bytes / 1_000_000),
            str(cache_lookups),
            str(cache_hits),
            fmt6(cache_hits / cache_lookups if cache_lookups else 0.0),
        ]
        cells += [fmt6(self.utilization(net, cls)) for cls in ResourceClass.ALL]
        cells += [str(self.isolation_survivors)]
        self.rows.append("\t".join(cells))

    def render(self) -> str:
        return "\n".join([self.header()] + self.rows) + "\n"

    def record(self, net, cache_lookups: int, cache_hits: int, duration_ms: int) -> MetricsRecord:
        return MetricsRecord(
            duration_ms=duration_ms,
            requests=self.requests,
            admitted=self.admitted,
            rejected=dict(self.rejected),
            terminated=dict(self.terminated),
            mean_latency_ms={c: self.mean_latency(c) for c in APP_CLASSES},
            backhaul_bytes=self.backhaul_bytes,
            cache_lookups=cache_lookups,
            cache_hits=cache_hits,
            utilization={cls: self.utilization(net, cls) for cls in ResourceClass.ALL},
            isolation_survivors=self.isolation_survivors,
            active_at_end=len(net.flows),
        )
