"""Scenario files: strict parsing, defaults, referential validation.

A scenario is hierarchical YAML text. Unknown keys are errors; every
default that gets applied is echoed back through `ScenarioConfig.to_doc`
into the run log, so a run directory always records the exact
configuration it executed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

import yaml

from .fogctrl import FogProfile, PolicyRule, QosClass
from .slicing import SliceSpec
from .topology import (
    LinkClass,
    NodeKind,
    ResourceClass,
    Topology,
    TopologyError,
    TopologyGenParams,
    generate_clustered,
    load_topology,
    validate,
    with_link_profile,
)
from .util import ZERO, derive_seed, rate_str, to_rate

LOCAL_VOIP = "local_voip"
CONTENT_REQUEST = "content_request"
EXTERNAL_WEB = "external_web"
APP_CLASSES = (LOCAL_VOIP, CONTENT_REQUEST, EXTERNAL_WEB)

# the largest content catalog a scenario may name: 1,000 times the largest
# bundled one (100); `workload.ZipfSampler` keeps a weight per rank
MAX_CATALOG_SIZE = 100_000


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _strict(entry: dict, allowed, where: str) -> None:
    if not isinstance(entry, dict):
        raise ValidationError(where, "expected a mapping")
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise ValidationError(f"{where}.{unknown[0]}", "unknown key")


def _of_type(value, kind: type, where: str):
    """`value` when it is a `kind`, dict or list."""
    if not isinstance(value, kind):
        raise ValidationError(where, "expected a mapping" if kind is dict else "expected a list")
    return value


def _classes(value, policy, where: str) -> Tuple[str, ...]:
    """A list of application classes, each one that `policy` names."""
    names = tuple(_of_type(value, list, where))
    for cls_name in names:
        if not isinstance(cls_name, str) or cls_name not in policy:
            raise ValidationError(where, f"unknown class {cls_name!r}")
    return names


def _flag(entry: dict, key: str, where: str, default: bool) -> bool:
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}.{key}", "expected true or false")
    return value


def _num(entry: dict, key: str, where: str, default=None, minimum=None):
    value = entry.get(key, default)
    if value is None:
        raise ValidationError(f"{where}.{key}", "required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key}", f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{where}.{key}", "must be finite")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{where}.{key}", f"must be >= {minimum}")
    return value


def _int(entry: dict, key: str, where: str, default=None, minimum=None, maximum=None) -> int:
    """A count, seed or time in ms: `_num`, refusing a fraction (2.0 is 2,
    2.5 is refused) and, given `maximum`, a value above it."""
    value = _num(entry, key, where, default, minimum)
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{where}.{key}", f"must be a whole number, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{where}.{key}", f"must be <= {maximum}")
    return int(value)


def _rate(value, where: str, minimum=None) -> Fraction:
    try:
        rate = to_rate(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if minimum is not None and rate < minimum:
        raise ValidationError(where, f"must be >= {minimum}")
    return rate


@dataclass(frozen=True)
class ClassSpec:
    rate_per_s: float
    demand: Fraction
    holding_mean_s: float


@dataclass(frozen=True)
class WorkloadSpec:
    classes: Dict[str, ClassSpec]
    catalog_size: int = 100
    zipf_exponent: float = 1.0
    mobile_fraction: float = 0.0
    relocation_rate_per_s: float = 0.0


@dataclass(frozen=True)
class BackhaulOutage:
    fog: str
    down_ms: int
    up_ms: int


@dataclass(frozen=True)
class OutageProcess:
    mean_up_s: float
    mean_down_s: float


@dataclass(frozen=True)
class FaultSpec:
    backhaul_schedule: Tuple[BackhaulOutage, ...] = ()
    backhaul_random: Optional[OutageProcess] = None
    cluster_power: Optional[OutageProcess] = None


@dataclass(frozen=True)
class FogConfig:
    profile: FogProfile = field(default_factory=FogProfile)
    cache_capacity: int = 100
    address_pool: int = 256


@dataclass(frozen=True)
class SubscriberOverride:
    user: str
    allowed_classes: Optional[Tuple[str, ...]] = None
    max_gbr: Optional[Fraction] = None
    operator: Optional[str] = None


@dataclass(frozen=True)
class SubscriberDefaults:
    max_gbr: Fraction = Fraction(1)
    allowed_classes: Tuple[str, ...] = APP_CLASSES
    overrides: Tuple[SubscriberOverride, ...] = ()


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    duration_ms: int
    metrics_tick_ms: int
    cloud_rtt_ms: int
    wlan_control_overhead: Fraction
    topology: Topology
    topology_source: str
    fogs: Dict[str, FogConfig]
    slices: List[SliceSpec]
    policy: Dict[str, PolicyRule]
    subscribers: SubscriberDefaults
    workload: WorkloadSpec
    faults: FaultSpec

    def to_doc(self) -> dict:
        """Resolved configuration, defaults included, for the run log."""
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "metrics_tick_ms": self.metrics_tick_ms,
            "cloud_rtt_ms": self.cloud_rtt_ms,
            "wlan_control_overhead_mbps": rate_str(self.wlan_control_overhead),
            "topology_source": self.topology_source,
            "fogs": {
                fog: {
                    "udf": fc.profile.udf_in_fog,
                    "pcrf": fc.profile.pcrf_in_fog,
                    "mlmf": fc.profile.mlmf_in_fog,
                    "cache": fc.profile.cache_in_fog,
                    "dhcp": fc.profile.dhcp_in_fog,
                    "tcp_opt": fc.profile.tcp_opt_in_fog,
                    "cache_capacity": fc.cache_capacity,
                    "address_pool": fc.address_pool,
                }
                for fog, fc in sorted(self.fogs.items())
            },
            "slices": [
                {
                    "id": s.slice_id,
                    "operator": s.operator,
                    "shares": {cls: rate_str(s.share(cls)) for cls in ResourceClass.ALL},
                }
                for s in self.slices
            ],
            "policy": {
                name: {"qos": rule.qos.value, "gbr_mbps": rate_str(rule.gbr_rate)}
                for name, rule in sorted(self.policy.items())
            },
            "subscribers": {
                "max_gbr_mbps": rate_str(self.subscribers.max_gbr),
                "allowed_classes": list(self.subscribers.allowed_classes),
                "overrides": [
                    {
                        "user": o.user,
                        **({"allowed_classes": list(o.allowed_classes)} if o.allowed_classes is not None else {}),
                        **({"max_gbr_mbps": rate_str(o.max_gbr)} if o.max_gbr is not None else {}),
                        **({"operator": o.operator} if o.operator else {}),
                    }
                    for o in self.subscribers.overrides
                ],
            },
            "workload": {
                **{
                    name: {
                        "rate_per_s": spec.rate_per_s,
                        "demand_mbps": rate_str(spec.demand),
                        "holding_mean_s": spec.holding_mean_s,
                    }
                    for name, spec in sorted(self.workload.classes.items())
                },
                "content": {
                    "catalog_size": self.workload.catalog_size,
                    "zipf_exponent": self.workload.zipf_exponent,
                },
                "mobility": {
                    "mobile_fraction": self.workload.mobile_fraction,
                    "relocation_rate_per_s": self.workload.relocation_rate_per_s,
                },
            },
            "faults": {
                "backhaul_schedule": [
                    {"fog": o.fog, "down_ms": o.down_ms, "up_ms": o.up_ms}
                    for o in self.faults.backhaul_schedule
                ],
                **(
                    {
                        "backhaul_random": {
                            "mean_up_s": self.faults.backhaul_random.mean_up_s,
                            "mean_down_s": self.faults.backhaul_random.mean_down_s,
                        }
                    }
                    if self.faults.backhaul_random
                    else {}
                ),
                **(
                    {
                        "cluster_power": {
                            "mean_up_s": self.faults.cluster_power.mean_up_s,
                            "mean_down_s": self.faults.cluster_power.mean_down_s,
                        }
                    }
                    if self.faults.cluster_power
                    else {}
                ),
            },
        }


DEFAULT_POLICY_DOC = {
    LOCAL_VOIP: {"qos": "RealTimeGBR", "gbr_mbps": 0.1},
    CONTENT_REQUEST: {"qos": "BestEffort"},
    EXTERNAL_WEB: {"qos": "BestEffort"},
}

# Default traffic mix: mostly local, then content, then external. This is a
# config default, not a measured rural profile.
DEFAULT_WORKLOAD_DOC = {
    LOCAL_VOIP: {"rate_per_s": 0.5, "demand_mbps": 0.1, "holding_mean_s": 30.0},
    CONTENT_REQUEST: {"rate_per_s": 0.3, "demand_mbps": 2.0, "holding_mean_s": 10.0},
    EXTERNAL_WEB: {"rate_per_s": 0.2, "demand_mbps": 1.0, "holding_mean_s": 20.0},
}

_TOP_KEYS = {
    "name",
    "seed",
    "duration_ms",
    "metrics_tick_ms",
    "cloud_rtt_ms",
    "wlan_control_overhead_mbps",
    "topology",
    "fogs",
    "slices",
    "policy",
    "subscribers",
    "workload",
    "faults",
}

_GEN_KEYS = {
    "clusters",
    "users_min",
    "users_max",
    "cluster_radius_m",
    "area_side_m",
    "mesh_degree_bound",
    "macro_radius_m",
    "wlan_radius_m",
    "seed",
}


def parse_gen_params(doc: dict, where: str, default_seed: int) -> TopologyGenParams:
    _strict(doc, _GEN_KEYS, where)
    params = TopologyGenParams(
        clusters=_int(doc, "clusters", where, minimum=1),
        users_min=_int(doc, "users_min", where, default=1, minimum=1),
        users_max=_int(doc, "users_max", where, default=doc.get("users_min", 1), minimum=1),
        cluster_radius_m=float(_num(doc, "cluster_radius_m", where, default=300.0)),
        area_side_m=float(_num(doc, "area_side_m", where, default=7000.0)),
        mesh_degree_bound=_int(doc, "mesh_degree_bound", where, default=3, minimum=1),
        macro_radius_m=float(_num(doc, "macro_radius_m", where, default=10000.0)),
        wlan_radius_m=float(_num(doc, "wlan_radius_m", where, default=300.0)),
        seed=_int(doc, "seed", where, default=default_seed),
    )
    try:
        params.check()
    except ValueError as exc:
        raise ValidationError(where, str(exc))
    return params


def _parse_topology(doc: dict, base_dir: str, seed: int) -> Tuple[Topology, str]:
    _strict(doc, {"file", "generate", "link_defaults"}, "topology")
    if ("file" in doc) == ("generate" in doc):
        raise ValidationError("topology", "exactly one of 'file' or 'generate' required")
    if "file" in doc:
        path = os.path.join(base_dir, str(doc["file"]))
        if not os.path.exists(path):
            raise ValidationError("topology.file", f"no such file: {path}")
        try:
            topo = load_topology(path)
        except KeyError as exc:
            raise ValidationError("topology.file", f"{doc['file']}: missing key {exc}")
        except (TopologyError, yaml.YAMLError, ValueError, TypeError, AttributeError) as exc:
            # one line, though a YAML error spans several
            raise ValidationError("topology.file", f"{doc['file']}: {' '.join(str(exc).split())}")
        source = f"file:{doc['file']}"
    else:
        params = parse_gen_params(doc["generate"] or {}, "topology.generate", derive_seed(seed, "topology"))
        topo = generate_clustered(params)
        source = "generated"
    defaults = doc.get("link_defaults")
    if defaults:
        profile = {}
        for cls_name, entry in _of_type(defaults, dict, "topology.link_defaults").items():
            try:
                cls = LinkClass(cls_name)
            except ValueError:
                raise ValidationError(f"topology.link_defaults.{cls_name}", "unknown link class")
            where = f"topology.link_defaults.{cls_name}"
            _strict(entry, {"capacity_mbps", "latency_ms"}, where)
            cap = _rate(_num(entry, "capacity_mbps", where), f"{where}.capacity_mbps")
            lat = float(_num(entry, "latency_ms", where, default=0.0, minimum=0))
            profile[cls] = (cap, lat)
        topo = with_link_profile(topo, profile)
    violations = validate(topo)
    if violations:
        first = violations[0]
        raise ValidationError("topology", f"{first.rule} at {first.element}: {first.detail}")
    return topo, source


def _parse_slices(entries, where: str) -> List[SliceSpec]:
    out: List[SliceSpec] = []
    for i, entry in enumerate(_of_type(entries, list, where)):
        w = f"{where}[{i}]"
        _strict(entry, {"id", "operator", "shares"}, w)
        for key in ("id", "operator"):
            if entry.get(key) is None:
                raise ValidationError(f"{w}.{key}", "required")
        shares_doc = entry.get("shares", 1)
        if isinstance(shares_doc, dict):
            _strict(shares_doc, set(ResourceClass.ALL), f"{w}.shares")
            shares = {cls: _rate(shares_doc.get(cls, 0), f"{w}.shares.{cls}") for cls in ResourceClass.ALL}
        else:
            share = _rate(shares_doc, f"{w}.shares")
            shares = {cls: share for cls in ResourceClass.ALL}
        for cls, share in shares.items():
            if share < 0 or share > 1:
                raise ValidationError(f"{w}.shares.{cls}", "share must lie in [0, 1]")
        out.append(SliceSpec(slice_id=str(entry["id"]), operator=str(entry["operator"]), shares=shares))
    if not out:
        raise ValidationError(where, "at least one slice required")
    ids = [s.slice_id for s in out]
    if len(set(ids)) != len(ids):
        raise ValidationError(where, "duplicate slice id")
    for cls in ResourceClass.ALL:
        total = sum((s.share(cls) for s in out), ZERO)
        if total > 1:
            raise ValidationError(f"{where}.shares.{cls}", f"shares sum to {total} > 1")
    return out


def parse_scenario(doc: dict, base_dir: str = ".", name: str = "scenario") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    _strict(doc, _TOP_KEYS, "scenario")

    seed = _int(doc, "seed", "scenario", default=0)
    duration_ms = _int(doc, "duration_ms", "scenario", minimum=1)
    tick = _int(doc, "metrics_tick_ms", "scenario", default=1000, minimum=1)
    rtt = _int(doc, "cloud_rtt_ms", "scenario", default=20, minimum=0)
    overhead = _rate(doc.get("wlan_control_overhead_mbps", 0), "wlan_control_overhead_mbps", minimum=0)

    if "topology" not in doc:
        raise ValidationError("topology", "required")
    topo, source = _parse_topology(doc["topology"] or {}, base_dir, seed)

    slices = _parse_slices(doc.get("slices") or [{"id": "s1", "operator": "op1", "shares": 1}], "slices")
    operators = {s.operator for s in slices}
    if len(operators) != len(slices):
        raise ValidationError("slices", "duplicate operator")

    policy: Dict[str, PolicyRule] = {}
    policy_doc = _of_type(doc.get("policy") or DEFAULT_POLICY_DOC, dict, "policy")
    for app_class, entry in policy_doc.items():
        w = f"policy.{app_class}"
        _strict(entry, {"qos", "gbr_mbps"}, w)
        try:
            qos = QosClass(entry.get("qos", "BestEffort"))
        except ValueError:
            raise ValidationError(f"{w}.qos", f"unknown QoS class {entry.get('qos')!r}")
        try:
            policy[str(app_class)] = PolicyRule(
                app_class=str(app_class), qos=qos, gbr_rate=_rate(entry.get("gbr_mbps", 0), f"{w}.gbr_mbps", minimum=0)
            )
        except ValueError as exc:
            raise ValidationError(w, str(exc))

    fogs: Dict[str, FogConfig] = {}
    fog_ids = topo.fogs()
    for fog_id, entry in _of_type(doc.get("fogs") or {}, dict, "fogs").items():
        if fog_id not in fog_ids:
            raise ValidationError(f"fogs.{fog_id}", "no such fog in topology")
        w = f"fogs.{fog_id}"
        _strict(
            entry or {},
            {"udf", "pcrf", "mlmf", "cache", "dhcp", "tcp_opt", "cache_capacity", "address_pool"},
            w,
        )
        entry = entry or {}
        profile = FogProfile(
            udf_in_fog=_flag(entry, "udf", w, True),
            pcrf_in_fog=_flag(entry, "pcrf", w, True),
            mlmf_in_fog=_flag(entry, "mlmf", w, True),
            cache_in_fog=_flag(entry, "cache", w, True),
            dhcp_in_fog=_flag(entry, "dhcp", w, True),
            tcp_opt_in_fog=_flag(entry, "tcp_opt", w, False),
        )
        fogs[fog_id] = FogConfig(
            profile=profile,
            cache_capacity=_int(entry, "cache_capacity", w, default=100, minimum=1),
            address_pool=_int(entry, "address_pool", w, default=256, minimum=1),
        )
    for fog_id in fog_ids:
        fogs.setdefault(fog_id, FogConfig())

    subs_doc = doc.get("subscribers") or {}
    _strict(subs_doc, {"max_gbr_mbps", "allowed_classes", "overrides"}, "subscribers")
    allowed_default = _classes(
        subs_doc.get("allowed_classes") or sorted(policy), policy, "subscribers.allowed_classes"
    )
    overrides: List[SubscriberOverride] = []
    user_ids = {n.id for n in topo.nodes_of_kind(NodeKind.USER)}
    overridden: Set[str] = set()
    for i, entry in enumerate(_of_type(subs_doc.get("overrides") or [], list, "subscribers.overrides")):
        w = f"subscribers.overrides[{i}]"
        _strict(entry, {"user", "allowed_classes", "max_gbr_mbps", "operator"}, w)
        user = str(entry.get("user", ""))
        if user not in user_ids:
            raise ValidationError(f"{w}.user", f"no such user {user!r} in topology")
        if user in overridden:
            raise ValidationError(f"{w}.user", f"second override for user {user!r}")
        overridden.add(user)
        operator = entry.get("operator")
        if operator is not None and (not isinstance(operator, str) or operator not in operators):
            raise ValidationError(f"{w}.operator", f"unknown slice operator {operator!r}")
        overrides.append(
            SubscriberOverride(
                user=user,
                allowed_classes=(
                    _classes(entry["allowed_classes"], policy, f"{w}.allowed_classes")
                    if "allowed_classes" in entry
                    else None
                ),
                max_gbr=(
                    _rate(entry["max_gbr_mbps"], f"{w}.max_gbr_mbps", minimum=0) if "max_gbr_mbps" in entry else None
                ),
                operator=str(operator) if operator is not None else None,
            )
        )
    subscribers = SubscriberDefaults(
        max_gbr=_rate(subs_doc.get("max_gbr_mbps", 1), "subscribers.max_gbr_mbps", minimum=0),
        allowed_classes=allowed_default,
        overrides=tuple(overrides),
    )

    wl_doc = doc.get("workload") or {}
    _strict(wl_doc, set(APP_CLASSES) | {"content", "mobility"}, "workload")
    classes: Dict[str, ClassSpec] = {}
    for app_class in APP_CLASSES:
        entry = wl_doc.get(app_class) or DEFAULT_WORKLOAD_DOC[app_class]
        w = f"workload.{app_class}"
        _strict(entry, {"rate_per_s", "demand_mbps", "holding_mean_s"}, w)
        classes[app_class] = ClassSpec(
            rate_per_s=float(_num(entry, "rate_per_s", w, default=0.0, minimum=0)),
            demand=_rate(
                entry.get("demand_mbps", DEFAULT_WORKLOAD_DOC[app_class]["demand_mbps"]),
                f"{w}.demand_mbps",
                minimum=0,
            ),
            holding_mean_s=float(
                _num(entry, "holding_mean_s", w, default=DEFAULT_WORKLOAD_DOC[app_class]["holding_mean_s"])
            ),
        )
        if classes[app_class].holding_mean_s <= 0:
            raise ValidationError(f"{w}.holding_mean_s", "must be > 0")
    content_doc = wl_doc.get("content") or {}
    _strict(content_doc, {"catalog_size", "zipf_exponent"}, "workload.content")
    mobility_doc = wl_doc.get("mobility") or {}
    _strict(mobility_doc, {"mobile_fraction", "relocation_rate_per_s"}, "workload.mobility")
    mobile_fraction = float(_num(mobility_doc, "mobile_fraction", "workload.mobility", default=0.0, minimum=0))
    if mobile_fraction > 1:
        raise ValidationError("workload.mobility.mobile_fraction", "must lie in [0, 1]")
    workload = WorkloadSpec(
        classes=classes,
        catalog_size=_int(
            content_doc, "catalog_size", "workload.content", default=100, minimum=1, maximum=MAX_CATALOG_SIZE
        ),
        zipf_exponent=float(_num(content_doc, "zipf_exponent", "workload.content", default=1.0)),
        mobile_fraction=mobile_fraction,
        relocation_rate_per_s=float(
            _num(mobility_doc, "relocation_rate_per_s", "workload.mobility", default=0.0, minimum=0)
        ),
    )
    if workload.zipf_exponent <= 0:
        raise ValidationError("workload.content.zipf_exponent", "must be > 0")

    faults_doc = doc.get("faults") or {}
    _strict(faults_doc, {"backhaul_schedule", "backhaul_random", "cluster_power"}, "faults")
    schedule: List[BackhaulOutage] = []
    for i, entry in enumerate(_of_type(faults_doc.get("backhaul_schedule") or [], list, "faults.backhaul_schedule")):
        w = f"faults.backhaul_schedule[{i}]"
        _strict(entry, {"fog", "down_ms", "up_ms"}, w)
        fog = str(entry.get("fog", ""))
        if fog not in fog_ids:
            raise ValidationError(f"{w}.fog", f"no such fog {fog!r}")
        down = _int(entry, "down_ms", w, minimum=0)
        up = _int(entry, "up_ms", w, minimum=0)
        if up <= down:
            raise ValidationError(f"{w}.up_ms", "must be > down_ms")
        schedule.append(BackhaulOutage(fog=fog, down_ms=down, up_ms=up))

    def _process(key: str) -> Optional[OutageProcess]:
        entry = faults_doc.get(key)
        if not entry:
            return None
        w = f"faults.{key}"
        _strict(entry, {"mean_up_s", "mean_down_s"}, w)
        up_s = float(_num(entry, "mean_up_s", w))
        down_s = float(_num(entry, "mean_down_s", w))
        if up_s <= 0 or down_s <= 0:
            raise ValidationError(w, "mean durations must be > 0")
        return OutageProcess(mean_up_s=up_s, mean_down_s=down_s)

    faults = FaultSpec(
        backhaul_schedule=tuple(schedule),
        backhaul_random=_process("backhaul_random"),
        cluster_power=_process("cluster_power"),
    )

    return ScenarioConfig(
        name=str(doc.get("name", name)),
        seed=seed,
        duration_ms=duration_ms,
        metrics_tick_ms=tick,
        cloud_rtt_ms=rtt,
        wlan_control_overhead=overhead,
        topology=topo,
        topology_source=source,
        fogs=fogs,
        slices=slices,
        policy=policy,
        subscribers=subscribers,
        workload=workload,
        faults=faults,
    )


def load_scenario(path, *, seed: Optional[int] = None, duration_ms: Optional[int] = None) -> ScenarioConfig:
    """Parse and validate a scenario file; overrides apply before resolution."""
    if not os.path.exists(path):
        raise ParseError("no such scenario file")
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh.read())
        except yaml.YAMLError as exc:
            raise ParseError(f"invalid YAML: {' '.join(str(exc).split())}")
    if doc is None:
        raise ParseError("empty scenario")
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    if seed is not None:
        doc["seed"] = seed
    if duration_ms is not None:
        doc["duration_ms"] = duration_ms
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)), name=stem)
