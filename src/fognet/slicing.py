"""Per-operator network slices over a fog's resource classes.

Each slice owns a share of every resource class (`topology.ResourceClass`)
of its fog's live sliceable capacity, which `FogControl.physical_capacity`
reads from the network state's per-fog ledger. Guaranteed rates are
admitted only within that share. Idle entitlement is diverted to
overloaded slices by entitlement-weighted progressive filling and
reclaimed the moment the entitled operator's own demand returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .topology import ResourceClass
from .util import ZERO


class SlicingError(Exception):
    def __init__(self, message: str, element: str = ""):
        super().__init__(message)
        self.element = element


class ShareOvercommit(SlicingError):
    pass


class DuplicateOperator(SlicingError):
    pass


class UnknownSlice(SlicingError):
    pass


@dataclass(frozen=True)
class SliceSpec:
    slice_id: str
    operator: str
    shares: Mapping[str, Fraction]  # resource class -> fraction of physical

    def share(self, cls: str) -> Fraction:
        return self.shares.get(cls, ZERO)


@dataclass
class ClassAllocation:
    entitled: Fraction
    demand: Fraction
    granted: Fraction


@dataclass
class SliceRuntime:
    slice_id: str
    per_class: Dict[str, ClassAllocation]


class SliceManager:
    """Slice registry and allocator for one fog's resources.

    `physical` yields the live per-class capacity (Up links only), so
    entitlements track link failures automatically.
    """

    def __init__(self, physical: Callable[[], Dict[str, Fraction]]):
        self._physical = physical
        self._specs: Dict[str, SliceSpec] = {}
        self.on_create: Optional[Callable[[SliceSpec], None]] = None

    def slice_ids(self) -> List[str]:
        return sorted(self._specs)

    def spec(self, slice_id: str) -> SliceSpec:
        if slice_id not in self._specs:
            raise UnknownSlice(f"no slice {slice_id}", slice_id)
        return self._specs[slice_id]

    def create_slice(self, spec: SliceSpec) -> str:
        if spec.slice_id in self._specs:
            raise SlicingError(f"slice {spec.slice_id} already exists", spec.slice_id)
        if any(s.operator == spec.operator for s in self._specs.values()):
            raise DuplicateOperator(f"operator {spec.operator} already holds a slice", spec.operator)
        for cls in ResourceClass.ALL:
            total = spec.share(cls) + sum(s.share(cls) for s in self._specs.values())
            if total > 1:
                raise ShareOvercommit(f"{cls}: shares would sum to {total}", cls)
            if spec.share(cls) < 0:
                raise ShareOvercommit(f"{cls}: negative share", cls)
        self._specs[spec.slice_id] = spec
        if self.on_create is not None:
            self.on_create(spec)
        return spec.slice_id

    def entitled(self, slice_id: str, cls: str) -> Fraction:
        return self.spec(slice_id).share(cls) * self._physical().get(cls, ZERO)

    def entitlements(self) -> Dict[Tuple[str, str], Fraction]:
        """(slice, class) -> `entitled`, for every slice and class."""
        return {(sid, cls): self.entitled(sid, cls) for sid in self.slice_ids() for cls in ResourceClass.ALL}

    def compute_slice_allocations(
        self,
        demands: Mapping[str, Mapping[str, Fraction]],
        entitlements: Mapping[Tuple[str, str], Fraction],
    ) -> Dict[str, SliceRuntime]:
        """Entitlement first, then leftover to unsatisfied slices.

        `entitlements` is `self.entitlements()`, or a copy the caller
        keeps. Per resource class every slice is granted min(demand,
        entitled); the leftover is spread over still-hungry slices
        proportionally to their entitlement shares, iterating until
        exhausted.
        """
        physical = self._physical()
        runtimes = {
            sid: SliceRuntime(slice_id=sid, per_class={}) for sid in self.slice_ids()
        }
        for cls in ResourceClass.ALL:
            cap = physical.get(cls, ZERO)
            granted: Dict[str, Fraction] = {}
            for sid in self.slice_ids():
                demand = demands.get(sid, {}).get(cls, ZERO)
                entitled = entitlements[sid, cls]
                granted[sid] = min(demand, entitled)
                runtimes[sid].per_class[cls] = ClassAllocation(
                    entitled=entitled, demand=demand, granted=granted[sid]
                )
            leftover = cap - sum(granted.values(), ZERO)
            hungry = [
                sid
                for sid in self.slice_ids()
                if runtimes[sid].per_class[cls].demand > granted[sid]
            ]
            while leftover > 0 and hungry:
                weights = {sid: self._specs[sid].share(cls) for sid in hungry}
                wsum = sum(weights.values(), ZERO)
                if wsum == 0:
                    weights = {sid: Fraction(1) for sid in hungry}
                    wsum = Fraction(len(hungry))
                capped = False
                new_hungry = []
                for sid in hungry:
                    need = runtimes[sid].per_class[cls].demand - granted[sid]
                    offer = leftover * weights[sid] / wsum
                    take = min(offer, need)
                    if take < offer:
                        capped = True
                    granted[sid] += take
                    runtimes[sid].per_class[cls].granted = granted[sid]
                    if granted[sid] < runtimes[sid].per_class[cls].demand:
                        new_hungry.append(sid)
                leftover = cap - sum(granted.values(), ZERO)
                hungry = new_hungry
                if not capped:
                    break  # everything offered was taken; one pass suffices
        return runtimes
