"""Per-operator network slices over a fog's resource classes.

Each slice owns a share of every resource class (`topology.ResourceClass`)
of its fog's live sliceable capacity, which `FogControl.physical_capacity`
reads from the network state's per-fog ledger and passes to its
`SliceManager`, built from the fog's slice specs. Guaranteed rates are
admitted only within that share. Idle entitlement is diverted to
overloaded slices by entitlement-weighted progressive filling and
reclaimed the moment the entitled operator's own demand returns.

Capacities, entitlements, demands and grants are ints in the network
state's units (`NetworkState.unit`), whose unit makes every entitlement
whole, so neither the admission test nor the slice report builds a
`Fraction`: only the split of leftover capacity among slices whose demand
exceeds their entitlement divides. `slice_rows` renders a fog's rows of
the slice report from those ints through `RateTexts`, which keeps the
texts it renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .topology import ResourceClass
from .util import ZERO, rate_str


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


class SliceManager:
    """Slice registry and allocator for one fog's resources.

    Built from the fog's slice specs, which it validates: unique slice ids
    and operators, and per class non-negative shares that sum to at most 1.
    Entitlements and grants are computed from a per-class capacity in
    whole units that the caller passes in (`FogControl.physical_capacity`,
    the live capacity of Up links only), so they track link failures.
    """

    def __init__(self, specs: Iterable[SliceSpec]):
        self._specs: Dict[str, SliceSpec] = {}
        for spec in specs:
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

    def slice_ids(self) -> List[str]:
        return sorted(self._specs)

    def spec(self, slice_id: str) -> SliceSpec:
        if slice_id not in self._specs:
            raise UnknownSlice(f"no slice {slice_id}", slice_id)
        return self._specs[slice_id]

    def entitled(self, slice_id: str, cls: str, physical: Mapping[str, int]) -> int:
        """The slice's share of `physical[cls]`, the class's live capacity
        in units. Raises ValueError unless it is a whole number of units;
        `NetworkState` builds its unit from the slice shares so that it
        always is (`util.rate_unit`)."""
        share = self.spec(slice_id).share(cls)
        capacity = physical.get(cls, 0)
        entitled, rest = divmod(share.numerator * capacity, share.denominator)
        if rest:
            raise ValueError(f"slice {slice_id}: {cls} entitlement {share} x {capacity} is not a whole number of units")
        return entitled

    def entitlements(self, physical: Mapping[str, int]) -> Dict[Tuple[str, str], int]:
        """(slice, class) -> `entitled` of `physical`, for every slice and
        class, slices in id order and classes in `ResourceClass.ALL` order
        (the order of the slice report's rows)."""
        entitled = self.entitled
        return {(sid, cls): entitled(sid, cls, physical) for sid in self.slice_ids() for cls in ResourceClass.ALL}

    def compute_slice_allocations(
        self,
        demands: Mapping[Tuple[str, str], int],
        entitlements: Mapping[Tuple[str, str], int],
        physical: Mapping[str, int],
    ) -> Mapping[Tuple[str, str], Union[int, Fraction]]:
        """(slice, class) -> grant: entitlement first, then leftover of
        `physical`, the per-class capacity, to unsatisfied slices.

        `demands` and `entitlements` (`self.entitlements(physical)`, or a
        copy the caller keeps) hold ints in the capacity's units, with the
        same keys. Per resource class every slice is granted min(demand,
        entitled); the leftover is spread over still-hungry slices
        proportionally to their entitlement shares, iterating until
        exhausted. When no demand exceeds its entitlement every grant is
        its demand, and `demands` itself is returned, so do not mutate
        the result. Only the leftover split divides: its grants may be
        `Fraction`s of units.
        """
        hungry = [key for key, demand in demands.items() if demand > entitlements[key]]
        if not hungry:
            return demands
        granted: Dict[Tuple[str, str], Union[int, Fraction]] = {
            key: min(demand, entitlements[key]) for key, demand in demands.items()
        }
        for cls in ResourceClass.ALL:
            hungry_ids = [sid for sid, c in hungry if c == cls]
            if not hungry_ids:
                continue
            keys = [key for key in granted if key[1] == cls]
            leftover = physical.get(cls, 0) - sum(granted[key] for key in keys)
            while leftover > 0 and hungry_ids:
                weights = {sid: self._specs[sid].share(cls) for sid in hungry_ids}
                wsum = sum(weights.values())
                if wsum == 0:
                    weights = {sid: 1 for sid in hungry_ids}
                    wsum = len(hungry_ids)
                capped = False
                still_hungry = []
                for sid in hungry_ids:
                    demand = demands[sid, cls]
                    offer = Fraction(leftover * weights[sid]) / wsum  # exact, even for int weights
                    take = min(offer, demand - granted[sid, cls])
                    if take < offer:
                        capped = True
                    granted[sid, cls] += take
                    if granted[sid, cls] < demand:
                        still_hungry.append(sid)
                leftover = physical.get(cls, 0) - sum(granted[key] for key in keys)
                hungry_ids = still_hungry
                if not capped:
                    break  # everything offered was taken; one pass suffices
        return granted


class RateTexts(dict):
    """Rate in units -> its `rate_str` text at `unit`, rendered on first
    use. Bounded: emptied when it holds `LIMIT` texts. A run's slice
    figures take few distinct values (143 over a 900 s run of the
    `faults_slicing` benchmark workload), so nearly every read hits."""

    LIMIT = 4096

    def __init__(self, unit: int):
        super().__init__()
        self.unit = unit

    def __missing__(self, x: Union[int, Fraction]) -> str:
        if len(self) >= self.LIMIT:
            self.clear()
        text = self[x] = rate_str(x, self.unit)
        return text


def slice_rows(
    now_ms: int,
    fog_id: str,
    manager: SliceManager,
    texts: RateTexts,
    physical: Mapping[str, int],
    entitlements: Mapping[Tuple[str, str], int],
    demands: Mapping[Tuple[str, str], int],
) -> List[str]:
    """One fog's rows of the slice report (`slices.tsv`) at `now_ms`: per
    (slice, class) key of `entitlements` (`SliceManager.entitlements` of
    `physical`), in its order, the slice's entitlement, demand and grant
    (`compute_slice_allocations`) in Mb/s, each rendered from its value in
    units through `texts`."""
    grants = manager.compute_slice_allocations(demands, entitlements, physical)
    head = f"{now_ms}\t{fog_id}"
    return [
        f"{head}\t{sid}\t{cls}\t"
        f"{texts[entitled]}\t{texts[demands[sid, cls]]}\t{texts[grants[sid, cls]]}"
        for (sid, cls), entitled in entitlements.items()
    ]
