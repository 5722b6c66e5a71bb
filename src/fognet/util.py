"""Exact-rate arithmetic and deterministic seed derivation.

Every rate is exact, so conservation checks hold with no float tolerance.
Config files may spell rates as ints, decimals, or "p/q" strings, which
`to_rate` parses into a `fractions.Fraction` in Mb/s; configs, a
flow's allocated rate (`NetworkState.allocated`) and every output carry
rates in that form.

Flows, ledgers, the controllers' admission tests and the max-min solver
hold rates as plain `int` multiples of one exact unit instead, `1/unit` Mb/s,
fixed when the network state is built (`rate_unit`); `in_units` raises
ValueError for a rate that is not a whole number of it. The unit also
makes every slice's entitlement, its share times a whole number of units
of capacity, a whole number of units. Each configured rate is converted
once, when a simulation is built (a policy rule's guarantee, a workload
class's demand, the control overhead; a subscriber's cap is floored), so
no request converts one. Adding and comparing ints costs a fraction of
the same `Fraction` work. A `Fraction` is made only where a division happens
(a max-min level, the slice allocator's split of leftover capacity, a
utilization) and where a config rate leaves for an output. A rate in
units leaves as its int and the unit, which `rate_str` renders without
building a `Fraction`.
"""

from __future__ import annotations

import hashlib
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

ZERO = Fraction(0)


def to_rate(value) -> Fraction:
    """Parse a config number into an exact Fraction.

    Accepts int, float, Fraction, decimal strings ("2.5") and ratio
    strings ("5/2"). Floats go through their shortest repr, so a YAML
    ``0.1`` becomes exactly 1/10. Raises ValueError("not a rate: ...")
    for a malformed or non-finite string or float, a ratio with a
    non-integer part or a zero denominator, and TypeError for a
    non-number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        text = repr(value)
    elif isinstance(value, str):
        text = value.strip()
    else:
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(Decimal(text))
    except (ValueError, ArithmeticError) as exc:  # ArithmeticError: a zero denominator, inf
        raise ValueError(f"not a rate: {value!r}") from exc


def in_units(rate, unit: int) -> int:
    """`rate` (Mb/s, a Fraction or int) as a whole number of `1/unit` Mb/s.

    Raises ValueError when `unit` is not a multiple of the rate's
    denominator."""
    den = rate.denominator
    if unit % den:
        raise ValueError(f"rate {rate} is not a whole number of 1/{unit} Mb/s")
    return rate.numerator * (unit // den)


def rate_unit(rates: Iterable, shares: Iterable = ()) -> int:
    """The unit of a network state, `1/unit` Mb/s: the least common
    multiple of the denominators of `rates`, every rate a ledger may hold,
    times that of the denominators of `shares`, the slice shares.

    Every sum of rates is then a whole number of units and a multiple of
    the shares' multiple, so each share of it is whole too. It must be the
    product, not one least common multiple of all: a 2.2 Mb/s capacity
    alone needs a unit of 5 and is 11 units, and its 0.6 share is 33/5 of
    them at a unit of lcm(5, 5) = 5, but 33 at 5 x 5 = 25."""
    return lcm(*(rate.denominator for rate in rates)) * lcm(*(share.denominator for share in shares))


def rate_str(x, unit: int = 1) -> str:
    """Shortest exact rendering of the rate `x / unit`, for `x` an int or a
    Fraction (`x` in units of `1/unit` Mb/s, or in Mb/s at the default
    unit): decimal if finite, else p/q in lowest terms."""
    num, den = x.numerator, x.denominator * unit
    divisor = gcd(num, den)
    if divisor != 1:
        num //= divisor
        den //= divisor
    if den == 1:
        return str(num)
    rest = den
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = abs(num) * 10**digits // den
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def fmt6(x) -> str:
    """Fixed 6-decimal rendering used in metric exports (byte-stable)."""
    return f"{float(x):.6f}"


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent sub-seed for one random stream.

    Streams are keyed by label so adding a new stream never perturbs the
    draws of existing ones.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
