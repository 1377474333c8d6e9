"""Exact integer bounds on nonincident point/block sets in an STS(v).

Everything here is arbitrary-precision integer arithmetic; there is no
floating point anywhere, so results are identical across platforms and
exact at the orders where 24v+25 is a perfect square.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import isqrt

from .design import check_order


def check_admissible(v: int) -> None:
    """Raise ValueError unless some STS(v) exists: v >= 1, 1 or 3 mod 6."""
    if v < 1 or v % 6 not in (1, 3):
        raise ValueError(
            f"order {v} is inadmissible: an STS needs v >= 1, 1 or 3 mod 6")


def disjoint_block_bound(v: int, s: int) -> int:
    """Max number of blocks disjoint from any s-point set in an STS(v).

    This is floor((v-s)(v-s-1) / 6): a block avoiding the set Y holds
    three of the C(v-s, 2) pairs among the points off Y, and no pair lies
    on two blocks.  The product is never negative for 0 <= s <= v, but
    not always divisible by 6 (e.g. v=9, s=1), so the result is floored.
    """
    check_admissible(v)
    if not 0 <= s <= v:
        raise ValueError(f"point-set size {s} outside 0..{v}")
    return (v - s) * (v - s - 1) // 6


def nonincidence_upper_bound(v: int) -> int:
    """Largest s admitting s points and s mutually nonincident blocks.

    This is floor((2v+5 - sqrt(24v+25)) / 2): the largest s with
    2v+5-2s >= ceil(sqrt(24v+25)) = isqrt(24v+24) + 1.
    """
    check_admissible(v)
    return (2 * v + 4 - isqrt(24 * v + 24)) // 2


# Equality orders: t mod 72 -> family, where t = sqrt(24v+25).  When
# 24v+25 = t^2, t is prime to 6, so t = 6u+1 or t = 6u-1, and
# w = (t-5)/2, the order of the subsystem left by s = v - w, gives
#   t = 6u+1: w = 3u-2, v = (3u-2)(u+1)/2;
#   t = 6u-1: w = 3u-3, v = (3u+2)(u-1)/2.
# Both v and w are admissible orders (1 or 3 mod 6) exactly when
# u = 1, 5 (mod 12) for the first sign and u = 4, 8 (mod 12) for the
# second, that is t = 7, 31 and t = 23, 47 (mod 72); there v >= 2w+1, or
# v = w = 1.  The keys are in t order, all below the next z's 72z + 79,
# and v grows with t: so the records made z by z, key by key, come in
# v order.  The family numbers go by sign, then u: families 1 and 2 are
# u = 12z+1 and 12z+5 with t = 6u+1, families 3 and 4 are u = 12z+4 and
# 12z+8 with t = 6u-1.
_FAMILIES = {7: 1, 23: 3, 31: 2, 47: 4}


@dataclass(frozen=True)
class EqualityFamilyRecord:
    """An order v where the upper bound is attained, with its parameters.

    t is the exact square root of 24v+25, and t = 7, 23, 31 or 47
    (mod 72) picks the family; z = t // 72.  w = (t-5)/2 = v - s is the
    order of the subsystem whose complement realizes the bound, and u
    relates to t by t = 6u+1 (families 1, 2) or t = 6u-1 (families 3, 4).
    """

    family: int
    z: int
    v: int
    s: int
    w: int
    t: int
    u: int


def _record(t: int) -> EqualityFamilyRecord:
    v = (t * t - 25) // 24
    w = (t - 5) // 2
    rec = EqualityFamilyRecord(family=_FAMILIES[t % 72], z=t // 72, v=v,
                               s=v - w, w=w, t=t, u=(t + 3) // 6)
    # Internal consistency; cheap enough to keep on.
    assert 24 * rec.v + 25 == t * t
    assert rec.v % 6 in (1, 3) and rec.w % 6 in (1, 3)
    assert rec.v >= 2 * rec.w + 1 or rec.v == rec.w
    return rec


def iter_equality_orders(z_max: int) -> Iterator[EqualityFamilyRecord]:
    """The equality-family records for z = 0..z_max in v order, each made
    as it is asked for (see _FAMILIES for the order)."""
    if z_max < 0:
        raise ValueError("z_max must be non-negative")
    return (_record(72 * z + r) for z in range(z_max + 1) for r in _FAMILIES)


def classify_equality_order(v: int) -> EqualityFamilyRecord | None:
    """The family record for v, or None when equality is impossible there.

    Equality needs 24v+25 = t^2, v and w = v - s = (t-5)/2 admissible
    orders, and room for a sub-STS(w) in an STS(v); by the derivation at
    _FAMILIES that is exactly t = 7, 23, 31 or 47 (mod 72), and
    _record's assertions restate the conditions.
    """
    if v < 1:
        return None
    t = isqrt(24 * v + 25)
    if t * t != 24 * v + 25 or t % 72 not in _FAMILIES:
        return None
    return _record(t)


@dataclass(frozen=True)
class CurveData:
    """Tabulated disjoint-block bound versus the diagonal for one order.

    rows are (s, bound, s) for s = 0..v; the bound stays on or above the
    diagonal up to s = nonincidence_upper_bound(v) and falls below after.
    """

    v: int
    rows: tuple[tuple[int, int, int], ...]

    def to_csv(self) -> str:
        lines = ["s,bound,diagonal"]
        lines.extend(f"{s},{b},{diag}" for s, b, diag in self.rows)
        return "\n".join(lines) + "\n"


def intersection_curve_data(v: int) -> CurveData:
    """The curve of order v: v + 1 rows, so an order above MAX_ORDER is
    refused (DesignError, a ValueError) before any row is made."""
    check_admissible(v)
    check_order(v)
    rows = tuple(
        (s, disjoint_block_bound(v, s), s) for s in range(v + 1)
    )
    return CurveData(v=v, rows=rows)
