"""Exact integer bounds on nonincident point/block sets in an STS(v).

Everything here is arbitrary-precision integer arithmetic; there is no
floating point anywhere, so results are identical across platforms and
exact at the orders where 24v+25 is a perfect square.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


def _check_admissible(v: int) -> None:
    if v < 1 or v % 6 not in (1, 3):
        raise ValueError(f"order {v} is not a positive integer 1 or 3 mod 6")


def disjoint_block_bound(v: int, s: int) -> int:
    """Max number of blocks disjoint from any s-point set in an STS(v).

    This is floor((v-s)(v-s-1) / 6): a block avoiding the set Y holds
    three of the C(v-s, 2) pairs among the points off Y, and no pair lies
    on two blocks.  The product is never negative for 0 <= s <= v, but
    not always divisible by 6 (e.g. v=9, s=1), so the result is floored.
    """
    _check_admissible(v)
    if not 0 <= s <= v:
        raise ValueError(f"point-set size {s} outside 0..{v}")
    return (v - s) * (v - s - 1) // 6


def nonincidence_upper_bound(v: int) -> int:
    """Largest s admitting s points and s mutually nonincident blocks.

    This is floor((2v+5 - sqrt(24v+25)) / 2): the largest s with
    2v+5-2s >= ceil(sqrt(24v+25)) = isqrt(24v+24) + 1.
    """
    _check_admissible(v)
    return (2 * v + 4 - isqrt(24 * v + 24)) // 2


# Family key: (u as a function of z, sign in t = 6u +/- 1).
# Families 1,2 have t = 6u+1 with u = 12z+1, 12z+5; families 3,4 have
# t = 6u-1 with u = 12z+4, 12z+8.
_FAMILIES = {
    1: (1, +1),
    2: (5, +1),
    3: (4, -1),
    4: (8, -1),
}


@dataclass(frozen=True)
class EqualityFamilyRecord:
    """An order v where the upper bound is attained, with its parameters.

    w = v - s is the order of the subsystem whose complement realizes the
    bound; t is the exact square root of 24v+25 and u relates to it by
    t = 6u+1 (families 1, 2) or t = 6u-1 (families 3, 4).
    """

    family: int
    z: int
    v: int
    s: int
    w: int
    t: int
    u: int


def _record(family: int, z: int) -> EqualityFamilyRecord:
    base, sign = _FAMILIES[family]
    u = 12 * z + base
    t = 6 * u + sign
    v = (t * t - 25) // 24
    s = v - (t - 5) // 2
    rec = EqualityFamilyRecord(family=family, z=z, v=v, s=s, w=v - s, t=t, u=u)
    # Internal consistency; cheap enough to keep on.
    assert 24 * rec.v + 25 == t * t
    assert rec.v % 6 in (1, 3) and rec.w % 6 in (1, 3)
    assert rec.v >= 2 * rec.w + 1 or rec.v == rec.w
    return rec


def enumerate_equality_orders(z_max: int) -> list[EqualityFamilyRecord]:
    """All equality-family records for z = 0..z_max, sorted by v."""
    if z_max < 0:
        raise ValueError("z_max must be non-negative")
    out = [
        _record(fam, z) for z in range(z_max + 1) for fam in sorted(_FAMILIES)
    ]
    out.sort(key=lambda r: r.v)
    return out


def classify_equality_order(v: int) -> EqualityFamilyRecord | None:
    """The family record for v, or None when equality is impossible there.

    Inverts _record.  When 24v+25 = t^2, t is prime to 6, so t = 6u+1 or
    t = 6u-1.  Then s = v - (t-5)/2 and w = v - s = (t-5)/2 give
    t = 6u+1: w = 3u-2, v = (3u-2)(u+1)/2;
    t = 6u-1: w = 3u-3, v = (3u+2)(u-1)/2.
    Both v and w are admissible orders (1 or 3 mod 6) exactly when
    u = 1, 5 (mod 12) for the first sign and u = 4, 8 (mod 12) for the
    second, the four keys of _FAMILIES; at those residues v >= 2w+1, or
    v = w = 1.  So the lookup below misses exactly where equality is
    impossible, and _record's assertions restate the conditions.
    """
    if v < 1 or v % 6 not in (1, 3):
        return None
    t = isqrt(24 * v + 25)
    if t * t != 24 * v + 25:
        return None
    sign = 1 if t % 6 == 1 else -1
    u = (t - sign) // 6
    family = next((f for f, key in _FAMILIES.items() if key == (u % 12, sign)),
                  None)
    return None if family is None else _record(family, u // 12)


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
    _check_admissible(v)
    rows = tuple(
        (s, disjoint_block_bound(v, s), s) for s in range(v + 1)
    )
    return CurveData(v=v, rows=rows)
