from dataclasses import dataclass

import pytest

from nonincidence import Design
from nonincidence.design import _bits, _point_mask

# Hand-written reference systems, independent of the package's builders.
FANO_BLOCKS = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6),
    (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]

# AG(2,3) with point (row, col) labeled 3*row + col: rows, columns and
# the two diagonal parallel classes.
AG23_BLOCKS = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
    (0, 5, 7), (1, 3, 8), (2, 4, 6),
]


@pytest.fixture
def fano():
    return Design.from_blocks(7, FANO_BLOCKS)


@pytest.fixture
def ag23():
    return Design.from_blocks(9, AG23_BLOCKS)


def naive_disjoint_count(design, points):
    """Disjoint-block oracle by plain tuple scanning, no bitmasks."""
    pts = set(points)
    return sum(1 for blk in design.blocks if not pts & set(blk))


BRUTE_FORCE_MAX_V = 15


def brute_force_oracle(d) -> int:
    """Max of min(|Y|, t(Y)) by enumerating every point subset.

    Independent of the branch-and-bound search; it visits all 2^v subsets,
    hence the hard cap on v.
    """
    if d.v > BRUTE_FORCE_MAX_V:
        raise ValueError(f"brute force refuses v={d.v} > {BRUTE_FORCE_MAX_V}")
    b = d.b
    inc = d.point_incidence
    n = 1 << d.v
    covered = [0] * n
    best = 0
    for m in range(1, n):
        low = m & -m
        covered[m] = covered[m ^ low] | inc[low.bit_length() - 1]
        t = b - covered[m].bit_count()
        val = min(m.bit_count(), t)
        if val > best:
            best = val
    return best


# Point-set statistics that only the tests use.


def replication(d: Design) -> int:
    """Blocks through each point in a valid STS: (v-1)/2."""
    return (d.v - 1) // 2


def _covered_mask(d: Design, points) -> int:
    """Bitmask of block indices meeting the given point set."""
    m = 0
    for p in _bits(_point_mask(d, points)):
        m |= d.point_incidence[p]
    return m


def disjoint_block_count(d: Design, points) -> int:
    """Number of blocks avoiding every point of the given set."""
    return d.b - _covered_mask(d, points).bit_count()


@dataclass(frozen=True)
class CoverageProfile:
    """Intersection statistics of the blocks meeting a point set Y.

    For a valid STS the last three fields are forced by counting:
    sum_sizes = r*s, sum_pairs = s(s-1)/2 and sum_squares = s(s+r-1).
    """

    s: int
    c: int
    sum_sizes: int
    sum_pairs: int
    sum_squares: int


def coverage_profile(d: Design, points) -> CoverageProfile:
    ymask = _point_mask(d, points)
    s = ymask.bit_count()
    covered = _covered_mask(d, points)
    c = sum_sizes = sum_pairs = sum_squares = 0
    for i in _bits(covered):
        k = (d.block_mask[i] & ymask).bit_count()
        c += 1
        sum_sizes += k
        sum_pairs += k * (k - 1) // 2
        sum_squares += k * k
    return CoverageProfile(s, c, sum_sizes, sum_pairs, sum_squares)


def is_maximal_arc(d: Design, points) -> bool:
    """True iff the set has (v+1)/2 points and every block meets it in 0 or 2."""
    ymask = _point_mask(d, points)
    if 2 * ymask.bit_count() != d.v + 1:
        return False
    return all(
        (m & ymask).bit_count() in (0, 2) for m in d.block_mask
    )
