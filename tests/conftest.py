import pytest

from nonincidence import Design

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
