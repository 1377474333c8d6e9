import json
import random
from dataclasses import asdict, dataclass
from itertools import islice

import pytest

from nonincidence import BudgetExhausted, Design, NonincidenceCertificate
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


# Greedy as it was before it stopped at its peak: it runs until every
# block is dead and keeps the best set it passed.  Kept as the reference
# that the current greedy must match certificate for certificate.


def reference_greedy(d: Design) -> tuple[int, NonincidenceCertificate]:
    """(best_s, certificate) of the greedy loop that runs to the end."""
    inc = d.point_incidence
    shift = d.v.bit_length()
    low = (1 << shift) - 1
    mask = d.all_blocks_mask()
    Y: list[int] = []
    taken: set[int] = set()
    best, best_Y, best_mask = 0, (), mask
    while len(Y) < d.v and mask:
        key = min(((inc[q] & mask).bit_count() << shift) | q
                  for q in range(d.v) if q not in taken)
        p = key & low
        Y.append(p)
        taken.add(p)
        mask &= ~inc[p]
        value = min(len(Y), mask.bit_count())
        if value > best:
            best, best_Y, best_mask = value, tuple(Y), mask
    meta = {"method": "greedy", "exact": False}
    blocks = list(islice(_bits(best_mask), best))
    cert = NonincidenceCertificate.build(d, sorted(best_Y)[:best], blocks,
                                         meta=meta)
    return best, cert


# The repeated-pair scan as it was before Design.from_blocks tested block
# masks: a set of every pair seen, in canonical block order.  Kept as the
# reference for the pair that from_blocks' error names.


def reference_repeated_pair(blocks) -> tuple[int, int]:
    """The first pair, in block order, that lies on two of the sorted blocks."""
    seen = set()
    for a, b, c in blocks:
        for pair in ((a, b), (a, c), (b, c)):
            if pair in seen:
                return pair
            seen.add(pair)


# The canonical text as json.dumps writes it, as Design.canonical_json did
# before it formatted the text in one pass.  Every stored digest was taken
# over these bytes, so it is kept as the reference they must stay equal to.


def reference_canonical_json(d: Design) -> str:
    return json.dumps({"v": d.v, "blocks": [list(b) for b in d.blocks]},
                      separators=(",", ":"), sort_keys=True)


# A certificate's or a search report's JSON as dataclasses.asdict built
# it, before to_json read the fields in place.  Every certificate file was
# written in these bytes, so they are kept as the reference.


def reference_to_json(obj) -> str:
    return json.dumps(asdict(obj), indent=2, sort_keys=True)


# Point-set statistics that only the tests use.


def replication(d: Design) -> int:
    """Blocks through each point in a valid STS: (v-1)/2."""
    return (d.v - 1) // 2


def block_masks(d: Design) -> list[int]:
    """Per block, the mask over its three points, built from d.blocks."""
    return [1 << a | 1 << b | 1 << c for a, b, c in d.blocks]


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
    masks = block_masks(d)
    for i in _bits(covered):
        k = (masks[i] & ymask).bit_count()
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
        (m & ymask).bit_count() in (0, 2) for m in block_masks(d)
    )


# The hill-climb as it was before it kept sorted uncovered-partner lists:
# it rebuilds each point's partner list by scanning its row.  Kept as the
# reference that the current climb must match block for block and call
# for call on the random generator.


def reference_hill_climb(
    v: int,
    fixed_blocks: list[tuple[int, int, int]],
    rng: random.Random,
    move_budget: int,
) -> list[tuple[int, int, int]]:
    """Complete a partial triple system to an STS(v), keeping fixed blocks.

    Classic switch-based hill-climbing: pick a point of deficient degree,
    pick two of its uncovered partners, insert the triple, evicting the
    block that covered the partner pair if there was one.  Fixed blocks
    are never evicted.  Las Vegas: returns a valid block list or raises.
    """
    r = (v - 1) // 2
    target = v * (v - 1) // 6
    cover: list[list[tuple[int, int, int] | None]] = [[None] * v for _ in range(v)]
    deg = [0] * v
    fixed = set(fixed_blocks)
    blocks = set()

    def add(blk):
        blocks.add(blk)
        a, b, c = blk
        cover[a][b] = cover[b][a] = blk
        cover[a][c] = cover[c][a] = blk
        cover[b][c] = cover[c][b] = blk
        deg[a] += 1
        deg[b] += 1
        deg[c] += 1

    def remove(blk):
        blocks.discard(blk)
        a, b, c = blk
        cover[a][b] = cover[b][a] = None
        cover[a][c] = cover[c][a] = None
        cover[b][c] = cover[c][b] = None
        deg[a] -= 1
        deg[b] -= 1
        deg[c] -= 1

    for blk in fixed_blocks:
        add(blk)

    moves = 0
    while len(blocks) < target:
        moves += 1
        if moves > move_budget:
            raise BudgetExhausted(
                f"no STS({v}) completion within {move_budget} moves"
            )
        x = rng.randrange(v)
        if deg[x] == r:
            continue
        row = cover[x]
        partners = [y for y in range(v) if y != x and row[y] is None]
        y, z = rng.sample(partners, 2)
        displaced = cover[y][z]
        if displaced is not None:
            if displaced in fixed:
                continue
            remove(displaced)
        add(tuple(sorted((x, y, z))))
    return sorted(blocks)


class CountingRandom(random.Random):
    """A Random that records what randrange and sample return.

    It draws exactly what random.Random draws: sample reaches the
    generator through _randbelow, not through randrange.
    """

    def __init__(self, seed=None):
        super().__init__(seed)
        self.points = []
        self.pairs = []

    def randrange(self, *args):
        x = super().randrange(*args)
        self.points.append(x)
        return x

    def sample(self, population, k):
        out = super().sample(population, k)
        self.pairs.append(tuple(out))
        return out


def climb_counts(rng: CountingRandom, fixed_blocks) -> tuple[int, int]:
    """(moves, blocks added) of a finished climb, from its draws.

    Every move draws one point, and a drawn pair is inserted unless a
    fixed block covers it.
    """
    fixed_pairs = {
        pair for a, b, c in fixed_blocks for pair in ((a, b), (a, c), (b, c))
    }
    added = sum(1 for y, z in rng.pairs if (min(y, z), max(y, z)) not in fixed_pairs)
    return len(rng.points), added
