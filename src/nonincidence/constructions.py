"""Builders of Steiner triple systems.

Three routes: the classical Bose construction for v = 3 mod 6, the
doubling construction STS(w) -> STS(2w+1) (which also yields a maximal
arc on the new points), and randomized hill-climbing completion around a
frozen sub-design for everything the direct constructions do not reach.

Every route refuses an order above MAX_ORDER (see design.py) with
DesignError, a ValueError, before it allocates anything that grows with
the order: bose and doubling at once, and the hill-climb, which
build_sts and embed_subsystem reach, right after its budget test.  So a
climb that its budget cannot finish still raises BudgetExhausted first.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from itertools import permutations

from .bounds import check_admissible
from .design import (
    Design,
    NonincidenceCertificate,
    check_order,
    is_subsystem,
    validate_design,
)

DEFAULT_MOVE_BUDGET = 10_000_000


class BudgetExhausted(RuntimeError):
    """Hill-climbing ran out of moves; retryable with another seed."""


def bose(v: int) -> Design:
    """Bose construction of an STS(v) on Z_n x {0,1,2}, n = v/3 odd.

    An order above MAX_ORDER raises DesignError before any block is built.
    """
    if v % 6 != 3:
        raise ValueError(f"Bose construction needs v = 3 mod 6, got {v}")
    check_order(v)
    n = v // 3
    inv2 = (n + 1) // 2

    def lab(x: int, j: int) -> int:
        return x + n * j

    blocks = [(lab(x, 0), lab(x, 1), lab(x, 2)) for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            mid = ((x + y) * inv2) % n
            for j in range(3):
                blocks.append((lab(x, j), lab(y, j), lab(mid, (j + 1) % 3)))
    return Design.from_blocks(v, blocks)


def doubling(sub: Design) -> tuple[Design, tuple[int, ...]]:
    """Extend an STS(w) to an STS(2w+1); returns (design, arc).

    Old points keep labels 0..w-1; the w+1 new points w..2w carry the
    circle-method one-factorization, whose factor x is joined to old point
    x: the pair {w+x, 2w} and the pairs {w+(x+i) mod w, w+(x-i) mod w} for
    1 <= i < (w+1)/2.  These factors hold every pair of new points once,
    as w is odd: {w+a, 2w} is in factor a, and {w+a, w+b} in the one x
    with 2x = a+b (mod w).  The new points form a maximal arc: old blocks
    miss them, new blocks use two.
    """
    if not validate_design(sub).ok:
        raise ValueError(f"doubling input is not a valid STS({sub.v})")
    w = sub.v
    check_order(2 * w + 1)
    blocks = list(sub.blocks)
    for x in range(w):
        blocks.append((x, w + x, 2 * w))
        for i in range(1, (w + 1) // 2):
            blocks.append((x, w + (x + i) % w, w + (x - i) % w))
    arc = tuple(range(w, 2 * w + 1))
    return Design.from_blocks(2 * w + 1, blocks), arc


@dataclass(frozen=True)
class EmbeddedDesign:
    """An STS(v) with a flagged sub-STS(w) on points 0..w-1."""

    design: Design
    sub_points: tuple[int, ...]
    sub_blocks: tuple[int, ...]
    meta: dict = field(default_factory=dict)


def _hill_climb(
    v: int,
    fixed_blocks: list[tuple[int, int, int]],
    rng: random.Random,
    move_budget: int,
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Complete a partial triple system to an STS(v), keeping fixed blocks.

    Classic switch-based hill-climbing: pick a point of deficient degree,
    pick two of its uncovered partners, insert the triple, evicting the
    block that covered the partner pair if there was one.  Fixed blocks
    are never evicted.  Las Vegas: returns (blocks, moves, evictions) or
    raises; moves counts every point drawn, evictions every block removed.

    fixed_blocks is a partial STS(v) that lacks at least one block, as
    embed_subsystem's v >= 2w + 1 ensures.

    The state is two structures.  ``unc[x]`` is x's uncovered partners in
    ascending order, kept up to date by each insertion and eviction: the
    list a scan of x's row for uncovered pairs would build.  No pair is
    covered twice, so x has full degree exactly when ``unc[x]`` is empty.
    ``third[y][z]`` is one v x v table of third points: -1 for an
    uncovered pair, -2 - c for a pair of the fixed block {y, z, c}, which
    is never evicted (a move that draws it still counts and changes
    nothing), and otherwise the third point of the climbed block through
    y and z.  An eviction frees only the pairs through the evicted
    block's third point, since the new block covers the drawn pair again.
    The finished blocks are read off the table row by row, so they come
    out in lexicographic order.

    Every draw is rejection sampling on ``rng.getrandbits``: the point x
    takes k = v.bit_length() bits until a value below v comes up, which is
    what ``rng.randrange(v)`` does.  The pair from the n = len(unc[x])
    partners is drawn as ``rng.sample(unc[x], 2)`` draws it.  Index i
    comes first, below n.  For two items out of n <= 21, sample works on
    a copy of the list whose slot i takes the last partner, so j is drawn
    below n - 1 and j == i stands for partners[n-1].  For larger n it
    draws j below n again until j != i.  So the calls on ``rng``, and
    therefore the blocks, are those of the row scan with those two
    methods, while the designs depend only on the generator's bit stream.

    A move adds at most one block, so a climb that needs more than
    move_budget new blocks cannot finish: it raises at once, before it
    draws or allocates its table.  Past that test, an order above
    MAX_ORDER raises DesignError, also before anything is allocated.  The
    moves are then one loop over range(1, move_budget + 1), which breaks
    when no block is missing; a loop that runs out raises BudgetExhausted.
    """
    missing = v * (v - 1) // 6 - len(fixed_blocks)
    out_of_moves = BudgetExhausted(
        f"no STS({v}) completion within {move_budget} moves")
    if missing > move_budget:
        raise out_of_moves
    check_order(v)
    third = [[-1] * v for _ in range(v)]
    points = list(range(v))
    unc = [points[:x] + points[x + 1:] for x in points]
    for blk in fixed_blocks:
        for p, q, r in permutations(blk):
            third[p][q] = -2 - r
            unc[p].remove(q)

    getrandbits = rng.getrandbits
    kv = v.bit_length()
    evictions = 0
    for moves in range(1, move_budget + 1):
        x = getrandbits(kv)
        while x >= v:
            x = getrandbits(kv)
        partners = unc[x]
        if not partners:
            continue
        n = len(partners)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        y = partners[i]
        if n <= 21:
            n -= 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            z = partners[n if j == i else j]
        else:
            j = getrandbits(k)
            while j >= n or j == i:
                j = getrandbits(k)
            z = partners[j]
        ty = third[y]
        c = ty[z]
        if c < -1:
            continue
        tz, uy, uz = third[z], unc[y], unc[z]
        if c < 0:
            missing -= 1
            uy.remove(z)
            uz.remove(y)
        else:
            # Evict {y, z, c}.
            tc, uc = third[c], unc[c]
            ty[c] = tz[c] = tc[y] = tc[z] = -1
            insort(uy, c)
            insort(uz, c)
            insort(uc, y)
            insort(uc, z)
            evictions += 1
        third[x][y] = ty[x] = z
        third[x][z] = tz[x] = y
        ty[z] = tz[y] = x
        partners.remove(y)
        partners.remove(z)
        uy.remove(x)
        uz.remove(x)
        if not missing:
            break
    else:
        raise out_of_moves
    blocks = []
    for a, row in enumerate(third):
        for b in range(a + 1, v):
            c = row[b]
            if c < 0:
                c = -2 - c
            if c > b:
                blocks.append((a, b, c))
    return blocks, moves, evictions


def embed_subsystem(
    w: int,
    v: int,
    seed: int = 0,
    move_budget: int = DEFAULT_MOVE_BUDGET,
) -> EmbeddedDesign:
    """An STS(v) containing a flagged sub-STS(w) on points 0..w-1.

    The sub-design is built directly, then the remaining pairs are
    completed by hill-climbing that never touches the frozen sub-blocks.
    Deterministic for a given (w, v, seed); meta records the climb's
    moves and evictions.  move_budget bounds each climb: the sub-design's,
    when build_sts climbs for it, and the completion's.

    Near v = 2w + 1 the completion often stalls and spends its whole
    budget: at a 200,000-move budget, (15, 33) fails at seeds 1 and 2 of
    0-7 and (21, 49) at seeds 1, 4 and 5.  An outside point whose missing
    partners are two sub-design points can never move, because the block
    through that pair is frozen; in the stalled (15, 33) seed-1 climb,
    outside points 20, 21 and 27 each miss two of the sub points 0, 12
    and 13.  BudgetExhausted is then the answer; retry another seed.
    """
    check_admissible(v)
    check_admissible(w)
    if v < 2 * w + 1:
        raise ValueError(f"an STS({v}) cannot properly contain a sub-STS({w})")
    rng = random.Random(seed)
    sub_blocks = [] if w < 3 else list(
        build_sts(w, seed=rng.randrange(2**32), move_budget=move_budget).blocks
    )
    blocks, moves, evictions = _hill_climb(v, sub_blocks, rng, move_budget)
    d = Design.from_blocks(v, blocks)
    return EmbeddedDesign(
        design=d,
        sub_points=tuple(range(w)),
        sub_blocks=is_subsystem(d, range(w))[1],
        meta={"construction": "embed_subsystem", "w": w, "v": v, "seed": seed,
              "moves": moves, "evictions": evictions},
    )


def build_sts(
    v: int, seed: int = 0, move_budget: int = DEFAULT_MOVE_BUDGET
) -> Design:
    """Some STS(v): Bose when v = 3 mod 6, hill-climbing when v = 1 mod 6.

    move_budget bounds the climb; Bose makes no moves.  An order above
    MAX_ORDER raises DesignError (module docstring).
    """
    check_admissible(v)
    if v == 1:
        return Design.from_blocks(1, [])
    if v % 6 == 3:
        return bose(v)
    return embed_subsystem(3, v, seed=seed, move_budget=move_budget).design


def subsystem_complement_certificate(e: EmbeddedDesign):
    """Nonincident certificate from a flagged subsystem.

    Y is everything outside the sub-design, C its interior blocks,
    trimmed to |Y| entries.  The claim is square only when the subsystem
    has at least as many blocks as there are outside points: a sub-STS(3)
    in an STS(7) gives 4 points and 1 block, and a sub-STS(15) in an
    STS(63) gives 48 points and 35 blocks.  Raises
    ValueError when the subsystem has no block (a sub-STS(1)): the
    certificate would be empty, and verification refuses an empty one.
    """
    if not e.sub_blocks:
        raise ValueError(
            f"a sub-STS({len(e.sub_points)}) has no block to certify")
    sub = set(e.sub_points)
    outside = [p for p in range(e.design.v) if p not in sub]
    return NonincidenceCertificate.build(
        e.design, outside, e.sub_blocks[:len(outside)], meta=e.meta)
