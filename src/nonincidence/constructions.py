"""Builders of Steiner triple systems.

Three routes: the classical Bose construction for v = 3 mod 6, the
doubling construction STS(w) -> STS(2w+1) (which also yields a maximal
arc on the new points), and randomized hill-climbing completion around a
frozen sub-design for everything the direct constructions do not reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .design import Design, NonincidenceCertificate, validate_design

DEFAULT_MOVE_BUDGET = 10_000_000


class BudgetExhausted(RuntimeError):
    """Hill-climbing ran out of moves; retryable with another seed."""


def one_factorization(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Circle-method partition of K_n's edges into n-1 perfect matchings.

    Vertex n-1 sits at the center; vertices 0..n-2 rotate.  Deterministic.
    """
    if n < 2 or n % 2:
        raise ValueError(f"one-factorization needs even n >= 2, got {n}")
    m = n - 1
    factors = []
    for k in range(m):
        pairs = [tuple(sorted((k, m)))]
        for i in range(1, n // 2):
            a = (k + i) % m
            b = (k - i) % m
            pairs.append(tuple(sorted((a, b))))
        factors.append(tuple(sorted(pairs)))
    return tuple(factors)


def bose(v: int) -> Design:
    """Bose construction of an STS(v) on Z_n x {0,1,2}, n = v/3 odd."""
    if v % 6 != 3:
        raise ValueError(f"Bose construction needs v = 3 mod 6, got {v}")
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

    Old points keep labels 0..w-1; the w+1 new points w..2w carry a
    one-factorization whose factor x is joined to old point x.  The new
    points form a maximal arc: old blocks miss them, new blocks use two.
    """
    if not validate_design(sub).ok:
        raise ValueError(f"doubling input is not a valid STS({sub.v})")
    w = sub.v
    factors = one_factorization(w + 1)
    blocks = list(sub.blocks)
    for x in range(w):
        for a, b in factors[x]:
            blocks.append((x, w + a, w + b))
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


def embed_subsystem(
    w: int,
    v: int,
    seed: int = 0,
    move_budget: int = DEFAULT_MOVE_BUDGET,
) -> EmbeddedDesign:
    """An STS(v) containing a flagged sub-STS(w) on points 0..w-1.

    The sub-design is built directly, then the remaining pairs are
    completed by hill-climbing that never touches the frozen sub-blocks.
    Deterministic for a given (w, v, seed).
    """
    if v % 6 not in (1, 3) or w % 6 not in (1, 3):
        raise ValueError(f"orders ({w}, {v}) must both be 1 or 3 mod 6")
    if w < 1 or v < 2 * w + 1:
        raise ValueError(f"an STS({v}) cannot properly contain a sub-STS({w})")
    rng = random.Random(seed)
    sub_blocks = [] if w < 3 else list(build_sts(w, seed=rng.randrange(2**32)).blocks)
    blocks = _hill_climb(v, sub_blocks, rng, move_budget)
    d = Design.from_blocks(v, blocks)
    fixed = set(sub_blocks)
    idx = tuple(i for i, blk in enumerate(d.blocks) if blk in fixed)
    return EmbeddedDesign(
        design=d,
        sub_points=tuple(range(w)),
        sub_blocks=idx,
        meta={"construction": "embed_subsystem", "w": w, "v": v, "seed": seed},
    )


def build_sts(v: int, seed: int = 0) -> Design:
    """Some STS(v): Bose when v = 3 mod 6, hill-climbing when v = 1 mod 6."""
    if v % 6 not in (1, 3) or v < 1:
        raise ValueError(f"no STS of order {v} exists")
    if v == 1:
        return Design.from_blocks(1, [])
    if v % 6 == 3:
        return bose(v)
    return embed_subsystem(3, v, seed=seed).design


def subsystem_complement_certificate(e: EmbeddedDesign):
    """Nonincident certificate from a flagged subsystem.

    Y is everything outside the sub-design, C its interior blocks;
    C is trimmed to |Y| entries when the subsystem has more blocks than
    there are outside points, so the claim stays square.
    """
    d = e.design
    sub = set(e.sub_points)
    outside = [p for p in range(d.v) if p not in sub]
    c = list(e.sub_blocks)
    if len(c) > len(outside):
        c = c[: len(outside)]
    meta = dict(e.meta)
    meta.setdefault("construction", "embed_subsystem")
    return NonincidenceCertificate.build(d, outside, c, meta=meta)
