"""Search for the largest square nonincident point/block set in a design.

A design admits s points and s nonincident blocks iff some point set Y of
size s has at least s disjoint blocks, which can then be picked freely.
So the search maximizes min(|Y|, t(Y)), where t(Y) counts the live blocks
(those avoiding Y); t is antitone under adding points.

The exact search is one branch-and-bound.  Its incumbent starts from the
greedy heuristic.  At each node every candidate's live degree is computed
once, and children go in ascending degree order with t - degree as their
t.  Counting bound: two points share at most lam blocks (the design's
largest pair multiplicity, 1 for an STS), so adding j candidates kills at
least S_j - lam*C(j,2) live blocks, S_j being the sum of the j smallest
live degrees; a node is pruned unless some j >= best-|Y|+1 has
t - S_j + lam*C(j,2) > best.  Ceiling stop: when lam <= 1 no design beats
nonincidence_upper_bound(v), so an incumbent meeting it is a proved
maximum and the search stops there with exact=True.

Subsystem decision: at an equality-family order with lam <= 1 the ceiling
s is reached iff the design has a sub-STS(w), w = v - s (see
find_subsystem).  So the search first looks for one.  If it exists, its
complement is the warm start and meets the ceiling at once; if not, the
search stops at s - 1, which is then a proved maximum.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice

from .bounds import classify_equality_order, nonincidence_upper_bound
from .design import Design, NonincidenceCertificate, _bits

DEFAULT_NODE_BUDGET = 100_000_000
BRUTE_FORCE_MAX_V = 15


@dataclass
class SearchReport:
    """Outcome of one search run over a single design."""

    best_s: int
    certificate: NonincidenceCertificate
    exact: bool
    nodes_visited: int
    elapsed: float
    bound_used: int
    method: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "best_s": self.best_s,
                "exact": self.exact,
                "nodes_visited": self.nodes_visited,
                "elapsed_seconds": self.elapsed,
                "bound_used": self.bound_used,
                "method": self.method,
                "certificate": json.loads(self.certificate.to_json()),
            },
            indent=2,
            sort_keys=True,
        )


def _make_certificate(d: Design, Y, disjoint_mask: int, s: int, meta):
    blocks = list(islice(_bits(disjoint_mask), s))
    return NonincidenceCertificate.build(d, sorted(Y)[:s], blocks, meta=meta)


class _BranchAndBound:
    def __init__(self, d: Design, node_budget: int, bound: int):
        self.inc = d.point_incidence
        self.node_budget = node_budget
        pairs = Counter(pair for blk in d.blocks for pair in combinations(blk, 2))
        self.lam = max(pairs.values(), default=0)
        # The square ceiling is a theorem only when no pair repeats.
        self.stop_at = bound if self.lam <= 1 else d.v + 1
        start = ()
        family = classify_equality_order(d.v) if self.lam <= 1 else None
        if family is not None:
            sub = find_subsystem(d, family.w)
            if sub is None:
                self.stop_at = bound - 1
            else:
                start = sorted(set(range(d.v)).difference(sub))
        # Candidates travel as (degree << shift) | point, so sorting
        # compares plain ints.
        self.shift = d.v.bit_length()
        self.low = (1 << self.shift) - 1
        self.nodes = 0
        self.truncated = False
        warm = greedy_max_nonincident(d, start=start).certificate
        self.best, self.best_Y = len(warm.Y), warm.Y
        self.best_mask = sum(1 << i for i in warm.C)
        self.at_ceiling = self.best >= self.stop_at

    def _rec(self, cands, Y, mask, t):
        y = len(Y)
        value = min(y, t)
        if value > self.best:
            self.best, self.best_Y, self.best_mask = value, tuple(Y), mask
            if value >= self.stop_at:
                self.at_ceiling = True
                return
        best = self.best
        n = len(cands)
        need = best - y + 1
        if need > n or t <= best:
            return
        inc, shift, low, lam = self.inc, self.shift, self.low, self.lam
        keys = sorted([((inc[p] & mask).bit_count() << shift) | p for p in cands])
        s = 0  # counting bound: some j >= need must still beat best
        for j, k in enumerate(keys, 1):
            s += k >> shift
            if j >= need and t - s + lam * (j * (j - 1) >> 1) > best:
                break
        else:
            return
        pts = [k & low for k in keys]
        for i, k in enumerate(keys):
            if y + n - i <= self.best:
                break
            nt = t - (k >> shift)
            if nt <= self.best:
                break
            self.nodes += 1
            if self.nodes > self.node_budget:
                self.truncated = True
                return
            p = pts[i]
            Y.append(p)
            self._rec(pts[i + 1:], Y, mask & ~inc[p], nt)
            Y.pop()
            if self.truncated or self.at_ceiling:
                return


def exact_max_nonincident(
    d: Design, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchReport:
    """Branch-and-bound maximum over all point sets; exact when the budget holds.

    Deterministic: the same design and budget give the same certificate
    and node count.  Meeting the square ceiling ends the search early
    with a proved maximum.
    """
    start = time.perf_counter()
    bound = nonincidence_upper_bound(d.v)
    bb = _BranchAndBound(d, node_budget, bound)
    if not bb.at_ceiling:
        full = d.all_blocks_mask()
        bb._rec(list(range(d.v)), [], full, full.bit_count())
    if bb.best > bound:
        raise AssertionError(
            f"search found s={bb.best} above the theoretical ceiling {bound}"
        )
    exact = bb.at_ceiling or not bb.truncated
    meta = {"method": "exact", "exact": exact}
    cert = _make_certificate(d, bb.best_Y, bb.best_mask, bb.best, meta)
    return SearchReport(
        best_s=bb.best,
        certificate=cert,
        exact=exact,
        nodes_visited=bb.nodes,
        elapsed=time.perf_counter() - start,
        bound_used=bound,
        method="exact",
    )


def greedy_max_nonincident(d: Design, start=()) -> SearchReport:
    """Heuristic lower bound: always add the point killing fewest live blocks.

    Ties break by point index, so the result is deterministic.  An optional
    starting point set (e.g. a known subsystem complement) is consumed first.
    """
    t0 = time.perf_counter()
    bound = nonincidence_upper_bound(d.v)
    inc = d.point_incidence
    shift = d.v.bit_length()
    low = (1 << shift) - 1
    mask = d.all_blocks_mask()
    Y: list[int] = []
    taken: set[int] = set()
    best, best_Y, best_mask = 0, (), mask

    def consume(p):
        nonlocal mask, best, best_Y, best_mask
        Y.append(p)
        taken.add(p)
        mask &= ~inc[p]
        value = min(len(Y), mask.bit_count())
        if value > best:
            best, best_Y, best_mask = value, tuple(Y), mask

    for p in dict.fromkeys(start):
        consume(p)
    while len(Y) < d.v and mask:
        key = min(((inc[q] & mask).bit_count() << shift) | q
                  for q in range(d.v) if q not in taken)
        consume(key & low)
    if best > bound:
        raise AssertionError(
            f"greedy found s={best} above the theoretical ceiling {bound}"
        )
    meta = {"method": "greedy", "exact": False}
    cert = _make_certificate(d, best_Y, best_mask, best, meta)
    return SearchReport(
        best_s=best,
        certificate=cert,
        exact=False,
        nodes_visited=len(Y),
        elapsed=time.perf_counter() - t0,
        bound_used=bound,
        method="greedy",
    )


def find_subsystem(d: Design, w: int) -> tuple[int, ...] | None:
    """The sorted points of a sub-STS(w) of d, or None when d has none.

    Sound and complete for designs in which no pair of points repeats
    (lam <= 1); with repeated pairs the third-point table is ambiguous.

    Why it decides the ceiling at a family order, where the ceiling is
    s = w(w-1)/6 with w = v - s: let Y reach s and let W be the points
    outside Y.  The blocks avoiding Y are exactly the blocks inside W, and
    with lam <= 1 there are at most C(|W|,2)/3 of them.  Since |W| <= w,
    reaching s forces |W| = w and every pair of W covered by a block inside
    W: W is a sub-STS(w).  Conversely its complement reaches s.

    Search: every closed set (a set containing the third point of each of
    its pairs) inside a sub-STS(w) W is reached from {min W} by repeatedly
    adding p = the least point of W not yet in the set and closing under
    the third-point table.  Each step's closure therefore gains no point
    below p, stays within w points and covers all its pairs; a closed set
    of m < w points is a subsystem of W, so w >= 2m + 1.  Closures breaking
    any of these are abandoned.  Because p is forced, every closed set is
    reached along one path only, and proper subsystems (possible once
    w >= 15) are grown further rather than skipped.
    """
    v = d.v
    if not 1 <= w <= v:
        return None
    third = [[-1] * v for _ in range(v)]
    for a, b, c in d.blocks:
        third[a][b] = third[b][a] = c
        third[a][c] = third[c][a] = b
        third[b][c] = third[c][b] = a

    def close(closed, mask, p):
        members = closed + [p]
        mask |= 1 << p
        i = len(closed)
        while i < len(members):
            row = third[members[i]]
            for q in members[:i]:
                r = row[q]
                if r < 0:
                    return None
                if not mask >> r & 1:
                    if r < p or len(members) == w:
                        return None
                    members.append(r)
                    mask |= 1 << r
            i += 1
        m = len(members)
        return (members, mask) if m == w or 2 * m < w else None

    def grow(closed, mask, last):
        if len(closed) == w:
            return closed
        # W's w - |closed| missing points are all >= p, so p <= v - that.
        for p in range(last + 1, v - w + len(closed) + 1):
            if mask >> p & 1:
                continue
            step = close(closed, mask, p)
            if step is not None:
                found = grow(*step, p)
                if found is not None:
                    return found
        return None

    for a in range(v - w + 1):
        found = grow([a], 1 << a, a)
        if found is not None:
            return tuple(sorted(found))
    return None


def brute_force_oracle(d: Design) -> int:
    """Max of min(|Y|, t(Y)) by enumerating every point subset.

    Independent of the branch-and-bound path; intended for tests only,
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
