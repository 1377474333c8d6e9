"""Search for the largest square nonincident point/block set in a design.

A design admits s points and s nonincident blocks iff some point set Y of
size s has at least s disjoint blocks, which can then be picked freely.
So the search maximizes min(|Y|, t(Y)), where t(Y) counts the live blocks
(those avoiding Y); t is antitone under adding points.

The exact search takes an STS or a partial one (a design in which no pair
of points lies on two blocks, such as a block subset of an STS) and raises
DesignError when a pair repeats.  Every rule below rests on that.

The exact search is one branch-and-bound.  Its incumbent starts from the
greedy heuristic.  At each node every candidate's live degree is computed
once, and children go in ascending degree order with t - degree as their
t.  Ceiling stop: no such design beats nonincidence_upper_bound(v), so an
incumbent meeting it is a proved maximum and the search stops there with
exact=True.

Counting bound, tested at one size.  A node with points Y can beat best
only by adding need = best - |Y| + 1 or more candidates.  Adding points
never raises t, so if some larger set beats best, so does each of its
subsets of need points: testing j = need alone is enough.  For such a
set J let n_k count the live blocks meeting J in k points and S the sum
of the degrees of J.  Blocks are triples, so S = n1 + 2*n2 + 3*n3.  A
block meeting J in k points holds C(k, 2) pairs of J and each pair lies
on at most one block, so n2 + 3*n3 <= Q = C(need, 2).  Each of S - Q,
(2S - Q)/3 and S/3, rounded up, is then at most n1 + n2 + n3, the live
blocks J kills, and their maximum K (see kill_bound) is the optimum of
that linear program.  K never decreases as S grows, so S may be the sum
of the need smallest live degrees, and the node is pruned when
t - K <= best.

Defect bound, the paper's count inside the tree.  The excluded points X
of a node are its earlier siblings at every depth: no set Y' reached
below the node contains them, so they stay in W' = V - Y'.  A defect is
a pair of X whose block has its third point in Y; let e count them.  The
blocks avoiding Y' lie inside W', and each covers three pairs of W' that
no other block covers.  A defect is not among them, since its one block
meets Y.  So 3*t(Y') <= C(v - |Y'|, 2) - e, which holds for partial
systems too.  Beating best needs |Y'| >= best + 1 and t(Y') >= best + 1,
so the node is pruned when C(v - best - 1, 2) - e < 3*(best + 1).  The
search keeps e with bit operations: x1 and x2 hold the blocks with at
least one and at least two excluded points.  The child adding p gains
the blocks through p in x2.  Once that child returns p is excluded, and
the blocks through p in x1 that meet Y (dead at the node) become
defects.  e only grows along the siblings and each child starts from at
least the running e, so once the rule fires no later sibling passes.

Subsystem decision: at an equality-family order the ceiling s is reached
iff the design has a sub-STS(w), w = v - s (see find_subsystem).  So the
search first looks for one.  If it exists, its complement with its
interior blocks is the incumbent and meets the ceiling at once; if not,
the search stops at s - 1, which is then a proved maximum.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from itertools import combinations, islice

from .bounds import classify_equality_order, nonincidence_upper_bound
from .design import Design, DesignError, NonincidenceCertificate, _bits, is_subsystem

DEFAULT_NODE_BUDGET = 100_000_000


@dataclass
class SearchReport:
    """Outcome of one search run over a single design."""

    best_s: int
    certificate: NonincidenceCertificate
    exact: bool
    nodes_visited: int
    elapsed_seconds: float
    bound_used: int
    method: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def kill_bound(s: int, q: int) -> int:
    """Fewest live blocks that a set of candidates is sure to kill.

    s is the sum of their live degrees and q bounds the pairs inside the
    set, counted over the live blocks they lie on (C(j, 2) for j
    candidates when no pair repeats); see the module docstring for why
    each term is sound.
    """
    return max(s - q, (2 * s - q + 2) // 3, (s + 2) // 3)


def _make_certificate(d: Design, Y, disjoint_mask: int, s: int, meta):
    blocks = list(islice(_bits(disjoint_mask), s))
    return NonincidenceCertificate.build(d, sorted(Y)[:s], blocks, meta=meta)


class _BranchAndBound:
    def __init__(self, d: Design, node_budget: int, bound: int):
        self.v = d.v
        self.inc = d.point_incidence
        self.node_budget = node_budget
        pairs = [pair for blk in d.blocks for pair in combinations(blk, 2)]
        if len(set(pairs)) != len(pairs):
            raise DesignError("a pair of points lies on two blocks; exact "
                              "search needs an STS or a block subset of one")
        family = classify_equality_order(d.v)
        sub = None if family is None else find_subsystem(d, family.w)
        self.stop_at = bound - 1 if family and sub is None else bound
        # Candidates travel as (degree << shift) | point, so sorting
        # compares plain ints.
        self.shift = d.v.bit_length()
        self.low = (1 << self.shift) - 1
        self.nodes = 0
        self.truncated = False
        if sub is None:
            warm = greedy_max_nonincident(d).certificate
            self.best_Y, C = warm.Y, warm.C
        else:
            self.best_Y = tuple(sorted(set(range(d.v)).difference(sub)))
            C = is_subsystem(d, sub)[1]
        self.best = min(len(self.best_Y), len(C))
        self.best_mask = sum(1 << i for i in C)
        self.at_ceiling = self.best >= self.stop_at

    def _defects_allowed(self) -> int:
        """Most defects a node may hold and still beat the incumbent."""
        m = self.v - self.best - 1
        return m * (m - 1) // 2 - 3 * (self.best + 1)

    def _rec(self, cands, Y, mask, t, x1, x2, e):
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
        if need > n or t <= best or e > self._defects_allowed():
            return
        inc, shift, low = self.inc, self.shift, self.low
        keys = sorted([((inc[p] & mask).bit_count() << shift) | p for p in cands])
        s = sum([k >> shift for k in keys[:need]])
        if t - kill_bound(s, need * (need - 1) >> 1) <= best:
            return
        pts = [k & low for k in keys]
        dead = ~mask
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
            ip = inc[p]
            Y.append(p)
            self._rec(pts[i + 1:], Y, mask & ~ip, nt,
                      x1, x2, e + (ip & x2).bit_count())
            Y.pop()
            if self.truncated or self.at_ceiling:
                return
            # p is excluded from here on (see the defect bound).
            e += (ip & x1 & dead).bit_count()
            if e > self._defects_allowed():
                break
            x2 |= x1 & ip
            x1 |= ip


def exact_max_nonincident(
    d: Design, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchReport:
    """Branch-and-bound maximum over all point sets; exact when the budget holds.

    Deterministic: the same design and budget give the same certificate
    and node count.  Meeting the square ceiling ends the search early
    with a proved maximum.  Raises DesignError when a pair of points lies
    on two blocks.
    """
    start = time.perf_counter()
    bound = nonincidence_upper_bound(d.v)
    bb = _BranchAndBound(d, node_budget, bound)
    if not bb.at_ceiling:
        full = d.all_blocks_mask()
        bb._rec(list(range(d.v)), [], full, full.bit_count(), 0, 0, 0)
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
        elapsed_seconds=time.perf_counter() - start,
        bound_used=bound,
        method="exact",
    )


def greedy_max_nonincident(d: Design) -> SearchReport:
    """Heuristic lower bound: always add the point killing fewest live blocks.

    Ties break by point index, so the result is deterministic.  Raises
    DesignError when it finds s above the ceiling: only a pair of points
    lying on two blocks allows that, and no other check for one is made.
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
    if best > bound:
        raise DesignError(
            f"greedy found s={best} above the ceiling {bound}, which only "
            "a pair of points lying on two blocks allows"
        )
    meta = {"method": "greedy", "exact": False}
    cert = _make_certificate(d, best_Y, best_mask, best, meta)
    return SearchReport(
        best_s=best,
        certificate=cert,
        exact=False,
        nodes_visited=len(Y),
        elapsed_seconds=time.perf_counter() - t0,
        bound_used=bound,
        method="greedy",
    )


def find_subsystem(d: Design, w: int) -> tuple[int, ...] | None:
    """The sorted points of a sub-STS(w) of d, or None when d has none.

    Sound and complete for designs in which no pair of points lies on two
    blocks; with a repeated pair the third-point table is ambiguous.

    Why it decides the ceiling at a family order, where the ceiling is
    s = w(w-1)/6 with w = v - s: let Y reach s and let W be the points
    outside Y.  The blocks avoiding Y are exactly the blocks inside W, and
    since no pair repeats there are at most C(|W|,2)/3 of them.  Since |W| <= w,
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
