"""Search for the largest square nonincident point/block set in a design.

A design admits s points and s nonincident blocks iff some point set Y of
size s has at least s disjoint blocks, which can then be picked freely.
So the search maximizes min(|Y|, t(Y)), where t(Y) counts the live blocks
(those avoiding Y); t is antitone under adding points.

Every rule below rests on one fact that each Design guarantees: no pair
of points lies on two blocks.  So the search takes an STS or a partial one,
such as a block subset of an STS.  Its order must be 1 or 3 mod 6, the
orders the paper's bound is defined for: at any other order both searches
raise ValueError from nonincidence_upper_bound.

The exact search is one branch-and-bound.  Its incumbent starts from the
greedy heuristic and is then raised, before the tree, by a swap search on
W = V - Y (_swap_search): for a target s it takes s points and swaps one
point of Y for one outside at a time.  With inside the blocks that miss
Y and one those that meet Y in exactly one point, swapping y for w leaves
t - |inc[w] & inside| + |inc[y] & one| - 1 blocks, the 1 only where the
block through y and w has its third point outside Y: that block met Y in
y alone but holds w.  It runs after greedy, and after any ceiling
decision (below) that greedy's incumbent starts, and tries best + 1 while
the incumbent is below the ceiling; so the decision still decides the
ceiling, and the swap search tries the ceiling only where the decision
has lifted the floor.  A set it finds is a real incumbent, which the tree
and the decision bound as any other: exactness rests on them alone.  Its
swaps, like greedy's steps, do not count against the node budget.

At each node every candidate's live degree is computed once, and
children go in ascending degree order with t - degree as their t.

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
t - K <= best.  K >= 0, so this also prunes a node with t <= best; a
node with fewer than need candidates is pruned here or has no child that
passes the sibling loop's size test.

Leave-degree floor, the paper's count inside the tree.  Beating best
needs a set Y' with |Y'| and t(Y') both at least s = best + 1.  If
|Y| > s, then t(Y) < s, or Y would be the incumbent, and no set below the
node reaches s; otherwise a larger Y' that reaches s has a subset of s
points that holds Y and reaches s too.  So only sets of s points need be
bounded.  Such a Y' leaves W' = V - Y', m = v - s points that hold the
t(Y') >= s blocks avoiding Y'.  A point p of W' on b_p of them misses
l_p = m - 1 - 2*b_p of its pairs in W'.  These leave degrees have the
parity of m - 1, and each block inside W' covers three pairs of W' that
no other block covers, so they sum to m(m - 1) - 6*t(Y') <= 2E, where
2E = m(m - 1) - 6*s.  This holds for partial systems too.

The excluded points X of a node are its earlier siblings at every depth:
no set Y' reached below the node contains them, so they stay in W'.  A
defect is a pair of X whose block has its third point in Y; let e count
them and d_x the defects at x.  No block inside W' covers a defect, since
its one block meets Y, so l_x is at least d_x rounded up to the parity of
m - 1.  Let f be a floor on every leave degree in W', with the parity of
m - 1: f = (m - 1) mod 2 from the parity alone, or 2 where the ceiling
decision below lifts it.  Let T hold the points of X with d_x >= 1 and o
count those with d_x odd (o is even, as the d_x sum to 2e).  At a point
of T, d_x rounded up is at least f, as f <= 2, and the rounding adds 1
where d_x has the other parity from m - 1: at the o points for odd m, at
the |T| - o others for even m.  Every other point of W' has l_p >= f.  So
the node is pruned when

    2e + (o if m is odd else |T| - o) + f*(m - |T|) > 2E.

With the parity floor this is e + o/2 > E for odd m and e + (m - o)/2 > E
for even m: the pair count with a half taken from each point whose
m - 1 - d_x is odd.  Where |T| > m, no set inside V - X reaches s points
and the size rule prunes the same node.  The limit 2E, m and f change
only with the incumbent, so they are set there.

The paper's bound is this count at the root, where e = o = |T| = 0, so the
sum is f*m.  nonincidence_upper_bound(v) is the largest s with
C(v - s, 2) >= 3*s, so an incumbent that meets it leaves 2E below 0 and
every node is pruned: the incumbent is a proved maximum and the search
ends with exact=True.  The search sets the limit to -1 at its ceiling,
which is this bound or the bound lowered by the ceiling decision below.

The search keeps e, o and X with bit operations: x1 and x2 hold the
blocks with at least one and at least two excluded points, xm the
excluded points, the mask o the excluded points with d_x odd (its bit
count is the o above) and the mask xd, which is T.  The child adding p
gains the blocks through p in x2 as defects.  Once that child returns p
is excluded, and the blocks through p in x1 that meet Y (dead at the
node) become defects.  Each new defect flips the parity of its two
points: for each new block, the points of its mask inside xm, p included
once it is excluded.  These masks over points, one per block, are
Design._block_points, which the tree alone reads: a cached property, so
a search that the decision or the warm start ends never builds them.
They are cached on the design, not on the search object, since a cached
property there gives that object a real __dict__, which made the tree's
attribute reads 4-8% slower on build_sts(25, 1) under CPython 3.11.
One walk, _xor_blocks, XORs those of the new blocks.  The new blocks all pass
through p, and a pair lies on one block, so no other excluded point
lies on two of them: the XOR inside xm is also their union, p aside,
and marks xd's new points.  d_x, o and xd are fixed by Y and X
alone, not by best, so a new incumbent needs no recount.  The rule is
tested on each child in its parent, right after the child is counted and
its e, o and xd computed, so a child that fails it gets no frame;
exact_max_nonincident tests the root.  A child that raises the incumbent
to best + 1 holds best + 1 points that reach it, so it passes the test
for the old target and is entered, and its parent reads best, m, f and
2E again once it returns.  The rule is tested again after each
exclusion, where it breaks the sibling loop: every set below a later
sibling contains Y and avoids X and p, so the bound just tested covers
it.

Symmetry at the top of the tree.  An automorphism h of the design keeps
|Y| and t(Y), so h(Y) is exactly as good as Y.  Root child l, adding
p_l, covers the sets whose first point in child order is p_l.  If
h(p_i) = p_j with j < i, any set Y' below child i holds p_j in h(Y'),
so h(Y') lies below some child l <= j.  By induction on i, every set
below child i then has an image of equal value below an explored child,
so the root skips child i when an earlier sibling lies in its orbit
(see _orbits).  The same holds at the root's first child, the one node
with |Y| = 1 and no excluded point, for the h that fix its point p0: a
set there only has to hold p0, and h(Y') does.  Any other node would
need the orbits of its own stabiliser, so no other node skips.  A skipped
child is neither entered nor counted, but its point is excluded as an
explored child's is, and the floor test after it still runs.  Orbits
are computed when a sibling loop first reaches its second child, so a
search that ends inside its first child computes none.  They start from
classes that no automorphism can cross, read from the design's Pasch
table (Design.pasch), which is built once per design and kept, so a
design searched again, or a stabiliser's orbits after the root's, reuse
it; the orbit lists themselves are computed once per search.

Ceiling decision.  At the root the sum is f*m, so f*m > 2E refutes s
before any tree.  The search walks its ceiling down from the paper's bound
by this test (_decide).  At the ceiling s, f starts at (m - 1) mod 2.  At
f = 0 a search over W looks for a set W that reaches s with a point of
leave degree 0; a W found is an incumbent that meets the ceiling.  If
there is none, every leave degree is even and at least 2, so f rises to 2.
The three cases of the paper's count are three values of f.
- f = 1, m even: no W search, and m > 2E refutes s.  This is Schoenheim's
  packing bound at the root.  It is tested when the search starts.
- f = 0 and E = 0: every leave degree is 0, so W is a sub-STS(m); these
  are the equality-family orders.  The W search is find_subsystem, run
  when the search starts.  If there is none, 2m > 0 refutes s.
- f = 0 and E > 0, m odd: _full_point searches the sets W with a full
  point w, one that misses none of its pairs: its (m - 1)/2 blocks inside
  W cover all of W, and W is w and the other two points of (m - 1)/2 of
  its blocks.  Each block through w is taken, its points joining W, or
  dropped, its points staying out, and a branch is pruned once more than
  E pairs of W have their third point outside W, since no block inside W
  covers them.  At a leaf every point is placed and the blocks with two
  points in W and none outside lie inside W, so the leaf test is exact.
  The blocks inside W are then the (m - 1)/2 taken through w and the rim
  blocks, those not through w, with no point out.  Points only ever join
  out, so that count at a node bounds every leaf below it, and a branch
  is pruned once it falls short of s.  A point on no block with w, which
  only a block subset has, starts out, so the rule holds there too; once
  every block left through w must be taken, the count is exact.  A W
  search with a loose state, a block through w with one point in W,
  keeps the rule as blocks taken through w plus rim blocks with no
  point out, since a loose block has a point out.
  An automorphism maps W and its full point to another such pair, so
  point 0 and then one point of each other orbit of the group (see
  _orbits) are enough.  Its worst case grows as v * C((v - 1)/2, (m - 1)/2),
  so it runs once, when the incumbent first reaches s - 1, and a W found
  ends the search.  If there is none and 2m > 2E, s is refuted: the
  ceiling falls to s - 1, which the incumbent meets, and the search ends.
  Otherwise the tree goes on with f = 2 until a new incumbent, which meets
  the ceiling.
A refuted s leaves the ceiling s - 1, where m is one larger: odd after
the parity case, so the full-point case may run there, and even after the
other two, so no case follows them.  So each case runs at most once.
Each step of the full-point search counts against the node budget, so a
budget that runs out inside it ends the search with exact=False.  As in
the tree, each step is counted and judged in its parent: a node counts
its take and drop children there, in that order, and runs their tests in
place.  Only a take child that branches gets a frame; the drop child goes
on in its parent's frame, as the next turn of a loop.  The blocks taken
are one int mask, read into W at a leaf that reaches s.  So the steps,
and the step at which a budget runs out, are those of one call per step.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from functools import cache
from itertools import islice

from .bounds import nonincidence_upper_bound
from .design import Design, NonincidenceCertificate, _bits

DEFAULT_NODE_BUDGET = 100_000_000

log = logging.getLogger(__name__)


@dataclass
class SearchReport:
    """Outcome of one search run over a single design.

    nodes_visited counts the search's steps.  For method "exact" these are
    the children the branch-and-bound counted against its node budget and
    the steps of its full-point ceiling decision, which count against the
    same budget: 0 when the warm start already meets the ceiling, and the
    budget itself when the budget runs out, so a report never exceeds its
    budget.  The warm start's greedy steps and swaps are not counted.  For
    method "greedy" they are the points greedy took, which equals best_s.
    """

    best_s: int
    certificate: NonincidenceCertificate
    exact: bool
    nodes_visited: int
    elapsed_seconds: float
    bound_used: int
    method: str

    def to_json(self) -> str:
        """The fields as JSON, the certificate's read in place (no copy)."""
        return json.dumps({**vars(self), "certificate": vars(self.certificate)},
                          indent=2, sort_keys=True)


def kill_bound(s: int, q: int) -> int:
    """Fewest live blocks that a set of candidates is sure to kill.

    s is the sum of their live degrees and q bounds the pairs inside the
    set, counted over the live blocks they lie on (C(j, 2) for j
    candidates); see the module docstring for why each term is sound.
    """
    return max(s - q, (2 * s - q + 2) // 3, (s + 2) // 3)


# Backtrack steps one _orbits call may spend on its automorphism searches.
# Running out only leaves orbits split, which skips fewer children.
_ORBIT_STEPS = 10_000


def _orbits(d: Design, fixed=()) -> list[int]:
    """For each point, the least point of its orbit under the automorphisms
    of d that fix every point of fixed, as far as _ORBIT_STEPS allows.

    Points are first split by an invariant, read from the design's Pasch
    table (Design.pasch, built once per design): a point's root class is
    the sorted list of the Pasch counts of its blocks, so points on
    different numbers of blocks never share one.  Each point f of fixed
    then splits the classes further.  A point q on a block with f is keyed
    by its class, the Pasch count of that block and the root class of the
    block's third point third[f][q]: an automorphism that fixes f and
    sends q to q' sends that block to the block through f and q', so it
    keeps all three.  f itself gets a key of its own, and a point on no
    block with f keeps its class.  ids numbers every key seen, so each
    class is one int.  The orbits found so far are one list, orbit, with
    orbit[p] the least point of p's orbit.  Each point b that is still the
    least of its orbit is tested by _automorphism against each earlier
    such point r of its class.  A map g found merges each p with g[p]: of
    orbit[p] and orbit[g[p]], the larger is relabelled as the smaller
    everywhere in the list, which is returned.  Without the cap these are
    exactly the orbits; with it, an orbit may stay split, never joined to
    another.
    """
    v, third, pasch, inc = d.v, d.third, d.pasch, d.point_incidence
    counts = [[] for _ in range(v)]
    for i, blk in enumerate(d.blocks):
        for p in blk:
            counts[p].append(pasch[i])
    ids = {}
    root = cls = [ids.setdefault(tuple(sorted(c)), len(ids)) for c in counts]
    for f in fixed:
        row = third[f]
        keys = [(k, q == f) if row[q] < 0 else
                (k, pasch[(inc[f] & inc[q]).bit_length() - 1], root[row[q]])
                for q, k in enumerate(cls)]
        cls = [ids.setdefault(k, len(ids)) for k in keys]
    orbit = list(range(v))
    steps = [_ORBIT_STEPS]
    for b in range(v):
        if orbit[b] != b:
            continue
        for r in range(b):
            if orbit[r] == r and cls[r] == cls[b]:
                g = _automorphism(third, cls, r, b, steps)
                if g is not None:
                    for p, q in enumerate(g):
                        lo, hi = sorted((orbit[p], orbit[q]))
                        if lo != hi:
                            orbit = [lo if o == hi else o for o in orbit]
                    break
    return orbit


def _automorphism(third, cls, a, b, steps):
    """An automorphism of the design with third-point table third that
    keeps the classes cls and sends a to b, or None.  Each tried image
    costs one of steps[0]; at 0 it gives up with None.

    The search starts from the empty map.  branch copies the partial map
    img (with its inverse inv and order, the mapped points in the order
    they were mapped), adds x -> y for an unmapped x and an unused y of
    the same class, and closes the map under third points: for every pair
    of mapped points, the image of third[p][u] is third[img p][img u],
    and -1 maps to -1.  A contradiction gives None.  Images keep classes,
    so a map that reaches all points is an automorphism, and it fixes
    each point that is alone in its class.
    """
    def branch(img, inv, order, x, y):
        if steps[0] == 0:
            return None
        steps[0] -= 1
        img, inv, order = img[:], inv[:], order + [x]
        img[x], inv[y] = y, x
        i = len(order) - 1
        while i < len(order):
            p = order[i]
            row, image = third[p], third[img[p]]
            for u in order[:i]:
                w, z = row[u], image[img[u]]
                if w < 0 or z < 0:
                    if w != z:
                        return None
                elif img[w] != z:
                    if img[w] != -1 or inv[z] != -1 or cls[w] != cls[z]:
                        return None
                    img[w], inv[z] = z, w
                    order.append(w)
            i += 1
        if -1 not in img:
            return img
        x = img.index(-1)
        for y, z in enumerate(inv):
            if z == -1 and cls[y] == cls[x]:
                found = branch(img, inv, order, x, y)
                if found is not None or steps[0] == 0:
                    return found
        return None

    v = len(third)
    return branch([-1] * v, [-1] * v, [], a, b)


def _greedy(d: Design) -> list[int]:
    """Greedy's point set Y.

    Y takes the point of lowest live degree, ties to the lower index, and
    stops before the first step that would leave t at or below the
    current |Y|.  Until then min(|Y|, t) = |Y| rises by one a step; from
    then on it is at most t, which adding points never raises, so Y is
    the best set on the path.  The last point left always stops it, as it
    would leave no block live.

    One list holds keys[q] = (live degree of q << shift) | q, so min(keys)
    is the step's point.  Taking p kills each live block through p, the
    blocks whose three points are all untaken, and each takes one off the
    keys of its three points; p's key is then retired above every other.
    A block dies once, so the cost is one min over v keys a step and
    three decrements per dying block: O(b + v*|Y|) in all.
    """
    v, blocks = d.v, d.blocks
    shift = v.bit_length()
    one = 1 << shift
    through = [[] for _ in range(v)]
    for blk in blocks:
        a, b, c = blk
        through[a].append(blk)
        through[b].append(blk)
        through[c].append(blk)
    keys = [(len(row) << shift) | q for q, row in enumerate(through)]
    retired = (len(blocks) + 1) << shift
    taken = bytearray(v)
    t = len(blocks)
    Y: list[int] = []
    while True:
        key = min(keys)
        t -= key >> shift
        if t <= len(Y):
            return Y
        p = key & (one - 1)
        Y.append(p)
        for a, b, c in through[p]:
            if not (taken[a] or taken[b] or taken[c]):
                keys[a] -= one
                keys[b] -= one
                keys[c] -= one
        taken[p] = 1
        keys[p] = retired


# Swaps one _swap_search call may make before it gives up.
_SWAP_STEPS = 30


def _swap_search(d: Design, Y, s: int):
    """Seek a set of s points that misses at least s blocks, from the
    point set Y of s - 1 points, by swaps; return (Z, t, swaps): the
    sorted points Z it ends on, the t blocks they miss and the swaps made.
    Z reaches s exactly when t >= s.

    Z starts as Y plus the outside point of least live degree, ties to the
    lower index.  With inside the blocks that miss Z and one those that
    meet it in exactly one point, swapping y in Z for w outside leaves
        t - |inc[w] & inside| + |inc[y] & one| - [third[y][w] >= 0 and
        third[y][w] not in Z]:
    the blocks through w that missed Z die, those that met Z only in y
    come alive, and the block {y, w, third[y][w]} was one of the latter
    but holds w.  Each swap takes the largest value, ties to the first
    (y, w) in index order, even where t falls; a point just moved may not
    move again for the next 2 swaps.  The search stops once t >= s, after
    _SWAP_STEPS swaps, or when no swap is allowed.
    """
    inc, third, full = d.point_incidence, d.third, d.all_blocks_mask()
    Z = set(Y)
    inside = full
    for p in Z:
        inside &= ~inc[p]
    p = min((p for p in range(d.v) if p not in Z),
            key=lambda p: (inc[p] & inside).bit_count())
    Z.add(p)
    t = (inside & ~inc[p]).bit_count()
    # moved[p]: the swap that last moved p.
    moved = [-3] * d.v
    swaps = 0
    while t < s and swaps < _SWAP_STEPS:
        c1 = c2 = 0
        for p in Z:
            c2 |= c1 & inc[p]
            c1 |= inc[p]
        inside, one = full & ~c1, c1 & ~c2
        out = [(w, (inc[w] & inside).bit_count()) for w in range(d.v)
               if w not in Z and swaps - moved[w] > 2]
        best = None
        for y in sorted(Z):
            if swaps - moved[y] > 2:
                gain, row = t + (inc[y] & one).bit_count(), third[y]
                for w, loss in out:
                    value = gain - loss - (row[w] >= 0 and row[w] not in Z)
                    if best is None or value > best[0]:
                        best = (value, y, w)
        if best is None:
            break
        t, y, w = best
        Z.remove(y)
        Z.add(w)
        moved[y] = moved[w] = swaps
        swaps += 1
    return sorted(Z), t, swaps


def _report(d: Design, method: str, start: float, best: int, Y,
            exact: bool, nodes: int) -> SearchReport:
    """The report of a search whose best set Y reaches best.  Its
    certificate takes the first best points of Y in label order and the
    first best blocks that Y misses; bound_used is the paper's bound at
    d.v.
    """
    mask = d.all_blocks_mask()
    for p in Y:
        mask &= ~d.point_incidence[p]
    blocks = list(islice(_bits(mask), best))
    cert = NonincidenceCertificate.build(
        d, sorted(Y)[:best], blocks, meta={"method": method, "exact": exact})
    return SearchReport(
        best_s=best,
        certificate=cert,
        exact=exact,
        nodes_visited=nodes,
        elapsed_seconds=time.perf_counter() - start,
        bound_used=nonincidence_upper_bound(d.v),
        method=method,
    )


def _xor_blocks(new: int, bm) -> int:
    """The XOR of the point masks bm[i] of the blocks i in the mask new:
    the defect walk of _rec (module docstring)."""
    z = 0
    while new:
        b = new & -new
        z ^= bm[b.bit_length() - 1]
        new ^= b
    return z


class _BranchAndBound:
    """The exact search over d within node_budget.  Its ceiling starts at
    the paper's bound, kept as self.bound; the incumbent is best and its
    point set best_Y.
    """

    def __init__(self, d: Design, node_budget: int):
        # A budget below 0 or a fraction is never met by the count, so it
        # would run unbounded.
        if (isinstance(node_budget, bool) or not isinstance(node_budget, int)
                or node_budget < 0):
            raise ValueError(
                f"node budget must be an int >= 0, got {node_budget!r}")
        self.d = d
        self.v = d.v
        self.inc = d.point_incidence
        self.node_budget = node_budget
        self.nodes = 0
        self.truncated = False
        # _orbits(d, fixed), computed once for each fixed.
        self.orbit = cache(lambda fixed: _orbits(d, fixed))
        # Candidates travel as (degree << shift) | point, so sorting
        # compares plain ints; v*v < 1 << shift, so a sum of fewer than v
        # of them, shifted down, is the sum of their degrees.
        self.shift = 2 * d.v.bit_length()
        self.low = (1 << self.shift) - 1
        self.ceiling = self.bound = nonincidence_upper_bound(d.v)
        self.decisions = []
        # No incumbent yet, so the decision runs only the cases that need
        # none; a sub-STS found becomes the incumbent.
        self.best = None
        self._decide()
        if self.best is None:
            # Greedy leaves t at least |Y|, so its value is |Y|.
            Y = _greedy(d)
            self._incumbent(len(Y), Y)
        # The swap search raises the incumbent while it can; its steps are
        # not counted against the budget.
        while self.best < self.ceiling and not self.truncated:
            s = self.best + 1
            Z, t, swaps = _swap_search(d, self.best_Y, s)
            log.info("swap search: s=%d %s, swaps used: %d", s,
                     "found" if t >= s else "not found", swaps)
            if t < s:
                break
            self._incumbent(s, Z)

    def _incumbent(self, value, Y):
        """Take the point set Y as the new incumbent of the given value,
        and the limit 2E, m and parity floor f of the target value + 1
        (module docstring).  At the ceiling the limit is -1, so every
        node is pruned.  An incumbent one below the ceiling runs the
        ceiling decision, which may lift f to 2.
        """
        self.best, self.best_Y = value, tuple(Y)
        m = self.m = self.v - value - 1
        self.floor = (m - 1) & 1
        self.limit = (-1 if value >= self.ceiling
                      else m * (m - 1) - 6 * (value + 1))
        if value == self.ceiling - 1:
            self._decide()

    def _decide(self):
        """Walk the ceiling s down until its floor f leaves f*m <= 2E, and
        leave that f in self.floor (module docstring).

        f starts at the parity of m - 1.  At f = 0 the W search runs:
        find_subsystem when E = 0, or, once the incumbent is s - 1,
        _full_point at point 0 and then at one point of each other root
        orbit.  A W found becomes the incumbent, which meets the ceiling;
        if there is none, f rises to 2.  self.decisions records, and the
        log tells as it is made, each s that is refuted, found or run out
        of budget, and each lifted f.
        A budget that runs out ends the walk, and the tree then stops at
        its next child.
        """
        while True:
            s = self.ceiling
            m = self.v - s
            leave = m * (m - 1) - 6 * s
            f, kind, before, W = (m - 1) & 1, "parity", self.nodes, None
            if not f and (not leave or self.best == s - 1):
                kind = "full point" if leave else "subsystem"
                W = self._full_point(0, s) if leave else find_subsystem(self.d, m)
                if W is None and leave and not self.truncated:
                    for w in sorted(set(self.orbit(())) - {0}):
                        W = self._full_point(w, s)
                        if W is not None or self.truncated:
                            break
                f = 2
            outcome = ("found" if W is not None
                       else "budget ran out" if self.truncated
                       else "refuted" if f * m > leave
                       else "floor lifted" if f == 2 else None)
            if outcome:
                self.decisions.append((kind, s, outcome, self.nodes - before))
                log.info("ceiling decision (%s case): s*=%d %s, %d steps of "
                         "the node budget", *self.decisions[-1])
            if outcome != "refuted":
                break
            # The incumbent meets the new ceiling; before the first one,
            # the limit is set again when it arrives.
            self.ceiling, self.limit = s - 1, -1
        if W is None:
            self.floor = f
            return
        self._incumbent(s, [p for p in range(self.v) if p not in W])

    def _full_point(self, w, s):
        """A set W of v - s points that holds at least s blocks,
        (v - s - 1)/2 of them through w; or None when there is no such W.

        W is w and the other two points of the blocks through w that the
        search takes; the points of a dropped block stay out of W, and so
        do the points on no block with w.  in1 and in2 hold the blocks
        with at least one and at least two points in W, out those with a
        point outside W.  A block in in2 and out has exactly two points in
        W, whose pair no block inside W covers; W may leave at most spare
        such pairs, so a branch with more is pruned.  k is the number of
        blocks taken, and rest[i] the blocks that meet a block i or later
        through w, those a leaf at i drops.

        rim holds the blocks not through w.  At a leaf every point is
        placed, so the blocks inside W are exactly the need blocks taken
        through w and the rim blocks with no point out.  out only grows
        down the tree, so need + |rim & ~out| at a node bounds every leaf
        below it, and a node where that falls short of s, that is where
        |rim & out| > cap, has no W below it.  This holds for a block
        subset too: a point on no block with w starts out, so its blocks
        start in out.  Once i reaches last every block left must be
        taken, and the bound is exact.

        Each node is a step, which counts against a local budget left,
        written back to self.nodes when the search ends; a step tried with
        none left sets self.truncated and ends the search with None.  A
        node's two children, take block i and drop it, are counted and
        judged in the node's own frame of grow, in that order.  After the
        budget, the take child gets the spare-pair test and then, once k
        reaches need, the leaf test; it lacks as many blocks as its parent
        and has its parent's out, so the size test, fewer blocks left than
        still needed, and the rim test always pass there.  Only the drop
        child grows out, so it gets the size test, the rim test and the
        spare-pair test, in that order.  Only a take child that must
        branch gets a frame; the drop child, the node's last alternative,
        goes on in the same frame as the next turn of its loop.  The
        blocks taken travel up as a mask over the blocks through w, read
        into W once, at a leaf that reaches s.  The steps, their order and
        the step at which the budget runs out are those of one call per
        step that runs every test at every node.  It is called as _decide
        calls it, with m odd, s >= 0 and E = spare > 0, so m >= 3: the
        root, counted below grow, passes the spare test and is no leaf; it
        gets the rim test, as a partial design may fail it there.
        """
        inc, blocks, v = self.inc, self.d.blocks, self.v
        m = v - s
        spare = m * (m - 1) // 2 - 3 * s
        need = (m - 1) // 2
        pairs = []
        for i in _bits(inc[w]):
            a, b, c = blocks[i]
            pairs.append((b, c) if a == w else (a, c) if b == w else (a, b))
        hit = [inc[a] | inc[b] for a, b in pairs]
        n = len(hit)
        rest = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            rest[i] = rest[i + 1] | hit[i]
        out = 0
        # Only a partial design has a point on no block with w.
        if 2 * n + 1 < v:
            for p in set(range(v)).difference([w], *pairs):
                out |= inc[p]
        # A node whose rim holds more than cap blocks with a point out has
        # no W below it.
        rim = self.d.all_blocks_mask() & ~inc[w]
        cap = rim.bit_count() - (s - need)
        left = self.node_budget - self.nodes

        def grow(i, k, in1, in2, out):
            # The node at block i with k < need taken, counted and judged.
            # Returns the mask of the blocks it takes to a W, or 0.
            nonlocal left
            k1, last = k + 1, n - need + k
            while True:
                # The child that takes block i.  It passes the size test,
                # as its parent did: both lack need - k blocks from i on.
                if not left:
                    self.truncated = True
                    return 0
                left -= 1
                u = hit[i]
                t2 = in2 | in1 & u
                if (t2 & out).bit_count() <= spare:
                    if k1 == need:
                        # The blocks left are dropped.  Every point is then
                        # placed, so the blocks in the child's in2 and not
                        # in out lie inside W.
                        if (t2 & ~(out | rest[i + 1])).bit_count() >= s:
                            return 1 << i
                    else:
                        found = grow(i + 1, k1, in1 | u, t2, out)
                        if found:
                            return found | 1 << i
                # The child that drops block i, entered in this frame.
                if not left:
                    self.truncated = True
                    return 0
                left -= 1
                out |= u
                i += 1
                if (i > last or (rim & out).bit_count() > cap
                        or (in2 & out).bit_count() > spare):
                    return 0

        found = 0
        if not left:
            self.truncated = True
        else:
            left -= 1
            if n >= need and (rim & out).bit_count() <= cap:
                found = grow(0, 0, inc[w], 0, out)
        self.nodes = self.node_budget - left
        return {w}.union(*(pairs[j] for j in _bits(found))) if found else None

    def _rec(self, cands, Y, mask, t, x1, x2, e, xm, o, xd):
        """Explore the node with points Y.  Its parent has counted it,
        offered its value as the incumbent and run its floor test (module
        docstring); the root is not counted, its value 0 never beats best,
        and exact_max_nonincident runs its floor test.
        """
        best, m, floor, limit = self.best, self.m, self.floor, self.limit
        y = len(Y)
        n = len(cands)
        need = best - y + 1
        inc, shift, low = self.inc, self.shift, self.low
        bm = self.d._block_points
        keys = sorted([((inc[p] & mask).bit_count() << shift) | p for p in cands])
        if t - kill_bound(sum(keys[:need]) >> shift,
                          need * (need - 1) >> 1) <= best:
            return
        pts = [k & low for k in keys]
        dead = ~mask
        # The root and its first child, the one node with |Y| = 1 and no
        # excluded point, skip children symmetric to an earlier sibling.
        top = y < 2 and not xm
        skip = False
        for i, k in enumerate(keys):
            if y + n - i <= best:
                break
            nt = t - (k >> shift)
            if nt <= best:
                break
            p = pts[i]
            if i and top:
                orbit = self.orbit(tuple(Y))
                skip = orbit[p] in {orbit[q] for q in pts[:i]}
            ip = inc[p]
            if not skip:
                if self.nodes == self.node_budget:
                    self.truncated = True
                    return
                self.nodes += 1
                # The child's floor test runs here, so a child that fails
                # it gets no frame.
                new = ip & x2
                ce, co, cxd = e, o, xd
                if new:
                    ce += new.bit_count()
                    z = _xor_blocks(new, bm) & xm
                    co ^= z
                    cxd |= z
                Y.append(p)
                if y == best:
                    # nt > best, so the child's value is best + 1.  Its own
                    # best + 1 points reach that, so it passes the floor
                    # test for best + 1, which the locals still hold, and
                    # is entered; they are read again when it returns.
                    self._incumbent(y + 1, Y)
                oc, tc = co.bit_count(), cxd.bit_count()
                if (not self.truncated and 2 * ce + (oc if m & 1 else tc - oc)
                        + floor * (m - tc) <= limit):
                    self._rec(pts[i + 1:], Y, mask & ~ip, nt, x1, x2, ce, xm,
                              co, cxd)
                    if self.best != best:
                        best, m, floor, limit = (self.best, self.m, self.floor,
                                                 self.limit)
                Y.pop()
                if self.truncated:
                    return
            # p is excluded from here on (see the leave-degree floor).
            xm |= 1 << p
            new = ip & x1 & dead
            if new:
                e += new.bit_count()
                z = _xor_blocks(new, bm) & xm
                o ^= z
                xd |= z | 1 << p
            oc, tc = o.bit_count(), xd.bit_count()
            if 2 * e + (oc if m & 1 else tc - oc) + floor * (m - tc) > limit:
                break
            x2 |= x1 & ip
            x1 |= ip


def exact_max_nonincident(
    d: Design, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchReport:
    """Branch-and-bound maximum over all point sets; exact when the budget holds.

    Deterministic: the same design and budget give the same certificate
    and node count.  An incumbent at the ceiling prunes every node left,
    so the search ends early with a proved maximum.  A node_budget that is
    not an int >= 0 (a bool included) raises ValueError before any work.
    """
    start = time.perf_counter()
    bb = _BranchAndBound(d, node_budget)
    full = d.all_blocks_mask()
    # The root's floor test: it has no excluded point, so e = o = |T| = 0.
    if bb.floor * bb.m <= bb.limit:
        bb._rec(list(range(d.v)), [], full, full.bit_count(),
                0, 0, 0, 0, 0, 0)
    if bb.best > bb.bound:
        raise AssertionError(
            f"search found s={bb.best} above the theoretical ceiling {bb.bound}"
        )
    return _report(d, "exact", start, bb.best, bb.best_Y, not bb.truncated,
                   bb.nodes)


def greedy_max_nonincident(d: Design) -> SearchReport:
    """Heuristic lower bound: always add the point killing fewest live blocks.

    Ties break by point index, so the result is deterministic.  Greedy
    stops at its peak (see _greedy), so nodes_visited, the points it
    took, equals best_s.
    """
    start = time.perf_counter()
    Y = _greedy(d)
    return _report(d, "greedy", start, len(Y), Y, False, len(Y))


def find_subsystem(d: Design, w: int) -> tuple[int, ...] | None:
    """The sorted points of a sub-STS(w) of d, or None when d has none.

    Why it decides the ceiling at a family order, where the ceiling is
    s = w(w-1)/6 with w = v - s: let Y reach s and let W be the points
    outside Y.  The blocks avoiding Y are exactly the blocks inside W, and
    since no pair repeats there are at most C(|W|,2)/3 of them.  Since |W| <= w,
    reaching s forces |W| = w and every pair of W covered by a block inside
    W: W is a sub-STS(w).  Conversely its complement reaches s.

    Search: every closed set (a set containing the third point of each of
    its pairs) inside a sub-STS(w) W is reached from the empty set by
    repeatedly adding p = the least point of W not yet in the set and
    closing under the third-point table.  Each step's closure therefore
    gains no point below p, stays within w points and covers all its pairs;
    a closed set of m < w points is a subsystem of W, so w >= 2m + 1.
    Closures breaking any of these are abandoned.  Because p is forced,
    every closed set is reached along one path only, and proper subsystems
    (possible once w >= 15) are grown further rather than skipped.
    """
    v = d.v
    if not 1 <= w <= v:
        return None
    # A table lookup per pair.  Closing over per-block point masks
    # instead, as the pair rule allows, was about 3x faster on an
    # unrelabelled embed(21, 91) but 1.5-2.3x slower on relabelled designs
    # and on designs without a sub-STS(w), such as build_sts(91, 1) at
    # w = 21.
    third = d.third

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

    found = grow([], 0, -1)
    return None if found is None else tuple(sorted(found))
