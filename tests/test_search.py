import logging
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from nonincidence import (
    Design,
    DesignError,
    NonincidenceCertificate,
    bose,
    build_sts,
    classify_equality_order,
    doubling,
    embed_subsystem,
    exact_max_nonincident,
    find_subsystem,
    greedy_max_nonincident,
    is_subsystem,
    nonincidence_upper_bound,
    verify_certificate,
)
from nonincidence import search
from nonincidence.constructions import _hill_climb
from nonincidence.search import _BranchAndBound, _orbits, kill_bound
from conftest import AG23_BLOCKS, FANO_BLOCKS, brute_force_oracle, reference_greedy


def _no_swaps(monkeypatch):
    """Switch the swap search off: every try ends where it starts, with
    no block counted, so it never raises the incumbent."""
    monkeypatch.setattr(search, "_swap_search", lambda d, Y, s: (Y, 0, 0))


def relabel(d, seed):
    perm = list(range(d.v))
    random.Random(seed).shuffle(perm)
    return Design.from_blocks(d.v, [[perm[p] for p in blk] for blk in d.blocks])


class TestExactSearch:
    def test_fano(self, fano):
        rep = exact_max_nonincident(fano)
        assert rep.best_s == 2
        assert rep.exact
        assert verify_certificate(fano, rep.certificate, require_square=True)

    def test_ag23(self, ag23):
        rep = exact_max_nonincident(ag23)
        assert rep.best_s == 3
        assert rep.exact

    def test_sts13_below_ceiling(self):
        d = build_sts(13, seed=11)
        rep = exact_max_nonincident(d)
        assert rep.exact
        assert rep.best_s <= nonincidence_upper_bound(13) == 6
        assert rep.best_s == brute_force_oracle(d)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_oracle_on_sts15(self, seed):
        d = embed_subsystem(3, 15, seed=seed).design
        rep = exact_max_nonincident(d)
        assert rep.exact
        assert rep.best_s == brute_force_oracle(d)
        assert verify_certificate(d, rep.certificate, require_square=True)

    def test_budget_truncation_flagged(self):
        # The budget is tested before a child is counted, so a truncated
        # search reports exactly its budget, never one node more.
        d = bose(15)
        for budget in (0, 1, 5, 10):
            rep = exact_max_nonincident(d, node_budget=budget)
            assert not rep.exact
            assert rep.nodes_visited == budget

    def test_reproducible_single_worker(self):
        d = build_sts(13, seed=4)
        a = exact_max_nonincident(d)
        b = exact_max_nonincident(d)
        assert a.certificate == b.certificate
        assert a.nodes_visited == b.nodes_visited

    def test_ladder_v27_proved_within_budget(self):
        d = build_sts(27, seed=1)
        rep = exact_max_nonincident(d, node_budget=1_750_000)
        assert rep.exact
        assert rep.best_s == 15
        assert rep.nodes_visited <= 1_750_000
        assert verify_certificate(d, rep.certificate, require_square=True)

    @pytest.mark.parametrize("v,best,budget", [(25, 13, 250_000),
                                                (27, 15, 300_000),
                                                (25, 13, 120_000),
                                                (27, 15, 50_000),
                                                (31, 18, 400_000),
                                                (25, 13, 80_000),
                                                (27, 15, 30_000),
                                                (31, 18, 120_000),
                                                ("doubling15", 18, 50_000),
                                                ("bose21", 11, 400)])
    def test_ladder_pruning_strength(self, v, best, budget):
        # The first two budgets are below the 364,901 and 899,661 nodes
        # that the weaker Bonferroni bound S_j - lam*C(j,2) needs, so only
        # a bound at least as strong as the triple-counting one passes.
        # The next three are below the 196,318, 254,717 and 1,813,164 nodes
        # that the triple-counting bound needs without the defect bound.
        # The last four are below the 93,333, 36,434, 263,819 and 170,973
        # nodes that the defect bound needs without its parity term; with
        # it the search takes 64,813, 24,121, 93,979 and 36,324.  Skipping
        # root and first-child children symmetric to an earlier sibling
        # keeps v=25 and v=31 (trivial groups) and takes v=27 to 9,236 and
        # doubling15 to 36,234: only the point-transitive v=27 has much
        # symmetry to skip.  The full-point ceiling decision ends the v=27
        # search at 2,785: 1,720 nodes reach 15, then 1,065 steps on point
        # 0 refute 16; the swap search now reaches 15 before the tree, so
        # the 1,065 steps are all.  At v=25 the parity case lowers the
        # ceiling to 14 (even m); the full-point decision at 14 (odd m,
        # E = 13 >= m = 11) then finds no full point in 41,095 steps and
        # lifts the floor, and
        # the tree proves 13 in 31,489 nodes: 72,584 in all, against
        # 64,813 tree nodes without the decision.  v=31 has even m and
        # 2E >= m, so neither case runs there.
        # bose(21) has no sub-STS(9), so its ceiling is lowered from 12 to
        # 11: the search took 222 nodes, and 651 without the lowering; the
        # swap search now reaches 11 before the tree, in 0 nodes.
        if v == "doubling15":
            d = doubling(build_sts(15, seed=1))[0]
        elif v == "bose21":
            d = bose(21)
        else:
            d = build_sts(v, seed=1)
        rep = exact_max_nonincident(d, node_budget=budget)
        assert rep.exact
        assert rep.best_s == best
        assert rep.nodes_visited <= budget

    @pytest.mark.parametrize(
        "make,nodes,Y,C",
        [
            (lambda: doubling(build_sts(9, seed=1))[0], 5,
             [9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
             [0, 1, 2, 3, 9, 10, 11, 17, 18, 24]),
            (lambda: build_sts(19, seed=1), 5_143,
             [0, 1, 2, 3, 4, 5, 6, 7, 10],
             [47, 48, 49, 50, 51, 53, 54, 55, 56]),
            (lambda: build_sts(25, seed=1), 72_584,
             [0, 1, 3, 4, 5, 6, 7, 9, 18, 19, 20, 22, 23],
             [30, 31, 32, 33, 72, 75, 76, 80, 81, 83, 84, 88, 90]),
            (lambda: build_sts(27, seed=1), 1_065,
             [2, 3, 4, 6, 7, 8, 11, 13, 15, 17, 18, 19, 20, 21, 26],
             [0, 4, 12, 16, 23, 24, 58, 62, 81, 83, 85, 94, 103, 105, 112]),
            (lambda: build_sts(31, seed=1), 93_979,
             [0, 1, 3, 4, 5, 6, 8, 9, 11, 12, 16, 17, 18, 20, 21, 25, 29, 30],
             [36, 38, 39, 42, 87, 89, 90, 91, 110, 111, 114, 125, 128, 129,
              132, 145, 151, 154]),
            (lambda: bose(15), 132, [0, 1, 2, 3, 4, 10],
             [25, 26, 27, 28, 29, 30]),
        ],
        ids=["doubling9", "sts19", "sts25", "sts27", "sts31", "bose15"],
    )
    def test_ladder_node_counts(self, make, nodes, Y, C):
        # The search is deterministic, so a change to its warm start, child
        # order or pruning that should leave it alone must keep these
        # counts, not only fit the budgets above.  The orbit skip took
        # v=27 from 24,121 and bose(15) from 747.  The full-point ceiling
        # decision (s* = 10 at v=19, 16 at v=27) took doubling9 from 140
        # nodes to 5 steps, which find its sub-STS(9) through point 0;
        # sts19 from 1,996 to 5,143 steps, which refute 10 at every point
        # after greedy's 9 (a trivial group, so no point is skipped; the
        # steps take about 4 ms against the tree's 15 ms on a 2-core Xeon
        # under CPython 3.11); and v=27 from 9,236 to 1,720 nodes
        # and 1,065 steps, which refute 16 at point 0 of a point-transitive
        # design; the swap search then took greedy's 14 to 15 in 3 swaps,
        # so the 1,720 nodes and the certificate went.  bose(15) has even
        # m = 8, so it kept its count.  v=25
        # went from 64,813 tree nodes to 41,095 steps that refute a full
        # point at 14 and 31,489 nodes under the lifted floor: fewer tree
        # nodes and cheaper steps, about 0.48 s to 0.29 s on that Xeon.
        # v=31 has even m = 12 at its ceiling 19 and 2E = 18 >= m, so no
        # decision runs and the tree proves 18 under the parity floor 1;
        # that floor inverted (0 at even m, 1 at odd m) reads 89,839.
        # The certificate pins which points and blocks are certified:
        # the first best points of the best set in label order, and the
        # first best blocks they miss in block order.
        rep = exact_max_nonincident(make())
        assert rep.exact
        assert rep.nodes_visited == nodes
        assert list(rep.certificate.Y) == Y and list(rep.certificate.C) == C

    @pytest.mark.slow
    def test_bose33_proved_within_budget(self):
        # 14,458,809 nodes without the defect bound, 3,257,763 with it but
        # without its parity term, 2,146,188 with both, 616,148 once root
        # and first-child children symmetric to an earlier sibling are
        # skipped, 294,090 once a refuted full point at the lowered
        # ceiling 20 lifts the floor (9,907 of them decision steps), and
        # 276,482 once the swap search raises greedy's incumbent.
        d = bose(33)
        rep = exact_max_nonincident(d, node_budget=300_000)
        assert rep.exact and rep.nodes_visited == 276_482
        assert rep.best_s == 19
        assert verify_certificate(d, rep.certificate, require_square=True)

    def test_sts25_seed0_above_greedy(self):
        # Greedy reaches 13 here and the maximum is 14 (MILP-checked under
        # -m slow), so a defect count that overshoots and prunes the
        # subtree holding 14 is caught.
        d = build_sts(25, seed=0)
        assert greedy_max_nonincident(d).best_s == 13
        rep = exact_max_nonincident(d)
        assert rep.exact
        assert rep.best_s == 14
        assert verify_certificate(d, rep.certificate, require_square=True)

    def test_ceiling_stop_is_exact(self, fano):
        # Greedy already meets the Fano ceiling of 2: no node is needed,
        # so even a zero budget proves the maximum.
        rep = exact_max_nonincident(fano, node_budget=0)
        assert rep.best_s == rep.bound_used == 2
        assert rep.exact and rep.nodes_visited == 0
        # Found by search: the subsystem complement meets the ceiling 12.
        d = embed_subsystem(9, 21, seed=0).design
        rep = exact_max_nonincident(d)
        assert rep.best_s == rep.bound_used == 12
        assert rep.exact
        assert verify_certificate(d, rep.certificate, require_square=True)

    def test_ceiling_met_inside_the_tree(self, monkeypatch):
        # v=15 is no family order and greedy stops at 6, below the ceiling
        # of 7, so the search itself reaches 7.  The limit that incumbent
        # sets prunes every node left: the search ends after 13 nodes.  The
        # swap search would reach 7 before the tree, so it is off.
        _no_swaps(monkeypatch)
        d = relabel(embed_subsystem(7, 15, seed=0).design, 0)
        assert greedy_max_nonincident(d).best_s == 6
        rep = exact_max_nonincident(d)
        assert rep.best_s == rep.bound_used == 7
        assert rep.exact and rep.nodes_visited == 13
        assert verify_certificate(d, rep.certificate, require_square=True)

    def test_warm_start_never_below_greedy(self):
        d = bose(15)
        rep = exact_max_nonincident(d, node_budget=1)
        assert rep.best_s >= greedy_max_nonincident(d).best_s
        assert verify_certificate(d, rep.certificate, require_square=True)

    @pytest.mark.parametrize("v", [7, 9, 13, 15])
    def test_sound_on_partial_and_repeated_pair_designs(self, v):
        # Block subsets of an STS keep lam = 1 with fewer blocks and are
        # searched exactly.  Random triple sets mostly repeat a pair
        # (lam > 1), where neither the counting bound nor the square
        # ceiling holds, so no design is built from them.
        rng = random.Random(v)
        sts = build_sts(v, seed=v)
        triples = list(combinations(range(v), 3))
        for trial in range(20):
            if trial % 2:
                blocks = rng.sample(triples, rng.randrange(1, 3 * v))
            else:
                blocks = rng.sample(sts.blocks, rng.randrange(1, sts.b + 1))
            if _lam(blocks) > 1:
                with pytest.raises(DesignError):
                    Design.from_blocks(v, blocks)
                continue
            d = Design.from_blocks(v, blocks)
            rep = exact_max_nonincident(d)
            assert rep.exact and rep.best_s == brute_force_oracle(d)

    def test_family_order_certificate_is_the_subsystem(self):
        # At v=21 the sub-STS(9) is found before any branching: Y is its
        # complement and C its 12 interior blocks.
        emb = embed_subsystem(9, 21, seed=1)
        rep = exact_max_nonincident(emb.design)
        complement = tuple(p for p in range(21) if p not in emb.sub_points)
        assert rep.certificate.Y == complement
        assert rep.certificate.C == emb.sub_blocks
        assert rep.exact and rep.nodes_visited == 0

    @pytest.mark.parametrize("seed", range(2))
    def test_family_order_proved_by_subsystem(self, seed):
        # v=91 is a family order with ceiling 70 = v - 21: the relabelled
        # sub-STS(21) is found and its complement proves 70 without a node.
        d = relabel(embed_subsystem(21, 91, seed=seed).design, seed)
        rep = exact_max_nonincident(d, node_budget=0)
        assert rep.best_s == rep.bound_used == 70
        assert rep.exact and rep.nodes_visited == 0
        assert verify_certificate(d, rep.certificate, require_square=True)


def _lam(blocks):
    pairs = Counter(pr for blk in blocks for pr in combinations(blk, 2))
    return max(pairs.values(), default=0)


class TestKillBound:
    def test_is_the_counting_optimum(self):
        # Fewest blocks n1 + n2 + n3 with n1 + 2*n2 + 3*n3 = s and
        # n2 + 3*n3 <= q, by enumeration.
        for s in range(40):
            for q in range(40):
                want = min(
                    s - n2 - 2 * n3
                    for n3 in range(s // 3 + 1)
                    for n2 in range((s - 3 * n3) // 2 + 1)
                    if n2 + 3 * n3 <= q
                )
                assert kill_bound(s, q) == want, (s, q)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: (7, FANO_BLOCKS),
            lambda rng: (9, AG23_BLOCKS),
            lambda rng: (13, build_sts(13, seed=11).blocks),
            lambda rng: (15, bose(15).blocks),
            lambda rng: (13, rng.sample(build_sts(13, seed=3).blocks, 15)),
            lambda rng: (15, rng.sample(bose(15).blocks, 20)),
            lambda rng: (9, rng.sample(list(combinations(range(9), 3)), 30)),
            lambda rng: (12, rng.sample(list(combinations(range(12), 3)), 40)),
        ],
        ids=["fano", "ag23", "sts13", "bose15", "sts13_subset",
             "bose15_subset", "triples9", "triples12"],
    )
    def test_every_candidate_set_kills_at_least_k(self, make):
        # For random Y, every set J of j candidates kills at least
        # K(S, lam*C(j,2)) live blocks, both with S the degree sum of J and
        # with S_j, the sum of the j smallest live degrees the search uses.
        # The triple sets repeat pairs (lam > 1), which no Design allows,
        # so the incidence masks are built here.
        rng = random.Random(4)
        v, blocks = make(rng)
        lam = _lam(blocks)
        inc = [0] * v
        for i, blk in enumerate(blocks):
            for p in blk:
                inc[p] |= 1 << i
        for trial in range(3):
            Y = rng.sample(range(v), trial)
            mask = (1 << len(blocks)) - 1
            for p in Y:
                mask &= ~inc[p]
            cands = [p for p in range(v) if p not in Y]
            live = [inc[p] & mask for p in cands]
            deg = [m.bit_count() for m in live]
            smallest = [0]
            for x in sorted(deg):
                smallest.append(smallest[-1] + x)
            killed = [0] * (1 << len(cands))
            degree_sum = [0] * (1 << len(cands))
            for J in range(1, 1 << len(cands)):
                low = J & -J
                i = low.bit_length() - 1
                killed[J] = killed[J ^ low] | live[i]
                degree_sum[J] = degree_sum[J ^ low] + deg[i]
                j = J.bit_count()
                q = lam * (j * (j - 1) // 2)
                got = killed[J].bit_count()
                assert got >= kill_bound(degree_sum[J], q)
                assert got >= kill_bound(smallest[j], q)


def _third_points(d):
    """third[a, b]: the third point of the block through a and b, if any."""
    third = {}
    for blk in d.blocks:
        for a, b in combinations(blk, 2):
            third[a, b] = third[b, a] = next(c for c in blk if c not in (a, b))
    return third


def _recount(d, third, Y, X):
    """x1, x2, e, o and xd of a node with points Y and excluded points X,
    counted from the blocks: the blocks with at least one and at least two
    points in X, the defects (pairs of X whose third point is in Y), and
    the points of X on an odd number of defects and on any."""
    on = [len(set(blk) & set(X)) for blk in d.blocks]
    x1 = sum(1 << i for i, k in enumerate(on) if k >= 1)
    x2 = sum(1 << i for i, k in enumerate(on) if k >= 2)
    defects = [ab for ab in combinations(X, 2) if third.get(ab) in Y]
    odd = hit = 0
    for a, b in defects:
        odd ^= 1 << a | 1 << b
        hit |= 1 << a | 1 << b
    return x1, x2, len(defects), odd, hit


def _sts25_subset(drop, seed):
    """build_sts(25, 1) less drop blocks, drawn by random.Random(seed)."""
    d = build_sts(25, seed=1)
    return Design.from_blocks(
        25, random.Random(seed).sample(d.blocks, d.b - drop))


class TestDefectBound:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: Design.from_blocks(7, FANO_BLOCKS),
            lambda rng: Design.from_blocks(9, AG23_BLOCKS),
            lambda rng: build_sts(13, seed=11),
            lambda rng: bose(15),
            lambda rng: Design.from_blocks(
                13, rng.sample(build_sts(13, seed=3).blocks, 15)),
            lambda rng: Design.from_blocks(
                15, rng.sample(bose(15).blocks, 20)),
        ],
        ids=["fano", "ag23", "sts13", "bose15", "sts13_subset",
             "bose15_subset"],
    )
    def test_every_superset_obeys_the_pair_count(self, make):
        # For random disjoint Y and X, with e the pairs of X whose block
        # has its third point in Y, d_x those at x and o the x in X with d_x
        # odd, every Y' between Y and V - X, with m' = v - |Y'|, has
        # 3*t(Y') <= C(m', 2) - e - h, h = o/2 for odd m' and (m' - o)/2
        # for even m' (the parity term of the defect bound).
        rng = random.Random(8)
        d = make(rng)
        third = _third_points(d)
        inc = d.point_incidence
        for trial in range(10):
            cut = rng.randrange(1, 4)
            picked = rng.sample(range(d.v), min(d.v, cut + rng.randrange(2, 7)))
            Y, X = picked[:cut], sorted(picked[cut:])
            e = sum(1 for ab in combinations(X, 2) if third.get(ab) in Y)
            dx = [sum(1 for b in X if third.get((a, b)) in Y) for a in X]
            assert sum(dx) == 2 * e
            o = sum(k % 2 for k in dx)

            def room(m):
                h = o // 2 if m % 2 else (m - o) // 2
                return m * (m - 1) // 2 - e - h

            free = [p for p in range(d.v) if p not in picked]
            base = d.all_blocks_mask()
            for p in Y:
                base &= ~inc[p]
            live = [base] * (1 << len(free))
            for J in range(1, 1 << len(free)):
                low = J & -J
                live[J] = live[J ^ low] & ~inc[free[low.bit_length() - 1]]
                m = d.v - len(Y) - J.bit_count()
                assert 3 * live[J].bit_count() <= room(m)
            assert 3 * base.bit_count() <= room(d.v - len(Y))

    @pytest.mark.parametrize(
        "make,decide",
        [
            (lambda: bose(15), False),
            (lambda: doubling(build_sts(9, seed=1))[0], False),
            (lambda: build_sts(19, seed=1), False),
            (lambda: bose(21), False),
            (lambda: _sts25_subset(30, 3008), True),
        ],
        ids=["bose15", "doubling9", "sts19", "bose21", "sts25_subset"],
    )
    def test_kept_counts_match_a_recount_at_every_node(self, make, decide,
                                                      monkeypatch):
        # The search keeps x1, x2, e, the odd-defect mask o and the defect
        # mask xd as it goes; at every node they must equal a recount from
        # Y and the excluded points xm alone, and Y, xm and the candidates
        # split the points.  The ceiling decision would end the doubling9
        # and sts19 searches before the tree, so it is off on all but the
        # v=25 subset, and the tree runs as it does without it.  On the
        # subset greedy stops at 12 and the tree reaches 13, where the
        # decision lifts the floor to 2; no node before that may read a
        # lifted floor.  The swap search, which would reach the doubling9
        # ceiling, the bose21 maximum and the subset's 13 before the tree,
        # is off.
        _no_swaps(monkeypatch)
        d = make()
        third = _third_points(d)
        seen, floors = [], []

        class Recounted(_BranchAndBound):
            def _decide(self):
                if decide:
                    super()._decide()

            def _rec(self, cands, Y, mask, t, x1, x2, e, xm, o, xd):
                X = [x for x in range(d.v) if xm >> x & 1]
                assert sorted(X + Y + list(cands)) == list(range(d.v))
                assert (x1, x2, e, o, xd) == _recount(d, third, Y, X)
                seen.append((o, xd))
                floors.append(self.floor == 2)
                return super()._rec(cands, Y, mask, t, x1, x2, e, xm, o, xd)

        bb = Recounted(d, node_budget=10**6)
        assert bb.best < bb.ceiling
        full = d.all_blocks_mask()
        bb._rec(list(range(d.v)), [], full, full.bit_count(),
                0, 0, 0, 0, 0, 0)
        assert not bb.truncated
        assert bb.best == exact_max_nonincident(d).best_s
        assert len(seen) > 100 and any(o for o, _ in seen)
        assert any(o != xd for o, xd in seen)
        assert floors == sorted(floors)
        assert set(floors) == ({False, True} if decide else {False})

    def test_set_meeting_the_count_is_kept(self, monkeypatch):
        # The complement of a sub-STS(9) in an STS(21) has 12 points and 12
        # blocks.  From an incumbent of 11, m = 21 - 11 - 1 = 9 is odd and
        # the root has no excluded point, so o = 0, f = 0 and
        # C(9, 2) = 3*12: the count holds with equality.  The root must not
        # be pruned, so a prune one defect too eager, or the even-m term
        # |T| - o + f*(m - |T|) = 9 in place of o = 0, loses this set.  The
        # ceiling decision would find the sub-STS(9) itself, so it is off
        # and the tree has to.
        monkeypatch.setattr(_BranchAndBound, "_decide", lambda self: None)
        d = embed_subsystem(9, 21, seed=0).design
        bb = _BranchAndBound(d, node_budget=10**6)
        bb._incumbent(11, bb.best_Y)
        assert bb.limit == 0
        full = d.all_blocks_mask()
        bb._rec(list(range(d.v)), [], full, full.bit_count(),
                0, 0, 0, 0, 0, 0)
        assert bb.best == bb.ceiling == 12 and bb.limit == -1

    def test_paper_bound_is_the_count_at_the_root(self):
        # With no defect, an incumbent at F = nonincidence_upper_bound(v)
        # leaves m = v - F - 1 points, too few to hold F + 1 blocks, so
        # its limit is negative and every node is pruned; F itself still
        # passes the count.  So the ceiling is where the limit turns
        # negative, and the search needs no separate stop.
        for v in range(1, 100_001):
            if v % 6 in (1, 3):
                f = nonincidence_upper_bound(v)
                assert (comb(v - f - 1, 2) - 3 * (f + 1) < 0
                        <= comb(v - f, 2) - 3 * f)


def _classes(orbit):
    return sorted(Counter(orbit).values())


def _permuted(d, seed):
    """relabel(d, seed) and the permutation it applies."""
    perm = list(range(d.v))
    random.Random(seed).shuffle(perm)
    return relabel(d, seed), perm


# Each pinned _orbits call: the design, the fixed points, the steps its map
# searches spend (_ORBIT_STEPS less the steps left), every map question
# (a, b) in the order asked, and every map found, in order.
MAP_SEARCH_PINS = {
    "sts27_stab": (lambda: build_sts(27, seed=1), (0,), 421, [
        (1, 2), (1, 3), (1, 9), (3, 9), (1, 10), (1, 12), (3, 12), (9, 12),
        (1, 18), (3, 18), (9, 18), (12, 18), (1, 21), (3, 21), (9, 21),
        (12, 21), (18, 21)], [
        [0, 2, 4, 6, 8, 1, 3, 5, 7, 9, 11, 13, 15, 17, 10, 12, 14, 16, 18, 20,
         22, 24, 26, 19, 21, 23, 25],
        [0, 10, 26, 3, 13, 20, 6, 16, 23, 9, 19, 8, 12, 22, 2, 15, 25, 5, 18,
         1, 17, 21, 4, 11, 24, 7, 14],
    ]),
    "doubling15": (lambda: doubling(build_sts(15, seed=1))[0], (), 2251, [
        (0, 1), (0, 3), (1, 3), (0, 4), (1, 4), (3, 4), (0, 5), (0, 15),
        (1, 15), (3, 15), (4, 15), (0, 16), (1, 16), (3, 16), (4, 16),
        (15, 16), (2, 17), (2, 18), (17, 18)], [
        [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 1, 2, 3, 4, 20, 21, 22, 23, 24,
         25, 26, 27, 28, 29, 15, 16, 17, 18, 19, 30],
    ]),
    "doubling15_stab": (
        lambda: doubling(build_sts(15, seed=1))[0], (0,), 1382, [
        (1, 3), (1, 4), (3, 4), (1, 5), (3, 5), (4, 5), (1, 6), (3, 6), (4, 6),
        (5, 6), (2, 7), (1, 8), (3, 8), (4, 8), (5, 8), (6, 8), (1, 9), (3, 9),
        (4, 9), (5, 9), (6, 9), (8, 9), (1, 10), (3, 10), (4, 10), (5, 10),
        (6, 10), (8, 10), (9, 10), (1, 11), (3, 11), (4, 11), (5, 11), (6, 11),
        (8, 11), (9, 11), (10, 11), (2, 12), (7, 12), (1, 13), (3, 13),
        (4, 13), (5, 13), (6, 13), (8, 13), (9, 13), (10, 13), (11, 13),
        (1, 14), (3, 14), (4, 14), (5, 14), (6, 14), (8, 14), (9, 14),
        (10, 14), (11, 14), (13, 14), (1, 15), (3, 15), (4, 15), (5, 15),
        (6, 15), (8, 15), (9, 15), (10, 15), (11, 15), (13, 15), (14, 15),
        (1, 16), (3, 16), (4, 16), (5, 16), (6, 16), (8, 16), (9, 16),
        (10, 16), (11, 16), (13, 16), (14, 16), (15, 16), (2, 17), (7, 17),
        (12, 17), (2, 18), (7, 18), (12, 18), (17, 18), (1, 20), (3, 20),
        (4, 20), (5, 20), (6, 20), (8, 20), (9, 20), (10, 20), (11, 20),
        (13, 20), (14, 20), (15, 20), (16, 20), (1, 21), (3, 21), (4, 21),
        (5, 21), (6, 21), (8, 21), (9, 21), (10, 21), (11, 21), (13, 21),
        (14, 21), (15, 21), (16, 21), (20, 21), (2, 22), (7, 22), (12, 22),
        (17, 22), (18, 22), (2, 23), (7, 23), (12, 23), (17, 23), (18, 23),
        (22, 23), (19, 24), (1, 25), (3, 25), (4, 25), (5, 25), (6, 25),
        (8, 25), (9, 25), (10, 25), (11, 25), (13, 25), (14, 25), (15, 25),
        (16, 25), (20, 25), (21, 25), (1, 26), (3, 26), (4, 26), (5, 26),
        (6, 26), (8, 26), (9, 26), (10, 26), (11, 26), (13, 26), (14, 26),
        (15, 26), (16, 26), (20, 26), (21, 26), (25, 26), (2, 27), (7, 27),
        (12, 27), (17, 27), (18, 27), (22, 27), (23, 27), (2, 28), (7, 28),
        (12, 28), (17, 28), (18, 28), (22, 28), (23, 28), (27, 28), (19, 29),
        (24, 29)], [
    ]),
    "bose21": (lambda: bose(21), (), 156, [
        (0, 1), (0, 2), (0, 7)], [
        [1, 0, 6, 5, 4, 3, 2, 8, 7, 13, 12, 11, 10, 9, 15, 14, 20, 19, 18, 17,
         16],
        [2, 0, 5, 3, 1, 6, 4, 9, 7, 12, 10, 8, 13, 11, 16, 14, 19, 17, 15, 20,
         18],
        [7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 1, 2, 3, 4, 5,
         6],
    ]),
    "bose21_stab": (lambda: bose(21), (0,), 212, [
        (1, 2), (1, 3), (1, 7), (1, 8), (7, 8), (1, 14), (7, 14), (8, 14),
        (1, 15), (7, 15), (8, 15), (14, 15)], [
        [0, 2, 4, 6, 1, 3, 5, 7, 9, 11, 13, 8, 10, 12, 14, 16, 18, 20, 15, 17,
         19],
        [0, 3, 6, 2, 5, 1, 4, 7, 10, 13, 9, 12, 8, 11, 14, 17, 20, 16, 19, 15,
         18],
    ]),
}


class TestOrbits:
    @pytest.mark.parametrize("make,stabiliser", [
        (lambda: Design.from_blocks(7, FANO_BLOCKS), 2),
        (lambda: Design.from_blocks(9, AG23_BLOCKS), 2),
        (lambda: bose(21), 6),
        (lambda: build_sts(27, seed=1), 7),
    ], ids=["fano", "ag23", "bose21", "sts27"])
    def test_point_transitive(self, make, stabiliser):
        # One orbit; the stabiliser of point 0 splits the points into the
        # given number of classes, {0} itself counted.
        d = make()
        assert _orbits(d) == [0] * d.v
        orbit = _orbits(d, (0,))
        assert len(set(orbit)) == stabiliser and orbit.count(0) == 1
        assert all(orbit[p] <= p for p in range(d.v))

    @pytest.mark.parametrize("v", [19, 25, 31, 37])
    def test_trivial_group(self, v):
        # Points that share a class (dozens of map questions on each of
        # these) stay apart only because every such question fails.
        d = build_sts(v, seed=1)
        assert _orbits(d) == _orbits(d, (0,)) == list(range(v))

    @pytest.mark.parametrize("fixed", [(), (0,)], ids=["root", "stabiliser"])
    def test_questions_pair_points_on_as_many_blocks(self, fixed, monkeypatch):
        # The invariant counts each point's blocks: no map question pairs
        # points on different numbers of blocks, which no automorphism
        # maps to each other.  Without that count, the Pasch count alone
        # lets such questions through on these block subsets of bose(15).
        subsets = [d for name, d in SOUNDNESS_DESIGNS
                   if name.startswith("bose15_subset")]
        assert len(subsets) == 6
        asked = []
        found = search._automorphism

        def record(*args):
            asked.append(args[-3:-1])
            return found(*args)

        monkeypatch.setattr(search, "_automorphism", record)
        for d in subsets:
            asked.clear()
            _orbits(d, fixed)
            blocks = [inc.bit_count() for inc in d.point_incidence]
            assert all(blocks[a] == blocks[b] for a, b in asked)

    @pytest.mark.parametrize("make", [
        lambda: bose(15),
        lambda: bose(21),
        lambda: build_sts(27, seed=1),
        lambda: doubling(build_sts(15, seed=1))[0],
        lambda: doubling(bose(9))[0],
    ], ids=["bose15", "bose21", "sts27", "doubling15", "doubling9"])
    def test_relabelled_copies_agree(self, make):
        # Orbits are a property of the design up to isomorphism: a
        # relabelled copy has the same orbit sizes, and so does the
        # stabiliser of the image of point 0.
        d = make()
        whole, stab = _classes(_orbits(d)), _classes(_orbits(d, (0,)))
        for seed in range(3):
            copy, perm = _permuted(d, seed)
            assert _classes(_orbits(copy)) == whole
            assert _classes(_orbits(copy, (perm[0],))) == stab

    @pytest.mark.parametrize("make,fixed", [
        (lambda: bose(15), ()),
        (lambda: bose(21), (0,)),
        (lambda: build_sts(27, seed=1), ()),
        (lambda: build_sts(27, seed=1), (0,)),
        (lambda: doubling(build_sts(15, seed=1))[0], ()),
        (lambda: relabel(bose(21), 3), (5,)),
    ], ids=["bose15", "bose21_stab", "sts27", "sts27_stab", "doubling15",
            "bose21_relabelled_stab"])
    def test_every_merge_rests_on_an_automorphism(self, make, fixed,
                                                 monkeypatch):
        # Each map a merge uses sends blocks to blocks and fixes the fixed
        # points, and the orbits are exactly those the maps generate.
        d = make()
        maps = []
        found = search._automorphism

        def record(*args):
            g = found(*args)
            if g is not None:
                maps.append(g)
            return g

        monkeypatch.setattr(search, "_automorphism", record)
        orbit = _orbits(d, fixed)
        assert maps
        blocks = set(d.blocks)
        rep = list(range(d.v))
        for g in maps:
            assert sorted(g) == list(range(d.v))
            assert all(g[f] == f for f in fixed)
            assert {tuple(sorted(g[p] for p in blk)) for blk in blocks} == blocks
            for p, q in enumerate(g):
                lo, hi = sorted((rep[p], rep[q]))
                rep = [lo if r == hi else r for r in rep]
        assert orbit == rep

    @pytest.mark.parametrize("name", list(MAP_SEARCH_PINS))
    def test_map_search_is_pinned(self, name, monkeypatch):
        # The same questions, maps and steps, from groups that merge every
        # point (bose21: 3 questions, each a map) to a stabiliser with no
        # map at all (doubling15_stab: 175 questions, each refuted).
        make, fixed, steps, questions, maps = MAP_SEARCH_PINS[name]
        asked, found, left = [], [], []
        automorphism = search._automorphism

        def record(*args):
            asked.append(args[-3:-1])
            left[:] = [args[-1]]
            g = automorphism(*args)
            if g is not None:
                found.append(g)
            return g

        monkeypatch.setattr(search, "_automorphism", record)
        _orbits(make(), fixed)
        assert asked == questions
        assert found == maps
        assert search._ORBIT_STEPS - left[0][0] == steps

    def test_no_steps_leaves_every_point_alone(self, monkeypatch):
        # Out of steps, no map is found and no child is skipped: the search
        # is still exact.  It reaches 15 at node 1,720, as with orbits, but
        # the ceiling decision then refutes 16 at each of the 27 points in
        # place of point 0 alone: 30,111 steps.  The swap search reaches 15
        # before the tree, so these steps are all (31,831 with the 1,720
        # nodes, 24,121 tree nodes before the decision).
        monkeypatch.setattr(search, "_ORBIT_STEPS", 0)
        d = build_sts(27, seed=1)
        assert _orbits(d) == _orbits(d, (0,)) == list(range(27))
        rep = exact_max_nonincident(d)
        assert rep.exact and rep.best_s == 15
        assert rep.nodes_visited == 30_111

    @pytest.mark.parametrize("make,nodes,asked", [
        (lambda: build_sts(27, seed=1), 1_065, [()]),
        (lambda: doubling(build_sts(15, seed=1))[0], 34_215, [(0,), ()]),
        (lambda: build_sts(25, seed=1), 72_584, [(), (0,)]),
    ], ids=["sts27", "doubling15", "sts25"])
    def test_asks_for_the_root_and_the_first_child_stabiliser(
            self, make, nodes, asked, monkeypatch):
        # One orbit computation for the first child, fixing its point, and
        # one for the root; none at any other node, not even at the later
        # root children that doubling15's 11 root orbits leave to enter.
        # v=27 reaches 15 by the swap search, before the tree, so the one
        # call is the ceiling decision's, for the root orbits, after point
        # 0 fails; that decision ends the search.  On v=25 the decision
        # runs on greedy's 13 and lifts the floor, so the tree goes on; its
        # root reuses the decision's root orbits.
        calls = []
        orbits = search._orbits

        def record(d, fixed=()):
            calls.append(fixed)
            return orbits(d, fixed)

        monkeypatch.setattr(search, "_orbits", record)
        rep = exact_max_nonincident(make())
        assert rep.exact and rep.nodes_visited == nodes
        # Every point of an STS has the same degree, so the first child
        # adds point 0.
        assert calls == asked

    def test_no_orbits_when_the_search_ends_in_its_first_child(
            self, monkeypatch):
        # The ceiling decision finds the sub-STS(9) through point 0 in 5
        # steps, before the tree, so it never asks for other points.
        calls = []
        monkeypatch.setattr(search, "_orbits",
                            lambda d, fixed=(): calls.append(fixed))
        rep = exact_max_nonincident(doubling(build_sts(9, seed=1))[0])
        assert rep.exact and rep.nodes_visited == 5
        assert calls == []


def _soundness_designs():
    """(id, design) for the symmetry soundness check: 8 designs, each with
    3 relabellings, 6 random block subsets, minus its first block and
    every other block; then bose(27) and a relabelled copy."""
    bases = [
        ("fano", Design.from_blocks(7, FANO_BLOCKS)),
        ("ag23", Design.from_blocks(9, AG23_BLOCKS)),
        ("bose15", bose(15)),
        ("bose21", bose(21)),
        ("doubling7", doubling(build_sts(7))[0]),
        ("doubling_bose9", doubling(bose(9))[0]),
        ("sts13", build_sts(13, seed=11)),
        ("embed7_15", embed_subsystem(7, 15, seed=0).design),
    ]
    out = []
    for name, d in bases:
        rng = random.Random(d.v)
        out.append((name, d))
        out += [(f"{name}_relabel{k}", relabel(d, k)) for k in range(3)]
        out += [(f"{name}_subset{k}", Design.from_blocks(
            d.v, rng.sample(d.blocks, rng.randrange(d.b // 2, d.b))))
            for k in range(6)]
        out.append((f"{name}_minus_first", Design.from_blocks(d.v, d.blocks[1:])))
        out.append((f"{name}_every_other",
                    Design.from_blocks(d.v, d.blocks[::2])))
    return out + [("bose27", bose(27)),
                  ("bose27_relabel0", relabel(bose(27), 0))]


SOUNDNESS_DESIGNS = _soundness_designs()


@pytest.mark.parametrize("d", [d for _, d in SOUNDNESS_DESIGNS],
                         ids=[name for name, _ in SOUNDNESS_DESIGNS])
def test_symmetry_skip_is_sound(d, monkeypatch):
    # The search with orbit skipping must find what the search without it
    # finds (every orbit a single point), and brute force for v <= 15.
    # Mutants that put every point in one orbit fail on doubling(bose(9))
    # relabelled and on two of its block subsets.
    rep = exact_max_nonincident(d)
    assert rep.exact
    assert verify_certificate(d, rep.certificate)
    if d.v <= 15:
        assert rep.best_s == brute_force_oracle(d)
    monkeypatch.setattr(search, "_orbits", lambda d, fixed=(): list(range(d.v)))
    plain = exact_max_nonincident(d)
    assert plain.exact and rep.best_s == plain.best_s
    assert rep.nodes_visited <= plain.nodes_visited


def _has_subsystem(d, w):
    return any(is_subsystem(d, pts)[0] for pts in combinations(range(d.v), w))


class TestFindSubsystem:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_sts(7),
            lambda: bose(9),
            lambda: build_sts(13, seed=11),
            lambda: bose(15),
            lambda: doubling(build_sts(7))[0],
            lambda: embed_subsystem(7, 15, seed=0).design,
        ],
        ids=["sts7", "bose9", "sts13", "bose15", "doubling7", "embed7_15"],
    )
    def test_agrees_with_subset_check(self, make):
        # Whole designs and random block subsets (partial, lam = 1).
        sts = make()
        rng = random.Random(sts.v)
        designs = [sts] + [
            Design.from_blocks(sts.v, rng.sample(sts.blocks, k))
            for k in (rng.randrange(sts.b), sts.b - 1, sts.b - 3)
        ]
        for d in designs:
            for w in (3, 7):
                got = find_subsystem(d, w)
                assert (got is not None) == _has_subsystem(d, w)
                if got is not None:
                    assert len(got) == w and is_subsystem(d, got)[0]

    @pytest.mark.parametrize("w,v", [(9, 21), (13, 39), (21, 91)])
    @pytest.mark.parametrize("seed", range(3))
    def test_finds_relabelled_embedding(self, w, v, seed):
        d = relabel(embed_subsystem(w, v, seed=seed).design, 100 + seed)
        got = find_subsystem(d, w)
        assert got is not None and len(got) == w
        assert is_subsystem(d, got)[0]

    def test_bose39_has_no_sub13(self):
        assert find_subsystem(bose(39), 13) is None

    def test_trivial_orders(self, fano):
        assert find_subsystem(fano, 1) == (0,)
        assert find_subsystem(fano, 7) == tuple(range(7))
        assert find_subsystem(Design.from_blocks(7, fano.blocks[:6]), 7) is None
        assert find_subsystem(fano, 9) is None
        assert find_subsystem(Design.from_blocks(7, []), 3) is None


def _packing_ceiling(v):
    """max over m of min(v - m, D(m)), D(m) the packing number of m points
    (Schoenheim 1966, Spencer 1968): the blocks avoiding an s-point set
    pack the other v - s points."""
    def pack(m):
        d = m * ((m - 1) // 2) // 3
        return d - 1 if m % 6 == 5 else d
    return max(min(v - m, pack(m)) for m in range(v + 1))


# 16 blocks on 11 points with no pair twice (a seeded random greedy
# packing, less one of its 17 blocks): the fixed part of the v=27
# witnesses, 16 = s* blocks on m = 27 - 16 points.
PACKING11 = [
    (0, 1, 5), (0, 2, 7), (0, 3, 6), (0, 4, 10), (0, 8, 9), (1, 3, 7),
    (1, 6, 8), (1, 9, 10), (2, 3, 10), (2, 4, 8), (2, 6, 9), (3, 4, 9),
    (3, 5, 8), (4, 6, 7), (5, 6, 10), (5, 7, 9),
]


def _witness_blocks(v):
    """s* = nonincidence_upper_bound(v) blocks on the points below
    m = v - s*, no pair twice; for v = 45 the 30 are bose(15) less its
    parallel class {x, x + 5, x + 10}, whose leave is five triangles."""
    if v == 19:
        return AG23_BLOCKS[:10]
    if v == 27:
        return PACKING11
    if v == 37:
        return list(build_sts(13, seed=0).blocks[:24])
    assert v == 45
    return [b for b in bose(15).blocks if not b[1] - b[0] == b[2] - b[1] == 5]


def _packed_witness(v, seed, relabelled=True):
    """An STS(v) that reaches s*: _hill_climb completes _witness_blocks(v),
    kept fixed, so the complement of the m points holds s* blocks."""
    blocks, _, _ = _hill_climb(v, [tuple(b) for b in _witness_blocks(v)],
                               random.Random(seed), 300_000)
    d = Design.from_blocks(v, blocks)
    return relabel(d, seed) if relabelled else d


def _agreement_designs():
    """(id, design): STS(7..19) at seeds 0-3 and a relabelling of each,
    bose(27) and two relabellings, block subsets of STS(13) and STS(19),
    and the packed witnesses at v=19 and v=27."""
    out = []
    for v in (7, 9, 13, 15, 19):
        for k in range(4):
            d = build_sts(v, seed=k)
            out += [(f"sts{v}_{k}", d), (f"sts{v}_{k}_relabel", relabel(d, k))]
    out += [("bose27", bose(27))]
    out += [(f"bose27_relabel{k}", relabel(bose(27), k)) for k in range(2)]
    for v in (13, 19):
        d = build_sts(v, seed=1)
        rng = random.Random(v)
        out += [(f"sts{v}_subset{k}", Design.from_blocks(
            v, rng.sample(d.blocks, d.b - 2 - k))) for k in range(3)]
    out += [(f"witness{v}_{k}", _packed_witness(v, k))
            for v in (19, 27) for k in range(4)]
    return out


AGREEMENT_DESIGNS = _agreement_designs()

# Designs whose full-point decision has E >= m, so that a refutation lifts
# the floor: build_sts(25, k) for k = 0-5, a relabelling, four block
# subsets of build_sts(25, 1) (greedy stops at 12 on the last two, so the
# decision runs inside the tree, not at the root), and bose(33), whose
# search takes seconds.
LIFT_DESIGNS = (
    [(f"sts25_{k}", build_sts(25, seed=k)) for k in range(6)]
    + [("sts25_relabel", relabel(build_sts(25, seed=1), 1))]
    + [(f"sts25_less{drop}", _sts25_subset(drop, seed))
       for drop, seed in ((1, 100), (10, 1000), (25, 2504), (30, 3008))]
    + [("bose33", bose(33))])


class TestCeilingDecision:
    def test_parity_case_is_the_packing_ceiling(self):
        # With m = v - s* even, every point of W = V - Y has odd leave
        # degree, so W misses at least m/2 pairs: 2E < m rules s* out.
        # Below 400 that happens exactly where the packing-number ceiling
        # is below s*.  An empty design of each order suffices: the rule
        # reads only v.
        lowered = []
        for v in range(1, 400):
            if v % 6 not in (1, 3):
                continue
            bound = nonincidence_upper_bound(v)
            bb = _BranchAndBound(Design.from_blocks(v, []), 0)
            if any(kind == "parity" for kind, *_ in bb.decisions):
                assert bb.ceiling == bound - 1
                lowered.append(v)
            assert (v in lowered) == (_packing_ceiling(v) < bound)
        assert len(lowered) == 32
        assert lowered[:11] == [25, 33, 43, 55, 67, 69, 81, 97, 99, 115, 133]
        assert lowered[-1] == 391

    def test_subsystem_case_is_the_family_orders(self):
        # E = 0 with m odd is exactly an equality-family order, so the
        # subsystem case reads v as classify_equality_order does.
        for v in range(1, 20_000):
            if v % 6 in (1, 3):
                s = nonincidence_upper_bound(v)
                m = v - s
                family = classify_equality_order(v)
                assert (family is not None) == (m % 2 == 1
                                                and comb(m, 2) == 3 * s)
                assert family is None or family.w == m

    def test_sts25_seed0_ends_at_its_lowered_ceiling(self, monkeypatch):
        # s* = 15 at v = 25 has m = 10 even and E = 0: the ceiling is 14,
        # this design's maximum (MILP-checked under -m slow), so the search
        # ends at the node that reaches 14.  Without the lowering it ended
        # there too: at 14 the limit is 0 and the parity term |10 - o|/2,
        # with e >= o/2, prunes every node.  That took 60,100 tree nodes.
        # Now greedy's 13 runs the full-point decision at 14, which finds
        # no full point in 41,159 steps (no W of this design that reaches
        # 14 has one) and lifts the floor.  The tree then reached 14 at
        # node 30,320 of its own, 71,479 in all; now the swap search
        # reaches 14 in 10 swaps, before the tree.
        taken = []
        incumbent = _BranchAndBound._incumbent

        def record(self, value, Y):
            taken.append((value, self.nodes))
            incumbent(self, value, Y)

        monkeypatch.setattr(_BranchAndBound, "_incumbent", record)
        d = build_sts(25, seed=0)
        rep = exact_max_nonincident(d)
        assert rep.exact and rep.best_s == 14 and rep.bound_used == 15
        assert taken[-1] == (14, rep.nodes_visited) == (14, 41_159)
        assert verify_certificate(d, rep.certificate, require_square=True)

    @pytest.mark.parametrize("v", [19, 27])
    @pytest.mark.parametrize("seed", range(4))
    def test_witness_reaches_the_bound(self, v, seed):
        # W holds s* blocks, so the decision must find a W through a full
        # point.  On these designs the search takes 95-2,201 nodes and
        # steps at v=19 and 3,591-7,514 at v=27 (4,743-8,154 without the
        # swap search); with neither the decision nor the swap search the
        # tree takes 973-1,352 and 7,564-17,191 nodes.
        d = _packed_witness(v, seed)
        rep = exact_max_nonincident(d)
        assert rep.exact and rep.best_s == rep.bound_used
        assert verify_certificate(d, rep.certificate, require_square=True)

    @pytest.mark.parametrize("make", [
        lambda: build_sts(19, seed=1),
        lambda: relabel(bose(27), 0),
    ] + [lambda k=k: build_sts(13, seed=k) for k in range(10)],
        ids=["sts19", "bose27_relabel"] + [f"sts13_{k}" for k in range(10)])
    def test_refuted_bound_is_exact_one_below(self, make):
        d = make()
        rep = exact_max_nonincident(d)
        assert rep.exact and rep.best_s == rep.bound_used - 1
        assert verify_certificate(d, rep.certificate, require_square=True)
        if d.v <= 15:
            assert rep.best_s == brute_force_oracle(d)

    @pytest.mark.parametrize("d,lifts", [
        pytest.param(d, False, id=name) for name, d in AGREEMENT_DESIGNS
    ] + [
        pytest.param(d, True, id=name,
                     marks=[pytest.mark.slow] if name == "bose33" else [])
        for name, d in LIFT_DESIGNS])
    def test_agrees_with_the_search_without_it(self, d, lifts, monkeypatch,
                                               caplog):
        # On LIFT_DESIGNS the refutation lifts the floor rather than
        # ending the search, and the tree under the floor must find and
        # prove what the tree without the decision does.
        with caplog.at_level(logging.INFO, logger="nonincidence"):
            rep = exact_max_nonincident(d)
        assert (" floor lifted, " in caplog.text) == lifts
        assert rep.exact
        assert verify_certificate(d, rep.certificate, require_square=True)
        monkeypatch.setattr(_BranchAndBound, "_decide", lambda self: None)
        plain = exact_max_nonincident(d)
        assert (rep.best_s, rep.exact) == (plain.best_s, plain.exact)

    def test_agreement_set_runs_the_decision(self):
        # At least 50 designs, and the decision both finds and refutes.
        assert len(AGREEMENT_DESIGNS) >= 50
        outcomes = Counter()
        for _, d in AGREEMENT_DESIGNS:
            bb = _BranchAndBound(d, 10**6)
            full = d.all_blocks_mask()
            bb._rec(list(range(d.v)), [], full, full.bit_count(),
                    0, 0, 0, 0, 0, 0)
            for kind, _, outcome, _ in bb.decisions:
                if kind == "full point":
                    outcomes[outcome] += 1
        assert outcomes["found"] >= 8 and outcomes["refuted"] >= 20

    def test_a_new_incumbent_drops_the_floor(self):
        # Greedy's 13 on build_sts(25, 1) runs the decision at once, which
        # lifts the floor of each of the m = 11 points to 2 under the limit
        # 2E = 26.  The floor bounds only sets of 14 points; an incumbent
        # of 14 meets the ceiling, its limit of -1 stands alone, and the
        # floor falls back to the parity floor 1 of m = 10.
        d = build_sts(25, seed=1)
        bb = _BranchAndBound(d, 10**6)
        assert (bb.best, bb.ceiling, bb.m, bb.limit, bb.floor) == (
            13, 14, 11, 26, 2)
        bb._incumbent(14, bb.best_Y)
        assert (bb.m, bb.limit, bb.floor) == (10, -1, 1)

    def test_refutes_24_on_sts37(self):
        # No 13 points of build_sts(37, 1) hold 24 blocks: at every point
        # the search over its 18 blocks fails, without running out.
        d = build_sts(37, seed=1)
        bb = _BranchAndBound(d, 10**6)
        assert all(bb._full_point(w, 24) is None for w in range(37))
        assert not bb.truncated and bb.nodes > 0

    def test_finds_w_on_a_packed_sts37(self):
        d = _packed_witness(37, 0, relabelled=False)
        bb = _BranchAndBound(d, 10**6)
        W = bb._full_point(0, 24)
        assert W == set(range(13))
        blocks = [b for b in d.blocks if set(b) <= W]
        assert len(blocks) >= 24 and sum(0 in b for b in blocks) == 6

    def test_floor_keeps_a_w_without_a_full_point(self):
        # v = 45: s* = 30, m = 15 and E = 15 = m, so every point of a W
        # may miss two pairs.  Here W = 0..14 holds bose(15) less a
        # parallel class: 30 blocks, and no full point.  An incumbent of
        # 29 runs the decision, which refutes a full point and lifts the
        # floor of each point to 2 under the limit 2E = 30: the ceiling
        # stays 30.
        d = _packed_witness(45, 0, relabelled=False)
        inside = [i for i, b in enumerate(d.blocks) if max(b) < 15]
        cert = NonincidenceCertificate.build(d, range(15, 45), inside)
        assert verify_certificate(d, cert, require_square=True)
        bb = _BranchAndBound(d, 2 * 10**6)
        assert bb.best < 29
        bb._incumbent(29, bb.best_Y)
        assert bb.decisions == [("full point", 30, "floor lifted", 1_386_415)]
        assert (bb.ceiling, bb.limit, bb.floor) == (30, 30, 2)
        # The node with X = W and Y all but point 44 must be kept.  Each
        # point of W misses exactly two pairs, so it adds exactly 2 to
        # 2e + o + 2(m - |xd|), whichever of its pairs are defects yet:
        # the sum is 30 = 2E, and a prune one too eager loses W.
        Y, X = list(range(15, 44)), list(range(15))
        x1, x2, e, o, xd = _recount(d, _third_points(d), Y, X)
        assert 2 * e + o.bit_count() + 2 * (15 - xd.bit_count()) == 30
        mask = d.all_blocks_mask()
        for p in Y:
            mask &= ~d.point_incidence[p]
        bb._rec([44], Y, mask, mask.bit_count(), x1, x2, e, (1 << 15) - 1,
                o, xd)
        assert bb.best == 30
        assert sorted(bb.best_Y) == list(range(15, 45))

    def test_budget_out_inside_the_decision_is_not_exact(self):
        # Greedy reaches 9 on build_sts(19, 1), so the decision starts at
        # once and needs 5,143 steps.
        d = build_sts(19, seed=1)
        for budget in (0, 100, 5_142):
            rep = exact_max_nonincident(d, node_budget=budget)
            assert not rep.exact
            assert rep.nodes_visited == budget and rep.best_s == 9
        assert exact_max_nonincident(d, node_budget=5_143).exact

    @pytest.mark.parametrize("make,budget,lines", [
        (lambda: build_sts(19, seed=1), 10_000,
         ["ceiling decision (full point case): s*=10 refuted, 5143 steps"]),
        (lambda: build_sts(19, seed=1), 100,
         ["ceiling decision (full point case): s*=10 budget ran out, 100 "]),
        (lambda: doubling(build_sts(9, seed=1))[0], 10_000,
         ["ceiling decision (full point case): s*=10 found, 5 steps"]),
        (lambda: bose(21), 10_000,
         ["ceiling decision (subsystem case): s*=12 refuted, 0 steps",
          "swap search: s=11 found, swaps used: 3"]),
        (lambda: build_sts(25, seed=0), 100_000,
         ["ceiling decision (parity case): s*=15 refuted, 0 steps",
          "ceiling decision (full point case): s*=14 floor lifted, 41159 ",
          "swap search: s=14 found, swaps used: 10"]),
        (lambda: bose(15), 10_000,
         ["swap search: s=7 not found, swaps used: 30"]),
        (lambda: build_sts(37, seed=1), 10_000,
         ["swap search: s=22 found, swaps used: 1",
          "swap search: s=23 not found, swaps used: 30"]),
    ], ids=["sts19", "sts19_budget", "doubling9", "bose21", "sts25",
            "bose15", "sts37"])
    def test_logs_one_info_line(self, make, budget, lines, caplog):
        # One INFO line per decision and per swap-search try, in the order
        # they are made: v=25 lowers its ceiling by parity, decides the
        # full-point case at 14 and then swaps its way to 14.  bose(21)
        # swaps to 11 once its subsystem case lowers the ceiling to that.
        # bose(15) has no decision (even m, 2E >= m) and its swap search
        # fails; build_sts(37, 1) swaps from greedy's 21 to 22, fails at
        # 23, and would decide at an incumbent of 23, which a 10,000-node
        # search does not reach.  A search that ends in the decision, as
        # on sts19 and doubling9, tries no swap.
        with caplog.at_level(logging.INFO, logger="nonincidence"):
            exact_max_nonincident(make(), node_budget=budget)
        records = [r for r in caplog.records
                   if r.name == "nonincidence.search"]
        assert len(records) == len(lines)
        for record, line in zip(records, lines):
            assert record.levelno == logging.INFO
            assert record.getMessage().startswith(line)

    def test_logs_each_decision_when_it_is_made(self, monkeypatch, caplog):
        # Greedy's 13 on build_sts(25, 1) runs the full-point decision at
        # 14 and then a swap search before the tree, so their lines must
        # come before the tree's first node, not after the whole search.
        rec, logged = _BranchAndBound._rec, []

        def record(self, *args):
            if not logged:
                logged.append([r.getMessage() for r in caplog.records])
            return rec(self, *args)

        monkeypatch.setattr(_BranchAndBound, "_rec", record)
        with caplog.at_level(logging.INFO, logger="nonincidence"):
            exact_max_nonincident(build_sts(25, seed=1))
        assert [line.split(",")[0] for line in logged[0]] == [
            "ceiling decision (parity case): s*=15 refuted",
            "ceiling decision (full point case): s*=14 floor lifted",
            "swap search: s=14 not found"]


def _missed(d, Z):
    """The blocks that miss the point set Z, by a scan of the block tuples."""
    return sum(1 for b in d.blocks if not set(b) & set(Z))


# The designs the swap search is run on: the agreement and floor-lift sets,
# and the block subsets of the symmetry check (partial designs, where some
# pairs lie on no block).
SWAP_DESIGNS = AGREEMENT_DESIGNS + LIFT_DESIGNS + [
    (name, d) for name, d in SOUNDNESS_DESIGNS
    if "subset" in name or "every_other" in name]


class TestSwapSearch:
    def test_every_set_it_returns_reaches_its_target(self):
        # From greedy's set, one above it and on from each set found, with
        # no ceiling to stop it: every set has s distinct points, its t is
        # the blocks it misses, and a set returned as found misses at least
        # s of them.
        found = 0
        for _, d in SWAP_DESIGNS:
            Y = search._greedy(d)
            while len(Y) < d.v:
                s = len(Y) + 1
                Y, t, swaps = search._swap_search(d, Y, s)
                assert len(set(Y)) == len(Y) == s
                assert set(Y) <= set(range(d.v))
                assert t == _missed(d, Y)
                assert 0 <= swaps <= search._SWAP_STEPS
                if t < s:
                    break
                found += 1
                assert s <= nonincidence_upper_bound(d.v)
        assert found >= 20

    @pytest.mark.parametrize("name,d", [
        pytest.param(name, d,
                     marks=[pytest.mark.slow] if name == "bose33" else [],
                     id=name)
        for name, d in AGREEMENT_DESIGNS + LIFT_DESIGNS])
    def test_same_answer_without_it_and_no_more_nodes(self, name, d,
                                                       monkeypatch):
        rep = exact_max_nonincident(d)
        _no_swaps(monkeypatch)
        plain = exact_max_nonincident(d)
        assert (rep.best_s, rep.exact) == (plain.best_s, plain.exact)
        assert rep.nodes_visited <= plain.nodes_visited

    @pytest.mark.parametrize("make", [
        lambda: bose(15),
        lambda: bose(21),
        lambda: relabel(bose(27), 0),
        lambda: build_sts(25, seed=1),
        lambda: build_sts(25, seed=0),
        lambda: build_sts(27, seed=1),
        lambda: build_sts(31, seed=1),
        lambda: build_sts(37, seed=1),
        lambda: _sts25_subset(25, 2504),
        lambda: bose(33),
    ], ids=["bose15", "bose21", "bose27_relabel", "sts25", "sts25_0",
            "sts27", "sts31", "sts37", "sts25_subset", "bose33"])
    def test_swap_value_matches_a_recount_after_every_swap(self, make,
                                                          monkeypatch):
        # Each try the search makes before its tree is run again under a
        # cap of k swaps for every k, which stops it on the set it holds
        # after its k-th swap: the search is deterministic.  The t it kept
        # by the swap value must be the blocks that set misses.  A value
        # without the third-point correction counts the block
        # {y, w, third[y][w]} as alive, and the first swap it picks for
        # that leaves a wrong t.
        d = make()
        tries = []
        swap_search = search._swap_search

        def record(d, Y, s):
            tries.append((tuple(Y), s))
            return swap_search(d, Y, s)

        monkeypatch.setattr(search, "_swap_search", record)
        _BranchAndBound(d, 10**6)
        assert tries
        swaps_made = 0
        for Y, s in tries:
            for k in range(search._SWAP_STEPS + 1):
                monkeypatch.setattr(search, "_SWAP_STEPS", k)
                Z, t, swaps = swap_search(d, Y, s)
                assert len(Z) == s and t == _missed(d, Z), (s, k)
            swaps_made += swaps
        assert swaps_made > 0


class TestGreedy:
    def test_fano_matches_exact(self, fano):
        rep = greedy_max_nonincident(fano)
        assert rep.best_s == 2
        assert not rep.exact
        assert verify_certificate(fano, rep.certificate, require_square=True)

    def test_never_beats_exact(self):
        for seed in range(3):
            d = embed_subsystem(3, 15, seed=seed).design
            assert (
                greedy_max_nonincident(d).best_s
                <= exact_max_nonincident(d).best_s
            )

    def test_above_ceiling_raises(self):
        # Four blocks on {0,1,2,3} would leave {4,5,6} against 4 disjoint
        # blocks: s=3 above the STS(7) ceiling of 2, which only repeated
        # pairs allow, so no such design is built.
        with pytest.raises(DesignError, match=r"pair \(0, 1\) lies"):
            Design.from_blocks(7, combinations(range(4), 3))

    def test_bounded_by_ceiling(self):
        d = bose(27)
        rep = greedy_max_nonincident(d)
        assert rep.best_s <= rep.bound_used == nonincidence_upper_bound(27)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: Design.from_blocks(7, FANO_BLOCKS),
            lambda rng: Design.from_blocks(9, AG23_BLOCKS),
            lambda rng: build_sts(13, seed=11),
            lambda rng: bose(15),
            lambda rng: build_sts(25, seed=0),
            lambda rng: bose(99),
            lambda rng: embed_subsystem(9, 21, seed=0).design,
            lambda rng: relabel(embed_subsystem(7, 15, seed=0).design, 0),
            lambda rng: embed_subsystem(21, 91, seed=1).design,
            lambda rng: doubling(build_sts(9, seed=1))[0],
            lambda rng: doubling(bose(45))[0],
            lambda rng: Design.from_blocks(
                13, rng.sample(build_sts(13, seed=3).blocks, 15)),
            lambda rng: Design.from_blocks(
                21, rng.sample(bose(21).blocks, 40)),
            lambda rng: Design.from_blocks(
                27, rng.sample(build_sts(27, seed=2).blocks, 100)),
            lambda rng: Design.from_blocks(7, []),
            lambda rng: Design.from_blocks(1, []),
        ],
        ids=["fano", "ag23", "sts13", "bose15", "sts25", "bose99",
             "embed9_21", "embed7_15", "embed21_91", "doubling9",
             "doubling45", "sts13_subset", "bose21_subset",
             "sts27_subset", "empty7", "empty1"],
    )
    def test_matches_the_loop_that_ran_to_the_end(self, make):
        # Greedy stops before the step that would leave t <= |Y|; the
        # reference runs until every block is dead and keeps its best set.
        # Both must give the same certificate, and greedy takes exactly
        # best_s points.
        d = make(random.Random(6))
        best, cert = reference_greedy(d)
        rep = greedy_max_nonincident(d)
        assert rep.best_s == best
        assert rep.certificate == cert
        assert rep.nodes_visited == rep.best_s


@pytest.mark.parametrize("search", [exact_max_nonincident,
                                    greedy_max_nonincident])
def test_order_must_be_1_or_3_mod_6(search):
    # A partial system of order 8 is a valid Design, but the paper's bound
    # is defined only at orders 1 or 3 mod 6, and both searches use it.
    d = Design.from_blocks(8, [(0, 1, 2), (0, 3, 4), (5, 6, 7)])
    with pytest.raises(ValueError, match="order 8 is not"):
        search(d)


class TestBruteForce:
    def test_fano(self, fano):
        assert brute_force_oracle(fano) == 2

    def test_ag23(self, ag23):
        assert brute_force_oracle(ag23) == 3

    def test_single_block(self):
        assert brute_force_oracle(bose(3)) == 0

    def test_refuses_large_orders(self):
        d19, _ = doubling(bose(9))
        with pytest.raises(ValueError):
            brute_force_oracle(d19)


def test_report_serialization_round_trips():
    import json

    d = build_sts(13, seed=2)
    rep = exact_max_nonincident(d)
    data = json.loads(rep.to_json())
    assert data["best_s"] == rep.best_s
    assert data["exact"] is True
    assert data["bound_used"] == 6
    assert data["certificate"]["design_digest"] == d.digest()
