import random
from collections import Counter
from itertools import combinations

import pytest

from nonincidence import (
    Design,
    DesignError,
    bose,
    build_sts,
    doubling,
    embed_subsystem,
    exact_max_nonincident,
    find_subsystem,
    greedy_max_nonincident,
    is_subsystem,
    nonincidence_upper_bound,
    verify_certificate,
)
from nonincidence.search import _BranchAndBound, kill_bound
from conftest import AG23_BLOCKS, FANO_BLOCKS, brute_force_oracle


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
        d = bose(15)
        rep = exact_max_nonincident(d, node_budget=10)
        assert not rep.exact
        assert rep.nodes_visited >= 10

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
                                                (31, 18, 400_000)])
    def test_ladder_pruning_strength(self, v, best, budget):
        # The first two budgets are below the 364,901 and 899,661 nodes
        # that the weaker Bonferroni bound S_j - lam*C(j,2) needs, so only
        # a bound at least as strong as the triple-counting one passes.
        # The last three are below the 196,318, 254,717 and 1,813,164 nodes
        # that the triple-counting bound needs without the defect bound.
        d = build_sts(v, seed=1)
        rep = exact_max_nonincident(d, node_budget=budget)
        assert rep.exact
        assert rep.best_s == best
        assert rep.nodes_visited <= budget

    @pytest.mark.slow
    def test_bose33_proved_within_budget(self):
        # 14,458,809 nodes without the defect bound.
        d = bose(33)
        rep = exact_max_nonincident(d, node_budget=4_000_000)
        assert rep.exact
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
        # ceiling holds, so the search refuses them.
        rng = random.Random(v)
        sts = build_sts(v, seed=v)
        triples = list(combinations(range(v), 3))
        for trial in range(20):
            if trial % 2:
                blocks = rng.sample(triples, rng.randrange(1, 3 * v))
            else:
                blocks = rng.sample(sts.blocks, rng.randrange(1, sts.b + 1))
            d = Design.from_blocks(v, blocks)
            if _lam(d) > 1:
                with pytest.raises(DesignError):
                    exact_max_nonincident(d)
                continue
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


def _lam(d):
    pairs = Counter(pr for blk in d.blocks for pr in combinations(blk, 2))
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
            lambda rng: Design.from_blocks(7, FANO_BLOCKS),
            lambda rng: Design.from_blocks(9, AG23_BLOCKS),
            lambda rng: build_sts(13, seed=11),
            lambda rng: bose(15),
            lambda rng: Design.from_blocks(
                13, rng.sample(build_sts(13, seed=3).blocks, 15)),
            lambda rng: Design.from_blocks(
                15, rng.sample(bose(15).blocks, 20)),
            lambda rng: Design.from_blocks(
                9, rng.sample(list(combinations(range(9), 3)), 30)),
            lambda rng: Design.from_blocks(
                12, rng.sample(list(combinations(range(12), 3)), 40)),
        ],
        ids=["fano", "ag23", "sts13", "bose15", "sts13_subset",
             "bose15_subset", "triples9", "triples12"],
    )
    def test_every_candidate_set_kills_at_least_k(self, make):
        # For random Y, every set J of j candidates kills at least
        # K(S, lam*C(j,2)) live blocks, both with S the degree sum of J and
        # with S_j, the sum of the j smallest live degrees the search uses.
        rng = random.Random(4)
        d = make(rng)
        lam = _lam(d)
        inc = d.point_incidence
        for trial in range(3):
            Y = rng.sample(range(d.v), trial)
            mask = d.all_blocks_mask()
            for p in Y:
                mask &= ~inc[p]
            cands = [p for p in range(d.v) if p not in Y]
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
        # has its third point in Y, every Y' between Y and V - X has
        # 3*t(Y') <= C(v - |Y'|, 2) - e.
        rng = random.Random(8)
        d = make(rng)
        third = {}
        for blk in d.blocks:
            for a, b in combinations(blk, 2):
                third[a, b] = next(c for c in blk if c not in (a, b))
        inc = d.point_incidence
        for trial in range(10):
            cut = rng.randrange(1, 4)
            picked = rng.sample(range(d.v), min(d.v, cut + rng.randrange(2, 7)))
            Y, X = picked[:cut], sorted(picked[cut:])
            e = sum(1 for ab in combinations(X, 2) if third.get(ab) in Y)
            free = [p for p in range(d.v) if p not in picked]
            base = d.all_blocks_mask()
            for p in Y:
                base &= ~inc[p]
            live = [base] * (1 << len(free))
            for J in range(1, 1 << len(free)):
                low = J & -J
                live[J] = live[J ^ low] & ~inc[free[low.bit_length() - 1]]
                m = d.v - len(Y) - J.bit_count()
                assert 3 * live[J].bit_count() <= m * (m - 1) // 2 - e
            m = d.v - len(Y)
            assert 3 * base.bit_count() <= m * (m - 1) // 2 - e

    def test_set_meeting_the_count_is_kept(self):
        # The complement of a sub-STS(9) in an STS(21) has 12 points and 12
        # blocks, and C(21 - 12, 2) = 3*12 with no defect: the count holds
        # with equality.  From an incumbent of 11 the root must not be
        # pruned, so a prune one defect too eager loses this set.
        d = embed_subsystem(9, 21, seed=0).design
        bb = _BranchAndBound(d, node_budget=10**6, bound=12)
        bb.best, bb.at_ceiling = 11, False
        full = d.all_blocks_mask()
        bb._rec(list(range(d.v)), [], full, full.bit_count(), 0, 0, 0)
        assert bb.best == 12 and bb.at_ceiling


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
        # Four blocks on {0,1,2,3} leave {4,5,6} against 4 disjoint blocks:
        # s=3 above the STS(7) ceiling of 2, which only repeated pairs allow.
        d = Design.from_blocks(7, combinations(range(4), 3))
        with pytest.raises(DesignError):
            greedy_max_nonincident(d)
        with pytest.raises(DesignError):
            exact_max_nonincident(d)

    def test_bounded_by_ceiling(self):
        d = bose(27)
        rep = greedy_max_nonincident(d)
        assert rep.best_s <= rep.bound_used == nonincidence_upper_bound(27)


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
