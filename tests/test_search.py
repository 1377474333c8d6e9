import random
from itertools import combinations

import pytest

from nonincidence import (
    Design,
    bose,
    brute_force_oracle,
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
        # Random triple sets repeat pairs (lam > 1), where the counting
        # bound must use lam and the square ceiling does not hold; block
        # subsets of an STS keep lam = 1 with fewer blocks.
        rng = random.Random(v)
        sts = build_sts(v, seed=v)
        triples = list(combinations(range(v), 3))
        for trial in range(20):
            if trial % 2:
                blocks = rng.sample(triples, rng.randrange(1, 3 * v))
            else:
                blocks = rng.sample(sts.blocks, rng.randrange(1, sts.b + 1))
            d = Design.from_blocks(v, blocks)
            want = brute_force_oracle(d)
            if want > nonincidence_upper_bound(v):
                with pytest.raises(AssertionError):
                    exact_max_nonincident(d)
                continue
            rep = exact_max_nonincident(d)
            assert rep.exact and rep.best_s == want

    @pytest.mark.parametrize("seed", range(2))
    def test_family_order_proved_by_subsystem(self, seed):
        # v=91 is a family order with ceiling 70 = v - 21: the relabelled
        # sub-STS(21) is found and its complement proves 70 without a node.
        d = relabel(embed_subsystem(21, 91, seed=seed).design, seed)
        rep = exact_max_nonincident(d, node_budget=0)
        assert rep.best_s == rep.bound_used == 70
        assert rep.exact and rep.nodes_visited == 0
        assert verify_certificate(d, rep.certificate, require_square=True)


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

    def test_seeded_with_subsystem_complement(self):
        emb = embed_subsystem(9, 21, seed=1)
        complement = [p for p in range(21) if p not in emb.sub_points]
        rep = greedy_max_nonincident(emb.design, start=complement)
        assert rep.best_s >= 12
        assert verify_certificate(emb.design, rep.certificate, require_square=True)

    def test_above_ceiling_raises(self):
        # Four blocks on {0,1,2,3} leave {4,5,6} against 4 disjoint blocks:
        # s=3 above the STS(7) ceiling of 2, which only repeated pairs allow.
        d = Design.from_blocks(7, combinations(range(4), 3))
        with pytest.raises(AssertionError):
            greedy_max_nonincident(d)

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


def test_subsystem_lower_bound_witness():
    # A sub-STS(w) with at least v-w blocks forces best_s >= v-w.
    emb = embed_subsystem(9, 21, seed=6)
    complement = [p for p in range(21) if p not in emb.sub_points]
    rep = greedy_max_nonincident(emb.design, start=complement)
    assert rep.best_s >= 21 - 9


def test_report_serialization_round_trips():
    import json

    d = build_sts(13, seed=2)
    rep = exact_max_nonincident(d)
    data = json.loads(rep.to_json())
    assert data["best_s"] == rep.best_s
    assert data["exact"] is True
    assert data["bound_used"] == 6
    assert data["certificate"]["design_digest"] == d.digest()
