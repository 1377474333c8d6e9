import itertools

import pytest

from nonincidence import (
    BudgetExhausted,
    bose,
    build_sts,
    disjoint_block_bound,
    doubling,
    embed_subsystem,
    is_maximal_arc,
    is_subsystem,
    one_factorization,
    subsystem_complement_certificate,
    validate_design,
    verify_certificate,
)


class TestBose:
    def test_order_9(self):
        d = bose(9)
        assert validate_design(d).ok
        assert d.b == 12
        assert d.replication == 4

    def test_order_3(self):
        assert bose(3).blocks == ((0, 1, 2),)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            bose(7)

    @pytest.mark.parametrize("v", range(3, 100, 6))
    def test_valid_up_to_99(self, v):
        assert validate_design(bose(v)).ok


class TestOneFactorization:
    @pytest.mark.parametrize("n", [2, 4, 6, 10, 20])
    def test_partitions_all_edges(self, n):
        factors = one_factorization(n)
        assert len(factors) == n - 1
        seen = set()
        for factor in factors:
            assert len(factor) == n // 2
            touched = set(itertools.chain.from_iterable(factor))
            assert touched == set(range(n))
            seen.update(factor)
        assert len(seen) == n * (n - 1) // 2

    def test_minimal(self):
        assert one_factorization(2) == (((0, 1),),)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            one_factorization(5)


class TestDoubling:
    def test_sts3_to_sts7(self):
        d7, arc = doubling(bose(3))
        assert validate_design(d7).ok
        assert arc == (3, 4, 5, 6)
        assert is_maximal_arc(d7, arc)

    def test_sts9_to_sts19(self):
        d19, arc = doubling(bose(9))
        assert validate_design(d19).ok
        assert len(arc) == 10
        assert is_maximal_arc(d19, arc)
        ok, interior = is_subsystem(d19, range(9))
        assert ok and len(interior) == 12

    def test_arc_disjoint_exceeds_arc_size_from_19(self):
        assert (19 * 19 - 4 * 19 + 3) // 24 == 12 > (19 + 1) // 2

    def test_rejects_invalid_input(self):
        from nonincidence import Design

        with pytest.raises(ValueError):
            doubling(Design.from_blocks(7, [(0, 1, 2)]))

    @pytest.mark.parametrize("w", range(3, 50, 6))
    def test_valid_and_arc_counts(self, w):
        d, arc = doubling(bose(w))
        v = 2 * w + 1
        assert validate_design(d).ok
        assert is_maximal_arc(d, arc)
        blocks_off_arc = sum(
            1 for blk in d.blocks if not set(blk) & set(arc)
        )
        assert blocks_off_arc == w * (w - 1) // 6
        assert blocks_off_arc == (v * v - 4 * v + 3) // 24


class TestEmbedSubsystem:
    @pytest.mark.parametrize(
        "w,v", [(3, 7), (3, 13), (7, 15), (9, 19), (9, 21), (13, 27), (15, 31), (21, 45)]
    )
    def test_valid_with_flagged_subsystem(self, w, v):
        emb = embed_subsystem(w, v, seed=17)
        assert validate_design(emb.design).ok
        ok, interior = is_subsystem(emb.design, emb.sub_points)
        assert ok
        assert interior == emb.sub_blocks
        assert len(interior) == w * (w - 1) // 6
        s = v - w
        assert disjoint_block_bound(v, s) == w * (w - 1) // 6

    def test_reproducible(self):
        a = embed_subsystem(9, 21, seed=42)
        b = embed_subsystem(9, 21, seed=42)
        assert a.design == b.design
        assert a.sub_blocks == b.sub_blocks

    def test_different_seeds_differ(self):
        a = embed_subsystem(9, 21, seed=1)
        b = embed_subsystem(9, 21, seed=2)
        assert a.design != b.design

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            embed_subsystem(9, 17, seed=0)  # 17 < 2*9+1
        with pytest.raises(ValueError):
            embed_subsystem(5, 21, seed=0)  # no STS(5)
        with pytest.raises(ValueError):
            embed_subsystem(3, 11, seed=0)  # no STS(11)

    def test_budget_exhaustion_is_retryable(self):
        with pytest.raises(BudgetExhausted):
            embed_subsystem(9, 21, seed=0, move_budget=3)

    def test_trivial_block_subsystem(self):
        emb = embed_subsystem(3, 7, seed=0)
        assert len(emb.sub_blocks) == 1
        assert emb.design.blocks[emb.sub_blocks[0]] == (0, 1, 2)


class TestComplementCertificate:
    def test_square_at_21(self):
        emb = embed_subsystem(9, 21, seed=3)
        cert = subsystem_complement_certificate(emb)
        assert len(cert.Y) == 12 == len(cert.C)
        assert verify_certificate(emb.design, cert, require_square=True)
        assert cert.meta["construction"] == "embed_subsystem"
        assert cert.meta["w"] == 9 and cert.meta["seed"] == 3

    def test_trimmed_at_7(self):
        emb = embed_subsystem(3, 7, seed=0)
        cert = subsystem_complement_certificate(emb)
        assert len(cert.Y) == 4
        assert len(cert.C) == 1
        assert verify_certificate(emb.design, cert)


class TestBuildSts:
    @pytest.mark.parametrize("v", [1, 3, 7, 9, 13, 15, 19, 21, 25, 31, 43])
    def test_valid(self, v):
        assert validate_design(build_sts(v, seed=5)).ok

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            build_sts(11)
