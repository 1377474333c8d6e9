import random

import pytest

from nonincidence import (
    BudgetExhausted,
    bose,
    build_sts,
    disjoint_block_bound,
    doubling,
    embed_subsystem,
    is_subsystem,
    subsystem_complement_certificate,
    validate_design,
    verify_certificate,
)
from nonincidence.constructions import DEFAULT_MOVE_BUDGET, _hill_climb
from conftest import (
    CountingRandom,
    climb_counts,
    is_maximal_arc,
    reference_hill_climb,
    replication,
)


class TestBose:
    def test_order_9(self):
        d = bose(9)
        assert validate_design(d).ok
        assert d.b == 12
        assert replication(d) == 4

    def test_order_3(self):
        assert bose(3).blocks == ((0, 1, 2),)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            bose(7)

    @pytest.mark.parametrize("v", range(3, 100, 6))
    def test_valid_up_to_99(self, v):
        assert validate_design(bose(v)).ok


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

    @pytest.mark.parametrize("w", [1, 3, 7, 9, 13, 15])
    def test_old_point_x_joins_a_perfect_matching_of_the_new_points(self, w):
        # Old point x lies on (w+1)/2 new blocks whose other points cover
        # the new points w..2w once each, and one of them is {x, w+x, 2w}.
        d, arc = doubling(build_sts(w, 1))
        for x in range(w):
            pairs = [blk[1:] for blk in d.blocks if blk[0] == x and blk[1] >= w]
            assert sorted(p for pair in pairs for p in pair) == list(arc)
            assert (w + x, 2 * w) in pairs

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

    @pytest.mark.parametrize("w,v", [(3, 19), (7, 15), (9, 19), (9, 21), (13, 39)])
    def test_sub_blocks_are_the_frozen_blocks(self, w, v):
        # The climb never evicts a frozen block and they cover every pair of
        # 0..w-1, so the blocks inside 0..w-1 are exactly the frozen ones.
        for seed in range(3):
            sub, _ = _climb_inputs(w, v, seed)
            emb = embed_subsystem(w, v, seed=seed)
            assert [emb.design.blocks[i] for i in emb.sub_blocks] == sorted(sub)

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
        assert cert.meta["moves"] == emb.meta["moves"] > 0
        assert cert.meta["evictions"] == emb.meta["evictions"]

    def test_trimmed_at_7(self):
        emb = embed_subsystem(3, 7, seed=0)
        cert = subsystem_complement_certificate(emb)
        assert len(cert.Y) == 4
        assert len(cert.C) == 1
        assert verify_certificate(emb.design, cert)

    def test_trimmed_at_19(self):
        # A sub-STS(9) has 12 blocks but only 10 points lie outside it.
        emb = embed_subsystem(9, 19, seed=0)
        assert len(emb.sub_blocks) == 12
        cert = subsystem_complement_certificate(emb)
        assert cert.Y == tuple(range(9, 19))
        assert cert.C == emb.sub_blocks[:10]
        assert verify_certificate(emb.design, cert, require_square=True)

    def test_blockless_subsystem_refused(self):
        # A sub-STS(1) has no block, so its certificate would be empty.
        emb = embed_subsystem(1, 7, seed=0)
        assert emb.sub_blocks == ()
        with pytest.raises(ValueError, match="no block"):
            subsystem_complement_certificate(emb)


def _climb_inputs(w, v, seed):
    """The frozen sub-blocks and generator state embed_subsystem climbs from."""
    rng = random.Random(seed)
    sub = [] if w < 3 else list(build_sts(w, seed=rng.randrange(2**32)).blocks)
    return sub, rng.getstate()


def _generator(state, cls=random.Random):
    rng = cls()
    rng.setstate(state)
    return rng


def _climbs_agree(w, v, seed, move_budget):
    """Run the climb and the reference from embed_subsystem's inputs and
    check that they agree: the same blocks, moves and evictions, or the
    same BudgetExhausted, and the same generator state after either.
    Returns (blocks, moves, evictions)."""
    sub, state = _climb_inputs(w, v, seed)
    ref_rng = _generator(state, CountingRandom)
    rng = _generator(state)
    try:
        ref = reference_hill_climb(v, sub, ref_rng, move_budget)
    except BudgetExhausted:
        with pytest.raises(BudgetExhausted):
            _hill_climb(v, sub, rng, move_budget)
        assert rng.getstate() == ref_rng.getstate()
        raise
    blocks, moves, evictions = _hill_climb(v, sub, rng, move_budget)
    assert blocks == ref
    assert rng.getstate() == ref_rng.getstate()
    # Each block inserted beyond the v(v-1)/6 - |fixed| the climb ends
    # with replaced an evicted one.
    drawn, added = climb_counts(ref_rng, sub)
    assert moves == drawn >= added
    assert evictions == added - (v * (v - 1) // 6 - len(sub))
    return blocks, moves, evictions


class TestHillClimbReference:
    """The climb gives the reference's blocks, draws and move counts.

    The reference is the row-scanning climb in conftest; equal generator
    states afterwards mean both made the same calls on it.
    """

    @pytest.mark.parametrize("w,v", [
        (3, 7), (3, 13), (3, 19), (3, 25), (3, 31), (3, 37), (1, 9), (7, 15),
        (9, 19), (9, 21), (13, 27), (13, 39), (7, 43), (15, 63),
        pytest.param(21, 91, marks=pytest.mark.slow),
        pytest.param(31, 127, marks=pytest.mark.slow),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, w, v, seed):
        blocks, moves, evictions = _climbs_agree(w, v, seed,
                                                 DEFAULT_MOVE_BUDGET)
        emb = embed_subsystem(w, v, seed)
        assert emb.design.blocks == tuple(blocks)
        assert (emb.meta["moves"], emb.meta["evictions"]) == (moves, evictions)

    # The seeds of 0-7 whose climb stalls within 20,000 moves.  Near
    # v = 2w + 1 most draws then land on a pair of the frozen sub-design,
    # so these climbs test that a fixed block is never evicted.
    STALLED = {(15, 33): {1, 2}, (21, 49): {1, 4, 5}}

    @pytest.mark.parametrize("w,v", list(STALLED))
    @pytest.mark.parametrize("seed", range(8))
    def test_stalled_climbs_match_reference(self, w, v, seed):
        if seed in self.STALLED[w, v]:
            with pytest.raises(BudgetExhausted):
                _climbs_agree(w, v, seed, 20_000)
        else:
            _climbs_agree(w, v, seed, 20_000)

    def test_budget_boundary_matches_reference(self):
        # Of seeds 0-199, embed(13, 39) at seed 149 needs the most moves.
        w, v, seed, need = 13, 39, 149, 6371
        sub, state = _climb_inputs(w, v, seed)
        with pytest.raises(BudgetExhausted):
            reference_hill_climb(v, sub, _generator(state), need - 1)
        with pytest.raises(BudgetExhausted):
            embed_subsystem(w, v, seed, move_budget=need - 1)
        ref = reference_hill_climb(v, sub, _generator(state), need)
        emb = embed_subsystem(w, v, seed, move_budget=need)
        assert emb.design.blocks == tuple(ref)
        assert emb.meta["moves"] == need

    # The reference comparison at v = 91 and 127 is slow, so these pin
    # the climbs there by digest prefix, moves and evictions.  Partner
    # lists pass 21 entries at these orders, so the pair draw takes its
    # second branch as well as its first.
    @pytest.mark.parametrize("w,v,seed,digest,moves,evictions", [
        (21, 91, 0, "bec7d2d3a2b51cd0", 27346, 5110),
        (21, 91, 1, "ba2956e8074a1575", 11175, 3928),
        (21, 91, 2, "20708f198ee2c73e", 15776, 3931),
        (31, 127, 0, "a1a05e0aebfb469c", 23905, 7377),
        (31, 127, 1, "9dd8ad3981dd28a7", 28150, 7951),
        (31, 127, 2, "73f398fda68430a3", 38147, 8867),
    ])
    def test_large_climbs_pinned(self, w, v, seed, digest, moves, evictions):
        emb = embed_subsystem(w, v, seed)
        assert emb.design.digest()[:16] == digest
        assert (emb.meta["moves"], emb.meta["evictions"]) == (moves, evictions)


class TestBuildSts:
    @pytest.mark.parametrize("v", [1, 3, 7, 9, 13, 15, 19, 21, 25, 31, 43])
    def test_valid(self, v):
        assert validate_design(build_sts(v, seed=5)).ok

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            build_sts(11)
