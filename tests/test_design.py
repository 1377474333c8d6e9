import itertools
import json
import random

import pytest

from nonincidence import (
    Design,
    DesignError,
    DigestMismatchError,
    NonincidenceCertificate,
    bose,
    build_sts,
    coverage_profile,
    disjoint_block_bound,
    disjoint_block_count,
    doubling,
    is_maximal_arc,
    is_subsystem,
    validate_design,
    verify_certificate,
)
from conftest import AG23_BLOCKS, FANO_BLOCKS, naive_disjoint_count

MALFORMED_ENTRIES = [
    ((4, 4), (0, 1)),       # repeated point
    ((4,), (0, 0)),         # repeated block
    ((4, 5.0), (0,)),       # non-integer point
    ((4, True), (0,)),      # bool is not a point label
    ((4,), ("1",)),         # non-integer block index
    ((4, 9), (0,)),         # point out of range
    ((4,), (12,)),          # block index out of range
]


class TestValidate:
    def test_fano_passes(self, fano):
        rep = validate_design(fano)
        assert rep.ok
        assert fano.b == 7
        assert fano.replication == 3

    def test_block_removal_breaks_three_pairs(self, fano):
        broken = Design.from_blocks(7, FANO_BLOCKS[1:])
        rep = validate_design(broken)
        assert not rep.ok
        assert set(rep.uncovered_pairs) == {(0, 1), (0, 2), (1, 2)}

    def test_inadmissible_order(self):
        rep = validate_design(Design.from_blocks(11, [(0, 1, 2)]))
        assert not rep.admissible_order
        assert not rep.ok

    def test_doubled_pair_reported(self, fano):
        dup = Design.from_blocks(7, FANO_BLOCKS[1:] + [(0, 1, 3)])
        rep = validate_design(dup)
        assert (0, 3) in rep.overcovered_pairs

    def test_bad_block_shapes_rejected(self):
        with pytest.raises(DesignError):
            Design.from_blocks(7, [(0, 1, 1)])
        with pytest.raises(DesignError):
            Design.from_blocks(7, [(0, 1, 7)])
        with pytest.raises(DesignError):
            Design.from_blocks(7, [(0, 1, 2), (2, 1, 0)])

    @pytest.mark.parametrize("v,blocks", [
        (7, [(True, 3, 5)]),    # bool would serialize as true
        (7, [(0, 1, 2), (1.0, 3, 5)]),
        (7, [("1", 3, 5)]),
        (7, [(None, 3, 5)]),
        (True, []),
        (7.0, [(1, 3, 5)]),
        ("7", [(1, 3, 5)]),
    ])
    def test_non_integer_labels_rejected(self, v, blocks):
        with pytest.raises(DesignError):
            Design.from_blocks(v, blocks)

    @pytest.mark.parametrize("text", [
        '{"v": 7, "blocks": [[true, 3, 5]]}',
        '{"v": 7, "blocks": [[1.0, 3, 5]]}',
        '{"v": 7.0, "blocks": [[1, 3, 5]]}',
        '{"v": true, "blocks": []}',
    ])
    def test_from_json_rejects_non_integer_labels(self, text):
        # The integer twin loads.  A bool label would compare equal to it
        # but serialize as true, so the two would digest differently.
        Design.from_json(text.replace("true", "1").replace(".0", ""))
        with pytest.raises(DesignError):
            Design.from_json(text)


class TestDisjointCount:
    def test_block_of_ag23(self, ag23):
        assert disjoint_block_count(ag23, [0, 1, 2]) == 2

    def test_noncollinear_triples_of_ag23(self, ag23):
        lines = set(ag23.blocks)
        for triple in itertools.combinations(range(9), 3):
            if triple not in lines:
                assert disjoint_block_count(ag23, triple) == 3

    def test_empty_set(self, ag23, fano):
        assert disjoint_block_count(ag23, []) == 12
        assert disjoint_block_count(fano, []) == 7

    def test_out_of_range_point(self, fano):
        with pytest.raises(DesignError):
            disjoint_block_count(fano, [7])

    def test_matches_naive_oracle(self, ag23):
        rng = random.Random(5)
        for _ in range(50):
            pts = rng.sample(range(9), rng.randrange(10))
            assert disjoint_block_count(ag23, pts) == naive_disjoint_count(ag23, pts)


class TestCoverageProfile:
    def test_fano_pair(self, fano):
        prof = coverage_profile(fano, [0, 1])
        assert (prof.s, prof.c, prof.sum_sizes, prof.sum_pairs, prof.sum_squares) == \
            (2, 5, 6, 1, 8)

    def test_empty(self, fano):
        prof = coverage_profile(fano, [])
        assert (prof.s, prof.c, prof.sum_sizes, prof.sum_pairs, prof.sum_squares) == \
            (0, 0, 0, 0, 0)

    def test_ag23_block(self, ag23):
        prof = coverage_profile(ag23, [0, 1, 2])
        assert prof.s == 3
        assert prof.sum_sizes == 12
        assert prof.sum_squares == 18


@pytest.mark.parametrize("v", [7, 9, 13, 15, 19, 21])
def test_counting_identities_random_subsets(v):
    if v == 19:
        d, _ = doubling(bose(9))
    else:
        d = build_sts(v, seed=v)
    r = d.replication
    b = d.b
    rng = random.Random(v)
    for _ in range(40):
        pts = rng.sample(range(v), rng.randrange(v + 1))
        prof = coverage_profile(d, pts)
        s = prof.s
        assert prof.sum_sizes == r * s
        assert prof.sum_pairs == s * (s - 1) // 2
        assert prof.sum_squares == s * (s + r - 1)
        assert prof.c <= b
        t = disjoint_block_count(d, pts)
        assert t + prof.c == b
        assert t <= disjoint_block_bound(v, s)


def test_disjoint_count_antitone():
    d = bose(15)
    rng = random.Random(1)
    for _ in range(30):
        small = rng.sample(range(15), rng.randrange(15))
        extra = [p for p in range(15) if p not in small]
        big = small + rng.sample(extra, rng.randrange(len(extra) + 1))
        assert disjoint_block_count(d, small) >= disjoint_block_count(d, big)


class TestCertificates:
    def test_subsystem_complement_is_nonincident(self):
        from nonincidence import embed_subsystem, subsystem_complement_certificate

        emb = embed_subsystem(9, 21, seed=7)
        cert = subsystem_complement_certificate(emb)
        assert len(cert.Y) == 12 and len(cert.C) == 12
        assert verify_certificate(emb.design, cert, require_square=True)

    def test_incident_certificate_fails(self, fano):
        cert = NonincidenceCertificate.build(fano, [0], [0])
        assert fano.blocks[0] == (0, 1, 2)
        assert not verify_certificate(fano, cert)

    def test_disjoint_triple_certificate(self, ag23):
        pts = (0, 4, 5)
        assert pts not in set(ag23.blocks)
        blocks = [i for i, blk in enumerate(ag23.blocks) if not set(blk) & set(pts)]
        assert len(blocks) == 3
        cert = NonincidenceCertificate.build(ag23, pts, blocks)
        assert verify_certificate(ag23, cert, require_square=True)

    def test_digest_mismatch_refused(self, fano, ag23):
        cert = NonincidenceCertificate.build(ag23, [0], [1])
        with pytest.raises(DigestMismatchError):
            verify_certificate(fano, cert)

    def test_square_flag(self, ag23):
        idx = ag23.blocks.index((1, 3, 8))
        cert = NonincidenceCertificate.build(ag23, [0, 4], [idx])
        assert verify_certificate(ag23, cert)
        assert not verify_certificate(ag23, cert, require_square=True)

    def test_json_round_trip(self, ag23):
        cert = NonincidenceCertificate.build(ag23, [0, 4, 5], [1, 2, 5], meta={"k": 1})
        again = NonincidenceCertificate.from_json(cert.to_json())
        assert again == cert

    @pytest.mark.parametrize("Y,C", MALFORMED_ENTRIES)
    def test_malformed_entries_rejected(self, ag23, Y, C):
        cert = NonincidenceCertificate(
            v=9, Y=Y, C=C, design_digest=ag23.digest()
        )
        with pytest.raises(DesignError):
            verify_certificate(ag23, cert)

    @pytest.mark.parametrize("Y,C", MALFORMED_ENTRIES + [
        ((0,) * 5, (1,) * 5),   # the forged s=5 claim on bose(9)
    ])
    def test_build_rejects_malformed_entries(self, ag23, Y, C):
        with pytest.raises(DesignError):
            NonincidenceCertificate.build(ag23, Y, C)

    # Block index 12 is left out: only the design knows it has 12 blocks.
    @pytest.mark.parametrize("Y,C", [
        e for e in MALFORMED_ENTRIES if e != ((4,), (12,))
    ] + [
        ((0,) * 5, (1,) * 5),   # the forged s=5 claim on bose(9)
        ((-1,), (0,)),          # negative point
        ((4,), (-1,)),          # negative block index
        ((4,), (False,)),       # bool is not a block index
    ])
    def test_from_json_rejects_malformed_entries(self, ag23, Y, C):
        data = {"v": 9, "design_digest": ag23.digest(), "Y": Y, "C": C}
        with pytest.raises(DesignError):
            NonincidenceCertificate.from_json(json.dumps(data))

    @pytest.mark.parametrize("v", ["9", 9.0, True, None])
    def test_from_json_rejects_non_integer_order(self, ag23, v):
        data = {"v": v, "design_digest": ag23.digest(), "Y": [4], "C": [0]}
        with pytest.raises(DesignError):
            NonincidenceCertificate.from_json(json.dumps(data))

    def test_from_json_leaves_block_range_to_verify(self, ag23):
        data = {"v": 9, "design_digest": ag23.digest(), "Y": [4], "C": [99]}
        cert = NonincidenceCertificate.from_json(json.dumps(data))
        with pytest.raises(DesignError):
            verify_certificate(ag23, cert)

    def test_missing_key_is_design_error(self, ag23):
        data = json.loads(NonincidenceCertificate.build(ag23, [0], [1]).to_json())
        del data["Y"]
        with pytest.raises(DesignError, match="'Y'"):
            NonincidenceCertificate.from_json(json.dumps(data))


class TestSubsystem:
    def test_single_block(self, fano):
        ok, interior = is_subsystem(fano, [0, 1, 2])
        assert ok and interior == (0,)

    def test_six_point_complement_fails(self, ag23):
        ok, _ = is_subsystem(ag23, [p for p in range(9) if p not in (0, 4, 5)])
        assert not ok

    def test_uncovered_pairs_fail(self, fano):
        # No block meets the full point set in 2 points, yet only the
        # Fano plane covers every pair of it.
        assert is_subsystem(fano, range(7))[0]
        partial = Design.from_blocks(7, fano.blocks[:3])
        assert not is_subsystem(partial, range(7))[0]

    def test_doubled_design_keeps_subsystem(self):
        d19, _ = doubling(bose(9))
        ok, interior = is_subsystem(d19, range(9))
        assert ok
        assert len(interior) == 12
        assert len(interior) == 9 * 8 // 6


class TestMaximalArc:
    def test_doubling_arc(self):
        d19, arc = doubling(bose(9))
        assert is_maximal_arc(d19, arc)
        assert disjoint_block_count(d19, arc) == (19 * 19 - 4 * 19 + 3) // 24

    def test_fano_exhaustive(self, fano):
        # Oracle: definition checked directly on block tuples.
        for quad in itertools.combinations(range(7), 4):
            expect = all(
                len(set(blk) & set(quad)) in (0, 2) for blk in fano.blocks
            )
            assert is_maximal_arc(fano, quad) == expect
        # Line complements are the arcs of the Fano plane.
        assert is_maximal_arc(fano, [3, 4, 5, 6])

    def test_wrong_size(self, fano):
        assert not is_maximal_arc(fano, [])
        assert not is_maximal_arc(fano, range(5))


def test_canonical_serialization_round_trip(ag23):
    text = ag23.canonical_json()
    again = Design.from_json(text)
    assert again == ag23
    assert again.canonical_json() == text
    assert again.digest() == ag23.digest()
