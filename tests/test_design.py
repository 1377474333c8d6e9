import hashlib
import itertools
import json
import random
import re
import tracemalloc

import pytest

from nonincidence import (
    Design,
    DesignError,
    DigestMismatchError,
    NonincidenceCertificate,
    bose,
    build_sts,
    embed_subsystem,
    disjoint_block_bound,
    doubling,
    exact_max_nonincident,
    greedy_max_nonincident,
    is_subsystem,
    validate_design,
    verify_certificate,
)
from conftest import (
    AG23_BLOCKS,
    FANO_BLOCKS,
    coverage_profile,
    disjoint_block_count,
    is_maximal_arc,
    naive_disjoint_count,
    reference_repeated_pair,
    replication,
)

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
        assert replication(fano) == 3

    def test_block_removal_breaks_three_pairs(self, fano):
        broken = Design.from_blocks(7, FANO_BLOCKS[1:])
        rep = validate_design(broken)
        assert (rep.ok, rep.uncovered) == (False, 3)
        assert pair_count_validity(broken) == (False, ((0, 1), (0, 2), (1, 2)))

    def test_inadmissible_order(self):
        # 11 * 10 / 2 = 55 pairs, 3 of them on the block.
        rep = validate_design(Design.from_blocks(11, [(0, 1, 2)]))
        assert (rep.v, rep.ok, rep.uncovered) == (11, False, 52)

    def test_one_block_of_a_large_order_costs_no_pair_list(self):
        # The count alone gives the uncovered pairs; listing the 498,498
        # of them peaked at 48.6 MiB.
        d = Design.from_blocks(999, [(0, 1, 2)])
        tracemalloc.start()
        try:
            rep = validate_design(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.ok, rep.uncovered) == (False, 498_498)
        assert peak < 2**20

    def test_doubled_pair_reported(self):
        with pytest.raises(DesignError, match=r"pair \(0, 3\) lies on two blocks"):
            Design.from_blocks(7, FANO_BLOCKS[1:] + [(0, 1, 3)])

    @pytest.mark.parametrize("v,blocks,pair", [
        (4, [(0, 1, 2), (0, 1, 3)], (0, 1)),
        (7, [(0, 1, 2), (3, 5, 6), (4, 5, 6)], (5, 6)),
        (7, [(4, 5, 6), (3, 5, 6), (0, 1, 2)], (5, 6)),
        (9, AG23_BLOCKS + [(2, 4, 7)], (2, 4)),
    ], ids=["two_blocks", "off_point_0", "reversed", "ag23_plus_one"])
    def test_shared_pair_named(self, v, blocks, pair):
        # Two different blocks through one pair; the error names the pair.
        with pytest.raises(DesignError, match=re.escape(f"pair {pair} lies")):
            Design.from_blocks(v, blocks)

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


def pair_count_validity(d):
    """Reference STS check: (ok, uncovered pairs) from every block's pairs.

    It counts each pair, so it relies on no property of the design.
    """
    v = d.v
    counts = {}
    for blk in d.blocks:
        for i in range(3):
            for j in range(i + 1, 3):
                pair = (blk[i], blk[j])
                counts[pair] = counts.get(pair, 0) + 1
    uncovered = []
    for x in range(v):
        for y in range(x + 1, v):
            if (x, y) not in counts:
                uncovered.append((x, y))
    overcovered = [p for p, c in sorted(counts.items()) if c > 1]
    r = (v - 1) // 2
    replication_ok = (v - 1) % 2 == 0 and all(
        m.bit_count() == r for m in d.point_incidence
    )
    ok = (v % 6 in (1, 3) and d.b * 6 == v * (v - 1) and replication_ok
          and not uncovered and not overcovered)
    return ok, tuple(uncovered)


SUITE_STS = {
    "fano": lambda: Design.from_blocks(7, FANO_BLOCKS),
    "ag23": lambda: Design.from_blocks(9, AG23_BLOCKS),
    "sts1": lambda: build_sts(1),
    "bose3": lambda: bose(3),
    "sts7_1": lambda: build_sts(7, seed=1),
    "bose9": lambda: bose(9),
    "sts13_3": lambda: build_sts(13, seed=3),
    "sts13_11": lambda: build_sts(13, seed=11),
    "bose15": lambda: bose(15),
    "embed3_15": lambda: embed_subsystem(3, 15, seed=0).design,
    "embed7_15": lambda: embed_subsystem(7, 15, seed=0).design,
    "doubling9": lambda: doubling(bose(9))[0],
    "sts19_1": lambda: build_sts(19, seed=1),
    "bose21": lambda: bose(21),
    "embed9_21": lambda: embed_subsystem(9, 21, seed=0).design,
    "sts25_0": lambda: build_sts(25, seed=0),
    "sts25_1": lambda: build_sts(25, seed=1),
    "sts27_1": lambda: build_sts(27, seed=1),
    "doubling15": lambda: doubling(build_sts(15, seed=1))[0],
    "bose33": lambda: bose(33),
    "embed13_39": lambda: embed_subsystem(13, 39, seed=0).design,
    "bose39": lambda: bose(39),
    "embed21_91": lambda: embed_subsystem(21, 91, seed=0).design,
    "doubling45": lambda: doubling(bose(45))[0],
    "bose99": lambda: bose(99),
}


@pytest.mark.parametrize("name", SUITE_STS)
def test_validity_matches_pair_count_reference(name):
    # On the STS itself and on random block subsets of it.
    sts = SUITE_STS[name]()
    rng = random.Random(sts.v)
    designs = [sts] + [
        Design.from_blocks(sts.v, rng.sample(sts.blocks, k))
        for k in {0, rng.randrange(sts.b + 1), sts.b // 2, max(sts.b - 1, 0)}
    ]
    for d in designs:
        rep = validate_design(d)
        ok, pairs = pair_count_validity(d)
        assert (rep.ok, rep.uncovered) == (ok, len(pairs))
    assert validate_design(sts).ok


@pytest.mark.parametrize("v,blocks", [
    *((7, FANO_BLOCKS[:i] + FANO_BLOCKS[i + 1:]) for i in range(7)),
    (8, []),
    (8, [(0, 1, 2), (3, 4, 5)]),
    (8, FANO_BLOCKS),
    (11, [(0, 1, 2)]),
    (11, AG23_BLOCKS),
])
def test_validity_matches_reference_on_partial_systems(v, blocks):
    # Fano minus one block, and orders 8 and 11, which have no STS.
    d = Design.from_blocks(v, blocks)
    rep = validate_design(d)
    assert not rep.ok
    ok, pairs = pair_count_validity(d)
    assert (rep.ok, rep.uncovered) == (ok, len(pairs))


@pytest.mark.parametrize("name", SUITE_STS)
def test_repeated_pair_matches_reference(name):
    # Random block subsets, each with one pair of a first, middle or last
    # block put on one more block; that block may repeat its other pairs
    # too, or be a duplicate.  The error names the reference's pair.
    sts = SUITE_STS[name]()
    rng = random.Random(sts.v)
    for k in {sts.b, max(sts.b // 2, 1), rng.randint(1, max(sts.b, 1))}:
        subset = sorted(rng.sample(sts.blocks, min(k, sts.b)))
        assert reference_repeated_pair(subset) is None
        assert Design.from_blocks(sts.v, subset).blocks == tuple(subset)
        for blk in {subset[0], subset[len(subset) // 2], subset[-1]} if subset else ():
            x, y = rng.sample(blk, 2)
            z = rng.choice([p for p in range(sts.v) if p not in (x, y)])
            blocks = subset + [(x, y, z)]
            pair = reference_repeated_pair(sorted(tuple(sorted(b)) for b in blocks))
            with pytest.raises(DesignError, match=re.escape(f"pair {pair} lies")):
                Design.from_blocks(sts.v, blocks)


def test_loading_a_large_order_costs_no_square_memory():
    # Point masks cost memory with the blocks, not with v squared; a
    # per-point mask over points took about 104 MiB here.
    text = '{"v": 40000, "blocks": [[0, 1, 2]]}'
    tracemalloc.start()
    try:
        d = Design.from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.v == 40000 and d.b == 1
    assert peak < 8 * 2**20


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
    r = replication(d)
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


class TestDigestCache:
    def test_repeated_calls_give_the_hash_of_the_json(self, ag23):
        expect = hashlib.sha256(ag23.canonical_json().encode()).hexdigest()
        assert [ag23.digest() for _ in range(3)] == [expect] * 3

    def test_cached_design_equals_fresh_copy(self, ag23):
        ag23.digest()
        fresh = Design.from_blocks(9, AG23_BLOCKS)
        assert fresh == ag23 and hash(fresh) == hash(ag23)
        assert repr(fresh) == repr(ag23)
        assert fresh.digest() == ag23.digest()

    def test_cache_belongs_to_one_instance(self):
        from nonincidence import subsystem_complement_certificate

        first = embed_subsystem(9, 21, seed=1)
        second = embed_subsystem(9, 21, seed=2)
        assert first.design.digest() != second.design.digest()
        cert = subsystem_complement_certificate(first)
        assert verify_certificate(first.design, cert, require_square=True)
        with pytest.raises(DigestMismatchError):
            verify_certificate(second.design, cert)


class TestThirdTable:
    @pytest.mark.parametrize("make", [
        lambda: Design.from_blocks(7, FANO_BLOCKS),
        lambda: bose(15),
        lambda: Design.from_blocks(13, build_sts(13, seed=3).blocks[::2]),
        lambda: Design.from_blocks(7, []),
    ], ids=["fano", "bose15", "sts13_half", "empty7"])
    def test_matches_a_recount(self, make):
        # Every pair of a block gives the block's third point, and a pair
        # on no block (a partial design) gives -1.
        d = make()
        want = [[-1] * d.v for _ in range(d.v)]
        for blk in d.blocks:
            for a, b in itertools.permutations(blk, 2):
                want[a][b] = sum(blk) - a - b
        assert [list(row) for row in d.third] == want

    def test_cache_leaves_eq_hash_and_repr_alone(self, ag23):
        before = repr(ag23)
        assert ag23.third[0][1] == 2
        fresh = Design.from_blocks(9, AG23_BLOCKS)
        assert fresh == ag23 and hash(fresh) == hash(ag23)
        assert repr(ag23) == repr(fresh) == before
        assert ag23.third is ag23.third

    def test_loading_and_checking_build_no_table(self):
        # Loading, validating, digesting, greedy and verifying never build
        # third or the Pasch table.  The exact search of bose(15) asks for
        # orbits, which build both; a second search reuses them.
        d = Design.from_json(bose(15).canonical_json())
        cert = greedy_max_nonincident(d).certificate
        assert validate_design(d).ok and verify_certificate(d, cert)
        assert "third" not in vars(d) and "pasch" not in vars(d)
        exact_max_nonincident(d)
        assert "third" in vars(d) and "pasch" in vars(d)
        table = d.pasch
        exact_max_nonincident(d)
        assert d.pasch is table


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


def subsystem_oracle(d, points):
    """(is subsystem, interior blocks) by plain tuple scanning, no bitmasks.

    The set is nonempty and every pair of it lies on a block whose three
    points are all in the set.
    """
    pts = set(points)
    interior = tuple(i for i, blk in enumerate(d.blocks) if set(blk) <= pts)
    covered = {frozenset(pair) for i in interior
               for pair in itertools.combinations(d.blocks[i], 2)}
    every = {frozenset(pair) for pair in itertools.combinations(pts, 2)}
    return bool(pts) and every <= covered, interior


def _all_point_sets(v):
    for k in range(v + 1):
        yield from itertools.combinations(range(v), k)


class TestSubsystemOracle:
    def test_fano_and_every_block_subset(self):
        for r in range(8):
            for blocks in itertools.combinations(FANO_BLOCKS, r):
                d = Design.from_blocks(7, blocks)
                for pts in _all_point_sets(7):
                    assert is_subsystem(d, pts) == subsystem_oracle(d, pts), pts

    def test_ag23_and_block_subsets(self):
        rng = random.Random(9)
        subsets = [AG23_BLOCKS, []] + [
            rng.sample(AG23_BLOCKS, rng.randrange(1, 12)) for _ in range(20)
        ]
        for blocks in subsets:
            d = Design.from_blocks(9, blocks)
            for pts in _all_point_sets(9):
                assert is_subsystem(d, pts) == subsystem_oracle(d, pts), pts

    @pytest.mark.parametrize("name", SUITE_STS)
    def test_suite_designs(self, name):
        # Random sets, block point sets, and every prefix 0..k-1, which
        # holds the sub-designs of embed_subsystem and doubling.
        d = SUITE_STS[name]()
        rng = random.Random(d.v)
        sets = [range(k) for k in range(d.v + 1)]
        sets += [d.blocks[i] for i in rng.sample(range(d.b), min(d.b, 5))]
        sets += [rng.sample(range(d.v), rng.randint(0, d.v)) for _ in range(20)]
        for pts in sets:
            assert is_subsystem(d, pts) == subsystem_oracle(d, pts), pts
        assert any(is_subsystem(d, pts)[0] for pts in sets)


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
