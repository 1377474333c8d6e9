from math import isqrt

import pytest

from nonincidence import (
    classify_equality_order,
    disjoint_block_bound,
    intersection_curve_data,
    iter_equality_orders,
    nonincidence_upper_bound,
)


class TestDisjointBlockBound:
    def test_paper_crossing_value(self):
        assert disjoint_block_bound(39, 26) == 26

    @pytest.mark.parametrize("v", [7, 9, 13, 21, 39, 91])
    def test_empty_set_gives_block_count(self, v):
        assert disjoint_block_bound(v, 0) == v * (v - 1) // 6

    def test_bound_can_exceed_realized_max(self):
        assert disjoint_block_bound(9, 3) == 5  # brute force max is 3

    def test_remainder_exposed(self):
        # v=9, s=1: the numerator 56 is not a multiple of 6; it is floored.
        num = 9 * 8 + 1 - (2 * 9 - 1)
        assert num % 6 != 0
        assert disjoint_block_bound(9, 1) == num // 6 == 9

    def test_vanishes_at_the_top(self):
        # Numerator factors as (s-v)(s-v+1): zero at s = v-1 and s = v.
        assert disjoint_block_bound(9, 8) == 0
        assert disjoint_block_bound(9, 9) == 0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            disjoint_block_bound(11, 2)
        with pytest.raises(ValueError):
            disjoint_block_bound(9, 10)


class TestUpperBound:
    @pytest.mark.parametrize(
        "v,expect", [(3, 0), (7, 2), (9, 3), (13, 6), (21, 12), (39, 26), (91, 70)]
    )
    def test_known_values(self, v, expect):
        assert nonincidence_upper_bound(v) == expect

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            nonincidence_upper_bound(11)

    def test_crossing_property_all_orders_to_1e6(self):
        # Defining property: the bound is the last s on or above the
        # diagonal, checked in exact arithmetic for every admissible v.
        for v in range(1, 1_000_001):
            if v % 6 not in (1, 3):
                continue
            s = nonincidence_upper_bound(v)
            assert disjoint_block_bound(v, s) >= s
            if s + 1 <= v:
                assert disjoint_block_bound(v, s + 1) < s + 1


class TestComplementCount:
    @pytest.mark.parametrize("v,w,expect", [(21, 9, 12), (39, 13, 26), (91, 21, 70)])
    def test_family_orders(self, v, w, expect):
        assert disjoint_block_bound(v, v - w) == w * (w - 1) // 6 == expect

    @pytest.mark.parametrize("w", [1, 3, 7, 9, 13, 21])
    def test_minimal_embedding_identity(self, w):
        assert disjoint_block_bound(2 * w + 1, w + 1) == w * (w - 1) // 6


class TestEqualityFamilies:
    def test_smallest_cases(self):
        recs = list(iter_equality_orders(0))
        assert [(r.v, r.s) for r in recs] == [(1, 0), (21, 12), (39, 26), (91, 70)]
        assert [r.family for r in recs] == [1, 3, 2, 4]

    def test_negative_zmax_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            list(iter_equality_orders(-1))

    def test_made_in_v_order(self):
        # Records come z by z, families 1, 3, 2, 4, with no sort: v must
        # rise at every step, across each change of z too.
        vs = [r.v for r in list(iter_equality_orders(2_000))]
        assert len(vs) == 4 * 2_001
        assert all(a < b for a, b in zip(vs, vs[1:]))

    def test_z1_family1(self):
        recs = {(r.family, r.z): r for r in list(iter_equality_orders(1))}
        r = recs[(1, 1)]
        assert (r.v, r.s, r.w) == (259, 222, 37)
        assert r.v % 6 == 1 and r.w % 6 == 1

    def test_records_internally_consistent(self):
        for r in list(iter_equality_orders(5)):
            assert 24 * r.v + 25 == r.t * r.t
            assert r.s == r.v - (r.t - 5) // 2
            assert r.w == r.v - r.s
            assert r.v >= 2 * r.w + 1 or r.v == r.w
            assert nonincidence_upper_bound(r.v) == r.s
            assert disjoint_block_bound(r.v, r.v - r.w) == r.w * (r.w - 1) // 6 == r.s
            assert disjoint_block_bound(r.v, r.s) == r.s

    @pytest.mark.parametrize("v,family,z", [(1, 1, 0), (21, 3, 0), (39, 2, 0), (91, 4, 0), (259, 1, 1)])
    def test_classify_family_orders(self, v, family, z):
        rec = classify_equality_order(v)
        assert rec is not None
        assert (rec.family, rec.z) == (family, z)

    @pytest.mark.parametrize("v", [7, 9, 13, 15, 19, 25, 33, 37])
    def test_classify_rejects_other_orders(self, v):
        assert classify_equality_order(v) is None

    def test_classify_matches_paper_condition_to_1e6(self):
        # Reference: the paper's equality condition written out directly.
        # Equality needs 24v+25 = t^2, and then w = v - s must be an
        # admissible order with room for a sub-STS(w) (v >= 2w+1 or v = w).
        def paper_equality(v):
            t = isqrt(24 * v + 25)
            if t * t != 24 * v + 25:
                return False
            w = v - (2 * v + 5 - t) // 2
            return w % 6 in (1, 3) and (v >= 2 * w + 1 or v == w)

        hits = 0
        for v in range(1, 1_000_000):
            if v % 6 not in (1, 3):
                continue
            rec = classify_equality_order(v)
            assert (rec is not None) == paper_equality(v), v
            if rec is not None:
                hits += 1
                assert rec.v == v
                assert rec.s == nonincidence_upper_bound(v)
        assert hits > 4

    def test_classify_matches_paper_condition_on_squares_to_1e6(self):
        # Every v with 24v+25 = t^2, admissible or not (v = 4, 6, 11, ...):
        # equality needs v and w = (t-5)/2 admissible and room for a
        # sub-STS(w) (v >= 2w+1 or v = w).
        hits = 0
        for t in range(5, 1_000_001):
            if (t * t - 25) % 24:
                continue
            v, w = (t * t - 25) // 24, (t - 5) // 2
            paper = (v >= 1 and v % 6 in (1, 3) and w % 6 in (1, 3)
                     and (v >= 2 * w + 1 or v == w))
            rec = classify_equality_order(v)
            assert (rec is not None) == paper, t
            if rec is not None:
                hits += 1
                assert (rec.v, rec.w, rec.t) == (v, w, t)
        assert hits > 4

    def test_far_records_pin_u_and_t(self):
        base = {1: 1, 2: 5, 3: 4, 4: 8}
        for r in iter_equality_orders(300):
            assert r.u == 12 * r.z + base[r.family]
            assert r.t == 6 * r.u + (1 if r.family <= 2 else -1)

    def test_classify_inverts_far_records(self):
        for r in list(iter_equality_orders(300)):
            assert classify_equality_order(r.v) == r
            assert nonincidence_upper_bound(r.v) == r.s

    def test_classify_matches_enumeration(self):
        recs = list(iter_equality_orders(3))
        members = {r.v: r for r in recs}
        for v in range(1, max(members) + 1):
            got = classify_equality_order(v)
            if v in members:
                assert got == members[v]
            else:
                assert got is None


class TestCurveData:
    def test_v39_crossing(self):
        cd = intersection_curve_data(39)
        assert cd.rows[26] == (26, 26, 26)
        assert cd.rows[27][1] < 27
        assert len(cd.rows) == 40

    def test_v21_crossing(self):
        rows = intersection_curve_data(21).rows
        assert rows[12] == (12, 12, 12)
        assert rows[13][1] < 13

    def test_v7_bracket(self):
        # 24*7+25 is not a square: the curves cross strictly between 2 and 3.
        rows = intersection_curve_data(7).rows
        assert rows[2][1] > 2
        assert rows[3][1] < 3

    def test_csv_shape(self):
        text = intersection_curve_data(9).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "s,bound,diagonal"
        assert len(lines) == 11
        assert lines[1] == "0,12,0"
