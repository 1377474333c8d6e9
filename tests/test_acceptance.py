"""End-to-end acceptance gate.

Each test prints one pass line (visible with pytest -s or in captured
output on failure) and enforces its stated time budget.
"""

import random
import time

import pytest

from nonincidence import (
    bose,
    build_sts,
    disjoint_block_bound,
    doubling,
    embed_subsystem,
    enumerate_equality_orders,
    exact_max_nonincident,
    intersection_curve_data,
    is_subsystem,
    nonincidence_upper_bound,
    subsystem_complement_certificate,
    validate_design,
    verify_certificate,
    BudgetExhausted,
)
from conftest import (
    brute_force_oracle,
    coverage_profile,
    disjoint_block_count,
    is_maximal_arc,
    replication,
)


def _timed(limit):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"
        return elapsed

    return check


def test_criterion_1_bound_reproduction():
    done = _timed(1.0)
    assert nonincidence_upper_bound(39) == 26
    cd = intersection_curve_data(39)
    assert max(s for s, bound, _ in cd.rows if bound >= s) == 26
    assert cd.rows[26] == (26, 26, 26)
    assert all(bound > s for s, bound, _ in cd.rows[:26])
    assert all(bound < s for s, bound, _ in cd.rows[27:])
    done()
    print("criterion 1 (bound at v=39 crosses diagonal at (26,26)): PASS")


def test_criterion_2_equality_families():
    done = _timed(1.0)
    recs = enumerate_equality_orders(0)
    assert [(r.v, r.s) for r in recs] == [(1, 0), (21, 12), (39, 26), (91, 70)]
    done()
    print("criterion 2 (z=0 families v=1,21,39,91 / s=0,12,26,70): PASS")


def test_criterion_3_perfect_square_sanity():
    from math import isqrt

    for v, sq in [(21, 529), (39, 961), (91, 2209)]:
        assert 24 * v + 25 == sq
        t = isqrt(sq)
        assert t * t == sq
        assert nonincidence_upper_bound(v) == (2 * v + 5 - t) // 2
        assert (2 * v + 5 - t) % 2 == 0
    print("criterion 3 (24v+25 perfect squares, exact bound): PASS")


def test_criterion_4_attainment_at_21():
    successes = 0
    worst = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        try:
            emb = embed_subsystem(9, 21, seed=seed)
        except BudgetExhausted:
            continue
        worst = max(worst, time.perf_counter() - t0)
        assert validate_design(emb.design).ok
        cert = subsystem_complement_certificate(emb)
        assert len(cert.Y) == 12 == len(cert.C)
        assert verify_certificate(emb.design, cert, require_square=True)
        assert nonincidence_upper_bound(21) == 12 == len(cert.Y)
        successes += 1
    assert successes >= 19, f"only {successes}/20 seeds succeeded"
    assert worst < 5.0, f"slowest seed took {worst:.1f}s"
    print(f"criterion 4 (v=21 attainment, {successes}/20 seeds, "
          f"worst {worst:.2f}s): PASS")


@pytest.mark.parametrize("w,v,s", [(13, 39, 26), (21, 91, 70)])
def test_criterion_5_attainment_large(w, v, s):
    done = _timed(60.0)
    emb = embed_subsystem(w, v, seed=0)
    assert validate_design(emb.design).ok
    cert = subsystem_complement_certificate(emb)
    assert len(cert.Y) == s == len(cert.C)
    assert verify_certificate(emb.design, cert, require_square=True)
    assert nonincidence_upper_bound(v) == s
    elapsed = done()
    print(f"criterion 5 (v={v} attainment s={s}, {elapsed:.2f}s): PASS")


def test_criterion_6_maximal_arc_count():
    done = _timed(1.0)
    d19, arc = doubling(bose(9))
    assert validate_design(d19).ok
    assert is_maximal_arc(d19, arc)
    assert disjoint_block_count(d19, arc) == (19 * 19 - 4 * 19 + 3) // 24 == 12
    done()
    print("criterion 6 (doubled STS(19) arc with 12 disjoint blocks): PASS")


def test_criterion_7_oracle_equivalence():
    done = _timed(120.0)
    cases = [build_sts(7, seed=1), bose(9), build_sts(13, seed=1)]
    cases += [embed_subsystem(3, 15, seed=s).design for s in range(10)]
    for d in cases:
        rep = exact_max_nonincident(d)
        assert rep.exact
        assert rep.best_s == brute_force_oracle(d)
        assert verify_certificate(d, rep.certificate, require_square=True)
    fano = build_sts(7, seed=1)
    ag = bose(9)
    assert exact_max_nonincident(fano).best_s == 2
    assert exact_max_nonincident(ag).best_s == 3
    elapsed = done()
    print(f"criterion 7 (exact search = brute force on 13 designs, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_8_counting_identity_suite():
    done = _timed(60.0)
    designs = {}
    for v in (7, 9, 13, 15, 19, 21):
        if v == 19:
            designs[v], _ = doubling(bose(9))
        else:
            designs[v] = build_sts(v, seed=v)
    rng = random.Random(8)
    orders = sorted(designs)
    for _ in range(1000):
        v = rng.choice(orders)
        d = designs[v]
        pts = rng.sample(range(v), rng.randrange(v + 1))
        prof = coverage_profile(d, pts)
        r = replication(d)
        s = prof.s
        assert prof.sum_sizes == r * s
        assert prof.sum_pairs == s * (s - 1) // 2
        assert prof.sum_squares == s * (s + r - 1)
        assert disjoint_block_count(d, pts) <= disjoint_block_bound(v, s)
    elapsed = done()
    print(f"criterion 8 (1000 random coverage identities, {elapsed:.1f}s): PASS")


def test_criterion_9_subsystem_equivalence_both_ways():
    # Converse: the complement of any family subsystem excludes exactly
    # the subsystem's own blocks.
    for rec in enumerate_equality_orders(3):
        assert disjoint_block_bound(rec.v, rec.v - rec.w) == rec.w * (rec.w - 1) // 6
    # Forward: an equality certificate forces a subsystem off Y.
    emb = embed_subsystem(9, 21, seed=2)
    cert = subsystem_complement_certificate(emb)
    assert disjoint_block_count(emb.design, cert.Y) == \
        disjoint_block_bound(21, len(cert.Y))
    off_y = [p for p in range(21) if p not in set(cert.Y)]
    ok, interior = is_subsystem(emb.design, off_y)
    assert ok
    assert len(interior) == 12
    print("criterion 9 (subsystem equivalence, both directions): PASS")


def test_criterion_10_gap_reported_outside_families():
    # Off the equality families the tool reports the per-design value and
    # the theoretical ceiling side by side; the gap stays explicit.
    d = build_sts(13, seed=1)
    rep = exact_max_nonincident(d)
    assert rep.bound_used == nonincidence_upper_bound(13) == 6
    assert rep.best_s <= rep.bound_used
    import json
    data = json.loads(rep.to_json())
    assert {"best_s", "bound_used", "exact"} <= set(data)
    print("criterion 10 (per-design value vs ceiling reported): PASS")
