"""Exact search against an independent MILP oracle above the brute-force cap.

The model has a binary x_p per point and y_B per block: x_p + y_B <= 1
whenever p lies on B, sum(x) = sum(y), maximise sum(x).  Its optimum is
the largest square nonincident set, solved by HiGHS through scipy.
"""

import pytest

from nonincidence import (
    bose,
    build_sts,
    doubling,
    embed_subsystem,
    exact_max_nonincident,
)

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def milp_max_nonincident(d) -> int:
    n = d.v + d.b
    rows, cols = [], []
    for i, blk in enumerate(d.blocks):
        for p in blk:
            r = len(rows) // 2
            rows += [r, r]
            cols += [p, d.v + i]
    incidences = len(rows) // 2
    pair = sparse.csr_array(
        (np.ones(len(rows)), (rows, cols)), shape=(incidences, n)
    )
    balance = np.concatenate([np.ones(d.v), -np.ones(d.b)])
    res = optimize.milp(
        c=np.concatenate([-np.ones(d.v), np.zeros(d.b)]),
        constraints=[
            optimize.LinearConstraint(pair, -np.inf, 1),
            optimize.LinearConstraint(balance[np.newaxis, :], 0, 0),
        ],
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.success, res.message
    return round(-res.fun)


@pytest.mark.parametrize(
    "make,expected",
    [
        pytest.param(lambda: doubling(build_sts(9, seed=1))[0], 10,
                     id="doubling(build_sts(9,1))"),
        pytest.param(lambda: build_sts(19, seed=1), 9, id="build_sts(19,1)"),
        pytest.param(lambda: embed_subsystem(9, 21, seed=0).design, 12,
                     id="embed_subsystem(9,21,0)"),
        # A family order without a sub-STS(9): one below the ceiling of 12.
        pytest.param(lambda: bose(21), 11, id="bose(21)"),
        # The two ladder designs whose search the counting bound prunes most.
        pytest.param(lambda: build_sts(25, seed=1), 13, id="build_sts(25,1)",
                     marks=pytest.mark.slow),
        pytest.param(lambda: build_sts(27, seed=1), 15, id="build_sts(27,1)",
                     marks=pytest.mark.slow),
        # Greedy stops at 13 here, so an over-strong prune reports 13.
        pytest.param(lambda: build_sts(25, seed=0), 14, id="build_sts(25,0)",
                     marks=pytest.mark.slow),
        # Above v=27 only this oracle is independent of the search.
        pytest.param(lambda: doubling(build_sts(15, seed=1))[0], 18,
                     id="doubling(build_sts(15,1))", marks=pytest.mark.slow),
    ],
)
def test_exact_search_matches_milp(make, expected):
    d = make()
    rep = exact_max_nonincident(d)
    assert rep.exact
    assert rep.best_s == expected
    assert milp_max_nonincident(d) == expected
