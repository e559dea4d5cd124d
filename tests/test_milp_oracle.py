"""An independent oracle for alpha-od above the 22-vertex brute-force cap.

The odd independence number is written as a mixed-integer program and
solved by HiGHS through ``scipy.optimize.milp``.  For each vertex ``v``:
``x_v`` says ``v`` is chosen, ``o_v`` is the parity of its count and
``k_v`` the half of the rest, with

* ``sum(x_u for u in N(v)) == 2 k_v + o_v``,
* ``k_v <= (floor(D/2) + 1) o_v`` (an even count must be zero; ``D`` is the
  maximum degree),
* ``o_v + x_v <= 1``,
* ``x_u + x_v <= 1`` on every edge.

It is a floating-point solver that gives no certificate, so it lives in the
tests only and checks the exact solver; it never stands in for it.
"""

import pytest

from oddind import generators as gen
from oddind.bounds import random_connected_graph
from oddind.independence import alpha_od, is_odd_independent

np = pytest.importorskip("numpy")
scipy_optimize = pytest.importorskip("scipy.optimize")


def milp_alpha_od(g):
    """(value, chosen vertex mask) of a maximum OIS, by MILP."""
    n = g.n
    x, o, k = 0, n, 2 * n  # column offsets of the three variable blocks
    cap = max(g.degree(v) for v in range(n)) // 2 + 1
    rows, lo, hi = [], [], []

    def add(coeffs, lb, ub):
        row = np.zeros(3 * n)
        for col, c in coeffs:
            row[col] += c
        rows.append(row)
        lo.append(lb)
        hi.append(ub)

    for v in range(n):
        add([(x + u, 1) for u in g.neighbors(v)] + [(k + v, -2), (o + v, -1)], 0, 0)
        add([(k + v, 1), (o + v, -cap)], -np.inf, 0)
        add([(o + v, 1), (x + v, 1)], -np.inf, 1)
    for u, v in g.edges():
        add([(x + u, 1), (x + v, 1)], -np.inf, 1)
    cost = np.zeros(3 * n)
    cost[x:x + n] = -1
    upper = np.array([1] * (2 * n) + [cap] * n)
    res = scipy_optimize.milp(
        cost,
        integrality=np.ones(3 * n),
        bounds=scipy_optimize.Bounds(np.zeros(3 * n), upper),
        constraints=scipy_optimize.LinearConstraint(np.array(rows), lo, hi),
    )
    assert res.success, res.message
    mask = sum(1 << v for v in range(n) if res.x[x + v] > 0.5)
    return round(-res.fun), mask


CASES = {
    "Q6": (lambda: gen.hypercube(6), 24),
    "KG(8,2)": (lambda: gen.kneser(8, 2), 7),
    "G(38,.15) seed 38": (lambda: random_connected_graph(38, 0.15, 38), 11),
}


@pytest.mark.parametrize("name", list(CASES))
def test_milp_oracle_agrees_with_solver(name):
    build, expected = CASES[name]
    g = build()
    value, mask = milp_alpha_od(g)
    assert value == mask.bit_count() == expected
    assert is_odd_independent(g, mask)
    res = alpha_od(g)
    assert res.exact and res.value == expected
    assert is_odd_independent(g, res.witness)
