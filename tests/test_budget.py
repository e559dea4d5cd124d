"""The budget is a contract: a budget-limited solve returns within its
budget plus a small slack, with a re-verified witness and a sound interval.

Both inputs used to overrun a 1 s budget by well over a second: the chi-so
candidate walk and its per-pivot sort ran with no deadline check, and
``alpha_od`` paid for exact girth and diameter and for bit-by-bit
relabelling of dense complement rows before its first check.
"""

import time

from oddind import generators as gen
from oddind.coloring import chi_so_exact, is_strong_odd_coloring
from oddind.independence import alpha_od, is_odd_independent

SLACK = 0.5


def _timed(fn):
    start = time.monotonic()
    res = fn()
    return res, time.monotonic() - start


def test_chi_so_star_within_budget():
    g = gen.star(21)  # 20 leaves: the centre would see an even count, so chi_so = 3
    res, took = _timed(lambda: chi_so_exact(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_strong_odd_coloring(g, res.witness)
    assert len(set(res.witness.colors)) == res.value
    assert res.lower <= 3 <= res.upper


def test_alpha_od_q10_within_budget():
    g = gen.hypercube(10)
    res, took = _timed(lambda: alpha_od(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_odd_independent(g, res.witness)
    assert len(res.witness) == res.value
    assert res.lower <= res.value <= res.upper
