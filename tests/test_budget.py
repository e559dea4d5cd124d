"""The budget is a contract: a budget-limited solve returns within its
budget plus a small slack, with a re-verified witness and a sound interval.

Both inputs used to overrun a 1 s budget by well over a second: the chi-so
candidate walk and its per-pivot sort ran with no deadline check, and
``alpha_od`` paid for exact girth and diameter and for bit-by-bit
relabelling of dense complement rows before its first check.
"""

import json
import time

import pytest

from oddind import generators as gen
from oddind.cli import main
from oddind.coloring import chi_so_exact, is_strong_odd_coloring
from oddind.formats import to_graph6
from oddind.graphs import cartesian_product, disjoint_union
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
    # the greedy square set (64) is kept when alpha(square) times out below it
    assert res.lower >= 64


@pytest.mark.parametrize("name", ["c5c5c5", "q8"])
def test_alpha_od_frontier_within_budget(name):
    # open frontier graphs, where the search's parity systems are largest
    # per node: the deadline check is weighted by that work
    g = _c5_cubed() if name == "c5c5c5" else gen.hypercube(8)
    res, took = _timed(lambda: alpha_od(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_odd_independent(g, res.witness)
    assert len(res.witness) == res.value
    assert res.lower <= res.value <= res.upper


def test_alpha_od_line_graph_k40_within_budget():
    # 780 vertices: the claw test settles each vertex by two cliques, so the
    # claw-free rung closes it at 1 within the budget (the square is complete)
    g = gen.line_graph(gen.complete(40))
    res, took = _timed(lambda: alpha_od(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_odd_independent(g, res.witness)
    assert len(res.witness) == res.value
    assert res.exact and res.value == 1


def _c5_cubed():
    c5 = gen.cycle(5)
    return cartesian_product(cartesian_product(c5, c5), c5)


@pytest.mark.parametrize("name", ["q10", "c5c5c5"])
def test_alpha_od_spent_budget_does_no_fixed_work(name):
    # a spent budget used to build the square and run both alpha solves to
    # their first deadline check: 0.3-0.5 s on Q10, 0.1-0.2 s on C5^3.  Now
    # only the greedy rung runs: the square's rows, unchecked, and one
    # greedy pass, with no clique solve and no search
    g = gen.hypercube(10) if name == "q10" else _c5_cubed()
    res, took = _timed(lambda: alpha_od(g, budget=0))
    assert took <= SLACK, took
    assert res.nodes == 0  # no search ran
    assert is_odd_independent(g, res.witness)
    assert len(res.witness) == res.value == res.lower
    assert not res.exact and res.lower <= res.upper
    # sound: the square seeds of an unhurried solve are OISs of these sizes
    assert res.upper >= {"q10": 264, "c5c5c5": 13}[name]


def test_chi_so_fallback_within_budget():
    # 125 vertices: the cover gives up at once, and the fallback coloring's
    # alpha(square) seed used to run for up to 10 s whatever the budget
    g = _c5_cubed()
    res, took = _timed(lambda: chi_so_exact(g, budget=2))
    assert took <= 2 + SLACK, took
    assert not res.exact and res.lower <= res.upper
    assert is_strong_odd_coloring(g, res.witness)


def test_chi_so_spent_budget_keeps_the_structural_lower_end():
    # the seed's square is built only while time is left; Q10 has even
    # degrees, so no 2-colouring is strong odd whatever the budget
    g = gen.hypercube(10)
    res, took = _timed(lambda: chi_so_exact(g, budget=0))
    assert took <= SLACK, took
    assert not res.exact and 3 <= res.lower <= res.upper
    assert is_strong_odd_coloring(g, res.witness)


def test_chi_so_star_4095_spent_budget():
    # the fallback reads alpha_od's greedy rung: square(star(4095)) is
    # K_4095, whose edge-by-edge symmetry check alone took about 11 s
    g = gen.star(4095)
    res, took = _timed(lambda: chi_so_exact(g, budget=0))
    assert took <= SLACK, took
    assert res.exact and res.value == 3
    assert is_strong_odd_coloring(g, res.witness) and res.witness.num_colors == 3


@pytest.mark.parametrize("solver", ["alpha_od", "chi_so_exact"])
def test_complete_2000_within_budget(solver):
    # the greedy clique stops at a vertex and all its neighbours, and the
    # common-neighbour floor 2d - n is met on the first edge: chi_so_exact
    # took 3.7 s and alpha_od 1.4 s, scanning all 2,000 vertices and
    # 1,999,000 edges
    g = gen.complete(2000)
    fn, want = (alpha_od, 1) if solver == "alpha_od" else (chi_so_exact, 2000)
    res, took = _timed(lambda: fn(g, budget=1))
    assert took <= 1 + SLACK, took
    assert res.exact and res.value == want


def test_components_share_the_budget():
    # each copy of Q8 gets half of what is left, and what the first does not
    # spend rolls over: the second copy used to get only its greedy rung (16)
    q8 = gen.hypercube(8)
    g = disjoint_union(q8, q8)
    res, took = _timed(lambda: alpha_od(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_odd_independent(g, res.witness) and res.lower <= res.upper
    low = (1 << q8.n) - 1
    assert (res.witness.mask & low).bit_count() >= 84  # Q8 reaches 84 within 0.05 s
    assert (res.witness.mask >> q8.n).bit_count() >= 84
    res, took = _timed(lambda: chi_so_exact(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_strong_odd_coloring(g, res.witness) and res.upper <= 256 - 84 + 1


def test_small_components_pass_their_share_on():
    # the components go smallest first: 255 isolated vertices spend nothing,
    # so Q8 gets the whole budget; in vertex order a share by count left Q8
    # 1/256 of it, and only its greedy rung (18)
    q8 = gen.hypercube(8)
    g = disjoint_union(q8, gen.empty(255))
    res, took = _timed(lambda: alpha_od(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_odd_independent(g, res.witness) and res.lower <= res.upper
    assert (res.witness.mask & ((1 << q8.n) - 1)).bit_count() >= 84
    res, took = _timed(lambda: chi_so_exact(g, budget=1))
    assert took <= 1 + SLACK, took
    assert is_strong_odd_coloring(g, res.witness) and res.upper <= 256 - 84 + 1


def test_cli_bounds_share_one_budget(tmp_path, capsys):
    # alpha_od, chi_so_exact and bound_report's alpha(square) used to take
    # the whole budget each
    path = tmp_path / "c5c5c5.g6"
    path.write_text(to_graph6(_c5_cubed()) + "\n", encoding="ascii")
    code, took = _timed(lambda: main(["bounds", str(path), "--budget", "2", "--json"]))
    assert took <= 2 + SLACK, took
    assert code == 3  # the solves only reach intervals
    report = json.loads(capsys.readouterr().out)
    assert all(e["satisfied"] for e in report["entries"])
