"""The result record is its witness and its proven interval: ``value`` is
the witness's size, ``exact`` is a closed interval, and every solver's
record obeys ``lower <= value <= upper`` with a numeric upper end."""

import pytest

from oddind import generators as gen
from oddind.coloring import (
    AlphaTooLarge,
    chi_so_alpha2,
    chi_so_exact,
    chromatic_number,
    is_proper_coloring,
    is_strong_odd_coloring,
)
from oddind.enumeration import graphs_upto
from oddind.graphs import VertexSet, disjoint_union
from oddind.independence import (
    alpha,
    alpha_od,
    alpha_od_bounded,
    alpha_od_bruteforce,
    alpha_square,
    is_independent,
    is_odd_independent,
)
from oddind.results import SolveResult

PANEL = [gen.petersen(), gen.hypercube(5), gen.hoffman_singleton(),
         disjoint_union(gen.cycle(5), gen.cycle(30))]


def _records(g, budget):
    """``(name, result, verifier)`` for every solver that applies to ``g``."""
    yield "alpha", alpha(g, budget=budget), is_independent
    yield "alpha_square", alpha_square(g, budget=budget), is_odd_independent
    yield "alpha_od", alpha_od(g, budget=budget), is_odd_independent
    if g.n <= 22:
        yield "alpha_od_bruteforce", alpha_od_bruteforce(g), is_odd_independent
    for k in (1, 2):
        yield f"alpha_od_bounded({k})", alpha_od_bounded(g, k), is_odd_independent
    yield "chi_so_exact", chi_so_exact(g, budget=budget), is_strong_odd_coloring
    yield "chromatic_number", chromatic_number(g, budget=budget), is_proper_coloring
    try:
        yield "chi_so_alpha2", chi_so_alpha2(g), is_strong_odd_coloring
    except AlphaTooLarge:
        pass


@pytest.mark.parametrize("budget", [None, 0, 0.05])
def test_every_record_is_its_witness_and_interval(budget):
    for g in graphs_upto(5) + PANEL:
        for name, res, verify in _records(g, budget):
            w = res.witness
            size = len(w) if isinstance(w, VertexSet) else w.num_colors
            where = (name, g.n, g.adj, budget)
            assert res.value == size, where
            assert isinstance(res.upper, int) and res.lower <= res.value <= res.upper, where
            assert res.exact == (res.lower == res.upper), where
            assert verify(g, w), where
            assert res.to_json()["exact"] == res.exact, where


def test_a_record_outside_its_interval_is_refused():
    w = VertexSet(3, 0b011)
    assert SolveResult(w, "m", 2, 2).exact
    assert not SolveResult(w, "m", 1, 3).exact
    for lower, upper in [(3, 3), (0, 1)]:
        with pytest.raises(AssertionError):
            SolveResult(w, "m", lower, upper)
