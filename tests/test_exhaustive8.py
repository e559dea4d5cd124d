"""Full 8-vertex sweep: the exact solver against brute force, and the order
relations between the parameters."""

import pytest

from oddind.coloring import chi_so_exact, chi_square
from oddind.enumeration import all_graphs
from oddind.graphs import _is_claw_free, square
from oddind.independence import alpha, alpha_od, alpha_od_bruteforce, is_odd_independent


@pytest.mark.slow
def test_sandwich_and_chain_on_all_8_vertex_graphs():
    sandwich_bad = []
    chain_bad = []
    for g in all_graphs(8):
        sq = square(g)
        a = alpha(g).value
        asq = alpha(sq).value
        aod = alpha_od(g)
        assert aod.exact
        assert aod.value == alpha_od_bruteforce(g).value
        assert is_odd_independent(g, aod.witness)
        assert aod.witness.mask.bit_count() == aod.value
        if not asq <= aod.value <= a:
            sandwich_bad.append(g)
        cso = chi_so_exact(g).value
        csq = chi_square(g).value
        dsq = max(sq.degree(v) for v in range(8))
        delta = max(g.degree(v) for v in range(8))
        if not cso <= csq <= dsq + 1 <= delta * delta + 1:
            chain_bad.append(g)
    assert not sandwich_bad
    assert not chain_bad


@pytest.mark.slow
def test_claw_free_rung_on_all_8_vertex_claw_free_graphs():
    # alpha_od = alpha(G^2) on a claw-free graph (the paper's theorem), and
    # the solver reads alpha(G^2) as its upper end there
    count = 0
    for g in all_graphs(8):
        if not _is_claw_free(g):
            continue
        count += 1
        res = alpha_od(g)
        assert res.exact and is_odd_independent(g, res.witness), g.adj
        assert len(res.witness) == res.value == alpha_od_bruteforce(g).value, g.adj
        assert res.value == alpha(square(g)).value, g.adj
    assert count == 1285
