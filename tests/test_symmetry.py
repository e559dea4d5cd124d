"""Proved automorphisms and the root orbit cut of the OIS search.

Every generator must pass ``is_automorphism`` against the adjacency rows,
and the cut is checked against brute force on every graph with at most 8
vertices, with the search started from nothing so that the lazy trigger
fires.
"""

import pytest

from oddind import generators as gen
from oddind.bounds import random_connected_graph
from oddind.enumeration import graphs_upto
from oddind.graphs import square
from oddind.independence import _ois_search, alpha_od, alpha_od_bruteforce, is_odd_independent
from oddind.results import Deadline
from oddind.symmetry import equitable, find_automorphism, is_automorphism, orbits

PANEL = {
    "q6": (gen.hypercube(6), 1),
    "kg8_2": (gen.kneser(8, 2), 1),
    "moore50": (gen.hoffman_singleton(), 1),
    "sk6": (gen.complete_subdivision(6), 2),  # branch vertices and subdivision vertices
    "rc38": (random_connected_graph(38, 0.15, 38), 38),  # no symmetry
}


@pytest.mark.parametrize("name", sorted(PANEL))
def test_orbit_counts_and_generators(name):
    g, count = PANEL[name]
    least, gens = orbits(g.adj)
    assert len(set(least)) == count
    assert all(least[v] <= v and least[least[v]] == least[v] for v in range(g.n))
    for perm in gens:
        assert is_automorphism(g.adj, perm)
        assert all(least[perm[v]] == least[v] for v in range(g.n))
    assert (not gens) == (count == g.n)


def test_tampered_permutation_is_rejected():
    g = gen.hypercube(6)
    perm = find_automorphism(g.adj, 0, 5)
    assert perm is not None and perm[0] == 5 and is_automorphism(g.adj, perm)
    bad = list(perm)
    bad[0], bad[1] = bad[1], bad[0]  # two images swapped
    assert not is_automorphism(g.adj, bad)
    assert not is_automorphism(g.adj, perm[:-1])  # not a permutation of all vertices
    assert not is_automorphism(g.adj, [0] * g.n)


def test_no_automorphism_across_orbits():
    g = gen.complete_subdivision(6)
    # vertex 0 has degree 5, a subdivision vertex degree 2
    sub = next(v for v in range(g.n) if g.degree(v) == 2)
    assert find_automorphism(g.adj, 0, sub) is None
    cells, cell_of = equitable(g.adj)
    assert cell_of[0] != cell_of[sub] and len(cells) == 2


def test_expired_deadline_leaves_a_subgroup():
    g = gen.hypercube(6)
    least, gens = orbits(g.adj, Deadline(0))
    assert least == list(range(g.n)) and gens == []


def test_node_pins():
    # the orbit cut enters one root branch of the vertex-transitive 6-cube;
    # rc38 has a trivial group, so its search is the plain one
    q6 = alpha_od(gen.hypercube(6))
    assert q6.exact and q6.value == 24 and q6.nodes <= 100_000
    assert "1 orbit(s)" in q6.note
    rc = alpha_od(random_connected_graph(38, 0.15, 38))
    assert rc.exact and rc.value == 11 and rc.nodes == 4553


@pytest.mark.slow
def test_root_orbit_cut_matches_brute_force_to_order_8():
    fired = 0
    for g in graphs_upto(8):
        if not g.edge_count():
            continue
        # no seed and upper = n: the search runs, and reaches a second root branch
        search = _ois_search(g, square(g), Deadline(None), 0, g.n)
        search.run()
        assert search.best == alpha_od_bruteforce(g).value
        assert is_odd_independent(g, search.best_mask)
        assert search.best_mask.bit_count() == search.best
        fired += search.skipped > 0
    assert fired > 0
