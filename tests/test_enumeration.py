import networkx as nx
import pytest

from oddind import generators as gen
from oddind.enumeration import (
    all_graphs,
    are_isomorphic,
    connected_cubic_graphs,
    invariant,
    triangle_free_graphs,
)
from oddind.graphs import from_edge_list, is_triangle_free, t_copies


def test_counts_match_atlas():
    # networkx ships the complete atlas of graphs with up to 7 vertices
    atlas = nx.graph_atlas_g()
    per_n = {}
    for g in atlas[1:]:  # skip the 0-vertex placeholder
        per_n[g.number_of_nodes()] = per_n.get(g.number_of_nodes(), 0) + 1
    for n in range(1, 8):
        assert len(all_graphs(n)) == per_n[n], n


def test_pairwise_non_isomorphic_sample():
    for n in (4, 5):
        graphs = all_graphs(n)
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not are_isomorphic(g, h)


def test_triangle_free_counts():
    expected = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410}
    for n, count in expected.items():
        assert len(triangle_free_graphs(n)) == count
        assert all(is_triangle_free(g) for g in triangle_free_graphs(n))


def test_isomorphism_checks():
    assert are_isomorphic(gen.kneser(5, 2), gen.petersen())
    assert not are_isomorphic(gen.cycle(6), t_copies(gen.cycle(3), 2))
    assert not are_isomorphic(gen.path(4), gen.star(4))
    # same degree sequence, different graphs
    a = gen.cycle(6)
    b = t_copies(gen.cycle(3), 2)
    assert a.degree_sequence() == b.degree_sequence()
    assert invariant(a) != invariant(b)


def test_connected_cubic_graphs():
    assert len(connected_cubic_graphs(4)) == 1  # the complete graph
    assert len(connected_cubic_graphs(6)) == 2
    assert len(connected_cubic_graphs(8)) == 5


def test_invariant_is_isomorphism_invariant():
    g = gen.petersen()
    # relabel by a nontrivial permutation and compare
    perm = [3, 1, 4, 0, 5, 9, 2, 6, 8, 7]
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    h = from_edge_list(10, edges)
    assert invariant(g) == invariant(h)
    assert are_isomorphic(g, h)
