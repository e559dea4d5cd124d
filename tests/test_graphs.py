import random
from math import inf

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddind import generators as gen
from oddind.formats import parse_graph6, to_graph6
from oddind.graphs import (
    BadParam,
    Graph,
    IndexOutOfRange,
    SelfLoop,
    VertexSet,
    cartesian_product,
    complement,
    disjoint_union,
    _bipartition,
    _is_claw_free,
    from_edge_list,
    diameter,
    girth_at_least_5,
    join,
    square,
    subdivide_all_edges,
    t_copies,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
    return from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_from_edge_list_basics():
    k1 = from_edge_list(1, [])
    assert k1.n == 1 and k1.edge_count() == 0
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert sorted(p3.degree(v) for v in range(3)) == [1, 1, 2]
    assert p3.degree(1) == 2
    dup = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert dup.edge_count() == 1


def test_from_edge_list_errors():
    with pytest.raises(IndexOutOfRange):
        from_edge_list(2, [(0, 2)])
    with pytest.raises(SelfLoop):
        from_edge_list(2, [(1, 1)])


def test_vertex_set():
    s = VertexSet.from_ids(6, [0, 3, 5])
    assert len(s) == 3 and 3 in s and 1 not in s
    assert s.ids() == (0, 3, 5)
    with pytest.raises(IndexOutOfRange):
        VertexSet.from_ids(3, [3])


def test_complement_examples():
    assert complement(gen.complete(5)).edge_count() == 0
    c5 = gen.cycle(5)
    cc = complement(c5)
    assert cc.degree_sequence() == c5.degree_sequence()  # self-complementary
    from oddind.enumeration import are_isomorphic

    assert are_isomorphic(cc, c5)


def test_square_by_distance_oracle():
    # oracle: all-pairs BFS distances, then distance <= 2
    for g in (gen.path(5), gen.petersen(), gen.kbox(3, 4)):
        sq = square(g)
        for v in range(g.n):
            dist = g.bfs_levels(v)
            for u in range(g.n):
                if u != v:
                    assert sq.has_edge(u, v) == (0 < dist[u] <= 2 if dist[u] != -1 else False)
    assert square(gen.petersen()).edge_count() == 45  # complete


def _families():
    families = [gen.empty(0), gen.empty(4), gen.path(7), gen.cycle(9), gen.complete(6),
                gen.star(12), gen.complete_bipartite(3, 5), gen.complete_multipartite([1, 2, 3]),
                gen.hypercube(5), gen.kneser(7, 2), gen.petersen(), gen.hoffman_singleton(),
                gen.half_graph(5), gen.complete_subdivision(5), gen.kbox(3, 4),
                gen.line_graph(gen.petersen()), from_edge_list(6, [(0, 1), (1, 2), (3, 4)])]
    rng = random.Random(2024)
    for _ in range(40):
        n, p = rng.randint(1, 40), rng.choice((0.05, 0.15, 0.5, 0.9))
        families.append(from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < p]))
    return families


def _passes_the_checks(h):
    # the public constructor accepts the rows and builds an equal graph,
    # with an equal hash
    checked = Graph(h.n, h.adj)
    return checked == h and hash(checked) == hash(h) and isinstance(h.adj, tuple)


def test_square_passes_the_checks_it_skips():
    for g in _families():
        assert _passes_the_checks(square(g)), g.adj


_UNCHECKED = {
    "complement": complement,
    "union-left": lambda g: disjoint_union(g, gen.path(3)),
    "union-right": lambda g: disjoint_union(gen.star(4), g),
    "join-left": lambda g: join(g, gen.cycle(4)),
    "join-right": lambda g: join(gen.empty(3), g),
    "copies": lambda g: t_copies(g, 3),
    "product-left": lambda g: cartesian_product(g, gen.path(3)),
    "product-right": lambda g: cartesian_product(gen.complete(2), g),
    "line-graph": gen.line_graph,
    "subdivision": subdivide_all_edges,
    "edge-list": lambda g: from_edge_list(g.n, g.edges()),
    "graph6": lambda g: parse_graph6(to_graph6(g)),
}


@pytest.mark.parametrize("name", sorted(_UNCHECKED))
def test_unchecked_constructor_passes_the_checks_it_skips(name):
    # every constructor built on Graph._derived, on every family: with the
    # family list this also covers the generators' own rows
    for g in _families():
        h = _UNCHECKED[name](g)
        assert _passes_the_checks(h), (name, g.adj)
        if name in ("edge-list", "graph6"):
            assert h == g  # the round trips


def test_induced_passes_the_checks_it_skips():
    # oracle for the unchecked constructor: the public one accepts every
    # component and every proper vertex subset and builds an equal graph,
    # with an equal hash
    rng = random.Random(2024)
    for g in _families():
        masks = list(g.component_masks()) + [rng.getrandbits(g.n) for _ in range(3)]
        for mask in masks:
            h, keep = g.induced(mask)
            assert _passes_the_checks(h), (g.adj, mask)
            assert list(keep) == [v for v in range(g.n) if mask >> v & 1]


def test_square_p5_index_rule():
    sq = square(gen.path(5))
    for i in range(5):
        for j in range(i + 1, 5):
            assert sq.has_edge(i, j) == (j - i <= 2)


def test_cartesian_product_shape():
    q3 = cartesian_product(gen.hypercube(2), gen.complete(2))
    from oddind.enumeration import are_isomorphic

    assert are_isomorphic(q3, gen.hypercube(3))
    k33 = cartesian_product(gen.complete(3), gen.complete(3))
    assert k33.n == 9 and all(k33.degree(v) == 4 for v in range(9))


def test_join_and_union_and_copies():
    g = t_copies(gen.complete(2), 4)
    assert g.n == 8 and g.edge_count() == 4
    split = join(gen.complete(3), gen.empty(2))
    assert split.n == 5 and split.edge_count() == 3 + 6
    u = disjoint_union(gen.cycle(3), gen.cycle(4))
    assert u.n == 7 and u.edge_count() == 7 and not u.is_connected()


def test_subdivision_counts():
    s = subdivide_all_edges(gen.complete(4))
    assert s.n == 10
    assert sorted(s.degree(v) for v in range(s.n)) == [2] * 6 + [3] * 4


def _nx(g):
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


def test_metrics_named():
    # exact girth from networkx, an independent oracle
    p = gen.petersen()
    assert (nx.girth(_nx(p)), diameter(p), set(p.degree_sequence())) == (5, 2, {3})
    hs = gen.hoffman_singleton()
    assert (nx.girth(_nx(hs)), diameter(hs), set(hs.degree_sequence())) == (5, 2, {7})
    assert girth_at_least_5(p) and girth_at_least_5(hs)
    e3 = gen.empty(3)
    assert nx.girth(_nx(e3)) == inf and diameter(e3) == inf
    k23 = gen.complete_bipartite(2, 3)
    assert (nx.girth(_nx(k23)), diameter(k23)) == (4, 2) and not girth_at_least_5(k23)
    a, b = _bipartition(k23)
    assert a.bit_count() + b.bit_count() == 5 and a & b == 0


def _structure_panel():
    from oddind.enumeration import all_graphs

    for n in range(1, 8):
        yield from all_graphs(n)
    yield gen.petersen()
    yield gen.hoffman_singleton()
    yield gen.complete_subdivision(6)
    for d in range(3, 7):
        yield gen.hypercube(d)
    for n in range(3, 10):
        yield gen.cycle(n)
    yield disjoint_union(gen.star(5), disjoint_union(gen.path(7), gen.empty(2)))


def _is_bipartition(g, a, b):
    return a | b == g.full_mask and a & b == 0 and all(
        (a >> u & 1) != (a >> v & 1) for u, v in g.edges())


def test_girth5_and_bipartition_agree_with_metrics():
    # against networkx's exact girth and bipartiteness test
    count = 0
    for g in _structure_panel():
        h = _nx(g)
        assert girth_at_least_5(g) == (nx.girth(h) >= 5), g.adj
        parts = _bipartition(g)
        assert (parts is not None) == nx.is_bipartite(h), g.adj
        if parts is not None:
            assert _is_bipartition(g, *parts), g.adj
        count += 1
    assert count == 1252 + 3 + 4 + 7 + 1


def test_claw_detection():
    assert not _is_claw_free(gen.star(4))
    assert _is_claw_free(gen.kbox(3, 3))
    assert _is_claw_free(gen.line_graph(gen.petersen()))
    assert not _is_claw_free(gen.petersen())


def _claw_free_by_triples(g):
    for v in range(g.n):
        nbrs = [x for x in range(g.n) if g.adj[v] >> x & 1]
        for i, x in enumerate(nbrs):
            for j, y in enumerate(nbrs[i + 1:], i + 1):
                for z in nbrs[j + 1:]:
                    if not (g.adj[x] >> y & 1 or g.adj[x] >> z & 1 or g.adj[y] >> z & 1):
                        return False
    return True


def test_claw_free_matches_triple_loop():
    # the clique-skipping test against every triple of neighbors
    from oddind.enumeration import graphs_upto

    rng = random.Random(20261019)
    panel = list(graphs_upto(7))
    for _ in range(3000):
        n, p = rng.randint(0, 16), rng.random()
        panel.append(from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                        if rng.random() < p]))
    panel += [gen.line_graph(h) for h in (gen.complete(12), gen.petersen(), gen.hypercube(4),
                                          gen.kneser(7, 2))]
    free = 0
    for g in panel:
        want = _claw_free_by_triples(g)
        assert _is_claw_free(g) == want, g.adj
        free += want
    assert 0 < free < len(panel)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g
    for v in range(g.n):
        assert complement(g).degree(v) == g.n - 1 - g.degree(v)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_square_contains_graph(g):
    sq = square(g)
    for u, v in g.edges():
        assert sq.has_edge(u, v)


@given(graphs(max_n=5), graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_product_degree_law(g, h):
    prod = cartesian_product(g, h)
    for u in range(g.n):
        for w in range(h.n):
            assert prod.degree(u * h.n + w) == g.degree(u) + h.degree(w)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_metrics_consistency(g):
    comps = len(g.component_masks())
    assert (diameter(g) == inf) == (comps > 1 and g.n > 1)
    parts = _bipartition(g)
    if parts is not None:
        assert _is_bipartition(g, *parts)


def test_rejects_oversized():
    with pytest.raises(Exception):
        from_edge_list(5000, [])


def test_induced_subgraph():
    g = gen.cycle(6)
    sub, keep = g.induced(0b000111)
    assert keep == (0, 1, 2) and sub.edge_count() == 2
    # the whole vertex set: the graph itself, no rebuild
    whole, keep = g.induced(g.full_mask)
    assert whole is g and keep == tuple(range(6))
