import time
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from oddind import generators as gen
from oddind.enumeration import are_isomorphic
from oddind.graphs import (
    BadParam,
    TooLarge,
    _bipartition,
    _is_claw_free,
    cartesian_product,
    diameter,
    disjoint_union,
    is_triangle_free,
    join,
    subdivide_all_edges,
    t_copies,
)


def _nx(g):
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


def test_basic_families():
    assert gen.cycle(5).degree_sequence() == (2,) * 5
    assert nx.girth(_nx(gen.cycle(5))) == 5
    km = gen.complete_multipartite([3, 3, 3])
    assert km.n == 9 and all(km.degree(v) == 6 for v in range(9))
    s = gen.star(6)
    assert s.degree(0) == 5 and s.edge_count() == 5
    with pytest.raises(BadParam):
        gen.cycle(2)
    with pytest.raises(BadParam):
        gen.path(0)


def test_hypercube_labeling():
    q = gen.hypercube(4)
    assert q.neighbors(0b0101) == (0b0001, 0b0100, 0b0111, 0b1101)  # id i is string i
    for u in range(16):
        for v in range(u + 1, 16):
            assert q.has_edge(u, v) == ((u ^ v).bit_count() == 1)
    assert gen.hypercube(0).n == 1
    q3 = gen.hypercube(3)
    assert _bipartition(q3) is not None and q3.degree_sequence() == (3,) * 8
    with pytest.raises(BadParam):
        gen.hypercube(13)


def test_kneser():
    pg = gen.kneser(5, 2)
    assert are_isomorphic(pg, gen.petersen())
    # ids follow the colexicographic order of the 2-subsets: 0 is {0,1}
    subsets = sorted((1 << a) | (1 << b) for a, b in combinations(range(5), 2))
    assert subsets[0] == 0b11
    assert all(pg.has_edge(i, j) == (subsets[i] & subsets[j] == 0)
               for i in range(10) for j in range(10) if i != j)
    k62 = gen.kneser(6, 2)
    assert k62.n == 15 and all(k62.degree(v) == comb(4, 2) for v in range(15))
    # KG(2k, k) is a perfect matching
    for k in (2, 3):
        m = gen.kneser(2 * k, k)
        assert all(m.degree(v) == 1 for v in range(m.n))
    with pytest.raises(BadParam):
        gen.kneser(3, 2)


def test_petersen():
    g = gen.petersen()
    assert g.n == 10 and set(g.degree_sequence()) == {3} and nx.girth(_nx(g)) == 5


def test_hoffman_singleton_table():
    g = gen.hoffman_singleton()
    assert g.neighbors(0) == (1, 4, 13, 16, 26, 43, 49)
    # the +10 rotation is an automorphism: row of 10 is row of 0 shifted
    assert g.neighbors(10) == tuple(sorted((x + 10) % 50 for x in g.neighbors(0)))
    for v in range(50):
        shifted = {(x + 10) % 50 for x in g.neighbors(v)}
        assert set(g.neighbors((v + 10) % 50)) == shifted
    assert g.edge_count() == 175
    assert nx.girth(_nx(g)) == 5 and diameter(g) == 2 and set(g.degree_sequence()) == {7}


def test_half_graph():
    g = gen.half_graph(3)
    assert g.degree(0) == 3  # u_1 sees every v_j
    assert g.degree(3) == 1  # v_1 sees only u_1
    for n in (1, 2, 4):
        h = gen.half_graph(n)
        assert h.edge_count() == n * (n + 1) // 2
        assert _bipartition(h) is not None
    assert are_isomorphic(gen.half_graph(1), gen.complete(2))


def test_complete_subdivision():
    assert are_isomorphic(gen.complete_subdivision(2), gen.path(3))
    assert are_isomorphic(gen.complete_subdivision(3), gen.cycle(6))
    s4 = gen.complete_subdivision(4)
    assert s4.n == 10
    assert all(s4.degree(v) == 3 for v in range(4))
    assert all(s4.degree(v) == 2 for v in range(4, 10))
    assert gen.complete_subdivision(5).n == 15


def test_regular_tight():
    for t in (1, 2, 3, 5):
        g = gen.regular_tight(2, t)
        # connected 2-regular on 3t vertices is the 3t-cycle
        assert g.n == 3 * t and g.is_connected()
        assert all(g.degree(v) == 2 for v in range(g.n))
    g = gen.regular_tight(4, 2)
    assert g.n == 14 and all(g.degree(v) == 4 for v in range(14))
    gb = gen.regular_tight(4, 2, bipartite=True)
    assert _bipartition(gb) is not None
    with pytest.raises(BadParam):
        gen.regular_tight(3, 2)
    with pytest.raises(BadParam):
        gen.regular_tight(4, 3, bipartite=True)


def test_feasible_combo_shapes():
    assert are_isomorphic(gen.feasible_combo(4, 2, "IV"), gen.path(4))
    g = gen.feasible_combo(9, 3, "III")
    assert g.n == 9 and all(g.degree(v) == 6 for v in range(9))
    g = gen.feasible_combo(10, 3, "II")
    assert g.is_connected()
    with pytest.raises(BadParam):
        gen.feasible_combo(10, 4, "II")
    with pytest.raises(BadParam):
        gen.feasible_combo(10, 9, "IV")


def test_trianglefree_diam():
    from oddind.graphs import complement

    g = gen.trianglefree_diam("matching-deleted", 3, 2, 1)
    assert is_triangle_free(g)
    assert diameter(g) == 3 and diameter(complement(g)) == 3
    g = gen.trianglefree_diam("subdivided-matching", 3, 2, 1)
    assert is_triangle_free(g)
    assert diameter(g) == 2 and diameter(complement(g)) == 2
    g = gen.trianglefree_diam("box-k2", gen.cycle(5))
    assert is_triangle_free(g)
    assert diameter(g) == 3 and diameter(complement(g)) == 2
    with pytest.raises(BadParam):
        gen.trianglefree_diam("box-k2", gen.complete(3))
    with pytest.raises(BadParam):
        gen.trianglefree_diam("matching-deleted", 3, 2, 2)


def test_line_graph():
    assert are_isomorphic(gen.line_graph(gen.complete(3)), gen.complete(3))
    assert are_isomorphic(gen.line_graph(gen.path(4)), gen.path(3))
    assert _is_claw_free(gen.line_graph(gen.petersen()))


def test_parse_family():
    assert gen.parse_family("kneser 5 2") == gen.kneser(5, 2)
    assert gen.parse_family("petersen") == gen.petersen()
    q6 = gen.parse_family("mu-product [hypercube 4] [hypercube 2]")
    assert q6 == cartesian_product(gen.hypercube(4), gen.hypercube(2))
    g = gen.parse_family("complement [cycle 5]")
    assert are_isomorphic(g, gen.cycle(5))
    g = gen.parse_family("trianglefree-diam box-k2 [cycle 5]")
    assert g.n == 10
    g = gen.parse_family("complete-multipartite 3 3 3")
    assert g.n == 9
    with pytest.raises(BadParam):
        gen.parse_family("kneser 5")
    with pytest.raises(BadParam):
        gen.parse_family("unknown-family 3")
    with pytest.raises(BadParam):
        gen.parse_family("mu-product [path 3] [path")


# far over MAX_VERTICES: building any of these first would take gigabytes
# (cycle(10**6) alone peaked near 150 MB, KG(30,15) has C(30,15) vertices)
_OVER_CAP = {
    "path": lambda: gen.path(10**9),
    "cycle": lambda: gen.cycle(10**9),
    "complete": lambda: gen.complete(10**9),
    "empty": lambda: gen.empty(10**9),
    "star": lambda: gen.star(10**9),
    "complete-bipartite": lambda: gen.complete_bipartite(10**6, 10**6),
    "complete-multipartite": lambda: gen.complete_multipartite([10**6] * 4),
    "half-graph": lambda: gen.half_graph(10**6),
    "kneser": lambda: gen.kneser(30, 15),
    "kneser-wide": lambda: gen.kneser(10**6, 5 * 10**5),
    "complete-subdivision": lambda: gen.complete_subdivision(10**5),
    "kbox": lambda: gen.kbox(4096, 4096),
    "regular-tight": lambda: gen.regular_tight(10**6, 10**6),
    "feasible-combo": lambda: gen.feasible_combo(10**9, 2, "IV"),
    "matching-deleted": lambda: gen.trianglefree_diam("matching-deleted", 10**6, 10**6, 1),
    "subdivided-matching": lambda: gen.trianglefree_diam("subdivided-matching", 10**6, 10**6, 1),
    # derived graphs: the order is known before the rows are built
    "line-graph": lambda: gen.line_graph(gen.complete(100)),
    "subdivision": lambda: subdivide_all_edges(gen.complete(100)),
    "copies": lambda: t_copies(gen.complete(64), 65),
    "union": lambda: disjoint_union(gen.empty(4096), gen.empty(1)),
    "join": lambda: join(gen.empty(1), gen.empty(4096)),
    "copies-wide": lambda: t_copies(gen.path(2), 10**9),
}


@pytest.mark.parametrize("name", sorted(_OVER_CAP))
def test_over_cap_raises_before_building(name):
    start = time.monotonic()
    with pytest.raises(TooLarge):
        _OVER_CAP[name]()
    assert time.monotonic() - start < 0.1
