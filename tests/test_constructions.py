from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddind import generators as gen
from oddind.constructions import (
    HS_SEEDS,
    BadAutomorphism,
    BadH,
    NotOIS,
    construct_gk2_ois,
    construct_mu_ois,
    cube_layer_ois,
    extend_to_equal,
    flip_last_coordinate,
    hs_15_ois,
    hs_rotation_classes,
    q8_112_ois,
    q8_turan_ois,
)
from oddind.graphs import VertexSet, cartesian_product, from_edge_list
from oddind.independence import (
    alpha,
    alpha_od,
    alpha_od_bruteforce,
    is_odd_independent,
    odd_profile,
)


def test_cube_layer_sizes():
    expected = {k: 2 * sum(comb(4 * k - 1, 2 * i - 1) for i in range(1, k + 1))
                for k in (1, 2, 3)}
    assert expected == {1: 6, 2: 84, 3: 1276}
    for k in (1, 2, 3):
        s = cube_layer_ois(k)
        assert len(s) == expected[k]
        assert is_odd_independent(gen.hypercube(4 * k), s)


def test_q8_recorded_sets():
    q8 = gen.hypercube(8)
    s112 = q8_112_ois()
    assert len(s112) == 112
    assert is_odd_independent(q8, s112)
    s104 = q8_turan_ois()
    assert len(s104) == 104
    assert is_odd_independent(q8, s104)
    # outside triples see 5 or 7 selected neighbors
    prof = odd_profile(q8, s104)
    triples = [v for v in range(256) if v.bit_count() == 3]
    assert set(prof[v] for v in triples) == {5, 7}
    assert all(v not in s104 for v in triples)


def test_hs_15_sets():
    hs = gen.hoffman_singleton()
    for seed in HS_SEEDS:
        s = hs_15_ois(seed)
        assert len(s) == 15
        assert is_odd_independent(hs, s)
    default = hs_15_ois()
    prof = odd_profile(hs, default)
    assert all(prof[v] == 3 for v in range(50) if v not in default)
    with pytest.raises(ValueError):
        hs_15_ois((0, 0, 1))


def test_hs_rotation_classes():
    hs = gen.hoffman_singleton()
    classes = hs_rotation_classes()
    assert len(classes) == 10
    seen = 0
    for c in classes:
        assert is_odd_independent(hs, c)
        assert seen & c.mask == 0
        seen |= c.mask
    assert seen.bit_count() == 40


def test_mu_construction_cube_chain():
    q4, q2 = gen.hypercube(4), gen.hypercube(2)
    s24 = construct_mu_ois(q4, cube_layer_ois(1), flip_last_coordinate(4), q2)
    assert len(s24) == 24
    host = cartesian_product(q4, q2)
    assert host.adj == gen.hypercube(6).adj
    assert is_odd_independent(gen.hypercube(6), s24)
    s96 = construct_mu_ois(gen.hypercube(6), s24, flip_last_coordinate(6), q2)
    assert len(s96) == 96
    assert is_odd_independent(gen.hypercube(8), s96)


def test_mu_construction_rejects_bad_inputs():
    q4 = gen.hypercube(4)
    s6 = cube_layer_ois(1)
    with pytest.raises(BadH):  # star has odd degrees
        construct_mu_ois(q4, s6, flip_last_coordinate(4), gen.star(4))
    with pytest.raises(BadH):  # triangle is not bipartite
        construct_mu_ois(q4, s6, flip_last_coordinate(4), gen.complete(3))
    with pytest.raises(BadAutomorphism):  # identity fixes every vertex
        construct_mu_ois(q4, s6, tuple(range(16)), gen.hypercube(2))
    eta = list(flip_last_coordinate(4))
    eta[0], eta[3] = eta[3], eta[0]  # a permutation that breaks edges
    for bad in (eta, [0] * 16):
        with pytest.raises(BadAutomorphism, match="not an automorphism"):
            construct_mu_ois(q4, s6, bad, gen.hypercube(2))
    # rotation of the pentagon: neighbor images but orbit length 5 is odd
    c5 = gen.cycle(5)
    rot = tuple((v + 1) % 5 for v in range(5))
    with pytest.raises(BadAutomorphism):
        construct_mu_ois(c5, VertexSet.from_ids(5, [0]), rot, gen.hypercube(2))
    with pytest.raises(NotOIS):  # two adjacent vertices are no seed
        construct_mu_ois(q4, VertexSet.from_ids(16, [0, 1]),
                         flip_last_coordinate(4), gen.hypercube(2))


def test_gk2_construction():
    c4 = gen.cycle(4)
    doubled = cartesian_product(c4, gen.complete(2))
    res = alpha_od(doubled)
    assert res.value == 4
    s0 = VertexSet.from_ids(4, [u for u in range(4) if (2 * u) in res.witness])
    s1 = VertexSet.from_ids(4, [u for u in range(4) if (2 * u + 1) in res.witness])
    if len(s0) < len(s1):
        s0, s1 = s1, s0
    out = construct_gk2_ois(c4, (s0, s1), gen.complete(2))
    assert len(out) == 4
    # all-odd-degree bipartite pattern: the 4-vertex star
    out = construct_gk2_ois(c4, (s0, s1), gen.star(4))
    assert len(out) >= 2 * res.value
    assert is_odd_independent(cartesian_product(c4, gen.star(4)), out)
    with pytest.raises(BadH):  # 4-cycle pattern has even degrees
        construct_gk2_ois(c4, (s0, s1), gen.cycle(4))


def test_gk2_on_k2():
    k2 = gen.complete(2)
    res = alpha_od(cartesian_product(k2, k2))  # the 4-cycle
    assert res.value == 1
    s0 = VertexSet.from_ids(2, [u for u in range(2) if (2 * u) in res.witness])
    s1 = VertexSet.from_ids(2, [u for u in range(2) if (2 * u + 1) in res.witness])
    if len(s0) < len(s1):
        s0, s1 = s1, s0
    out = construct_gk2_ois(k2, (s0, s1), k2)
    assert len(out) == 1


def test_extend_to_equal_examples():
    h = extend_to_equal(gen.cycle(4))
    assert h.n == 5
    assert alpha_od_bruteforce(h).value == alpha(h).value == 3
    k5 = gen.complete(5)
    h = extend_to_equal(k5)
    assert h.edge_count() == k5.edge_count()  # new vertex is isolated
    assert alpha_od_bruteforce(h).value == 2


@given(st.integers(1, 4), st.integers(2, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_mu_construction_random_instances(n, m, data):
    # graphs of the form h0 box K_2 always admit the copy-swap automorphism
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    h0 = from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    g = cartesian_product(h0, gen.complete(2))
    eta = tuple(v ^ 1 for v in range(g.n))
    s = alpha_od_bruteforce(g).witness
    h = gen.cycle(2 * m)  # bipartite, all degrees even
    out = construct_mu_ois(g, s, eta, h)
    assert len(out) == h.n * len(s)
    assert is_odd_independent(cartesian_product(g, h), out)


@given(st.integers(1, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_extend_to_equal_random(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    g = from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    h = extend_to_equal(g)
    assert h.n == g.n + 1
    target = alpha(g).value + 1
    assert alpha(h).value == target
    assert alpha_od_bruteforce(h).value == target
