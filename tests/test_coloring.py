import random
import sys
from functools import lru_cache, reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddind import generators as gen
from oddind import independence
from oddind.bounds import random_connected_graph
from oddind.cli import main
from oddind.coloring import (
    AlphaTooLarge,
    Coloring,
    _certified_ends,
    chi_so_alpha2,
    chi_so_exact,
    chi_so_upper_from_partition,
    chi_square,
    chromatic_number,
    cube_chi_so,
    is_proper_coloring,
    is_strong_odd_coloring,
)
from oddind.formats import to_graph6
from oddind.graphs import (
    _is_claw_free,
    complement,
    disjoint_union,
    from_edge_list,
    square,
    t_copies,
)
from oddind.independence import (
    _Component,
    alpha_od,
    alpha_od_bruteforce,
    is_odd_independent,
    least_upper_bound,
    odd_bipartite_seed,
    odd_independent_set_masks,
)


def proper_by_edges(g, colors) -> bool:
    """The definition: no edge joins two vertices of one color."""
    return all(colors[u] != colors[v] for u, v in g.edges())


def strong_odd_by_counts(g, colors) -> bool:
    """The definition: proper, and every color present in an open
    neighborhood appears there an odd number of times."""
    if not proper_by_edges(g, colors):
        return False
    for v in range(g.n):
        counts = {}
        for u in g.neighbors(v):
            counts[colors[u]] = counts.get(colors[u], 0) + 1
        if any(cnt % 2 == 0 for cnt in counts.values()):
            return False
    return True


def brute_chromatic(g, strong_odd=False) -> int:
    """Oracle: try every assignment with k colors, smallest k first, against
    the per-vertex definition rather than the class-by-class verifiers."""
    from itertools import product

    if g.n == 0:
        return 0
    check = strong_odd_by_counts if strong_odd else proper_by_edges
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if len(set(colors)) == k and check(g, colors):
                return k
    raise AssertionError


def test_verifiers_match_the_definition_to_order_6():
    # every assignment of at most 3 colors to every graph of order 1..6
    from itertools import product

    from oddind.enumeration import graphs_upto

    count = strong = 0
    for g in graphs_upto(6):
        for colors in product(range(3), repeat=g.n):
            assert is_proper_coloring(g, colors) == proper_by_edges(g, colors), (g.adj, colors)
            want = strong_odd_by_counts(g, colors)
            assert is_strong_odd_coloring(g, colors) == want, (g.adj, colors)
            count += 1
            strong += want
    assert count == 123006 and 0 < strong < count


def test_verifiers_match_the_definition_on_raw_color_values():
    # negative, repeated and sparse colour values, as `verify-coloring` passes them
    rng = random.Random(20261019)
    strong = 0
    for trial in range(400):
        n = rng.randint(1, 12)
        g = _gnp(n, rng.random(), trial)
        palette = rng.sample(range(-50, 1000), rng.randint(1, n))
        colors = [rng.choice(palette) for _ in range(n)]
        if trial % 4 == 0:  # each vertex its own colour: always strong odd
            colors = rng.sample(range(-10**6, 10**6), n)
        assert is_proper_coloring(g, colors) == proper_by_edges(g, colors), (g.adj, colors)
        want = strong_odd_by_counts(g, colors)
        assert is_strong_odd_coloring(g, colors) == want, (g.adj, colors)
        strong += want
    assert 100 <= strong < 400


def test_verifier_examples():
    k33 = gen.complete_bipartite(3, 3)
    assert is_strong_odd_coloring(k33, [0, 0, 0, 1, 1, 1])
    assert not is_strong_odd_coloring(gen.cycle(4), [0, 1, 0, 1])
    # a partition into odd independent classes is always strong odd
    g = gen.petersen()
    coloring = [0] * 10
    cls = list(g.neighbors(0))
    nxt = 1
    for v in range(10):
        if v in cls:
            continue
        coloring[v] = nxt
        nxt += 1
    assert is_strong_odd_coloring(g, coloring)


def test_coloring_type():
    c = Coloring([0, 2, 0])
    assert c.num_colors == 2
    assert c.classes() == [0b101, 0b010]
    with pytest.raises(ValueError):
        Coloring([-1])


def test_chi_square_of_a_long_cycle():
    # the colouring search recurses once per vertex of the square; from the
    # interpreter's default limit it must still finish
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = chi_square(gen.cycle(2000))
    finally:
        sys.setrecursionlimit(old)
    assert res.exact and res.value == 4
    assert proper_by_edges(square(gen.cycle(2000)), res.witness.colors)


def test_chromatic_number():
    assert chromatic_number(gen.complete(4)).value == 4
    c5 = chromatic_number(gen.cycle(5))
    assert c5.value == 3 and c5.nodes > 0  # the refuted 2-coloring is counted
    assert chromatic_number(gen.complete_bipartite(3, 4)).value == 2
    for g in (gen.path(4), gen.cycle(5), gen.complete(4), gen.star(5)):
        assert chromatic_number(g).value == brute_chromatic(g)


def test_chromatic_number_exact_when_a_dominated_component_times_out(capsys, tmp_path):
    # a spent budget stops the search on the big component short of its
    # value, but K_20 alone proves 20 colours, and 20 classes hold the rest
    g = disjoint_union(random_connected_graph(60, .5, 7), gen.complete(20))
    res = chromatic_number(g, budget=0)
    assert res.exact and res.value == res.lower == res.upper == 20
    assert "budget exhausted" not in res.note
    assert is_proper_coloring(g, res.witness) and res.witness.num_colors == 20
    # the square of a star on 20 vertices is K_20; the other square times out
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(disjoint_union(random_connected_graph(40, .1, 1), gen.star(20))))
    assert main(["compute", "chi-sq", str(path), "--budget", "0"]) == 0
    assert capsys.readouterr().out.startswith("chi-sq = 20\n")


def test_chi_square():
    assert chi_square(gen.petersen()).value == 10
    assert chi_square(gen.path(4)).value == 3


def test_chi_so_recorded_values():
    assert chi_so_exact(gen.cycle(5)).value == 5
    assert chi_so_exact(gen.petersen()).value == 6
    assert chi_so_exact(gen.complete_subdivision(4)).value == 5
    assert chi_so_exact(gen.half_graph(3)).value == 4
    assert chi_so_exact(gen.path(5)).value == 3
    assert chi_so_exact(gen.hypercube(2)).value == 4
    assert chi_so_exact(gen.empty(6)).value == 1
    assert chi_so_exact(gen.complete(6)).value == 6


def test_chi_so_witnesses_verify():
    for g in (gen.cycle(7), gen.petersen(), gen.half_graph(4),
              gen.complete_subdivision(4), t_copies(gen.complete(3), 2)):
        res = chi_so_exact(g)
        assert res.exact
        assert is_strong_odd_coloring(g, res.witness)
        assert res.witness.num_colors == res.value


def test_chi_so_exact_vs_bruteforce_small():
    from oddind.enumeration import all_graphs

    for n in range(1, 6):
        for g in all_graphs(n):
            assert chi_so_exact(g).value == brute_chromatic(g, strong_odd=True)


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < p])


def _min_ois_partition(g) -> int:
    """Oracle: the least number of OIS classes covering ``g``, by a plain
    memoized minimum over the classes that hold the lowest vertex."""
    by_low = {}
    for c in odd_independent_set_masks(g):
        by_low.setdefault(c & -c, []).append(c)

    @lru_cache(maxsize=None)
    def best(mask):
        if not mask:
            return 0
        return 1 + min(best(mask & ~c) for c in by_low[mask & -mask] if not c & ~mask)

    return best(g.full_mask)


# sparse G(n, .12) with seed 1000 * j + n; each value agreed with a HiGHS
# MILP model when pinned
PINNED_CHI_SO = {(18, 1): 5, (18, 2): 4, (19, 1): 5, (19, 2): 5,
                 (20, 1): 4, (20, 2): 4, (21, 1): 5, (21, 2): 5}


def test_chi_so_pinned_sparse_graphs():
    for (n, j), want in PINNED_CHI_SO.items():
        g = _gnp(n, 0.12, 1000 * j + n)
        res = chi_so_exact(g, budget=60)
        assert res.exact and res.value == want, (n, j, res.value)
        assert is_strong_odd_coloring(g, res.witness)
        assert res.witness.num_colors == want
        assert res.nodes > 0


def test_chi_so_matches_partition_oracle():
    for n in range(10, 17):
        for i, p in enumerate((0.1, 0.2, 0.35, 0.6)):
            g = _gnp(n, p, 100 * n + i)
            res = chi_so_exact(g)
            assert res.exact
            assert is_strong_odd_coloring(g, res.witness)
            assert res.witness.num_colors == res.value == _min_ois_partition(g), (n, p)


def _odd_bipartite(n, seed):
    """A seeded bipartite graph on ``n`` (even) vertices with every degree
    odd: random edges between the halves, then parities fixed through the
    last vertex of each side."""
    rng = random.Random(seed)
    side_a = rng.sample(range(n), n // 2)
    side_b = [v for v in range(n) if v not in side_a]
    edges = {(a, b) for a in side_a for b in side_b if rng.random() < 0.3}

    def deg(v):
        return sum(v in e for e in edges)

    for a in side_a[:-1]:
        if deg(a) % 2 == 0:
            edges ^= {(a, side_b[-1])}
    for b in side_b[:-1]:
        if deg(b) % 2 == 0:
            edges ^= {(side_a[-1], b)}
    if deg(side_a[-1]) % 2 == 0:  # then so is the degree of side_b[-1]
        edges ^= {(side_a[-1], side_b[-1])}
    return from_edge_list(n, sorted(edges))


def test_odd_bipartite_shortcut_matches_partition_oracle():
    for n in range(2, 17, 2):
        for j in range(3):
            g = _odd_bipartite(n, 100 * n + j)
            assert odd_bipartite_seed(g) is not None, (n, j)
            res = chi_so_exact(g)
            assert res.exact and res.value == 2 == _min_ois_partition(g), (n, j)
            assert res.nodes == 0  # no component reached the cover search
            assert is_strong_odd_coloring(g, res.witness) and res.witness.num_colors == 2


def test_q7_closes_at_two_above_the_cover_cap():
    g = gen.hypercube(7)
    res = chi_so_exact(g, budget=2)
    assert res.exact and res.value == 2 and res.nodes == 0
    assert is_strong_odd_coloring(g, res.witness)
    assert res.witness == cube_chi_so(7)[1]


def test_fallback_seed_closes_by_the_cheap_rung():
    # the fallback seed is alpha_od's witness; at a spent budget the ladder
    # meets the least registry upper end by its registry and greedy rungs
    for g, want in ((gen.hypercube(7), 64), (gen.cycle(300), 100), (gen.complete(30), 1)):
        res = alpha_od(g, budget=0)
        assert res.exact and res.value == want and res.nodes == 0
        assert len(res.witness) == want and is_odd_independent(g, res.witness)


def test_fallback_seed_keeps_the_greedy_set_on_a_timeout():
    # the greedy rung runs on a spent budget too: the greedy square set (64
    # on Q10) is the seed, where the ladder used to stop at one vertex
    g = gen.hypercube(10)
    res = alpha_od(g, budget=0)
    assert res.lower >= 64 and res.lower <= res.upper and not res.exact
    assert len(res.witness) == res.value and is_odd_independent(g, res.witness)


def test_fallback_seed_skips_the_clique_solve_on_a_spent_budget(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("alpha ran on a spent budget")

    monkeypatch.setattr("oddind.independence.alpha", no_solve)
    g = gen.hypercube(10)
    res = alpha_od(g, budget=0)
    assert res.value == 64 and is_odd_independent(g, res.witness)  # the greedy square set
    res = chi_so_exact(g, budget=0)
    assert not res.exact and res.upper == res.value == 1024 - 64 + 1
    assert is_strong_odd_coloring(g, res.witness)


def test_fallback_colours_from_the_alpha_od_witness():
    # over the cover's cap, the ladder closes these at 28, 7 and 15 within
    # the budget: n - alpha_od + 1 classes, where the greedy and square
    # seeds left 30, 28 and 44
    for g, most in ((gen.complete_subdivision(8), 9), (gen.kneser(8, 2), 22),
                    (gen.hoffman_singleton(), 36)):
        res = chi_so_exact(g, budget=2)
        assert res.lower <= res.upper <= most, (g.n, res.upper)
        assert is_strong_odd_coloring(g, res.witness)
        assert res.witness.num_colors == res.upper


def test_star_closes_from_certified_ends():
    # n - 1 leaves: odd, and the sides of the star are the two classes; even,
    # and the centre's 2-colouring fails, while n - 2 leaves form one class
    for n in range(3, 61):
        g = gen.star(n)
        res = chi_so_exact(g, budget=5)
        assert res.exact and res.nodes == 0, n
        assert res.value == (2 if (n - 1) % 2 else 3), n
        assert is_strong_odd_coloring(g, res.witness) and res.witness.num_colors == res.value
        if res.value == 3:  # with 2 leaves, the square seed ties and comes first
            seed = "girth5-neighborhood" if n > 3 else "square-independence"
            assert res.note == f"closed by {seed} seed = not-odd-bipartite (no cover search)"


@pytest.mark.slow
def test_certified_ends_against_the_partition_oracle():
    # every connected graph of order <= 8; each component of a smaller graph
    # is one of them
    from oddind.enumeration import all_graphs, graphs_upto

    closes = 0
    for g in graphs_upto(7) + list(all_graphs(8)):
        if not g.is_connected() or not g.edge_count() or odd_bipartite_seed(g):
            continue  # an earlier rung closes these
        lower, classes, _ = _certified_ends(g, _Component(g))
        want = _min_ois_partition(g)
        assert lower <= want, g.adj
        if classes is not None:
            closes += 1
            assert len(classes) == want, g.adj
            assert sum(classes) == g.full_mask == reduce(or_, classes), g.adj
            assert all(is_odd_independent(g, c) for c in classes), g.adj
    assert closes > 0


def test_chi_so_timeout_keeps_proven_lower_bound():
    # C_5 needs 5 classes; C_30 has more than 22 vertices, so its search is
    # skipped.  chi_so(C_30) = 3, so the true value is 5.
    g = disjoint_union(gen.cycle(5), gen.cycle(30))
    for h in (g, disjoint_union(gen.cycle(30), gen.cycle(5))):
        res = chi_so_exact(h)
        assert not res.exact
        assert 5 <= res.lower <= 5 <= res.upper
        assert is_strong_odd_coloring(h, res.witness)
        assert res.witness.num_colors == res.value == res.upper
    # an expired budget proves only the structural bound: Petersen is not
    # bipartite, so it has no 2-colouring at all
    res = chi_so_exact(gen.petersen(), budget=-1)
    assert not res.exact and res.lower == 3 and res.upper >= 6


def test_chi_so_exact_when_the_ends_meet_after_a_fallback():
    # a spent budget skips every cover, yet the clique bound n meets the
    # n classes of the square-independence seed plus singletons at the
    # certified ends, before any cover or fallback
    for n in (30, 300):
        g = gen.complete(n)
        res = chi_so_exact(g, budget=0)
        assert res.exact and res.value == res.lower == res.upper == n
        assert is_strong_odd_coloring(g, res.witness) and res.witness.num_colors == n
        assert "budget exhausted" not in res.note
        assert "no cover search" in res.note


def test_chi_so_timeout_keeps_the_solved_components():
    # C_5 closes at 5 and keeps its classes; C_30 passes the cover's cap and
    # is coloured from its own seed (10 vertices, so 21 classes), and the
    # class indices merge: 21, where one seed for the whole graph gave 25
    for g in (disjoint_union(gen.cycle(5), gen.cycle(30)),
              disjoint_union(gen.cycle(30), gen.cycle(5))):
        res = chi_so_exact(g, budget=5)
        assert not res.exact and (res.lower, res.upper) == (5, 21)
        assert is_strong_odd_coloring(g, res.witness)
        assert res.witness.num_colors == res.value == 21


def test_fallback_alpha_od_raises_the_lower_end():
    # the Moore graph's certified lower end is 3; the fallback's ladder
    # closes alpha_od at 15, and alpha_od * chi_so >= n gives 50 / 15 -> 4
    g = gen.hoffman_singleton()
    res = chi_so_exact(g, budget=2)
    assert 4 <= res.lower <= res.upper and is_strong_odd_coloring(g, res.witness)


def test_fallback_ends_meet_on_the_ladder_witness():
    # K_5 plus 26 independent vertices, each joined to one pair of v1..v4 so
    # that every vi sees an even number of them: the 26 and v0 are an OIS of
    # 27, which the greedy rung misses and the clique solve finds, so the
    # fallback's 27 + 4 singletons meet the clique bound 5 past the cap
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for x in range(5, 31):
        edges += [(1, x), (2, x)] if x < 19 else [(3, x), (4, x)]
    g = from_edge_list(31, edges)
    res = chi_so_exact(g, budget=2)
    assert res.exact and res.value == 5 and is_strong_odd_coloring(g, res.witness)
    assert "budget exhausted" not in res.note and "no cover search" not in res.note


def test_fallback_upper_end_raise_closes_the_interval():
    # the cocktail party graph K_{2,...,2} on 24 vertices: every non-edge has
    # a common neighbour, so alpha_od = 1; the registry's 24/23 leaves the
    # certified ends at [23, 24], and the ladder's upper end 1 raises the
    # lower end to 24 / 1
    g = gen.complete_multipartite([2] * 12)
    res = chi_so_exact(g, budget=2)
    assert res.exact and res.value == 24 and is_strong_odd_coloring(g, res.witness)
    assert "budget exhausted" not in res.note


def test_fallback_computes_the_least_upper_end_once(monkeypatch):
    # the certified ends and the fallback's ladder read one record per component
    calls = []

    def counting(g):
        calls.append(g.n)
        return least_upper_bound(g)

    monkeypatch.setattr("oddind.independence.least_upper_bound", counting)
    monkeypatch.setattr("oddind.coloring.least_upper_bound", counting, raising=False)
    res = chi_so_exact(gen.hoffman_singleton(), budget=2)
    assert calls == [50] and "budget exhausted" in res.note


def test_certified_ends_close_on_a_spent_budget():
    # the clique bound n meets n - 1 + 1 classes with no cover search and
    # no fallback, also when the budget is spent before the rung
    g = gen.complete(300)
    res = chi_so_exact(g, budget=0)
    assert res.exact and res.value == 300 and res.nodes == 0
    assert res.note.endswith("(no cover search)")
    assert is_strong_odd_coloring(g, res.witness)


def test_the_tracer_hooks_are_called(monkeypatch):
    # perfbench's tracer times these module globals: the cover's candidate
    # enumeration, and the clique solves of the fallback's ladder
    calls = []

    def spy(name, orig):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("oddind.coloring.odd_independent_set_masks",
                        spy("candidates", odd_independent_set_masks))
    monkeypatch.setattr("oddind.independence.alpha", spy("alpha", independence.alpha))
    assert chi_so_exact(gen.petersen()).value == 6
    assert calls == ["candidates"]
    assert "budget exhausted" in chi_so_exact(gen.hoffman_singleton(), budget=2).note
    assert "alpha" in calls


def test_alpha2_examples():
    assert chi_so_alpha2(gen.complete(5)).value == 5
    g = t_copies(gen.complete(3), 2)
    assert chi_so_alpha2(g).value == 3 == chi_so_exact(g).value
    with pytest.raises(AlphaTooLarge):
        chi_so_alpha2(gen.empty(3))
    with pytest.raises(AlphaTooLarge):
        chi_so_alpha2(gen.cycle(6))


def test_alpha2_equals_exact_on_small_cotrianglefree():
    from oddind.enumeration import triangle_free_upto

    for tf in triangle_free_upto(7):
        g = complement(tf)
        assert chi_so_alpha2(g).value == chi_so_exact(g).value


def test_upper_from_partition():
    g = gen.petersen()
    k, coloring = chi_so_upper_from_partition(g, [alpha_od(g).witness])
    assert is_strong_odd_coloring(g, coloring)
    assert k >= chi_so_exact(g).value
    # supplying explicit disjoint classes tightens the bound
    hs = gen.hoffman_singleton()
    from oddind.constructions import hs_rotation_classes

    k, coloring = chi_so_upper_from_partition(hs, hs_rotation_classes())
    assert k == 20
    assert is_strong_odd_coloring(hs, coloring)
    with pytest.raises(ValueError):
        chi_so_upper_from_partition(gen.cycle(4), [[0, 2]])  # not an OIS


def test_cube_chi_so():
    for d in range(1, 6):
        value, coloring = cube_chi_so(d)
        assert value == (2 if d % 2 else 4)
        assert is_strong_odd_coloring(gen.hypercube(d), coloring)
    assert cube_chi_so(2)[0] == chi_so_exact(gen.hypercube(2)).value


def test_clawfree_coloring_equality_small():
    from oddind.enumeration import graphs_upto

    for g in graphs_upto(6):
        if _is_claw_free(g):
            assert chi_so_exact(g).value == chi_square(g).value


def test_quotient_relation_on_samples():
    for g in (gen.petersen(), gen.cycle(7), gen.half_graph(3)):
        aod = alpha_od_bruteforce(g).value
        cso = chi_so_exact(g).value
        assert aod * cso >= g.n


@given(st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_chi_so_random_matches_oracle(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    g = from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    res = chi_so_exact(g)
    assert res.exact
    assert is_strong_odd_coloring(g, res.witness)
    # every color class of the witness is an odd independent set
    classes = res.witness.classes()
    ois = set(odd_independent_set_masks(g))
    assert all(c in ois for c in classes)
    assert res.value == brute_chromatic(g, strong_odd=True)
