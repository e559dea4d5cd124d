"""Proved automorphisms and the orbit cut of the OIS search.

Every generator must pass ``is_automorphism`` against the adjacency rows.
The cut is checked against brute force on every graph with at most 8
vertices, with the search started from nothing and a group proved at every
node, and above that cap against the search that proves a group at the
root only.
"""

import random
from math import floor

import pytest

from oddind import generators as gen
from oddind.bounds import random_connected_graph
from oddind.enumeration import all_graphs, graphs_upto
from oddind.graphs import bits_of, square
from oddind.independence import (
    _ois_search,
    alpha,
    alpha_od,
    alpha_od_bruteforce,
    is_odd_independent,
    lower_bound_seed,
    registry_seeds,
    upper_bounds,
)
from oddind.results import Deadline
from oddind.symmetry import _refine, equitable, is_automorphism, orbits

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
    perm = orbits(g.adj)[1][0]
    assert is_automorphism(g.adj, perm) and perm != list(range(g.n))
    bad = list(perm)
    bad[0], bad[1] = bad[1], bad[0]  # two images swapped
    assert not is_automorphism(g.adj, bad)
    assert not is_automorphism(g.adj, perm[:-1])  # not a permutation of all vertices
    assert not is_automorphism(g.adj, [0] * g.n)


def test_no_automorphism_across_orbits():
    g = gen.complete_subdivision(6)
    # vertex 0 has degree 5, a subdivision vertex degree 2
    sub = next(v for v in range(g.n) if g.degree(v) == 2)
    least, gens = orbits(g.adj)
    assert least[0] != least[sub] and gens
    assert all(perm[0] != sub for perm in gens)
    cells, cell_of = equitable(g.adj)
    assert cell_of[0] != cell_of[sub] and len(cells) == 2


def test_expired_deadline_leaves_a_subgroup():
    g = gen.hypercube(6)
    least, gens = orbits(g.adj, Deadline(0))
    assert least == list(range(g.n)) and gens == []


def test_stabilizer_of_a_start_partition():
    # the automorphisms of Q6 that fix vertex 0 have the distance classes as orbits
    g = gen.hypercube(6)
    rest = g.full_mask ^ 1
    cells, _ = equitable(g.adj, start=[1, rest])
    assert sorted(c.bit_count() for c in cells) == [1, 1, 6, 6, 15, 15, 20]
    least, gens = orbits(g.adj, start=[1, rest])
    assert len(set(least)) == 7 and gens
    for perm in gens:
        assert is_automorphism(g.adj, perm) and perm[0] == 0
    assert all(least[v].bit_count() == v.bit_count() for v in range(g.n))
    # empty start cells are dropped
    assert equitable(g.adj, start=[0, g.full_mask, 0])[0] == equitable(g.adj)[0]


def test_discrete_partition_proves_the_group_trivial(monkeypatch):
    g = random_connected_graph(38, 0.15, 38)
    assert len(equitable(g.adj)[0]) == g.n

    def unexpected(*args, **kwargs):
        raise AssertionError("the matcher called on a discrete partition")

    monkeypatch.setattr("oddind.symmetry._follow", unexpected)
    least, gens = orbits(g.adj)
    assert least == list(range(g.n)) and gens == []


def _refine_by_counts(rows, cells, cell_of, queue):
    """The refinement as first written, the oracle for ``_refine``: each
    touched vertex's count in the splitter, grouped per cell in a dict."""
    trace = []
    queue = list(queue)
    queued = [False] * len(cells)
    for w in queue:
        queued[w] = True
    qi = 0
    while qi < len(queue):
        w = queue[qi]
        qi += 1
        queued[w] = False
        splitter = cells[w]
        touched = 0
        bits = splitter
        while bits:
            low = bits & -bits
            touched |= rows[low.bit_length() - 1]
            bits ^= low
        hit = {}
        bits = touched
        while bits:
            low = bits & -bits
            bits ^= low
            x = low.bit_length() - 1
            c = cell_of[x]
            cell = cells[c]
            if cell & (cell - 1):
                groups = hit.setdefault(c, {})
                count = (rows[x] & splitter).bit_count()
                groups[count] = groups.get(count, 0) | low
        for c in sorted(hit):
            groups = hit[c]
            untouched = cells[c] & ~touched
            if untouched:
                groups[0] = untouched
            if len(groups) == 1:
                continue
            keys = sorted(groups)
            frags = [groups[k] for k in keys]
            trace.append((w, c, tuple([(k, f.bit_count()) for k, f in zip(keys, frags)])))
            idx = [c] + list(range(len(cells), len(cells) + len(frags) - 1))
            cells[c] = frags[0]
            for j in range(1, len(frags)):
                cells.append(frags[j])
                queued.append(False)
                bits = frags[j]
                while bits:
                    low = bits & -bits
                    cell_of[low.bit_length() - 1] = idx[j]
                    bits ^= low
            skip = -1
            if not queued[c]:
                sizes = [f.bit_count() for f in frags]
                skip = sizes.index(max(sizes))
            for j, i in enumerate(idx):
                if j != skip and not queued[i]:
                    queued[i] = True
                    queue.append(i)
    return trace


def _same_refinement(rows, cells, queue):
    cell_of = [0] * len(rows)
    for i, cell in enumerate(cells):
        for v in range(len(rows)):
            if cell >> v & 1:
                cell_of[v] = i
    mine = (list(cells), list(cell_of))
    oracle = (list(cells), list(cell_of))
    trace = _refine(rows, *mine, queue)
    assert trace == _refine_by_counts(rows, *oracle, queue)
    assert mine == oracle
    return mine


def _random_cells(n, rng):
    """An ordered partition of ``range(n)`` into at most four nonempty cells."""
    k = rng.randint(1, min(n, 4))
    cells = [0] * k
    for v in range(n):
        cells[rng.randrange(k)] |= 1 << v
    return [c for c in cells if c]


def test_refinement_matches_per_vertex_counts():
    # every graph on at most 6 vertices, and the symmetric panel, from random
    # start partitions and from one individualised vertex of the equitable one
    rng = random.Random(15)
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    graphs += [g for g, _ in PANEL.values()] + [gen.kneser(9, 3), gen.petersen()]
    checked = 0
    for g in graphs:
        for _ in range(2 if g.n <= 6 else 40):
            cells = _random_cells(g.n, rng)
            _same_refinement(g.adj, cells, range(len(cells)))
            cells, _ = _same_refinement(g.adj, [g.full_mask], [0])
            v = rng.randrange(g.n)
            i = next(i for i, c in enumerate(cells) if c >> v & 1)
            if cells[i] != 1 << v:
                alone = cells[:i] + [1 << v] + cells[i + 1:] + [cells[i] ^ 1 << v]
                _same_refinement(g.adj, alone, [i])
            checked += 1
    assert checked == 2 * 208 + 40 * 7


def test_pooled_orbits_match_unpooled():
    # one pool per graph, shared by every call on it as in one OIS search;
    # random start partitions, and vertex stabilisers, whose groups are larger
    rng = random.Random(17)
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    graphs += [g for g, _ in PANEL.values()] + [gen.kneser(9, 3), gen.petersen()]
    reused = 0
    for g in graphs:
        pool = []
        for _ in range(2 if g.n <= 6 else 20):
            v = rng.randrange(g.n)
            for cells in (_random_cells(g.n, rng), [1 << v, g.full_mask ^ 1 << v]):
                before = len(pool)
                least, _ = orbits(g.adj, start=cells)
                pooled, gens = orbits(g.adj, start=cells, pool=pool)
                assert pooled == least
                found = pool[before:]
                reused += len(gens) - len(found)
                assert gens[len(gens) - len(found):] == found
                assert all(perm in pool[:before] for perm in gens[:len(gens) - len(found)])
                for perm in gens:
                    assert is_automorphism(g.adj, perm)
                    assert all(cell >> perm[x] & 1 for cell in cells for x in bits_of(cell))
        assert len({tuple(perm) for perm in pool}) == len(pool)
    assert reused > 0


def test_node_pins():
    # the root enters one branch of the vertex-transitive 6-cube and of
    # KG(9,3), and nodes below it prove their own groups; rc38 has a trivial
    # group, so its search, with its parity counts, is deterministic
    q6 = alpha_od(gen.hypercube(6))
    assert q6.exact and q6.value == 24 and q6.nodes == 1_289
    assert "1 orbit(s)" in q6.note
    # the later proofs take most of their generators from the search's pool
    assert "groups proved at 15 node(s) from 50 pooled and 11 found generator(s)" in q6.note
    kg = alpha_od(gen.kneser(9, 3))
    assert kg.exact and kg.value == 3 and kg.nodes == 819
    assert "1 orbit(s)" in kg.note
    rc = alpha_od(random_connected_graph(38, 0.15, 38))
    assert rc.exact and rc.value == 11 and rc.nodes == 572
    assert "from 0 proved generator(s)" in rc.note
    assert "from 0 pooled and 0 found generator(s)" in rc.note
    # a vertex forced on entry or by a later closing of the node's system
    # stops the sibling loop once it is branched on
    assert ("parity closure: 186 node(s) pruned, 1007 vertex(es) excluded,"
            " 122 sibling loop(s) stopped by a forced vertex") in rc.note


def _search(g, threshold=None):
    """The solver's search on ``g`` from the solver's seed and upper end,
    with its proof threshold replaced when one is given."""
    sq_mask = alpha(square(g)).witness.mask
    upper = min([alpha(g).value] + [floor(b.value) for b in upper_bounds(g)])
    seed = lower_bound_seed(g, sq_mask, registry_seeds(g)).mask
    search = _ois_search(g, square(g), Deadline(None), seed, upper)
    if threshold is not None:
        search.threshold = threshold
    search.run()
    return search


@pytest.mark.parametrize("name", ["q6", "kg9_3", "sk7"])
def test_node_cut_matches_root_cut_above_brute_force_cap(name):
    g = {"q6": lambda: gen.hypercube(6), "kg9_3": lambda: gen.kneser(9, 3),
         "sk7": lambda: gen.complete_subdivision(7)}[name]()
    # KG(9,3)'s node cut proves a group at every node that reaches a second
    # branch, not only where the subtree spent |E|/2 nodes
    node_cut = _search(g, threshold=0 if name == "kg9_3" else None)
    root_only = _search(g, threshold=float("inf"))
    assert node_cut.best == root_only.best
    assert node_cut.skipped[1] > 0 and root_only.skipped[1] == 0
    for search in (node_cut, root_only):
        assert not search.timed_out
        assert is_odd_independent(g, search.best_mask)
        assert search.best_mask.bit_count() == search.best


@pytest.mark.slow
def test_orbit_cut_matches_brute_force_to_order_8():
    fired = below = 0
    for g in graphs_upto(8):
        if not g.edge_count():
            continue
        # no seed and upper = n: the search runs, and reaches second branches;
        # a zero threshold proves a group at every node that reaches one
        search = _ois_search(g, square(g), Deadline(None), 0, g.n)
        search.threshold = 0
        search.run()
        assert search.best == alpha_od_bruteforce(g).value
        assert is_odd_independent(g, search.best_mask)
        assert search.best_mask.bit_count() == search.best
        fired += sum(search.skipped) > 0
        below += search.skipped[1] > 0
    assert fired > 0 and below > 0
