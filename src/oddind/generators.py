"""Deterministic constructors for every graph family used by the suite.

Every family checks its order against ``MAX_VERTICES`` before it builds an
edge or a row.  Families given by edges go through ``from_edge_list``, which
checks each pair; the others build their rows, right by construction,
through ``Graph._derived`` or the operations of ``oddind.graphs``.

Each family documents its vertex labeling, as an id scheme, so that
explicitly listed vertex sets (the Hoffman-Singleton 15-set, the 112 binary
strings in the 8-cube) can be checked id-by-id:

* ``hypercube(d)``: vertex ``i`` is the binary string of ``i``, most
  significant bit first; ``i ~ j`` iff ``i ^ j`` is a power of two.
* ``kneser(n, k)``: vertices are the k-subsets of ``0..n-1`` in
  colexicographic order (equivalently: increasing characteristic mask).
* ``hoffman_singleton()``: built from a fixed 10-row adjacency table closed
  under the automorphism ``i -> i + 10 (mod 50)``.
* ``half_graph(n)``: ids ``0..n-1`` are ``u_1..u_n``, ids ``n..2n-1`` are
  ``v_1..v_n``, and ``u_i ~ v_j`` iff ``j >= i``.
* ``complete_subdivision(n)``: originals ``0..n-1`` first, then one
  subdivision vertex per pair ``i < j`` in lexicographic order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from typing import List, Sequence, Tuple

from .graphs import (
    BadParam,
    Graph,
    bits_of,
    cartesian_product,
    check_order,
    complement,
    disjoint_union,
    from_edge_list,
    girth_at_least_5,
    is_triangle_free,
    join,
    square,
    subdivide_all_edges,
    t_copies,
)

__all__ = [
    "path", "cycle", "complete", "empty", "complete_bipartite",
    "complete_multipartite", "star", "hypercube", "kneser", "petersen",
    "hoffman_singleton", "half_graph", "complete_subdivision", "kbox",
    "regular_tight", "feasible_combo", "trianglefree_diam", "line_graph",
    "parse_family",
]


def path(n: int) -> Graph:
    if n < 1:
        raise BadParam("path needs n >= 1")
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParam("cycle needs n >= 3")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParam("complete graph needs n >= 1")
    return complement(empty(n))


def empty(n: int) -> Graph:
    if n < 0:
        raise BadParam("empty graph needs n >= 0")
    return from_edge_list(n, ())


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise BadParam("complete bipartite needs both sides nonempty")
    return from_edge_list(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    if not parts or any(p < 1 for p in parts):
        raise BadParam("every part must have size >= 1")
    starts = [0, *accumulate(parts)]
    edges = ((starts[i] + x, starts[j] + y) for i, j in combinations(range(len(parts)), 2)
             for x in range(parts[i]) for y in range(parts[j]))
    return from_edge_list(starts[-1], edges)


def star(n: int) -> Graph:
    if n < 1:
        raise BadParam("star needs n >= 1")
    return from_edge_list(n, ((0, i) for i in range(1, n)))


@lru_cache(maxsize=None)
def hypercube(d: int) -> Graph:
    if not 0 <= d <= 12:
        raise BadParam("hypercube dimension must be within 0..12")
    n = 1 << d
    rows = [0] * n
    for v in range(n):
        row = 0
        for b in range(d):
            row |= 1 << (v ^ (1 << b))
        rows[v] = row
    return Graph._derived(n, rows)


@lru_cache(maxsize=None)
def kneser(n: int, k: int) -> Graph:
    if k < 1 or n < 2 * k:
        raise BadParam("Kneser graph needs k >= 1 and n >= 2k")
    check_order(n, f"KG({n},{k})")  # C(n, k) >= n
    count = comb(n, k)
    check_order(count, f"KG({n},{k})")
    subsets = sorted(
        sum(1 << e for e in combo) for combo in combinations(range(n), k)
    )  # ascending mask = colexicographic order on k-subsets
    rows = [0] * count
    for i, a in enumerate(subsets):
        for j in range(i + 1, count):
            if a & subsets[j] == 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._derived(count, rows)


def petersen() -> Graph:
    return kneser(5, 2)


# Adjacency of vertices 0..9; the rest of the graph is the closure under the
# rotation i -> i + 10 (mod 50), which is an automorphism.
_HS_ROWS = (
    (1, 4, 13, 16, 26, 43, 49),
    (0, 2, 6, 18, 28, 36, 47),
    (1, 3, 8, 24, 34, 38, 45),
    (2, 4, 10, 19, 29, 40, 48),
    (0, 3, 5, 22, 32, 35, 46),
    (4, 6, 9, 12, 24, 27, 37),
    (1, 5, 7, 14, 21, 30, 40),
    (6, 8, 11, 19, 25, 35, 49),
    (2, 7, 9, 13, 22, 31, 41),
    (5, 8, 10, 17, 33, 43, 47),
)


@lru_cache(maxsize=None)
def hoffman_singleton() -> Graph:
    edges = []
    for shift in range(0, 50, 10):
        for r, nbrs in enumerate(_HS_ROWS):
            v = r + shift
            edges.extend((v, (x + shift) % 50) for x in nbrs)
    g = from_edge_list(50, edges)
    assert g.edge_count() == 175 and all(row.bit_count() == 7 for row in g.adj)
    # diameter 2 (7-regular on 50 vertices is not complete): every vertex is
    # within two steps of each u.  A graph of diameter d with a cycle (175
    # edges on 50 vertices make one) has girth at most 2d + 1, so with no
    # triangle and no 4-cycle the girth is exactly 5
    assert girth_at_least_5(g)
    for u, row in enumerate(g.adj):
        reach = row | 1 << u
        for w in bits_of(row):
            reach |= g.adj[w]
        assert reach == g.full_mask
    return g


def half_graph(n: int) -> Graph:
    if n < 1:
        raise BadParam("half graph needs n >= 1")
    return from_edge_list(2 * n, ((i, n + j) for i in range(n) for j in range(i, n)))


def complete_subdivision(n: int) -> Graph:
    if n < 2:
        raise BadParam("complete subdivision needs n >= 2")
    check_order(n + comb(n, 2), "complete subdivision")
    # the subdivision vertices follow the branch vertices, in pair order
    return subdivide_all_edges(complete(n))


def kbox(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise BadParam("box product of complete graphs needs p, q >= 1")
    check_order(p * q, "box product")
    return cartesian_product(complete(p), complete(q))


def regular_tight(d: int, t: int, bipartite: bool = False) -> Graph:
    """Connected d-regular graph on ``t * (2d - 1)`` vertices (d even).

    ``t`` copies of ``K_{d,d-1}`` joined by a perfect matching across the
    size-d classes.  The matching pairs the second half of each copy's
    size-d class with the first half of the next copy's, cyclically; this
    keeps the result connected, and for ``t = 2`` it is the plain matching
    between the two size-d classes, so both classes stay independent and
    the graph is bipartite.
    """
    if d < 2 or d % 2:
        raise BadParam("d must be even and at least 2")
    if t < 1:
        raise BadParam("t must be at least 1")
    if bipartite and t != 2:
        raise BadParam("the bipartite variant requires t = 2")
    per = 2 * d - 1
    check_order(t * per, "regular-tight")
    edges = []
    for i in range(t):
        base = i * per
        edges.extend((base + a, base + d + b) for a in range(d) for b in range(d - 1))
    half = d // 2
    if t == 1:
        edges.extend((2 * s, 2 * s + 1) for s in range(half))
    else:
        for i in range(t):
            nxt = (i + 1) % t
            edges.extend((i * per + half + s, nxt * per + s) for s in range(half))
    return from_edge_list(t * per, edges)


def feasible_combo(n: int, k: int, case) -> Graph:
    """Constructions realizing every feasible pair alpha_od = alpha = k."""
    check_order(n, "feasible-combo")
    case = str(case).upper()
    if case in ("1", "I"):
        if not 1 <= k <= n:
            raise BadParam("case I needs 1 <= k <= n")
        return disjoint_union(complete(n - k + 1), empty(k - 1)) if k > 1 else complete(n)
    if case in ("2", "II"):
        if not (1 <= k <= n and k % 2 == 1):
            raise BadParam("case II needs odd k with 1 <= k <= n")
        if k == n:
            return empty(n)
        return join(complete(n - k), empty(k))
    if case in ("3", "III"):
        if not (k % 2 == 1 and k >= 1 and n % k == 0):
            raise BadParam("case III needs odd k dividing n")
        return complete_multipartite([k] * (n // k))
    if case in ("4", "IV"):
        if not (k % 2 == 0 and 2 <= k <= n - 2):
            raise BadParam("case IV needs even k with 2 <= k <= n-2")
        clique = n - k  # vertices 0..n-k-1; then k-1 independent; z is last
        edges = list(combinations(range(clique), 2))
        edges.extend((u, w) for u in range(clique) for w in range(clique, n - 1))
        edges.remove((0, clique))  # the deleted vw edge
        edges.append((0, n - 1))  # the inserted vz edge
        return from_edge_list(n, edges)
    raise BadParam(f"unknown case {case!r}")


def trianglefree_diam(kind: str, *params) -> Graph:
    """The three triangle-free diameter constructions.

    ``matching-deleted n m t``: complete bipartite minus a t-edge matching
    (diameter 3, complement diameter 3).
    ``subdivided-matching n m t``: subdivide t matching edges of K_{n,m}
    (diameter 2, complement diameter 2).
    ``box-k2``: product of a supplied triangle-free graph with K_2.
    """
    kind = kind.replace("_", "-").lower()
    if kind == "matching-deleted":
        n, m, t = params
        if not (n >= m >= 2 and 1 <= t <= m - 1):
            raise BadParam("need n >= m >= 2 and 1 <= t <= m-1")
        edges = ((i, n + j) for i in range(n) for j in range(m) if not (i == j and i < t))
        return from_edge_list(n + m, edges)
    if kind == "subdivided-matching":
        n, m, t = params
        if not (n >= m >= 2 and 1 <= t <= m):
            raise BadParam("need n >= m >= 2 and 1 <= t <= m")
        check_order(n + m + t, "subdivided-matching")
        edges = [(i, n + j) for i in range(n) for j in range(m) if not (i == j and i < t)]
        for i in range(t):
            mid = n + m + i
            edges.append((i, mid))
            edges.append((mid, n + i))
        return from_edge_list(n + m + t, edges)
    if kind == "box-k2":
        (g,) = params
        if not is_triangle_free(g):
            raise BadParam("box-k2 needs a triangle-free graph")
        return cartesian_product(g, complete(2))
    raise BadParam(f"unknown construction {kind!r}")


def line_graph(g: Graph) -> Graph:
    """Line graph; vertex i is the i-th edge in ``g.edges()`` order."""
    check_order(g.edge_count(), "line graph")
    edge_list = list(g.edges())
    incident = [0] * g.n  # the edges at each vertex, as a mask of line-graph ids
    for i, (a, b) in enumerate(edge_list):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    return Graph._derived(len(edge_list), [(incident[a] | incident[b]) ^ 1 << i
                                           for i, (a, b) in enumerate(edge_list)])


# -- family-spec parsing for the command line ----------------------------------


def _tokenize(text: str) -> List[str]:
    return text.replace("[", " [ ").replace("]", " ] ").split()


def parse_family(text: str) -> Graph:
    """Parse a family expression such as ``kneser 5 2`` or
    ``mu-product [hypercube 4] [cycle 4]`` into a graph."""
    tokens = _tokenize(text)
    g, rest = _parse_spec(tokens)
    if rest:
        raise BadParam(f"trailing tokens {rest!r}")
    return g


def _take_ints(tokens, count):
    if len(tokens) < count:
        raise BadParam("missing numeric parameters")
    try:
        vals = [int(t) for t in tokens[:count]]
    except ValueError as exc:
        raise BadParam(f"expected integers, got {tokens[:count]!r}") from exc
    return vals, tokens[count:]


def _take_sub(tokens):
    if not tokens or tokens[0] != "[":
        raise BadParam("expected a bracketed sub-family")
    depth = 0
    for i, tok in enumerate(tokens):
        if tok == "[":
            depth += 1
        elif tok == "]":
            depth -= 1
            if depth == 0:
                inner = tokens[1:i]
                g, rest = _parse_spec(inner)
                if rest:
                    raise BadParam(f"trailing tokens in sub-family: {rest!r}")
                return g, tokens[i + 1:]
    raise BadParam("unbalanced brackets")


def _parse_spec(tokens) -> Tuple[Graph, list]:
    if not tokens:
        raise BadParam("empty family spec")
    name = tokens[0].replace("_", "-").lower()
    rest = tokens[1:]
    simple = {
        "path": (path, 1), "cycle": (cycle, 1), "complete": (complete, 1),
        "empty": (empty, 1), "star": (star, 1), "hypercube": (hypercube, 1),
        "half-graph": (half_graph, 1), "complete-subdivision": (complete_subdivision, 1),
        "complete-bipartite": (complete_bipartite, 2), "kneser": (kneser, 2),
        "kbox": (kbox, 2), "petersen": (petersen, 0), "hoffman-singleton": (hoffman_singleton, 0),
    }
    if name in simple:
        fn, arity = simple[name]
        vals, rest = _take_ints(rest, arity)
        return fn(*vals), rest
    if name == "complete-multipartite":
        vals = []
        while rest and rest[0] not in ("[", "]"):
            (v,), rest = _take_ints(rest, 1)
            vals.append(v)
        return complete_multipartite(vals), rest
    if name == "regular-tight":
        vals, rest = _take_ints(rest, 2)
        bip = False
        if rest and rest[0] in ("0", "1"):
            bip = rest[0] == "1"
            rest = rest[1:]
        return regular_tight(vals[0], vals[1], bip), rest
    if name == "feasible-combo":
        vals, rest2 = _take_ints(rest, 2)
        if not rest2:
            raise BadParam("feasible-combo needs a case (I..IV)")
        return feasible_combo(vals[0], vals[1], rest2[0]), rest2[1:]
    if name == "trianglefree-diam":
        if not rest:
            raise BadParam("trianglefree-diam needs a kind")
        kind = rest[0].replace("_", "-").lower()
        rest = rest[1:]
        if kind == "box-k2":
            sub, rest = _take_sub(rest)
            return trianglefree_diam(kind, sub), rest
        vals, rest = _take_ints(rest, 3)
        return trianglefree_diam(kind, *vals), rest
    binary = {"mu-product": cartesian_product, "box": cartesian_product,
              "union": disjoint_union, "join": join}
    if name in binary:
        a, rest = _take_sub(rest)
        b, rest = _take_sub(rest)
        return binary[name](a, b), rest
    if name == "copies":
        (t,), rest = _take_ints(rest, 1)
        sub, rest = _take_sub(rest)
        return t_copies(sub, t), rest
    unary = {"complement": complement, "square": square,
             "subdivision": subdivide_all_edges, "line-graph": line_graph}
    if name in unary:
        sub, rest = _take_sub(rest)
        return unary[name](sub), rest
    raise BadParam(f"unknown family {name!r}")
