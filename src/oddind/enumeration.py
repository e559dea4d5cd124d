"""Isomorphism-free enumeration of small graphs.

Graphs on ``n`` vertices are generated by extending every graph on
``n - 1`` vertices with one new vertex over all admissible neighborhoods,
then deduplicating up to isomorphism.  Candidates are bucketed by a cheap
invariant (color refinement plus the multiset of common-neighbor counts
over vertex pairs) and confirmed by a backtracking isomorphism test, so
collisions cost time but never correctness.

Intended scale: full enumeration to 8 vertices, triangle-free to 10.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .graphs import Graph, bits_of
from .independence import independent_set_masks


def _refined_colors(g: Graph) -> Tuple[int, ...]:
    # neighbor lists once, not once per refinement round
    nbrs = [list(bits_of(row)) for row in g.adj]
    colors = [len(nb) for nb in nbrs]
    for _ in range(3):
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nb])))
                for v, nb in enumerate(nbrs)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return tuple(colors)


def invariant(g: Graph) -> tuple:
    """Cheap isomorphism invariant used to bucket candidates."""
    colors = _refined_colors(g)
    adj_pairs = []
    non_pairs = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = (g.adj[u] & g.adj[v]).bit_count()
            key = (min(colors[u], colors[v]), max(colors[u], colors[v]), c)
            (adj_pairs if g.has_edge(u, v) else non_pairs).append(key)
    return (
        g.n,
        g.edge_count(),
        tuple(sorted(colors)),
        tuple(sorted(adj_pairs)),
        tuple(sorted(non_pairs)),
    )


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test for small graphs (about 10 vertices)."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    gc, hc = _refined_colors(g), _refined_colors(h)
    if sorted(gc) != sorted(hc):
        return False
    n = g.n
    # map rarest colors first
    freq = {}
    for c in gc:
        freq[c] = freq.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[gc[v]], -g.degree(v), v))
    image = [-1] * n
    used = [False] * n

    def rec(i):
        if i == n:
            return True
        u = order[i]
        for x in range(n):
            if used[x] or hc[x] != gc[u]:
                continue
            ok = True
            for j in range(i):
                v = order[j]
                if g.has_edge(u, v) != h.has_edge(x, image[v]):
                    ok = False
                    break
            if ok:
                image[u] = x
                used[x] = True
                if rec(i + 1):
                    return True
                used[x] = False
                image[u] = -1
        return False

    return rec(0)


def _dedupe(candidates) -> List[Graph]:
    buckets = {}
    for g in candidates:
        key = invariant(g)
        bucket = buckets.setdefault(key, [])
        if not any(are_isomorphic(g, q) for q in bucket):
            bucket.append(g)
    out = []
    for key in sorted(buckets):
        out.extend(buckets[key])
    return out


def _extensions(parent: Graph, neighborhoods) -> List[Graph]:
    out = []
    n = parent.n + 1
    for mask in neighborhoods:
        rows = [parent.adj[v] | ((mask >> v & 1) << (n - 1)) for v in range(parent.n)]
        rows.append(mask)
        out.append(Graph(n, rows))
    return out


def _grow(n: int, family, neighborhoods) -> Tuple[Graph, ...]:
    """``family(n)``: every ``family(n - 1)`` graph extended by a vertex over
    each of ``neighborhoods(parent)``, up to isomorphism."""
    if n <= 1:
        return (Graph(n, [0] * n),)
    candidates = []
    for parent in family(n - 1):
        candidates.extend(_extensions(parent, neighborhoods(parent)))
    return tuple(_dedupe(candidates))


@lru_cache(maxsize=None)
def all_graphs(n: int) -> Tuple[Graph, ...]:
    """All graphs on exactly ``n`` vertices, one per isomorphism class."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _grow(n, all_graphs, lambda parent: range(1 << parent.n))


@lru_cache(maxsize=None)
def triangle_free_graphs(n: int) -> Tuple[Graph, ...]:
    """All triangle-free graphs on exactly ``n`` vertices up to isomorphism.

    Extending by a vertex whose neighborhood is an independent set of the
    parent preserves triangle-freeness, and removing any vertex of a
    triangle-free graph stays triangle-free, so the sweep is complete.
    """
    return _grow(n, triangle_free_graphs, lambda parent: list(independent_set_masks(parent)))


def _upto(family, n: int) -> List[Graph]:
    return [g for k in range(1, n + 1) for g in family(k)]


def graphs_upto(n: int) -> List[Graph]:
    return _upto(all_graphs, n)


def triangle_free_upto(n: int) -> List[Graph]:
    return _upto(triangle_free_graphs, n)


def connected_cubic_graphs(n: int) -> List[Graph]:
    return [
        g for g in all_graphs(n)
        if g.is_connected() and all(g.degree(v) == 3 for v in range(g.n))
    ]
