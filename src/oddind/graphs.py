"""Immutable bit-packed graphs and the structural operations built on them.

A ``Graph`` stores one Python integer per vertex; bit ``u`` of row ``v`` is
set exactly when ``uv`` is an edge.  Arbitrary-precision integers give
branch-free set algebra (union/intersection/popcount) for every solver in
this package, and a hard cap of 4096 vertices keeps rows at a sane width.

Vertices are always the dense range ``0..n-1``; a graph is its order and its
rows.  Generators that promise a specific labeling (hypercubes, Kneser
graphs, ...) promise it through the id scheme.

Rows are checked once, where they enter the package: ``Graph(n, rows)``
checks the order, the width, loops and symmetry, and ``from_edge_list``
checks each endpoint pair.  Every graph derived from checked edges or from a
valid graph (the operations below, the generators, graph6 input) is built by
``Graph._derived``, which checks nothing, after its order is checked against
``MAX_VERTICES`` with ``check_order``.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Iterator, Optional, Sequence, Tuple

MAX_VERTICES = 4096


class GraphError(ValueError):
    """Base class for construction and argument errors."""


class IndexOutOfRange(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class BadParam(GraphError):
    pass


class TooLarge(GraphError):
    pass


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(n: int, what: str = "graph") -> None:
    """Raise ``TooLarge`` unless a graph of order ``n`` fits the cap."""
    if not 0 <= n <= MAX_VERTICES:
        raise TooLarge(f"{what} needs {n} vertices, outside 0..{MAX_VERTICES}")


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with bit-row adjacency.

    Instances are immutable after construction; all operations return new
    graphs, so sharing across threads is safe.

    The constructor is for rows from outside the package and checks every
    row; ``_derived`` skips the checks for rows that are symmetric and
    loop-free by construction, which cannot fail them.
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: Sequence[int]):
        check_order(n)
        if len(adj) != n:
            raise BadParam(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise IndexOutOfRange(f"row {v} has bits beyond vertex {n - 1}")
            if row >> v & 1:
                raise SelfLoop(f"vertex {v} adjacent to itself")
        rows = tuple(adj)
        for v in range(n):
            for u in bits_of(rows[v]):
                if not rows[u] >> v & 1:
                    raise BadParam(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self.adj = rows
        self._hash = hash((n, rows))

    @classmethod
    def _derived(cls, n: int, rows: Iterable[int]) -> "Graph":
        """A graph from symmetric loop-free rows, with no check, not even of
        the order: the caller checks ``n`` before it builds the rows."""
        g = object.__new__(cls)
        g.n, g.adj = n, tuple(rows)
        g._hash = hash((n, g.adj))
        return g

    # -- basic accessors ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(bits_of(self.adj[v]))

    def closed_row(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for off in bits_of(row):
                yield (v, v + 1 + off)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degree_sequence(self) -> Tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.adj))

    # -- traversal helpers ---------------------------------------------------

    def component_masks(self) -> Tuple[int, ...]:
        """Masks of the connected components, ordered by smallest vertex."""
        seen = 0
        out = []
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = frontier = 1 << v
            while frontier:
                nxt = 0
                for u in bits_of(frontier):
                    nxt |= self.adj[u]
                frontier = nxt & ~comp
                comp |= frontier
            out.append(comp)
            seen |= comp
        return tuple(out)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def bfs_levels(self, source: int) -> list:
        """Distance from ``source`` per vertex (-1 for unreachable)."""
        dist = [-1] * self.n
        dist[source] = 0
        seen = frontier = 1 << source
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for u in bits_of(frontier):
                nxt |= self.adj[u]
            frontier = nxt & ~seen
            seen |= frontier
            for u in bits_of(frontier):
                dist[u] = d
        return dist

    def induced(self, mask: int) -> Tuple["Graph", Tuple[int, ...]]:
        """Subgraph induced by ``mask``; also returns old ids in new order.
        The whole vertex set gives ``self``; a proper subset skips the checks."""
        if mask == self.full_mask:
            return self, tuple(range(self.n))
        keep = tuple(bits_of(mask))
        pos = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            for u in bits_of(self.adj[v] & mask):
                row |= 1 << pos[u]
            rows.append(row)
        return Graph._derived(len(keep), rows), keep


class VertexSet:
    """A subset of the vertices of a graph of order ``n``, as a bit vector."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if mask < 0 or mask >> n:
            raise IndexOutOfRange(f"set has bits outside 0..{n - 1}")
        self.n = n
        self.mask = mask

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in ids:
            if not 0 <= v < n:
                raise IndexOutOfRange(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    def ids(self) -> Tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and (self.n, self.mask) == (other.n, other.mask)

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({list(self.ids())!r} of {self.n})"


# -- construction ------------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a graph from (possibly repeated) endpoint pairs.

    The order is checked before the first pair is read, so ``edges`` may be
    a lazy iterator.  Duplicates are merged; self loops and out-of-range
    endpoints are rejected.
    """
    check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self loop at {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._derived(n, rows)


# -- unary operations ---------------------------------------------------------


def _complement_rows(g: Graph) -> list:
    full = g.full_mask
    return [~g.adj[v] & full & ~(1 << v) for v in range(g.n)]


def complement(g: Graph) -> Graph:
    return Graph._derived(g.n, _complement_rows(g))


def square(g: Graph) -> Graph:
    """Graph on the same vertices joining pairs at distance at most 2."""
    rows = []
    for v in range(g.n):
        row = g.adj[v]
        for u in bits_of(g.adj[v]):
            row |= g.adj[u]
        rows.append(row & ~(1 << v))
    return Graph._derived(g.n, rows)


def subdivide_all_edges(g: Graph) -> Graph:
    """Replace every edge by a length-2 path through a fresh vertex.

    New vertices follow the originals, in the order ``g.edges()`` yields.
    """
    n = g.n + g.edge_count()
    check_order(n, "subdivision")
    rows = list(g.adj)
    for w, (u, v) in enumerate(g.edges(), start=g.n):
        rows[u] ^= 1 << v | 1 << w
        rows[v] ^= 1 << u | 1 << w
        rows.append(1 << u | 1 << v)
    return Graph._derived(n, rows)


# -- binary operations --------------------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    check_order(g.n + h.n, "union")
    return Graph._derived(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    check_order(g.n + h.n, "join")
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj] + [row << g.n | gmask for row in h.adj]
    return Graph._derived(g.n + h.n, rows)


def t_copies(g: Graph, t: int) -> Graph:
    """``t`` disjoint copies of ``g``; copy ``i`` takes ids ``i*|g|`` on."""
    if t < 1:
        raise BadParam("t must be at least 1")
    check_order(g.n * t, "copies")
    return Graph._derived(g.n * t, [row << i * g.n for i in range(t) for row in g.adj])


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex ``(u, w)`` gets id ``u * |h| + w``.

    Equivalently: one copy of ``g`` per vertex of ``h``, with same-label
    perfect matchings between copies whose indices are adjacent in ``h``.
    """
    n = g.n * h.n
    check_order(n, "product")
    rows = [0] * n
    for u in range(g.n):
        base = u * h.n
        for w in range(h.n):
            row = g.adj[u]  # vary u, fixed w
            out = 0
            for x in bits_of(row):
                out |= 1 << (x * h.n + w)
            for y in bits_of(h.adj[w]):  # fixed u, vary w
                out |= 1 << (base + y)
            rows[base + w] = out
    return Graph._derived(n, rows)


# -- structure tests ---------------------------------------------------------


def _bipartition(g: Graph) -> Optional[Tuple[int, int]]:
    color = [-1] * g.n
    a = b = 0
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        a |= 1 << s
        queue = [s]
        while queue:
            v = queue.pop()
            for u in bits_of(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    if color[u] == 0:
                        a |= 1 << u
                    else:
                        b |= 1 << u
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return a, b


def _is_claw_free(g: Graph, deadline=None) -> bool:
    """Whether no vertex has three pairwise nonadjacent neighbors; False
    ("not shown claw-free") once ``deadline`` expires.

    ``v`` centres a claw iff some neighbor ``x`` leaves ``N(v) - N[x]`` not
    a clique.  Each such set found to be a clique is grown greedily to a
    maximal clique of ``N(v)``, and an ``x`` whose set lies inside a clique
    already found is skipped: on a line graph two cliques settle ``v``.
    """
    adj = g.adj
    for v in range(g.n):
        if deadline is not None and deadline.expired():
            return False
        nbrs, cliques = adj[v], []
        for x in bits_of(nbrs):
            rest = nbrs & ~adj[x] & ~(1 << x)
            if not rest or any(rest & ~c == 0 for c in cliques):
                continue
            grow = nbrs  # ends as the neighbors of v adjacent to all of rest
            for y in bits_of(rest):
                if rest & ~adj[y] & ~(1 << y):
                    return False  # a claw: x, y and a vertex of rest that y misses
                grow &= adj[y]
            while grow:
                low = grow & -grow
                rest |= low
                grow &= adj[low.bit_length() - 1]
            cliques.append(rest)
    return True


def girth_at_least_5(g: Graph) -> bool:
    """Whether ``g`` has neither a triangle nor a 4-cycle.

    For each vertex ``u`` the rows ``N(w) - u`` of its neighbors ``w`` are
    accumulated: a bit inside ``N(u)`` closes a triangle, and a bit seen
    twice is a vertex with two common neighbors with ``u``, a 4-cycle.  That
    is a few big-int operations per edge end.
    """
    adj = g.adj
    for u in range(g.n):
        once = twice = 0
        not_u = ~(1 << u)
        for w in bits_of(adj[u]):
            row = adj[w] & not_u
            twice |= once & row
            once |= row
        if twice or once & adj[u]:
            return False
    return True


def is_triangle_free(g: Graph) -> bool:
    return all(g.adj[u] & g.adj[v] == 0 for u, v in g.edges())


def diameter(g: Graph) -> float:
    """Largest distance, by BFS from every vertex; ``math.inf`` if disconnected."""
    best: float = 0
    for v in range(g.n):
        dist = g.bfs_levels(v)
        if min(dist) < 0:
            return inf
        best = max(best, max(dist))
    return best
