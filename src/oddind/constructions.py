"""Explicit odd-independent-set constructions with verified preconditions.

The product constructions mirror two recursion theorems: an automorphism
``eta`` of ``G`` that moves every vertex to a neighbor along even orbits
lets an OIS of ``G`` be replicated across a bipartite even-degree pattern
graph ``H`` (size ``|H| * |S|``); and for bipartite ``H`` with all degrees
odd, an OIS of ``G box K_2`` split into its two copies replicates to size
``|A|*|S| + |B|*|S*|``.  Hypercube layer sets, the two explicit 8-cube
sets (112 and 104 vertices), and the Hoffman-Singleton 15-sets are frozen
as data with their documented vertex labelings.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .graphs import Graph, VertexSet, _bipartition, bits_of, cartesian_product, from_edge_list
from .independence import _as_mask, alpha, is_odd_independent
from .generators import complete
from .results import BudgetExceeded
from .symmetry import is_automorphism


class BadAutomorphism(ValueError):
    pass


class BadH(ValueError):
    pass


class NotOIS(ValueError):
    pass


def _orbit_lengths(perm: Sequence[int]):
    seen = [False] * len(perm)
    for v in range(len(perm)):
        if seen[v]:
            continue
        length = 0
        u = v
        while not seen[u]:
            seen[u] = True
            u = perm[u]
            length += 1
        yield length


def _check_eta(g: Graph, eta: Sequence[int]) -> Tuple[int, ...]:
    eta = tuple(eta)
    if not is_automorphism(g.adj, eta):
        raise BadAutomorphism("eta is not an automorphism")
    for v in range(g.n):
        if not g.has_edge(v, eta[v]):
            raise BadAutomorphism(f"eta({v}) is not a neighbor of {v}")
    if any(length % 2 for length in _orbit_lengths(eta)):
        raise BadAutomorphism("eta has an odd orbit")
    return eta


def _bipartition_sides(h: Graph, larger_first: bool = False):
    parts = _bipartition(h)
    if parts is None:
        raise BadH("pattern graph is not bipartite")
    a, b = (VertexSet(h.n, m) for m in parts)
    if larger_first and len(b) > len(a):
        a, b = b, a
    return a, b


def _replicate(g: Graph, h: Graph, a, s_a: int, b, s_b: int) -> VertexSet:
    """Copies of ``s_a`` over the side ``a`` of ``h`` and of ``s_b`` over
    ``b``, inside ``cartesian_product(g, h)``, re-verified as an OIS."""
    out = 0
    for side, s in ((a, s_a), (b, s_b)):
        for w in side.ids():
            for u in bits_of(s):
                out |= 1 << (u * h.n + w)
    product = cartesian_product(g, h)
    assert is_odd_independent(product, out), "construction failed verification"
    return VertexSet(product.n, out)


def construct_mu_ois(g: Graph, s, eta: Sequence[int], h: Graph) -> VertexSet:
    """Replicated OIS of size ``|h| * |s|`` inside ``cartesian_product(g, h)``.

    Copies of ``s`` sit on one side of the bipartition of ``h`` and copies
    of ``eta(s)`` on the other.
    """
    eta = _check_eta(g, eta)
    a, b = _bipartition_sides(h)
    if any(h.degree(w) % 2 for w in range(h.n)):
        raise BadH("pattern graph must have all degrees even")
    smask = _as_mask(g, s)
    if not is_odd_independent(g, smask):
        raise NotOIS("seed set is not odd independent")
    image = 0
    for u in bits_of(smask):
        image |= 1 << eta[u]
    return _replicate(g, h, a, smask, b, image)


def construct_gk2_ois(g: Graph, s_pair: Tuple[VertexSet, VertexSet], h: Graph) -> VertexSet:
    """Replicated OIS from a split OIS of ``g box K_2``.

    ``s_pair`` holds the two copy-restrictions (larger first); ``h`` must be
    bipartite with all degrees odd.  The result lives in
    ``cartesian_product(g, h)`` and has size ``|A|*|S| + |B|*|S*|``.
    """
    if any(h.degree(w) % 2 == 0 for w in range(h.n)):
        raise BadH("pattern graph must have all degrees odd")
    a, b = _bipartition_sides(h, larger_first=True)
    s0, s1 = (_as_mask(g, s) for s in s_pair)
    if s0.bit_count() < s1.bit_count():
        raise ValueError("the first set of the pair must be the larger one")
    doubled = cartesian_product(g, complete(2))
    pair_mask = 0
    for u in bits_of(s0):
        pair_mask |= 1 << (u * 2)
    for u in bits_of(s1):
        pair_mask |= 1 << (u * 2 + 1)
    if not is_odd_independent(doubled, pair_mask):
        raise NotOIS("the pair is not odd independent in the doubled graph")
    return _replicate(g, h, a, s0, b, s1)


def flip_last_coordinate(d: int) -> Tuple[int, ...]:
    """The hypercube automorphism toggling the last coordinate (all orbits
    have length 2 and every image is a neighbor)."""
    return tuple(v ^ 1 for v in range(1 << d))


def cube_layer_ois(k: int) -> VertexSet:
    """Layered OIS in the 4k-cube: odd layers ``1..2k-1`` avoiding the last
    coordinate plus odd layers ``2k+1..4k-1`` containing it.

    Size is ``2 * sum_{i=1..k} C(4k-1, 2i-1)``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    d = 4 * k
    if d > 12:
        raise ValueError("4k exceeds the supported cube dimension")
    n = 1 << d
    mask = 0
    for v in range(n):
        size = v.bit_count()
        if size % 2 == 0:
            continue
        has_last = v & 1  # last coordinate = least significant bit
        if size <= 2 * k - 1 and not has_last:
            mask |= 1 << v
        elif 2 * k + 1 <= size <= 4 * k - 1 and has_last:
            mask |= 1 << v
    return VertexSet(n, mask)


def q8_turan_ois() -> VertexSet:
    """The transparent 104-vertex OIS of the 8-cube.

    All 70 middle-layer vertices, the 16 pairs crossing the coordinate
    split ``{1..4} | {5..8}`` (they form a 4-regular bipartite graph on
    the 8 coordinates), their 16 complements, the empty set and the full
    set: 70 + 16 + 16 + 1 + 1 = 104 vertices.
    """
    high = [7, 6, 5, 4]  # bit positions of elements 1..4 (msb first)
    low = [3, 2, 1, 0]  # elements 5..8
    mask = 0
    for v in range(256):
        if v.bit_count() == 4:
            mask |= 1 << v
    mask |= 1 << 0
    mask |= 1 << 255
    for hbit in high:
        for lbit in low:
            pair = (1 << hbit) | (1 << lbit)
            mask |= 1 << pair
            mask |= 1 << (255 ^ pair)
    return VertexSet(256, mask)


_Q8_112_STRINGS = """
00000010 00000100 00000111 00001000 00001011 00001101 00001110
00010000 00010011 00010101 00010110 00011001 00011010 00011100
00100000 00100011 00100101 00100110 00101001 00101100 00101111
00110001 00110010 00110111 00111000 00111011 00111101 00111110
01000000 01000011 01000101 01001001 01001010 01001100 01001111
01010001 01010010 01010100 01010111 01011011 01011101 01011110
01100001 01100010 01100100 01100111 01101000 01101011 01101110
01110000 01110101 01110110 01111001 01111010 01111100 01111111
10000000 10000011 10000101 10000110 10001001 10001010 10001111
10010001 10010100 10010111 10011000 10011011 10011101 10011110
10100001 10100010 10100100 10101000 10101011 10101101 10101110
10110000 10110011 10110101 10110110 10111010 10111100 10111111
11000001 11000010 11000100 11000111 11001000 11001101 11001110
11010000 11010011 11010110 11011001 11011010 11011100 11011111
11100011 11100101 11100110 11101001 11101010 11101100 11101111
11110001 11110010 11110100 11110111 11111000 11111011 11111101
""".split()


def q8_112_ois() -> VertexSet:
    """The recorded maximum OIS of the 8-cube: 112 binary strings, each one
    literally the id of a vertex of ``hypercube(8)``."""
    ids = [int(s, 2) for s in _Q8_112_STRINGS]
    assert len(ids) == 112 and len(set(ids)) == 112
    return VertexSet.from_ids(256, ids)


HS_SEEDS = ((0, 2, 7), (0, 5, 8), (1, 3, 5), (1, 4, 9), (2, 6, 9))


def hs_15_ois(seed: Tuple[int, int, int] = (0, 2, 7)) -> VertexSet:
    """A 15-vertex OIS of the Hoffman-Singleton graph: the seed triple
    rotated by all multiples of 10.  Every vertex outside sees exactly 3."""
    if len(set(seed)) != 3 or not all(0 <= s < 50 for s in seed):
        raise ValueError("seed must be three distinct vertices")
    ids = [(s + 10 * j) % 50 for s in seed for j in range(5)]
    return VertexSet.from_ids(50, ids)


def hs_rotation_classes() -> List[VertexSet]:
    """Ten mutually disjoint OIS classes of the Hoffman-Singleton graph,
    obtained by rotating one 5-set and one 3-set by multiples of 10; they
    cover 40 vertices and extend to a 20-class strong odd coloring."""
    base5 = (0, 2, 6, 18, 47)
    base3 = (1, 3, 24)
    out = []
    for j in range(5):
        for base in (base5, base3):
            out.append(VertexSet.from_ids(50, [(s + 10 * j) % 50 for s in base]))
    return out


def extend_to_equal(g: Graph, budget=None) -> Graph:
    """One-vertex extension with equal independence and odd independence.

    The new vertex is joined to exactly the vertices outside a maximum
    independent set ``B`` that see ``B`` an even number of times, making
    ``B`` plus the new vertex an OIS of maximum size.
    """
    res = alpha(g, budget=budget)
    if not res.exact:
        raise BudgetExceeded("independence solve did not finish in budget")
    bmask = res.witness.mask
    edges = list(g.edges())
    w = g.n
    for v in range(g.n):
        if bmask >> v & 1:
            continue
        if (g.adj[v] & bmask).bit_count() % 2 == 0:
            edges.append((v, w))
    return from_edge_list(g.n + 1, edges)
