"""Strong odd coloring: verification and exact computation.

A proper coloring is strong odd exactly when every color class is an odd
independent set, so ``chi_so`` is the least number of OIS classes that
partition the vertex set.  Class feasibility is a property of the class
alone (parity is checked against all outside vertices), so the candidate
classes are enumerated completely per component; the parity condition is
not hereditary, so partially built classes are never parity-tested.

The cover is a decision search rather than a memoized minimum.  With
``top`` the largest candidate class (``alpha_od`` of the component), the
bound ``alpha_od * chi_so >= n`` makes ``ceil(n / top)`` the first ``k``
worth trying, and ``k`` rises until the vertex set splits into ``k``
classes.  The pivot vertex's class is chosen first, largest first, with
three sound cuts: a mask larger than ``k * top`` fails; a class smaller
than ``|mask| - (k - 1) * top`` leaves too much for the other classes, and
so do all classes after it; and a mask refuted for ``k`` classes is
refuted for every smaller ``k``.  A bipartite component with every degree
odd needs no search at any order: its two sides are OIS classes.

Cheapest certificate first: before the 22-vertex cap and before any class
is enumerated, a rung reads the certified ends off rungs 1 and 2 of the
component's ``alpha_od`` ladder.  The lower end is the largest of 3 (a
2-colouring of a connected graph is its bipartition, strong odd only when
every degree is odd), the greedy clique number, and ``ceil(n / u)`` for
the least registry upper end ``u``.  The upper end is ``n - |S| + 1`` for
the ladder's seed ``S`` after its greedy rung.  When they meet, the
component closes with ``S`` plus singleton classes and 0 nodes; otherwise
the cover starts from that lower end.  A component the cover does not
solve is coloured by the witness of the rest of that ladder plus
singletons, and ``ceil(n / u)`` for that ladder's upper end ``u``.
"""

from __future__ import annotations

from math import ceil
from typing import Iterable, List, Optional, Sequence, Tuple

from .graphs import Graph, _complement_rows, bits_of, from_edge_list, square
from .independence import (
    _as_mask,
    _Component,
    _components,
    is_independent,
    is_odd_independent,
    odd_bipartite_seed,
    odd_independent_set_masks,
)
from .matching import maximum_matching
from .results import BudgetExceeded, Deadline, SolveResult, default_budget


class AlphaTooLarge(ValueError):
    pass


class Coloring:
    """Total assignment vertex -> color index."""

    __slots__ = ("colors",)

    def __init__(self, colors: Iterable[int]):
        self.colors = tuple(colors)
        if any(c < 0 for c in self.colors):
            raise ValueError("colors must be non-negative")

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    def classes(self) -> List[int]:
        masks = _class_masks(self.colors)
        return [masks[c] for c in sorted(masks)]

    def __eq__(self, other):
        return isinstance(other, Coloring) and self.colors == other.colors

    def __repr__(self):
        return f"Coloring({list(self.colors)!r})"


def _class_masks(colors) -> dict:
    """Color -> mask of its class; any integer colors."""
    masks = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return masks


def _as_classes(g: Graph, c) -> Iterable[int]:
    colors = tuple(c.colors if isinstance(c, Coloring) else c)
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} entries for {g.n} vertices")
    return _class_masks(colors).values()


def is_proper_coloring(g: Graph, c) -> bool:
    """Every color class is independent."""
    return all(is_independent(g, m) for m in _as_classes(g, c))


def is_strong_odd_coloring(g: Graph, c) -> bool:
    """Every color class is an odd independent set: the coloring is proper,
    and every color present in an open neighborhood appears there an odd
    number of times."""
    return all(is_odd_independent(g, m) for m in _as_classes(g, c))


# -- exact chromatic number (used on squares) ----------------------------------


def _greedy_coloring(g: Graph) -> List[int]:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n
    for v in order:
        used = {colors[u] for u in bits_of(g.adj[v]) if colors[u] != -1}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _greedy_clique(g: Graph) -> int:
    best = 0
    for v in range(g.n):
        mask = 1 << v
        cand = g.adj[v]
        while cand:
            bit = cand & -cand
            mask |= bit
            cand &= g.adj[bit.bit_length() - 1]
        best = max(best, mask.bit_count())
    return best


def _greedy_matching_reaches(g: Graph, k: int) -> bool:
    """Whether a greedy maximal matching of ``g`` reaches ``k`` edges.  An
    independent set misses an end of each matching edge, so it then leaves
    at least ``k`` vertices out."""
    free, size = g.full_mask, 0
    while free and size < k:
        bit = free & -free
        free ^= bit
        partners = g.adj[bit.bit_length() - 1] & free
        if partners:
            free ^= partners & -partners
            size += 1
    return size >= k


def _k_colorable(g: Graph, k: int, deadline: Deadline, nodes: List[int]):
    """A k-coloring as a list, or None; vertices in degree-descending order.
    ``nodes[0]`` counts the search's calls, also when the budget runs out."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n

    def rec(i, used):
        nodes[0] += 1
        if nodes[0] & 1023 == 0 and deadline.expired():
            raise BudgetExceeded
        if i == len(order):
            return True
        v = order[i]
        forbidden = {colors[u] for u in bits_of(g.adj[v]) if colors[u] != -1}
        for c in range(min(used + 1, k)):
            if c in forbidden:
                continue
            colors[v] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            if c == used:  # first fresh color; higher fresh ids are symmetric
                break
        return False

    return list(colors) if rec(0, 0) else None


def chromatic_number(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact chromatic number by class backtracking per component."""
    deadline = Deadline(default_budget() if budget is None else budget)
    total = [0] * g.n
    value = 0
    proven_lower = 0
    nodes = [0]
    exact = True
    for sub, keep, share in _components(g, deadline):
        witness = _greedy_coloring(sub)
        k = max(witness) + 1
        lb = max(_greedy_clique(sub), 1)
        try:
            while k > lb:
                attempt = _k_colorable(sub, k - 1, share, nodes)
                if attempt is None:
                    lb = k  # k-1 colors proven impossible
                    break
                witness = attempt
                k -= 1
        except BudgetExceeded:
            exact = False
        for i, v in enumerate(keep):
            total[v] = witness[i]
        value = max(value, k)
        proven_lower = max(proven_lower, lb if exact else min(lb, k))
    coloring = Coloring(total)
    assert is_proper_coloring(g, coloring)
    if exact:
        return SolveResult(value, coloring, "backtracking", nodes=nodes[0],
                           millis=deadline.elapsed_ms())
    return SolveResult(value, coloring, "backtracking", exact=False,
                       lower=proven_lower, upper=value, nodes=nodes[0],
                       millis=deadline.elapsed_ms(), note="budget exhausted")


def chi_square(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact chromatic number of the square of ``g``."""
    return chromatic_number(square(g), budget=budget)


# -- exact strong odd chromatic number ------------------------------------------


class _OisCover:
    """Decision search for one connected component: can ``mask`` be split
    into at most ``k`` candidate OIS classes?

    ``solve`` first tries the certified ends (module docstring), then
    ``k = max(lower, ceil(n / top)), ...``, where ``top`` is the largest
    candidate class (the component's ``alpha_od``), so ``lower`` is always
    a proven lower bound on ``chi_so``, also when ``BudgetExceeded``
    escapes.  ``nodes`` counts calls of ``_fits``; ``note`` names the ends
    of a component closed before the cover.
    """

    def __init__(self, sub: Graph, deadline: Deadline):
        self.sub = sub
        self.deadline = deadline
        self.lower = 2 if sub.edge_count() else 1
        self.note = ""
        self.nodes = 0
        self.work = 0  # weighted by the candidates each call may scan
        self.failed = {}  # mask -> largest k refuted for it

    def solve(self) -> List[int]:
        """Class masks of a minimum cover; raises ``BudgetExceeded``."""
        sub, deadline = self.sub, self.deadline
        if sub.edge_count() == 0:
            return [sub.full_mask]
        # every vertex of an odd-degree bipartite component sees only the
        # other side, an odd number of times: both sides are OIS classes
        side = odd_bipartite_seed(sub)
        if side:
            return [side.mask, sub.full_mask ^ side.mask]
        closed = self._certified_ends()
        if closed:
            return closed
        if sub.n > 22:
            raise BudgetExceeded  # partition search is meant for desk scale
        # pivot v's candidates: the classes whose lowest vertex is v
        self.by_pivot = [[] for _ in range(sub.n)]
        for m in odd_independent_set_masks(sub, deadline):
            if m:
                self.by_pivot[(m & -m).bit_length() - 1].append(m)
        for lst in self.by_pivot:
            if deadline.expired():
                raise BudgetExceeded
            # larger classes first, ties by mask: two stable sorts on C-level keys
            lst.sort()
            lst.sort(key=int.bit_count, reverse=True)
        self.top = max(lst[0].bit_count() for lst in self.by_pivot if lst)
        # alpha_od * chi_so >= n: fewer than ceil(n / top) classes cannot cover
        for k in range(max(self.lower, -(-sub.n // self.top)), sub.n + 1):
            self.lower = k
            classes = self._fits(sub.full_mask, k)
            if classes is not None:
                return classes[::-1]
        raise AssertionError("n singleton classes always cover")

    def _certified_ends(self) -> Optional[List[int]]:
        """The rung before the cover: set ``lower`` to the largest certified
        lower end, then return one verified OIS seed plus singleton classes
        when ``n - |seed| + 1`` meets it, else None."""
        sub = self.sub
        self.comp = _Component(sub)  # every BudgetExceeded comes after this rung
        # not odd-degree bipartite (tested by the caller), so no 2-colouring
        ends = [(3, "not-odd-bipartite"), (_greedy_clique(sub), "clique")]
        least = self.comp.least
        if least:  # alpha_od * chi_so >= n
            ends.append((ceil(sub.n / least.value), f"n/{least.anchor}"))
        self.lower, anchor = max(ends, key=lambda e: e[0])
        # a seed leaving `lower` or more vertices out cannot close: skip it
        if _greedy_matching_reaches(sub, self.lower):
            return None
        seed = self.comp.greedy()
        rest = sub.full_mask ^ seed.mask
        if rest.bit_count() + 1 > self.lower:
            return None
        self.note = f"closed by {seed.anchor} seed = {anchor} (no cover search)"
        return [seed.mask] + [1 << v for v in bits_of(rest)]

    def _fits(self, mask, k):
        """At most ``k`` classes partitioning ``mask``, the pivot's class
        last, or None if there are none."""
        self.nodes += 1
        if not mask:
            return []
        size, top = mask.bit_count(), self.top
        if size > k * top or self.failed.get(mask, 0) >= k:
            return None
        pivot = (mask & -mask).bit_length() - 1
        self.work += 16 + len(self.by_pivot[pivot])
        if self.work >= 4096:
            self.work = 0
            if self.deadline.expired():
                raise BudgetExceeded
        # the other k - 1 classes hold at most (k - 1) * top vertices
        need = size - (k - 1) * top
        for c in self.by_pivot[pivot]:
            if c.bit_count() < need:
                break
            if c & ~mask:
                continue
            rest = self._fits(mask & ~c, k - 1)
            if rest is not None:
                rest.append(c)
                return rest
        self.failed[mask] = k  # no cover with k classes, nor with fewer
        return None


def chi_so_exact(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact strong odd chromatic number with a witness coloring.

    Components are solved independently (classes merge across components),
    so the lower end is the largest ``k`` proven necessary in any component.
    A component the cover does not solve (its cap or its share of the
    budget) is coloured by the witness of ``alpha_od``'s ladder on it, under
    what is left of that share, plus singletons; the solved ones keep their
    classes, so the upper end is the most classes any component uses.  The
    result is exact when the two ends meet.
    """
    deadline = Deadline(default_budget() if budget is None else budget)
    colors = [0] * g.n
    lower = upper = nodes = 0
    notes = {}  # distinct component notes, in order
    for sub, keep, share in _components(g, deadline):
        cover = _OisCover(sub, share)
        try:
            classes = cover.solve()
        except BudgetExceeded:  # the ladder's witness plus singletons
            od = cover.comp.solve(share)
            cover.lower = max(cover.lower, ceil(sub.n / od.upper))  # alpha_od * chi_so >= n
            classes = [od.witness.mask] + [1 << v for v in bits_of(sub.full_mask ^ od.witness.mask)]
        lower = max(lower, cover.lower)
        upper = max(upper, len(classes))
        nodes += cover.nodes
        notes.setdefault(cover.note)
        for ci, cmask in enumerate(classes):
            for v in bits_of(cmask):
                colors[keep[v]] = ci
    witness = Coloring(colors)
    assert is_strong_odd_coloring(g, witness)
    exact = lower == upper
    if not exact:
        notes.setdefault("budget exhausted")
    return SolveResult(upper, witness, "ois-partition", exact=exact,
                       lower=lower, upper=upper, nodes=nodes, millis=deadline.elapsed_ms(),
                       note="; ".join(n for n in notes if n))


def chi_so_alpha2(g: Graph) -> SolveResult:
    """Polynomial strong odd chromatic number when no independent triple
    exists: ``n`` minus a maximum matching of odd-independent pairs.

    A pair is odd independent exactly when its vertices are nonadjacent
    and share no neighbor (distance at least 3, or disconnected).
    """
    n = g.n
    nonadj = _complement_rows(g)
    for u in range(n):
        for v in bits_of(nonadj[u] >> (u + 1) << (u + 1)):
            third = nonadj[u] & nonadj[v] & ~((1 << (v + 1)) - 1)
            if third:
                raise AlphaTooLarge("graph has an independent triple")
    aux_edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and g.adj[u] & g.adj[v] == 0:
                aux_edges.append((u, v))
    m = maximum_matching(from_edge_list(n, aux_edges))
    k, witness = chi_so_upper_from_partition(g, [1 << u | 1 << v for u, v in sorted(m.pairs)])
    return SolveResult(k, witness, "alpha2-matching")


def chi_so_upper_from_partition(g: Graph, classes: Sequence):
    """Valid strong odd coloring from disjoint OIS classes plus singletons.

    One OIS ``S`` (say ``alpha_od(g).witness``) gives the ``n - |S| + 1``
    upper bound; a family of disjoint OIS classes (for instance a rotation
    scheme) can do better.
    """
    masks = []
    seen = 0
    for s in classes:
        mask = _as_mask(g, s)
        if mask & seen:
            raise ValueError("classes are not disjoint")
        if not is_odd_independent(g, mask):
            raise ValueError("a supplied class is not odd independent")
        seen |= mask
        masks.append(mask)
    masks += [1 << v for v in bits_of(g.full_mask ^ seen)]
    colors = [0] * g.n
    for i, mask in enumerate(masks):
        for v in bits_of(mask):
            colors[v] = i
    witness = Coloring(colors)
    assert is_strong_odd_coloring(g, witness)
    return len(masks), witness


def cube_chi_so(d: int) -> Tuple[int, Coloring]:
    """Strong odd chromatic number of the d-cube with an explicit witness:
    2 for odd d (the two sides of ``odd_bipartite_seed``, as in
    ``_OisCover.solve``), 4 for even d (parity classes refined by the
    leading coordinate)."""
    from .generators import hypercube

    if d < 1:
        raise ValueError("d must be at least 1")
    n = 1 << d
    if d % 2 == 1:
        side = odd_bipartite_seed(hypercube(d)).mask
        colors = [0 if side >> v & 1 else 1 for v in range(n)]
        value = 2
    else:
        colors = [2 * (v >> (d - 1)) + (v.bit_count() & 1) for v in range(n)]
        value = 4
    witness = Coloring(colors)
    assert is_strong_odd_coloring(hypercube(d), witness)
    return value, witness
