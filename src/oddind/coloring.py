"""Strong odd coloring: verification and exact computation.

A proper coloring is strong odd exactly when every color class is an odd
independent set, so ``chi_so`` is the least number of OIS classes that
partition the vertex set.  Class feasibility is a property of the class
alone (parity is checked against all outside vertices), so the candidate
classes are enumerated completely per component; the parity condition is
not hereditary, so partially built classes are never parity-tested.

Both colouring solvers run one driver, ``_coloured``.  Each component gives
a proven lower end and its classes, and the classes merge across components
by index, so the lower end is the largest any component proves and the
upper end the most classes any component uses.  The result is exact when
the two ends meet, also when a dominated component ran out of budget.  A
component stops once its classes are at most the lower end of the
components before it (it cannot move the merged answer), and still reports
its own proven lower end: the chromatic search after its greedy colouring,
``chi_so`` once rung 3's seed fits.

``_chi_so_component`` runs its rungs in this order, cheapest first:

1. an edgeless component is one class;
2. a bipartite component with every degree odd is its two sides, as every
   vertex sees only the other side, an odd number of times;
3. the certified ends, read off rungs 1 and 2 of the component's
   ``alpha_od`` ladder.  The lower end is the largest of 3 (a 2-colouring
   of a connected graph is its bipartition, and rung 2 took the one kind
   that is strong odd), the greedy clique number, and
   ``ceil(n / u)`` for the least registry upper end ``u``.  The upper end
   is ``n - |S| + 1`` for the ladder's seed ``S`` after its greedy rung.
   When they meet, or the upper end is dominated, ``S`` plus singleton
   classes close the component with 0 nodes;
4. on at most 22 vertices, the cover: a decision search from that lower
   end.  With ``top`` the largest candidate class (``alpha_od`` of the
   component), ``alpha_od * chi_so >= n`` makes ``ceil(n / top)`` the
   first ``k`` worth trying, and ``k`` rises until the vertex set splits
   into ``k`` classes.  The pivot vertex's class is chosen first, largest
   first, with three sound cuts: a mask larger than ``k * top`` fails; a
   class smaller than ``|mask| - (k - 1) * top`` leaves too much for the
   other classes, and so do all classes after it; and a mask refuted for
   ``k`` classes is refuted for every smaller ``k``;
5. otherwise (over the cap, or out of its share of the budget) the witness
   of the rest of the ladder plus singletons, with ``ceil(n / u)`` for that
   ladder's upper end ``u`` as one more lower end.
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


def _coloured(g: Graph, budget: Optional[float], component, verify, method: str) -> SolveResult:
    """The driver of both colouring solvers (module docstring): ``component(sub,
    share, floor)`` gives ``(lower, classes, nodes, note)`` per component, and
    may stop once its classes are at most ``floor``, the lower end so far."""
    deadline = Deadline(default_budget() if budget is None else budget)
    colors = [0] * g.n
    lower = upper = nodes = 0
    notes = {}  # distinct component notes, in order
    for sub, keep, share in _components(g, deadline):
        low, classes, count, note = component(sub, share, lower)
        lower, upper, nodes = max(lower, low), max(upper, len(classes)), nodes + count
        notes.setdefault(note)
        for ci, cmask in enumerate(classes):
            for v in bits_of(cmask):
                colors[keep[v]] = ci
    witness = Coloring(colors)
    assert verify(g, witness)
    if lower < upper:
        notes.setdefault("budget exhausted")
    return SolveResult(witness, method, lower, upper, nodes=nodes,
                       millis=deadline.elapsed_ms(), note="; ".join(n for n in notes if n))


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
    """The largest clique grown greedily from a vertex; it stops at a clique
    of a vertex and all its neighbours, as no clique is larger."""
    best, cap = 0, max(map(int.bit_count, g.adj), default=-1) + 1
    for v in range(g.n):
        if best == cap:
            break
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


def _chromatic_component(sub: Graph, share: Deadline, floor: int):
    """Greedy colouring, then one colour fewer at a time down to the clique,
    or down to ``floor``."""
    witness = _greedy_coloring(sub)
    k, lower, nodes = max(witness) + 1, max(_greedy_clique(sub), 1), [0]
    try:
        while k > max(lower, floor):
            attempt = _k_colorable(sub, k - 1, share, nodes)
            if attempt is None:
                lower = k  # k - 1 colours proven impossible
                break
            witness, k = attempt, k - 1
    except BudgetExceeded:
        pass
    return lower, Coloring(witness).classes(), nodes[0], ""


def chromatic_number(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact chromatic number by class backtracking per component."""
    return _coloured(g, budget, _chromatic_component, is_proper_coloring, "backtracking")


def chi_square(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact chromatic number of the square of ``g``."""
    return chromatic_number(square(g), budget=budget)


# -- exact strong odd chromatic number ------------------------------------------


class _OisCover:
    """Decision search for one connected component of at most 22 vertices:
    can ``mask`` be split into at most ``k`` candidate OIS classes?

    ``lower`` starts at the certified lower end and rises to each ``k`` as it
    is tried, so it stays proven also when ``BudgetExceeded`` escapes;
    ``nodes`` counts calls of ``_fits``.
    """

    def __init__(self, sub: Graph, deadline: Deadline, lower: int):
        self.sub = sub
        self.deadline = deadline
        self.lower = lower
        self.nodes = 0
        self.work = 0  # weighted by the candidates each call may scan
        self.failed = {}  # mask -> largest k refuted for it

    def solve(self) -> List[int]:
        """Class masks of a minimum cover; raises ``BudgetExceeded``."""
        sub, deadline = self.sub, self.deadline
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


def _with_singletons(sub: Graph, mask: int) -> List[int]:
    return [mask] + [1 << v for v in bits_of(sub.full_mask ^ mask)]


def _certified_ends(sub: Graph, comp: _Component, floor: int):
    """Rung 3 on a component that is not odd-degree bipartite: the largest
    certified lower end, and the ladder's seed plus singleton classes when
    ``n - |seed| + 1`` is at most that end (with its note) or ``floor``,
    else None and ""."""
    ends = [(3, "not-odd-bipartite"), (_greedy_clique(sub), "clique")]
    least = comp.least
    if least:  # alpha_od * chi_so >= n
        ends.append((ceil(sub.n / least.value), f"n/{least.anchor}"))
    lower, anchor = max(ends, key=lambda e: e[0])
    target = max(lower, floor)
    # a seed leaving `target` or more vertices out cannot close: skip it
    if _greedy_matching_reaches(sub, target):
        return lower, None, ""
    seed = comp.greedy()
    upper = sub.n - seed.mask.bit_count() + 1
    if upper > target:
        return lower, None, ""
    note = f"closed by {seed.anchor} seed = {anchor} (no cover search)" if upper <= lower else ""
    return lower, _with_singletons(sub, seed.mask), note


def _chi_so_component(sub: Graph, share: Deadline, floor: int):
    """The rungs of the module docstring, in order, on one component."""
    if sub.edge_count() == 0:
        return 1, [sub.full_mask], 0, ""
    side = odd_bipartite_seed(sub)
    if side:
        return 2, [side.mask, sub.full_mask ^ side.mask], 0, ""
    comp = _Component(sub)
    lower, classes, note = _certified_ends(sub, comp, floor)
    if classes:
        return lower, classes, 0, note
    nodes = 0
    if sub.n <= 22:  # the cover is meant for desk scale
        cover = _OisCover(sub, share, lower)
        try:
            classes = cover.solve()
            return cover.lower, classes, cover.nodes, ""
        except BudgetExceeded:
            lower, nodes = cover.lower, cover.nodes
    od = comp.solve(share)
    return max(lower, ceil(sub.n / od.upper)), _with_singletons(sub, od.witness.mask), nodes, ""


def chi_so_exact(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact strong odd chromatic number with a witness coloring, or the
    proven interval when the budget runs out (module docstring)."""
    return _coloured(g, budget, _chi_so_component, is_strong_odd_coloring, "ois-partition")


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
    return SolveResult(witness, "alpha2-matching", k, k)


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
    ``_chi_so_component``), 4 for even d (parity classes refined by the
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
