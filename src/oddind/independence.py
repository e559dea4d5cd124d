"""Odd independence: verification, exact solvers, and search pruning rules.

An odd independent set (OIS) is an independent set ``S`` such that every
vertex outside ``S`` sees either zero or an odd number of members of ``S``.
The parity condition is not hereditary under taking subsets, so the exact
search below branches over the hereditary envelope (independent sets).  Each
node carries two bitsets of the chosen rows: ``odd``, their XOR (the vertices
with an odd count), and ``seen``, their OR (the vertices with a positive
count).  A chosen independent set is an OIS iff ``seen & ~odd == 0``, so each
child is tested in O(1) big-int operations.  Four sound cuts prune it:

* pair cuts: no OIS contains a *forbidden pair* (nonadjacent ``x, y`` with a
  common neighbor ``z`` whose closed neighborhood lies inside
  ``N[x] + N[y]``) nor a *forcing pair*, so partners of a chosen vertex are
  dropped from the candidate pool;
* bounds: a greedy clique cover of the pool bounds what the subtree can
  add, and the search stops once it meets the independence number or an
  upper end of the registry below;
* parity closure: a vertex ``u`` in ``seen`` is adjacent to the chosen set,
  so it never joins it, and its final count must be odd.  Over GF(2) the
  pool vertices ``x`` still to be taken satisfy ``(rows[u] & pool) . x =
  [u in seen & ~odd]``.  Each node keeps this system in reduced row-echelon
  form, derived from its parent's on entry and closed again after each
  branch with that sibling out of the pool (``x_v = 0``: every set of the
  later subtrees avoids it), both by ``_OisSearch._closure``.  An
  inconsistent system ends the node's sibling loop, a row ``x_w = 0`` drops
  ``w`` from the pool, and a row ``x_w = 1`` stops the loop after ``w``,
  since no later sibling's pool holds it.  A vertex of ``seen & ~odd`` with
  no neighbor left in the pool is the one-row case: its row reads ``0 =
  1``.  Every derived row is an XOR of true rows with the XOR of their
  right sides, so the cuts hold whatever the elimination order (XOR
  reasoning by Gauss-Jordan elimination, as in Soos, Nohl & Castelluccia,
  SAT 2009);
* orbits at every node (orbital branching): a node with chosen set ``S``
  and pool ``P`` skips a branch ``v`` that a proved automorphism fixing
  ``S`` and ``P`` setwise maps onto an earlier vertex ``u``.  It maps each
  OIS ``S + T`` with ``v`` in ``T``, a subset of ``P``, onto one of the
  same size that holds ``u``, which an earlier branch covers.  The group
  comes from ``symmetry.orbits`` started from the partition ``[S, P,
  rest]``, in a third of the remaining time.  The search keeps the
  generators its proofs found, and a proof first joins those that fix
  ``S`` and ``P``, so it matches only the vertices they leave apart.  A
  group is proved only when the node is about to enter a further branch
  with ``best < upper``: at the root at once, below it once the node's
  subtree has spent ``|E|/2`` search nodes, about what a proof costs.  A
  root group with no generator ends the proofs, since every other group
  is one of its subgroups.

The certified bounds and seeds on ``alpha_od`` form one registry (after
``_OisSearch``), one function per fact returning a ``Bound`` with its value
and anchor: the even-regular and common-neighbor upper ends, the max-degree
lower end, and the square, independence-witness, odd-bipartite and
girth-5 seeds.  The solver, ``bounds.bound_report`` and the paper suite
all read it.

A component is solved by one ladder, cheapest certificate first.  It
narrows one pair, the best verified seed (replaced only by a strictly
larger one) and the upper end, and stops at the first rung where they meet
or, past the greedy rung, the deadline has expired:

1. the registry seeds, and the least registry upper end (else the order);
2. the greedy rung: a static-order greedy independent set of the square
   (``greedy_square_mask``), given to ``lower_bound_seed`` with the
   registry seeds, with no clique solve and 0 nodes, on a spent budget too
   (``chi_so_exact`` reads it, and the ladder's witness, off ``_Component``);
3. the clique solves: ``alpha`` of the square gives a seed and ``alpha(g)``
   the upper end, and its maximum independent set a seed when that set is
   an OIS; or, on a claw-free graph, ``alpha`` of the square gives both,
   since there ``alpha_od = alpha(G^2)`` (the paper's theorem);
4. the search ``_OisSearch`` above, started from that seed and upper end.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterator, List, NamedTuple, Optional

from .graphs import (
    Graph,
    VertexSet,
    _bipartition,
    _complement_rows,
    _is_claw_free,
    bits_of,
    girth_at_least_5,
    square,
)
from .results import (
    BOUNDED_K,
    BRANCH_BOUND,
    BRUTE_FORCE,
    ODD_REGULAR_BIPARTITE,
    BudgetExceeded,
    Deadline,
    SolveResult,
    default_budget,
)
from .symmetry import orbits


def _as_mask(g: Graph, s) -> int:
    if isinstance(s, VertexSet):
        if s.n != g.n:
            raise ValueError("vertex set bound to a different order")
        return s.mask
    if isinstance(s, int):
        if s >> g.n:
            raise ValueError("mask has bits outside the graph")
        return s
    return VertexSet.from_ids(g.n, s).mask


def is_independent(g: Graph, s) -> bool:
    mask = _as_mask(g, s)
    for v in bits_of(mask):
        if g.adj[v] & mask:
            return False
    return True


def is_odd_independent(g: Graph, s) -> bool:
    """Exact OIS predicate: independent, and outside counts are 0 or odd."""
    mask = _as_mask(g, s)
    if not is_independent(g, mask):
        return False
    return _outside_parity_ok(g.adj, mask)


def _outside_parity_ok(rows, mask) -> bool:
    # ``odd`` holds the vertices with an odd count, ``seen`` those with a
    # positive one; a vertex outside ``mask`` in ``seen & ~odd`` is even
    odd = seen = 0
    for v in bits_of(mask):
        odd ^= rows[v]
        seen |= rows[v]
    return seen & ~odd & ~mask == 0


def odd_profile(g: Graph, s) -> List[int]:
    """Per-vertex counts ``|N(v) & S|`` (diagnostic for certificates)."""
    mask = _as_mask(g, s)
    return [(g.adj[v] & mask).bit_count() for v in range(g.n)]


# -- forbidden and forcing pairs ---------------------------------------------


@dataclass(frozen=True)
class PairClassification:
    forbidden: frozenset  # of (u, v) with u < v
    forcing: tuple  # of ((u, v), witness_center)

    def pair_rows(self, n: int) -> List[int]:
        """Per-vertex masks of partners excluded from any common OIS."""
        rows = [0] * n
        for u, v in self.forbidden:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        for (u, v), _ in self.forcing:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return rows


def pair_classification(g: Graph, deadline: Optional[Deadline] = None) -> PairClassification:
    """Enumerate the forbidden and forcing pairs of ``g``.

    Once ``deadline`` expires, the pairs found so far are returned.  That is
    sound: pairs are only cuts, and a forcing pair is found from known
    forbidden pairs, so a missing forbidden pair can only hide forcing pairs.
    """
    n, adj = g.n, g.adj
    closed = [adj[v] | 1 << v for v in range(n)]
    forb_rows = [0] * n
    forbidden = set()
    # (x, y) is forbidden through z in N(x) iff y is in rem = N[z] - N[x]
    # (so y is a neighbor of z, not of x) and rem lies inside N[y], that is,
    # y is in N[w] for every w in rem; the bit loops are inlined (hot path)
    for x in range(n):
        if deadline is not None and deadline.expired():
            return PairClassification(frozenset(forbidden), ())
        above, cx, found = -1 << (x + 1), closed[x], 0
        for z in bits_of(adj[x]):
            rem = closed[z] & ~cx
            cand = rem & above & ~found
            while cand and rem:
                low = rem & -rem
                cand &= closed[low.bit_length() - 1]
                rem ^= low
            found |= cand
        forb_rows[x] |= found
        for y in bits_of(found):
            forbidden.add((x, y))
            forb_rows[y] |= 1 << x
    # (x, y), both in N(z) and nonadjacent, is forcing iff every w in N(z)
    # outside N[x] + N[y] is a forbidden partner of x or y: with
    # T = N(z) - N[x] - forb[x], y is in N[w] + forb[w] for every w in T
    excused = [closed[w] | forb_rows[w] for w in range(n)]
    forcing = []
    seen = [0] * n  # seen[x]: the partners y > x of forcing pairs found so far
    for z in range(n):
        if deadline is not None and deadline.expired():
            break
        nz = xs = adj[z]
        while xs:
            bit = xs & -xs
            xs ^= bit
            x = bit.bit_length() - 1
            out = nz & ~closed[x]
            cand = out & -(bit << 1) & ~seen[x]
            t = out & ~forb_rows[x]
            while cand and t:
                low = t & -t
                cand &= excused[low.bit_length() - 1]
                t ^= low
            if cand:
                seen[x] |= cand
                forcing.extend(((x, y), z) for y in bits_of(cand))
    return PairClassification(frozenset(forbidden), tuple(forcing))


# -- maximum independent set (branch and bound on the complement clique) -----


class _CliqueSolver:
    """Max-clique search with greedy-coloring bounds (bitset rows)."""

    def __init__(self, rows, n, deadline: Deadline):
        self.rows = rows
        self.n = n
        self.deadline = deadline
        self.best = 0
        self.best_mask = 0
        self.nodes = 0
        self.timed_out = False
        self.root_bound = n

    def seed(self, mask: int):
        size = mask.bit_count()
        if size > self.best:
            self.best = size
            self.best_mask = mask

    def run(self):
        full = (1 << self.n) - 1
        self.root_bound = self.color_bound(full)
        self._expand(full, 0, 0)

    def color_bound(self, P) -> int:
        """Classes of the greedy coloring of ``P``: no clique in it is larger."""
        bounds = self._coloring(P)[1]
        return bounds[-1] if bounds else 0

    def _coloring(self, P):
        """Greedy coloring of ``P`` into independent classes: the vertices in
        class order, and each one's class number."""
        order = []
        bounds = []
        Q = P
        color = 0
        while Q:
            color += 1
            avail = Q
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~self.rows[v] & ~(1 << v)
                Q &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        return order, bounds

    def _expand(self, P, size, mask):
        self.nodes += 1
        if self.nodes & 255 == 1 and self.deadline.expired():  # from the first node on
            self.timed_out = True
            return
        order, bounds = self._coloring(P)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= self.best:
                return
            v = order[i]
            bit = 1 << v
            child = P & self.rows[v]
            if child:
                self._expand(child, size + 1, mask | bit)
                if self.timed_out:
                    return
            elif size + 1 > self.best:
                self.best = size + 1
                self.best_mask = mask | bit
            P &= ~bit


def _relabel(mask, new_id) -> int:
    """Image of ``mask`` under the vertex map ``v -> new_id[v]``.

    ``new_id`` is a permutation of ``0..n-1``, so the image of the
    complement is the complement of the image: the sparser side is mapped.
    """
    n = len(new_id)
    if 2 * mask.bit_count() > n:
        full = (1 << n) - 1
        return full ^ _relabel(full ^ mask, new_id)
    out = 0
    for v in bits_of(mask):
        out |= 1 << new_id[v]
    return out


def _inverse(order) -> List[int]:
    """``pos`` with ``pos[order[i]] == i``: relabel by it to renumber by ``order``."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _ordered_clique_solver(rows, n, deadline):
    """A clique solver on ``rows`` renumbered by decreasing degree (tighter
    colorings), with ``pos`` into that numbering and ``order`` back."""
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    pos = _inverse(order)
    return _CliqueSolver([_relabel(rows[v], pos) for v in order], n, deadline), pos, order


def _alpha_root_bound(g: Graph) -> int:
    """The coloring bound that ``alpha(g)`` starts its search from (its
    ``upper`` on a timeout), without the search."""
    solver, _, _ = _ordered_clique_solver(_complement_rows(g), g.n, None)
    return solver.color_bound(g.full_mask)


def alpha(g: Graph, budget: Optional[float] = None, seed=None) -> SolveResult:
    """Exact maximum independent set via clique search on the complement."""
    deadline = Deadline(default_budget() if budget is None else budget)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * g.n + 1000))
    solver, pos, order = _ordered_clique_solver(_complement_rows(g), g.n, deadline)
    if seed is not None:
        seed_mask = _as_mask(g, seed)
        if not is_independent(g, seed_mask):
            raise ValueError("seed is not independent")
        solver.seed(_relabel(seed_mask, pos))
    if g.n:  # the empty graph: 0 nodes
        solver.run()
    exact = not solver.timed_out
    return SolveResult(
        value=solver.best,
        witness=VertexSet(g.n, _relabel(solver.best_mask, order)),
        method=BRANCH_BOUND,
        exact=exact,
        lower=solver.best,
        upper=solver.best if exact else solver.root_bound,
        nodes=solver.nodes,
        millis=deadline.elapsed_ms(),
    )


def alpha_square(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Maximum independent set of the square (always an OIS of ``g``)."""
    return alpha(square(g), budget=budget)


# -- exact odd independence ----------------------------------------------------


def independent_set_masks(g: Graph) -> Iterator[int]:
    """Yield every independent set of ``g`` once."""
    rows = g.adj

    def rec(s, p):
        yield s
        while p:
            bit = p & -p
            v = bit.bit_length() - 1
            p ^= bit
            yield from rec(s | bit, p & ~rows[v])

    yield from rec(0, g.full_mask)


def odd_independent_set_masks(g: Graph, deadline: Optional[Deadline] = None) -> List[int]:
    """All OIS masks (exponential; meant for small graphs).

    Walks the independent sets like ``independent_set_masks`` and carries
    the parity bitsets of the chosen rows, so each set is tested in O(1).
    Raises ``BudgetExceeded`` once ``deadline`` expires.
    """
    rows = g.adj
    out: List[int] = []
    nodes = 0

    def rec(s, p, odd, seen):
        nonlocal nodes
        nodes += 1
        if nodes & 1023 == 0 and deadline is not None and deadline.expired():
            raise BudgetExceeded("odd independent set walk hit its budget")
        if seen & ~odd == 0:
            out.append(s)
        while p:
            bit = p & -p
            row = rows[bit.bit_length() - 1]
            p ^= bit
            rec(s | bit, p & ~row, odd ^ row, seen | row)

    rec(0, g.full_mask, 0, 0)
    return out


def alpha_od_bruteforce(g: Graph) -> SolveResult:
    """Plain exhaustive scan over all vertex subsets; the test oracle."""
    if g.n > 22:
        raise ValueError("brute force capped at 22 vertices")
    best, best_mask = 0, 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if is_independent(g, mask) and _outside_parity_ok(g.adj, mask):
            best, best_mask = mask.bit_count(), mask
    return SolveResult(best, VertexSet(g.n, best_mask), BRUTE_FORCE)


def _cover_fits(rows, P, k) -> bool:
    """Whether the greedy clique cover of ``P`` uses at most ``k`` cliques.

    The cover bounds any independent subset of ``P``; it stops as soon as
    it needs a clique more than ``k``.
    """
    Q = P
    while Q:
        if k <= 0:
            return False
        k -= 1
        bit = Q & -Q
        clique = bit
        cand = Q & rows[bit.bit_length() - 1]
        while cand:
            b2 = cand & -cand
            clique |= b2
            cand &= rows[b2.bit_length() - 1]
        Q &= ~clique
    return k >= 0


_WORK_PER_CHECK = 4096  # OIS search work between deadline checks: 4 a node, 1 a row operation


class _OisSearch:
    """Branch and bound over the independent sets, in ``order``.

    The vertices are renumbered once so that ``order[i]`` is vertex ``i``;
    walking the bits of the candidate pool from the lowest then follows
    ``order``.  Each node carries ``odd`` (XOR of the chosen rows: the
    vertices with an odd count) and ``seen`` (OR of the chosen rows: those
    with a positive count), so a chosen set is an OIS iff
    ``seen & ~odd == 0``; an independent set never meets ``seen``.

    Parity closure (module docstring): a node also carries ``basis``, its
    parity system in reduced row-echelon form as ``{pivot bit: row}``.  A
    row is a pool bitmask with its right side in bit ``n``; a new pivot is
    the row's highest pool bit, so the earlier siblings that leave a pool
    seldom take a pivot with them.  One site in the sibling loop closes the
    system, on entry and after each branch, and then tests the clique-cover
    bound.  ``parity`` counts the inconsistent systems (each ends a sibling
    loop), the vertices excluded and the sibling loops stopped by a forced
    vertex.
    The deadline is read at the first node and then whenever ``work``
    reaches ``_WORK_PER_CHECK``, so at most every 1,024 nodes and sooner
    where the systems are large.

    Orbit cut (module docstring): the root, and a node whose subtree has
    spent ``threshold`` nodes (|E|/2, about a proof's cost), prove before
    their next branch the automorphisms fixing ``s`` and the pool setwise,
    then skip each branch ``v`` with ``least[v] < v``.  ``automorphisms``
    holds the generators the proofs found (the pool of ``orbits``), and
    ``generators`` counts those of every proved group, pooled or found.
    """

    def __init__(self, g: Graph, bad_rows, order, deadline, best_mask, upper):
        self.order = order
        pos = _inverse(order)
        self.rows = [_relabel(g.adj[v], pos) for v in order]
        self.bad = [_relabel(bad_rows[v], pos) for v in order]
        self.n = g.n
        self.rhs = 1 << g.n  # the right-side bit of a parity row
        self.deadline = deadline
        self.best_mask = _relabel(best_mask, pos)
        self.best = best_mask.bit_count()
        self.upper = upper
        self.nodes = 0
        self.work = _WORK_PER_CHECK  # since the last deadline check; full, so node 1 checks
        self.timed_out = False
        self.threshold = g.edge_count() / 2
        self.root = None  # (least vertex of each orbit, generators) at the root
        self.proofs = 0  # nodes whose group was proved
        self.automorphisms = []  # of ``rows``: the generators the proofs found
        self.generators = 0  # of the proved groups, pooled or found
        self.skipped = [0, 0]  # branches cut by the orbits: at the root, below it
        self.parity = [0, 0, 0]  # parity closure: nodes pruned, vertices excluded, stops

    def run(self):
        self._expand(0, (1 << self.n) - 1, 0, 0, {}, 0, 0)
        self.best_mask = _relabel(self.best_mask, self.order)

    def _closure(self, basis, p, bit, fresh):
        """The parity system of a node with pool ``p``, entered by taking
        ``bit`` at a parent whose system is ``basis``; ``fresh`` holds the
        vertices the node newly sees.  With ``bit = fresh = 0`` it is the
        node's own ``basis`` again once siblings have left ``p``.

        Returns ``(basis, p, forced)``: the node's reduced system with its
        excluded vertices dropped from it and from ``p``, and the mask of
        the forced vertices; or None if the system is inconsistent.
        """
        rhs, rows, full = self.rhs, self.rows, self.rhs - 1
        keep, sub = p | rhs, bit | rhs
        drop = ~keep
        out, redo = {}, []
        for piv, r in basis.items():
            if r & bit:
                r ^= sub  # x_v = 1
            if r & drop:  # the columns that leave the pool are 0
                r &= keep
            if piv & p:
                out[piv] = r
            else:
                redo.append(r)
        for w in bits_of(fresh):  # w sees one chosen vertex, so an even rest
            redo.append(rows[w] & p)
        self.work += 4 + len(basis) + len(redo) * (1 + len(out))
        pivots = 0
        for piv in out:
            pivots |= piv
        for r in redo:
            m = r & pivots
            while m:  # reduce by the rows whose pivot r holds
                low = m & -m
                r ^= out[low]
                m ^= low
            body = r & full
            if not body:
                if r:
                    self.parity[0] += 1
                    return None  # 0 = 1: no extension is an OIS
                continue
            piv = 1 << (body.bit_length() - 1)
            for q, t in out.items():
                if t & piv:
                    out[q] = t ^ r
            out[piv] = r
            pivots |= piv
        forced = 0
        for piv, r in list(out.items()):
            if r == piv:  # x_w = 0 in every solution
                del out[piv]
                p ^= piv
                self.parity[1] += 1
            elif r == piv | rhs:  # x_w = 1 in every solution
                forced |= piv
        return out, p, forced

    def _expand(self, s, p, odd, seen, basis, bit, fresh):
        self.nodes += 1
        if self.work >= _WORK_PER_CHECK:  # from the first node on
            self.work = 0
            if self.deadline.expired():
                self.timed_out = True
                return
        if self.best >= self.upper:
            return
        rows, bad = self.rows, self.bad
        size = s.bit_count()
        start, least = self.nodes, None
        while True:
            # the node's system: on entry, taking ``bit``; after each branch,
            # with the siblings already branched on out of the pool (x = 0)
            closed = self._closure(basis, p, bit, fresh)
            if closed is None:
                return
            basis, p, forced = closed
            if _cover_fits(rows, p, self.best - size):
                return
            stop = forced & -forced  # no later sibling's pool holds it
            if start == self.nodes:  # no branch taken yet
                pool = p
            elif (least is None and p and self.best < self.upper
                    and (not s or self.nodes - start >= self.threshold)):
                rest = ((1 << self.n) - 1) ^ s ^ pool
                least, gens = orbits(rows, _slice(self.deadline), start=[s, pool, rest],
                                     pool=self.automorphisms)
                self.proofs += 1
                self.generators += len(gens)
                if not s:  # no root generator, none below it: stop proving
                    self.root = least, gens
                    self.threshold = self.threshold if gens else float("inf")
            while p:
                bit = p & -p
                v = bit.bit_length() - 1
                p ^= bit
                if least is None or least[v] >= v:
                    break
                self.skipped[s > 0] += 1
            else:
                return
            row = rows[v]
            child_odd = odd ^ row
            child_seen = seen | row
            if size + 1 > self.best and child_seen & ~child_odd == 0:
                self.best = size + 1
                self.best_mask = s | bit
            self._expand(s | bit, p & ~row & ~bad[v], child_odd, child_seen, basis, bit,
                         row & ~seen)
            if self.timed_out:
                return
            if bit == stop or not p:
                self.parity[2] += p != 0
                return
            bit = fresh = 0


# -- the registry of certified bounds and seeds ---------------------------------


class Bound(NamedTuple):
    """A certified end of ``alpha_od``: value, anchor, report name and note,
    and for a seed its OIS."""

    value: Fraction
    anchor: str
    name: str = ""
    note: str = ""
    mask: int = 0


def _regular_degree(g: Graph) -> Optional[int]:
    d = g.degree(0) if g.n else None
    return d if all(g.degree(v) == d for v in range(g.n)) else None


def even_regular_upper(g: Graph) -> Optional[Bound]:
    """``alpha_od <= (d-1)n/(2d-1)`` on a ``d``-regular graph with ``d`` even."""
    d = _regular_degree(g)
    if d is None or d < 2 or d % 2:
        return None
    return Bound(Fraction((d - 1) * g.n, 2 * d - 1), "even-regular-upper",
                 "alpha-od <= (d-1)n/(2d-1)")


def common_neighbor_upper(g: Graph) -> Optional[Bound]:
    """On a ``d``-regular graph whose edges have at least ``L`` common
    neighbors: ``(d-L-1)n/(2d-L-1)`` if ``d-L`` is even, else
    ``(d-L)n/(2d-L)``.  ``L <= d-1``, so no denominator vanishes."""
    d = _regular_degree(g)
    if not d:
        return None
    # adjacent u, v share at least 2d - n neighbours: stop at that floor
    floor, lam = max(0, 2 * d - g.n), d
    for u, v in g.edges():
        lam = min(lam, (g.adj[u] & g.adj[v]).bit_count())
        if lam == floor:
            break
    if (d - lam) % 2 == 0:
        return Bound(Fraction((d - lam - 1) * g.n, 2 * d - lam - 1), "common-neighbor-upper",
                     "alpha-od <= (d-L-1)n/(2d-L-1)", f"floor L={lam}, d-L even")
    return Bound(Fraction((d - lam) * g.n, 2 * d - lam), "common-neighbor-upper",
                 "alpha-od <= (d-L)n/(2d-L)", f"floor L={lam}, d-L odd")


def upper_bounds(g: Graph) -> List[Bound]:
    """The registry upper ends that apply to ``g``, in report order."""
    return [b for b in (even_regular_upper(g), common_neighbor_upper(g)) if b]


def least_upper_bound(g: Graph) -> Optional[Bound]:
    """The least registry upper end of ``g`` (the first on a tie), or None."""
    return min(upper_bounds(g), key=lambda b: b.value, default=None)


def square_seed(square_mask: int) -> Bound:
    """``alpha(G^2) <= alpha_od``: an independent set of the square is an
    OIS, since no vertex sees two of its members."""
    return Bound(Fraction(square_mask.bit_count()), "square-independence",
                 "alpha-od >= alpha(square)", mask=square_mask)


def independence_seed(alpha_mask: int) -> Bound:
    """A maximum independent set as ``alpha`` returns it: a seed only once
    ``lower_bound_seed`` has verified that it is an OIS."""
    return Bound(Fraction(alpha_mask.bit_count()), "independence-witness", mask=alpha_mask)


def odd_bipartite_seed(g: Graph) -> Optional[Bound]:
    """The larger bipartition class when every degree is odd; on a regular
    graph it has ``alpha = n/2`` vertices, so it is optimal."""
    if any(g.degree(v) % 2 == 0 for v in range(g.n)):
        return None
    parts = _bipartition(g)
    if not parts:
        return None
    cls = max(parts, key=int.bit_count)
    return Bound(Fraction(cls.bit_count()), ODD_REGULAR_BIPARTITE, mask=cls)


def girth5_seed(g: Graph) -> Optional[Bound]:
    """At girth at least 5, an odd number of neighbors of a vertex of
    maximum degree (any other vertex sees at most one): ``maxdeg - eps``."""
    v = max(range(g.n), key=lambda u: (g.degree(u), -u), default=None)
    if v is None or not g.adj[v] or not girth_at_least_5(g):
        return None
    row = g.adj[v]
    if row.bit_count() % 2 == 0:
        row ^= 1 << (row.bit_length() - 1)  # keep the lowest deg - 1
    return Bound(Fraction(row.bit_count()), "girth5-neighborhood", "alpha-od >= maxdeg - eps",
                 mask=row)


def max_degree_lower(g: Graph) -> Optional[Bound]:
    """``alpha_od >= n/(maxdeg^2-1)`` once ``maxdeg >= 3``; a value, no seed."""
    d = max(map(g.degree, range(g.n)), default=0)
    return Bound(Fraction(g.n, d * d - 1), "max-degree-lower",
                 "alpha-od >= n/(maxdeg^2-1)") if d >= 3 else None


def registry_seeds(g: Graph) -> List[Bound]:
    """The registry seeds that apply to ``g``, in pick order: the
    odd-bipartite and the girth-5 seed."""
    return [b for b in (odd_bipartite_seed(g), girth5_seed(g)) if b]


def lower_bound_seed(g: Graph, square_mask: int, seeds: List[Bound]) -> Bound:
    """Largest verified OIS among, in order, a singleton (a set of the
    square too), ``square_seed(square_mask)`` and ``seeds`` (those of
    ``registry_seeds``, or ``independence_seed``); a later one wins only
    when strictly larger."""
    if g.n == 0:
        return square_seed(0)
    best = square_seed(1)
    for b in [square_seed(square_mask)] + seeds:
        if b.mask.bit_count() > best.mask.bit_count() and is_odd_independent(g, b.mask):
            best = b
    return best


def greedy_square_mask(sq: Graph) -> int:
    """A maximal independent set of the square ``sq`` by one static-order
    greedy pass: vertices by ascending degree, ties by id."""
    taken = blocked = 0
    for v in sorted(range(sq.n), key=lambda v: (sq.adj[v].bit_count(), v)):
        if not blocked >> v & 1:
            taken |= 1 << v
            blocked |= sq.adj[v]
    return taken


def _ois_search(g: Graph, sq: Graph, deadline: Deadline, best_mask, upper) -> _OisSearch:
    """The solver's search on ``g``: the pair cuts found within ``deadline``,
    and the vertices by decreasing degree in the square ``sq``."""
    bad = pair_classification(g, deadline).pair_rows(g.n)
    sq_deg = [r.bit_count() for r in sq.adj]
    order = sorted(range(g.n), key=lambda v: (-sq_deg[v], v))
    return _OisSearch(g, bad, order, deadline, best_mask, upper)


def _slice(deadline: Deadline) -> Deadline:
    """A third of what ``deadline`` has left, at most 30 s (unbounded if it
    is), and at least 3.3 ms unless it has expired: then so has the slice."""
    remaining = deadline.remaining()
    if remaining is None:
        return Deadline(None)
    return Deadline(min(max(remaining, 0.01) / 3, 30.0) if remaining > 0 else remaining)


class _Component:
    """The ladder on a connected ``g``, each rung run once: rung 1's upper end here,
    its seeds and rung 2 on the first ``greedy`` (keeping the square), 3 and 4 in ``solve``."""

    def __init__(self, g: Graph):
        self.g, self.sq, self.best = g, None, None
        self.least = least = least_upper_bound(g)
        self.upper, self.source = (floor(least.value), least.anchor) if least else (g.n, "order")

    def greedy(self) -> Bound:
        """The best seed after the greedy rung, also on a spent budget."""
        if self.best is None:
            seeds = registry_seeds(self.g)
            self.best = lower_bound_seed(self.g, 0, seeds)
            if self.best.value < self.upper:
                self.sq = square(self.g)
                self.best = lower_bound_seed(self.g, greedy_square_mask(self.sq), seeds)
        return self.best

    def solve(self, deadline: Deadline) -> SolveResult:
        """Rungs 2 to 4, each only while ``best`` is below ``upper``; 3 and 4 need time left."""
        g, upper, source = self.g, self.upper, self.source
        nodes, notes, search = 0, [], None
        best = self.greedy()
        if best.value < upper and not deadline.expired():  # the clique solves
            claw_free = _is_claw_free(g, deadline)
            budget = _slice(deadline).remaining()
            witness = []
            if not claw_free:
                res = alpha(g, budget=budget)
                nodes += res.nodes
                if res.upper < upper:
                    upper, source = res.upper, "independence"
                witness = [independence_seed(res.witness.mask)]
            res = alpha(self.sq, budget=budget)
            nodes += res.nodes
            if claw_free and res.upper < upper:  # alpha_od = alpha(G^2)
                upper, source = res.upper, "claw-free-square"
            best = max(best, lower_bound_seed(g, res.witness.mask, witness), key=lambda b: b.value)
        if best.value < upper and not deadline.expired():  # the search
            search = _ois_search(g, self.sq, deadline, best.mask, upper)
            search.run()
            nodes += search.nodes
            if search.proofs:
                root = ""
                if search.root:
                    least, gens = search.root
                    root = (f"{len(set(least))} orbit(s) from {len(gens)} proved generator(s) at"
                            f" the root, {search.skipped[0]} root branch(es) skipped; ")
                found = len(search.automorphisms)
                notes.append(f"orbit cut: {root}groups proved at {search.proofs} node(s) from"
                             f" {search.generators - found} pooled and {found} found generator(s),"
                             f" {search.skipped[1]} branch(es) below the root skipped")
            pruned, excluded, stops = search.parity
            notes.append(f"parity closure: {pruned} node(s) pruned, {excluded} vertex(es)"
                         f" excluded, {stops} sibling loop(s) stopped by a forced vertex")
        mask = search.best_mask if search else best.mask
        value = mask.bit_count()
        exact = value >= upper or (search is not None and not search.timed_out)
        if not exact:
            notes.append("budget exhausted")
        elif not search:  # a clique solve spends at least one node
            notes.append(f"closed by {best.anchor} seed = {source}"
                         + ("" if nodes else " (no clique solve)"))
        return SolveResult(value, VertexSet(g.n, mask), BRANCH_BOUND, exact=exact,
                           upper=value if exact else upper, nodes=nodes, note="; ".join(notes))


def _components(g: Graph, deadline: Deadline):
    """``(sub, keep, share)`` per component, smallest first: ``share`` is what is
    left over the components left, so the largest gets what the others left."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * g.n + 1000))
    comps = sorted(g.component_masks(), key=int.bit_count)
    for left, comp in zip(range(len(comps), 0, -1), comps):
        yield (*g.induced(comp), deadline if left == 1 or deadline.limit is None
               else Deadline(deadline.remaining() / left))


def alpha_od(g: Graph, budget: Optional[float] = None) -> SolveResult:
    """Exact odd independence number with witness (interval on timeout).

    Odd independence is additive over connected components, so each
    component is solved on its own and the witnesses are merged.
    """
    deadline = Deadline(default_budget() if budget is None else budget)
    total_mask = value = upper = nodes = 0
    exact = True
    notes = {}  # distinct component notes, in order
    for sub, keep, share in _components(g, deadline):
        res = _Component(sub).solve(share)
        total_mask |= sum(1 << keep[v] for v in res.witness.ids())
        value += res.value
        upper += res.upper
        nodes += res.nodes
        exact = exact and res.exact
        notes.setdefault(res.note)
    return SolveResult(value, VertexSet(g.n, total_mask), BRANCH_BOUND, exact=exact,
                       upper=upper, nodes=nodes, millis=deadline.elapsed_ms(),
                       note="; ".join(n for n in notes if n))


def alpha_od_bounded(g: Graph, k: int) -> SolveResult:
    """Best OIS over all subsets of size at most ``k`` (exhaustive scan).

    Exact exactly when the independence number is at most ``k``, which the
    scan itself certifies by looking for an independent ``k+1``-subset.
    """
    from itertools import combinations

    if k < 1:
        raise ValueError("k must be at least 1")
    nodes = 0

    def subsets(j):
        nonlocal nodes
        for combo in combinations(range(g.n), j):
            nodes += 1
            yield sum(1 << v for v in combo)

    # the largest size j <= k with an OIS: the first such j, going down
    best_mask = 0
    for j in range(min(k, g.n), 0, -1):
        best_mask = next((m for m in subsets(j) if is_odd_independent(g, m)), 0)
        if best_mask:
            break
    best = best_mask.bit_count()
    alpha_le_k = k >= g.n or not any(is_independent(g, m) for m in subsets(k + 1))
    return SolveResult(best, VertexSet(g.n, best_mask), BOUNDED_K,
                       exact=alpha_le_k, lower=best,
                       upper=best if alpha_le_k else None, nodes=nodes)
