"""Closed-form bound evaluation, family criteria, and classification rules.

Every comparison is exact: bounds are evaluated as ``fractions.Fraction``
and square roots are compared squared, so a report entry is either
certainly satisfied, certainly violated, or omitted with a reason when an
inexact solver interval cannot decide it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf
from typing import List, Optional, Sequence, Tuple

from .coloring import chi_so_exact, chi_so_upper_from_partition
from .graphs import (
    BadParam,
    Graph,
    complement,
    diameter,
    from_edge_list,
    is_triangle_free,
    square,
)
from .independence import (
    _alpha_root_bound,
    alpha,
    alpha_od_bounded,
    even_regular_upper,
    girth5_seed,
    max_degree_lower,
    odd_bipartite_seed,
    square_seed,
    upper_bounds,
)
from .results import SolveResult, default_budget


class NotTriangleFree(ValueError):
    pass


@dataclass(frozen=True)
class BoundEntry:
    name: str
    lhs: Fraction
    rhs: Fraction
    relation: str  # "<=", ">=", "=="
    satisfied: bool
    anchor: str
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "relation": self.relation,
            "satisfied": self.satisfied,
            "anchor": self.anchor,
            "note": self.note,
        }


@dataclass
class BoundReport:
    graph_id: str
    entries: List[BoundEntry] = field(default_factory=list)
    omitted: List[Tuple[str, str]] = field(default_factory=list)

    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def to_json(self) -> dict:
        return {
            "graph": self.graph_id,
            "entries": [e.to_json() for e in self.entries],
            "omitted": [{"name": n, "reason": r} for n, r in self.omitted],
        }

    def to_text(self) -> str:
        rows = [("bound", "lhs", "rel", "rhs", "ok")]
        for e in self.entries:
            rows.append((e.name, str(e.lhs), e.relation, str(e.rhs),
                         "yes" if e.satisfied else "NO"))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                 for row in rows]
        for name, reason in self.omitted:
            lines.append(f"{name}: omitted ({reason})")
        return "\n".join(lines)


def _as_range(value, n: int) -> Tuple[int, int]:
    """``[lower, upper]`` of an exact value, a pair or a ``SolveResult``;
    a result with no upper end gets ``n``, which bounds both parameters."""
    if isinstance(value, tuple):
        lo, hi = value
        return int(lo), int(hi)
    if isinstance(value, SolveResult):
        return value.lower, value.upper if value.upper is not None else n
    return int(value), int(value)


def bound_report(g: Graph, alpha_od_value, chi_so_value,
                 chi_square_value: Optional[int] = None,
                 budget: Optional[float] = None,
                 name: Optional[str] = None) -> BoundReport:
    """Evaluate every applicable closed-form inequality against the given
    (exact or interval) values of the two parameters.

    Interval inputs are certified conservatively; an entry that the
    interval cannot decide is listed under ``omitted``.  The lower end of
    ``chi_so`` is raised to ``ceil(n / upper(alpha_od))`` by
    ``alpha_od * chi_so >= n``.
    """
    n = g.n
    report = BoundReport(name or f"graph(n={n},m={g.edge_count()})")
    if n == 0:
        return report
    a_lo, a_hi = _as_range(alpha_od_value, n)
    c_lo, c_hi = _as_range(chi_so_value, n)
    if a_hi > 0:
        # alpha_od * chi_so >= n; kept inside the given range, so that
        # inconsistent inputs still show as violations
        c_lo = max(c_lo, min(c_hi, -(-n // a_hi)))
    degs = [g.degree(v) for v in range(n)]
    delta = max(degs)
    sq = square(g)
    delta_sq = max((sq.degree(v) for v in range(n)), default=0)

    def add(name_, lhs_range, relation, rhs_range, anchor, note=""):
        (llo, lhi), (rlo, rhi) = lhs_range, rhs_range
        if relation == "==":
            holds, fails = llo == lhi == rlo == rhi, lhi < rlo or llo > rhi
            lhs, rhs = llo, rlo
        else:
            # "x >= y" is "y <= x": decide "small <= big" on the two ranges
            (slo, shi), (blo, bhi) = lhs_range, rhs_range
            if relation == ">=":
                (slo, shi), (blo, bhi) = rhs_range, lhs_range
            holds, fails = shi <= blo, slo > bhi
            lhs, rhs = (shi, blo) if relation == "<=" else (blo, shi)
        if holds or fails:
            report.entries.append(BoundEntry(name_, Fraction(lhs), Fraction(rhs), relation,
                                             holds, anchor, note))
        else:
            report.omitted.append((name_, "interval cannot decide"))

    def exactr(x) -> Tuple[Fraction, Fraction]:
        f = Fraction(x)
        return f, f

    # chain through the square
    if chi_square_value is not None:
        add("chi-so <= chi(square)", (c_lo, c_hi), "<=", exactr(chi_square_value),
            "coloring-chain")
        add("chi(square) <= maxdeg(square)+1", exactr(chi_square_value), "<=",
            exactr(delta_sq + 1), "coloring-chain")
    add("chi-so <= maxdeg(square)+1", (c_lo, c_hi), "<=", exactr(delta_sq + 1),
        "coloring-chain")
    add("maxdeg(square)+1 <= maxdeg^2+1", exactr(delta_sq + 1), "<=",
        exactr(delta * delta + 1), "coloring-chain")

    # quotient, product, and sum relations
    add("alpha-od >= n/chi-so", (a_lo, a_hi), ">=",
        (Fraction(n, c_hi), Fraction(n, c_lo)), "quotient-lower")
    add("alpha-od * chi-so >= n", (a_lo * c_lo, a_hi * c_hi), ">=", exactr(n),
        "product-lower")
    add("alpha-od * chi-so <= (n+1)^2/4", (a_lo * c_lo, a_hi * c_hi), "<=",
        exactr(Fraction((n + 1) ** 2, 4)), "product-upper")
    add("(alpha-od + chi-so)^2 >= 4n",
        ((a_lo + c_lo) ** 2, (a_hi + c_hi) ** 2), ">=", exactr(4 * n),
        "sum-lower", note="square-root comparison done squared")
    add("alpha-od + chi-so <= n+1", (a_lo + c_lo, a_hi + c_hi), "<=",
        exactr(n + 1), "sum-upper")

    # independence of the square: its root coloring bound decides the entry
    # once alpha-od reaches it; else solve, and a timeout leaves a range
    sq_mask, sq_hi = 0, _alpha_root_bound(sq)
    if a_lo < sq_hi:
        sq_res = alpha(sq, budget=default_budget() if budget is None else budget)
        sq_mask, sq_hi = sq_res.witness.mask, sq_res.upper
    sq_seed = square_seed(sq_mask)
    add(sq_seed.name, (a_lo, a_hi), ">=", (sq_seed.value, sq_hi), sq_seed.anchor)

    # degree-sum lower bounds
    cw = sum(Fraction(1, sq.degree(v) + 1) for v in range(n))
    add("alpha-od >= caro-wei(square)", (a_lo, a_hi), ">=", exactr(cw),
        "caro-wei")
    avg = Fraction(2 * g.edge_count(), n)
    add("caro-wei(square) >= n/(avgdeg*maxdeg+1)", exactr(cw), ">=",
        exactr(Fraction(n, 1) / (avg * delta + 1)), "caro-wei")

    for b in upper_bounds(g):
        add(b.name, (a_lo, a_hi), "<=", exactr(b.value), b.anchor, note=b.note)

    seed = girth5_seed(g)
    for b in [b for b in (seed, max_degree_lower(g)) if b]:
        add(b.name, (a_lo, a_hi), ">=", exactr(b.value), b.anchor)
    if seed:
        add("chi-so <= n - (maxdeg - eps) + 1", (c_lo, c_hi), "<=",
            exactr(n - seed.value + 1), seed.anchor)

    d = _hypercube_dimension(g)
    if d is not None and d >= 1:
        if d % 2 == 1:
            add("alpha-od == 2^(d-1)", (a_lo, a_hi), "==", exactr(odd_bipartite_seed(g).value),
                "cube-odd-equality")
        else:
            add("alpha-od <= (1 - 1/(2d-1)) 2^(d-1)", (a_lo, a_hi), "<=",
                exactr(even_regular_upper(g).value), "cube-even-upper")
    return report


def _hypercube_dimension(g: Graph) -> Optional[int]:
    from .generators import hypercube

    if g.n == 0 or g.n & (g.n - 1):
        return None
    d = g.n.bit_length() - 1
    if d > 12:
        return None
    return d if g.adj == hypercube(d).adj else None


# -- Kneser criterion ------------------------------------------------------------


def kneser_alpha_criterion(n: int, k: int) -> dict:
    """Parity test deciding whether the maximum independent sets of the
    Kneser graph are odd independent: true iff ``C(n-k-1, k-1)`` is odd.

    The parity is read off binary digits (a binomial is odd iff the lower
    index's bits are a submask of the upper index's); the companion
    identity check validates the equivalent summation form in exact
    integer arithmetic.
    """
    if k < 2 or n < 2 * k:
        raise BadParam("criterion needs k >= 2 and n >= 2k")
    a, b = n - k - 1, k - 1
    parity_odd = (b & (a - b)) == 0  # no carries in b + (a-b)
    assert parity_odd == (comb(a, b) % 2 == 1)

    def c(x, y):
        return comb(x, y) if 0 <= y <= x else 0

    lhs = sum(c(k, t) * c(n - k - 1, k - 1 - t) for t in range(1, k + 1))
    rhs = c(n - 1, k - 1) - c(n - k - 1, k - 1)
    return {"parity_odd": parity_odd, "equivalent_sum_check": lhs == rhs}


# -- complements of triangle-free graphs ------------------------------------------


@dataclass(frozen=True)
class CoTriangleFreeReport:
    diam: float
    diam_complement: float
    complement_connected: bool
    case: str
    alpha_od_complement: int
    alpha_square_complement: int
    chi_so_complement: Optional[int]  # None when the case predicts no value


def classify_cotrianglefree(g: Graph) -> CoTriangleFreeReport:
    """Predicted parameters of the complement of a triangle-free graph,
    from the diameters of the graph and its complement alone.

    The complement has no independent triple, so its diameter is at most
    3 when connected; diameter <= 2 forces a single-vertex optimum, while
    diameter 3 or a disconnected complement (two cliques) allows exactly
    a pair.
    """
    if g.n == 0:
        raise BadParam("classification needs at least one vertex")
    if not is_triangle_free(g):
        raise NotTriangleFree("graph has a triangle")
    comp = complement(g)
    diam_g = diameter(g)
    diam_c = diameter(comp)
    n = g.n
    if diam_c == inf:
        comps = comp.component_masks()
        assert len(comps) == 2, "complement of triangle-free splits into two cliques"
        big = max(c.bit_count() for c in comps)
        return CoTriangleFreeReport(diam_g, diam_c, False,
                                    "complement-disconnected", 2, 2, big)
    if diam_c <= 2:
        case = "diam>=4" if diam_g >= 4 else f"diam{int(diam_g)}-codiam{int(diam_c)}"
        return CoTriangleFreeReport(diam_g, diam_c, True, case, 1, 1, n)
    if diam_c == 3:
        return CoTriangleFreeReport(diam_g, diam_c, True,
                                    f"diam{int(diam_g)}-codiam3", 2, 2, None)
    raise AssertionError("complement of a triangle-free graph has diameter <= 3")


def verify_cotrianglefree(g: Graph) -> bool:
    """Check the classification against exhaustive computation (small n)."""
    rep = classify_cotrianglefree(g)
    comp = complement(g)
    got_aod = alpha_od_bounded(comp, 2)
    assert got_aod.exact
    sq_alpha = alpha(square(comp)).value
    if rep.alpha_od_complement != got_aod.value or rep.alpha_square_complement != sq_alpha:
        return False
    if rep.chi_so_complement is not None:
        if chi_so_exact(comp).value != rep.chi_so_complement:
            return False
    return True


# -- girth-5 ledger -----------------------------------------------------------------


def moore_exclusion_check(extra_graphs: Sequence[Tuple[str, Graph]] = ()) -> List[dict]:
    """Numeric ledger for the diameter-2 girth-5 extremal graphs.

    For each graph: the neighborhood lower bound on odd independence, the
    matching coloring upper bound ``n - (maxdeg - eps) + 1``, the best
    known strong-odd value, and whether that value stays below
    ``maxdeg^2 + 1`` (the pentagon attains it; the two larger graphs are
    excluded, the 50-vertex one via its 20-class rotation scheme).
    """
    from .generators import cycle, hoffman_singleton, petersen
    from .constructions import hs_rotation_classes

    out = []
    items: List[Tuple[str, Graph, Optional[int]]] = [
        ("pentagon", cycle(5), None),
        ("petersen", petersen(), None),
        ("hoffman-singleton", hoffman_singleton(), None),
    ]
    for name, g in extra_graphs:
        items.append((name, g, None))
    for name, g, _ in items:
        seed = girth5_seed(g)
        if seed is None:
            out.append({"graph": name, "applicable": False})
            continue
        delta = max(g.degree(v) for v in range(g.n))
        entry = {
            "graph": name,
            "applicable": True,
            "n": g.n,
            "max_degree": delta,
            "alpha_od_lower": int(seed.value),
            "chi_so_upper_lemma": g.n - int(seed.value) + 1,
            "delta_squared_plus_1": delta * delta + 1,
        }
        if g.n <= 12:
            entry["chi_so"] = chi_so_exact(g).value
            entry["attains_delta_sq_plus_1"] = entry["chi_so"] == delta * delta + 1
        elif name == "hoffman-singleton":
            k, _ = chi_so_upper_from_partition(g, hs_rotation_classes())
            entry["chi_so_upper_rotation"] = k
            entry["attains_delta_sq_plus_1"] = False  # 20 < 50
        out.append(entry)
    return out


# -- deterministic random sampler ---------------------------------------------------


def random_connected_graph(n: int, p: float, seed: int,
                           min_degree: int = 0) -> Graph:
    """Uniform G(n, p) filtered to connectivity (and an optional degree
    floor); fully determined by the seed."""
    rng = random.Random(seed)
    for _ in range(10000):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = from_edge_list(n, edges)
        if g.is_connected() and min(g.degree(v) for v in range(n)) >= min_degree:
            return g
    raise RuntimeError("sampler failed to hit a connected graph")


# -- cubic census --------------------------------------------------------------------


def cubic_census(order: int = 8) -> List[Graph]:
    """Connected 3-regular graphs on ``order`` vertices whose strong odd
    chromatic number equals the order (equivalently: no odd independent
    set of two or more vertices)."""
    from .enumeration import connected_cubic_graphs
    from .independence import alpha_od_bruteforce

    hits = []
    for g in connected_cubic_graphs(order):
        if alpha_od_bruteforce(g).value == 1 and chi_so_exact(g).value == g.n:
            hits.append(g)
    return hits
