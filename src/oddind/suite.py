"""The built-in reproduction suite: every recorded value checked end to end.

Each item recomputes a family of recorded results with the exact solvers
and reports expected versus computed; every mismatch fails the suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil, comb
from typing import Callable, Dict, List, Optional, Sequence

from . import generators as gen
from .bounds import (
    bound_report,
    classify_cotrianglefree,
    cubic_census,
    kneser_alpha_criterion,
    random_connected_graph,
    verify_cotrianglefree,
)
from .coloring import (
    chi_so_alpha2,
    chi_so_exact,
    chi_so_upper_from_partition,
    chi_square,
    cube_chi_so,
    is_strong_odd_coloring,
)
from .constructions import (
    construct_mu_ois,
    cube_layer_ois,
    flip_last_coordinate,
    hs_15_ois,
    hs_rotation_classes,
    q8_112_ois,
    q8_turan_ois,
)
from .graphs import Graph, complement, diameter, disjoint_union, is_triangle_free, square, t_copies
from .independence import (
    alpha,
    alpha_od,
    alpha_od_bruteforce,
    even_regular_upper,
    is_odd_independent,
    max_degree_lower,
    odd_independent_set_masks,
    odd_profile,
    pair_classification,
)
from .matching import maximum_matching


@dataclass
class Check:
    item: int
    name: str
    expected: str
    computed: str
    ok: bool
    millis: int = 0


def _check(item, name, expected, computed, ok=None) -> Check:
    if ok is None:
        ok = expected == computed
    return Check(item, name, str(expected), str(computed), bool(ok))


def _ois_check(item, name, g, s, size) -> Check:
    """``s`` is an OIS of ``g`` with ``size`` vertices."""
    ok = is_odd_independent(g, s)
    return _check(item, name, f"{size}, OIS", f"{len(s)}, {'OIS' if ok else 'not OIS'}",
                  ok=ok and len(s) == size)


# -- item 1: paths and cycles ---------------------------------------------------


def item_paths_cycles(budget=None) -> List[Check]:
    t0 = time.monotonic()
    out = []
    for n in range(1, 19):
        got = alpha_od(gen.path(n))
        out.append(_check(1, f"alpha-od(P_{n})", ceil(n / 3), got.value,
                          ok=got.exact and got.value == ceil(n / 3)))
    for n in range(3, 19):
        got = alpha_od(gen.cycle(n))
        out.append(_check(1, f"alpha-od(C_{n})", ceil((n - 2) / 3), got.value,
                          ok=got.exact and got.value == ceil((n - 2) / 3)))
    elapsed = time.monotonic() - t0
    out.append(_check(1, "paths+cycles wall time", "< 5 s", f"{elapsed:.1f} s",
                      ok=elapsed < 5.0))
    return out


# -- item 2: the 10-vertex Moore graph -------------------------------------------


def item_petersen(budget=None) -> List[Check]:
    t0 = time.monotonic()
    g = gen.petersen()
    out = []
    res = alpha_od(g)
    out.append(_check(2, "alpha-od(petersen)", 3, res.value,
                      ok=res.exact and res.value == 3))
    cs = chi_so_exact(g)
    out.append(_check(2, "chi-so(petersen)", 6, cs.value,
                      ok=cs.exact and cs.value == 6))
    neighborhoods = {g.adj[v] for v in range(g.n)}
    maxima = [m for m in odd_independent_set_masks(g) if m.bit_count() == 3]
    out.append(_check(2, "every maximum OIS is a neighborhood",
                      "10 of 10", f"{sum(m in neighborhoods for m in maxima)} of {len(maxima)}",
                      ok=len(maxima) == 10 and all(m in neighborhoods for m in maxima)))
    elapsed = time.monotonic() - t0
    out.append(_check(2, "petersen wall time", "< 5 s", f"{elapsed:.1f} s",
                      ok=elapsed < 5.0))
    return out


# -- item 3: the 50-vertex Moore graph --------------------------------------------


def item_hoffman_singleton(budget=None) -> List[Check]:
    g = gen.hoffman_singleton()
    out = []
    s15 = hs_15_ois()
    prof = odd_profile(g, s15)
    outside = {prof[v] for v in range(50) if v not in s15}
    out.append(_check(3, "15-set is OIS", True, is_odd_independent(g, s15)))
    out.append(_check(3, "15-set outside counts", "{3}", str(outside),
                      ok=outside == {3}))
    res = alpha(g, budget=300.0, seed=s15)
    out.append(_check(3, "alpha(50-vertex Moore graph)", 15, res.value,
                      ok=res.exact and res.value == 15))
    # sandwich closes the odd independence number: 15 <= alpha_od <= alpha = 15
    out.append(_check(3, "alpha-od via sandwich", 15,
                      15 if res.exact and res.value == 15 else "open",
                      ok=res.exact and res.value == 15))
    k, coloring = chi_so_upper_from_partition(g, hs_rotation_classes())
    out.append(_check(3, "20-class rotation coloring", "20 classes, valid",
                      f"{k} classes, {'valid' if is_strong_odd_coloring(g, coloring) else 'invalid'}",
                      ok=k == 20 and is_strong_odd_coloring(g, coloring)))
    counting = all(12 * k - 75 > comb(k, 2) for k in range(11, 15))
    out.append(_check(3, "size 11..14 exclusion: 12k-75 > C(k,2)", True, counting))
    return out


# -- item 4: hypercubes ------------------------------------------------------------


def item_hypercubes(budget=None) -> List[Check]:
    out = []
    for d in range(1, 9):
        value, coloring = cube_chi_so(d)
        expect = 2 if d % 2 else 4
        ok = value == expect and is_strong_odd_coloring(gen.hypercube(d), coloring)
        out.append(_check(4, f"chi-so(Q_{d}) witness", expect, value, ok=ok))
    r3 = alpha_od(gen.hypercube(3))
    out.append(_check(4, "alpha-od(Q_3)", 4, r3.value, ok=r3.exact and r3.value == 4))
    r5 = alpha_od(gen.hypercube(5))
    out.append(_check(4, "alpha-od(Q_5)", 16, r5.value, ok=r5.exact and r5.value == 16))
    t0 = time.monotonic()
    r4 = alpha_od(gen.hypercube(4))
    dt = time.monotonic() - t0
    out.append(_check(4, "alpha-od(Q_4) exact", 6, r4.value,
                      ok=r4.exact and r4.value == 6 and dt < 10.0))
    q8 = gen.hypercube(8)
    s112, s104 = q8_112_ois(), q8_turan_ois()
    out.append(_ois_check(4, "Q_8 112-set verifies", q8, s112, 112))
    out.append(_ois_check(4, "Q_8 104-set verifies", q8, s104, 104))
    ub8 = even_regular_upper(q8).value
    out.append(_check(4, "Q_8 even-d upper bound", 119, ub8.__floor__(),
                      ok=int(ub8) == 119 and 112 <= 119))
    rep = bound_report(q8, (112, 119), 4, name="Q_8")
    cube_entry = [e for e in rep.entries if e.anchor == "cube-even-upper"]
    out.append(_check(4, "Q_8 report carries cube bound", "1 entry, satisfied",
                      f"{len(cube_entry)} entry, {'satisfied' if cube_entry and cube_entry[0].satisfied else 'missing'}",
                      ok=len(cube_entry) == 1 and cube_entry[0].satisfied))
    q6 = gen.hypercube(6)
    s24 = construct_mu_ois(gen.hypercube(4), cube_layer_ois(1),
                           flip_last_coordinate(4), gen.hypercube(2))
    out.append(_ois_check(4, "Q_6 lower bound 24 by construction", q6, s24, 24))
    ub6 = even_regular_upper(q6).value.__floor__()
    out.append(_check(4, "Q_6 even-regular upper bound", 29, ub6))
    r6 = alpha_od(q6, budget=budget)
    out.append(_check(4, "alpha-od(Q_6) exact", 24,
                      r6.value if r6.exact else f"open, interval [{r6.lower}, {r6.upper}]",
                      ok=r6.exact and r6.value == 24 and is_odd_independent(q6, r6.witness)))
    return out


# -- item 5: complete subdivisions ---------------------------------------------------


def item_subdivisions(budget=None) -> List[Check]:
    out = []
    for n, expect in [(2, 3), (3, 3), (4, 5), (5, 5)]:
        got = chi_so_exact(gen.complete_subdivision(n))
        out.append(_check(5, f"chi-so(S(K_{n}))", expect, got.value,
                          ok=got.exact and got.value == expect))
    for n in (2, 3, 4, 5):
        expect = comb(n, 2) if n % 2 == 0 else comb(n - 1, 2) + 1
        got = alpha_od(gen.complete_subdivision(n))
        out.append(_check(5, f"alpha-od(S(K_{n}))", expect, got.value,
                          ok=got.exact and got.value == expect))
    # n = 6: all-subdivision-vertices construction meets the independence bound
    g6 = gen.complete_subdivision(6)
    subdiv = ((1 << g6.n) - 1) ^ ((1 << 6) - 1)
    a6 = alpha(g6)
    ok = (is_odd_independent(g6, subdiv) and subdiv.bit_count() == 15
          and a6.exact and a6.value == 15)
    out.append(_check(5, "alpha-od(S(K_6)) construction + upper bound", 15,
                      subdiv.bit_count() if ok else "unverified", ok=ok))
    return out


# -- item 6: half graphs ----------------------------------------------------------------


def item_half_graphs(budget=None) -> List[Check]:
    out = []
    for n in range(2, 6):
        g = gen.half_graph(n)
        cs = chi_so_exact(g)
        out.append(_check(6, f"chi-so(H_{n},{n})", n + 1, cs.value,
                          ok=cs.exact and cs.value == n + 1))
        res = alpha_od(g)
        maxima = [m for m in odd_independent_set_masks(g) if m.bit_count() == 2]
        def pair_form(mask):
            lo = (mask & -mask).bit_length() - 1
            hi = mask.bit_length() - 1
            # u_j has id j-1 < n, v_i has id n+i-1; form needs i < j
            return lo < n <= hi and (hi - n + 1) < (lo + 1)
        ok = (res.exact and res.value == 2 and pair_form(res.witness.mask)
              and all(pair_form(m) for m in maxima))
        out.append(_check(6, f"alpha-od(H_{n},{n}) witnesses {{v_i,u_j}} i<j",
                          2, res.value, ok=ok))
    return out


# -- item 7: products of complete graphs --------------------------------------------------


def item_complete_products(budget=None) -> List[Check]:
    out = []
    for p, q in [(2, 3), (3, 3), (3, 4)]:
        g = gen.kbox(p, q)
        res = alpha_od(g)
        out.append(_check(7, f"alpha-od(K_{p} box K_{q})", 1, res.value,
                          ok=res.exact and res.value == 1))
        if (p, q) == (2, 3):
            cs = chi_so_exact(g)
            out.append(_check(7, "chi-so(K_2 box K_3) exact cross-check", 6,
                              cs.value, ok=cs.exact and cs.value == 6))
        else:
            # alpha_od = 1 forces chi_so = n (quotient lower + trivial upper)
            implied = g.n if res.value == 1 else None
            out.append(_check(7, f"chi-so(K_{p} box K_{q}) implied", p * q, implied))
    return out


# -- item 8: Kneser parity criterion ---------------------------------------------------------


def item_kneser(budget=None) -> List[Check]:
    out = []
    for n, k in [(5, 2), (6, 2), (7, 2), (8, 2)]:
        crit = kneser_alpha_criterion(n, k)
        g = gen.kneser(n, k)
        a = alpha(g)
        aod = alpha_od(g)
        agrees = (aod.value == a.value) == crit["parity_odd"]
        out.append(_check(8, f"KG({n},{k}) parity prediction",
                          "matches solver",
                          f"alpha={a.value} alpha-od={aod.value} odd={crit['parity_odd']}",
                          ok=a.exact and aod.exact and agrees))
    identity_ok = all(
        kneser_alpha_criterion(n, k)["equivalent_sum_check"]
        for k in range(2, 7) for n in range(2 * k, 21)
    )
    out.append(_check(8, "summation identity, k<=6, n<=20", True, identity_ok))
    return out


# -- item 9: the polynomial algorithm at independence number 2 ---------------------------------


def item_alpha2(budget=None) -> List[Check]:
    from .enumeration import graphs_upto, triangle_free_upto

    out = []
    checked = 0
    mismatches = 0
    for tf in triangle_free_upto(10):
        g = complement(tf)
        fast = chi_so_alpha2(g)
        slow = chi_so_exact(g)
        checked += 1
        if not (fast.value == slow.value and slow.exact):
            mismatches += 1
    out.append(_check(9, "alpha<=2 algorithm vs exact (<=10 vertices)",
                      "0 mismatches", f"{mismatches} mismatches of {checked}",
                      ok=mismatches == 0 and checked >= 14000))

    def brute_matching(g: Graph) -> int:
        memo = {}

        def rec(mask):
            if mask in memo:
                return memo[mask]
            v = -1
            for u in range(g.n):
                if mask >> u & 1 and g.adj[u] & mask:
                    v = u
                    break
            if v == -1:
                memo[mask] = 0
                return 0
            best = rec(mask & ~(1 << v))
            for u in range(g.n):
                if g.adj[v] >> u & 1 and mask >> u & 1:
                    best = max(best, 1 + rec(mask & ~(1 << v) & ~(1 << u)))
            memo[mask] = best
            return best

        return rec(g.full_mask)

    bad = 0
    total = 0
    for g in graphs_upto(8):
        total += 1
        if maximum_matching(g).size != brute_matching(g):
            bad += 1
    out.append(_check(9, "matching vs brute force (<=8 vertices)",
                      "0 mismatches", f"{bad} mismatches of {total}",
                      ok=bad == 0 and total >= 13000))
    return out


# -- item 10: property suites -------------------------------------------------------------------


def item_properties(budget=None) -> List[Check]:
    from .enumeration import graphs_upto

    out = []
    sandwich_bad = chain_bad = product_bad = pair_bad = oracle_bad = 0
    count = 0
    for g in graphs_upto(7):
        count += 1
        n = g.n
        a = alpha(g).value
        asq = alpha(square(g)).value
        bf = alpha_od_bruteforce(g).value
        solver = alpha_od(g)
        if not (solver.exact and solver.value == bf):
            oracle_bad += 1
        if not asq <= bf <= a:
            sandwich_bad += 1
        cs = chi_so_exact(g).value
        csq = chi_square(g).value
        dsq = max((square(g).degree(v) for v in range(n)), default=0)
        delta = max((g.degree(v) for v in range(n)), default=0)
        if not cs <= csq <= dsq + 1 <= delta * delta + 1:
            chain_bad += 1
        if n:
            if not (n <= bf * cs and 4 * bf * cs <= (n + 1) ** 2):
                product_bad += 1
            if not (4 * n <= (bf + cs) ** 2 and bf + cs <= n + 1):
                product_bad += 1
        pc = pair_classification(g)
        banned = set(pc.forbidden) | {p for p, _ in pc.forcing}
        for mask in odd_independent_set_masks(g):
            if any(mask >> u & 1 and mask >> v & 1 for u, v in banned):
                pair_bad += 1
                break
    out.append(_check(10, "solver equals brute force (<=7)", "0 bad",
                      f"{oracle_bad} bad of {count}", ok=oracle_bad == 0))
    out.append(_check(10, "sandwich alpha(G^2) <= alpha-od <= alpha (<=7)",
                      "0 bad", f"{sandwich_bad} bad", ok=sandwich_bad == 0))
    out.append(_check(10, "coloring chain (<=7)", "0 bad", f"{chain_bad} bad",
                      ok=chain_bad == 0))
    out.append(_check(10, "product and sum bounds (<=7)", "0 bad",
                      f"{product_bad} bad", ok=product_bad == 0))
    out.append(_check(10, "no OIS contains a forbidden/forcing pair (<=7)",
                      "0 bad", f"{pair_bad} bad", ok=pair_bad == 0))

    # the equality witnesses of the product/sum bounds
    eq_ok = True
    for t, r in [(2, 3), (3, 3), (4, 2)]:
        g = t_copies(gen.complete(r), t)
        eq_ok &= alpha_od_bruteforce(g).value == t and chi_so_exact(g).value == r
    for r, t in [(3, 4), (5, 4), (4, 4)]:
        g = disjoint_union(gen.complete(r), gen.empty(t))
        eq_ok &= alpha_od_bruteforce(g).value == t + 1 and chi_so_exact(g).value == r
    out.append(_check(10, "tight families tK_r and K_r + isolated vertices",
                      True, bool(eq_ok)))

    clawfree_bad = 0
    rng_cases = 0
    seed = 0
    while rng_cases < 200:
        seed += 1
        base = random_connected_graph(3 + seed % 5, 0.5, seed)
        lg = gen.line_graph(base)
        if not 1 <= lg.n <= 14:
            continue
        rng_cases += 1
        # alpha_od reads the theorem as a rung, so brute force is the oracle
        fast = alpha(square(lg))
        slow = alpha_od(lg)
        if not (slow.exact and fast.value == slow.value == alpha_od_bruteforce(lg).value
                and is_odd_independent(lg, fast.witness)):
            clawfree_bad += 1
    out.append(_check(10, "claw-free fast path on 200 line graphs", "0 bad",
                      f"{clawfree_bad} bad", ok=clawfree_bad == 0))

    degree_bad = 0
    done = 0
    seed = 1000
    while done < 100:
        seed += 1
        g = random_connected_graph(5 + seed % 10, 0.45, seed, min_degree=1)
        lower = max_degree_lower(g)
        if lower is None:
            continue
        done += 1
        res = alpha_od(g)
        if not (res.exact and res.value >= lower.value):
            degree_bad += 1
    out.append(_check(10, "alpha-od >= n/(maxdeg^2 - 1) on 100 random graphs",
                      "0 bad", f"{degree_bad} bad", ok=degree_bad == 0))
    return out


# -- item 11: complements of triangle-free graphs ---------------------------------------------


def item_classifier(budget=None) -> List[Check]:
    from .enumeration import triangle_free_upto

    out = []
    bad = total = 0
    for g in triangle_free_upto(9):
        total += 1
        if not verify_cotrianglefree(g):
            bad += 1
    out.append(_check(11, "classifier vs exact on triangle-free <= 9",
                      "0 bad", f"{bad} bad of {total}", ok=bad == 0 and total >= 2400))
    named = [
        ("matching-deleted K_{3,2}", gen.trianglefree_diam("matching-deleted", 3, 2, 1)),
        ("subdivided-matching G(3,2,1)", gen.trianglefree_diam("subdivided-matching", 3, 2, 1)),
        ("box-k2 over the pentagon", gen.trianglefree_diam("box-k2", gen.cycle(5))),
    ]
    for name, g in named:
        rep = classify_cotrianglefree(g)
        out.append(_check(11, f"classifier on {name}", "verified",
                          f"case {rep.case}: " + ("verified" if verify_cotrianglefree(g) else "WRONG"),
                          ok=verify_cotrianglefree(g)))
    return out


# -- item 12: cubic census -----------------------------------------------------------------------


def item_cubic_census(budget=None) -> List[Check]:
    # alpha-od = 1 forces diameter <= 2 (an independent pair with a common
    # neighbour is not odd independent), i.e. chi(G^2) = 8.  Two of the five
    # connected cubic graphs of order 8 have diameter 2; the one with a
    # triangle has an odd independent 3-set, so only the Wagner graph
    # (triangle-free, diameter 2, alpha 3) remains.
    hits = cubic_census(8)
    shapes = [(is_triangle_free(g), diameter(g), alpha(g).value) for g in hits]
    computed = str(len(hits)) + "".join(
        f" ({'triangle-free' if tf else 'with triangles'}, diameter {d}, alpha {a})"
        for tf, d, a in shapes)
    return [_check(12, "connected cubic graphs of order 8 with alpha-od=1 and chi-so=8",
                   "1 (Wagner graph; the recorded 2 counts chi(G^2)=8)", computed,
                   ok=shapes == [(True, 2, 3)])]


ITEMS: Dict[int, Callable] = {
    1: item_paths_cycles,
    2: item_petersen,
    3: item_hoffman_singleton,
    4: item_hypercubes,
    5: item_subdivisions,
    6: item_half_graphs,
    7: item_complete_products,
    8: item_kneser,
    9: item_alpha2,
    10: item_properties,
    11: item_classifier,
    12: item_cubic_census,
}


def run_suite(sections: Optional[Sequence[int]] = None, budget=None) -> List[Check]:
    wanted = sorted(ITEMS) if sections is None else sorted(set(sections))
    checks: List[Check] = []
    for item in wanted:
        if item not in ITEMS:
            raise ValueError(f"no suite item {item}")
        t0 = time.monotonic()
        got = ITEMS[item](budget)
        dt = int((time.monotonic() - t0) * 1000)
        for c in got:
            c.millis = dt
        checks.extend(got)
    return checks


def render(checks: Sequence[Check], deterministic: bool = False) -> str:
    lines = []
    for c in checks:
        status = "ok" if c.ok else "MISMATCH"
        lines.append(f"[{c.item:2d}] {c.name}: expected {c.expected}; "
                     f"computed {c.computed} [{status}]")
    failures = [c for c in checks if not c.ok]
    lines.append(f"{len(checks)} checks, {len(failures)} mismatches"
                 + ("" if deterministic else f" ({sum(c.millis for c in checks) // 1000}s)"))
    return "\n".join(lines)


def suite_failed(checks: Sequence[Check]) -> bool:
    return any(not c.ok for c in checks)
