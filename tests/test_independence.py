import random
from fractions import Fraction
from math import ceil, floor

from hypothesis import given, settings
from hypothesis import strategies as st

from oddind import generators as gen
from oddind.graphs import (
    VertexSet,
    _complement_rows,
    bits_of,
    cartesian_product,
    complement,
    from_edge_list,
    square,
)
from oddind.independence import (
    _alpha_root_bound,
    _ordered_clique_solver,
    _OisSearch,
    _ois_search,
    _outside_parity_ok,
    _relabel,
    _slice,
    alpha,
    alpha_od,
    alpha_od_bounded,
    alpha_od_bruteforce,
    alpha_square,
    common_neighbor_upper,
    even_regular_upper,
    girth5_seed,
    greedy_square_mask,
    independence_seed,
    is_independent,
    is_odd_independent,
    least_upper_bound,
    lower_bound_seed,
    max_degree_lower,
    odd_bipartite_seed,
    odd_independent_set_masks,
    odd_profile,
    pair_classification,
    registry_seeds,
    square_seed,
    upper_bounds,
)
from oddind.results import Deadline


@st.composite
def graphs(draw, max_n=9, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
    return from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_verifier_examples():
    en = gen.empty(4)
    assert is_odd_independent(en, range(4))  # no outside vertex at all
    pg = gen.petersen()
    for v in range(10):
        assert is_odd_independent(pg, pg.neighbors(v))
    c4 = gen.cycle(4)
    assert is_independent(c4, [0, 2])
    assert not is_odd_independent(c4, [0, 2])  # the other two see count 2
    assert odd_profile(c4, [0, 2]) == [0, 2, 0, 2]
    assert odd_profile(c4, []) == [0, 0, 0, 0]


def test_pair_classification_path():
    p3 = gen.path(3)
    pc = pair_classification(p3)
    assert (0, 2) in pc.forbidden
    # the two ends are also a forcing pair for the middle vertex (vacuously)
    assert ((0, 2), 1) in pc.forcing


def test_pair_classification_star():
    pc = pair_classification(gen.star(4))
    assert not pc.forbidden and not pc.forcing
    # the three leaves form a valid OIS
    assert is_odd_independent(gen.star(4), [1, 2, 3])


def test_clawfree_every_distance2_pair_forbidden():
    g = gen.line_graph(gen.petersen())
    pc = pair_classification(g)
    for u in range(g.n):
        dist = g.bfs_levels(u)
        for v in range(u + 1, g.n):
            if dist[v] == 2:
                assert (u, v) in pc.forbidden


class _Countdown:
    """A deadline that expires after a fixed number of checks."""

    def __init__(self, checks):
        self.checks = checks

    def expired(self):
        self.checks -= 1
        return self.checks < 0


def test_pair_classification_deadline_gives_subset():
    rng = random.Random(5)
    graphs = [gen.path(3), gen.line_graph(gen.petersen())]
    graphs += [from_edge_list(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                                   if rng.random() < 0.3]) for _ in range(3)]
    for g in graphs:
        full = pair_classification(g)
        assert full.forbidden and full.forcing
        assert pair_classification(g, Deadline(60)) == full
        expired = pair_classification(g, Deadline(-1))
        assert not expired.forbidden and not expired.forcing
        # expiring after each possible number of checks, in both loops
        for checks in range(2 * g.n + 1):
            part = pair_classification(g, _Countdown(checks))
            assert part.forbidden <= full.forbidden
            assert set(part.forcing) <= set(full.forcing)
        assert pair_classification(g, _Countdown(2 * g.n)) == full


def _pair_classification_loop(g):
    """Oracle: forbidden and forcing pairs by the plain pair-by-pair loops."""
    n = g.n
    forb_rows = [0] * n
    forbidden = set()
    for x in range(n):
        for y in range(x + 1, n):
            if g.has_edge(x, y):
                continue
            common = g.adj[x] & g.adj[y]
            if not common:
                continue
            cover = g.closed_row(x) | g.closed_row(y)
            for z in bits_of(common):
                if g.closed_row(z) & ~cover == 0:
                    forbidden.add((x, y))
                    forb_rows[x] |= 1 << y
                    forb_rows[y] |= 1 << x
                    break
    forcing = []
    seen = set()
    for z in range(n):
        nbrs = list(bits_of(g.adj[z]))
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1:]:
                if g.has_edge(x, y) or (x, y) in seen:
                    continue
                third = g.adj[z] & ~g.adj[x] & ~g.adj[y] & ~(1 << x) & ~(1 << y)
                # every independent third neighbor must pair forbidden with x or y
                if third & ~(forb_rows[x] | forb_rows[y]) == 0:
                    forcing.append(((x, y), z))
                    seen.add((x, y))
    return frozenset(forbidden), tuple(forcing)


def test_pair_classification_matches_the_pair_loop():
    # ``forcing`` is a tuple, so its order is compared too
    from oddind.enumeration import graphs_upto

    rng = random.Random(12)
    sampled = [from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < p])
               for n in range(8, 41) for p in (0.1, 0.2, 0.35, 0.6) for _ in range(3)]
    for g in graphs_upto(7) + sampled:
        pc = pair_classification(g)
        assert (pc.forbidden, pc.forcing) == _pair_classification_loop(g), g.adj


def test_alpha_examples():
    assert alpha(gen.petersen()).value == 4
    assert alpha_square(gen.cycle(6)).value == 2
    res = alpha(gen.kneser(6, 2))
    assert res.value == 5 and is_independent(gen.kneser(6, 2), res.witness)


def test_alpha_od_recorded_values():
    assert alpha_od(gen.path(7)).value == 3
    assert alpha_od(gen.cycle(8)).value == 2
    assert alpha_od(gen.petersen()).value == 3
    assert alpha_od(gen.kbox(2, 3)).value == 1
    assert alpha_od(gen.half_graph(4)).value == 2
    assert alpha_od(gen.complete_subdivision(5)).value == 7
    assert alpha_od(gen.hypercube(4)).value == 6


def test_solver_equals_bruteforce_small():
    from oddind.enumeration import all_graphs

    for n in range(1, 8):
        for g in all_graphs(n):
            want = alpha_od_bruteforce(g)
            got = alpha_od(g)
            assert got.exact and got.value == want.value
            assert is_odd_independent(g, got.witness)


def test_witness_is_always_verified():
    for build in (gen.petersen, lambda: gen.kneser(7, 2), lambda: gen.half_graph(5)):
        g = build()
        res = alpha_od(g)
        assert is_odd_independent(g, res.witness)
        assert len(res.witness) == res.value


def test_odd_regular_bipartite_shortcut():
    # the larger side meets common_neighbor_upper = n/2 at the greedy rung
    for g, want in [(gen.complete_bipartite(d, d), d) for d in (1, 3, 5)] + \
                   [(gen.hypercube(d), 2 ** (d - 1)) for d in (3, 5)]:
        res = alpha_od(g)
        assert res.exact and res.value == want and res.nodes == 0
        assert res.method == "branch-bound" and is_odd_independent(g, res.witness)
        assert res.note.endswith("seed = common-neighbor-upper (no clique solve)")
        if want > 1:  # K_{1,1}: a singleton is the first seed of that size
            assert res.note.startswith("closed by odd-regular-bipartite seed")


def test_alpha_od_bounded():
    assert alpha_od_bounded(gen.empty(5), 5).value == 5
    # a triangle-free graph of diameter 4: its complement has optimum 1
    p5 = gen.path(5)
    res = alpha_od_bounded(complement(p5), 2)
    assert res.value == 1 and res.exact
    # diameter-3 complement pair case
    g = gen.trianglefree_diam("matching-deleted", 3, 3, 1)  # K_{3,3} - e
    res = alpha_od_bounded(complement(g), 2)
    assert res.value == 2 and res.exact
    # exactness flag drops when larger independent sets exist
    res = alpha_od_bounded(gen.empty(5), 2)
    assert res.value == 2 and not res.exact


def test_clawfree_fast_path():
    # on a claw-free graph alpha(square) is the upper end too, so the solve
    # closes after the clique solve with no search
    for g in (gen.cycle(9), gen.kbox(3, 3), gen.path(11), gen.line_graph(gen.petersen())):
        res = alpha_od(g)
        assert res.exact and is_odd_independent(g, res.witness), g.adj
        assert res.value == alpha(square(g)).value == alpha_od_bruteforce(g).value, g.adj
        assert res.note == "closed by square-independence seed = claw-free-square" or \
            res.note.endswith("(no clique solve)"), g.adj
    assert alpha_od(gen.cycle(9)).value == 3 == ceil((9 - 2) / 3)
    assert alpha_od(gen.kbox(3, 3)).value == 1
    star = alpha_od(gen.star(4))  # a claw: alpha(square) = 1 is no upper end
    assert star.exact and star.value == 3 and "claw-free" not in star.note


def test_timeout_returns_interval():
    res = alpha_od(gen.hypercube(6), budget=0.5)
    if not res.exact:
        assert res.lower <= res.upper
        assert res.lower >= 1
        assert res.note
    # tiny instances always finish
    assert alpha_od(gen.cycle(5), budget=0.5).exact


def test_components_are_additive():
    from oddind.graphs import disjoint_union, t_copies

    g = disjoint_union(gen.petersen(), gen.path(7))
    assert alpha_od(g).value == 3 + 3
    assert alpha_od(t_copies(gen.complete(3), 4)).value == 4


@given(graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_solver_matches_oracle(g):
    want = alpha_od_bruteforce(g).value
    got = alpha_od(g)
    assert got.exact and got.value == want


def _independent_by_definition(g, mask):
    return all(not (mask >> u & 1 and mask >> v & 1) for u, v in g.edges())


def _parity_by_definition(g, mask):
    """Every vertex outside ``mask`` has 0 or an odd number of neighbors in it."""
    for v in range(g.n):
        if not mask >> v & 1:
            c = (g.adj[v] & mask).bit_count()
            if c and c % 2 == 0:
                return False
    return True


def test_parity_kernel_matches_definition():
    rng = random.Random(20251018)
    for n in [*range(15)] * 3:
        p = rng.random()
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
        # every mask on small graphs, random ones (mostly not independent) above
        masks = range(1 << n) if n <= 10 else [rng.getrandbits(n) for _ in range(3000)]
        for m in masks:
            assert _outside_parity_ok(g.adj, m) == _parity_by_definition(g, m), (g.adj, m)
        want = [m for m in range(1 << n)
                if _independent_by_definition(g, m) and _parity_by_definition(g, m)]
        assert sorted(odd_independent_set_masks(g)) == want, g.adj


def _registry_ends(g):
    """Upper ends, seeds with their masks, and value-only lower ends of the
    registry."""
    sq = alpha(square(g))
    assert sq.exact and _alpha_root_bound(square(g)) >= sq.value
    lowers = [square_seed(sq.witness.mask)] + registry_seeds(g)
    return upper_bounds(g), lowers, [b for b in [max_degree_lower(g)] if b]


def test_registry_is_sound():
    from oddind.enumeration import graphs_upto

    named = [gen.hypercube(d) for d in range(3, 7)]
    named += [gen.petersen(), gen.hoffman_singleton(), gen.kneser(8, 2)]
    for g in graphs_upto(7) + named:
        res = alpha_od_bruteforce(g) if g.n <= 7 else alpha_od(g)
        assert res.exact
        uppers, lowers, values = _registry_ends(g)
        for b in uppers:
            assert b.value >= res.value, (g.adj, b)
        for b in lowers:
            assert b.value <= res.value and b.mask.bit_count() == b.value, (g.adj, b)
            assert is_odd_independent(g, b.mask), (g.adj, b)
        for b in values:
            assert b.value <= res.value and not b.mask, (g.adj, b)
        seeds = registry_seeds(g)
        for mask in (alpha(square(g)).witness.mask, greedy_square_mask(square(g))):
            seed = lower_bound_seed(g, mask, seeds)
            assert is_odd_independent(g, seed.mask) and seed.value <= res.value
    # each end fires where the paper applies it
    assert even_regular_upper(gen.hypercube(6)).value == Fraction(5 * 64, 11)
    assert even_regular_upper(gen.hypercube(5)) is None
    assert common_neighbor_upper(gen.hypercube(7)).value == 64
    assert least_upper_bound(gen.cycle(9)).anchor == "even-regular-upper"  # first on a tie
    assert least_upper_bound(gen.path(4)) is None
    assert odd_bipartite_seed(gen.hypercube(5)).value == 16
    assert girth5_seed(gen.hoffman_singleton()).value == 7
    assert max_degree_lower(gen.petersen()).value == Fraction(10, 8)
    assert max_degree_lower(gen.cycle(9)) is None


def _full_path(g):
    """``alpha_od`` of a connected ``g`` with edges by the clique solves and
    the search alone, bypassing the greedy and claw-free rungs."""
    sq = square(g)
    least = least_upper_bound(g)
    upper = min([alpha(g).value] + ([floor(least.value)] if least else []))
    seed = lower_bound_seed(g, alpha(sq).witness.mask, registry_seeds(g)).mask
    if seed.bit_count() >= upper:
        return upper
    search = _ois_search(g, sq, Deadline(None), seed, upper)
    search.run()
    return search.best


def _rung_panel():
    panel = [(f"C{n}", gen.cycle(n)) for n in range(3, 61)]
    panel += [(f"P{n}", gen.path(n)) for n in range(2, 61)]
    panel += [(f"Q{d}", gen.hypercube(d)) for d in range(1, 8)]
    panel += [(f"K{n}", gen.complete(n)) for n in range(2, 9)]
    panel += [("K3,3", gen.complete_bipartite(3, 3)), ("petersen", gen.petersen()),
              ("moore50", gen.hoffman_singleton()), ("kg8_2", gen.kneser(8, 2))]
    return panel


def test_cheap_rung_agrees_with_full_path():
    closed = []
    for name, g in _rung_panel():
        least = least_upper_bound(g)
        rung = lower_bound_seed(g, greedy_square_mask(square(g)), registry_seeds(g))
        res = alpha_od(g)
        assert res.exact and is_odd_independent(g, res.witness), name
        assert len(res.witness) == res.value and res.method == "branch-bound", name
        if name.startswith("P") and int(name[1:]) > 40:
            # no registry upper end applies to a path, but a path is claw-free:
            # the full path (P60 alone costs 15 s a side) is not needed
            assert res.value == ceil(int(name[1:]) / 3), name
            assert res.note == "closed by square-independence seed = claw-free-square", name
            continue
        assert res.value == _full_path(g), name
        if least is not None and rung.value >= floor(least.value):
            assert rung.value == res.value and is_odd_independent(g, rung.mask), name
            closed.append(name)
        assert (name in closed) == ("no clique solve" in res.note), name
        assert name not in closed or res.nodes == 0, name
    # the rung closes C_n for n divisible by 3, K_n and the odd cubes, never
    # a path that is not regular (P2 is K2)
    assert {"C3", "C6", "C60", "K5", "Q7", "K3,3"} <= set(closed)
    assert not [name for name in closed if name.startswith("P") and name != "P2"]


def test_alpha_witness_closes_before_the_search():
    # alpha's maximum independent set is an OIS here, so it meets alpha(g)
    for g in (gen.hoffman_singleton(), gen.complete_subdivision(6), gen.kneser(8, 2)):
        witness = alpha(g).witness.mask
        assert is_odd_independent(g, witness)
        res = alpha_od(g)
        assert res.exact and res.value == witness.bit_count()
        assert res.note == "closed by independence-witness seed = independence"
        assert res.nodes == alpha(g).nodes + alpha(square(g)).nodes  # no search
    # Q6's is not an OIS, so lower_bound_seed keeps the square's set
    g = gen.hypercube(6)
    witness = alpha(g).witness.mask
    sq_mask = alpha(square(g)).witness.mask
    assert not is_odd_independent(g, witness) and witness.bit_count() > sq_mask.bit_count()
    seed = lower_bound_seed(g, sq_mask, [independence_seed(witness)])
    assert seed.anchor == "square-independence" and seed.mask == sq_mask


def test_greedy_square_mask_is_maximal_and_static():
    for g in (gen.cycle(10), gen.petersen(), gen.hypercube(5), gen.path(7)):
        sq = square(g)
        mask = greedy_square_mask(sq)
        assert is_independent(sq, mask)
        assert all(mask >> v & 1 or sq.adj[v] & mask for v in range(g.n))  # maximal
    # ascending square degree: the ends of a path come first
    assert greedy_square_mask(square(gen.path(7))) == 0b1001001


def test_cycle_1500_closes_by_the_cheap_rung():
    g = gen.cycle(1500)
    res = alpha_od(g)
    assert res.exact and res.value == 500 and res.nodes == 0
    assert is_odd_independent(g, res.witness) and len(res.witness) == 500
    assert res.note == ("closed by square-independence seed = even-regular-upper"
                        " (no clique solve)")


def _parity_solutions(g, s, p):
    """Every ``T`` inside ``p`` that gives each vertex seen by ``s`` an odd
    count in ``s + T``, by enumeration."""
    seen = 0
    for v in bits_of(s):
        seen |= g.adj[v]
    out = []
    for t in range(1 << g.n):
        if t & ~p:
            continue
        chosen = s | t
        if all((g.adj[u] & chosen).bit_count() % 2 for u in bits_of(seen)):
            out.append(t)
    return out


def test_parity_closure_matches_enumeration():
    # along random chosen sets, the closure prunes exactly the nodes whose
    # parity system has no solution, and its excluded and forced vertices
    # are exactly those fixed to 0 and to 1 in every solution; both on
    # entry (taking a vertex) and after a branch (siblings leave the pool)
    rng = random.Random(20261019)
    fired = {(step, cut): 0 for step in ("take", "drop") for cut in range(3)}
    for _ in range(300):
        n = rng.randint(4, 11)
        p_edge = rng.choice([0.2, 0.3, 0.45])
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p_edge])
        search = _OisSearch(g, [0] * n, list(range(n)), Deadline(None), 0, n)
        basis, s, seen, p, bit, fresh, step = {}, 0, 0, g.full_mask, 0, 0, "take"
        while True:
            closed = search._closure(basis, p, bit, fresh)
            sols = _parity_solutions(g, s, p)
            if closed is None:
                assert not sols, (g.adj, s, p)
                fired[step, 0] += 1
                break
            basis, q, forced = closed
            assert sols, (g.adj, s, p)
            always = p
            never = p
            for t in sols:
                always &= t
                never &= ~t
            assert q == p & ~never and forced == always, (g.adj, s, p)
            fired[step, 1] += bool(never)
            fired[step, 2] += bool(always)
            p = q
            if not p:
                break
            if rng.random() < 0.4:
                # the lowest vertex was branched on, now and then with more
                # skipped by the orbit cut
                step, bit, fresh = "drop", 0, 0
                skip = rng.random() < 0.3
                p &= ~(p & -p) & ~sum(1 << w for w in bits_of(p) if skip and rng.random() < 0.2)
                continue
            # take a random vertex of the pool, drop some others
            step, v = "take", rng.choice(list(bits_of(p)))
            bit = 1 << v
            s |= bit
            fresh, seen = g.adj[v] & ~seen, seen | g.adj[v]
            drop = sum(1 << w for w in bits_of(p) if rng.random() < 0.2)
            p &= ~bit & ~g.adj[v] & ~drop
    assert all(fired.values()), fired


def test_ois_search_checks_its_deadline_by_its_work():
    # at most every 1,024 nodes, and far sooner where the parity systems
    # are large: Q10's rows span about a thousand pool bits
    for g, most in ((gen.path(60), 1025), (gen.cycle(200), 1025), (gen.hypercube(10), 64)):
        deadline = _ExpiresOnSecondCheck()
        search = _OisSearch(g, [0] * g.n, list(range(g.n)), deadline, 0, g.n)
        search.run()
        assert search.timed_out and deadline.checks == 2 and search.nodes <= most, g.n


def test_q4_box_c6_closes_within_the_default_budget():
    # [36, 43] after 30 s without the parity closure; the MILP oracle gives 36
    g = cartesian_product(gen.hypercube(4), gen.cycle(6))
    res = alpha_od(g)
    assert res.exact and res.value == res.lower == res.upper == 36
    assert is_odd_independent(g, res.witness) and len(res.witness) == 36
    assert "parity closure: " in res.note


def test_search_on_an_expired_deadline_runs_one_node():
    g = gen.hypercube(6)
    spent = Deadline(-1.0)
    assert _slice(spent).expired() and _slice(Deadline(None)).remaining() is None
    search = _ois_search(g, square(g), spent, 1, 29)
    search.run()
    assert search.timed_out and search.nodes == 1 and search.proofs == 0


def test_relabel_matches_per_bit_map():
    rng = random.Random(20261018)
    for n in (0, 1, 2, 7, 64, 65, 131, 200):
        perm = list(range(n))
        rng.shuffle(perm)
        full = (1 << n) - 1
        masks = [0, full]
        for density in (0.05, 0.5, 0.95):
            masks += [sum(1 << v for v in range(n) if rng.random() < density)
                      for _ in range(5)]
        masks += [full ^ (1 << v) for v in range(min(n, 3))]
        for m in masks:
            want = sum(1 << perm[v] for v in range(n) if m >> v & 1)
            assert _relabel(m, perm) == want, (n, m)


@given(graphs(max_n=8, min_n=1))
@settings(max_examples=60, deadline=None)
def test_sandwich_and_pairs(g):
    aod = alpha_od_bruteforce(g).value
    assert alpha(square(g)).value <= aod <= alpha(g).value
    pc = pair_classification(g)
    banned = set(pc.forbidden) | {p for p, _ in pc.forcing}
    for mask in odd_independent_set_masks(g):
        for u, v in banned:
            assert not (mask >> u & 1 and mask >> v & 1)


def test_profile_types():
    g = gen.petersen()
    s = VertexSet.from_ids(10, [0])
    assert odd_profile(g, s) == odd_profile(g, [0])


def test_path_and_cycle_recursions():
    path_vals = {n: alpha_od(gen.path(n)).value for n in range(1, 16)}
    for n in range(4, 16):
        assert path_vals[n] == path_vals[n - 3] + 1
    for n in range(6, 16):
        assert alpha_od(gen.cycle(n)).value == 1 + path_vals[n - 5]


def test_feasible_combos_hit_target():
    cases = [(7, 4, "I"), (6, 1, "I"), (10, 3, "II"), (7, 7, "II"),
             (9, 3, "III"), (10, 5, "III"), (4, 2, "IV"), (8, 4, "IV"),
             (10, 8, "IV")]
    for n, k, case in cases:
        g = gen.feasible_combo(n, k, case)
        assert alpha(g).value == k, (n, k, case)
        res = alpha_od(g)
        assert res.exact and res.value == k, (n, k, case)


class _ExpiresOnSecondCheck:
    """A deadline that reads expired from its second check on."""

    def __init__(self):
        self.checks = 0

    def expired(self):
        self.checks += 1
        return self.checks >= 2

    def remaining(self):
        return None  # the orbit proofs of the OIS search run unbounded


def test_clique_solver_checks_its_deadline_every_256_nodes():
    # the first check is at node 1, the second at node 257 (it was 2,049)
    sq = square(gen.hypercube(7))  # 16,700 nodes to finish
    solver, _, _ = _ordered_clique_solver(_complement_rows(sq), sq.n, _ExpiresOnSecondCheck())
    solver.run()
    assert solver.timed_out and solver.nodes == 257
