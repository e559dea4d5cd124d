import time
from fractions import Fraction

import networkx as nx
import pytest

from oddind import generators as gen
from oddind.bounds import (
    NotTriangleFree,
    bound_report,
    classify_cotrianglefree,
    cubic_census,
    kneser_alpha_criterion,
    moore_exclusion_check,
    random_connected_graph,
    verify_cotrianglefree,
)
from oddind.coloring import chi_square
from oddind.graphs import BadParam, _bipartition, complement, disjoint_union, is_triangle_free
from oddind.independence import alpha_od_bounded


def test_bound_report_petersen():
    rep = bound_report(gen.petersen(), 3, 6, chi_square_value=10, name="petersen")
    assert rep.all_satisfied()
    names = {e.name for e in rep.entries}
    assert "alpha-od >= n/(maxdeg^2-1)" in names
    assert "alpha-od >= maxdeg - eps" in names
    entry = next(e for e in rep.entries if e.anchor == "max-degree-lower")
    assert entry.rhs == Fraction(10, 8)


def test_bound_report_equality_cases():
    # product lower bound met with equality on the pentagon
    rep = bound_report(gen.cycle(5), 1, 5)
    e = next(x for x in rep.entries if x.anchor == "product-lower")
    assert e.satisfied and e.lhs == e.rhs == 5
    # product upper bound met with equality: clique plus isolated vertices, n = 9
    g = disjoint_union(gen.complete(5), gen.empty(4))
    rep = bound_report(g, 5, 5)
    e = next(x for x in rep.entries if x.anchor == "product-upper")
    assert e.satisfied and e.lhs == 25 and e.rhs == Fraction(25)


def test_bound_report_sum_equalities():
    from oddind.graphs import t_copies

    g = t_copies(gen.complete(3), 3)  # n = 9
    rep = bound_report(g, 3, 3)
    e = next(x for x in rep.entries if x.anchor == "sum-lower")
    assert e.satisfied and e.lhs == 36 and e.rhs == 36
    g2 = disjoint_union(gen.complete(5), gen.empty(4))
    rep = bound_report(g2, 5, 5)
    e = next(x for x in rep.entries if x.anchor == "sum-upper")
    assert e.satisfied and e.lhs == 10 and e.rhs == 10


def test_bound_report_intervals():
    q8 = gen.hypercube(8)
    rep = bound_report(q8, (112, 119), 4, name="Q_8")
    cube = next(e for e in rep.entries if e.anchor == "cube-even-upper")
    assert cube.satisfied
    assert cube.rhs == Fraction(128 * 14, 15)
    assert any(e.name == "alpha-od >= alpha(square)" and e.satisfied for e in rep.entries)
    # undecidable interval lands in omitted, not in entries
    rep = bound_report(gen.cycle(5), (1, 3), 4)
    names = {e.name for e in rep.entries}
    assert "alpha-od * chi-so >= n" not in names  # product range [4, 12] vs 5
    assert any("alpha-od * chi-so >= n" == n for n, _ in rep.omitted)
    # a scan that cannot certify alpha <= k reads the interval [lower, n]:
    # Petersen has no odd independent pair, so the scan up to 2 finds only 1
    partial = alpha_od_bounded(gen.petersen(), 2)
    assert partial.upper == 10 and not partial.exact
    rep = bound_report(gen.petersen(), partial, 6)
    assert rep.all_satisfied()
    assert ("alpha-od * chi-so >= n", "interval cannot decide") in rep.omitted


def test_bound_report_square_entry_follows_budget():
    # alpha(square(Q8)) does not finish in 0.2 s: its range [found, 64]
    # cannot decide alpha-od in [20, 119], and the report keeps the budget
    t0 = time.monotonic()
    rep = bound_report(gen.hypercube(8), (20, 119), 4, budget=0.2)
    assert time.monotonic() - t0 < 2.0
    assert ("alpha-od >= alpha(square)", "interval cannot decide") in rep.omitted
    # on Q7 the root coloring bound 32 (alpha(square) = 16) decides it unsolved
    rep = bound_report(gen.hypercube(7), 64, 2)
    e = next(x for x in rep.entries if x.anchor == "square-independence")
    assert e.satisfied and e.rhs == 32


def test_bound_report_raises_chi_so_lower_end():
    # chi_so of the Moore graph is only known in [2, 44]; alpha_od = 15 and
    # alpha_od * chi_so >= n give the sound lower end ceil(50 / 15) = 4
    rep = bound_report(gen.hoffman_singleton(), 15, (2, 44))
    assert rep.all_satisfied()
    decided = {e.name: e for e in rep.entries}
    assert decided["alpha-od >= n/chi-so"].rhs == Fraction(50, 4)
    assert decided["alpha-od * chi-so >= n"].lhs == 60
    assert [name for name, _ in rep.omitted] == ["alpha-od * chi-so <= (n+1)^2/4",
                                                 "alpha-od + chi-so <= n+1"]
    # an exact chi_so is not raised, so a wrong value still shows as violated
    rep = bound_report(gen.hoffman_singleton(), 15, 2)
    assert not next(e for e in rep.entries if e.name == "alpha-od * chi-so >= n").satisfied


def test_bound_report_cube_odd():
    rep = bound_report(gen.hypercube(3), 4, 2)
    e = next(x for x in rep.entries if x.anchor == "cube-odd-equality")
    assert e.satisfied and e.lhs == 4


def test_bound_report_text_and_json():
    rep = bound_report(gen.petersen(), 3, 6)
    text = rep.to_text()
    assert "alpha-od" in text and "yes" in text
    js = rep.to_json()
    assert js["graph"] and js["entries"]


def test_bound_report_satisfied_on_suite_graphs():
    from oddind.coloring import chi_so_exact
    from oddind.independence import alpha_od

    suite_graphs = [
        gen.cycle(5), gen.cycle(8), gen.petersen(), gen.kneser(6, 2),
        gen.half_graph(4), gen.complete_subdivision(4), gen.kbox(3, 3),
        gen.hypercube(4), gen.regular_tight(4, 2, bipartite=True),
        gen.star(5), gen.path(7),
    ]
    for g in suite_graphs:
        aod = alpha_od(g)
        cso = chi_so_exact(g)
        assert aod.exact and cso.exact
        rep = bound_report(g, aod.value, cso.value,
                           chi_square_value=chi_square(g).value)
        assert rep.all_satisfied(), (g, rep.to_text())


def test_kneser_criterion():
    assert kneser_alpha_criterion(5, 2) == {"parity_odd": False, "equivalent_sum_check": True}
    assert kneser_alpha_criterion(6, 2)["parity_odd"] is True
    assert kneser_alpha_criterion(7, 2)["parity_odd"] is False
    assert kneser_alpha_criterion(8, 2)["parity_odd"] is True
    for k in range(2, 7):
        for n in range(2 * k, 21):
            assert kneser_alpha_criterion(n, k)["equivalent_sum_check"]
    with pytest.raises(BadParam):
        kneser_alpha_criterion(3, 2)


def test_classifier_named_cases():
    g = gen.trianglefree_diam("matching-deleted", 3, 2, 1)
    rep = classify_cotrianglefree(g)
    assert rep.case == "diam3-codiam3"
    assert rep.alpha_od_complement == 2 and rep.chi_so_complement is None
    g = gen.trianglefree_diam("subdivided-matching", 3, 2, 1)
    rep = classify_cotrianglefree(g)
    assert rep.case == "diam2-codiam2"
    assert rep.alpha_od_complement == 1 and rep.chi_so_complement == g.n
    g = gen.trianglefree_diam("box-k2", gen.cycle(5))
    rep = classify_cotrianglefree(g)
    assert rep.case == "diam3-codiam2" and rep.alpha_od_complement == 1
    p5 = gen.path(5)  # diameter 4
    rep = classify_cotrianglefree(p5)
    assert rep.case == "diam>=4" and rep.alpha_od_complement == 1
    k22 = gen.complete_bipartite(2, 2)  # complement disconnected
    rep = classify_cotrianglefree(k22)
    assert not rep.complement_connected and rep.alpha_od_complement == 2
    assert rep.chi_so_complement == 2
    with pytest.raises(NotTriangleFree):
        classify_cotrianglefree(gen.complete(3))


def test_classifier_verified_small():
    from oddind.enumeration import triangle_free_upto

    for g in triangle_free_upto(6):
        assert verify_cotrianglefree(g)


def test_moore_exclusion():
    rows = {r["graph"]: r for r in moore_exclusion_check()}
    assert rows["pentagon"]["chi_so"] == 5 == rows["pentagon"]["delta_squared_plus_1"]
    assert rows["pentagon"]["attains_delta_sq_plus_1"]
    assert rows["petersen"]["chi_so"] == 6 and not rows["petersen"]["attains_delta_sq_plus_1"]
    hs = rows["hoffman-singleton"]
    assert hs["chi_so_upper_lemma"] == 44
    assert hs["chi_so_upper_rotation"] == 20
    assert not hs["attains_delta_sq_plus_1"]
    assert hs["alpha_od_lower"] == 7
    extra = moore_exclusion_check([("triangle", gen.complete(3))])
    assert any(r["graph"] == "triangle" and not r["applicable"] for r in extra)


def test_random_sampler_deterministic():
    a = random_connected_graph(8, 0.4, seed=7)
    b = random_connected_graph(8, 0.4, seed=7)
    assert a == b and a.is_connected()


def test_cubic_census_computed_truth():
    # acceptance criterion 12 checks the same census through the suite;
    # these pin the one hit and its shape directly, without the suite.
    hits = cubic_census(8)
    assert len(hits) == 1
    g = hits[0]
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    assert is_triangle_free(g) and _bipartition(g) is None and nx.girth(h) == 4
    from oddind.independence import alpha

    assert alpha(g).value == 3  # the Ramsey-critical graph: no independent 4-set


def test_exactly_two_cubic_graphs_attain_chi_square_8():
    from oddind.enumeration import connected_cubic_graphs

    count = sum(1 for g in connected_cubic_graphs(8) if chi_square(g).value == 8)
    assert count == 2
