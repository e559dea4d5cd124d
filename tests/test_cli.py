import json
import sys

import pytest

from oddind import generators as gen
from oddind.cli import main
from oddind.formats import to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_graph6(capsys):
    code, out, _ = run(capsys, "gen", "petersen")
    assert code == 0
    assert out.strip() == to_graph6(gen.petersen())


def test_gen_dimacs(capsys):
    code, out, _ = run(capsys, "gen", "complete", "3", "--format", "dimacs")
    assert code == 0
    assert out.splitlines()[0] == "p edge 3 3"


def test_gen_nested_family(capsys):
    code, out, _ = run(capsys, "gen", "mu-product", "[hypercube 2]", "[complete 2]")
    assert code == 0


def test_compute_json(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(to_graph6(gen.petersen()) + "\n")
    code, out, _ = run(capsys, "compute", "alpha-od", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 and data["exact"] is True
    assert sorted(data["witness"]) == data["witness"]


def test_compute_alpha_od_q5_closes_at_the_greedy_rung(capsys, tmp_path):
    path = tmp_path / "q5.g6"
    path.write_text(to_graph6(gen.hypercube(5)) + "\n")
    code, out, _ = run(capsys, "compute", "alpha-od", str(path), "--json", "--deterministic")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 16 and data["exact"] is True
    assert data["method"] == "branch-bound" and data["nodes"] == 0
    assert data["note"] == ("closed by odd-regular-bipartite seed = common-neighbor-upper"
                            " (no clique solve)")


def test_compute_chi_so_shape(capsys, tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(gen.cycle(5)) + "\n")
    code, out, _ = run(capsys, "compute", "chi-so", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    # the same schema as alpha-od: the witness is one color per vertex
    assert data["value"] == 5 and data["exact"] is True
    assert len(data["witness"]) == 5 and len(set(data["witness"])) == 5
    assert data["nodes"] > 0 and data["method"] == "ois-partition"


def test_compute_chi_so_star_closes_from_certified_ends(capsys, tmp_path):
    # 20 leaves: chi_so >= 3 since the centre's degree is even, and the 19
    # lowest leaves (the girth-5 seed) plus two singletons colour it with 3
    path = tmp_path / "star21.g6"
    path.write_text(to_graph6(gen.star(21)) + "\n")
    code, out, _ = run(capsys, "compute", "chi-so", str(path), "--json", "--deterministic")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 and data["exact"] is True and data["nodes"] == 0
    assert data["note"] == ("closed by girth5-neighborhood seed = not-odd-bipartite"
                            " (no cover search)")


def test_compute_chi_so_exact_when_the_ends_meet(capsys, tmp_path):
    # a spent budget skips the cover, and the clique bound 30 meets the 30
    # classes of the fallback seed plus singletons
    path = tmp_path / "k30.g6"
    path.write_text(to_graph6(gen.complete(30)) + "\n")
    code, out, _ = run(capsys, "compute", "chi-so", str(path), "--json", "--budget", "0")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 30 and data["exact"] is True
    assert (data["lower"], data["upper"]) == (30, 30) and len(set(data["witness"])) == 30


def test_compute_chi_sq_of_a_long_cycle(capsys, tmp_path):
    # the colouring search recurses once per vertex of the square
    path = tmp_path / "c2000.g6"
    path.write_text(to_graph6(gen.cycle(2000)) + "\n")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, _ = run(capsys, "compute", "chi-sq", str(path), "--json")
    finally:
        sys.setrecursionlimit(old)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4 and data["exact"] is True


def test_verify_set_exit_codes(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(to_graph6(gen.petersen()) + "\n")
    code, out, _ = run(capsys, "verify-set", str(path), "5", "8", "9")
    assert code == 0 and "odd-independent: True" in out
    code, out, _ = run(capsys, "verify-set", str(path), "0", "1")
    assert code == 1


def test_verify_coloring(capsys, tmp_path):
    path = tmp_path / "k33.g6"
    path.write_text(to_graph6(gen.complete_bipartite(3, 3)) + "\n")
    code, out, _ = run(capsys, "verify-coloring", str(path),
                       "0", "0", "0", "1", "1", "1")
    assert code == 0 and "strong-odd: True" in out
    path2 = tmp_path / "c4.g6"
    path2.write_text(to_graph6(gen.cycle(4)) + "\n")
    code, out, _ = run(capsys, "verify-coloring", str(path2), "0", "1", "0", "1")
    assert code == 1
    # any integer colours, negative ones too
    code, out, _ = run(capsys, "verify-coloring", str(path),
                       "-7", "-7", "-7", "40", "40", "40", "--json")
    data = json.loads(out)
    assert code == 0 and data == {"proper": True, "strong_odd": True, "colors_used": 2}


def test_verify_options_before_the_ids(capsys, tmp_path):
    # ids and colours after an option continue the list, in order
    k33 = tmp_path / "k33.g6"
    k33.write_text(to_graph6(gen.complete_bipartite(3, 3)) + "\n")
    code, out, _ = run(capsys, "verify-coloring", str(k33), "--json", "0", "0", "0", "1", "1", "1")
    assert code == 0 and json.loads(out) == {"proper": True, "strong_odd": True, "colors_used": 2}
    code, out, _ = run(capsys, "verify-coloring", str(k33), "-7", "--json", "-7", "-7",
                       "--format", "graph6", "40", "-1", "40")
    assert code == 1 and json.loads(out) == {"proper": True, "strong_odd": False, "colors_used": 3}
    code, out, _ = run(capsys, "verify-coloring", str(k33), "--json",
                       "-7", "-7", "-7", "40", "40", "40")
    assert code == 0 and json.loads(out)["strong_odd"] is True
    petersen = tmp_path / "p.g6"
    petersen.write_text(to_graph6(gen.petersen()) + "\n")
    code, out, _ = run(capsys, "verify-set", str(petersen), "--json", "5", "8", "9")
    assert code == 0 and json.loads(out)["odd_independent"] is True
    code, out, _ = run(capsys, "verify-set", str(petersen), "5", "--json", "8", "0")
    assert code == 1 and json.loads(out)["independent"] is False
    # anything else left over is still a usage error
    assert run(capsys, "verify-set", str(petersen), "--json", "5", "--bogus")[0] == 2
    assert run(capsys, "verify-coloring", str(k33), "--json", "0", "0", "0", "1", "1", "x")[0] == 2
    assert run(capsys, "compute", "alpha-od", str(petersen), "--json", "7")[0] == 2


def test_bounds_exit(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(to_graph6(gen.petersen()) + "\n")
    code, out, _ = run(capsys, "bounds", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] and all(e["satisfied"] for e in data["entries"])


def test_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "compute", "alpha-od", str(tmp_path / "missing.g6"))
    assert code == 2
    code, _, _ = run(capsys, "gen", "no-such-family")
    assert code == 2
    assert main(["compute", "bogus-param", "x"]) == 2


def test_stdin_streaming(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(gen.cycle(5)) + "\n"))
    code, out, _ = run(capsys, "compute", "alpha-sq", "-", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_budget_env_override(capsys, monkeypatch, tmp_path):
    from oddind.results import default_budget

    monkeypatch.setenv("ODDIND_BUDGET_SECS", "17.5")
    assert default_budget() == 17.5
    monkeypatch.setenv("ODDIND_BUDGET_SECS", "nonsense")
    assert default_budget() == 60.0


def test_suite_section_deterministic(capsys):
    code1, out1, _ = run(capsys, "paper-suite", "--section", "1", "--deterministic")
    code2, out2, _ = run(capsys, "paper-suite", "--section", "1", "--deterministic")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "alpha-od(P_7)" in out1 or "alpha-od(P_" in out1


def test_suite_json(capsys):
    code, out, _ = run(capsys, "paper-suite", "--section", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(c["ok"] for c in data)


def test_suite_total_counts_each_item_time_once():
    # every check carries its whole item's time: 4 checks of a 4.5 s item
    # and 2 of a 1.2 s item ran 5.7 s, not 20.4 s
    from oddind.suite import Check, render

    checks = [Check(11, f"c{i}", "x", "x", True, millis=4500) for i in range(4)]
    checks += [Check(12, f"d{i}", "x", "x", True, millis=1200) for i in range(2)]
    assert render(checks).splitlines()[-1] == "6 checks, 0 mismatches (5s)"
    assert render(checks, deterministic=True).splitlines()[-1] == "6 checks, 0 mismatches"
