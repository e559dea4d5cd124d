"""Command-line front end: generate, compute, verify, bound, reproduce.

Exit codes: 0 success, 1 violated verification or suite mismatch, 2 usage
error, 3 a solve returned only an interval within its budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import bound_report
from .coloring import chi_so_exact, chi_square, is_proper_coloring, is_strong_odd_coloring
from .formats import dumps, guess_format, loads
from .generators import parse_family
from .graphs import BadParam, Graph, GraphError
from .independence import alpha, alpha_od, alpha_square, is_independent, is_odd_independent, odd_profile
from .results import Deadline, default_budget
from .suite import render, run_suite, suite_failed

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_graph(source: str, fmt: str | None) -> Graph:
    if source == "-":
        text = sys.stdin.read()
        fmt = fmt or "graph6"
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
        fmt = fmt or guess_format(source)
    return loads(text, fmt)


def _emit(payload, as_json: bool, text_lines=None):
    if as_json:
        print(json.dumps(payload, indent=None, sort_keys=True))
    else:
        for line in text_lines if text_lines is not None else [str(payload)]:
            print(line)


def cmd_gen(args) -> int:
    g = parse_family(" ".join(args.family))
    out = dumps(g, args.format or "graph6")
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_compute(args) -> int:
    g = _read_graph(args.graph, args.format)
    budget = args.budget
    if args.what == "alpha-od":
        res = alpha_od(g, budget=budget)
    elif args.what == "alpha":
        res = alpha(g, budget=budget)
    elif args.what == "alpha-sq":
        res = alpha_square(g, budget=budget)
    elif args.what == "chi-so":
        res = chi_so_exact(g, budget=budget)
    else:
        res = chi_square(g, budget=budget)
    payload = res.to_json(deterministic=args.deterministic)
    lines = [f"{args.what} = {res.value}"
             + ("" if res.exact else f" (interval [{res.lower}, {res.upper}])"),
             f"witness: {payload['witness']}",
             f"method: {res.method}"]
    _emit(payload, args.json, lines)
    return EXIT_OK if res.exact else EXIT_BUDGET


def cmd_verify_set(args) -> int:
    g = _read_graph(args.graph, args.format)
    ids = [int(x) for x in args.ids]
    indep = is_independent(g, ids)
    odd = is_odd_independent(g, ids)
    prof = odd_profile(g, ids)
    payload = {"independent": indep, "odd_independent": odd, "profile": prof}
    _emit(payload, args.json, [
        f"independent: {indep}",
        f"odd-independent: {odd}",
        f"profile: {prof}",
    ])
    return EXIT_OK if odd else EXIT_VIOLATED


def cmd_verify_coloring(args) -> int:
    g = _read_graph(args.graph, args.format)
    colors = [int(x) for x in args.colors]
    if len(colors) != g.n:
        raise BadParam(f"{len(colors)} colors for {g.n} vertices")
    proper = is_proper_coloring(g, colors)
    strong = is_strong_odd_coloring(g, colors)
    payload = {"proper": proper, "strong_odd": strong,
               "colors_used": len(set(colors))}
    _emit(payload, args.json, [f"proper: {proper}", f"strong-odd: {strong}"])
    return EXIT_OK if strong else EXIT_VIOLATED


def cmd_bounds(args) -> int:
    g = _read_graph(args.graph, args.format)
    # one budget for the three solves: each takes what the others left
    deadline = Deadline(args.budget)

    def left():
        return max(deadline.remaining(), 0.0)

    aod = alpha_od(g, budget=left())
    cso = chi_so_exact(g, budget=left())
    hit_budget = not (aod.exact and cso.exact)
    report = bound_report(g, aod, cso, budget=left())
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_text())
    if not report.all_satisfied():
        return EXIT_VIOLATED
    return EXIT_BUDGET if hit_budget else EXIT_OK


def cmd_paper_suite(args) -> int:
    sections = args.section if args.section else None
    checks = run_suite(sections=sections, budget=args.budget)
    if args.json:
        payload = [
            {"item": c.item, "name": c.name, "expected": c.expected,
             "computed": c.computed, "ok": c.ok}
            for c in checks
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(render(checks, deterministic=args.deterministic))
    return EXIT_VIOLATED if suite_failed(checks) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddind",
        description="Exact odd independence and strong odd coloring toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, with_budget=True):
        p.add_argument("--format", choices=["graph6", "dimacs"], default=None,
                       help="input/output format (default: by file extension)")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--deterministic", action="store_true",
                       help="no timing fields in output")
        if with_budget:
            p.add_argument("--budget", type=float, default=default_budget(),
                           help="per-solve time budget in seconds")

    p = sub.add_parser("gen", help="emit a named family graph")
    p.add_argument("family", nargs="+",
                   help="family expression, e.g. 'kneser 5 2' or "
                        "'mu-product [hypercube 4] [cycle 4]'")
    p.add_argument("--format", choices=["graph6", "dimacs"], default="graph6")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("compute", help="solve a parameter exactly")
    p.add_argument("what", choices=["alpha-od", "chi-so", "alpha", "alpha-sq", "chi-sq"])
    p.add_argument("graph", help="input path or - for stdin")
    common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify-set", help="check a vertex set for odd independence")
    p.add_argument("graph")
    p.add_argument("ids", nargs="*", help="vertex ids")
    common(p, with_budget=False)
    p.set_defaults(fn=cmd_verify_set)

    p = sub.add_parser("verify-coloring", help="check a coloring for the strong odd property")
    p.add_argument("graph")
    p.add_argument("colors", nargs="*", help="one color per vertex, in id order")
    common(p, with_budget=False)
    p.set_defaults(fn=cmd_verify_coloring)

    p = sub.add_parser("bounds", help="evaluate every applicable closed-form bound")
    p.add_argument("graph")
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("paper-suite", help="recompute the recorded results table")
    p.add_argument("--section", type=int, action="append",
                   help="run only this item (repeatable)")
    common(p)
    p.set_defaults(fn=cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse leaves over the ids or colours after an option: they
        # continue the list, in order; anything else is a usage error
        listed = {"verify-set": "ids", "verify-coloring": "colors"}.get(args.verb)
        if extra and not (listed and all(x.removeprefix("-").isdigit() for x in extra)):
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if listed:
            setattr(args, listed, getattr(args, listed) + extra)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
