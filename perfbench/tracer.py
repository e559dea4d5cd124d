"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``oddind`` by timing wrappers in
every ``oddind`` module namespace that holds them, runs one pass of a
workload, and restores the originals.  Nothing inside ``src/oddind``
changes; spans are kept in memory and reduced to per-layer metrics when
the pass ends.

A span's self time is its duration minus the time of the spans it
directly contains, so ``ois_search_s`` (the OIS branch and bound inside
``alpha_od``) and ``cover_s`` (the memoized cover inside ``chi_so_exact``)
are derived by subtraction.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (home module, function name, span kind); patched in every oddind module
# namespace that holds the same function object.
TARGETS = (
    ("independence", "alpha_od", "alpha_od"),
    ("independence", "alpha", "alpha"),
    ("independence", "pair_classification", "pairs"),
    ("independence", "odd_independent_set_masks", "candidates"),
    ("graphs", "metrics", "metrics"),
    ("graphs", "square", "square"),
    ("coloring", "chi_so_exact", "chi_so"),
    ("coloring", "chi_so_alpha2", "alpha2"),
    ("matching", "maximum_matching", "matching"),
    ("formats", "parse_graph6", "parse"),
    ("bounds", "bound_report", "bound_report"),
    ("cli", "main", "cli"),
    # candidate generation of the enumeration; absent names are skipped
    ("enumeration", "_extensions", "extensions"),
)

# Fixed instances whose OIS node counts are reported one by one.  Node
# counts do not depend on the machine, so they are the sharpest signal.
OIS_INSTANCES = ("kg8_2", "moore50", "sk6", "q5", "rc38", "q6",
                 "cycle1500", "kg10_3", "q10")

ENUM_STAGES = tuple(f"enumeration.all_graphs.order{k}_s" for k in (5, 6, 7)) + \
    tuple(f"enumeration.triangle_free.order{k}_s" for k in (7, 8, 9))

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "independence.alpha_s": "s",
    "independence.alpha_nodes": "count",
    "independence.alpha_sq_s": "s",
    "independence.alpha_sq_nodes": "count",
    "independence.pairs_s": "s",
    "independence.pairs_count": "count",
    "independence.ois_nodes": "count",
    "independence.ois_search_s": "s",
    "independence.ois_nodes_per_s": "1/s",
    "independence.timeouts": "count",
    **{f"independence.ois_nodes.{name}": "count" for name in OIS_INSTANCES},
    "coloring.chi_so_s": "s",
    "coloring.candidates_s": "s",
    "coloring.cover_s": "s",
    "coloring.independent_sets": "count",
    "coloring.candidates": "count",
    "coloring.useful_ratio": "ratio",
    "coloring.alpha2_s": "s",
    "coloring.timeouts": "count",
    **{name: "s" for name in ENUM_STAGES},
    "enumeration.candidates": "count",
    "enumeration.classes": "count",
    "enumeration.kept_ratio": "ratio",
    "graphs.metrics_s": "s",
    "graphs.square_s": "s",
    "formats.parse_s": "s",
    "formats.bytes": "bytes",
    "cli.compute_s": "s",
    "cli.bounds_s": "s",
    "cli.overhead_s": "s",
    "bounds.report_s": "s",
    "bounds.entries": "count",
    "bounds.omitted": "count",
    "matching.s": "s",
    "matching.pairs": "count",
    "matching.berge_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metrics that are derived by subtraction rather than timed
DERIVED = ("independence.ois_search_s", "coloring.cover_s", "cli.overhead_s",
           "trace.overhead_s")

_LIBRARY_KINDS = ("alpha_od", "chi_so", "bound_report")


class _Frame:
    __slots__ = ("kind", "child", "lib", "clique_nodes")

    def __init__(self, kind):
        self.kind = kind
        self.child = 0.0         # time of directly nested spans
        self.lib = 0.0           # time of nested solver calls (for cli frames)
        self.clique_nodes = 0    # nodes of nested alpha solves (alpha_od frames)


class Tracer:
    """Times calls into the package's layers while installed."""

    def __init__(self, mods):
        self.mods = mods
        self.total = defaultdict(float)      # kind -> summed duration
        self.self_time = defaultdict(float)  # kind -> summed self time
        self.counts = defaultdict(int)       # counter name -> value
        self.by_op = defaultdict(lambda: defaultdict(float))  # op -> kind -> seconds
        self.op = None                       # name of the operation running
        self._stack = []
        self._last_square = None
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "oddind" or name.startswith("oddind.")) and m is not None]
        for home, fname, kind in TARGETS:
            orig = getattr(getattr(self.mods, home), fname, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, kind)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    self._saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)
        # count the independent sets that candidate enumeration walks
        ind = self.mods.independence
        orig_sets = ind.independent_set_masks
        self._saved.append((ind, "independent_set_masks", orig_sets))
        ind.independent_set_masks = self._counting(orig_sets)

    def uninstall(self):
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ---------------------------------------------------------------

    def _counting(self, orig):
        counts = self.counts

        def independent_set_masks(*args, **kwargs):
            n = 0
            for m in orig(*args, **kwargs):
                n += 1
                yield m
            counts["independent_sets"] += n
        return independent_set_masks

    def _wrap(self, orig, kind):
        tracer = self

        def wrapper(*args, **kwargs):
            span = kind
            if kind == "alpha" and args and args[0] is tracer._last_square:
                span = "alpha_sq"
            elif kind == "cli":
                argv = args[0] if args else kwargs.get("argv")
                span = "cli." + (argv[0] if argv else "none")
            frame = _Frame(span)
            stack = tracer._stack
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                tracer.total[span] += duration
                tracer.by_op[tracer.op][span] += duration
                tracer.self_time[span] += duration - frame.child
                if stack:
                    parent = stack[-1]
                    parent.child += duration
                    if span in _LIBRARY_KINDS:
                        parent.lib += duration
                if span.startswith("cli."):
                    tracer.counts["cli_lib_s"] += frame.lib
            tracer._observe(span, args, result, frame)
            return result
        return wrapper

    def _observe(self, span, args, result, frame):
        c = self.counts
        if span == "square":
            self._last_square = result
        elif span in ("alpha", "alpha_sq"):
            c[span + "_nodes"] += result.nodes
            if self._stack and self._stack[-1].kind == "alpha_od":
                self._stack[-1].clique_nodes += result.nodes
        elif span == "alpha_od":
            ois = result.nodes - frame.clique_nodes
            c["ois_nodes"] += ois
            if self.op in OIS_INSTANCES:
                c["ois_nodes." + self.op] += ois
            c["alpha_od_timeouts"] += not result.exact
        elif span == "pairs":
            c["pairs"] += len(result.forbidden) + len(result.forcing)
        elif span == "candidates":
            c["candidates"] += len(result)
        elif span == "chi_so":
            c["chi_so_timeouts"] += not result.exact
        elif span == "matching":
            c["matching_pairs"] += result.size
        elif span == "parse":
            c["parse_bytes"] += len(args[0]) if args else 0
        elif span == "extensions":
            c["enum_candidates"] += len(result)
        elif span == "bound_report":
            c["bound_entries"] += len(result.entries)
            c["bound_omitted"] += len(result.omitted)

    # -- metrics -------------------------------------------------------------

    def metrics(self, stages: dict, overhead_s: float) -> dict:
        """Every per-layer metric; a layer the pass never called reads 0.

        ``stages`` holds what the workload timed itself: enumeration per
        order, the class count, and the Berge checks.
        """
        t, st, c = self.total, self.self_time, self.counts
        ois_search = st["alpha_od"]
        cli_total = t["cli.compute"] + t["cli.bounds"]
        enum_classes = stages.get("enumeration.classes", 0)
        out = {
            "independence.alpha_s": t["alpha"],
            "independence.alpha_nodes": c["alpha_nodes"],
            "independence.alpha_sq_s": t["alpha_sq"],
            "independence.alpha_sq_nodes": c["alpha_sq_nodes"],
            "independence.pairs_s": t["pairs"],
            "independence.pairs_count": c["pairs"],
            "independence.ois_nodes": c["ois_nodes"],
            "independence.ois_search_s": ois_search,
            "independence.ois_nodes_per_s":
                c["ois_nodes"] / ois_search if ois_search > 0 else 0.0,
            "independence.timeouts": c["alpha_od_timeouts"],
            **{f"independence.ois_nodes.{name}": c["ois_nodes." + name]
               for name in OIS_INSTANCES},
            "coloring.chi_so_s": t["chi_so"],
            "coloring.candidates_s": t["candidates"],
            "coloring.cover_s": st["chi_so"],
            "coloring.independent_sets": c["independent_sets"],
            "coloring.candidates": c["candidates"],
            "coloring.useful_ratio":
                c["candidates"] / c["independent_sets"] if c["independent_sets"] else 0.0,
            "coloring.alpha2_s": t["alpha2"],
            "coloring.timeouts": c["chi_so_timeouts"],
            **{name: stages.get(name, 0.0) for name in ENUM_STAGES},
            "enumeration.candidates": c["enum_candidates"],
            "enumeration.classes": enum_classes,
            "enumeration.kept_ratio":
                enum_classes / c["enum_candidates"] if c["enum_candidates"] else 0.0,
            "graphs.metrics_s": t["metrics"],
            "graphs.square_s": t["square"],
            "formats.parse_s": t["parse"],
            "formats.bytes": c["parse_bytes"],
            "cli.compute_s": t["cli.compute"],
            "cli.bounds_s": t["cli.bounds"],
            "cli.overhead_s": cli_total - c["cli_lib_s"],
            "bounds.report_s": t["bound_report"],
            "bounds.entries": c["bound_entries"],
            "bounds.omitted": c["bound_omitted"],
            "matching.s": t["matching"],
            "matching.pairs": c["matching_pairs"],
            "matching.berge_s": stages.get("matching.berge_s", 0.0),
            "trace.overhead_s": overhead_s,
        }
        assert list(out) == list(PER_LAYER_UNITS)
        return out
