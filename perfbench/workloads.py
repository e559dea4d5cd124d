"""The four workloads: how each builds its inputs, runs one timed pass, and
checks every answer outside the timed section.

Every solver call gets an explicit budget.  An operation is all the checks
on one input graph; it fails on an exception, a witness that does not
verify, an exact value that differs from the reference, or an interval
that does not contain the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

DEFAULT_SEED = 1
LONG_BUDGET = 60.0   # for solves that are expected to finish
CHECK_BUDGET = 5.0   # for the clique solves of the alpha sandwich

# Pinned references for fixed instances.  An exact answer must equal the
# value; an interval must contain it.
REFERENCES: Dict[str, int] = {
    "kg8_2": 7,
    "moore50": 15,
    "sk6": 15,
    "q5": 16,
    "q6": 24,          # still an interval [24, 29] after 10 s today
    "sk5": 5,
    "h55": 6,
    "petersen": 6,
    "kg10_3": 36,
    "cycle1500": 500,
    # star(21) has 20 leaves.  The leaves are an OIS only for an odd leaf
    # count (the centre would see an even number of them), so the optimum
    # is 3, not 2; today's budget-limited interval [2, 3] contains it.
    "star21": 3,
    # the 38-vertex panel graph and the pinned sparse graphs of
    # chi-so-partition; each value agreed with a HiGHS MILP model when pinned
    "rc38": 11,
    "p18_1": 5, "p18_2": 4, "p19_1": 5, "p19_2": 5,
    "p20_1": 4, "p20_2": 4, "p21_1": 5, "p21_2": 5,
    # smoke-size stand-ins: C_n has alpha_od = n/3 for 3 | n, and a star
    # with an even number of leaves needs 3 classes
    "cycle60": 20,
    "star17": 3,
}

# Values of the seeded instances at the default seed; each agreed with a
# HiGHS MILP model when pinned.
DEFAULT_SEED_REFERENCES: Dict[str, int] = {
    "g30": 9, "g32": 10,              # alpha_od
    "g15": 4, "g16": 5, "g17": 4,     # chi_so
}

# Published corpus sizes: graphs with 1..7 vertices (A000088) and
# triangle-free graphs with 1..9 and 1..7 vertices (A006785).
CORPUS_COUNTS = {("all", 7): 1252, ("tf", 9): 2479, ("tf", 7): 172}


@dataclass
class Op:
    name: str
    seconds: float
    outcome: Any
    error: Optional[str] = None
    budget: Optional[float] = None   # set when the solve is budget-limited


class Clock:
    """Times the operations and stages of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: List[Op] = []
        self.stages: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}

    def op(self, name: str, fn: Callable[[], Any], budget: Optional[float] = None):
        if self.tracer is not None:
            self.tracer.op = name
        error, outcome = None, None
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # an exception is a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        self.ops.append(Op(name, time.perf_counter() - start, outcome, error, budget))
        if self.tracer is not None:
            self.tracer.op = None
        return outcome

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start


def instance_seed(seed: int, name: str) -> int:
    return random.Random(f"{seed}:{name}").getrandbits(32)


def gnp(mods, n: int, p: float, seed: int):
    """Plain G(n, p), not filtered to connectivity."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return mods.graphs.from_edge_list(n, edges)


def reference_errors(name: str, seed: int, exact: bool, value: int, lower: int,
                     upper: Optional[int]) -> List[str]:
    ref = REFERENCES.get(name)
    if ref is None and seed == DEFAULT_SEED:
        ref = DEFAULT_SEED_REFERENCES.get(name)
    errs = []
    if upper is not None and lower > upper:
        errs.append(f"interval [{lower}, {upper}] is empty")
    if exact and not lower == value == upper:
        errs.append(f"exact {value} with interval [{lower}, {upper}]")
    if ref is None:
        return errs
    if exact and value != ref:
        errs.append(f"exact {value} differs from reference {ref}")
    if not exact and not (lower <= ref and (upper is None or ref <= upper)):
        errs.append(f"interval [{lower}, {upper}] misses reference {ref}")
    return errs


def ois_errors(mods, g, res) -> List[str]:
    w = res.witness
    if not mods.independence.is_odd_independent(g, w):
        return ["witness is not an odd independent set"]
    if len(w) != res.value:
        return [f"witness has {len(w)} vertices for value {res.value}"]
    return []


def coloring_errors(mods, g, res) -> List[str]:
    colors = res.witness.colors
    if not mods.coloring.is_strong_odd_coloring(g, colors):
        return ["witness is not a strong odd coloring"]
    if len(set(colors)) != res.value:
        return [f"witness uses {len(set(colors))} colors for value {res.value}"]
    return []


class Workload:
    name = ""

    def build(self, mods, seed: int, smoke: bool, workdir) -> Any:
        raise NotImplementedError

    def run_pass(self, mods, inputs, clock: Clock) -> None:
        raise NotImplementedError

    def check(self, mods, inputs, clock: Clock) -> Dict[str, List[str]]:
        """Errors per operation name; the key ``""`` holds pass-level errors."""
        raise NotImplementedError

    def solves(self, op: Op):
        """(solves attempted, exact results) in one operation."""
        return 1, int(op.outcome is not None and op.outcome.exact)


# -- alpha-od-search -----------------------------------------------------------


class AlphaOdSearch(Workload):
    """alpha_od on fixed hard instances, seeded G(n, .15), and Q6 at 10 s."""

    name = "alpha-od-search"
    Q6_BUDGET = 10.0

    def build(self, mods, seed, smoke, workdir):
        gen, rcg = mods.generators, mods.bounds.random_connected_graph
        q6_budget = 0.2 if smoke else self.Q6_BUDGET
        rc = (20, 20) if smoke else (38, 38)
        sizes = (12, 14) if smoke else (30, 32)
        items = [
            ("kg8_2", gen.kneser(8, 2), LONG_BUDGET, None),
            ("moore50", gen.hoffman_singleton(), LONG_BUDGET, None),
            ("sk6", gen.complete_subdivision(6), LONG_BUDGET, None),
            ("q5", gen.hypercube(5), LONG_BUDGET, None),
            (f"rc{rc[0]}", rcg(rc[0], 0.15, rc[1]), LONG_BUDGET, None),
        ]
        for n in sizes:
            name = f"g{n}"
            items.append((name, rcg(n, 0.15, instance_seed(seed, name)), LONG_BUDGET, None))
        items.append(("q6", gen.hypercube(6), q6_budget, q6_budget))
        return {"seed": seed, "items": items, "sandwich": {}}

    def run_pass(self, mods, inputs, clock):
        for name, g, budget, limit in inputs["items"]:
            clock.op(name, lambda: mods.independence.alpha_od(g, budget=budget), limit)

    def check(self, mods, inputs, clock):
        ind, graphs = mods.independence, {name: g for name, g, _, _ in inputs["items"]}
        errors = {}
        for op in clock.ops:
            if op.error:
                errors[op.name] = [op.error]
                continue
            g, res = graphs[op.name], op.outcome
            errs = ois_errors(mods, g, res)
            errs += reference_errors(op.name, inputs["seed"], res.exact, res.value,
                                     res.lower, res.upper)
            # alpha(square) <= alpha_od <= alpha, as intervals when a clique
            # solve hits its budget: an independent set of the square is an OIS
            sandwich = inputs["sandwich"]
            if op.name not in sandwich:
                sq = ind.alpha(mods.graphs.square(g), budget=CHECK_BUDGET)
                al = ind.alpha(g, budget=CHECK_BUDGET)
                sandwich[op.name] = (sq.value, al.upper)
            sq_lower, al_upper = sandwich[op.name]
            upper = res.upper if res.upper is not None else g.n
            if not (sq_lower <= upper and res.lower <= al_upper):
                errs.append(f"[{res.lower}, {upper}] outside alpha(square) {sq_lower}"
                            f" .. alpha {al_upper}")
            if errs:
                errors[op.name] = errs
        return errors


# -- chi-so-partition ----------------------------------------------------------


class ChiSoPartition(Workload):
    """chi_so_exact on sparse G(n, .12) and three named graphs."""

    name = "chi-so-partition"
    # The heavy sparse graphs are pinned: their cost varies 20-fold from one
    # sample to the next, which would swamp any change under test.  The
    # workload seed drives the smaller graphs.
    PINNED = tuple((n, j) for n in (18, 19, 20, 21) for j in (1, 2))
    SEEDED = (15, 16, 17)

    def build(self, mods, seed, smoke, workdir):
        gen = mods.generators
        items = [
            ("sk5", gen.complete_subdivision(5)),
            ("h55", gen.half_graph(5)),
            ("petersen", gen.petersen()),
        ]
        pinned = self.PINNED[:2] if smoke else self.PINNED
        for n, j in pinned:
            n = n - 6 if smoke else n
            items.append((f"p{n}_{j}", gnp(mods, n, 0.12, 1000 * j + n)))
        for n in (10, 11) if smoke else self.SEEDED:
            name = f"g{n}"
            items.append((name, gnp(mods, n, 0.12, instance_seed(seed, name))))
        return {"seed": seed, "items": items, "alpha_od": {}}

    def run_pass(self, mods, inputs, clock):
        for name, g in inputs["items"]:
            clock.op(name, lambda: mods.coloring.chi_so_exact(g, budget=LONG_BUDGET))

    def check(self, mods, inputs, clock):
        graphs = dict(inputs["items"])
        errors = {}
        for op in clock.ops:
            if op.error:
                errors[op.name] = [op.error]
                continue
            g, res = graphs[op.name], op.outcome
            errs = coloring_errors(mods, g, res)
            errs += reference_errors(op.name, inputs["seed"], res.exact, res.value,
                                     res.lower, res.upper)
            # colour classes are odd independent sets: chi_so * alpha_od >= n
            aod = inputs["alpha_od"].get(op.name)
            if aod is None:
                aod = inputs["alpha_od"][op.name] = mods.independence.alpha_od(
                    g, budget=LONG_BUDGET).upper
            if res.upper * aod < g.n:
                errs.append(f"chi_so {res.upper} * alpha_od {aod} < n = {g.n}")
            if errs:
                errors[op.name] = errs
        return errors


# -- corpus-sweep --------------------------------------------------------------


class CorpusSweep(Workload):
    """Cold enumeration of two corpora, then every solver on every graph."""

    name = "corpus-sweep"

    def build(self, mods, seed, smoke, workdir):
        # the smoke corpus still has over 1000 graphs, so it reports a p99
        return {"all_to": 7, "tf_to": 7 if smoke else 9}

    def run_pass(self, mods, inputs, clock):
        enum, ind, col = mods.enumeration, mods.independence, mods.coloring
        # users pay enumeration in every process, so it is timed cold
        enum.all_graphs.cache_clear()
        enum.triangle_free_graphs.cache_clear()
        small, tf = [], []
        for k in range(1, inputs["all_to"] + 1):
            with clock.stage(f"enumeration.all_graphs.order{k}_s"):
                small.extend(enum.all_graphs(k))
        for k in range(1, inputs["tf_to"] + 1):
            with clock.stage(f"enumeration.triangle_free.order{k}_s"):
                tf.extend(enum.triangle_free_graphs(k))
        clock.stages["enumeration.classes"] = len(small) + len(tf)
        clock.info["corpus"] = (len(small), len(tf))

        def small_op(g):
            return (g, ind.alpha_od(g, budget=LONG_BUDGET),
                    col.chi_so_exact(g, budget=LONG_BUDGET),
                    mods.matching.maximum_matching(g))

        def tf_op(h):
            c = mods.graphs.complement(h)
            return c, col.chi_so_alpha2(c), col.chi_so_exact(c, budget=LONG_BUDGET)

        for i, g in enumerate(small):
            clock.op(f"all{i}", lambda: small_op(g))
        for i, h in enumerate(tf):
            clock.op(f"cotf{i}", lambda: tf_op(h))

    def solves(self, op):
        if op.outcome is None:
            return 2, 0
        return 2, sum(r.exact for r in op.outcome[1:3])

    def check(self, mods, inputs, clock):
        ind, mat = mods.independence, mods.matching
        errors = {}
        want = (CORPUS_COUNTS["all", inputs["all_to"]], CORPUS_COUNTS["tf", inputs["tf_to"]])
        if clock.info["corpus"] != want:
            errors[""] = [f"corpus sizes {clock.info['corpus']}, expected {want}"]
        berge_s = 0.0
        for op in clock.ops:
            if op.error:
                errors[op.name] = [op.error]
                continue
            errs = []
            if op.name.startswith("all"):
                g, aod, cso, m = op.outcome
                errs += ois_errors(mods, g, aod) + coloring_errors(mods, g, cso)
                brute = ind.alpha_od_bruteforce(g).value
                if not (aod.exact and cso.exact) or aod.value != brute:
                    errs.append(f"alpha_od {aod.value} (exact={aod.exact}), brute force"
                                f" {brute}; chi_so exact={cso.exact}")
                if not mat.is_valid_matching(g, m):
                    errs.append("invalid matching")
                start = time.perf_counter()
                augmentable = mat.has_augmenting_path(g, m)
                berge_s += time.perf_counter() - start
                if augmentable:
                    errs.append("matching has an augmenting path")
            else:
                c, fast, exact = op.outcome
                errs += coloring_errors(mods, c, fast) + coloring_errors(mods, c, exact)
                if not exact.exact or fast.value != exact.value:
                    errs.append(f"chi_so_alpha2 {fast.value} != chi_so_exact {exact.value}")
            if errs:
                errors[op.name] = errs
        clock.stages["matching.berge_s"] = berge_s
        return errors


# -- large-cli -----------------------------------------------------------------


class LargeCli(Workload):
    """``oddind.cli.main`` in-process on graph6 files written during set-up."""

    name = "large-cli"

    def build(self, mods, seed, smoke, workdir):
        gen = mods.generators
        if smoke:
            spec = [
                ("cycle60", gen.cycle(60), "compute alpha-od", 60, False),
                ("kg7_2", gen.kneser(7, 2), "compute alpha-od", 60, False),
                ("q6", gen.hypercube(6), "compute alpha-od", 0.2, True),
                ("star17", gen.star(17), "compute chi-so", 0.2, True),
                ("bounds_q4", gen.hypercube(4), "bounds", 60, False),
                ("bounds_petersen", gen.petersen(), "bounds", 2, True),
            ]
        else:
            spec = [
                ("cycle1500", gen.cycle(1500), "compute alpha-od", 60, False),
                ("kg10_3", gen.kneser(10, 3), "compute alpha-od", 60, False),
                ("q10", gen.hypercube(10), "compute alpha-od", 1, True),
                ("star21", gen.star(21), "compute chi-so", 1, True),
                ("bounds_q7", gen.hypercube(7), "bounds", 60, False),
                ("bounds_moore50", gen.hoffman_singleton(), "bounds", 2, True),
            ]
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for name, g, verb, budget, limited in spec:
            path = workdir / f"{name}.g6"
            path.write_text(mods.formats.to_graph6(g) + "\n", encoding="ascii")
            argv = verb.split() + [str(path), "--budget", str(budget), "--json"]
            items.append((name, g, argv, budget if limited else None))
        return {"seed": seed, "items": items}

    def run_pass(self, mods, inputs, clock):
        for name, _, argv, limit in inputs["items"]:
            clock.op(name, lambda: self._main(mods, argv), limit)

    @staticmethod
    def _main(mods, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods.cli.main(argv)
        return code, out.getvalue()

    def solves(self, op):
        return 1, int(op.outcome is not None and op.outcome[0] == 0)

    def check(self, mods, inputs, clock):
        graphs = {name: (g, argv) for name, g, argv, _ in inputs["items"]}
        errors = {}
        for op in clock.ops:
            if op.error:
                errors[op.name] = [op.error]
                continue
            g, argv = graphs[op.name]
            code, text = op.outcome
            if code not in (0, 3):
                errors[op.name] = [f"exit code {code}"]
                continue
            try:
                payload = json.loads(text)
            except ValueError:
                errors[op.name] = [f"output is not JSON: {text[:80]!r}"]
                continue
            errs = []
            exact = code == 0
            if argv[0] == "bounds":
                bad = [e["name"] for e in payload["entries"] if not e["satisfied"]]
                if bad:
                    errs.append(f"violated bounds {bad}")
            else:
                # accept the shared schema key and the older chi-so key
                value = payload["value"] if "value" in payload else payload["chi"]
                witness = payload.get("witness")
                if witness is None:
                    witness = payload.get("coloring")
                if argv[1] == "alpha-od":
                    ok = (mods.independence.is_odd_independent(g, witness)
                          and len(witness) == value)
                else:
                    ok = (mods.coloring.is_strong_odd_coloring(g, witness)
                          and len(set(witness)) == value)
                if not ok:
                    errs.append("witness does not verify")
                if bool(payload["exact"]) != exact:
                    errs.append(f"exit code {code} but exact={payload['exact']}")
                errs += reference_errors(op.name, inputs["seed"], exact, value,
                                         payload["lower"], payload["upper"])
            if errs:
                errors[op.name] = errs
        return errors


WORKLOADS = {w.name: w for w in (AlphaOdSearch(), ChiSoPartition(), CorpusSweep(),
                                 LargeCli())}
