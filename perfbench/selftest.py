"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks that every workload emits every metric that BENCHMARK.json and the
report promise, that a deliberately wrong reference raises ``error_ratio``
above 0, and that both JSON shapes of ``oddind compute`` are accepted.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.ROOT / ".perfbench_work" / "selftest"

# report-only metrics, per workload
REPORT_ONLY = {"error_ratio", "op_count", "op_p50_ms"}
TAIL = {"corpus-sweep"}
BUDGET_LIMITED = {"alpha-od-search", "large-cli"}

# (workload, table, key, wrong value) for the wrong-reference runs
WRONG = (
    ("alpha-od-search", workloads.REFERENCES, "kg8_2", 8),
    ("chi-so-partition", workloads.REFERENCES, "sk5", 4),
    ("corpus-sweep", workloads.CORPUS_COUNTS, ("all", 7), 1253),
    ("large-cli", workloads.REFERENCES, "cycle60", 21),
)


def cleanup():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        WORKDIR.parent.rmdir()
    except OSError:
        pass


def smoke(name, trace):
    try:
        return run.run(name, workloads.DEFAULT_SEED, 0.0, trace, True, WORKDIR)
    finally:
        cleanup()


def expect(problems, cond, message):
    if not cond:
        problems.append(message)


def check_names(problems):
    want_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expect(problems, want_layer == PER_LAYER_UNITS, "per_layer differs from the tracer's list")
    expect(problems, [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from BENCHMARK.json")
    for name in workloads.WORKLOADS:
        for trace, want in ((False, want_e2e), (True, want_layer)):
            report, result = smoke(name, trace)
            tag = f"{name} trace={int(trace)}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(problems, got == want, f"{tag}: last-line metrics differ from BENCHMARK.json")
            expect(problems, result["correct"] and result["failed"] == 0,
                   f"{tag}: failures {report['failures']}")
            e2e = set(report["end_to_end"])
            needed = set(want_e2e) | REPORT_ONLY
            needed |= {"op_p99_ms"} if name in TAIL else set()
            needed |= {"overrun_max_s"} if name in BUDGET_LIMITED else set()
            expect(problems, needed <= e2e, f"{tag}: report lacks {needed - e2e}")
            expect(problems, (name in BUDGET_LIMITED) == bool(report.get("results")),
                   f"{tag}: per-instance overruns {report.get('results')}")


def check_wrong_references(problems):
    for name, table, key, wrong in WRONG:
        saved = table[key]
        table[key] = wrong
        try:
            report, result = smoke(name, False)
        finally:
            table[key] = saved
        expect(problems, report["end_to_end"]["error_ratio"] > 0 and not result["correct"],
               f"{name}: wrong reference {key}={wrong} went unnoticed")


def check_compute_schemas(problems):
    """The chi-so payload passes under its own keys and under the shared ones."""
    w = workloads.WORKLOADS["large-cli"]
    mods = run.import_package()
    try:
        inputs = w.build(mods, workloads.DEFAULT_SEED, True, WORKDIR)
        items = [i for i in inputs["items"] if i[2][:2] == ["compute", "chi-so"]]
        inputs["items"] = items
        clock = workloads.Clock()
        w.run_pass(mods, inputs, clock)
    finally:
        cleanup()
    op = clock.ops[0]
    code, text = op.outcome
    base = json.loads(text)
    value = base.pop("chi", base.pop("value", None))
    witness = base.pop("coloring", base.pop("witness", None))
    for payload in (dict(base, chi=value, coloring=witness),
                    dict(base, value=value, witness=witness)):
        op.outcome = (code, json.dumps(payload))
        expect(problems, not w.check(mods, inputs, clock),
               f"compute payload with keys {sorted(payload)} rejected")


def main() -> int:
    problems = []
    check_names(problems)
    check_wrong_references(problems)
    check_compute_schemas(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
