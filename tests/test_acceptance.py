"""Acceptance gate: every recorded criterion recomputed at full strength.

Each test prints one line per check (visible with ``pytest -s`` and in
failure reports) and asserts the whole criterion.  Criterion 4 closes
alpha-od(Q_6) = 24 exactly within the default budget; a timeout fails it.
Criterion 12 pins the cubic census at exactly one graph, the Wagner graph:
alpha-od = 1 forces diameter 2, and of the two diameter-2 cubic graphs of
order 8 the other has an odd independent 3-set.
"""

import pytest

from oddind import suite


def _run(item) -> None:
    checks = suite.ITEMS[item](None)
    lines = []
    bad = []
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        line = f"[criterion {c.item:2d}] {status} {c.name}: expected {c.expected}, computed {c.computed}"
        print(line)
        lines.append(line)
        if not c.ok:
            bad.append(line)
    assert not bad, "\n".join(bad)


def test_criterion_01_paths_and_cycles():
    _run(1)


def test_criterion_02_petersen():
    _run(2)


def test_criterion_03_hoffman_singleton():
    _run(3)


def test_criterion_04_hypercubes():
    _run(4)


def test_criterion_05_complete_subdivisions():
    _run(5)


def test_criterion_06_half_graphs():
    _run(6)


def test_criterion_07_complete_products():
    _run(7)


def test_criterion_08_kneser_criterion():
    _run(8)


@pytest.mark.slow
def test_criterion_09_alpha2_polynomial_algorithm():
    _run(9)


@pytest.mark.slow
def test_criterion_10_property_suites():
    _run(10)


@pytest.mark.slow
def test_criterion_11_cotrianglefree_classifier():
    _run(11)


@pytest.mark.slow
def test_criterion_12_cubic_census():
    # exactly one graph, the Wagner graph (triangle-free, diameter 2,
    # alpha 3); the formerly recorded 2 counts the graphs with chi(G^2) = 8
    _run(12)
