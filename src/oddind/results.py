"""Solver result records and time-budget plumbing shared by all solvers."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .graphs import VertexSet

DEFAULT_BUDGET_SECS = 60.0
BUDGET_ENV_VAR = "ODDIND_BUDGET_SECS"

# method tags
BRUTE_FORCE = "brute-force"
BRANCH_BOUND = "branch-bound"
ODD_REGULAR_BIPARTITE = "odd-regular-bipartite"
BOUNDED_K = "bounded-k"


def default_budget() -> float:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return DEFAULT_BUDGET_SECS


class BudgetExceeded(RuntimeError):
    """An internal solve needed an exact answer but hit its time budget."""


class Deadline:
    """Wall-clock budget checked periodically inside search loops."""

    __slots__ = ("limit", "start")

    def __init__(self, seconds: Optional[float]):
        self.start = time.monotonic()
        self.limit = None if seconds is None else self.start + seconds

    def expired(self) -> bool:
        return self.limit is not None and time.monotonic() > self.limit

    def remaining(self) -> Optional[float]:
        return None if self.limit is None else self.limit - time.monotonic()

    def elapsed_ms(self) -> int:
        return int((time.monotonic() - self.start) * 1000)


@dataclass
class SolveResult:
    """Outcome of a solve: a witness and a proven interval ``[lower, upper]``.

    ``value`` is the witness's size (vertices of a set, colours of a
    colouring) and lies in the interval; ``exact`` means the interval is
    closed, so the witness is optimal.  ``upper`` is always a number.
    """

    witness: object  # VertexSet or Coloring
    method: str
    lower: int
    upper: int
    nodes: int = 0
    millis: int = 0
    note: str = ""

    def __post_init__(self):
        assert self.lower <= self.value <= self.upper, (self.lower, self.value, self.upper)

    @property
    def value(self) -> int:
        w = self.witness
        return len(w) if isinstance(w, VertexSet) else w.num_colors

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json(self, deterministic: bool = False) -> dict:
        w = self.witness
        out = {
            "value": self.value,
            "witness": list(w.ids() if isinstance(w, VertexSet) else w.colors),
            "method": self.method,
            "exact": self.exact,
            "lower": self.lower,
            "upper": self.upper,
            "nodes": 0 if deterministic else self.nodes,
            "millis": 0 if deterministic else self.millis,
        }
        if self.note:
            out["note"] = self.note
        return out

