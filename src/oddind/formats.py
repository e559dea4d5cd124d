"""Reading and writing graphs in graph6 and DIMACS edge format.

graph6 follows the de-facto interchange standard: one graph per line, no
header, 6-bit groups offset by 63, upper-triangle bits in column order.
DIMACS is the classic ``p edge n m`` / ``e u v`` text form with 1-based
vertex ids.
"""

from __future__ import annotations

import base64
import re
from math import isqrt

from .graphs import Graph, MAX_VERTICES, from_edge_list


class MalformedGraph6(ValueError):
    """Invalid graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class MalformedDimacs(ValueError):
    pass


_OUTSIDE_ALPHABET = re.compile(r"[^?-~]")  # graph6 bytes are chr(63)..chr(126)
# graph6 and base64 both write 6-bit groups, most significant bit first;
# they differ only in the byte that stands for group k, chr(63 + k) here
_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = "".join(chr(63 + k) for k in range(64))
_TO_GRAPH6 = bytes.maketrans(_BASE64.encode(), _GRAPH6.encode())
_FROM_GRAPH6 = str.maketrans(_GRAPH6, _BASE64)


def _check_bytes(text: str) -> None:
    bad = _OUTSIDE_ALPHABET.search(text)
    if bad:
        raise MalformedGraph6(f"character {bad.group()!r} outside graph6 alphabet",
                              bad.start())


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a :class:`Graph`."""
    text = text.rstrip("\n")
    if not text:
        raise MalformedGraph6("empty input", 0)
    _check_bytes(text)
    pos = 0
    first = ord(text[0]) - 63
    if first < 63:
        n = first
        pos = 1
    else:
        if len(text) < 4:
            raise MalformedGraph6("truncated vertex count", len(text))
        if text[1] == "~":
            raise MalformedGraph6("vertex counts above 258047 unsupported", 1)
        n = 0
        for i in range(1, 4):
            n = n << 6 | (ord(text[i]) - 63)
        pos = 4
    if n > MAX_VERTICES:
        raise MalformedGraph6(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(text) - pos != need:
        raise MalformedGraph6(
            f"expected {need} payload bytes for n={n}, got {len(text) - pos}", len(text)
        )
    payload = text[pos:].translate(_FROM_GRAPH6)
    raw = base64.b64decode(payload + "A" * (-len(payload) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")[:6 * need]
    if "1" in bits[nbits:]:
        raise MalformedGraph6("nonzero padding bits", len(text) - 1)
    rows = [0] * n
    index = bits.find("1")
    while index >= 0:
        # column order: (0,1), (0,2), (1,2), (0,3), ...; column v starts
        # at index v(v-1)/2
        v = (1 + isqrt(8 * index + 1)) // 2
        u = index - v * (v - 1) // 2
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        index = bits.find("1", index + 1)
    return Graph._derived(n, rows)  # symmetric and loop-free by construction


def to_graph6(g: Graph) -> str:
    n = g.n
    if n < 63:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    adj = g.adj
    # column v holds the pairs (0,v), (1,v), ..., (v-1,v): the low v bits of
    # adj[v], lowest first
    bits = "".join([format(adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)])
    if not bits:
        return head
    need = (len(bits) + 5) // 6
    # 24 bits are three bytes and four base64 groups, so no "=" padding
    bits += "0" * (-len(bits) % 24)
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big")
    return head + base64.b64encode(raw)[:need].translate(_TO_GRAPH6).decode("ascii")


def parse_dimacs(text: str) -> Graph:
    """Decode DIMACS edge format (1-based ``e u v`` lines)."""
    n = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise MalformedDimacs(f"line {ln}: bad problem line {line!r}")
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise MalformedDimacs(f"line {ln}: edge before problem line")
            if len(parts) != 3:
                raise MalformedDimacs(f"line {ln}: bad edge line {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            edges.append((u, v))
        else:
            raise MalformedDimacs(f"line {ln}: unknown record {parts[0]!r}")
    if n is None:
        raise MalformedDimacs("missing problem line")
    return from_edge_list(n, edges)


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def guess_format(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith((".col", ".dimacs", ".clq")):
        return "dimacs"
    return "graph6"


def loads(text: str, fmt: str) -> Graph:
    if fmt == "graph6":
        return parse_graph6(text.strip().splitlines()[0] if text.strip() else "")
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"unknown format {fmt!r}")


def dumps(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return to_graph6(g) + "\n"
    if fmt == "dimacs":
        return to_dimacs(g)
    raise ValueError(f"unknown format {fmt!r}")
