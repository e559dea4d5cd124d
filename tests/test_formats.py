import random
from math import isqrt, log

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddind import generators as gen
from oddind.cli import main
from oddind.enumeration import all_graphs
from oddind.formats import (
    MalformedDimacs,
    MalformedGraph6,
    parse_dimacs,
    parse_graph6,
    to_dimacs,
    to_graph6,
)
from oddind.graphs import Graph, from_edge_list


def _reference_graph6(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nx.to_graph6_bytes(nxg, header=False).decode("ascii").strip()


def _graph6_by_bits(g):
    """The encoder as first written, one upper-triangle bit at a time: the
    oracle for ``to_graph6``."""
    n = g.n
    if n < 63:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    payload = []
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i:i + 6]:
            group = group << 1 | b
        payload.append(chr(group + 63))
    return head + "".join(payload)


def _gnp(n, p, seed):
    """G(n, p) by geometric skips over the pairs in graph6 column order."""
    if p == 1:
        return Graph(n, [(1 << n) - 1 ^ 1 << v for v in range(n)])
    rng = random.Random(seed)
    rows = [0] * n
    total = n * (n - 1) // 2
    index = -1
    while p > 0:
        index += 1 + int(log(1 - rng.random()) / log(1 - p))
        if index >= total:
            break
        v = (1 + isqrt(8 * index + 1)) // 2
        u = index - v * (v - 1) // 2
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


SIZES = [0, 1, 2, 5, 6, 7, 62, 63, 64, 65, 258, 1500]


@pytest.mark.parametrize("n,p", [(n, p) for n in SIZES for p in (0, 0.1, 0.5, 1)]
                         + [(4096, 0), (4096, 0.1)])
def test_rows_encode_as_the_bits(n, p):
    g = _gnp(n, p, seed=n)
    line = to_graph6(g)
    assert line == _graph6_by_bits(g)
    assert len(line) == (1 if n < 63 else 4) + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(line) == g


def test_known_encodings():
    assert to_graph6(gen.complete(1)) == "@"
    assert to_graph6(gen.complete(4)) == "C~"
    assert parse_graph6("@").n == 1
    assert parse_graph6("C~") == gen.complete(4)


def test_corpus_roundtrip_and_reference():
    # every graph on at most 6 vertices, against an independent encoder
    corpus = []
    for n in range(1, 7):
        for g in all_graphs(n):
            line = to_graph6(g)
            assert line == _reference_graph6(g)
            assert parse_graph6(line) == g
            corpus.append(line)
    assert len(corpus) == 208
    assert len(set(corpus)) == 208
    for line in corpus:
        assert to_graph6(parse_graph6(line)) == line


def test_long_form_header(capsys):
    g = gen.hypercube(7)  # 128 vertices needs the ~-prefixed count
    line = to_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g
    assert line == _reference_graph6(g)
    assert main(["gen", "hypercube", "7"]) == 0
    assert capsys.readouterr().out == _graph6_by_bits(g) + "\n"


def test_large_roundtrip():
    for g in (gen.cycle(1500), gen.hypercube(10)):
        line = to_graph6(g)
        assert line == _graph6_by_bits(g)
        assert parse_graph6(line) == g
    assert line == _reference_graph6(g)  # Q10 against networkx too
    g = from_edge_list(70, [(u, v) for u in range(70) for v in range(u + 1, 70)
                            if (u * 7 + v * 3) % 5 == 0])
    line = to_graph6(g)
    assert line.startswith("~") and line == _reference_graph6(g)
    assert parse_graph6(line) == g


def test_malformed_long_form():
    # n = 65 carries 2080 data bits in 347 bytes: two padding bits
    line = to_graph6(gen.cycle(65))
    bad = line[:-1] + chr((ord(line[-1]) - 63 | 1) + 63)
    with pytest.raises(MalformedGraph6) as err:
        parse_graph6(bad)
    assert err.value.offset == len(line) - 1
    with pytest.raises(MalformedGraph6) as err:
        parse_graph6(line[:10] + " " + line[11:])
    assert err.value.offset == 10
    with pytest.raises(MalformedGraph6):
        parse_graph6(line[:-1])


def test_malformed_graph6():
    with pytest.raises(MalformedGraph6) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(MalformedGraph6):
        parse_graph6("C")  # truncated payload for n=4
    with pytest.raises(MalformedGraph6):
        parse_graph6("B" + chr(40))  # byte below the alphabet
    # nonzero padding bits: K_2 carries one data bit and five padding zeros
    good = to_graph6(gen.complete(2))
    assert good == "A_"
    bad = good[0] + chr((ord(good[1]) - 63 | 1) + 63)  # set the last padding bit
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


def test_dimacs_roundtrip():
    g = gen.petersen()
    text = to_dimacs(g)
    assert text.splitlines()[0] == "p edge 10 15"
    assert parse_dimacs(text) == g
    with_comments = "c hello\n" + text
    assert parse_dimacs(with_comments) == g


def test_dimacs_errors():
    with pytest.raises(MalformedDimacs):
        parse_dimacs("e 1 2\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p edge 3\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p edge 2 1\nq 1 2\n")


@given(st.integers(0, 10), st.data())
@settings(max_examples=80, deadline=None)
def test_random_roundtrip(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    g = from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    assert parse_graph6(to_graph6(g)) == g
    assert parse_dimacs(to_dimacs(g)) == g
