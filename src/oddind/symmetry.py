"""Automorphisms of a graph given as bitset rows, each one proved before use.

The solvers cut symmetric branches only with a group they have proved, so
every permutation this module returns has passed ``is_automorphism``
against the adjacency rows.  The tools are those of individualisation and
refinement (McKay & Piperno, "Practical graph isomorphism, II", JSC 60,
2014):

* refinement splits an ordered partition, a list of cell bitmasks, until
  it is equitable: every vertex of a cell has the same number of
  neighbours in each cell (``equitable`` starts from a single cell, or
  from a given ordered partition).  Every choice depends on the structure
  alone (counts, sizes, cell positions), never on vertex ids, so an
  automorphism maps the refinement of a partition onto the refinement of
  its image, cell by cell, and the two runs write the same trace;
* one matcher, ``_follow``, backtracks over the images of the first path
  of the other side (individualise the least vertex of the first
  non-singleton cell until the cells are singletons), in at most
  ``NODE_CAP`` nodes; ``orbits`` calls it;
* ``orbits`` joins, by union-find, the cycles of every verified generator:
  the classes are the orbits of the group those generators span.  Given a
  start partition, it proves the group that fixes each start cell
  setwise, as the OIS search needs for the set it chose and its pool.
  Like nauty, it keeps the generators it proves, in a caller's ``pool``,
  and first joins the pooled ones that fix each start cell.

If the deadline stops ``orbits`` early, the classes it returns are still
orbits of a subgroup, so a cut that reads them stays sound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .graphs import bits_of
from .results import BudgetExceeded, Deadline

NODE_CAP = 256  # search nodes per match


def is_automorphism(rows: Sequence[int], perm: Sequence[int]) -> bool:
    """Whether ``perm`` permutes the vertices and maps every neighbourhood
    onto the neighbourhood of the image: ``perm(N(v)) == N(perm(v))``."""
    n = len(rows)
    if len(perm) != n or sorted(perm) != list(range(n)):
        return False
    for v in range(n):
        image = 0
        row = rows[v]
        while row:
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        if image != rows[perm[v]]:
            return False
    return True


def _refine(rows, cells: List[int], cell_of: List[int], queue: Sequence[int],
            deadline: Optional[Deadline] = None) -> list:
    """Refine the partition in place until it is equitable; return the trace.

    ``cells`` lists the cell bitmasks and ``cell_of`` each vertex's cell.
    ``queue`` lists the cells to split with; it is enough to start from the
    cells that changed since the partition was last equitable.  Only cells
    that meet a splitter's neighbourhood are visited, in position order.  A
    split cell keeps the fragment with the fewest neighbours in the
    splitter at its position and appends the others in increasing count.
    Raises ``BudgetExceeded`` once ``deadline`` expires.
    """
    trace = []
    queue = list(queue)
    queued = [False] * len(cells)
    for w in queue:
        queued[w] = True
    qi = 0
    while qi < len(queue):
        if deadline is not None and deadline.expired():
            raise BudgetExceeded("refinement hit its budget")
        w = queue[qi]
        qi += 1
        queued[w] = False
        # bit-sliced counters: bit x of layers[i] is bit i of |N(x) & splitter|,
        # summed row by row with a ripple carry
        layers: List[int] = []
        bits = cells[w]
        while bits:
            low = bits & -bits
            bits ^= low
            carry = rows[low.bit_length() - 1]
            for i, layer in enumerate(layers):
                layers[i] = layer ^ carry
                carry &= layer
                if not carry:
                    break
            else:
                layers.append(carry)
        touched = 0
        for layer in layers:
            touched |= layer
        # the non-singleton cells that meet the splitter's neighbourhood
        hit = []
        bits = touched
        while bits:
            c = cell_of[(bits & -bits).bit_length() - 1]
            cell = cells[c]
            bits &= ~cell
            if cell & (cell - 1):
                hit.append(c)
        for c in sorted(hit):
            # split by the counters from the top layer down, so the fragments
            # come out in increasing count
            cell = cells[c]
            keys, frags = [0], [cell]
            for i in range(len(layers) - 1, -1, -1):
                layer = layers[i] & cell
                if not layer:
                    continue
                split_keys, split_frags = [], []
                for k, f in zip(keys, frags):
                    rest = f & ~layer
                    if rest:
                        split_keys.append(k)
                        split_frags.append(rest)
                    if rest != f:
                        split_keys.append(k | 1 << i)
                        split_frags.append(f ^ rest)
                keys, frags = split_keys, split_frags
            if len(frags) == 1:
                continue
            trace.append((w, c, tuple([(k, f.bit_count()) for k, f in zip(keys, frags)])))
            idx = [c] + list(range(len(cells), len(cells) + len(frags) - 1))
            cells[c] = frags[0]
            for j in range(1, len(frags)):
                cells.append(frags[j])
                queued.append(False)
                bits = frags[j]
                while bits:
                    low = bits & -bits
                    cell_of[low.bit_length() - 1] = idx[j]
                    bits ^= low
            # all fragments if the cell still waited, else all but a largest one
            skip = -1
            if not queued[c]:
                sizes = [f.bit_count() for f in frags]
                skip = sizes.index(max(sizes))
            for j, i in enumerate(idx):
                if j != skip and not queued[i]:
                    queued[i] = True
                    queue.append(i)
    return trace


Partition = Tuple[List[int], List[int]]  # cell bitmasks, and each vertex's cell


def equitable(rows, deadline: Optional[Deadline] = None,
              start: Optional[Sequence[int]] = None) -> Partition:
    """The coarsest equitable partition that refines ``start``, an ordered
    list of disjoint cell bitmasks covering the vertices (one cell by
    default; empty cells are dropped)."""
    cells = [c for c in (start or [(1 << len(rows)) - 1]) if c]
    cell_of = [0] * len(rows)
    for i, cell in enumerate(cells):
        for v in bits_of(cell):
            cell_of[v] = i
    _refine(rows, cells, cell_of, range(len(cells)), deadline)
    return cells, cell_of


def _individualize(rows, part: Partition, v: int,
                   deadline: Optional[Deadline] = None) -> Tuple[Partition, list]:
    """A copy of the equitable partition ``part`` with ``v`` in a cell of its
    own, at its old cell's position, refined; and the refinement trace."""
    cells, cell_of = list(part[0]), list(part[1])
    i, bit = cell_of[v], 1 << v
    if cells[i] == bit:
        return (cells, cell_of), []
    rest = cells[i] ^ bit
    cells[i] = bit
    cells.append(rest)
    for u in bits_of(rest):
        cell_of[u] = len(cells) - 1
    return (cells, cell_of), _refine(rows, cells, cell_of, [i], deadline)


def _first_path(rows, part: Partition, deadline) -> Tuple[list, List[int]]:
    """Below the equitable ``part``, the position of each level's first
    non-singleton cell and the trace of individualising its least vertex;
    and the discrete cells at the end."""
    path = []
    while True:
        cells = part[0]
        i = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if i is None:
            return path, cells
        part, trace = _individualize(rows, part, (cells[i] & -cells[i]).bit_length() - 1, deadline)
        path.append((i, trace))


def _follow(rows, path, leaf, right: Partition, deadline, nodes, depth=0) -> Optional[List[int]]:
    """A verified automorphism mapping the cells of ``leaf``, the end of a
    first ``path``, onto those of a discrete partition reached from
    ``right`` along the same traces, or None; ``nodes[0]`` is the budget."""
    nodes[0] -= 1
    if nodes[0] < 0:
        return None
    if depth == len(path):
        perm = [0] * len(rows)
        for a, b in zip(leaf, right[0]):
            perm[a.bit_length() - 1] = b.bit_length() - 1
        return perm if is_automorphism(rows, perm) else None
    i, trace = path[depth]
    for y in bits_of(right[0][i]):
        if nodes[0] < 0:
            break
        image, image_trace = _individualize(rows, right, y, deadline)
        if image_trace == trace:
            perm = _follow(rows, path, leaf, image, deadline, nodes, depth + 1)
            if perm is not None:
                return perm
    return None


def orbits(rows, deadline: Optional[Deadline] = None, start: Optional[Sequence[int]] = None,
           pool: Optional[List[List[int]]] = None) -> Tuple[List[int], List[List[int]]]:
    """``(least, generators)``: the least vertex of each vertex's orbit under
    the group that the verified ``generators`` span.  With ``start`` (cells
    as for ``equitable``) the group is that of the automorphisms mapping
    each start cell onto itself, and every generator is checked to do so.

    A discrete equitable partition proves the group trivial, and nothing
    more is searched.  Otherwise the automorphisms of ``rows`` in ``pool``
    that fix each cell join first.  Then vertices are visited in increasing
    order; one that no generator so far maps onto an earlier one is matched
    against each earlier orbit of its equitable cell whose individualised
    trace agrees, and a generator found joins ``pool``.  Once ``deadline``
    expires the search stops, and the orbits proved so far are returned:
    they are orbits of a subgroup.
    """
    n = len(rows)
    parent = list(range(n))
    pool = [] if pool is None else pool

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(perm):  # join its cycles if it maps each cell onto itself; whether two met
        if any(cell_of[x] != cell_of[y] for x, y in enumerate(perm)):
            return False
        joined = False
        for x, y in enumerate(perm):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                joined = True
        return joined

    gens: List[List[int]] = []
    try:
        base = equitable(rows, deadline, start)
        cells, cell_of = base
        if len(cells) == n:
            return list(range(n)), gens
        gens = [perm for perm in pool if join(perm)]
        # hashes of the individualised traces, and the first path below each
        # orbit matched against: a partition per vertex would hold n^2 cells
        fingerprints, paths = {}, {}

        def individualized(v):
            part, trace = _individualize(rows, base, v, deadline)
            fingerprints[v] = hash(tuple(trace))
            return part, trace

        for v in range(n):
            if find(v) != v:
                continue
            right = None
            for u in bits_of(cells[cell_of[v]] & ((1 << v) - 1)):
                if find(u) != u:
                    continue
                right = right or individualized(v)
                left = None if u in fingerprints else individualized(u)
                if fingerprints[u] != fingerprints[v]:
                    continue
                if u not in paths:
                    part, trace = left or _individualize(rows, base, u, deadline)
                    paths[u] = trace, _first_path(rows, part, deadline)
                trace, (path, leaf) = paths[u]
                perm = trace == right[1] and _follow(rows, path, leaf, right[0], deadline,
                                                     [NODE_CAP])
                if perm and join(perm):
                    pool.append(perm)
                    gens.append(perm)
                    break
    except BudgetExceeded:
        pass
    return [find(v) for v in range(n)], gens
