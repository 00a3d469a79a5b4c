"""Hypergraph types, HGR file I/O, validation, the list-coloring search, and
instance generators.

Vertices are the integers 0..n-1.  Edges are stored as sorted vertex tuples
in insertion order; duplicate edges are allowed (multigraph semantics: degree
counts include multiplicity) and are reported by :func:`validate`.  All types
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import GuardExceededError, HgrFormatError

SIDE_A = "A"
SIDE_B = "B"


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """A vertex count plus an ordered list of vertex-set edges.

    Equality is order-insensitive on edges (multiset comparison); the stored
    edge order is still meaningful because serialization preserves it.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        for e in self.edges:
            e = tuple(sorted(e))
            if len(e) < 2:
                raise ValueError(f"edge {e} has size < 2")
            if len(set(e)) != len(e):
                raise ValueError(f"duplicate vertex in edge {e}")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} has a vertex outside 0..{self.n - 1}")
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))

    def degrees(self) -> list[int]:
        """Per-vertex degree, counting duplicate edges with multiplicity."""
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and sorted(self.edges) == sorted(other.edges)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.edges))))


@dataclass(frozen=True)
class Bipartition:
    """Per-vertex side labels; a 2-coloring certificate when valid for a hypergraph."""

    side: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "side", tuple(self.side))
        bad = [s for s in self.side if s not in (SIDE_A, SIDE_B)]
        if bad:
            raise ValueError(f"side labels must be 'A' or 'B', got {bad[0]!r}")

    @property
    def part_a(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.side) if s == SIDE_A)

    @property
    def part_b(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.side) if s == SIDE_B)


def bipartition_is_valid(hg: Hypergraph, bip: Bipartition) -> bool:
    """True iff every edge contains at least one vertex of each side."""
    if len(bip.side) != hg.n:
        return False
    return all(
        any(bip.side[v] == SIDE_A for v in e) and any(bip.side[v] == SIDE_B for v in e)
        for e in hg.edges
    )


@dataclass(frozen=True)
class Orientation:
    """One head vertex per edge; the degree function counts heads per vertex."""

    head: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))

    def degrees(self, n: int) -> list[int]:
        d = [0] * n
        for v in self.head:
            d[v] += 1
        return d

    def max_degree(self, n: int) -> int:
        d = self.degrees(n)
        return max(d) if d else 0


def orientation_is_valid(hg: Hypergraph, phi: Orientation) -> bool:
    return len(phi.head) == len(hg.edges) and all(
        h in e for h, e in zip(phi.head, hg.edges)
    )


@dataclass(frozen=True, eq=False)
class ListAssignment:
    """Per-vertex sorted color lists over a nonnegative integer palette."""

    lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = []
        for i, lv in enumerate(self.lists):
            lv = tuple(sorted(lv))
            if not lv:
                raise ValueError(f"vertex {i}: empty color list")
            if len(set(lv)) != len(lv):
                raise ValueError(f"vertex {i}: duplicate color in list {lv}")
            if lv[0] < 0:
                raise ValueError(f"vertex {i}: negative color in list {lv}")
            norm.append(lv)
        object.__setattr__(self, "lists", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.lists)

    def sizes(self) -> list[int]:
        return [len(lv) for lv in self.lists]

    def palette(self) -> list[int]:
        return sorted({c for lv in self.lists for c in lv})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ListAssignment):
            return NotImplemented
        return self.lists == other.lists

    def __hash__(self) -> int:
        return hash(self.lists)

    def to_json(self) -> dict:
        return {"n": self.n, "lists": [list(lv) for lv in self.lists]}

    @classmethod
    def from_json(cls, doc) -> "ListAssignment":
        if isinstance(doc, str):
            doc = json.loads(doc)
        try:
            n = doc["n"]
            lists = doc["lists"]
        except (TypeError, KeyError) as exc:
            raise HgrFormatError(f"list assignment document missing field: {exc}")
        if len(lists) != n:
            raise HgrFormatError(
                f"list assignment declares n={n} but carries {len(lists)} lists"
            )
        return cls(tuple(tuple(lv) for lv in lists))


@dataclass(frozen=True)
class Coloring:
    """A chosen color per vertex."""

    color: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "color", tuple(self.color))

    def respects(self, lists: ListAssignment) -> bool:
        return len(self.color) == lists.n and all(
            c in lv for c, lv in zip(self.color, lists.lists)
        )


@dataclass(frozen=True)
class Metrics:
    max_degree: int
    min_edge_size: int
    uniform: Optional[int]
    edge_count: int


def metrics(hg: Hypergraph) -> Metrics:
    """Max degree, min edge size, uniformity, and edge count of a hypergraph."""
    if not hg.edges:
        raise ValueError("metrics undefined for an empty edge set")
    sizes = {len(e) for e in hg.edges}
    return Metrics(
        max_degree=max(hg.degrees()),
        min_edge_size=min(sizes),
        uniform=sizes.pop() if len(sizes) == 1 else None,
        edge_count=len(hg.edges),
    )


def is_proper(hg: Hypergraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic under the coloring."""
    if len(coloring.color) != hg.n:
        raise ValueError("coloring must assign a color to every vertex")
    col = coloring.color
    return all(len({col[v] for v in e}) > 1 for e in hg.edges)


def validate(hg: Hypergraph) -> list[str]:
    """Non-fatal warnings; hard invariants are enforced at construction."""
    warnings = []
    seen: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(hg.edges):
        if e in seen:
            warnings.append(f"edge {i} duplicates edge {seen[e]}: {list(e)}")
        else:
            seen[e] = i
    return warnings


# ---------------------------------------------------------------------------
# HGR text format
# ---------------------------------------------------------------------------
#
#   c <free-form comment>
#   p hg <n> <edge_count>
#   e <v1> <v2> ... <vk>
#
# 0-based vertex indices, whitespace-separated, LF line endings.  Exactly one
# header line, placed before every edge line.


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse an HGR document, rejecting malformed input with a line number."""
    n = None
    declared = None
    edges: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise HgrFormatError("duplicate header line", lineno)
            if len(tokens) != 4 or tokens[1] != "hg":
                raise HgrFormatError(f"malformed header {line!r}", lineno)
            try:
                n, declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise HgrFormatError(f"non-integer header field in {line!r}", lineno)
            if n < 0 or declared < 0:
                raise HgrFormatError("negative count in header", lineno)
        elif tokens[0] == "e":
            if n is None:
                raise HgrFormatError("edge line before header", lineno)
            try:
                verts = [int(t) for t in tokens[1:]]
            except ValueError:
                raise HgrFormatError(f"non-integer vertex in {line!r}", lineno)
            if len(verts) < 2:
                raise HgrFormatError("edge of size < 2", lineno)
            if len(set(verts)) != len(verts):
                raise HgrFormatError("duplicate vertex in edge", lineno)
            for v in verts:
                if v < 0 or v >= n:
                    raise HgrFormatError(f"vertex index {v} outside 0..{n - 1}", lineno)
            edges.append(tuple(sorted(verts)))
        else:
            raise HgrFormatError(f"unknown line type {tokens[0]!r}", lineno)
    if n is None:
        raise HgrFormatError("missing header line")
    if len(edges) != declared:
        raise HgrFormatError(
            f"header declares {declared} edges but document has {len(edges)}"
        )
    return Hypergraph(n, tuple(edges))


def serialize_hypergraph(hg: Hypergraph) -> str:
    """Bit-exact HGR form: sorted vertices per edge, edges in stored order."""
    lines = [f"p hg {hg.n} {len(hg.edges)}"]
    lines.extend("e " + " ".join(str(v) for v in e) for e in hg.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# List-coloring search
# ---------------------------------------------------------------------------

# Branching decisions allowed to the searches behind polynomial pipelines
# (find_bipartition and the sparse pair-graph coloring), so that an input on
# which the search goes exponential raises instead of hanging.  The exact
# oracles in choosability keep their size guards and have no node budget.
SEARCH_NODE_GUARD = 1_000_000


class _ListSearch:
    """Depth-first list-coloring search with edge unit propagation.

    A proper list coloring of a hypergraph is NAE-SAT over the lists: no edge
    may take a single value.  The search branches on the lowest-index
    unassigned vertex, trying the values of its list in list order, and keeps
    an explicit stack of decisions plus a trail of assignments and domain
    removals that backtracking undoes (Davis-Logemann-Loveland).

    Propagation: when every assigned vertex of an edge has value c and exactly
    one vertex is free, c leaves that vertex's domain; an empty domain is a
    conflict and a single remaining value is assigned at once.  Only values
    that no proper extension uses are removed, so the first coloring found is
    the lexicographically first one (vertex 0 most significant, each list in
    its own order).

    The incidence index is built once and reused by every :meth:`solve` call.
    """

    def __init__(self, hg: Hypergraph):
        self.n = hg.n
        self.edges = hg.edges
        self.sizes = [len(e) for e in hg.edges]
        self.inc: list[list[int]] = [[] for _ in range(hg.n)]
        for j, e in enumerate(hg.edges):
            for v in e:
                self.inc[v].append(j)
        self.nodes = 0  # branching decisions made by the last solve

    def solve(
        self,
        lists: Sequence[Sequence],
        *,
        max_nodes: Optional[int] = None,
        interchangeable: bool = False,
    ) -> Optional[list]:
        """First proper coloring taking each vertex's value from its list, or None.

        ``interchangeable`` declares all values symmetric, as for uniform lists
        ``range(r)``: a branching vertex then tries only values up to one past
        the largest value assigned so far (in order of first appearance in the
        lists).  Existence stays exact; the lexicographic guarantee does not.
        More than ``max_nodes`` branching decisions raise GuardExceededError.
        """
        n, edges, inc = self.n, self.edges, self.inc
        index: dict = {}  # value -> bit position, in order of first appearance
        options: list[list[int]] = []  # each list as bit positions, in list order
        dom: list[int] = []  # bitmask of the values still open to each vertex
        queue: list[tuple[int, int]] = []  # (vertex, bit) assignments to propagate
        for v, lv in enumerate(lists):
            opts = []
            d = 0
            for c in lv:
                i = index.get(c)
                if i is None:
                    i = index[c] = len(index)
                opts.append(i)
                d |= 1 << i
            if not d:
                return None
            if not d & (d - 1):
                queue.append((v, opts[0]))
            options.append(opts)
            dom.append(d)
        values = list(index)
        color = [-1] * n
        free = self.sizes[:]  # unassigned vertices per edge
        trail: list[int] = []  # assigned vertices, in assignment order
        dtrail: list[tuple[int, int]] = []  # (vertex, domain before a removal)
        # One frame per open decision: (vertex, next list position, trail
        # marks before the decision, largest value assigned before it).
        stack: list[tuple[int, int, int, int, int]] = []
        self.nodes = nodes = 0
        top = -1
        v = -1  # the vertex of the current decision; -1 at the root
        pos = tmark = dmark = 0
        while True:
            ok = True
            while queue and ok:
                u, c = queue.pop()
                color[u] = c
                trail.append(u)
                for j in inc[u]:
                    f = free[j] - 1
                    free[j] = f
                    if f > 1 or not ok:
                        continue
                    w = -1
                    for x in edges[j]:
                        cx = color[x]
                        if cx == -1:
                            w = x
                        elif cx != c:
                            break
                    else:
                        # Every assigned vertex of edge j has value c.
                        if f == 0:
                            ok = False
                            continue
                        d = dom[w]
                        if d >> c & 1:
                            dtrail.append((w, d))
                            d ^= 1 << c
                            dom[w] = d
                            if not d:
                                ok = False
                            elif not d & (d - 1):
                                queue.append((w, d.bit_length() - 1))
            if ok:
                if v >= 0:
                    stack.append((v, pos, tmark, dmark, top))
                if interchangeable:
                    top = max([top] + [color[u] for u in trail[tmark:]])
                v += 1
                while v < n and color[v] != -1:
                    v += 1
                if v == n:
                    self.nodes = nodes
                    return [values[c] for c in color]
                pos = 0
                tmark, dmark = len(trail), len(dtrail)
            elif v < 0:
                return None
            else:
                queue.clear()
            # Undo to the marks of the decision at v and take its next open
            # value; when none is left, resume the previous decision instead.
            while True:
                while len(trail) > tmark:
                    u = trail.pop()
                    color[u] = -1
                    for j in inc[u]:
                        free[j] += 1
                while len(dtrail) > dmark:
                    w, d = dtrail.pop()
                    dom[w] = d
                opts = options[v]
                d = dom[v]
                while pos < len(opts):
                    c = opts[pos]
                    pos += 1
                    if d >> c & 1 and not (interchangeable and c > top + 1):
                        break
                else:
                    if not stack:
                        self.nodes = nodes
                        return None
                    v, pos, tmark, dmark, top = stack.pop()
                    continue
                break
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                self.nodes = nodes
                raise GuardExceededError(
                    f"coloring search exceeded the node guard {max_nodes}"
                )
            queue.append((v, c))


def find_bipartition(
    hg: Hypergraph, *, max_nodes: Optional[int] = SEARCH_NODE_GUARD
) -> Optional[Bipartition]:
    """First valid 2-coloring in lexicographic order (index order, A before B).

    Returns None iff the hypergraph admits no proper 2-coloring.  Raises
    GuardExceededError once the search has made more than ``max_nodes``
    branching decisions; pass None for no budget.
    """
    side = _ListSearch(hg).solve([(SIDE_A, SIDE_B)] * hg.n, max_nodes=max_nodes)
    return None if side is None else Bipartition(tuple(side))


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def gen_complete(s: int, n: int, m: int) -> tuple[Hypergraph, Bipartition]:
    """Complete 2-colorable s-uniform hypergraph on parts of sizes n and m.

    Vertices 0..n-1 form side A, vertices n..n+m-1 side B; edges are all
    s-subsets meeting both sides, in lexicographic order.
    """
    if s < 2 or n < 1 or m < 1 or n + m < s:
        raise ValueError(f"infeasible parameters s={s}, n={n}, m={m}")
    edges = tuple(
        c for c in combinations(range(n + m), s) if c[0] < n and c[-1] >= n
    )
    expected = math.comb(n + m, s) - math.comb(n, s) - math.comb(m, s)
    assert len(edges) == expected
    bip = Bipartition(tuple([SIDE_A] * n + [SIDE_B] * m))
    return Hypergraph(n + m, edges), bip


def gen_fano() -> Hypergraph:
    """The 7-point projective plane: 3-uniform, 3-regular, not 2-colorable."""
    lines = (
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    )
    return Hypergraph(7, lines)


def gen_k_regular_k_uniform(
    k: int, n: int, seed: int, proposals: int = 100_000
) -> Optional[Hypergraph]:
    """Random k-uniform hypergraph on n vertices with every degree exactly k.

    Builds k layers, each a permutation of the vertices; edge j collects the
    layer values at position j.  Columns with repeated vertices are repaired
    by random in-layer swaps; each swap or restart consumes one proposal from
    the budget.  Returns None if the budget is exhausted.  Edge count is
    always n (k*n incidences at k per edge), and duplicate edges may occur.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"edge size {k} exceeds vertex count {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    budget = proposals
    while budget > 0:
        layers = [[int(x) for x in rng.permutation(n)] for _ in range(k)]
        budget -= 1
        stall = 0
        while budget > 0 and stall < 50 * n:
            conflict = None
            for j in range(n):
                column = [layers[i][j] for i in range(k)]
                if len(set(column)) < k:
                    conflict = j
                    break
            if conflict is None:
                edges = tuple(
                    tuple(sorted(layers[i][j] for i in range(k))) for j in range(n)
                )
                hg = Hypergraph(n, edges)
                assert hg.degrees() == [k] * n
                return hg
            column = [layers[i][conflict] for i in range(k)]
            dup_layer = next(
                i for i in range(1, k) if column[i] in column[:i]
            )
            j2 = (conflict + 1 + int(rng.integers(n - 1))) % n
            layers[dup_layer][conflict], layers[dup_layer][j2] = (
                layers[dup_layer][j2],
                layers[dup_layer][conflict],
            )
            budget -= 1
            stall += 1
    return None
