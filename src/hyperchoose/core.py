"""Hypergraph types, HGR file I/O, validation, the list-coloring search, and
instance generators.

Vertices are the integers 0..n-1.  Edges are stored as sorted vertex tuples
in insertion order; duplicate edges are allowed (multigraph semantics: degree
counts include multiplicity) and are reported by :func:`validate`.  All types
are immutable after construction and safe to share across threads.

Certificates are plain tuples aligned with the vertices or the edges: a
coloring holds one color per vertex, a 2-coloring one ``"A"``/``"B"`` side
label per vertex, an orientation one head per edge.  Every list coloring a
command prints, the gk first fit, the split coloring and the list search's,
passes :func:`_verified`, after :meth:`ListAssignment.require_count` has
checked that there is one list per vertex; the exact choosability search
checks its colorings with the same :func:`_fits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, takewhile
from operator import lt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    GuardExceededError,
    InputError,
    PreconditionError,
    TheoremContradictionError,
    check_guard,
)

SIDE_A = "A"
SIDE_B = "B"


@dataclass(frozen=True)
class Hypergraph:
    """A vertex count plus an ordered list of vertex-set edges.

    Equality and hash compare ``n`` and the edges in stored order: the order
    is part of the value, since serialization and every per-edge witness
    follow it.
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

    @classmethod
    def _checked(cls, n: int, edges: tuple[tuple[int, ...], ...]) -> "Hypergraph":
        """A hypergraph over edges the caller has already normalized and checked.

        Each edge must be a sorted tuple of at least two distinct vertices in
        0..n-1, and n nonnegative: the invariants ``__post_init__`` enforces,
        which this constructor does not check again.
        """
        hg = object.__new__(cls)
        object.__setattr__(hg, "n", n)
        object.__setattr__(hg, "edges", edges)
        return hg

    def degrees(self) -> list[int]:
        """Per-vertex degree, counting duplicate edges with multiplicity."""
        return vertex_counts(self.n, chain.from_iterable(self.edges))


def vertex_counts(n: int, vertices: Iterable[int]) -> list[int]:
    """How often each of the vertices 0..n-1 occurs in ``vertices``.

    The degrees of a hypergraph, the head degrees of an orientation and the
    degrees of a pair selection are all this count.
    """
    d = [0] * n
    for v in vertices:
        d[v] += 1
    return d


def _incidence(n: int, edges: Sequence[Sequence[int]]) -> list[list[int]]:
    """Per vertex of 0..n-1, the indices of the edges holding it, in edge order."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            inc[v].append(j)
    return inc


def orientation_is_valid(hg: Hypergraph, phi: Sequence[int]) -> bool:
    """True iff ``phi`` holds one head per edge, each a vertex of its edge."""
    return len(phi) == len(hg.edges) and all(h in e for h, e in zip(phi, hg.edges))


def require_orientation(hg: Hypergraph, phi: Sequence[int]) -> None:
    """PreconditionError unless :func:`orientation_is_valid` holds."""
    if not orientation_is_valid(hg, phi):
        raise PreconditionError("orientation is not valid for the hypergraph")


@dataclass(frozen=True)
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

    @classmethod
    def _checked(cls, lists: tuple[tuple[int, ...], ...]) -> "ListAssignment":
        """A list assignment over lists the caller has already sorted and checked.

        Each list must be a sorted tuple of distinct nonnegative integers and
        not empty: the invariants ``__post_init__`` enforces, which this
        constructor does not check again.
        """
        la = object.__new__(cls)
        object.__setattr__(la, "lists", lists)
        return la

    @property
    def n(self) -> int:
        return len(self.lists)

    def sizes(self) -> list[int]:
        return [len(lv) for lv in self.lists]

    def palette(self) -> list[int]:
        return sorted({c for lv in self.lists for c in lv})

    def require_count(self, n: int) -> None:
        """PreconditionError unless this holds one list per vertex of 0..n-1."""
        if self.n != n:
            raise PreconditionError("list assignment size differs from vertex count")

    def require_sizes(self, floors: Iterable[int], rule: str) -> None:
        """PreconditionError at the first vertex whose list is below its floor."""
        for v, (lv, floor) in enumerate(zip(self.lists, floors)):
            if len(lv) < floor:
                raise PreconditionError(
                    f"vertex {v}: list of size {len(lv)} is below the required "
                    f"{floor} ({rule})"
                )

    def to_json(self) -> dict:
        return {"n": self.n, "lists": [list(lv) for lv in self.lists]}

    @classmethod
    def from_json(cls, doc) -> "ListAssignment":
        """The list assignment of a parsed ``{"n": ..., "lists": [...]}`` document.

        A type fault anywhere, then a count mismatch, raises ``InputError``;
        only then does the constructor raise its first value fault.  Lists
        all of one size, each already strictly ascending and nonnegative, are
        checked a column at a time and skip the constructor.
        """
        if not isinstance(doc, dict):
            raise InputError("list assignment document must be a JSON object")
        try:
            n = doc["n"]
            lists = doc["lists"]
        except KeyError as exc:
            raise InputError(f"list assignment document missing field: {exc}")
        types = "list assignment needs an integer n and lists of integer colors"
        if not (
            _is_int(n)
            and isinstance(lists, list)
            and all(isinstance(lv, list) for lv in lists)
        ):
            raise InputError(types)
        # Plain ints pass on their types alone; any other type, such as a
        # subclass of int, goes through _is_int.
        flat = list(chain.from_iterable(lists))
        if not (set(map(type, flat)) <= _INT or all(map(_is_int, flat))):
            raise InputError(types)
        if len(lists) != n:
            raise InputError(
                f"list assignment declares n={n} but carries {len(lists)} lists"
            )
        sizes = set(map(len, lists))
        if len(sizes) == 1 and (size := sizes.pop()):
            columns = _ascending_columns(flat, size)
            if columns is not None:
                return cls._checked(tuple(zip(*columns)))
        return cls(tuple(lists))  # which sorts each list into a tuple


_INT = {int}


def _ascending_columns(values: list[int], width: int) -> Optional[list[list[int]]]:
    """The columns of ``values`` read as rows of ``width``, or None unless
    every row ascends strictly from a nonnegative first entry.

    Each comparison runs over a whole column pair at once, in C.
    """
    columns = [values[i::width] for i in range(width)]
    if min(columns[0]) < 0:
        return None
    if not all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:])):
        return None
    return columns


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Metrics:
    max_degree: int
    min_edge_size: int
    uniform: Optional[int]
    edge_count: int


def require_edges(hg: Hypergraph, what: str) -> None:
    """ValueError "<what> undefined for an empty edge set" unless ``hg`` has an edge."""
    if not hg.edges:
        raise ValueError(f"{what} undefined for an empty edge set")


def metrics(hg: Hypergraph) -> Metrics:
    """Max degree, min edge size, uniformity, and edge count of a hypergraph."""
    require_edges(hg, "metrics")
    sizes = {len(e) for e in hg.edges}
    return Metrics(
        max_degree=max(hg.degrees()),
        min_edge_size=min(sizes),
        uniform=sizes.pop() if len(sizes) == 1 else None,
        edge_count=len(hg.edges),
    )


def is_proper(hg: Hypergraph, color: Sequence[int]) -> bool:
    """True iff no edge is monochromatic under the coloring."""
    if len(color) != hg.n:
        raise ValueError("coloring must assign a color to every vertex")
    for e in hg.edges:
        first = color[e[0]]
        for v in e:
            if color[v] != first:
                break
        else:
            return False
    return True


def bipartition_is_valid(hg: Hypergraph, bip: Sequence[str]) -> bool:
    """True iff ``bip`` labels every vertex A or B and every edge meets both sides."""
    return len(bip) == hg.n and set(bip) <= {SIDE_A, SIDE_B} and is_proper(hg, bip)


def require_bipartition(hg: Hypergraph, bip: Sequence[str]) -> None:
    """PreconditionError unless :func:`bipartition_is_valid` holds."""
    if not bipartition_is_valid(hg, bip):
        raise PreconditionError("bipartition is not valid for the hypergraph")


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

# Vertices an HGR header may declare: the most that `generate regular` writes
# within its own guard.  Every per-vertex array is sized from n.
HGR_VERTEX_GUARD = 5 * 10**6

# Characters the HGR block reader splits and converts at a time, up to the end
# of the line holding the last of them: a few thousand edge lines, enough to
# leave the per-line work to C, few enough that a block's tokens stay small
# next to the edges (splitting a 10^6-edge text whole doubled the memory).
HGR_BLOCK_CHARS = 1 << 16

# The ASCII characters other than "\n" at which str.splitlines ends a line.
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse an HGR document, rejecting malformed input with a line number.

    A document in the form :func:`serialize_hypergraph` writes is read a block
    of lines at a time by :func:`_parse_blocks`.  Every other document, and
    every fault, goes to the line reader :func:`_parse_lines`, which gives
    the same hypergraph on what both accept and is the only source of error
    messages.
    """
    hg = _parse_blocks(text)
    return _parse_lines(text) if hg is None else hg


def _parse_blocks(text: str) -> Optional[Hypergraph]:
    """The hypergraph of a document in serialized form, or None for any other.

    The form: ASCII with "\\n" as the only line break; the header ``p hg n m``
    first, with 0 <= n <= ``HGR_VERTEX_GUARD`` and m >= 1; then exactly m
    lines, each starting "e ", where every line of a block has the same
    count of at least three tokens, and each edge's vertices are integers
    strictly ascending within 0..n-1.  These are the checks the line reader
    makes, done a column of a block at a time.  A block ends with the line
    that holds its ``HGR_BLOCK_CHARS``-th character, or with the document.
    """
    if not text.isascii() or any(c in text for c in _LINE_BREAKS):
        return None
    head, _, body = text.partition("\n")
    fields = head.split()
    if len(fields) != 4 or fields[:2] != ["p", "hg"]:
        return None
    try:
        n, m = int(fields[2]), int(fields[3])
    except ValueError:
        return None
    if not 0 <= n <= HGR_VERTEX_GUARD or m < 1:
        return None
    size = len(body)
    edges: list[tuple[int, ...]] = []
    pos = 0
    while pos < size:
        end = body.find("\n", pos + HGR_BLOCK_CHARS - 1) + 1 or size
        block = body[pos:end]
        pos = end
        lines = block.count("\n") + (block[-1] != "\n")
        # Every line starts "e ".  With the token count a multiple of the
        # line count, deleting every width-th token then leaves an "e", which
        # int() rejects, unless each line has exactly ``width`` tokens.
        tokens = block.split()
        width, extra = divmod(len(tokens), lines)
        if (
            extra
            or width < 3
            or not block.startswith("e ")
            or block.count("\ne ") != lines - 1
        ):
            return None
        del tokens[::width]
        try:
            vertices = list(map(int, tokens))
        except ValueError:
            return None
        columns = _ascending_columns(vertices, width - 1)
        if columns is None or max(columns[-1]) >= n:
            return None
        edges.extend(zip(*columns))
    if len(edges) != m:
        return None
    return Hypergraph._checked(n, tuple(edges))


def _parse_lines(text: str) -> Hypergraph:
    """Parse any HGR document a line at a time, rejecting malformed input
    with a line number.

    Each line is split once.  Each edge is sorted and checked once, here,
    and the hypergraph is built from the checked edges without a second
    check.  An edge with several vertices out of range reports the first of
    them in line order.
    """
    n = None
    declared = None
    edges: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "e":
            if n is None:
                raise InputError("edge line before header", lineno)
            try:
                e = tuple(sorted(map(int, tokens[1:])))
            except ValueError:
                raise InputError(f"non-integer vertex in {raw.strip()!r}", lineno)
            if len(e) < 2:
                raise InputError("edge of size < 2", lineno)
            if len(set(e)) != len(e):
                raise InputError("duplicate vertex in edge", lineno)
            if e[0] < 0 or e[-1] >= n:
                v = next(v for v in map(int, tokens[1:]) if v < 0 or v >= n)
                raise InputError(f"vertex index {v} outside 0..{n - 1}", lineno)
            edges.append(e)
        elif kind.startswith("c"):
            continue
        elif kind == "p":
            if n is not None:
                raise InputError("duplicate header line", lineno)
            if len(tokens) != 4 or tokens[1] != "hg":
                raise InputError(f"malformed header {raw.strip()!r}", lineno)
            try:
                n, declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise InputError(
                    f"non-integer header field in {raw.strip()!r}", lineno
                )
            if n < 0 or declared < 0:
                raise InputError("negative count in header", lineno)
            check_guard(n, HGR_VERTEX_GUARD, f"header n = {n} vertices")
        else:
            raise InputError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise InputError("missing header line")
    if len(edges) != declared:
        raise InputError(
            f"header declares {declared} edges but document has {len(edges)}"
        )
    return Hypergraph._checked(n, tuple(edges))


def serialize_hypergraph(hg: Hypergraph) -> str:
    """Bit-exact HGR form: sorted vertices per edge, edges in stored order."""
    lines = [f"p hg {hg.n} {len(hg.edges)}"]
    lines.extend("e " + " ".join(str(v) for v in e) for e in hg.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# List-coloring search
# ---------------------------------------------------------------------------

# Branching decisions allowed to every list search on top of one per vertex,
# so that an input on which the search goes exponential raises instead of
# hanging, while a search that never backtracks passes at any size.
SEARCH_NODE_GUARD = 1_000_000


class _ListSearch:
    """Depth-first list-coloring search with edge unit propagation.

    A proper list coloring of a hypergraph is NAE-SAT over the lists: no edge
    may take a single value.  The search branches on the lowest-index
    unassigned vertex, trying its values in ascending order, and keeps an
    explicit stack of decisions plus a trail of assignments and domain
    removals that backtracking undoes (Davis-Logemann-Loveland).  A vertex's
    open values are one bitmask, bit i standing for the i-th smallest value.

    Propagation: when every assigned vertex of an edge has value c and exactly
    one vertex is free, c leaves that vertex's domain; an empty domain is a
    conflict and a single remaining value is assigned at once.  Only values
    that no proper extension uses are removed.  When every list holds the same
    values, a branching vertex tries only values up to one past the largest
    assigned so far: swapping two values keeps a coloring proper, so the
    lexicographically first coloring never skips a value, and survives.  The
    first coloring found is therefore the lexicographically first one (vertex
    0 most significant, values in ascending order).

    The edges on vertices 0..n-1 are taken as given, unsorted and unchecked;
    propagation does not depend on the order of an edge's vertices.  The
    incidence index is built once and reused by every :meth:`solve` call.
    """

    def __init__(self, n: int, edges: Sequence[Sequence[int]]):
        self.n = n
        self.edges = edges
        self.sizes = [len(e) for e in edges]
        self.inc = _incidence(n, edges)
        self.nodes = 0  # branching decisions made by the last solve

    def solve(self, lists: Sequence[Sequence]) -> Optional[list]:
        """First proper coloring taking each vertex's value from its list, or None.

        A search that never backtracks makes at most one branching decision
        per vertex; more than ``SEARCH_NODE_GUARD`` decisions beyond those
        raise GuardExceededError.
        """
        n, edges, inc = self.n, self.edges, self.inc
        guard = SEARCH_NODE_GUARD
        values = sorted(set(chain.from_iterable(lists)))
        bit = {c: 1 << i for i, c in enumerate(values)}
        dom: list[int] = []  # bitmask of the values still open to each vertex
        queue: list[tuple[int, int]] = []  # (vertex, bit) assignments to propagate
        for v, lv in enumerate(lists):
            d = 0
            for c in lv:
                d |= bit[c]
            if not d:
                return None
            if not d & (d - 1):
                queue.append((v, d.bit_length() - 1))
            dom.append(d)
        interchangeable = n > 0 and dom.count(dom[0]) == n
        color = [-1] * n
        free = self.sizes[:]  # unassigned vertices per edge
        trail: list[int] = []  # assigned vertices, in assignment order
        dtrail: list[tuple[int, int]] = []  # (vertex, domain before a removal)
        # One frame per open decision: (vertex, bit tried last, trail marks
        # before the decision, largest value assigned before it).
        stack: list[tuple[int, int, int, int, int]] = []
        self.nodes = nodes = 0
        top = -1
        v = -1  # the vertex of the current decision; -1 at the root
        tmark = dmark = 0
        while True:
            ok = True
            while queue and ok:
                u, cu = queue.pop()
                color[u] = cu
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
                        elif cx != cu:
                            break
                    else:
                        # Every assigned vertex of edge j has value cu.
                        if f == 0:
                            ok = False
                            continue
                        d = dom[w]
                        if d >> cu & 1:
                            dtrail.append((w, d))
                            d ^= 1 << cu
                            dom[w] = d
                            if not d:
                                ok = False
                            elif not d & (d - 1):
                                queue.append((w, d.bit_length() - 1))
            if ok:
                if v >= 0:
                    stack.append((v, c, tmark, dmark, top))
                if interchangeable and top < len(values) - 1:
                    top = max([top] + [color[u] for u in trail[tmark:]])
                v += 1
                while v < n and color[v] != -1:
                    v += 1
                if v == n:
                    self.nodes = nodes
                    return [values[c] for c in color]
                c = -1
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
                d = dom[v] >> (c + 1) << (c + 1)
                if interchangeable:
                    d &= (2 << (top + 1)) - 1
                if d:
                    break
                if not stack:
                    self.nodes = nodes
                    return None
                v, c, tmark, dmark, top = stack.pop()
            c = (d & -d).bit_length() - 1
            nodes += 1
            if nodes > guard + n:
                self.nodes = nodes
                raise GuardExceededError(
                    f"coloring search exceeded the node guard {guard}"
                )
            queue.append((v, c))


def find_bipartition(hg: Hypergraph) -> Optional[tuple[str, ...]]:
    """First valid 2-coloring in lexicographic order (index order, A before B).

    Returns None iff the hypergraph admits no proper 2-coloring.  Raises
    GuardExceededError once the search has made more than
    ``SEARCH_NODE_GUARD`` branching decisions beyond one per vertex.
    """
    side = _ListSearch(hg.n, hg.edges).solve([(SIDE_A, SIDE_B)] * hg.n)
    return None if side is None else tuple(side)


def _fits(hg: Hypergraph, color: Sequence, lists: Sequence[Sequence[int]]) -> bool:
    """True iff ``color`` is proper for ``hg`` and takes each color from its list."""
    return is_proper(hg, color) and all(c in lv for c, lv in zip(color, lists))


def _verified(
    hg: Hypergraph, color: Sequence, lists: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """``color`` as a tuple, checked by :func:`_fits` against one list per vertex."""
    color = tuple(color)
    if not _fits(hg, color, lists):
        raise TheoremContradictionError("list coloring failed verification")
    return color


def _color_lists(
    hg: Hypergraph, edges: Sequence[Sequence[int]], lists: ListAssignment
) -> Optional[tuple[int, ...]]:
    """The list search's coloring for ``edges``, verified for ``hg``, or None.

    ``edges`` are the hypergraph's own or one vertex pair inside each of
    them, so a coloring proper on them is proper on ``hg``.  A list count
    other than ``hg.n`` raises PreconditionError.
    """
    lists.require_count(hg.n)
    color = _ListSearch(hg.n, edges).solve(lists.lists)
    return None if color is None else _verified(hg, color, lists.lists)


# ---------------------------------------------------------------------------
# Edge-vertex flow
# ---------------------------------------------------------------------------


def edge_vertex_flow(
    hg: Hypergraph, edge_cap: int, vertex_cap: int, incidence_cap: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """Maximum flow on the network source -> edge -> vertex -> sink.

    Every edge node gets ``edge_cap`` from the source, every incidence arc
    carries up to ``incidence_cap``, and every vertex passes at most
    ``vertex_cap`` to the sink.  Density, orientations and degree-capped
    selections are this one network with different capacities.

    The network is implicit; no arc is stored.  Each edge owns a contiguous
    run of incidence slots, ``base[j]`` up to ``base[j + 1]``, in edge order,
    and each slot holds the residual of its incidence arc, so the reverse arc
    holds ``incidence_cap`` minus that.  Each vertex lists its slots in the
    order they were created.  The source arcs are the edges' residual
    ``supply`` and the sink arcs the vertices' ``spare`` capacity.

    Dinic's algorithm: a level graph per phase, then a blocking flow by a
    depth-first walk with current-arc pointers and an explicit path stack, so
    paths of any length never recurse.  In the first phase every edge sits at
    level 1, every vertex at level 2 and the sink at level 3, and no reverse
    arc carries anything; a vertex tries the sink first, and once its spare
    capacity is spent it is a dead end.  So the first blocking flow is a
    greedy loop: each edge in order sends to each of its vertices in edge
    order as much as its supply, the incidence and the vertex's spare
    capacity allow.

    Each later level graph holds only the nodes on a shortest augmenting
    path.  A bidirectional search finds them: one side grows layers from the
    edges with supply left, the other grows layers back over residual arcs
    from the vertices with spare capacity, and each step grows the side with
    the smaller frontier by one whole layer.  The search stops at the first
    layer where the sides meet, which fixes the shortest path length.  A
    sweep back from the meeting nodes keeps the source-side nodes that lead
    to them; a sink-side node keeps the level its distance to the sink gives
    it, and the walk never reaches one that lies on no shortest path.  When
    the sides never meet, the source side runs to the end, and the edges it
    reached are the cut.  A node on no shortest path is a dead end for the
    whole phase, since augmenting only removes level arcs and adds arcs one
    level down; the walk would enter it, find nothing and retreat without
    changing a residual.  So leaving it out changes neither the paths nor
    their order.

    The flow found, and with it every witness built from ``flowing``, depends
    on the order in which the walk tries arcs; that order is fixed as
    follows.  Level-1 edges start walks in edge order.  An edge tries its
    vertices in edge order; a vertex tries the sink, then its slots in
    creation order, each leading back to the slot's edge.  Only vertices on
    the top level can use the sink, and their slots lead nowhere.  A walk
    that reaches the sink augments and restarts at its level-1 edge with the
    pointers kept, which retraces the path up to its first saturated arc.

    Returns the flow value, the vertex of each incidence arc that carries
    flow, in slot order (edge by edge in ``hg.edges`` order, each edge's
    vertices in its own order), and the indices of the edges on the source
    side of the residual network, which is the minimal minimum cut.
    """
    edges = hg.edges
    m, n = len(edges), hg.n
    vert = list(chain.from_iterable(edges))  # the vertex of each slot
    owner = [j for j, e in enumerate(edges) for _ in e]  # the edge of each slot
    base = list(accumulate(map(len, edges), initial=0))
    vslots: list[list[int]] = [[] for _ in range(n)]
    for k, v in enumerate(vert):
        vslots[v].append(k)
    res = [incidence_cap] * len(vert)
    supply = [edge_cap] * m
    spare = [vertex_cap] * n

    # The first phase's blocking flow.
    for j, e in enumerate(edges):
        left = edge_cap
        for k, v in enumerate(e, base[j]):
            d = spare[v]
            if d > 0:
                if d > left:
                    d = left
                if d > incidence_cap:
                    d = incidence_cap
                res[k] -= d
                spare[v] -= d
                left -= d
                if not left:
                    break
        supply[j] = left

    top = m + n + 2  # the level of the vertices next to the sink
    while True:
        # Labels: -d at distance d from the source, top - d at distance d
        # from the sink side's first layer, 0 for unreached or dead.  Edges
        # lie at odd, vertices at even distance from the source.
        lev_e = [0] * m
        lev_v = [0] * n
        sf = list(compress(range(m), supply))  # the source side's frontier
        for j in sf:
            lev_e[j] = -1
        tf = list(compress(range(n), spare))  # the sink side's frontier
        for v in tf:
            lev_v[v] = top
        ds, dt = 1, 0  # the distance of each frontier
        met: list[int] = []  # source-side nodes at distance ds on a shortest path
        while sf and not met:
            new = []
            if tf and len(tf) < len(sf):
                # Back from the sink.  A node the source side reached meets it.
                dt += 1
                lv = top - dt
                if dt % 2:
                    for v in tf:
                        for k in vslots[v]:
                            if res[k] > 0:
                                j = owner[k]
                                x = lev_e[j]
                                if x <= 0:
                                    lev_e[j] = lv
                                    if x:
                                        met.append(j)
                                    else:
                                        new.append(j)
                else:
                    for j in tf:
                        for k in range(base[j], base[j + 1]):
                            if res[k] < incidence_cap:
                                v = vert[k]
                                x = lev_v[v]
                                if x <= 0:
                                    lev_v[v] = lv
                                    if x:
                                        met.append(v)
                                    else:
                                        new.append(v)
                tf = new
            else:
                # On from the source.  A frontier node that reaches the sink
                # side meets it, and its later arcs need no look.
                lv = top - dt - 1
                d = -ds - 1
                if ds % 2:
                    for j in sf:
                        for k in range(base[j], base[j + 1]):
                            if res[k] > 0:
                                v = vert[k]
                                x = lev_v[v]
                                if not x:
                                    lev_v[v] = d
                                    new.append(v)
                                elif x > 0:
                                    lev_e[j] = lv
                                    met.append(j)
                                    break
                else:
                    for v in sf:
                        for k in vslots[v]:
                            if res[k] < incidence_cap:
                                j = owner[k]
                                x = lev_e[j]
                                if not x:
                                    lev_e[j] = d
                                    new.append(j)
                                elif x > 0:
                                    lev_v[v] = lv
                                    met.append(v)
                                    break
                if not met:
                    ds += 1
                    sf = new
        if not met:
            break
        # Keep the source-side nodes that lead to a meeting node: sweep back
        # from them, one distance at a time, relabelling each kept node
        # top - (the distance to the sink side's first layer).
        while ds > 1:
            ds -= 1
            lv -= 1
            new = []
            if ds % 2:
                for v in met:
                    for k in vslots[v]:
                        if res[k] > 0:
                            j = owner[k]
                            if lev_e[j] == -ds:
                                lev_e[j] = lv
                                new.append(j)
            else:
                for j in met:
                    for k in range(base[j], base[j + 1]):
                        if res[k] < incidence_cap:
                            v = vert[k]
                            if lev_v[v] == -ds:
                                lev_v[v] = lv
                                new.append(v)
            met = new
        it_e = base[:m]  # current slot of each edge
        it_v = [0] * n  # current position in each vertex's slot list
        for j0 in sorted(met):
            path: list[int] = []  # slots: forward at even, reverse at odd positions
            j = j0
            while True:
                # At edge j: advance to a vertex, or retreat from j.
                lv = lev_e[j] + 1
                end = base[j + 1]
                k = it_e[j]
                while k < end and not (res[k] > 0 and lev_v[vert[k]] == lv):
                    k += 1
                it_e[j] = k
                if k < end:
                    path.append(k)
                    v = vert[k]
                else:
                    # Dead end: no arc leads here again this phase; retreat.
                    lev_e[j] = 0
                    if not path:
                        break
                    v = vert[path.pop()]
                    it_v[v] += 1
                # At vertex v: augment, advance to an edge, or retreat from v.
                lv = lev_v[v]
                if lv == top:
                    if spare[v] > 0:
                        fwd, rev = path[0::2], path[1::2]
                        pushed = min(
                            supply[j0],
                            spare[v],
                            *[res[k] for k in fwd],
                            *[incidence_cap - res[k] for k in rev],
                        )
                        for k in fwd:
                            res[k] -= pushed
                        for k in rev:
                            res[k] += pushed
                        supply[j0] -= pushed
                        spare[v] -= pushed
                        if not supply[j0]:
                            break
                        path.clear()
                        j = j0
                        continue
                else:
                    slots = vslots[v]
                    lv += 1
                    i = it_v[v]
                    end = len(slots)
                    while i < end:
                        k = slots[i]
                        if res[k] < incidence_cap and lev_e[owner[k]] == lv:
                            break
                        i += 1
                    it_v[v] = i
                    if i < end:
                        path.append(k)
                        j = owner[k]
                        continue
                lev_v[v] = 0
                j = owner[path.pop()]
                it_e[j] += 1

    flowing = tuple(compress(vert, map(incidence_cap.__gt__, res)))
    value = edge_cap * m - sum(supply)
    return value, flowing, [j for j in range(m) if lev_e[j] < 0]


def _capped_heads(hg: Hypergraph, units: int, k: int) -> Optional[tuple[int, ...]]:
    """Per edge, the ``units`` vertices that take its unit flow, at most k per
    vertex, or None if no flow saturates every edge; InputError if k < 1."""
    if k < 1:
        raise InputError("k must be at least 1")
    value, flowing, _ = edge_vertex_flow(hg, units, k, 1)
    return flowing if value == units * len(hg.edges) else None


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


# Edges that gen_complete may build.
COMPLETE_EDGE_GUARD = 10**6


def gen_complete(s: int, n: int, m: int) -> tuple[Hypergraph, tuple[str, ...]]:
    """Complete 2-colorable s-uniform hypergraph on parts of sizes n and m.

    Vertices 0..n-1 form side A, vertices n..n+m-1 side B; edges are all
    s-subsets meeting both sides, in lexicographic order: each (s-1)-subset
    that starts in A, in order, followed by each larger vertex in B.  More than
    ``COMPLETE_EDGE_GUARD`` edges raise GuardExceededError before any is built.
    """
    if s < 2 or n < 1 or m < 1 or n + m < s:
        raise InputError(f"infeasible parameters s={s}, n={n}, m={m}")
    # Each s-subset holding vertices 0 and n+m-1 is an edge, so there are at
    # least C(n+m-2, s-2) >= 2^min(s-2, n+m-s) edges; past the guard that way,
    # a huge s costs no binomial.
    expected = math.inf
    if min(s - 2, n + m - s) < COMPLETE_EDGE_GUARD.bit_length():
        expected = math.comb(n + m, s) - math.comb(n, s) - math.comb(m, s)
    what = f"C({n + m}, {s}) - C({n}, {s}) - C({m}, {s}) edges"
    check_guard(expected, COMPLETE_EDGE_GUARD, what)
    pool = tuple(range(n + m))
    heads = takewhile(lambda h: h[0] < n, combinations(pool, s - 1))
    edges = tuple(h + (v,) for h in heads for v in pool[max(h[-1] + 1, n) :])
    assert len(edges) == expected
    return Hypergraph._checked(n + m, edges), (SIDE_A,) * n + (SIDE_B,) * m


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


def _rng(seed: int) -> np.random.Generator:
    """The Philox generator keyed by ``seed``; equal seeds replay equal draws."""
    return np.random.Generator(np.random.Philox(seed))


# Proposals (layer draws and swaps) one call of gen_k_regular_k_uniform may spend.
PROPOSAL_BUDGET = 100_000
# Incidences (k*n) that gen_k_regular_k_uniform may draw.
REGULAR_INCIDENCE_GUARD = 10**7


def gen_k_regular_k_uniform(k: int, n: int, seed: int) -> Optional[Hypergraph]:
    """Random k-uniform hypergraph on n vertices with every degree exactly k.

    Builds k layers, each a permutation of the vertices; edge j collects the
    layer values at position j.  Columns with repeated vertices are repaired
    by random in-layer swaps; each swap or restart consumes one of
    ``PROPOSAL_BUDGET`` proposals, and None means they ran out.  Edge count
    is always n (k*n incidences at k per edge), and duplicate edges may occur.
    More than ``REGULAR_INCIDENCE_GUARD`` incidences raise GuardExceededError
    before any draw.
    """
    if k < 2:
        raise InputError("k must be at least 2")
    if n < k:
        raise InputError(f"edge size {k} exceeds vertex count {n}")
    check_guard(k * n, REGULAR_INCIDENCE_GUARD, f"k*n = {k * n} incidences")
    rng = _rng(seed)
    budget = PROPOSAL_BUDGET
    while budget > 0:
        layers = np.stack([rng.permutation(n) for _ in range(k)])
        budget -= 1
        stall = 0
        # Column j sorted is edge j; it repeats a vertex iff two adjacent
        # entries are equal.  A swap re-sorts and re-tests only its columns.
        cols = np.sort(layers, axis=0)
        bad = (cols[1:] == cols[:-1]).any(axis=0)
        while True:
            # Test before the budget check, so the last proposal is tested too.
            conflict = int(bad.argmax())
            if not bad[conflict]:
                assert (np.bincount(cols.ravel(), minlength=n) == k).all()
                return Hypergraph._checked(n, tuple(zip(*cols.tolist())))
            if budget == 0 or stall >= 50 * n:
                break
            column = layers[:, conflict].tolist()
            dup_layer = next(
                i for i in range(1, k) if column[i] in column[:i]
            )
            j2 = (conflict + 1 + int(rng.integers(n - 1))) % n
            touched = [conflict, j2]
            row = layers[dup_layer]
            row[touched] = row[touched[::-1]]
            sub = np.sort(layers[:, touched], axis=0)
            cols[:, touched] = sub
            bad[touched] = (sub[1:] == sub[:-1]).any(axis=0)
            budget -= 1
            stall += 1
    return None
