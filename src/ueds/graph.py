"""Simple undirected graphs with stable edge indexing, plus the edge-domination
predicates and matching routines the rest of the toolkit builds on.

Vertices are 1-indexed in all external text formats and 0-indexed internally.
Edges get a stable id in input order, so every downstream computation that
iterates edges in id order is reproducible.  A Graph keeps its edges as one
read-only int64 array of shape (m, 2), row e holding edge e's ends; the
tuple of pairs ``edges`` and the adjacency ``adj`` are views built from it
on their first read.  Parsing, greedy matching, the kernel and
induced_subgraph work on the array, so that path builds no tuple per edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CoverViolation, DecompositionFormatError, GraphFormatError, NotStarForest

__all__ = [
    "EdgeSet",
    "Graph",
    "Star",
    "StarStructure",
    "parse_graph",
    "emit_graph",
    "is_edge_dominating",
    "domination_count",
    "is_minimal_eds",
    "greedy_maximal_matching",
    "star_decomposition",
    "vertex_cover_from_matching",
    "induced_subgraph",
]


@dataclass(frozen=True)
class EdgeSet:
    """A set of edge ids stored as a bitmask (bit e set <=> edge e is a member)."""

    mask: int = 0

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "EdgeSet":
        mask = 0
        for e in ids:
            mask |= 1 << e
        return cls(mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, edge_id: int) -> bool:
        return bool(self.mask >> edge_id & 1)

    def __iter__(self) -> Iterator[int]:
        """Yield member edge ids in ascending order."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


class Graph:
    """Immutable simple undirected graph.

    The edges live in ``edge_array``, a read-only int64 array of shape
    (m, 2) whose row e holds edge e's ends in the order given.  Construction
    validates simplicity (no loops, no parallel edges); parse_graph and
    induced_subgraph have already established simplicity and build through
    _simple, which skips the second check.  Two views of the array are built
    on their first read and cached: ``edges``, the tuple of (u, v) pairs,
    and ``adj``, each vertex's (neighbor, edge id) pairs.  A caller that
    reads only the array (greedy_maximal_matching, kernelize) never pays for
    either.  A Graph can still be shared freely between threads: the array
    never changes, so two threads racing on the first read of a view each
    build an equal value, and whichever lands in the cache serves every
    later read.
    """

    __slots__ = ("n", "m", "edge_array", "__dict__")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int]] = []
        for u, v in edges:
            u, v = index(u), index(v)  # a TypeError for a vertex that is no integer
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge ({u}, {v})")
            seen.add(key)
            normalized.append((u, v))
        self._build(n, normalized)

    @classmethod
    def _simple(cls, n: int, edges: np.ndarray | Sequence[tuple[int, int]]) -> "Graph":
        """A Graph from edges the caller has already checked: in range, no
        loops and no parallel edges.  An int64 array of shape (m, 2) is kept
        as it is, not copied, so the caller must not write to it later."""
        g = cls.__new__(cls)
        g._build(n, edges)
        return g

    def _build(self, n: int, edges: np.ndarray | Sequence[tuple[int, int]]) -> None:
        array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        array.flags.writeable = False
        self.n = n
        self.m = len(array)
        self.edge_array = array

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) pairs in edge-id order."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each vertex, its (neighbor, edge id) pairs in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(map(tuple, adj))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def edge_neighborhood_masks(self) -> tuple[int, ...]:
        """For each edge e, the bitmask of edges sharing an endpoint with e,
        including e itself (the closed edge neighborhood)."""
        incident = [0] * self.n
        for eid, (u, v) in enumerate(self.edges):
            bit = 1 << eid
            incident[u] |= bit
            incident[v] |= bit
        return tuple(incident[u] | incident[v] for u, v in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Star:
    """One component of a star forest.

    A single-edge star (two degree-1 endpoints) has no distinguished center:
    ``center`` is None and both endpoints sit in ``leaves``.  Stars with two or
    more edges have a unique center.
    """

    center: int | None
    leaves: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        if self.center is None:
            return frozenset(self.leaves)
        return frozenset((self.center, *self.leaves))


@dataclass(frozen=True)
class StarStructure:
    """A disjoint union of stars plus the vertices untouched by any star edge."""

    stars: tuple[Star, ...]
    isolated: tuple[int, ...]


# The shape emit_graph writes: the header line, then one "u v" line per edge.
# Fields of at most nine digits keep every duplicate key below 2**63.  The
# edge-line group is possessive, so a match keeps no backtracking state per
# line and takes constant memory.
_EMITTED = re.compile(r"p gr ([0-9]{1,9}) ([0-9]{1,9})\n((?:[0-9]{1,9} [0-9]{1,9}\n)*+)")

# Each PACE text format by its header's second field: the header's first
# field, how many counts follow, the format's error class and its error for a
# content line before the header.
_PACE_FORMATS = {
    "gr": ("p", 2, GraphFormatError, "edge line before header"),
    "td": ("s", 3, DecompositionFormatError, "content before header"),
}


def _pace_lines(text: str, fmt: str) -> Iterator[tuple]:
    """Read the line conventions the PACE .gr and .td formats share: blank
    and "c" comment lines are skipped, and one header of nonnegative integer
    counts comes before any other line.  Yields the header's counts, then
    (line number, fields, stripped line) for each later content line; raises
    the format's error on a header fault, with its line number."""
    tag, counts, error, stray = _PACE_FORMATS[fmt]
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        line = raw.strip()
        if fields[0] != tag:
            if header is None:
                raise error(stray, lineno)
            yield lineno, fields, line
            continue
        if header is not None:
            raise error("duplicate header", lineno)
        if len(fields) != 2 + counts or fields[1] != fmt:
            raise error(f"malformed header {line!r}", lineno)
        try:
            header = tuple(int(f) for f in fields[2:])
        except ValueError:
            raise error(f"non-integer header field in {line!r}", lineno)
        if min(header) < 0:
            raise error("negative counts in header", lineno)
        yield header
    if header is None:
        raise error("missing header")


def parse_graph(text: str) -> Graph:
    """Parse a PACE .gr graph: the header "p gr <n> <m>", then m lines
    "<u> <v>" with 1-indexed vertices; blank lines and "c" comment lines are
    skipped.

    A text in the exact shape emit_graph writes (the header as the first
    line, then only lines of two decimal fields, each of at most nine digits,
    split by one space, every line ending in "\n") is checked in bulk.  Any
    other text, or one the bulk checks reject, goes to a scan line by line,
    which gives the same graph, and which alone raises GraphFormatError (with
    a line number) on malformed headers, out-of-range vertices, self-loops,
    duplicate edges and a wrong edge count.
    """
    g = _parse_emitted(text)
    return _parse_lines(text) if g is None else g


def _parse_emitted(text: str) -> Graph | None:
    """The graph of a text in emit_graph's shape that passes every check of
    _parse_lines, or None when the text has another shape or fails one."""
    match = _EMITTED.fullmatch(text)
    if match is None:
        return None
    n, m = int(match[1]), int(match[2])
    ends = np.fromstring(match[3], dtype=np.int64, sep=" ") - 1
    if len(ends) != 2 * m or m and (ends.min() < 0 or ends.max() >= n):
        return None
    edges = ends.reshape(m, 2)
    u, v = edges[:, 0], edges[:, 1]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    if (u == v).any() or (keys[1:] == keys[:-1]).any():
        return None
    return Graph._simple(n, edges)


def _parse_lines(text: str) -> Graph:
    """parse_graph's line scan, the source of every GraphFormatError."""
    lines = _pace_lines(text, "gr")
    n, m_declared = next(lines)
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()  # (lower - 1) * n + higher - 1 per edge
    for lineno, parts, line in lines:
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {line!r}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex index out of range in {line!r}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (u - 1) * n + v - 1 if u < v else (v - 1) * n + u - 1
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(key)
        edges.append((u - 1, v - 1))
        if len(edges) > m_declared:
            raise GraphFormatError("more edge lines than declared", lineno)
    if len(edges) != m_declared:
        raise GraphFormatError(
            f"declared {m_declared} edges but found {len(edges)}"
        )
    # the loop above has checked range, loops and duplicates
    return Graph._simple(n, edges)


def emit_graph(g: Graph) -> str:
    """Serialize in the format parse_graph reads; byte-deterministic."""
    out = [f"p gr {g.n} {g.m}"]
    out.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def _solution_degrees(g: Graph, solution: EdgeSet) -> list[int]:
    """Per-vertex count of solution edges incident to it."""
    deg = [0] * g.n
    for eid in solution:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def is_edge_dominating(g: Graph, solution: EdgeSet) -> bool:
    """True iff every edge of g shares an endpoint with some solution edge
    (solution edges dominate themselves)."""
    deg = _solution_degrees(g, solution)
    return all(deg[u] or deg[v] for u, v in g.edges)


def domination_count(g: Graph, solution: EdgeSet, edge_id: int) -> int:
    """Number of solution edges adjacent to or equal to the given edge."""
    if not 0 <= edge_id < g.m:
        raise ValueError(f"edge id {edge_id} out of range")
    u, v = g.edges[edge_id]
    deg = _solution_degrees(g, solution)
    # An edge incident to both u and v can only be (u,v) itself.
    return deg[u] + deg[v] - (1 if edge_id in solution else 0)


def _is_minimal_eds_mask(g: Graph, mask: int) -> bool:
    """Bitmask fast path: solution is dominating and every member edge has a
    neighbor (possibly itself) dominated exactly once."""
    nbr = g.edge_neighborhood_masks
    for e_nbr in nbr:
        if not e_nbr & mask:
            return False
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        e = low.bit_length() - 1
        cand = nbr[e]
        ok = False
        while cand:
            cl = cand & -cand
            cand ^= cl
            if (nbr[cl.bit_length() - 1] & mask).bit_count() == 1:
                ok = True
                break
        if not ok:
            return False
    return True


def is_minimal_eds(g: Graph, solution: EdgeSet) -> bool:
    """True iff the solution is an edge dominating set and every member edge
    has a private edge: some edge in its closed neighborhood dominated by
    exactly one solution edge."""
    return _is_minimal_eds_mask(g, solution.mask)


def greedy_maximal_matching(g: Graph, order: Sequence[int] | None = None) -> EdgeSet:
    """Scan edges in the given order (default: ascending edge id) and take
    every edge whose endpoints are both still unmatched.  Deterministic for a
    fixed order; the result is an inclusion-maximal matching."""
    if order is None:
        order = range(g.m)
    else:
        if sorted(order) != list(range(g.m)):
            raise ValueError("order must be a permutation of edge ids")
    us, vs = g.edge_array.T.tolist()
    matched = [False] * g.n
    mask = 0
    for eid in order:
        u, v = us[eid], vs[eid]
        if not matched[u] and not matched[v]:
            matched[u] = True
            matched[v] = True
            mask |= 1 << eid
    return EdgeSet(mask)


def star_decomposition(g: Graph, solution: EdgeSet) -> StarStructure:
    """Decompose the subgraph (V, solution) into stars.

    Raises NotStarForest when two adjacent vertices both have solution-degree
    at least two (e.g. a path of three solution edges).
    """
    deg = _solution_degrees(g, solution)
    for eid in solution:
        u, v = g.edges[eid]
        if deg[u] >= 2 and deg[v] >= 2:
            raise NotStarForest(
                f"vertices {u + 1} and {v + 1} are adjacent and both have "
                f"solution degree >= 2"
            )
    by_center: dict[int, list[int]] = {}
    single: list[int] = []
    for eid in solution:
        u, v = g.edges[eid]
        if deg[u] >= 2:
            by_center.setdefault(u, []).append(eid)
        elif deg[v] >= 2:
            by_center.setdefault(v, []).append(eid)
        else:
            single.append(eid)
    stars = []
    for eid in single:
        u, v = g.edges[eid]
        a, b = (u, v) if u < v else (v, u)
        stars.append(Star(center=None, leaves=(a, b), edge_ids=(eid,)))
    for center in sorted(by_center):
        eids = sorted(by_center[center])
        leaves = tuple(
            sorted(u if u != center else v for u, v in (g.edges[e] for e in eids))
        )
        stars.append(Star(center=center, leaves=leaves, edge_ids=tuple(eids)))
    touched = set()
    for s in stars:
        touched.update(s.vertex_set)
    isolated = tuple(v for v in range(g.n) if v not in touched)
    return StarStructure(stars=tuple(stars), isolated=isolated)


def vertex_cover_from_matching(g: Graph, matching: EdgeSet) -> tuple[int, ...]:
    """Endpoints of a maximal matching, as a sorted vertex tuple.

    Raises CoverViolation if some edge of g has no endpoint in the result,
    which signals that the matching was not maximal.
    """
    cover = set()
    for eid in matching:
        u, v = g.edges[eid]
        cover.add(u)
        cover.add(v)
    for u, v in g.edges:
        if u not in cover and v not in cover:
            raise CoverViolation(
                f"edge ({u + 1}, {v + 1}) uncovered; matching is not maximal"
            )
    return tuple(sorted(cover))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced by the kept vertices (vertices of g), relabeled
    consecutively in ascending original order.  Edge ids are reassigned in
    original edge order."""
    keep = np.asarray(keep if isinstance(keep, np.ndarray) else list(keep), dtype=np.int64)
    if len(keep) and not (0 <= keep.min() and keep.max() < g.n):
        raise ValueError(f"kept vertices must lie in 0..{g.n - 1}")
    member = np.zeros(g.n, dtype=bool)
    member[keep] = True
    return _induced(g, member)


def _induced(g: Graph, member: np.ndarray) -> Graph:
    """induced_subgraph on the bool mask of the kept vertices."""
    kept = member.nonzero()[0]
    rank = np.empty(g.n, dtype=np.int64)  # a kept vertex's new label
    rank[kept] = np.arange(len(kept))
    ends_kept = member[g.edge_array]
    inside = g.edge_array[ends_kept[:, 0] & ends_kept[:, 1]]
    # the edges of a simple graph stay simple under an injective relabeling
    return Graph._simple(len(kept), rank[inside])
