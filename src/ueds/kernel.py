"""Polynomial-time kernelization: shrink an instance (G, k) to at most
4k^2 - 2 vertices or decide it outright.

Vertices of a graph without isolated vertices split into four classes:

    blue    degree exactly 1
    purple  not blue, adjacent to a blue vertex
    red     not blue or purple, every neighbor purple
    green   everything else (each green vertex keeps a green neighbor)

Seven reduction rules fire in fixed priority, each rule's precondition
judged on the coloring of the current graph:

    1  drop an isolated vertex
    2  an isolated edge is forced into any solution: drop it, k -= 1
    3  a purple vertex keeps only its lowest-indexed blue neighbor
    4  a green vertex of degree >= 2k proves a yes-instance
    5  k blue vertices prove a yes-instance (their purple neighbors are
       distinct once rule 3 is exhausted, giving a matching of size >= k)
    6  red vertices are redundant: their solution edges can be swapped to
       blue neighbors of the same purple endpoints
    7  an irreducible instance on more than 4k^2 - 2 vertices is a
       yes-instance

Every application strictly shrinks |V| + k or decides, so the rules reach a
fixpoint; an undecided fixpoint is an instance within the size bound.

The rules as written above, one function each that takes a Graph and
builds a new one, live in ``tests/kernel_reference.py``: chained one
application at a time, with the coloring computed anew after each, they are
the executable spec that ``kernelize`` is tested against.  ``kernelize``
instead colors the vertices once, in numpy passes over ``Graph.edge_array``,
as they are when rules 1 and 2 are first exhausted, and reads rules 1, 3, 5
and 6 off that coloring and the vertices isolated at the start, because no
surviving vertex changes color afterwards (the argument is in its
docstring).  It then fires the rules in phases and builds a Graph once, at
the end; it reads neither ``Graph.edges`` nor ``Graph.adj``, so neither the
input nor the reduced graph builds them.  The rules fire in the same order,
and the trace reads line for line the same, as in that chain.  The trace
lines and the hints of rules 4, 5 and 7 come from the helpers here, which
the spec imports.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import IsolatedVertexPresent
from .graph import Graph, induced_subgraph

__all__ = [
    "BLUE",
    "PURPLE",
    "RED",
    "GREEN",
    "VertexColoring",
    "color_vertices",
    "Reduced",
    "DecidedYes",
    "KernelOutcome",
    "kernelize",
]

BLUE = "blue"
PURPLE = "purple"
RED = "red"
GREEN = "green"


@dataclass(frozen=True)
class VertexColoring:
    """The blue/purple/red/green partition of a graph's vertices."""

    colors: tuple[str, ...]

    @property
    def blue(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == BLUE)

    @property
    def purple(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == PURPLE)

    @property
    def red(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == RED)

    @property
    def green(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == GREEN)


def color_vertices(g: Graph) -> VertexColoring:
    """The unique coloring under the class definitions above.

    Raises IsolatedVertexPresent: isolated vertices fit no class and must be
    removed first (rule 1 does that).
    """
    colors: list[str | None] = [None] * g.n
    for v in range(g.n):
        if g.degree(v) == 0:
            raise IsolatedVertexPresent(f"vertex {v + 1} is isolated")
        if g.degree(v) == 1:
            colors[v] = BLUE
    for v in range(g.n):
        if colors[v] is None and any(colors[u] == BLUE for u, _ in g.adj[v]):
            colors[v] = PURPLE
    for v in range(g.n):
        if colors[v] is None and all(colors[u] == PURPLE for u, _ in g.adj[v]):
            colors[v] = RED
    for v in range(g.n):
        if colors[v] is None:
            colors[v] = GREEN
    return VertexColoring(tuple(colors))


@dataclass(frozen=True)
class Reduced:
    """An equivalent smaller instance, with the trace that produced it."""

    graph: Graph
    k: int
    trace: tuple[str, ...] = ()

    def summary(self) -> dict[str, Any]:
        """The report fields of this outcome, without the graph itself."""
        return {
            "decided": False,
            "n": self.graph.n,
            "m": self.graph.m,
            "k": self.k,
            "trace": list(self.trace),
        }


@dataclass(frozen=True)
class DecidedYes:
    """The instance was decided positively by the named rule.

    rule 0 marks the k <= 0 short-circuit: the empty set is a minimal edge
    dominating set of size >= k, so no rule needs to fire.
    """

    rule: int
    hint: str
    trace: tuple[str, ...] = ()

    def summary(self) -> dict[str, Any]:
        """The report fields of this outcome."""
        return {
            "decided": True,
            "rule": self.rule,
            "hint": self.hint,
            "trace": list(self.trace),
        }


KernelOutcome = Reduced | DecidedYes


_LINE = "rule={} action={} n={} k={}"
# the lines kernelize writes most, with their numbers still to fill in
_DELETE_VERTEX = {r: _LINE.format(r, "delete-vertex {}", "{}", "{}") for r in (1, 3, 6)}
_DELETE_EDGE = _LINE.format(2, "delete-edge ({},{})", "{}", "{}")


def _line(rule: int, action: str, n: int, k: int) -> str:
    return _LINE.format(rule, action, n, k)


def _big_green_yes(label: int, degree: int, k: int) -> DecidedYes:
    return DecidedYes(
        rule=4, hint=f"green vertex {label} has degree {degree} >= 2k={2 * k}"
    )


def _many_blue_yes(blue_count: int, k: int) -> DecidedYes:
    return DecidedYes(
        rule=5, hint=f"{blue_count} blue vertices >= k={k} give a matching that size"
    )


_EMPTY_SET_YES = DecidedYes(
    rule=0, hint="k <= 0: the empty edge set is a minimal solution of size >= k"
)


def _size_bound_yes(n: int, k: int) -> DecidedYes | None:
    """Rule 7's test, for an instance none of rules 1-6 touches."""
    bound = 4 * k * k - 2
    if n > bound:
        return DecidedYes(
            rule=7, hint=f"irreducible instance has {n} > 4k^2-2 = {bound} vertices"
        )
    return None


def kernelize(g: Graph, k: int) -> KernelOutcome:
    """Apply the lowest-numbered applicable rule and repeat to a fixpoint.
    k <= 0 at any point decides yes immediately.  An undecided fixpoint is an
    equivalent instance on at most 4k^2 - 2 vertices with no isolated
    vertices or edges and k >= 1.

    Each trace line names a vertex by its 1-based label in the graph of that
    moment, which numbers the surviving vertices in their original order:
    its rank among them.  The outcome and trace equal those of applying the
    rules one at a time and computing the coloring anew after each, as the
    spec in tests/kernel_reference.py does; the reduced graph is g itself
    when no vertex was deleted.

    That holds with one coloring, the one the graph has when rules 1 and 2
    are first exhausted, because no surviving vertex changes color
    afterwards.  Until then rules 1 and 2 delete only the vertices and
    edges isolated at the start, which touch no other vertex, so that
    coloring is the input's, read on the vertices of degree >= 1 outside
    those edges.  From then on vertices leave by rules 2, 3 and 6 only.
    Rule 3 deletes blue vertices and rule 6 red ones, and every neighbor of
    those is purple.  Such a purple neighbor keeps a blue neighbor (rule 3
    keeps one, rule 6 deletes no blue), so it stays purple, or it drops to
    degree 1 and leaves with that blue neighbor as an isolated edge under
    rule 2 before the coloring is read again.  Rule 2 deletes an isolated
    edge, which has no other neighbor.  So the only survivors that lose
    neighbors are purple, and they stay purple; every other survivor keeps
    its neighbors, and these keep their colors.  Hence:

    * no deletion isolates a survivor, so rule 1 takes exactly the vertices
      isolated at the start, in ascending order;
    * no purple vertex gains a blue neighbor, and a blue vertex has one
      host, so rule 3 takes the blue neighbors each purple vertex has at
      coloring time, in ascending order of the purple vertex;
    * green vertices keep their degrees and stay, rule 5 counts the blue
      vertices still alive, and rule 6 deletes every red vertex at once,
      after which none appears.

    An edge becomes isolated when the second of its endpoints drops to
    degree 1.  After the start, that endpoint is a purple vertex left with
    only the blue neighbor rule 3 kept, so the edge is known from counts
    alone: rule 3 isolates it when all of the purple vertex's neighbors are
    blue, and rule 6 when all of them are blue or red.  The rules therefore
    fire in phases: rule 1 on every isolated vertex; rule 2 on the edges
    isolated at the start, by edge id; rule 3 on each purple vertex with
    several blue neighbors in ascending order, each followed by rule 2 on
    the edge it isolates; then rules 4 and 5, rule 6 on every red vertex
    followed by rule 2 on the edges it isolates, by edge id, and rules 4, 5
    and 7.  Rule 2 can end any phase by bringing k to 0.  The coloring and
    these counts come from array passes over ``Graph.edge_array``: degrees,
    each blue vertex's host, each purple vertex's lowest blue, the blue
    vertices rule 3 deletes, which vertices have a non-purple neighbor, and
    when rule 6 fires, each purple vertex's red neighbors.  kernelize reads
    neither ``Graph.edges`` nor ``Graph.adj``, so it builds no Python object
    per edge of the graph, and neither the input nor the reduced graph
    builds those views.
    """
    n, edges = g.n, g.edge_array
    trace: list[str] = []
    deleted: list[int] = []  # ascending

    def decided(outcome: DecidedYes) -> DecidedYes:
        trace.append(_line(outcome.rule, "decide-yes", n - len(deleted), k))
        return DecidedYes(rule=outcome.rule, hint=outcome.hint, trace=tuple(trace))

    if k <= 0:
        return decided(_EMPTY_SET_YES)
    # edge e's ends sit at 2e and 2e + 1 of ends: the other end of i is i ^ 1
    ends = edges.ravel()
    degree = np.bincount(ends, minlength=n)
    leaf = degree[ends] == 1
    other_leaf = leaf.reshape(-1, 2)[:, ::-1].ravel()
    # A blue end has degree 1 and its other end more; an edge between two
    # vertices of degree 1 is isolated, and neither end is blue.
    blue_at = (leaf & ~other_leaf).nonzero()[0]
    isolated = (leaf & other_leaf)[::2].nonzero()[0]
    blue = ends[blue_at]
    host = ends[blue_at ^ 1]
    blue_count = np.bincount(host, minlength=n)  # > 0 exactly on purple vertices
    not_purple = blue_count == 0
    core = not_purple & (degree > 1)  # green or red
    reached = np.zeros(n, dtype=bool)  # has a neighbor that is not purple
    reached[ends[not_purple[ends].nonzero()[0] ^ 1]] = True
    reds = (core & ~reached).nonzero()[0].tolist()
    green_degree = degree * (core & reached)
    top_green = green_degree.max(initial=0)
    blues_alive = len(blue)

    def delete_edges(pairs: list[list[int]], blue_ends: int) -> bool:
        """Rule 2 on each edge in turn, each with blue_ends blue endpoints;
        False once k reaches 0."""
        nonlocal k, blues_alive
        for u, v in pairs:
            a = u + 1 - bisect_left(deleted, u)
            b = v + 1 - bisect_left(deleted, v)
            insort(deleted, u)
            insort(deleted, v)
            blues_alive -= blue_ends
            k -= 1
            trace.append(_DELETE_EDGE.format(a, b, n - len(deleted), k))
            if k <= 0:
                return False
        return True

    def delete_vertices(rule: int, doomed: list[int]) -> None:
        """Delete the vertices, given in ascending order, with one trace line
        each that names the vertex by its label from before the batch."""
        line = _DELETE_VERTEX[rule].format
        n_now = n - len(deleted)
        for i, v in enumerate(doomed, start=1):
            # the i - 1 vertices of the batch deleted so far lie below v
            trace.append(line(v + i - bisect_left(deleted, v), n_now - i, k))
            insort(deleted, v)

    # rule 1 takes the isolated vertices one at a time, in ascending order,
    # so the i-th of them has i deleted vertices below it
    deleted.extend((degree == 0).nonzero()[0].tolist())
    line = _DELETE_VERTEX[1].format
    trace.extend(line(v + 1 - i, n - 1 - i, k) for i, v in enumerate(deleted))
    if not delete_edges(edges[isolated].tolist(), 0):
        return decided(_EMPTY_SET_YES)
    twinned = (blue_count > 1).nonzero()[0]
    if len(twinned) or reds:  # rules 3 and 6 find a purple vertex's blues
        # sorted by host, then blue: each purple vertex's lowest blue comes first
        order = (host * n + blue).argsort()
        blue, host, blue_at = blue[order], host[order], blue_at[order]
    if len(twinned):
        blues = blue.tolist()
        starts = host.searchsorted(twinned)
        counts = blue_count[twinned]
        # a purple vertex whose neighbors are all blue keeps only one
        for start, count, lone, pair in zip(
            starts.tolist(), counts.tolist(), (degree[twinned] == counts).tolist(),
            edges[blue_at[starts] >> 1].tolist(),
        ):
            delete_vertices(3, blues[start + 1 : start + count])
            blues_alive -= count - 1
            if lone and not delete_edges([pair], 1):
                return decided(_EMPTY_SET_YES)
    while True:
        if top_green >= 2 * k:
            v = int((green_degree >= 2 * k).argmax())
            label = v + 1 - bisect_left(deleted, v)
            return decided(_big_green_yes(label, int(green_degree[v]), k))
        if blues_alive >= k:
            return decided(_many_blue_yes(blues_alive, k))
        if not reds:
            break
        delete_vertices(6, reds)
        # every neighbor of a red vertex is purple; a purple vertex whose
        # neighbors are all blue or red is left with the blue rule 3 kept
        red = np.zeros(n, dtype=bool)
        red[reds] = True
        reds = []
        red_count = np.bincount(ends[red[ends].nonzero()[0] ^ 1], minlength=n)
        lone = ((red_count > 0) & (degree == blue_count + red_count)).nonzero()[0]
        lone_edges = np.sort(blue_at[host.searchsorted(lone)] >> 1)
        if not delete_edges(edges[lone_edges].tolist(), 1):
            return decided(_EMPTY_SET_YES)
    outcome = _size_bound_yes(n - len(deleted), k)
    if outcome is not None:
        return decided(outcome)
    if not deleted:
        return Reduced(graph=g, k=k, trace=tuple(trace))
    gone = np.zeros(n, dtype=bool)
    gone[deleted] = True
    return Reduced(graph=induced_subgraph(g, (~gone).nonzero()[0]), k=k, trace=tuple(trace))
