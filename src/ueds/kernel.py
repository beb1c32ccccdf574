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
instead reads the edge list in a few passes, keeps a degree per vertex and
builds a Graph once, at the end; it never reads ``Graph.adj``, so neither
the input nor the reduced graph builds one.  It colors the vertices once, as
they are when rules 1 and 2 are first exhausted, and reads rules 1, 3, 5 and
6 off that coloring and the vertices isolated at the start, because no
surviving vertex changes color afterwards (the argument is in its
docstring).  The rules fire in the same order, and the trace reads line for
line the same, as in that chain.  The trace lines and the hints of rules 4,
5 and 7 come from the helpers here, which the spec imports.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from typing import Any

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


def _line(rule: int, action: str, n: int, k: int) -> str:
    return f"rule={rule} action={action} n={n} k={k}"


def _big_green_yes(label: int, degree: int, k: int) -> DecidedYes:
    return DecidedYes(
        rule=4, hint=f"green vertex {label} has degree {degree} >= 2k={2 * k}"
    )


def _many_blue_yes(blue_count: int, k: int) -> DecidedYes:
    return DecidedYes(
        rule=5, hint=f"{blue_count} blue vertices >= k={k} give a matching that size"
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
    only the blue neighbor rule 3 kept, so the edge is known without an
    adjacency structure: it enters the heap of isolated edges once and
    leaves it only by rule 2.  A batch of rule 3 or rule 6 can isolate
    several edges, which rule 2 takes by edge id.  So kernelize reads only
    the edge list, in three passes: degrees, then each blue vertex's host,
    then which vertices have a non-purple neighbor, plus one pass when red
    vertices are deleted.  It never reads ``Graph.adj``, so neither the input
    nor the reduced graph builds one.
    """
    n, edges = g.n, g.edges
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    # Each blue vertex's host, its one neighbor, and the edge between them.
    # An edge between two vertices of degree 1 is isolated: neither end is blue.
    host = [-1] * n
    blue_edge = [-1] * n
    blues: list[int] = []
    isolated_edges: list[int] = []  # ascending, so already a heap
    for e, (u, v) in enumerate(edges):
        if degree[u] == 1:
            if degree[v] == 1:
                isolated_edges.append(e)
            else:
                host[u] = v
                blue_edge[u] = e
                blues.append(u)
        elif degree[v] == 1:
            host[v] = u
            blue_edge[v] = e
            blues.append(v)
    blues.sort()
    # Purple vertices are the hosts; kept[p] is p's lowest blue neighbor, the
    # one rule 3 keeps, and twins[p] all of them when p has several.
    kept = [-1] * n
    twins: dict[int, list[int]] = {}
    for b in blues:
        p = host[b]
        if kept[p] < 0:
            kept[p] = b
        else:
            twins.setdefault(p, [kept[p]]).append(b)
    reached = [False] * n  # has a neighbor that is not purple
    for u, v in edges:
        if kept[u] < 0:
            reached[v] = True
        if kept[v] < 0:
            reached[u] = True
    # green: degree >= 2, not purple, reached; red: the same but not reached
    reds = [v for v in range(n) if not reached[v] and degree[v] > 1 and kept[v] < 0]
    top_degree = max(degree, default=0)  # bounds every green vertex's degree
    blues_alive = len(blues)
    pending_twins = iter([twins[p] for p in sorted(twins)])
    alive = [True] * n
    deleted: list[int] = []  # ascending
    trace: list[str] = []
    if k > 0:
        # rule 1 takes the isolated vertices one at a time, in ascending
        # order, so the i-th of them has i deleted vertices below it
        deleted = [v for v in range(n) if not degree[v]]
        for v in deleted:
            alive[v] = False
        trace = [
            _line(1, f"delete-vertex {v + 1 - i}", n - 1 - i, k)
            for i, v in enumerate(deleted)
        ]

    def label(v: int) -> int:
        return v + 1 - bisect_left(deleted, v)

    def delete(rule: int, doomed: list[int]) -> None:
        """Delete the vertices, given in ascending order, with one trace line
        each that names the vertex by its label from before the batch."""
        n_now = n - len(deleted)
        labels = [label(v) for v in doomed]
        for v in doomed:
            alive[v] = False
            insort(deleted, v)
        trace.extend(
            _line(rule, f"delete-vertex {lab}", n_now - i, k)
            for i, lab in enumerate(labels, start=1)
        )

    while True:
        if k <= 0:
            decision = DecidedYes(
                rule=0, hint="k <= 0: the empty edge set is a minimal solution of size >= k"
            )
            break
        if isolated_edges:
            u, v = edges[heappop(isolated_edges)]
            action = f"delete-edge ({label(u)},{label(v)})"
            for w in (u, v):
                alive[w] = False
                insort(deleted, w)
            blues_alive -= (host[u] >= 0) + (host[v] >= 0)
            k -= 1
            trace.append(_line(2, action, n - len(deleted), k))
            continue
        if len(deleted) == n:
            decision = None
            break
        group = next(pending_twins, None)
        if group is not None:
            delete(3, group[1:])
            blues_alive -= len(group) - 1
            p = host[group[0]]
            degree[p] -= len(group) - 1
            if degree[p] == 1:
                heappush(isolated_edges, blue_edge[group[0]])
            continue
        if top_degree >= 2 * k:
            # the green vertices: degree >= 2, not purple, not red; all alive
            big = [v for v in range(n) if degree[v] >= 2 * k and reached[v] and kept[v] < 0]
            if big:
                decision = _big_green_yes(label(big[0]), degree[big[0]], k)
                break
        if blues_alive >= k:
            decision = _many_blue_yes(blues_alive, k)
            break
        if reds:
            delete(6, reds)
            red = [False] * n
            for r in reds:
                red[r] = True
            for u, v in edges:  # every neighbor of a red vertex is purple
                if red[u] or red[v]:
                    p = v if red[u] else u
                    degree[p] -= 1
                    if degree[p] == 1:
                        heappush(isolated_edges, blue_edge[kept[p]])
            reds = []
            continue
        decision = _size_bound_yes(n - len(deleted), k)
        break
    if decision is None:
        graph = induced_subgraph(g, compress(range(n), alive)) if deleted else g
        return Reduced(graph=graph, k=k, trace=tuple(trace))
    trace.append(_line(decision.rule, "decide-yes", n - len(deleted), k))
    return DecidedYes(rule=decision.rule, hint=decision.hint, trace=tuple(trace))
