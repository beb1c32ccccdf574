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

The rule functions below each take a Graph and build a new one.
``kernelize`` instead builds one mutable adjacency straight from the edge
list, edits it in place and builds a Graph once, at the end; it never reads
``Graph.adj``, so neither the input nor the reduced graph builds one.  It
colors the vertices once, when rules 1 and 2 are first exhausted, and reads
rules 1, 3, 5 and 6 off that coloring and the vertices isolated at the
start, because no surviving vertex changes color afterwards (the argument
is in its docstring).  The rules fire in the same order, and the trace
reads line for line the same, as chaining the rule functions and computing
the coloring anew after every application.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from typing import Any

from .errors import IsolatedVertexPresent, PreconditionViolated
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
    "rule1_isolated_vertex",
    "rule2_isolated_edge",
    "rule3_prune_blue_twins",
    "rule4_big_green",
    "rule5_many_blue",
    "rule6_remove_red",
    "rule7_size_bound",
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


def rule1_isolated_vertex(g: Graph, k: int) -> tuple[Graph, int, list[str]] | None:
    """Remove the lowest-indexed isolated vertex."""
    for v in range(g.n):
        if g.degree(v) == 0:
            g2 = induced_subgraph(g, (u for u in range(g.n) if u != v))
            return g2, k, [_line(1, f"delete-vertex {v + 1}", g2.n, k)]
    return None


def rule2_isolated_edge(g: Graph, k: int) -> tuple[Graph, int, list[str]] | None:
    """Remove the lowest-indexed isolated edge and decrease k."""
    for u, v in g.edges:
        if g.degree(u) == 1 and g.degree(v) == 1:
            g2 = induced_subgraph(g, (w for w in range(g.n) if w not in (u, v)))
            return g2, k - 1, [
                _line(2, f"delete-edge ({u + 1},{v + 1})", g2.n, k - 1)
            ]
    return None


def rule3_prune_blue_twins(
    g: Graph, k: int, coloring: VertexColoring | None = None
) -> tuple[Graph, int, list[str]] | None:
    """A purple vertex with several blue neighbors keeps only the
    lowest-indexed one; the others are interchangeable in any solution."""
    coloring = coloring or color_vertices(g)
    for p in coloring.purple:
        blues = sorted(u for u, _ in g.adj[p] if coloring.colors[u] == BLUE)
        if len(blues) > 1:
            drop = set(blues[1:])
            g2 = induced_subgraph(g, (w for w in range(g.n) if w not in drop))
            lines = []
            n_left = g.n
            for b in sorted(drop):
                n_left -= 1
                lines.append(_line(3, f"delete-vertex {b + 1}", n_left, k))
            return g2, k, lines
    return None


def rule4_big_green(
    g: Graph, k: int, coloring: VertexColoring | None = None
) -> DecidedYes | None:
    """A green vertex of degree >= 2k forces a yes: its neighbors all have
    degree >= 2, which yields a large minimal solution avoiding the vertex."""
    coloring = coloring or color_vertices(g)
    for v in coloring.green:
        if g.degree(v) >= 2 * k:
            return _big_green_yes(v + 1, g.degree(v), k)
    return None


def rule5_many_blue(
    g: Graph, k: int, coloring: VertexColoring | None = None
) -> DecidedYes | None:
    """At least k blue vertices force a yes.  Requires rule 3 exhausted, so
    the blue vertices' purple neighbors are pairwise distinct and the
    blue-purple edges form a matching of size >= k."""
    coloring = coloring or color_vertices(g)
    blues = coloring.blue
    if len(blues) >= k:
        return _many_blue_yes(len(blues), k)
    return None


def rule6_remove_red(
    g: Graph, k: int, coloring: VertexColoring | None = None
) -> tuple[Graph, int, list[str]] | None:
    """Remove every red vertex; k is unchanged.  Any solution edge into a red
    vertex can be replaced by the purple endpoint's blue-neighbor edge."""
    coloring = coloring or color_vertices(g)
    reds = coloring.red
    if not reds:
        return None
    drop = set(reds)
    g2 = induced_subgraph(g, (w for w in range(g.n) if w not in drop))
    lines = []
    n_left = g.n
    for r in sorted(drop):
        n_left -= 1
        lines.append(_line(6, f"delete-vertex {r + 1}", n_left, k))
    return g2, k, lines


def rule7_size_bound(g: Graph, k: int) -> DecidedYes | None:
    """An instance none of rules 1-6 touches, on more than 4k^2 - 2 vertices,
    is a yes-instance.  Raises PreconditionViolated when called while an
    earlier rule still applies."""
    if rule1_isolated_vertex(g, k) or rule2_isolated_edge(g, k):
        raise PreconditionViolated("rules 1-2 still apply")
    coloring = color_vertices(g)
    if (
        rule3_prune_blue_twins(g, k, coloring)
        or rule4_big_green(g, k, coloring)
        or rule5_many_blue(g, k, coloring)
        or rule6_remove_red(g, k, coloring)
    ):
        raise PreconditionViolated("rules 3-6 still apply")
    return _size_bound_yes(g.n, k)


def kernelize(g: Graph, k: int) -> KernelOutcome:
    """Apply the lowest-numbered applicable rule and repeat to a fixpoint.
    k <= 0 at any point decides yes immediately.  An undecided fixpoint is an
    equivalent instance on at most 4k^2 - 2 vertices with no isolated
    vertices or edges and k >= 1.

    Each trace line names a vertex by its 1-based label in the graph of that
    moment, which numbers the surviving vertices in their original order:
    its rank among them.  The outcome and trace equal those of applying the
    rule functions one at a time and computing the coloring anew after
    each; the reduced graph is g itself when no vertex was deleted.

    That holds with one coloring, taken when rules 1 and 2 are first
    exhausted, because no surviving vertex changes color afterwards.  From
    then on vertices leave by rules 2, 3 and 6 only.  Rule 3 deletes blue
    vertices and rule 6 red ones, and every neighbor of those is purple.
    Such a purple neighbor keeps a blue neighbor (rule 3 keeps one, rule 6
    deletes no blue), so it stays purple, or it drops to degree 1 and leaves
    with that blue neighbor as an isolated edge under rule 2 before the
    coloring is read again.  Rule 2 deletes an isolated edge, which has no
    other neighbor.  So the only survivors that lose neighbors are purple,
    and they stay purple; every other survivor keeps its neighbors, and
    these keep their colors.  Hence:

    * no deletion isolates a survivor, so rule 1 takes exactly the vertices
      isolated at the start, in ascending order;
    * no purple vertex gains a blue neighbor, and a blue vertex has one
      host, so rule 3 takes the blue neighbors each purple vertex has at
      coloring time, in ascending order of the purple vertex;
    * green vertices keep their degrees and stay, rule 5 counts the blue
      vertices still alive, and rule 6 deletes every red vertex at once,
      after which none appears.

    An edge becomes isolated when the second of its endpoints drops to
    degree 1, and it then has no other neighbor, so it enters the heap of
    isolated edges once and leaves it only by rule 2.  A batch of rule 3 or
    rule 6 can isolate several edges, which rule 2 takes by edge id.
    """
    adj: list[dict[int, int]] = [{} for _ in range(g.n)]  # neighbor -> edge id
    for e, (u, v) in enumerate(g.edges):
        adj[u][v] = e
        adj[v][u] = e
    alive = [True] * g.n
    deleted: list[int] = []  # ascending
    isolated = iter([v for v in range(g.n) if not adj[v]])
    # an ascending list is already a heap
    isolated_edges = [
        e for e, (u, v) in enumerate(g.edges) if len(adj[u]) == 1 and len(adj[v]) == 1
    ]
    blues: list[int] | None = None  # the coloring, once taken
    trace: list[str] = []

    def label(v: int) -> int:
        return v + 1 - bisect_left(deleted, v)

    def delete(rule: int, doomed: list[int]) -> None:
        """Delete the vertices, given in ascending order, with one trace line
        each that names the vertex by its label from before the batch."""
        n = g.n - len(deleted)
        labels = [label(v) for v in doomed]
        for v in doomed:
            alive[v] = False
            insort(deleted, v)
            for u in adj[v]:
                nbrs = adj[u]
                del nbrs[v]
                if len(nbrs) == 1:
                    ((w, e),) = nbrs.items()
                    if len(adj[w]) == 1:
                        heappush(isolated_edges, e)
            adj[v] = {}
        trace.extend(
            _line(rule, f"delete-vertex {lab}", n - i, k)
            for i, lab in enumerate(labels, start=1)
        )

    while True:
        if k <= 0:
            decision = DecidedYes(
                rule=0, hint="k <= 0: the empty edge set is a minimal solution of size >= k"
            )
            break
        v = next(isolated, None)
        if v is not None:
            delete(1, [v])
            continue
        if isolated_edges:
            u, v = g.edges[heappop(isolated_edges)]
            action = f"delete-edge ({label(u)},{label(v)})"
            for w in (u, v):
                alive[w] = False
                insort(deleted, w)
                adj[w] = {}
            k -= 1
            trace.append(_line(2, action, g.n - len(deleted), k))
            continue
        if len(deleted) == g.n:
            decision = None
            break
        if blues is None:
            degree = [len(nbrs) for nbrs in adj]
            purple = [False] * g.n
            blues, greens, reds, twin_lists = [], [], [], []
            live = list(compress(range(g.n), alive))
            for v in live:
                if degree[v] == 1:
                    blues.append(v)
                    continue
                twins = [u for u in adj[v] if degree[u] == 1]
                if twins:
                    purple[v] = True
                    if len(twins) > 1:
                        twin_lists.append(sorted(twins))
            for v in live:
                if degree[v] > 1 and not purple[v]:
                    (reds if all(purple[u] for u in adj[v]) else greens).append(v)
            pending_twins = iter(twin_lists)
        twins = next(pending_twins, None)
        if twins is not None:
            delete(3, twins[1:])
            continue
        v = next((v for v in greens if len(adj[v]) >= 2 * k), None)
        if v is not None:
            decision = _big_green_yes(label(v), len(adj[v]), k)
            break
        blue_count = sum(alive[b] for b in blues)
        if blue_count >= k:
            decision = _many_blue_yes(blue_count, k)
            break
        if reds:
            delete(6, reds)
            reds = []
            continue
        decision = _size_bound_yes(g.n - len(deleted), k)
        break
    if decision is None:
        graph = induced_subgraph(g, compress(range(g.n), alive)) if deleted else g
        return Reduced(graph=graph, k=k, trace=tuple(trace))
    trace.append(_line(decision.rule, "decide-yes", g.n - len(deleted), k))
    return DecidedYes(rule=decision.rule, hint=decision.hint, trace=tuple(trace))
