"""Reference kernelization for tests: the seven reduction rules of
``ueds.kernel`` as literal functions, each taking a Graph and building a new
one, and a driver that chains them one application at a time, with the
coloring recomputed from scratch after every application.
``ueds.kernel.kernelize`` must give exactly the same outcome and trace on
every input.  The trace lines and the hints of rules 4, 5 and 7 come from
``ueds.kernel``'s own helpers, so each message has one source.
"""

from __future__ import annotations

from ueds.errors import UedsError
from ueds.graph import Graph, induced_subgraph
from ueds.kernel import (
    BLUE,
    DecidedYes,
    KernelOutcome,
    Reduced,
    VertexColoring,
    _big_green_yes,
    _line,
    _many_blue_yes,
    _size_bound_yes,
    color_vertices,
)


class PreconditionViolated(UedsError):
    """A reduction rule was invoked while a lower-numbered rule still applies."""


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


def _decided(outcome: DecidedYes, trace: list[str], n: int, k: int) -> DecidedYes:
    trace.append(_line(outcome.rule, "decide-yes", n, k))
    return DecidedYes(rule=outcome.rule, hint=outcome.hint, trace=tuple(trace))


def kernelize_reference(g: Graph, k: int) -> KernelOutcome:
    trace: list[str] = []
    while True:
        if k <= 0:
            zero = DecidedYes(
                rule=0,
                hint="k <= 0: any maximal matching is a minimal solution of size >= 0 >= k",
            )
            return _decided(zero, trace, g.n, k)
        applied = rule1_isolated_vertex(g, k) or rule2_isolated_edge(g, k)
        if applied:
            g, k, lines = applied
            trace.extend(lines)
            continue
        if g.n == 0:
            return Reduced(graph=g, k=k, trace=tuple(trace))
        coloring = color_vertices(g)
        applied = rule3_prune_blue_twins(g, k, coloring)
        if applied:
            g, k, lines = applied
            trace.extend(lines)
            continue
        decided = rule4_big_green(g, k, coloring) or rule5_many_blue(g, k, coloring)
        if decided:
            return _decided(decided, trace, g.n, k)
        applied = rule6_remove_red(g, k, coloring)
        if applied:
            g, k, lines = applied
            trace.extend(lines)
            continue
        decided = rule7_size_bound(g, k)
        if decided:
            return _decided(decided, trace, g.n, k)
        return Reduced(graph=g, k=k, trace=tuple(trace))
