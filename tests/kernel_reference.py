"""Reference kernelization driver for tests: the rule functions chained one
application at a time, with the coloring recomputed from scratch and a new
Graph built after every application.  ``ueds.kernel.kernelize`` must give
exactly the same outcome and trace on every input.
"""

from __future__ import annotations

from ueds.graph import Graph
from ueds.kernel import (
    DecidedYes,
    KernelOutcome,
    Reduced,
    color_vertices,
    rule1_isolated_vertex,
    rule2_isolated_edge,
    rule3_prune_blue_twins,
    rule4_big_green,
    rule5_many_blue,
    rule6_remove_red,
    rule7_size_bound,
)


def _decided(outcome: DecidedYes, trace: list[str], n: int, k: int) -> DecidedYes:
    trace.append(f"rule={outcome.rule} action=decide-yes n={n} k={k}")
    return DecidedYes(rule=outcome.rule, hint=outcome.hint, trace=tuple(trace))


def kernelize_reference(g: Graph, k: int) -> KernelOutcome:
    trace: list[str] = []
    while True:
        if k <= 0:
            zero = DecidedYes(
                rule=0,
                hint="k <= 0: the empty edge set is a minimal solution of size >= k",
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
