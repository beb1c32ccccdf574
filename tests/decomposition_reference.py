"""Reference decomposition code for tests.  ``validate_td_reference``
searches each vertex's holder bags for connectivity one vertex at a time,
which takes time quadratic in the decomposition's size.
``ueds.decomposition.validate_td`` must report the same violations in the
same order.  ``greedy_path_reference`` follows the greedy path's selection
rule by scanning every candidate at every step;
``ueds.decomposition.td_greedy_path`` must build the same decomposition.
"""

from __future__ import annotations

from ueds.decomposition import TreeDecomposition
from ueds.graph import Graph


def validate_td_reference(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violations of the three decomposition properties (plus tree-ness),
    with a breadth-first search over each vertex's holder bags."""
    violations: list[str] = []
    b = len(td.bags)
    if td.n != g.n:
        violations.append(f"decomposition is for n={td.n}, graph has n={g.n}")
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                violations.append(f"bag {i} contains out-of-range vertex {v + 1}")
    for a, c in td.tree_edges:
        if not (0 <= a < b and 0 <= c < b):
            violations.append(f"tree edge ({a}, {c}) references missing bag")
            return violations
    # tree-ness: connected with exactly b-1 edges
    if b > 0:
        if len(td.tree_edges) != b - 1:
            violations.append(
                f"tree has {len(td.tree_edges)} edges for {b} bags; expected {b - 1}"
            )
        adj = td.neighbors()
        seen = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != b:
            violations.append("decomposition tree is disconnected")
    elif g.n > 0:
        violations.append("no bags but the graph has vertices")
        return violations
    # property (i): vertex coverage
    covered: set[int] = set()
    for bag in td.bags:
        covered.update(bag)
    for v in range(g.n):
        if v not in covered:
            violations.append(f"vertex {v + 1} appears in no bag")
    # property (ii): edge coverage
    bag_sets = [set(bag) for bag in td.bags]
    for u, v in g.edges:
        if not any(u in s and v in s for s in bag_sets):
            violations.append(f"edge ({u + 1}, {v + 1}) is contained in no bag")
    # property (iii): interpolation -- bags containing v form a subtree
    if b > 0 and len(td.tree_edges) == b - 1 and len(seen) == b:
        adj = td.neighbors()
        for v in range(g.n):
            holders = [i for i, s in enumerate(bag_sets) if v in s]
            if len(holders) <= 1:
                continue
            holder_set = set(holders)
            reach = {holders[0]}
            queue = [holders[0]]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if y in holder_set and y not in reach:
                        reach.add(y)
                        queue.append(y)
            if reach != holder_set:
                violations.append(
                    f"bags containing vertex {v + 1} are disconnected in the tree"
                )
    return violations


def greedy_path_reference(g: Graph) -> TreeDecomposition:
    """The greedy path decomposition, recomputing every count at every step:
    the next vertex is the unplaced neighbor of an active vertex (a placed
    vertex with unplaced neighbors) that is the last unplaced neighbor of the
    most active vertices, then has the fewest unplaced neighbors, then the
    lowest id; with no active vertex, the unplaced vertex of the lowest
    degree and id.  Bag i is vertex i plus the vertices active before it."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    placed: list[int] = []
    bags: list[tuple[int, ...]] = []
    while len(placed) < g.n:
        unplaced = [nb.difference(placed) for nb in adj]
        active = [a for a in placed if unplaced[a]]
        frontier = set().union(*(unplaced[a] for a in active))
        if frontier:
            def rank(x: int) -> tuple[int, int, int]:
                closes = sum(unplaced[a] == {x} for a in active)
                return (-closes, len(unplaced[x]), x)

            x = min(frontier, key=rank)
        else:
            x = min(set(range(g.n)).difference(placed), key=lambda v: (len(adj[v]), v))
        bags.append(tuple(sorted(active + [x])))
        placed.append(x)
    return TreeDecomposition(
        n=g.n,
        bags=tuple(bags),
        tree_edges=tuple((i, i + 1) for i in range(len(bags) - 1)),
    )
