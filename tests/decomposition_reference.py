"""Reference decomposition code for tests.  ``validate_td_reference``
searches each vertex's holder bags for connectivity one vertex at a time,
which takes time quadratic in the decomposition's size.
``ueds.decomposition.validate_td`` must report the same violations in the
same order.  ``greedy_path_reference`` follows the greedy path's selection
rule by scanning every candidate at every step;
``ueds.decomposition.td_greedy_path`` must build the same decomposition.
``min_fill_reference`` recounts the fill of every neighbor of an eliminated
vertex from scratch, which takes time quadratic in a hub's degree;
``ueds.decomposition.td_min_fill`` keeps the counts up to date instead and
must build the same decomposition, bag for bag.
"""

from __future__ import annotations

import heapq
import itertools

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


def min_fill_reference(g: Graph, max_bag: int | None = None) -> TreeDecomposition | None:
    """The min-fill elimination decomposition, with the same selection rule,
    tree, pruning and max_bag stop as ``td_min_fill``."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def fill_of(v: int) -> int:
        # each present pair in the neighborhood is seen from both ends
        nb = adj[v]
        present = sum(map(len, map(nb.intersection, map(adj.__getitem__, nb))))
        return (len(nb) * (len(nb) - 1) - present) // 2

    fill = [fill_of(v) for v in range(g.n)]
    heap = [(fill[v], len(adj[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    position = [-1] * g.n
    bags: list[set[int]] = []
    later: list[set[int]] = []  # the remaining neighbors at elimination
    while heap:
        f, degree, v = heapq.heappop(heap)
        if position[v] >= 0 or f != fill[v] or degree != len(adj[v]):
            continue  # eliminated, or a stale entry
        nb = adj[v]
        if max_bag is not None and len(nb) >= max_bag:
            return None
        position[v] = len(bags)
        bags.append(nb | {v})
        later.append(nb)
        for a in nb:
            adj[a].discard(v)
        # a fill edge ab completes one more pair in the neighborhood of each
        # common neighbor of a and b; the neighborhoods of v's neighbors
        # change outright, so their fill is recounted
        changed = set()
        for a, b in itertools.combinations(sorted(nb), 2):
            if b not in adj[a]:
                for w in adj[a] & adj[b]:
                    fill[w] -= 1
                    changed.add(w)
                adj[a].add(b)
                adj[b].add(a)
        for a in nb:
            fill[a] = fill_of(a)
        for w in changed | nb:
            heapq.heappush(heap, (fill[w], len(adj[w]), w))

    tree: list[set[int]] = [set() for _ in bags]
    last = -1
    for i, nb in enumerate(later):
        j = min((position[a] for a in nb), default=-1)
        if j < 0:  # the last bag of a component
            j, last = last, i
        if j >= 0:
            tree[i].add(j)
            tree[j].add(i)

    alive = [True] * len(bags)
    work = list(range(len(bags)))
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        into = next((j for j in sorted(tree[i]) if bags[i] <= bags[j]), -1)
        if into < 0:
            continue
        alive[i] = False
        for k in tree[i]:
            tree[k].discard(i)
            if k != into:
                tree[k].add(into)
                tree[into].add(k)
        work.append(into)
    keep = [i for i in range(len(bags)) if alive[i]]
    index = {old: new for new, old in enumerate(keep)}
    tree_edges = sorted(
        (index[i], index[j]) for i in keep for j in tree[i] if i < j
    )
    return TreeDecomposition(
        n=g.n,
        bags=tuple(tuple(sorted(bags[i])) for i in keep),
        tree_edges=tuple(tree_edges),
    )
