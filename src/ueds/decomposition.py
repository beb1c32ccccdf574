"""Tree decompositions and their nice form.

Three builders give a decomposition of a graph.  The cover path places the
bags C + {v} for every vertex v outside a vertex cover C on a path, which
gives width |C| at worst.  The min-fill elimination decomposition eliminates
vertices one by one, always the one whose neighborhood misses the fewest
edges, and gives width close to the treewidth on sparse graphs (Bodlaender &
Koster, "Treewidth computations I. Upper bounds", 2010).  The greedy path
places vertices one by one in an order of small vertex separation and has no
join nodes.  The solver runs on the narrower of the greedy path and min-fill,
a tie going to the path (pipeline.choose_decomposition): min-fill hangs
one-vertex leaf bags off its spine, so its nice form has joins at full width,
the DP's most expensive nodes, while on trees a path is far wider.  The cover
path is kept for the tests and the benchmark's tracer; on the graphs sampled
so far it was never narrower than the solver's choice.

The nice form rewrites any valid decomposition into a rooted tree of leaf,
introduce-vertex, introduce-edge, forget and join nodes with empty root and
leaf bags, introducing every edge of the graph exactly once.  make_nice
builds it in one postorder pass over the decomposition tree: each child's
chain turns the child's bag into its parent's by forgets, then introduces;
a bag without children grows the same way from an empty leaf; and the
chains of several children meet in joins.

Nodes of a NiceDecomposition are stored in evaluation order: every node's
children have smaller indices, the root is the last node.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    DecompositionFormatError,
    InvalidDecomposition,
    NotACover,
)
from .graph import Graph, _pace_lines

__all__ = [
    "TreeDecomposition",
    "NiceNode",
    "NiceDecomposition",
    "LEAF",
    "INTRODUCE",
    "INTRODUCE_EDGE",
    "FORGET",
    "JOIN",
    "td_from_vertex_cover",
    "td_min_fill",
    "td_greedy_path",
    "validate_td",
    "make_nice",
    "validate_nice",
    "parse_td",
    "emit_td",
]

LEAF = "leaf"
INTRODUCE = "introduce"
INTRODUCE_EDGE = "introduce-edge"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 plus an undirected tree over the bag indices.

    ``n`` is the vertex count of the decomposed graph (0-indexed vertices).
    """

    n: int
    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class NiceNode:
    """One node of a nice decomposition.

    kind        one of leaf / introduce / introduce-edge / forget / join
    bag         sorted vertex tuple after this node's operation
    children    indices of child nodes (always smaller than this node's index)
    vertex      the introduced/forgotten vertex for introduce and forget nodes
    edge        (u, v) endpoints for introduce-edge nodes
    edge_id     edge id in the graph for introduce-edge nodes
    """

    kind: str
    bag: tuple[int, ...]
    children: tuple[int, ...] = ()
    vertex: int | None = None
    edge: tuple[int, int] | None = None
    edge_id: int | None = None


@dataclass
class NiceDecomposition:
    nodes: list[NiceNode] = field(default_factory=list)

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max(len(node.bag) for node in self.nodes) - 1

    def count(self, kind: str) -> int:
        return sum(1 for node in self.nodes if node.kind == kind)


def td_from_vertex_cover(g: Graph, cover: Iterable[int]) -> TreeDecomposition:
    """Path decomposition with bags {cover + v : v outside the cover}.

    Raises NotACover when some edge has neither endpoint in the cover.  The
    width is at most |cover|; when the cover already contains every vertex the
    decomposition is the single bag equal to the cover.
    """
    cov = sorted(set(cover))
    cov_set = set(cov)
    if not all(0 <= v < g.n for v in cov):
        raise NotACover("cover contains out-of-range vertices")
    for u, v in g.edges:
        if u not in cov_set and v not in cov_set:
            raise NotACover(f"edge ({u + 1}, {v + 1}) has no endpoint in the cover")
    rest = [v for v in range(g.n) if v not in cov_set]
    if not rest:
        bags = (tuple(cov),) if cov else ()
        return TreeDecomposition(n=g.n, bags=bags, tree_edges=())
    bags = tuple(tuple(sorted(cov + [v])) for v in rest)
    tree_edges = tuple((i, i + 1) for i in range(len(bags) - 1))
    return TreeDecomposition(n=g.n, bags=bags, tree_edges=tree_edges)


def td_min_fill(g: Graph, max_bag: int | None = None) -> TreeDecomposition | None:
    """Elimination decomposition by the min-fill heuristic.

    Each step eliminates the vertex whose neighborhood misses the fewest
    edges (ties to the lower degree, then to the lower vertex id), turns its
    neighborhood into a clique and records the bag {v} + N(v).  Each bag
    hangs below the bag of the first of those neighbors to be eliminated,
    and the last bags of the connected components are chained.  Finally a
    bag that is a subset of a neighboring bag is dropped, its tree neighbors
    passing to that bag.  Bags keep their elimination order, so bag 0 (the
    root in make_nice) belongs to the first eliminated vertex that survives
    the pruning.

    Given max_bag, the elimination stops at its first bag of more than
    max_bag vertices and returns None, so a caller that refuses such bags
    does not pay for the whole elimination on a graph of high treewidth.
    Without max_bag the result is never None.
    """
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
        # a neighbor a loses v, and with it the missing pairs vx for the x in
        # N(a) outside N(v); each set intersection below runs over its
        # smaller side, so a hub costs no more than its small neighbors
        for a in nb:
            adj_a = adj[a]
            adj_a.discard(v)
            fill[a] -= len(adj_a) - len(adj_a & nb)
        # a fill edge ab completes one more pair in the neighborhood of each
        # common neighbor of a and b, and a gains the pairs bx for the x in
        # N(a) outside N(b), as b does the other way round
        changed = set()
        for a, b in itertools.combinations(sorted(nb), 2):
            adj_a, adj_b = adj[a], adj[b]
            if b not in adj_a:
                common = adj_a & adj_b
                for w in common:
                    fill[w] -= 1
                    changed.add(w)
                fill[a] += len(adj_a) - len(common)
                fill[b] += len(adj_b) - len(common)
                adj_a.add(b)
                adj_b.add(a)
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


def td_greedy_path(g: Graph, max_bag: int | None = None) -> TreeDecomposition | None:
    """Path decomposition from a greedy vertex-separation order.

    The order starts at a vertex of minimum degree (the lowest id among
    them).  A placed vertex stays active while it has unplaced neighbors.
    The next vertex is the unplaced neighbor of an active vertex that closes
    the most active vertices (is their last unplaced neighbor), then the one
    with the fewest unplaced neighbors, then the lowest id; with no active
    vertex left, the next component starts at its minimum-degree vertex.
    Bag i is vertex i plus the vertices active when it is placed, and bag i
    hangs below bag i - 1, so the width is the order's vertex separation
    (Kinnersley, IPL 42, 1992).  Selection pops a heap that gets one entry
    per change of a vertex's counts, so the order takes O((n + m) log n)
    time.

    Given max_bag, it stops at its first bag of more than max_bag vertices
    and returns None, as td_min_fill does.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    unplaced = [len(nb) for nb in adj]  # unplaced neighbors of each vertex
    closes = [0] * g.n  # active vertices whose last unplaced neighbor it is
    placed = [False] * g.n
    starts = iter(sorted(range(g.n), key=lambda v: (unplaced[v], v)))
    frontier: list[tuple[int, int, int]] = []  # (-closes, unplaced, vertex)
    active: set[int] = set()
    bags: list[tuple[int, ...]] = []

    def push(v: int) -> None:
        heapq.heappush(frontier, (-closes[v], unplaced[v], v))

    def close_last(a: int) -> None:
        last = next(w for w in adj[a] if not placed[w])
        closes[last] += 1
        push(last)

    while len(bags) < g.n:
        # a key only improves while its vertex waits, so the first entry
        # popped for a vertex is current, and later ones find it placed
        while frontier and placed[frontier[0][2]]:
            heapq.heappop(frontier)
        if frontier:
            x = heapq.heappop(frontier)[2]
        else:  # no active vertex: a new component
            x = next(v for v in starts if not placed[v])
        if max_bag is not None and len(active) >= max_bag:
            return None
        bags.append(tuple(sorted(active | {x})))
        placed[x] = True
        for a in adj[x]:
            unplaced[a] -= 1
            if not placed[a]:
                push(a)
            elif unplaced[a] == 0:
                active.discard(a)
            elif unplaced[a] == 1:
                close_last(a)
        if unplaced[x]:
            active.add(x)
            if unplaced[x] == 1:
                close_last(x)
    return TreeDecomposition(
        n=g.n,
        bags=tuple(bags),
        tree_edges=tuple((i, i + 1) for i in range(len(bags) - 1)),
    )


def validate_td(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violations of the three decomposition properties (plus tree-ness).

    Empty list means the decomposition is valid.  Violations are returned as
    data, naming the failing vertex, edge or node.  The checks take time
    linear in the bags' total size plus the edges of the graph and the tree.
    """
    violations: list[str] = []
    b = len(td.bags)
    if td.n != g.n:
        violations.append(f"decomposition is for n={td.n}, graph has n={g.n}")
    # the bags holding each vertex, ascending
    holders: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                violations.append(f"bag {i} contains out-of-range vertex {v + 1}")
            elif not holders[v] or holders[v][-1] != i:
                holders[v].append(i)
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
    for v in range(g.n):
        if not holders[v]:
            violations.append(f"vertex {v + 1} appears in no bag")
    # property (ii): edge coverage
    held = [set(h) for h in holders]
    for u, v in g.edges:
        if held[u].isdisjoint(held[v]):
            violations.append(f"edge ({u + 1}, {v + 1}) is contained in no bag")
    # property (iii): interpolation -- bags containing v form a subtree.  In
    # a tree, k bags are connected exactly when k - 1 tree edges join two of
    # them, and a tree edge joins two holders of each vertex both bags hold.
    if b > 0 and len(td.tree_edges) == b - 1 and len(seen) == b:
        bag_sets = [set(bag) for bag in td.bags]
        inside = [0] * g.n
        for a, c in td.tree_edges:
            for v in bag_sets[a].intersection(bag_sets[c]):
                if 0 <= v < g.n:
                    inside[v] += 1
        for v in range(g.n):
            if inside[v] < len(holders[v]) - 1:
                violations.append(
                    f"bags containing vertex {v + 1} are disconnected in the tree"
                )
    return violations


def make_nice(
    g: Graph, td: TreeDecomposition, edge_placement: str = "early"
) -> NiceDecomposition:
    """Rewrite a valid tree decomposition into nice form.

    Every edge is introduced exactly once, at a node whose bag contains both
    endpoints and below the forget nodes of both.  With ``edge_placement`` set
    to "early" (the default) an edge appears immediately above the introduce
    node at which its endpoints first share a bag; "late" defers it to just
    below the first forget of one of its endpoints.  Both satisfy every
    validity requirement; early placement keeps dynamic-programming tables
    small because edge constraints start pruning states as soon as possible.

    The width is unchanged and the node count is O(n * width + m).
    """
    if edge_placement not in ("early", "late"):
        raise ValueError(f"unknown edge placement {edge_placement!r}")
    violations = validate_td(g, td)
    if violations:
        raise InvalidDecomposition(
            "input decomposition is invalid: " + "; ".join(violations[:5])
        )
    return _build_nice(g, td, early=edge_placement == "early")


def _build_nice(g: Graph, td: TreeDecomposition, early: bool) -> NiceDecomposition:
    """make_nice without validating td first: for a decomposition that
    td_min_fill or td_greedy_path has just built, which are valid by
    construction.  The checks on its own output still run."""
    nodes: list[NiceNode] = []  # children always precede their parent
    introduced: set[int] = set()

    def edges_at(top: int, bag: tuple[int, ...], v: int) -> int:
        """Introduce every pending edge between v and the rest of the bag."""
        held = set(bag)
        for eid in sorted(e for u, e in g.adj[v] if u in held and e not in introduced):
            introduced.add(eid)
            nodes.append(
                NiceNode(
                    kind=INTRODUCE_EDGE,
                    bag=bag,
                    children=(top,),
                    edge=g.edges[eid],
                    edge_id=eid,
                )
            )
            top = len(nodes) - 1
        return top

    def adapt(top: int, bag: tuple[int, ...], target: tuple[int, ...]) -> int:
        """Morph the bag into target with forgets, then introduces."""
        want = set(target)
        for v in sorted(set(bag) - want):
            if not early:
                top = edges_at(top, bag, v)
            bag = tuple(x for x in bag if x != v)
            nodes.append(NiceNode(kind=FORGET, bag=bag, children=(top,), vertex=v))
            top = len(nodes) - 1
        for v in sorted(want - set(bag)):
            bag = tuple(sorted(bag + (v,)))
            nodes.append(NiceNode(kind=INTRODUCE, bag=bag, children=(top,), vertex=v))
            top = len(nodes) - 1
            if early:
                top = edges_at(top, bag, v)
        return top

    if not td.bags:
        return NiceDecomposition(nodes=[NiceNode(kind=LEAF, bag=())])

    # Iterative postorder over the decomposition tree rooted at bag 0.
    adj = td.neighbors()
    order: list[tuple[int, int]] = []  # (node, parent)
    stack = [(0, -1)]
    seen = {0}
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, node))
    tops: dict[int, int] = {}
    for node, parent in reversed(order):
        bag = td.bags[node]
        child_tops = [adapt(tops[c], td.bags[c], bag) for c in adj[node] if c != parent]
        if not child_tops:  # a leaf chain
            nodes.append(NiceNode(kind=LEAF, bag=()))
            child_tops = [adapt(len(nodes) - 1, (), bag)]
        top = child_tops[0]
        for other in child_tops[1:]:
            nodes.append(NiceNode(kind=JOIN, bag=bag, children=(top, other)))
            top = len(nodes) - 1
        tops[node] = top

    adapt(tops[0], td.bags[0], ())
    if len(introduced) != g.m:
        missing = sorted(set(range(g.m)) - introduced)
        raise InvalidDecomposition(
            f"internal: edges never introduced: {missing[:5]}"
        )
    if nodes[-1].bag:
        raise InvalidDecomposition("internal: root bag not empty")
    return NiceDecomposition(nodes=nodes)


def validate_nice(g: Graph, nd: NiceDecomposition) -> list[str]:
    """All violations of the nice-decomposition invariants; empty means valid."""
    violations: list[str] = []
    nodes = nd.nodes
    if not nodes:
        return ["decomposition has no nodes"]
    used_as_child: set[int] = set()
    forgotten: dict[int, int] = {}
    introduced_edges: dict[int, int] = {}
    appeared: set[int] = set()
    for idx, node in enumerate(nodes):
        appeared.update(node.bag)
        if tuple(sorted(set(node.bag))) != node.bag:
            violations.append(f"node {idx}: bag not sorted and duplicate-free")
        for c in node.children:
            if not 0 <= c < idx:
                violations.append(f"node {idx}: child {c} does not precede it")
                return violations
            if c in used_as_child:
                violations.append(f"node {idx}: child {c} has two parents")
            used_as_child.add(c)
        if node.kind == LEAF:
            if node.children or node.bag:
                violations.append(f"node {idx}: leaf must have no children and empty bag")
        elif node.kind == INTRODUCE:
            if len(node.children) != 1 or node.vertex is None:
                violations.append(f"node {idx}: malformed introduce node")
                continue
            child_bag = nodes[node.children[0]].bag
            if node.vertex in child_bag or set(node.bag) != set(child_bag) | {node.vertex}:
                violations.append(
                    f"node {idx}: introduce of {node.vertex + 1} does not extend child bag"
                )
        elif node.kind == FORGET:
            if len(node.children) != 1 or node.vertex is None:
                violations.append(f"node {idx}: malformed forget node")
                continue
            child_bag = nodes[node.children[0]].bag
            if node.vertex not in child_bag or set(node.bag) != set(child_bag) - {node.vertex}:
                violations.append(
                    f"node {idx}: forget of {node.vertex + 1} does not shrink child bag"
                )
            forgotten[node.vertex] = forgotten.get(node.vertex, 0) + 1
        elif node.kind == INTRODUCE_EDGE:
            if len(node.children) != 1 or node.edge is None or node.edge_id is None:
                violations.append(f"node {idx}: malformed introduce-edge node")
                continue
            child_bag = nodes[node.children[0]].bag
            if node.bag != child_bag:
                violations.append(f"node {idx}: introduce-edge changes the bag")
            u, v = node.edge
            if not (0 <= node.edge_id < g.m) or set(g.edges[node.edge_id]) != {u, v}:
                violations.append(f"node {idx}: edge id/endpoints mismatch")
                continue
            if u not in node.bag or v not in node.bag:
                violations.append(
                    f"node {idx}: edge ({u + 1}, {v + 1}) endpoints not in bag"
                )
            introduced_edges[node.edge_id] = introduced_edges.get(node.edge_id, 0) + 1
        elif node.kind == JOIN:
            if len(node.children) != 2:
                violations.append(f"node {idx}: join must have two children")
                continue
            b1 = nodes[node.children[0]].bag
            b2 = nodes[node.children[1]].bag
            if node.bag != b1 or node.bag != b2:
                violations.append(f"node {idx}: join bags differ from children")
        else:
            violations.append(f"node {idx}: unknown kind {node.kind!r}")
    root = nd.root
    if root in used_as_child:
        violations.append("root node is a child of another node")
    if len(used_as_child) != len(nodes) - 1:
        violations.append("decomposition is not a single tree")
    if nodes[root].bag:
        violations.append("root bag is not empty")
    for v in range(g.n):
        if v not in appeared:
            violations.append(f"vertex {v + 1} appears in no bag")
        count = forgotten.get(v, 0)
        if v in appeared and count != 1:
            violations.append(f"vertex {v + 1} forgotten {count} times; expected 1")
    for eid in range(g.m):
        count = introduced_edges.get(eid, 0)
        if count != 1:
            u, v = g.edges[eid]
            violations.append(
                f"edge ({u + 1}, {v + 1}) introduced {count} times; expected exactly once"
            )
    return violations


def parse_td(text: str) -> TreeDecomposition:
    """Parse the PACE .td exchange format.

    Header "s td <#bags> <width+1> <n>", bag lines "b <id> <v...>" (1-indexed
    ids and vertices), then tree edges "<id> <id>"; blank lines and "c"
    comment lines are skipped.  Raises DecompositionFormatError with a line
    number on malformed input.
    """
    lines = _pace_lines(text, "td")
    num_bags, width_plus1, n = next(lines)
    bags: dict[int, tuple[int, ...]] = {}
    tree_edges: list[tuple[int, int]] = []
    for lineno, parts, line in lines:
        if parts[0] == "b":
            if len(parts) < 2:
                raise DecompositionFormatError("bag line without id", lineno)
            try:
                bag_id = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except ValueError:
                raise DecompositionFormatError("non-integer in bag line", lineno)
            if not 1 <= bag_id <= num_bags:
                raise DecompositionFormatError(f"bag id {bag_id} out of range", lineno)
            if bag_id in bags:
                raise DecompositionFormatError(f"duplicate bag id {bag_id}", lineno)
            for v in verts:
                if not 1 <= v <= n:
                    raise DecompositionFormatError(
                        f"bag {bag_id} references vertex {v} outside 1..{n}", lineno
                    )
            if len(set(verts)) != len(verts):
                raise DecompositionFormatError(f"bag {bag_id} repeats a vertex", lineno)
            bags[bag_id] = tuple(sorted(v - 1 for v in verts))
            continue
        if len(parts) != 2:
            raise DecompositionFormatError(f"malformed tree edge {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise DecompositionFormatError("non-integer tree edge", lineno)
        if not (1 <= a <= num_bags and 1 <= b <= num_bags):
            raise DecompositionFormatError(f"tree edge ({a}, {b}) out of range", lineno)
        tree_edges.append((a - 1, b - 1))
    if len(bags) != num_bags:
        raise DecompositionFormatError(
            f"declared {num_bags} bags but found {len(bags)}"
        )
    ordered = tuple(bags[i] for i in range(1, num_bags + 1))
    td = TreeDecomposition(n=n, bags=ordered, tree_edges=tuple(tree_edges))
    if td.width + 1 != width_plus1:  # a decomposition without bags has width -1
        raise DecompositionFormatError(
            f"header declares max bag size {width_plus1}, bags give {td.width + 1}"
        )
    return td


def emit_td(td: TreeDecomposition) -> str:
    """Serialize to the PACE .td format; parse_td(emit_td(t)) is isomorphic to t."""
    out = [f"s td {len(td.bags)} {td.width + 1} {td.n}"]
    for i, bag in enumerate(td.bags, start=1):
        out.append("b " + " ".join([str(i)] + [str(v + 1) for v in bag]))
    for a, b in td.tree_edges:
        out.append(f"{a + 1} {b + 1}")
    return "\n".join(out) + "\n"
