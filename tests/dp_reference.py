"""Reference dynamic programs for tests.  ``run_reference`` runs the
five-role recurrences literally, one Python tuple per state, and
``ueds.dp.run_dp`` must give the same gamma' on every nice decomposition.
``run_eager`` drives the packed transitions of ``ueds.dp`` over every node
of the nice form, an introduce table included, and must give the same
node_stats, gamma' and witness as ``run_dp``, which folds introduces.  Its
introduce-edge nodes run ``packed_introduce_edge``, by boolean masks, which
shares no code with the outcome lookup of ``run_dp``.

A state is (f, y, n_r, n_r1, n_c, alpha, beta): the color vector f and the
saturating incidence vector y (0, 1 or "2 meaning >= 2") over the current bag,
plus five counters: red vertices seen so far, red vertices already certified
by a black neighbor, vertices forgotten in a role they satisfied, solution
edges, and edges with both endpoints black.  Tables hold only reachable
states, deduplicated per node.  At the (empty-bag) root a state describes a
minimal edge dominating set of size alpha exactly when n_r == n_r1,
n_c == |V| and beta == 0; the answer is the maximum such alpha.

Pruning (on by default) discards states that can never reach an accepting
root: beta > 0, a forgotten red vertex that never saw a black neighbor, and
purple/red vertices whose incidence already exceeds one.  Answers are
identical either way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ueds.decomposition import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    NiceDecomposition,
)
import numpy as np

from ueds import dp
from ueds.dp import BLACK, GREEN, PURPLE, RED0, RED1, DPResult
from ueds.errors import InvalidDecomposition, UedsError
from ueds.graph import EdgeSet, Graph

_INTRODUCIBLE = (BLACK, PURPLE, GREEN, RED0)  # an isolated vertex cannot be r1

# A state is (f, y, n_r, n_r1, n_c, alpha, beta) with f and y tuples over the
# bag in sorted-vertex order.
State = tuple


class NodeTable:
    """Reachable states at one decomposition node, with one back-reference per
    state for witness reconstruction (first producer wins, so reconstruction
    is deterministic)."""

    __slots__ = ("bag", "states")

    def __init__(self, bag: tuple[int, ...], states: dict[State, tuple] | None = None):
        self.bag = bag
        self.states: dict[State, tuple] = states if states is not None else {}

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeTable):
            return NotImplemented
        return self.bag == other.bag and set(self.states) == set(other.states)

    def __repr__(self) -> str:
        return f"NodeTable(bag={self.bag}, states={len(self.states)})"


def dp_leaf() -> NodeTable:
    """The single all-empty state."""
    return NodeTable((), {((), (), 0, 0, 0, 0, 0): ("leaf",)})


def dp_introduce_vertex(child: NodeTable, v: int) -> NodeTable:
    """Extend every child state with each admissible color for v (black,
    purple, green or r0, never r1: because the vertex has no edges yet, so a
    black neighbor is impossible).  y(v) starts at 0."""
    if v in child.bag:
        raise ValueError(f"vertex {v} already in bag")
    pos = bisect_left(child.bag, v)
    bag = child.bag[:pos] + (v,) + child.bag[pos:]
    out: dict[State, tuple] = {}
    for state, _ in child.states.items():
        f, y, n_r, n_r1, n_c, alpha, beta = state
        new_y = y[:pos] + (0,) + y[pos:]
        for color in _INTRODUCIBLE:
            new_state = (
                f[:pos] + (color,) + f[pos:],
                new_y,
                n_r + (1 if color == RED0 else 0),
                n_r1,
                n_c,
                alpha,
                beta,
            )
            out.setdefault(new_state, ("iv", state))
    return NodeTable(bag, out)


def _allowed_solution_pair(cu: int, cv: int) -> bool:
    """Color pairs a solution edge may span: the two endpoints of a
    single-edge star, or a star center and one of its leaves."""
    if cu == PURPLE and cv == PURPLE:
        return True
    if cu == GREEN and cv in (RED0, RED1):
        return True
    if cv == GREEN and cu in (RED0, RED1):
        return True
    return False


def dp_introduce_edge(
    child: NodeTable, u: int, v: int, prune: bool = True
) -> NodeTable:
    """Branch every child state on the new edge being excluded or included.

    Excluded: colors survive except that an r0 endpoint whose partner is
    black becomes r1 (its certifying black neighbor now exists); an edge
    between two black vertices bumps beta.  Included: only allowed color
    pairs, both incidences bump (saturating at 2), alpha bumps.
    """
    iu = bisect_left(child.bag, u)
    iv = bisect_left(child.bag, v)
    if iu >= len(child.bag) or child.bag[iu] != u or iv >= len(child.bag) or child.bag[iv] != v:
        raise ValueError(f"edge ({u}, {v}) endpoints not in bag {child.bag}")
    out: dict[State, tuple] = {}
    for state, _ in child.states.items():
        f, y, n_r, n_r1, n_c, alpha, beta = state
        cu, cv = f[iu], f[iv]

        # excluded branch
        if cu == BLACK and cv == BLACK:
            if not prune:
                ex = (f, y, n_r, n_r1, n_c, alpha, beta + 1)
                out.setdefault(ex, ("ie", state, False))
        else:
            if cu == RED0 and cv == BLACK:
                f2 = f[:iu] + (RED1,) + f[iu + 1 :]
                ex = (f2, y, n_r, n_r1 + 1, n_c, alpha, beta)
            elif cv == RED0 and cu == BLACK:
                f2 = f[:iv] + (RED1,) + f[iv + 1 :]
                ex = (f2, y, n_r, n_r1 + 1, n_c, alpha, beta)
            else:
                ex = state
            out.setdefault(ex, ("ie", state, False))

        # included branch
        if _allowed_solution_pair(cu, cv):
            yu = min(y[iu] + 1, 2)
            yv = min(y[iv] + 1, 2)
            if prune and (
                (cu != GREEN and yu > 1) or (cv != GREEN and yv > 1)
            ):
                continue  # purple/red incidence above 1 can never recover
            if iu < iv:
                y2 = y[:iu] + (yu,) + y[iu + 1 : iv] + (yv,) + y[iv + 1 :]
            else:
                y2 = y[:iv] + (yv,) + y[iv + 1 : iu] + (yu,) + y[iu + 1 :]
            inc = (f, y2, n_r, n_r1, n_c, alpha + 1, beta)
            out.setdefault(inc, ("ie", state, True))
    return NodeTable(child.bag, out)


def dp_forget(child: NodeTable, v: int, prune: bool = True) -> NodeTable:
    """Drop v from the bag.  All of v's edges have been introduced below, so
    its incidence is final: states where v satisfies its color's incidence
    requirement survive with n_c + 1, the rest are dead and are dropped.
    With pruning, forgetting an uncertified red leaf (r0) is also dropped;
    the n_r / n_r1 deficit could never be repaired."""
    pos = bisect_left(child.bag, v)
    if pos >= len(child.bag) or child.bag[pos] != v:
        raise ValueError(f"vertex {v} not in bag {child.bag}")
    bag = child.bag[:pos] + child.bag[pos + 1 :]
    out: dict[State, tuple] = {}
    for state, _ in child.states.items():
        f, y, n_r, n_r1, n_c, alpha, beta = state
        color = f[pos]
        incidence = y[pos]
        if color == BLACK:
            ok = incidence == 0
        elif color == GREEN:
            ok = incidence == 2
        else:
            ok = incidence == 1
        if not ok:
            continue
        if prune and color == RED0:
            continue
        new_state = (
            f[:pos] + f[pos + 1 :],
            y[:pos] + y[pos + 1 :],
            n_r,
            n_r1,
            n_c + 1,
            alpha,
            beta,
        )
        out.setdefault(new_state, ("fg", state))
    return NodeTable(bag, out)


def dp_join(left: NodeTable, right: NodeTable) -> NodeTable:
    """Combine states of two subtrees over the same bag.

    Colors must agree per bag vertex except that the red flavors merge
    disjunctively: a red leaf is certified (r1) as soon as either subtree saw
    its black neighbor.  Incidences add (saturating), counters add with the
    bag overlap subtracted so that each shared red vertex is counted once.
    """
    if left.bag != right.bag:
        raise InvalidDecomposition(f"join bags differ: {left.bag} vs {right.bag}")
    k = len(left.bag)
    red_set = (RED0, RED1)

    def base_key(f: tuple) -> tuple:
        return tuple(RED0 if c in red_set else c for c in f)

    by_base: dict[tuple, list[State]] = {}
    for state in right.states:
        by_base.setdefault(base_key(state[0]), []).append(state)

    out: dict[State, tuple] = {}
    for s1 in left.states:
        f1, y1, nr1_, nr11, nc1, a1, b1 = s1
        group = by_base.get(base_key(f1))
        if not group:
            continue
        n_red_bag = sum(1 for c in f1 if c in red_set)
        for s2 in group:
            f2, y2, nr2_, nr12, nc2, a2, b2 = s2
            f = tuple(
                (RED1 if (f1[i] == RED1 or f2[i] == RED1) else f1[i])
                for i in range(k)
            )
            y = tuple(min(y1[i] + y2[i], 2) for i in range(k))
            both_r1 = sum(
                1 for i in range(k) if f1[i] == RED1 and f2[i] == RED1
            )
            merged = (
                f,
                y,
                nr1_ + nr2_ - n_red_bag,
                nr11 + nr12 - both_r1,
                nc1 + nc2,
                a1 + a2,
                b1 + b2,
            )
            out.setdefault(merged, ("jn", s1, s2))
    return NodeTable(left.bag, out)


@dataclass
class ReferenceResult:
    """The answer, every node's table and the accepting root state."""

    gamma_prime: int
    tables: list[NodeTable]
    accepting_state: State


def run_reference(
    g: Graph, nd: NiceDecomposition, prune: bool = True
) -> ReferenceResult:
    """Evaluate the decomposition bottom-up and read the answer off the root:
    the maximum solution size over root states with every red leaf certified
    (n_r == n_r1), every vertex satisfied (n_c == |V|) and no black-black edge
    (beta == 0).  The edgeless graph yields 0."""
    tables: list[NodeTable] = []
    for idx, node in enumerate(nd.nodes):
        if node.kind == LEAF:
            table = dp_leaf()
        elif node.kind == INTRODUCE:
            table = dp_introduce_vertex(tables[node.children[0]], node.vertex)
        elif node.kind == INTRODUCE_EDGE:
            u, v = node.edge
            table = dp_introduce_edge(tables[node.children[0]], u, v, prune=prune)
        elif node.kind == FORGET:
            table = dp_forget(tables[node.children[0]], node.vertex, prune=prune)
        elif node.kind == JOIN:
            table = dp_join(tables[node.children[0]], tables[node.children[1]])
        else:
            raise UedsError(f"unknown node kind {node.kind!r}")
        if table.bag != node.bag:
            raise UedsError(
                f"node {idx}: computed bag {table.bag} != declared {node.bag}"
            )
        tables.append(table)

    best: State | None = None
    for state in tables[-1].states:
        _, _, n_r, n_r1, n_c, alpha, beta = state
        if n_r == n_r1 and n_c == g.n and beta == 0:
            if best is None or alpha > best[5] or (alpha == best[5] and state < best):
                best = state
    if best is None:
        raise UedsError("no accepting state at the root")
    return ReferenceResult(gamma_prime=best[5], tables=tables, accepting_state=best)


def reference_witness(nd: NiceDecomposition, result: ReferenceResult) -> EdgeSet:
    """Walk the back-references from the accepting root state and collect the
    edges taken on included introduce-edge branches."""
    mask = 0
    stack: list[tuple[int, State]] = [(nd.root, result.accepting_state)]
    while stack:
        idx, state = stack.pop()
        node = nd.nodes[idx]
        back = result.tables[idx].states[state]
        tag = back[0]
        if tag == "leaf":
            continue
        if tag == "jn":
            stack.append((node.children[0], back[1]))
            stack.append((node.children[1], back[2]))
            continue
        if tag == "ie" and back[2]:
            mask |= 1 << node.edge_id
        stack.append((node.children[0], back[1]))
    return EdgeSet(mask)


def packed_introduce_edge(
    child: dp._Table,
    su: np.uint64,
    sv: np.uint64,
    rules: dp._EdgeRules,
    amask: np.uint64,
    keep: bool,
) -> dp._Table:
    """A packed introduce-edge node by boolean masks, apart from the outcome
    lookup of ueds.dp: the excluded branch's rows, then the included
    branch's, each in child order, then dedupe."""
    (ex_ok, in_ok), (ex_du, in_du), (ex_dv, in_dv) = rules.ok, rules.du, rules.dv
    ex_step = (ex_du << su) + (ex_dv << sv)
    # one more solution edge also lowers amax - alpha by one (uint64 wraps)
    in_step = (in_du << su) + (in_dv << sv) - np.uint64(1)

    rows = child.rows
    pair = ((rows >> su) & 31).astype(np.int64) << 5 | ((rows >> sv) & 31).astype(np.int64)
    ex = ex_ok[pair]
    inc = in_ok[pair]
    ex_rows = rows[ex] + ex_step[pair[ex]]
    in_rows = rows[inc] + in_step[pair[inc]]
    extras: dict[str, np.ndarray] = {}
    if keep:
        extras["back"] = np.concatenate(
            [np.flatnonzero(ex), np.flatnonzero(inc)]
        ).astype(np.int32)
        extras["took"] = np.arange(len(ex_rows) + len(in_rows)) >= len(ex_rows)
    return dp._dedupe(np.concatenate([ex_rows, in_rows]), extras, amask)


def remaining_above(g: Graph, nd: NiceDecomposition) -> list[dict[int, int]]:
    """Per node, for each vertex of its bag, how many of its incident edges
    are introduced OUTSIDE the node's subtree.  Those are the hits a state's
    incidence can still receive on the way to the root (edges in a parallel
    join branch arrive via the join's sum, so they count as remaining).  A
    vertex appears nowhere below its introduce, so it starts there with its
    degree; each of its edge nodes takes one off, and a join adds the two
    sides' counts less the degree, which both sides started from.  run_dp
    derives the same counts in its plan, handing one dict from child to
    parent instead of copying it per node."""
    out: list[dict[int, int]] = []
    for node in nd.nodes:
        if node.kind == LEAF:
            rem: dict[int, int] = {}
        elif node.kind == JOIN:
            left, right = (out[c] for c in node.children)
            rem = {v: left[v] + right[v] - g.degree(v) for v in node.bag}
        else:
            rem = out[node.children[0]].copy()
            if node.kind == INTRODUCE:
                rem[node.vertex] = g.degree(node.vertex)
            elif node.kind == INTRODUCE_EDGE:
                u, v = node.edge
                rem[u] -= 1
                rem[v] -= 1
            elif node.kind == FORGET:
                del rem[node.vertex]
        out.append(rem)
    return out


def run_eager(g: Graph, nd: NiceDecomposition, keep_tables: bool = False) -> DPResult:
    """run_dp without folded introduces: every node of the nice form builds
    its table, and every join pairs all bag slots."""
    alpha_bits = (g.n - 1).bit_length()
    amask = np.uint64((1 << alpha_bits) - 1)
    shift = [np.uint64(5 * s + alpha_bits) for s in dp.assign_slots(nd, g.n)]
    remaining = remaining_above(g, nd)
    leaf_extras = {"back": np.zeros(1, dtype=np.int32)} if keep_tables else {}
    tables: list[dp._Table] = []
    for idx, node in enumerate(nd.nodes):
        rem = remaining[idx]
        if node.kind == LEAF:
            table = dp._Table(np.full(1, amask, dtype=np.uint64), leaf_extras)
        elif node.kind == INTRODUCE:
            v = node.vertex
            table = dp._introduce(tables[node.children[0]], shift[v], rem[v], keep_tables)
        elif node.kind == INTRODUCE_EDGE:
            u, v = node.edge
            rules = dp._edge_rules(min(rem[u], 2), min(rem[v], 2))
            table = packed_introduce_edge(
                tables[node.children[0]], shift[u], shift[v], rules, amask, keep_tables
            )
        elif node.kind == FORGET:
            table = dp._forget(tables[node.children[0]], shift[node.vertex], amask, keep_tables)
        else:
            by_rem = [0, 0, 0]
            for v in node.bag:
                by_rem[min(rem[v], 2)] |= 1 << int(shift[v])
            table = dp._join(
                tables[node.children[0]], tables[node.children[1]],
                np.uint64(sum(by_rem)), np.uint64(by_rem[0]), np.uint64(by_rem[1]),
                np.uint64(0), amask, keep_tables,
            )
        tables.append(table)
    root = tables[-1].rows
    row = int(np.flatnonzero(root <= amask)[0])
    sizes = [len(t.rows) for t in tables]
    return DPResult(
        gamma_prime=int(amask - root[row]),
        width=nd.width,
        node_stats=[(idx, node.kind, size) for idx, (node, size) in enumerate(zip(nd.nodes, sizes))],
        max_table_size=max(sizes),
        backrefs=[t.extras for t in tables] if keep_tables else None,
        root_row=row,
    )
