"""Vectorized engine behind run_dp.

Implements exactly the recurrences of the tuple-level operations in ``dp``
over packed states, a whole table at a time.

State.  A table holds one sorted array of unique int64 keys and a parallel
alpha array, the best solution size reached with that key.  Vertex id v owns
the 5-bit field at bits [5v, 5v+4] of the key.  The field's value is the
vertex's code, color | incidence << 3: the color (black, purple, green, r0,
r1) in the low three bits and the incidence, saturating at 2, in the top
two.  So a code lies in 0..31, and a vertex outside the bag has field 0.
The other tuple components need nothing.  beta stays zero because
black-black edges are discarded outright.  The satisfied-vertex count
always equals the number of forgets below the node.  Of alpha only the
per-key maximum can ever reach a better answer.  And the deficit between red
vertices seen and red vertices certified by a black neighbor always equals
the number of r0 fields in the key:

- introduce adds one uncertified red exactly when it adds an r0 field;
- an excluded red-black edge certifies the red endpoint exactly when it
  turns an r0 field into r1, and no other edge branch touches either count;
- forget keeps only satisfied fields, and r0 is never satisfied, so a
  forgotten red is r1 and a forget removes no r0 field;
- at a join a bag vertex is red on both sides or on neither.  The sum of
  the two sides' deficits counts a red bag vertex once per side where it is
  r0.  The tuple recurrence subtracts the red bag vertices and adds back
  those r1 on both sides, which leaves one uncertified red exactly when the
  vertex is r0 on both sides.  The merged color is the maximum of the two
  sides' colors, which is r0 in that case only.  Reds forgotten below
  either side are r1 and count for neither.

The root's bag is empty, so its key has no r0 field and the root accepts
at key 0.

Transitions.  A node changes the fields of one vertex, or of two for an
edge, so it is a lookup on their codes: liveness for introduce and
satisfaction for forget, each a table over the 32 codes, and four tables
over the 1,024 code pairs code_u * 32 + code_v for introduce-edge
(excluded branch kept, excluded step, included branch kept, included
step).  A step is what the branch adds to a row's dedupe sort key (below):
the key delta, and for the included branch one more edge.  The tables are
built from the color rules and the pruning below, and applied to every row
with one gather each.

Pruning.  On top of the always-on discards shared with the tuple engine
(black-black edges, uncertified red forgets, incidence overflow on
purple/red), this engine drops states in which a bag vertex can no longer
reach its target incidence with the edges still to be introduced above the
current node.  The tables fold this check in, so a dead row is never
gathered.

Dedupe.  Rows with equal keys collapse to the one of largest alpha, by one
sort on the packed key (key << 4) | (15 - alpha) as a uint64.  That needs
keys below 2^60, so n <= MAX_N = 12, and alpha below 16: a partial solution
is a star forest, so alpha <= n - 1 <= 11.  run_dp falls back to the tuple
engine beyond MAX_N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .decomposition import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    NiceDecomposition,
)
from .errors import UedsError
from .graph import EdgeSet, Graph

MAX_N = 12  # 5 bits per vertex: keys stay below 2^60, leaving 4 bits for alpha
_ALPHA_BITS = 4
# alpha <= n - 1 (a star forest on n vertices) must fit the packed sort key
assert MAX_N - 1 < 1 << _ALPHA_BITS and 5 * MAX_N + _ALPHA_BITS <= 64

_BLACK, _PURPLE, _GREEN, _RED0, _RED1 = range(5)

_CODES = np.arange(32, dtype=np.int64)
_COLOR = _CODES & 7
_INC = _CODES >> 3


@dataclass
class FastTable:
    """One node's states.  keys holds one int64 per state, the 5-bit code of
    each vertex at bits [5v, 5v+4], unique and sorted ascending (introduce
    nodes keep their child's order per color block instead).  alpha holds
    the best solution size per key as uint8.  With n <= MAX_N = 12 the keys
    stay below 2^60 and alpha below 16, so a row packs into the uint64
    (key << 4) | (15 - alpha) that dedupe sorts.  Optional parallel
    back-reference arrays serve witness walks.

    extras, per node kind: "back" = int32 row into the (left) child table;
    "took" = included-edge flag (introduce-edge nodes); "back2" = int32 row
    into the right child (join nodes).
    """

    keys: np.ndarray
    alpha: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.keys)


_SHIFT = np.uint64(_ALPHA_BITS)


def _pack(keys: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The dedupe sort key of each row, (key << 4) | (15 - alpha), as uint64."""
    packed = keys.view(np.uint64) << _SHIFT
    packed |= 15 - alpha
    return packed


def _dedupe(packed: np.ndarray, extras: dict) -> FastTable:
    """Keep the maximum-alpha row per key, given the rows' packed sort keys.
    With back-references the earliest producer wins ties, so witnesses are
    deterministic; without them any tied row will do.  Both sorts are the
    stable merge sort, which is also the faster one here because the rows
    arrive as a few ascending runs."""
    if extras:
        order = np.argsort(packed, kind="stable")
        packed = packed[order]
    else:
        packed.sort(kind="stable")
    # a row starts a new key where it differs from its predecessor above
    # the alpha bits
    first = np.empty(len(packed), dtype=bool)
    first[:1] = True
    np.greater(packed[1:] ^ packed[:-1], np.uint64(15), out=first[1:])
    kept = packed[first]
    alpha = 15 - (kept & np.uint64(15)).astype(np.uint8)
    if extras:
        sel = order[first]
        extras = {name: arr[sel] for name, arr in extras.items()}
    return FastTable((kept >> _SHIFT).view(np.int64), alpha, extras)


def _alive(color: np.ndarray, y: np.ndarray, remaining: int) -> np.ndarray:
    """Can this vertex still reach its color's target incidence given how many
    of its edges are yet to be introduced?  Black needs nothing (its incidence
    never grows), purple and red must end at exactly one, green at >= 2."""
    need_one = (color != _BLACK) & (color != _GREEN)
    return (
        (color == _BLACK)
        | (need_one & ((y == 1) | (remaining >= 1)))
        | ((color == _GREEN) & (y + remaining >= 2))
    )


# per code: may a vertex with this field be forgotten?
_SATISFIED = (
    ((_COLOR == _BLACK) & (_INC == 0))
    | ((_COLOR == _GREEN) & (_INC == 2))
    | (((_COLOR == _PURPLE) | (_COLOR == _RED1)) & (_INC == 1))
)


class _EdgeRules(NamedTuple):
    """An introduce-edge node's lookup, indexed code_u * 32 + code_v: per
    branch, whether a row with those codes survives, and the increments to
    the fields of u and v (in field units, before shifting into place)."""

    ex_ok: np.ndarray
    ex_du: np.ndarray
    ex_dv: np.ndarray
    in_ok: np.ndarray
    in_du: np.ndarray
    in_dv: np.ndarray


@lru_cache(maxsize=None)
def _edge_rules(rem_u: int, rem_v: int) -> _EdgeRules:
    """Build the lookup for an edge uv whose endpoints have rem_u and rem_v
    incident edges left above the node.  _alive only tells 0, 1 and >= 2
    apart, so callers clamp the counts to 2 and there are nine tables."""
    cu, yu = _COLOR[:, None], _INC[:, None]
    cv, yv = _COLOR[None, :], _INC[None, :]

    # excluded branch: drop black-black outright; an r0 endpoint whose
    # partner is black is certified and becomes r1
    up_u = (cu == _RED0) & (cv == _BLACK)
    up_v = (cv == _RED0) & (cu == _BLACK)
    ex_ok = (
        ((cu != _BLACK) | (cv != _BLACK))
        & _alive(cu + up_u, yu, rem_u)
        & _alive(cv + up_v, yv, rem_v)
    )

    # included branch: single-edge-star pair or center-leaf pair; a
    # purple/red endpoint may not exceed incidence one
    red_u = cu >= _RED0
    red_v = cv >= _RED0
    allowed = (
        ((cu == _PURPLE) & (cv == _PURPLE))
        | ((cu == _GREEN) & red_v)
        | ((cv == _GREEN) & red_u)
    )
    allowed &= ~((cu != _GREEN) & (yu >= 1)) & ~((cv != _GREEN) & (yv >= 1))
    bump_u = yu < 2
    bump_v = yv < 2
    in_ok = allowed & _alive(cu, yu + bump_u, rem_u) & _alive(cv, yv + bump_v, rem_v)

    def table(a: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(a, (32, 32)).ravel()
        out.flags.writeable = False
        return out

    return _EdgeRules(
        table(ex_ok),
        table(np.where(ex_ok, up_u, 0).astype(np.int64)),
        table(np.where(ex_ok, up_v, 0).astype(np.int64)),
        table(in_ok),
        table(np.where(in_ok, bump_u << 3, 0).astype(np.int64)),
        table(np.where(in_ok, bump_v << 3, 0).astype(np.int64)),
    )


def _remaining_above(g: Graph, nd: NiceDecomposition) -> list[dict[int, int]]:
    """Per node, for each vertex whose introduced-edge count changes there,
    how many of its incident edges are introduced OUTSIDE the node's subtree.
    Those are the hits a state's incidence can still receive on the way to
    the root (edges in a parallel join branch arrive via the join's sum, so
    they count as remaining).  Queried only at a vertex's introduce node and
    at its edges' nodes."""
    out: list[dict[int, int]] = [dict() for _ in nd.nodes]
    # per-vertex introduced-edge counts within each node's subtree; dicts are
    # shared with the child where the node cannot change them
    sub: list[dict[int, int]] = []
    for idx, node in enumerate(nd.nodes):
        if node.kind == LEAF:
            cnt: dict[int, int] = {}
        elif node.kind == INTRODUCE_EDGE:
            cnt = dict(sub[node.children[0]])
            u, v = node.edge
            cnt[u] = cnt.get(u, 0) + 1
            cnt[v] = cnt.get(v, 0) + 1
            out[idx][u] = g.degree(u) - cnt[u]
            out[idx][v] = g.degree(v) - cnt[v]
        elif node.kind == JOIN:
            left = sub[node.children[0]]
            right = sub[node.children[1]]
            cnt = dict(left)
            for v, c in right.items():
                cnt[v] = cnt.get(v, 0) + c
        else:
            cnt = sub[node.children[0]]
            if node.kind == INTRODUCE:
                v = node.vertex
                out[idx][v] = g.degree(v) - cnt.get(v, 0)
        sub.append(cnt)
    return out


def _leaf(keep: bool) -> FastTable:
    extras = {"back": np.zeros(1, dtype=np.int32)} if keep else {}
    return FastTable(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.uint8), extras)


def _introduce(child: FastTable, v: int, rem_v: int, keep: bool) -> FastTable:
    # the new field has incidence 0, so its code is its color, and each
    # color keeps or drops the whole child table
    live = _alive(_COLOR, _INC, rem_v)
    colors = [c for c in (_BLACK, _PURPLE, _GREEN, _RED0) if live[c]]
    shift = np.int64(5 * v)
    keys = np.concatenate([child.keys + (np.int64(c) << shift) for c in colors])
    alpha = np.tile(child.alpha, len(colors))
    extras = {}
    if keep:
        extras["back"] = np.tile(
            np.arange(len(child.keys), dtype=np.int32), len(colors)
        )
    return FastTable(keys, alpha, extras)


def _introduce_edge(
    child: FastTable, u: int, v: int, rem: dict[int, int], keep: bool
) -> FastTable:
    rules = _edge_rules(min(rem[u], 2), min(rem[v], 2))
    su, sv = np.int64(5 * u), np.int64(5 * v)
    # per code pair, the step each branch adds to a packed row: the key
    # delta shifted past alpha, and on the included branch one more edge,
    # which lowers 15 - alpha by one
    ex_step = ((rules.ex_du << su) + (rules.ex_dv << sv)) << _ALPHA_BITS
    in_step = ((rules.in_du << su) + (rules.in_dv << sv)) << _ALPHA_BITS
    ex_step = ex_step.view(np.uint64)
    in_step = np.where(rules.in_ok, in_step - 1, 0).view(np.uint64)

    keys = child.keys
    pair = (keys >> su) & 31
    pair <<= 5
    pair |= (keys >> sv) & 31
    ex = rules.ex_ok[pair]
    inc = rules.in_ok[pair]
    packed = _pack(keys, child.alpha)
    ex_rows = packed[ex]
    ex_rows += ex_step[pair[ex]]
    in_rows = packed[inc]
    in_rows += in_step[pair[inc]]
    rows = np.concatenate([ex_rows, in_rows])
    extras: dict[str, np.ndarray] = {}
    if keep:
        extras["back"] = np.concatenate(
            [np.flatnonzero(ex), np.flatnonzero(inc)]
        ).astype(np.int32)
        extras["took"] = np.arange(len(rows)) >= len(ex_rows)
    return _dedupe(rows, extras)


def _forget(child: FastTable, v: int, keep: bool) -> FastTable:
    satisfied = _SATISFIED[(child.keys >> np.int64(5 * v)) & 31]
    keys = child.keys[satisfied] & ~(np.int64(31) << np.int64(5 * v))
    extras = {}
    if keep:
        extras["back"] = np.flatnonzero(satisfied).astype(np.int32)
    return _dedupe(_pack(keys, child.alpha[satisfied]), extras)


def _join(
    left: FastTable, right: FastTable, bag: tuple[int, ...], keep: bool
) -> FastTable:
    """Pair states whose base colors agree on every bag vertex (red flavors
    collapse for matching; the merged flavor is the maximum of the two).
    Incidences add with saturation and alphas add.

    Pairs come out grouped by base ascending, then by left row, then by
    right row.  Every field is handled at once through masks over the bag
    fields: r1 (4) is the only color with bit 2, so the base turns it into
    r0 (3) by subtracting that bit, and an incidence sum (at most 4) fits
    the three low bits of a field without carrying into the next one."""
    ones = np.int64(sum(1 << 5 * v for v in bag))
    colors = ones * 7

    def base(keys: np.ndarray) -> np.ndarray:
        c = keys & colors
        return c - ((c >> 2) & ones)

    lbase = base(left.keys)
    rbase = base(right.keys)
    lorder = np.argsort(lbase, kind="stable")
    rorder = np.argsort(rbase, kind="stable")
    rb = rbase[rorder]
    lb = lbase[lorder]
    # each left row meets the run rb[lo:hi] of equal right bases
    lo = np.searchsorted(rb, lb, "left")
    run = np.searchsorted(rb, lb, "right") - lo
    li = np.repeat(lorder, run)
    starts = np.cumsum(run) - run
    ri = rorder[np.arange(len(li)) + np.repeat(lo - starts, run)]

    lk = left.keys[li]
    rk = right.keys[ri]
    red1 = ((lk | rk) >> 2) & ones
    y = ((lk >> 3) & (ones * 3)) + ((rk >> 3) & (ones * 3))
    over = ((y >> 2) | ((y >> 1) & y)) & ones  # incidence sum above 2
    y = (y & ~(over * 7)) | (over << 1)
    merged = (base(lk) + red1) | (y << 3)
    alpha = left.alpha[li] + right.alpha[ri]
    extras = {}
    if keep:
        extras = {"back": li.astype(np.int32), "back2": ri.astype(np.int32)}
    return _dedupe(_pack(merged, alpha), extras)


def run_fast_dp(
    g: Graph, nd: NiceDecomposition, keep_tables: bool = False
) -> tuple[int, list[int], list[dict[str, np.ndarray]] | None, int]:
    """Evaluate all nodes; returns (gamma_prime, per-node table sizes,
    per-node back-references or None, accepting root row).

    A node's keys and alpha are freed as soon as its parent is built.  With
    keep_tables its back-references (the extras) are kept for the witness
    walk, which reads nothing else."""
    if g.n > MAX_N:
        raise ValueError(f"fast engine supports n <= {MAX_N}")
    remaining = _remaining_above(g, nd)
    tables: list[FastTable | None] = []
    backrefs: list[dict[str, np.ndarray]] = []
    sizes: list[int] = []
    for idx, node in enumerate(nd.nodes):
        if node.kind == LEAF:
            table = _leaf(keep_tables)
        elif node.kind == INTRODUCE:
            table = _introduce(
                tables[node.children[0]],
                node.vertex,
                remaining[idx][node.vertex],
                keep_tables,
            )
        elif node.kind == INTRODUCE_EDGE:
            u, v = node.edge
            table = _introduce_edge(
                tables[node.children[0]], u, v, remaining[idx], keep_tables
            )
        elif node.kind == FORGET:
            table = _forget(tables[node.children[0]], node.vertex, keep_tables)
        elif node.kind == JOIN:
            table = _join(
                tables[node.children[0]],
                tables[node.children[1]],
                node.bag,
                keep_tables,
            )
        else:
            raise UedsError(f"unknown node kind {node.kind!r}")
        tables.append(table)
        sizes.append(len(table))
        if keep_tables:
            backrefs.append(table.extras)
        # every node has one parent, so a child is done once it is built
        for c in node.children:
            tables[c] = None

    root = tables[-1]
    # no r0 field left means no uncertified red (see the module docstring)
    accept = np.flatnonzero(root.keys == 0)
    if len(accept) == 0:
        raise UedsError(
            "no accepting state at the root; the decomposition does not "
            "cover the graph"
        )
    row = int(accept[0])
    gamma = int(root.alpha[row])
    return gamma, sizes, backrefs if keep_tables else None, row


def fast_witness(
    g: Graph,
    nd: NiceDecomposition,
    backrefs: list[dict[str, np.ndarray]],
    root_row: int,
) -> EdgeSet:
    """Walk back-references from the accepting root row, collecting the edges
    taken on included introduce-edge branches."""
    mask = 0
    stack = [(nd.root, root_row)]
    while stack:
        idx, row = stack.pop()
        node = nd.nodes[idx]
        extras = backrefs[idx]
        if node.kind == LEAF:
            continue
        if node.kind == JOIN:
            stack.append((node.children[0], int(extras["back"][row])))
            stack.append((node.children[1], int(extras["back2"][row])))
            continue
        if node.kind == INTRODUCE_EDGE and bool(extras["took"][row]):
            mask |= 1 << node.edge_id
        stack.append((node.children[0], int(extras["back"][row])))
    return EdgeSet(mask)
