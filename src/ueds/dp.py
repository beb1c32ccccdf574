"""Exact dynamic program over a nice tree decomposition.

Every minimal edge dominating set induces a disjoint union of isolated
vertices and stars.  The program sweeps a nice decomposition bottom-up and
classifies each bag vertex by its role in the partial solution:

    black   no incident solution edge (and no black-black edge may stay
            undominated)
    purple  endpoint of a single-edge star
    green   center of a star with >= 2 leaves
    red     leaf of such a star; flavor r1 once a black neighbor has been
            seen (that neighbor certifies the star edge's private edge),
            flavor r0 until then

State.  A state is the color and the incidence (0, 1 or "2 meaning >= 2") of
each bag vertex, with the best solution size alpha reached with them.  The
literal formulation also carries four counters: red vertices seen, red
vertices certified by a black neighbor, vertices forgotten in a role they
satisfied, and black-black edges.  None is needed.  The black-black count
stays zero because such edges are discarded outright.  The satisfied count
always equals the number of forgets below the node.  Of alpha only the
per-state maximum can ever reach a better answer.  And the deficit between
red vertices seen and red vertices certified always equals the number of r0
vertices in the bag:

- introduce adds one uncertified red exactly when it adds an r0 vertex;
- an excluded red-black edge certifies the red endpoint exactly when it
  turns an r0 vertex into r1, and no other edge branch touches either count;
- forget keeps only satisfied vertices, and r0 is never satisfied, so a
  forgotten red is r1 and a forget removes no r0 vertex;
- at a join a bag vertex is red on both sides or on neither.  The sum of
  the two sides' deficits counts a red bag vertex once per side where it is
  r0.  The literal recurrence subtracts the red bag vertices and adds back
  those r1 on both sides, which leaves one uncertified red exactly when the
  vertex is r0 on both sides.  The merged color is the maximum of the two
  sides' colors, which is r0 in that case only.  Reds forgotten below
  either side are r1 and count for neither.

The root's bag is empty, so its state has no r0 vertex and the root accepts
the empty key.  ``tests/dp_reference.py`` runs the literal recurrences as an
executable specification.

Slots.  Each vertex keeps one slot in 0..width for its whole lifetime in the
decomposition, and two vertices that share a bag hold different slots
(assign_slots, which walks the forget nodes down from the root).  This is
the position-indexed state vector of van Rooij, Bodlaender & Rossmanith,
"Dynamic programming on tree decompositions using generalised fast subset
convolution" (ESA 2009): a join pairs the same slots on both sides, so no
node remaps fields.

Packing.  A table is one sorted uint64 array with one row per state.  Slot s
owns the 5-bit field at bits [5s + a, 5s + a + 4] of a row, with
a = (n - 1).bit_length() alpha bits below the fields.  A field holds its
vertex's code, color | incidence << 3, and a slot without a bag vertex holds
0.  The low a bits hold amax - alpha with amax = 2^a - 1, so sorting the rows
puts each key's best alpha first.  Every row's partial solution is a star
forest (no node keeps a purple or red vertex above incidence one, see
Pruning), so alpha <= n - 1 <= amax and alpha never borrows from the fields.
A row fits when 5 * (width + 1) + a <= 64 (row_bag_limit): bags of up to 12
vertices for n <= 16, 11 for n <= 512 and 10 for n <= 16,384.  run_dp
refuses wider decompositions with WidthCapExceeded before it builds a table.

Transitions.  A node changes the field of one vertex, or of two for an
edge, so it is a lookup on their codes: liveness for introduce and
satisfaction for forget, each a table over the 32 codes, built from the
color rules and the pruning below and applied to every row with one gather.
Every introduce-edge node is one lookup over a key read from each child row,
with one row per outcome: whether a row with that key survives, and its
increment.  It emits every surviving (outcome, child row) pair, outcome-major
with the excluded branch first, adds the increments and dedupes; a decision
run adds the increments to every pair and selects the survivors by mask.  A
plain edge node uv is the two-outcome case: its keys are the 1,024 code
pairs code_u * 32 + code_v, and its outcomes the two branches.

Folded introduces.  An introduce writes one copy of its child per live
color, and most of those copies are read once by the node right above it,
so run_dp builds no table for an introduce whose parent can apply it:

- an introduce of v below an introduce-edge uv, v's first edge (_plan names
  the introduced end v; the rules are symmetric): the edge node reads the
  introduce's child, and its lookup's keys are the codes of u, with one
  outcome per (branch, color of v), by branch, then by color; each
  increment also writes v's color.  The candidate rows come out in the
  order of the two separate nodes, so dedupe keeps the same rows;
- an introduce in the chain of introduces right below a join: that side's
  table lacks the vertex, and the join carries the field from the other side
  (below, one-sided slots).  A vertex introduced in the chains of both sides
  stays built on the right.

Either way the parent's back-references point into the introduce's child,
and node_stats still reports the nice-form table the introduce stands for.
The plan (_plan) finds these folds in its one walk over the nice form's
columns, which also derives each node's shifts, lookup and join masks.

Pruning.  Black-black edges, forgets of an uncertified red and a purple or
red incidence above one are discarded.  On top of that, a state is dropped
when a bag vertex can no longer reach its target with the edges still to be
introduced above the current node.  An r0 vertex needs one more edge than
its incidence target: its certificate is an excluded edge to a black
neighbor.  The lookups fold this check in, so a dead row is never gathered.
A join prunes the same way, from the two sides' fields before it merges
them: it drops a pair in which a purple or red vertex has one solution edge
on each side, a green vertex is short of two with the edges left above the
join, or a vertex r0 on both sides has too few edges left to be certified.
A purple or red vertex with no edge left above the join must leave it at
incidence exactly one, so its incidence bit goes into the left side's join
key and the complement into the right side's, and the pairs 0/0 and 1/1 are
never built.  The keys, the drops and the merge run over the slots both
sides hold.  A one-sided slot, whose vertex was introduced right below the
join on the other side, is copied from the side that holds it: the vertex
has no edge in the other subtree, so the nice form would pair each row with
the one copy of its color at incidence 0, and the row passed _alive with the
join's remaining count already.

Dedupe.  Rows with equal fields collapse to the first row after one sort,
which is the one of largest alpha.
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
    validate_nice,
)
from .errors import InvalidDecomposition, UedsError, WidthCapExceeded
from .graph import EdgeSet, Graph

__all__ = [
    "BLACK",
    "PURPLE",
    "GREEN",
    "RED0",
    "RED1",
    "DPResult",
    "assign_slots",
    "row_bag_limit",
    "run_dp",
    "extract_witness",
    "state_space_bound",
]

BLACK, PURPLE, GREEN, RED0, RED1 = range(5)

_CODES = np.arange(32, dtype=np.uint64)
_COLOR = _CODES & 7
_INC = _CODES >> 3


@dataclass
class DPResult:
    """Answer plus diagnostics of one dynamic-programming run.  node_stats
    gives every node's table size in the nice form; a folded introduce,
    which builds no table, reports its child's size times its live colors.
    With keep_tables, backrefs holds each node's back-reference arrays
    (empty for a leaf, like a folded introduce's) and root_row the accepting
    root row, which the witness walk starts from."""

    gamma_prime: int
    width: int
    node_stats: list[tuple[int, str, int]]  # (node index, kind, table size)
    max_table_size: int
    backrefs: list[dict[str, np.ndarray]] | None = field(default=None, repr=False)
    root_row: int = 0

    def diagnostics_lines(self) -> list[str]:
        lines = [
            f"node={idx} type={kind} tuples={count}"
            for idx, kind, count in self.node_stats
        ]
        lines.append(f"gamma_prime={self.gamma_prime}")
        return lines


def state_space_bound(width: int) -> int:
    """Upper bound on the rows of any table: a bag holds at most width + 1
    vertices, and each has one of 10 reachable (color, incidence) codes.
    Black stays at incidence 0, purple, r0 and r1 take 0 or 1, and green
    takes 0, 1 or 2.  No node keeps a purple or red vertex above 1: an
    introduce-edge node never lifts one there, and a join drops the pairs
    whose incidences add up to 2."""
    return 10 ** (width + 1)


def row_bag_limit(n: int) -> int:
    """The most bag vertices a 64-bit row holds for a graph on n vertices:
    5 bits per vertex above (n - 1).bit_length() alpha bits."""
    return (64 - (n - 1).bit_length()) // 5


def assign_slots(nd: NiceDecomposition, n: int) -> list[int]:
    """Each vertex's slot in 0..width.  Walking down from the root, a vertex
    takes at its forget node the lowest slot that no vertex of that node's
    bag holds.  Those vertices are forgotten higher up, so they already have
    their slots.  Of two vertices that share a bag, the one forgotten lower
    sees the other in its forget node's bag, so they get different slots;
    and that bag has at most width vertices, so one of width + 1 slots is
    free."""
    slot = [-1] * n
    for kind, bag, v in zip(reversed(nd.kind), reversed(nd.bag), reversed(nd.vertex)):
        if kind == FORGET:
            used = 0
            for u in bag:
                used |= 1 << slot[u]
            slot[v] = (~used & (used + 1)).bit_length() - 1
    return slot


class _Table(NamedTuple):
    """One node's rows, unique by fields and ascending (introduce nodes keep
    their child's order per color block instead), and the back-reference
    arrays of a witness run: "back" = row into the (left) child; "took" =
    whether the row's outcome includes the edge (introduce-edge nodes, read
    off the lookup's outcome, plain or folded); "back2" = row into the right
    child (join nodes)."""

    rows: np.ndarray
    extras: dict[str, np.ndarray]


def _dedupe(rows: np.ndarray, extras: dict, amask: np.uint64) -> _Table:
    """Keep the maximum-alpha row per key.  With back-references a stable
    merge sort, fast here as the rows arrive in a few ascending runs, lets
    the earliest producer win ties, so witnesses are deterministic.  Without
    them equal rows are interchangeable, and the default sort is faster."""
    if extras:
        order = rows.argsort(kind="stable")
        rows = rows[order]
    else:
        rows.sort()
    # a row starts a new key where it differs from its predecessor above
    # the alpha bits
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    np.greater(rows[1:] ^ rows[:-1], amask, out=first[1:])
    if extras:
        sel = order[first]
        extras = {name: arr[sel] for name, arr in extras.items()}
    return _Table(rows[first], extras)


def _alive(color: np.ndarray, y: np.ndarray, remaining: int) -> np.ndarray:
    """Can this vertex still reach its color's target incidence given how many
    of its edges are yet to be introduced?  Black needs nothing (its incidence
    never grows), purple and r1 must end at exactly one, green at >= 2.  An
    r0 vertex must end at one too, and it also still needs an excluded edge
    to a black neighbor: at incidence 1 it needs one edge left, at 0 two."""
    need_one = (color == PURPLE) | (color == RED1)
    return (
        (color == BLACK)
        | (need_one & ((y == 1) | (remaining >= 1)))
        | ((color == RED0) & (y <= 1) & (y + remaining >= 2))
        | ((color == GREEN) & (y + remaining >= 2))
    )


# per code: may a vertex with this field be forgotten?
_SATISFIED = (
    ((_COLOR == BLACK) & (_INC == 0))
    | ((_COLOR == GREEN) & (_INC == 2))
    | (((_COLOR == PURPLE) | (_COLOR == RED1)) & (_INC == 1))
)


@dataclass(frozen=True, eq=False)
class _EdgeRules:
    """An introduce-edge node's rules, indexed [branch, code_u * 32 + code_v]
    with the excluded branch 0 and the included branch 1: whether a row with
    those codes survives, and the increments to the fields of u and v (in
    field units, before shifting into place).  It hashes by identity, so a
    cached lookup always comes from the rules object in use."""

    ok: np.ndarray  # (2, 1024) bool
    du: np.ndarray  # (2, 1024) uint64
    dv: np.ndarray  # (2, 1024) uint64


@lru_cache(maxsize=None)
def _edge_rules(rem_u: int, rem_v: int) -> _EdgeRules:
    """Build the rules for an edge uv whose endpoints have rem_u and rem_v
    incident edges left above the node.  _alive only tells 0, 1 and >= 2
    apart, so callers clamp the counts to 2 and there are nine tables."""
    cu, yu = _COLOR[:, None], _INC[:, None]
    cv, yv = _COLOR[None, :], _INC[None, :]

    # excluded branch: drop black-black outright; an r0 endpoint whose
    # partner is black is certified and becomes r1
    up_u = (cu == RED0) & (cv == BLACK)
    up_v = (cv == RED0) & (cu == BLACK)
    ex_ok = (
        ((cu != BLACK) | (cv != BLACK))
        & _alive(cu + up_u, yu, rem_u)
        & _alive(cv + up_v, yv, rem_v)
    )

    # included branch: single-edge-star pair or center-leaf pair; a
    # purple/red endpoint may not exceed incidence one
    red_u = cu >= RED0
    red_v = cv >= RED0
    allowed = (
        ((cu == PURPLE) & (cv == PURPLE))
        | ((cu == GREEN) & red_v)
        | ((cv == GREEN) & red_u)
    )
    allowed &= ~((cu != GREEN) & (yu >= 1)) & ~((cv != GREEN) & (yv >= 1))
    bump_u = yu < 2
    bump_v = yv < 2
    in_ok = allowed & _alive(cu, yu + bump_u, rem_u) & _alive(cv, yv + bump_v, rem_v)

    def stacked(ex: np.ndarray, inc: np.ndarray) -> np.ndarray:
        return np.stack(np.broadcast_arrays(ex, inc)).reshape(2, 1024)

    ok = stacked(ex_ok, in_ok)
    du = np.where(ok, stacked(up_u, bump_u << 3), 0).astype(np.uint64)
    dv = np.where(ok, stacked(up_v, bump_v << 3), 0).astype(np.uint64)
    for a in (ok, du, dv):
        a.flags.writeable = False
    return _EdgeRules(ok, du, dv)


@lru_cache(maxsize=None)
def _live_colors(rem_v: int) -> tuple[int, ...]:
    """The colors an introduced vertex may take with rem_v incident edges
    left above it.  The new field has incidence 0, so its code is its
    color.  Callers clamp rem_v to 2, as for _edge_rules."""
    live = _alive(_COLOR, _INC, rem_v)
    return tuple(c for c in (BLACK, PURPLE, GREEN, RED0) if live[c])


def _introduce(child: _Table, shift: int, rem_v: int, keep: bool) -> _Table:
    # each live color keeps the whole child table
    colors = _live_colors(min(rem_v, 2))
    rows = np.concatenate([child.rows + (np.uint64(c) << shift) for c in colors])
    extras = {}
    if keep:
        extras["back"] = np.tile(
            np.arange(len(child.rows), dtype=np.int32), len(colors)
        )
    return _Table(rows, extras)


class _Lookup(NamedTuple):
    """An introduce-edge node as one lookup over a key read from each child
    row: per outcome, whether a row with that key survives and its
    increment, and whether the outcome includes the edge.  Outcomes run
    excluded branch first, so the candidate rows come out in the order of
    the nice form and dedupe keeps the same rows.  A plain lookup computes
    its increments from the rules and shifts, a folded one keeps them."""

    ok: np.ndarray  # (outcomes, keys) bool
    took: np.ndarray  # (outcomes,) bool
    step: np.ndarray | None = None  # (outcomes, keys) uint64
    rules: _EdgeRules | None = None
    su: int = 0
    sv: int = 0

    def increments(self, key: np.ndarray | None = None) -> np.ndarray:
        """The (outcomes, keys) increments, or those of each key in key."""
        if self.step is not None:
            return self.step if key is None else self.step.take(key, axis=1)
        du, dv = self.rules.du, self.rules.dv
        if key is not None:
            du, dv = du.take(key, axis=1), dv.take(key, axis=1)
        return (du << self.su) + (dv << self.sv) - _ONE_MORE


# one more solution edge also lowers amax - alpha by one; uint64 wraps, and
# the sum with the row is never below 0 because alpha <= n - 1
_ONE_MORE = np.array([[0], [1]], dtype=np.uint64)
_TOOK = np.array([False, True])  # per branch


def _edge_lookup(rules: _EdgeRules, su: int, sv: int) -> _Lookup:
    """The lookup of an edge uv, keyed by code_u * 32 + code_v, with the two
    branches as outcomes.  It builds nothing until applied: no cache."""
    return _Lookup(rules.ok, _TOOK, rules=rules, su=su, sv=sv)


@lru_cache(maxsize=4096)
def _fused_lookup(rules: _EdgeRules, rem_v: int, su: int, sv: int) -> _Lookup:
    """The lookup of an edge uv whose end v is introduced right below it with
    rem_v edges left, clamped: keyed by u's code, outcomes by branch, then by
    v's color."""
    colors = np.array(_live_colors(rem_v), dtype=np.int64)
    pair = _CODES.view(np.int64)[None, :] * 32 + colors[:, None]
    put = colors.astype(np.uint64)[:, None] << sv
    step = (rules.du[:, pair] << su) + (rules.dv[:, pair] << sv) + put
    step -= _ONE_MORE[:, :, None]
    ok = rules.ok[:, pair].reshape(-1, 32)
    return _Lookup(ok, np.repeat(_TOOK, len(colors)), step.reshape(-1, 32))


def _apply(
    child: _Table, key: np.ndarray, lookup: _Lookup, amask: np.uint64, keep: bool
) -> _Table:
    """Every surviving (outcome, child row), outcome-major, plus the
    outcome's increment for the row's key: gathered per survivor in a
    witness run, added to every pair before selection in a decision run."""
    # take keeps the (outcome, row) mask C-ordered, unlike ok[:, key]
    ok = lookup.ok.take(key, axis=1)
    if keep:
        outcome, r = ok.nonzero()
        out = child.rows[r]
        step = lookup.increments()
        out += step.ravel()[outcome * step.shape[1] + key[r]]
        extras = {"back": r.astype(np.int32), "took": lookup.took[outcome]}
        return _dedupe(out, extras, amask)
    out = lookup.increments(key)
    out += child.rows
    return _dedupe(out[ok], {}, amask)


def _forget(child: _Table, shift: int, amask: np.uint64, keep: bool) -> _Table:
    satisfied = _SATISFIED[((child.rows >> shift) & 31).view(np.int64)]
    rows = child.rows[satisfied] & ~(np.uint64(31) << shift)
    extras = {}
    if keep:
        extras["back"] = np.flatnonzero(satisfied).astype(np.int32)
    return _dedupe(rows, extras, amask)


def _join(
    left: _Table,
    right: _Table,
    ones: np.uint64,
    rem0: np.uint64,
    rem1: np.uint64,
    solo: np.uint64,
    amask: np.uint64,
    keep: bool,
) -> _Table:
    """Pair rows whose base colors agree on every shared slot (red flavors
    collapse for matching; the merged flavor is the maximum of the two),
    and keep the pairs that can still be accepted.  Incidences add with
    saturation and alphas add.  ones has the lowest bit of each shared
    slot's field set, and rem0 and rem1 the same bit of the slots whose
    vertex has no edge and one edge left above the join.  solo has every
    bit of the one-sided slots' fields set; a one-sided field is 0 on the
    side without it and is copied from the other.

    A pair is dropped when a purple or red vertex has incidence 1 on both
    sides, a green vertex cannot reach incidence 2 with the edges left, or a
    vertex r0 on both sides has no edge left, or one edge and incidence 0
    (it needs an included edge and an excluded one to a black neighbor).
    A purple or red vertex at a rem0 slot must sum to exactly 1, which the
    key enforces: it holds the left incidence bit and the right complement,
    so only the pairs 1/0 and 0/1 meet.  The keep mask is computed from the
    two sides' fields, and only kept pairs are merged.

    Pairs come out grouped by key ascending, then, in a witness run, by
    left row, then by right row.  Every field is handled at once through
    masks over the bag fields: r1 (4) is the only color with bit 2, so the
    base turns it into r0 (3) by subtracting that bit; purple (1) and red
    (3) are the odd bases; and an incidence sum (at most 4) fits the three
    low bits of a field without carrying into the next one."""
    colors = ones * np.uint64(7)
    tight = rem0 << np.uint64(3)  # the incidence bit of each rem0 field

    def base(rows: np.ndarray) -> np.ndarray:
        c = rows & colors
        return c - ((c >> 2) & ones)

    lbase = base(left.rows)
    rbase = base(right.rows)
    # an odd base shifted by 3 marks a purple or red field's incidence bit
    lkey = lbase | (left.rows & (lbase << 3) & tight)
    rkey = rbase | (~right.rows & (rbase << 3) & tight)
    # only a witness run needs the pairs in a fixed order (see _dedupe)
    kind = "stable" if keep else None
    lorder = lkey.argsort(kind=kind)
    rorder = rkey.argsort(kind=kind)
    rk = rkey[rorder]
    lk = lkey[lorder]
    # each left row meets the run rk[lo:hi] of equal right keys
    lo = np.searchsorted(rk, lk, "left")
    run = np.searchsorted(rk, lk, "right") - lo
    li = np.repeat(lorder, run)
    starts = np.cumsum(run) - run
    ri = rorder[np.arange(len(li)) + np.repeat(lo - starts, run)]

    lr = left.rows[li]
    rr = right.rows[ri]
    b = lbase[li]
    three = ones * np.uint64(3)
    y = ((lr >> 3) & three) + ((rr >> 3) & three)
    # purple or red at incidence 1 on both sides
    drop = b & (lr >> 3) & (rr >> 3) & ones
    # green short of 2 with no edge or one edge left
    green = (b >> 1) & ~b & ones
    at_least_2 = ((y >> 1) | (y >> 2)) & ones
    empty = ~(y | at_least_2)  # incidence sum 0
    drop |= green & ((rem0 & ~at_least_2) | (rem1 & empty))
    # r0 on both sides (base red, neither side r1) with no edge left, or
    # with one edge left and no solution edge yet
    r0 = b & (b >> 1) & ~((lr | rr) >> 2)
    drop |= r0 & (rem0 | (rem1 & empty))
    kept = np.flatnonzero(drop == 0)
    lr, rr, b, y = lr[kept], rr[kept], b[kept], y[kept]

    red1 = ((lr | rr) >> 2) & ones
    over = ((y >> 2) | ((y >> 1) & y)) & ones  # incidence sum above 2
    y = (y & ~(over * np.uint64(7))) | (over << 1)
    # the alphas add: (amax - a_l) + (amax - a_r) - amax, which stays at or
    # above 0 because a kept pair's partial solution is a star forest
    comp = (lr & amask) + (rr & amask) - amask
    merged = (b + red1) | (y << 3) | comp
    if solo:
        merged |= (lr | rr) & solo
    extras = {}
    if keep:
        extras = {"back": li[kept].astype(np.int32), "back2": ri[kept].astype(np.int32)}
    return _dedupe(merged, extras, amask)


# the steps of a plan, one per node of the nice form
_LEAF, _INTRODUCE, _FOLDED, _EDGE, _FORGET, _JOIN = range(6)


def _plan(g: Graph, nd: NiceDecomposition, alpha_bits: int) -> list[tuple]:
    """run_dp's step at each node, from one walk over nd's columns: (_LEAF,
    None), (_INTRODUCE or _FOLDED, c, shift, rem), (_FORGET, c, shift),
    (_JOIN, left, right, ones, rem0, rem1, solo) or (_EDGE, c, a, mask, b,
    lookup) with key (rows >> a) & mask, or'ed with (rows >> b) & 31 when b
    is set; c is the child and rem a clamped count of edges left.  Each bag
    vertex's count of edges left above the node (see _alive) passes from
    child to parent in one dict, updated in place: an introduce sets its
    vertex's degree, as the vertex appears nowhere below; an edge node takes
    one off each endpoint; a forget drops its vertex; a join adds the right
    side's counts less the degree, which both sides started from, to the
    left side's.  A plain edge's key puts the endpoint of the higher slot
    first, so that adjacent fields are read with one shift and mask; the
    rules are symmetric in u and v, so the rows come out the same, and a
    folded lookup takes x as v."""
    shift = [5 * s + alpha_bits for s in assign_slots(nd, g.n)]
    degree = np.bincount(g.edge_array.ravel(), minlength=g.n).tolist()
    capped = [min(d, 2) for d in degree]
    kind, bag, children, vertex = nd.kind, nd.bag, nd.children, nd.vertex
    rems: list[dict[int, int]] = []  # per node: edges left, by bag vertex
    plan: list[tuple] = []
    # _alive tells 0, 1 and 2 or more edges left apart, so the steps take
    # the counts clamped to 2 (written out inline: this loop runs per node)
    for idx, k in enumerate(kind):
        kids = children[idx]
        c = kids[0] if kids else None
        rem = rems[c] if kids else {}
        if k == INTRODUCE_EDGE:
            u, v = nd.edge[idx]
            rem[u] -= 1
            rem[v] -= 1
            folded = kind[c] == INTRODUCE and vertex[c] in (u, v)
            if folded:
                plan[c] = (_FOLDED, *plan[c][1:])
                u, v = (u, v) if vertex[c] == v else (v, u)
            elif shift[u] < shift[v]:
                u, v = v, u
            ru, rv, su, sv = rem[u], rem[v], shift[u], shift[v]
            rules = _edge_rules(ru if ru < 2 else 2, rv if rv < 2 else 2)
            if folded:
                step = (_EDGE, c, su, 31, None, _fused_lookup(rules, capped[v], su, sv))
            elif su - sv == 5:
                step = (_EDGE, c, sv, 1023, None, _edge_lookup(rules, su, sv))
            else:
                step = (_EDGE, c, su - 5, 31 << 5, sv, _edge_lookup(rules, su, sv))
        elif k == FORGET:
            del rem[vertex[idx]]
            step = (_FORGET, c, shift[vertex[idx]])
        elif k == INTRODUCE:
            v = vertex[idx]
            rem[v] = degree[v]
            step = (_INTRODUCE, c, shift[v], capped[v])
        elif k == JOIN:
            # a vertex in both sides' chains stays built on the right
            solo: set[int] = set()
            for c in kids:
                while kind[c] == INTRODUCE:
                    if vertex[c] not in solo:
                        plan[c] = (_FOLDED, *plan[c][1:])
                        solo.add(vertex[c])
                    c = children[c][0]
            # the low bits of the shared slots' fields, by edges left above:
            # 0, 1, 2 or more; then those of the one-sided slots.  _join
            # takes all shared ones, the first two groups, and every bit of
            # the one-sided fields
            other, low = rems[kids[1]], [0, 0, 0, 0]
            for v in bag[idx]:
                rem[v] += other[v] - degree[v]
                low[3 if v in solo else min(rem[v], 2)] |= 1 << shift[v]
            masks = (low[0] | low[1] | low[2], low[0], low[1], low[3] * 31)
            step = (_JOIN, *kids, *map(np.uint64, masks))
        elif k == LEAF:
            step = (_LEAF, None)
        else:
            raise InvalidDecomposition(f"node {idx}: unknown kind {k!r}")
        rems.append(rem)
        plan.append(step)
    return plan


def run_dp(
    g: Graph,
    nd: NiceDecomposition,
    keep_tables: bool = False,
    check: bool = True,
) -> DPResult:
    """Evaluate the decomposition bottom-up and read the answer off the root.

    The answer is the best alpha of the root's empty key (every red leaf
    certified, every vertex satisfied, no black-black edge).  The edgeless
    graph yields 0.  check validates nd first.  A decomposition whose rows do
    not fit 64 bits raises WidthCapExceeded before any table is built.  The
    nodes run the steps of _plan.  A node's rows are freed as soon as its
    parent is built; with keep_tables its back-references are kept for
    extract_witness, which reads nothing else."""
    if check:
        violations = validate_nice(g, nd)
        if violations:
            raise InvalidDecomposition("; ".join(violations[:5]))
    width = nd.width
    alpha_bits = (g.n - 1).bit_length()  # alpha <= n - 1
    if width + 1 > row_bag_limit(g.n):
        raise WidthCapExceeded(
            f"the DP packs a bag of {width + 1} vertices into "
            f"{5 * (width + 1)} bits plus {alpha_bits} alpha bits for n = "
            f"{g.n}, above the 64 of a row"
        )
    amask = np.uint64((1 << alpha_bits) - 1)
    plan = _plan(g, nd, alpha_bits)
    # the empty key with alpha 0
    leaf = _Table(np.full(1, amask), {})

    # a folded introduce's entry is its child's table, which its parent reads
    tables: list[_Table | None] = []
    backrefs: list[dict[str, np.ndarray]] = []
    sizes: list[int] = []
    for step, kids in zip(plan, nd.children):
        op, c = step[0], step[1]
        if op == _EDGE:
            a, mask, b, lookup = step[2:]
            rows = tables[c].rows
            # the fields are below 32, so the int64 view reads them
            # unchanged and indexes without a cast
            key = (rows >> a) & mask
            if b is not None:
                key |= (rows >> b) & 31
            table = _apply(tables[c], key.view(np.int64), lookup, amask, keep_tables)
        elif op == _FORGET:
            table = _forget(tables[c], step[2], amask, keep_tables)
        elif op == _JOIN:
            table = _join(tables[c], tables[step[2]], *step[3:], amask, keep_tables)
        elif op == _INTRODUCE:
            table = _introduce(tables[c], step[2], step[3], keep_tables)
        else:
            table = tables[c] if op == _FOLDED else leaf
        tables.append(table)
        # an introduce stands for one copy of its child per live color
        introduce = op == _INTRODUCE or op == _FOLDED
        sizes.append(sizes[c] * len(_live_colors(step[3])) if introduce else len(table.rows))
        if keep_tables:
            backrefs.append({} if op == _FOLDED else table.extras)
        # every node has one parent, so a child is done once it is built
        for c in kids:
            tables[c] = None

    root = tables[-1].rows
    # no r0 field left means no uncertified red (see the module docstring)
    accept = np.flatnonzero(root <= amask)
    if len(accept) == 0:
        raise UedsError(
            "no accepting state at the root; the decomposition does not "
            "cover the graph"
        )
    row = int(accept[0])
    return DPResult(
        gamma_prime=int(amask - root[row]),
        width=width,
        node_stats=list(zip(range(len(sizes)), nd.kind, sizes)),
        max_table_size=max(sizes),
        backrefs=backrefs if keep_tables else None,
        root_row=row,
    )


def extract_witness(g: Graph, nd: NiceDecomposition, result: DPResult) -> EdgeSet:
    """Walk back-references from the accepting root row, collecting the edges
    taken on included introduce-edge branches.  A folded introduce has no
    back-references: its parent's row indices point into its child already.
    Requires a run with keep_tables=True."""
    if result.backrefs is None:
        raise ValueError("witness extraction needs a run with keep_tables=True")
    kind, children = nd.kind, nd.children
    mask = 0
    stack = [(nd.root, result.root_row)]
    while stack:
        idx, row = stack.pop()
        extras = result.backrefs[idx]
        if kind[idx] == LEAF:
            continue
        if kind[idx] == JOIN:
            stack.append((children[idx][0], int(extras["back"][row])))
            stack.append((children[idx][1], int(extras["back2"][row])))
            continue
        if kind[idx] == INTRODUCE_EDGE and bool(extras["took"][row]):
            mask |= 1 << nd.edge_id[idx]
        if extras:
            row = int(extras["back"][row])
        stack.append((children[idx][0], row))
    return EdgeSet(mask)
