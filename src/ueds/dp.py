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
increment.  Each candidate (outcome, child row) takes its increment with
one gather from the node's (outcomes, keys) table of increments and adds
the child row; the surviving candidates are selected by mask,
outcome-major with the excluded branch first, and deduped.  A plain edge
node uv is the two-outcome case: its keys are the 1,024 code pairs
code_u * 32 + code_v, its outcomes the two branches, and it builds its
2 x 1,024 increments from the rules and the two shifts each time it runs,
so a plan kept for the witness holds none.

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

Either way the parent reads the introduce's child table, and node_stats
still reports the nice-form table the introduce stands for.
The plan (_plan) finds these folds in its one walk over the nice form's
columns, which also derives each node's shifts, lookup and join masks.

Pruning.  Black-black edges, forgets of an uncertified red and a purple or
red incidence above one are discarded.  On top of that, a state is dropped
when a bag vertex can no longer reach its target with the edges still to be
introduced above the current node.  An r0 vertex needs one more edge than
its incidence target: its certificate is an excluded edge to a black
neighbor.  The lookups fold this check in, so a dead row is never gathered.
A join prunes the same way before it merges a pair: it drops a pair in
which a purple or red vertex has one solution edge on each side, a green
vertex is short of two with the edges left above the join, or a vertex r0
on both sides has too few edges left to be certified.  These tests run
once per row, not once per pair: each row gets a signature word, a pair is
dropped exactly when its two rows' signatures share a bit (_signatures),
and only kept pairs are gathered and merged.
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
which is the one of largest alpha.  Rows equal in full are interchangeable,
so the sort need not be stable, and no node records which child row
produced which of its rows.

Witness.  With keep_tables, run_dp keeps for each node the rows its parent
reads, wherever the walk cannot derive them, and nothing else; nothing is
rebuilt.  A join's two children keep the tables the join read: a folded
introduce its child's table, a built one its color blocks in child order,
which are not sorted.  The walk pairs those whole and never probes them.
Every other kept table is a built one, sorted and unique.  Elsewhere an
introduce keeps none, because a row's place in it follows from its child:
the block of v's color, then the child's order.  A forget keeps none unless
its child's rows are a forget's too, because a row is in it exactly when
the row has the best alpha of the child rows with its fields and one of the
four satisfied codes in v's field (_best).  A forget over a forget keeps its
rows, so that a probe costs at most four lookups, not four per forget of a
chain.  The root's rows are always kept.  extract_witness walks down the
plan from the accepting root row and at each node picks the row's first
producer: of the child rows (or pairs) that the node turns into exactly
this row, alpha included, the one it emits first.  An edge node emits by
outcome, then child row; a forget in child order; a join by key, then left
row, then right row.  It finds the producer by probing the child's rows
with the row's few preimages:

- an edge node: each rules object tabulates once, per branch, the at most
  two keys that map to each output code pair (_preimages): a certified r1
  came from r0 or r1, an incidence of 2 from 1 or 2.  A folded lookup's
  outcome (branch, color of v) takes the keys whose v code is that color;
- a forget: the row with each of the four satisfied codes in v's field;
- a join: only rows whose base colors match the row's can meet in it, so
  the walk pairs and merges just those with _pairs, the code _join runs.

This is the first producer that a stable sort over the emitted rows would
pick, so witnesses are deterministic.  Recovering the answer from values
instead of stored pointers is the idea of Hirschberg, "A linear space
algorithm for computing maximal common subsequences" (CACM 18, 1975).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

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
    With keep_tables, rows holds for each node the rows its parent reads:
    the table a join read for each of its children, and otherwise None for
    an introduce and for a forget whose child's rows are not a forget's.
    plan holds the steps run_dp took, and root_row the index of the
    accepting root row, which the witness walk starts from."""

    gamma_prime: int
    width: int
    node_stats: list[tuple[int, str, int]]  # (node index, kind, table size)
    max_table_size: int
    rows: list[np.ndarray | None] | None = field(default=None, repr=False)
    plan: list[tuple] | None = field(default=None, repr=False)
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


def _dedupe(rows: np.ndarray, amask: np.uint64) -> np.ndarray:
    """Keep the maximum-alpha row per key, sorting rows in place.  A node's
    table is one such array, unique by fields and ascending; an introduce
    keeps its child's order per color block instead."""
    rows.sort()
    # a row starts a new key where it differs from its predecessor above
    # the alpha bits
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    np.greater(rows[1:] ^ rows[:-1], amask, out=first[1:])
    return rows[first]


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
_SATISFIED_CODES = tuple(np.flatnonzero(_SATISFIED).tolist())


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


def _introduce(child: np.ndarray, shift: int, rem_v: int) -> np.ndarray:
    # each live color keeps the whole child table
    colors = _live_colors(min(rem_v, 2))
    return np.concatenate([child + (np.uint64(c) << shift) for c in colors])


class _Lookup(NamedTuple):
    """An introduce-edge node as one lookup over a key read from each child
    row: per outcome, whether a row with that key survives and its
    increment, and whether the outcome includes the edge.  Outcomes run
    excluded branch first, so the candidate rows come out in the order of
    the nice form and dedupe keeps the same rows.  A folded lookup caches
    its increments; a plain one builds them from its rules and shifts each
    time it is applied, so no plan keeps them.  The witness walk reads the
    rules and shifts of both."""

    ok: np.ndarray  # (outcomes, keys) bool
    took: np.ndarray  # (outcomes,) bool
    step: np.ndarray | None = None  # (outcomes, keys) uint64
    rules: _EdgeRules | None = None
    su: int = 0
    sv: int = 0

    def increments(self) -> np.ndarray:
        """The (outcomes, keys) increments."""
        if self.step is not None:
            return self.step
        return (self.rules.du << self.su) + (self.rules.dv << self.sv) - _ONE_MORE


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
    took = np.repeat(_TOOK, len(colors))
    return _Lookup(ok, took, step.reshape(-1, 32), rules, su, sv)


def _apply(
    child: np.ndarray, key: np.ndarray, lookup: _Lookup, amask: np.uint64
) -> np.ndarray:
    """Every surviving (outcome, child row), outcome-major, plus the
    outcome's increment for the row's key: one gather from the node's
    (outcomes, keys) increments per candidate, added to the child rows,
    then the survivors selected by mask."""
    # take keeps the (outcome, row) arrays C-ordered, unlike step[:, key]
    out = lookup.increments().take(key, axis=1)
    out += child
    # rebinding frees the candidates before dedupe sorts the survivors
    out = out[lookup.ok.take(key, axis=1)]
    return _dedupe(out, amask)


def _forget(child: np.ndarray, shift: int, amask: np.uint64) -> np.ndarray:
    satisfied = _SATISFIED[((child >> shift) & 31).view(np.int64)]
    return _dedupe(child[satisfied] & ~(np.uint64(31) << shift), amask)


def _base(rows: np.ndarray, ones: np.uint64) -> np.ndarray:
    """Each shared field's base color, red flavors collapsed: r1 (4) is the
    only color with bit 2, so subtracting that bit turns it into r0 (3)."""
    c = rows & (ones * np.uint64(7))
    return c - ((c >> 2) & ones)


def _key(rows: np.ndarray, base: np.ndarray, rem0: np.uint64) -> np.ndarray:
    """The join key: the base colors, plus the incidence bit of each purple
    or red field at a rem0 slot (an odd base shifted by 3 marks it).  The
    left side passes its rows, the right side their complement."""
    return base | (rows & (base << 3) & (rem0 << 3))


def _join(
    left: np.ndarray,
    right: np.ndarray,
    ones: np.uint64,
    rem0: np.uint64,
    rem1: np.uint64,
    solo: np.uint64,
    amask: np.uint64,
) -> np.ndarray:
    """The merged rows of _pairs, deduped."""
    return _dedupe(_pairs(left, right, ones, rem0, rem1, solo, amask)[0], amask)


def _pairs(
    left: np.ndarray,
    right: np.ndarray,
    ones: np.uint64,
    rem0: np.uint64,
    rem1: np.uint64,
    solo: np.uint64,
    amask: np.uint64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    so only the pairs 1/0 and 0/1 meet.  The drop tests run once per row
    (_signatures), and only kept pairs are gathered and merged.

    Returns the merged rows, unsorted, and where they came from: merged
    row j meets left row li[j] and right row ri[j].  Pairs come out grouped
    by key ascending; within a key the order is arbitrary.  Every field is
    handled at once through masks over the bag fields: purple (1) and red
    (3) are the odd bases, and an incidence sum (at most 4) fits the three
    low bits of a field without carrying into the next one."""
    nl = len(left)
    rows = np.concatenate((left, right))
    base = _base(rows, ones)
    sig = _signatures(rows, nl, ones, rem0, rem1)
    lbase, rbase, lsig, rsig = base[:nl], base[nl:], sig[:nl], sig[nl:]
    lkey = _key(left, lbase, rem0)
    rkey = _key(~right, rbase, rem0)
    lorder = lkey.argsort()
    rorder = rkey.argsort()
    lk = lkey[lorder]
    rk = rkey[rorder]
    # each left row meets the run rk[lo:hi] of equal right keys
    lo = np.searchsorted(rk, lk, "left")
    run = np.searchsorted(rk, lk, "right") - lo
    li = np.repeat(lorder, run)
    starts = np.cumsum(run) - run
    ri = rorder[np.arange(len(li)) + np.repeat(lo - starts, run)]
    kept = np.flatnonzero((lsig[li] & rsig[ri]) == 0)
    li, ri = li[kept], ri[kept]

    lr = left[li]
    rr = right[ri]
    b = lbase[li]
    three = ones * np.uint64(3)
    y = ((lr >> 3) & three) + ((rr >> 3) & three)
    red1 = ((lr | rr) >> 2) & ones
    over = ((y >> 2) | ((y >> 1) & y)) & ones  # incidence sum above 2
    y = (y & ~(over * np.uint64(7))) | (over << 1)
    # the alphas add: (amax - a_l) + (amax - a_r) - amax, which stays at or
    # above 0 because a kept pair's partial solution is a star forest
    comp = (lr & amask) + (rr & amask) - amask
    merged = (b + red1) | (y << 3) | comp
    if solo:
        merged |= (lr | rr) & solo
    return merged, li, ri


def _signatures(
    rows: np.ndarray, nl: int, ones: np.uint64, rem0: np.uint64, rem1: np.uint64
) -> np.ndarray:
    """Each row's drop signature, the left side's nl rows first: _pairs
    drops a pair exactly when its two rows' signatures share a bit.  In
    each shared slot's field, bit 0 marks purple or red at incidence 1, so
    that 1 + 1 meets.  Bits 1 and 2 mark green and r0, the colors with bit 1
    set (r1 has it clear): a vertex green, or r0 on both sides, must reach
    incidence 2 with the edges left, as in _alive.  At a rem1 slot bit 1
    marks incidence 0 on both sides, so 0 + 0 meets.  At a rem0 slot the
    sums 0 + 0, 0 + 1 and 1 + 0 are the pairs of {0} x {0, 1} (bit 1: left
    at 0, right below 2) and of {0, 1} x {0} (bit 2: left below 2, right at
    0); r0 + r0 at 1 + 1 meets in bit 0.  Without a rem0 or rem1 slot only
    bit 0 is built."""
    y = rows >> 3  # the incidence bits at bits 0 and 1 of each field
    sig = (rows | rows >> 2) & y & ones  # purple, r0 and r1 have bit 0 or 2
    tight = rem0 | rem1
    if not tight:
        return sig
    # green or r0 below incidence 2, then at incidence 0, each copied to
    # bits 1 and 2 (x 6) for the masks to pick from
    low = (rows >> 1) & ~(y >> 1) & tight
    zero = (low & ~y) * np.uint64(6)
    low *= np.uint64(6)
    sig[:nl] |= zero[:nl] & tight << 1 | low[:nl] & rem0 << 2
    sig[nl:] |= zero[nl:] & (rem1 << 1 | rem0 << 2) | low[nl:] & rem0 << 1
    return sig


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
    first, so that keys ascend as the child rows do (_edge_producer); the
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
    parent is built; with keep_tables the tables the module docstring names
    under Witness are kept for extract_witness, which reads them and the
    plan."""
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
    leaf = np.full(1, amask)

    # a folded introduce's entry is its child's table, which its parent reads
    tables: list[np.ndarray | None] = []
    kept: list[np.ndarray | None] = []
    made_by: list[int] = []  # the op that built the rows a node's parent reads
    sizes: list[int] = []
    for step, kids in zip(plan, nd.children):
        op, c = step[0], step[1]
        if op == _EDGE:
            a, mask, b, lookup = step[2:]
            rows = tables[c]
            # the fields are below 32, so the int64 view reads them
            # unchanged and indexes without a cast
            key = (rows >> a) & mask
            if b is not None:
                key |= (rows >> b) & 31
            table = _apply(rows, key.view(np.int64), lookup, amask)
        elif op == _FORGET:
            table = _forget(tables[c], step[2], amask)
        elif op == _JOIN:
            table = _join(tables[c], tables[step[2]], *step[3:], amask)
        elif op == _INTRODUCE:
            table = _introduce(tables[c], step[2], step[3])
        else:
            table = tables[c] if op == _FOLDED else leaf
        tables.append(table)
        # an introduce stands for one copy of its child per live color
        introduce = op == _INTRODUCE or op == _FOLDED
        sizes.append(sizes[c] * len(_live_colors(step[3])) if introduce else len(table))
        made_by.append(made_by[c] if introduce else op)
        if keep_tables:
            derived = introduce or op == _FORGET and made_by[c] != _FORGET
            kept.append(None if derived else table)
            if op == _JOIN:
                kept[c], kept[step[2]] = tables[c], tables[step[2]]
        # every node has one parent, so a child is done once it is built
        for c in kids:
            tables[c] = None

    root = tables[-1]
    if keep_tables:
        kept[-1] = root  # the walk starts from the root's rows
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
        rows=kept if keep_tables else None,
        plan=plan if keep_tables else None,
        root_row=row,
    )


@lru_cache(maxsize=None)
def _preimages(rules: _EdgeRules) -> tuple[list[list[int]], list[list[int]]]:
    """Per branch, for each output code pair code_u * 32 + code_v, the keys
    that the branch keeps and maps to it, ascending.  There are at most two:
    only an r0 turned r1 and an incidence saturated at 2 have two sources."""
    keys = np.arange(1024)
    out = ((keys >> 5) + rules.du.astype(np.int64)) << 5
    out = (out | (keys & 31) + rules.dv.astype(np.int64)).tolist()
    pre: tuple[list[list[int]], list[list[int]]] = ([], [])
    for branch, found in enumerate(pre):
        found.extend([] for _ in range(1024))
        for k in np.flatnonzero(rules.ok[branch]).tolist():
            found[out[branch][k]].append(k)
    return pre


def _edge_producer(
    row: int,
    lookup: _Lookup,
    colors: tuple[int, ...] | None,
    amask: int,
    present: Callable[[int], bool],
) -> tuple[int, int]:
    """The first (outcome, child row) that _apply emits and turns into row.
    colors are the live colors of a folded introduce's vertex v, None for a
    plain edge; present tells whether a row is in the child's table.  The
    outcomes run in _apply's order, by branch, then by v's color, and the
    first with a producer wins.  Its preimages differ only in the fields of
    u and v, which no introduce between the node and the child's sorted
    rows writes, so the child holds them in ascending order, and the
    lowest present one is the first."""
    su, sv = int(lookup.su), int(lookup.sv)
    pre = _preimages(lookup.rules)
    pair = (row >> su & 31) << 5 | row >> sv & 31
    rest = row & ~(31 << su | 31 << sv)
    outcomes = [(0, None), (1, None)] if colors is None else [
        (branch, c) for branch in (0, 1) for c in colors
    ]
    for outcome, (branch, color) in enumerate(outcomes):
        # an included edge raised alpha by one, so the row's alpha is not 0
        if branch and row & amask == amask:
            break
        # u holds the higher slot of a plain edge, so the keys ascend as
        # the child rows do; the child's amax - alpha is one above the row's
        for k in pre[branch][pair]:
            if color is None:
                child = (rest | (k >> 5) << su | (k & 31) << sv) + branch
            elif k & 31 == color:
                child = (rest | (k >> 5) << su) + branch
            else:
                continue
            if present(child):
                return outcome, child
    raise UedsError("a kept row has no producer in its child table")


def _forget_producer(row: int, shift: int, present: Callable[[int], bool]) -> int:
    """The first child row that _forget turns into row: row with the lowest
    satisfied code in the forgotten field that the child holds (the child
    holds these rows in ascending order, as for _edge_producer)."""
    for code in _SATISFIED_CODES:
        child = row | code << shift
        if present(child):
            return child
    raise UedsError("a kept row has no producer in its child table")


def _join_producer(
    row: int,
    left: np.ndarray,
    right: np.ndarray,
    ones: np.uint64,
    rem0: np.uint64,
    rem1: np.uint64,
    solo: np.uint64,
    amask: np.uint64,
) -> tuple[int, int]:
    """The first pair (left position, right position) that _join emits and
    merges into row: by key, then left row, then right row.  Only rows whose
    base colors are row's can meet in it, so _pairs runs on just those."""
    want = _base(np.uint64(row), ones)
    li = np.flatnonzero(_base(left, ones) == want)
    ri = np.flatnonzero(_base(right, ones) == want)
    merged, pl, pr = _pairs(left[li], right[ri], ones, rem0, rem1, solo, amask)
    hit = merged == np.uint64(row)
    lpos, rpos = li[pl[hit]], ri[pr[hit]]
    if len(lpos) == 0:
        raise UedsError("a kept row has no producer in its child tables")
    first = np.lexsort((rpos, lpos, _key(left[lpos], want, rem0)))[0]
    return int(lpos[first]), int(rpos[first])


def _best(plan: list[tuple], kept: list, amask: int, c: int, fields: int) -> int | None:
    """amax - alpha of the row with these fields in the table that node c's
    parent reads, or None when it has none.  An introduce keeps no rows
    unless a join reads them, which no probe does, so the probe looks
    through it to its child; a forget that keeps none takes the best of its
    child's rows with one of the satisfied codes in the forgotten field, as
    its dedupe did."""
    while kept[c] is None:
        op, child, shift = plan[c][:3]
        if op == _FORGET:
            found = [
                _best(plan, kept, amask, child, fields | code << shift)
                for code in _SATISFIED_CODES
            ]
            return min((f for f in found if f is not None), default=None)
        if op == _INTRODUCE:
            if fields >> shift & 31 not in _live_colors(plan[c][3]):
                return None
            fields &= ~(31 << shift)
        c = child
    table = kept[c]
    at = bisect_left(table, fields)
    if at < len(table):
        found = int(table[at])
        if found ^ fields <= amask:
            return found & amask
    return None


def _present(plan: list[tuple], kept: list, amask: int, c: int, row: int) -> bool:
    """Is row, alpha included, in the table that node c's parent reads?"""
    return _best(plan, kept, amask, c, row & ~amask) == row & amask


def extract_witness(g: Graph, nd: NiceDecomposition, result: DPResult) -> EdgeSet:
    """Walk down the plan from the accepting root row, picking at each node
    the row's first producer (see the module docstring), and collect the
    edges of included introduce-edge outcomes.  A join pairs the two tables
    it read, which its children keep; every other node probes kept rows.
    A folded introduce hands its row down unchanged, as its parent read its
    child's table; a built one clears its vertex's field.  Requires a run
    with keep_tables=True."""
    if result.rows is None or result.plan is None:
        raise ValueError("witness extraction needs a run with keep_tables=True")
    plan, kept = result.plan, result.rows
    amask = (1 << (g.n - 1).bit_length()) - 1
    mask = 0
    stack = [(len(plan) - 1, int(kept[-1][result.root_row]))]
    while stack:
        idx, row = stack.pop()
        step = plan[idx]
        op, c = step[:2]
        if op == _EDGE:
            lookup = step[5]
            folded = plan[c][0] == _FOLDED
            colors = _live_colors(plan[c][3]) if folded else None
            present = partial(_present, plan, kept, amask, c)
            outcome, row = _edge_producer(row, lookup, colors, amask, present)
            if lookup.took[outcome]:
                mask |= 1 << nd.edge_id[idx]
        elif op == _FORGET:
            present = partial(_present, plan, kept, amask, c)
            row = _forget_producer(row, step[2], present)
        elif op == _JOIN:
            left, right = kept[c], kept[step[2]]
            lpos, rpos = _join_producer(row, left, right, *step[3:], np.uint64(amask))
            stack.append((step[2], int(right[rpos])))
            row = int(left[lpos])
        elif op == _INTRODUCE:
            row &= ~(31 << step[2])
        elif op == _LEAF:
            continue
        stack.append((c, row))
    return EdgeSet(mask)
