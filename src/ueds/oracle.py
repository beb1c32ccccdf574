"""Ground-truth enumeration of minimal edge dominating sets on small instances.

An edge set M dominates the graph iff it intersects the closed edge
neighborhood N[e] of every edge e, so minimal edge dominating sets are exactly
the minimal hitting sets of the hypergraph {N[e] : e in E} (Eiter & Gottlob,
"Identifying the minimal transversals of a hypergraph", 1995).  The enumerator
branches on the first undominated edge: each member of its neighborhood is
tried in turn, banning the previously tried members for the rest of that
subtree.  Every minimal set is reached along exactly one branch.

The branching is level-synchronous over numpy: a frontier row is four uint64
words, and one step expands every row at once.  The words are the chosen
edges (mask), the banned edges, the edges that some chosen edge dominates
(dom: each f with a chosen edge in N[f]) and the edges that two or more
chosen edges dominate (twice).  A child that adds edge x sets twice |= dom &
N[x], then dom |= N[x], so no step recounts them.  The private edges of a
row are dom & ~twice, and a chosen edge e is critical when N[e] meets them.
A row is dropped when some chosen edge is not critical; this is one AND of
N[e] with the private edges, for every edge e of every row.  Domination only
grows along a branch, so no dropped row has a minimal descendant (the
critical-edge test of MMCS: Murakami & Uno, "Efficient algorithms for
dualizing large-scale hypergraphs", 2014, who keep uncov and crit along the
branch in the same way).  A surviving row's branch edge is the lowest clear
bit of dom, and a row without one is a leaf: it dominates and each member has
a private edge, so every leaf is a minimal set.  Steps take at most
BLOCK_ROWS rows, and the children of a block are expanded before its
siblings, so memory is bounded by the depth times the block's fan-out, not
by the number of leaves.  Masks are uint64, so m is at most 64 whatever the
limit.

The test suite checks the enumerator against two independent routes in
``tests/oracle_reference.py``: the pure-Python branching search it replaced,
and a vectorized scan over all 2^m subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InstanceTooLarge
from .graph import EdgeSet, Graph

__all__ = [
    "DEFAULT_EDGE_LIMIT",
    "OracleResult",
    "enumerate_minimal_eds",
    "fits",
    "upper_eds_exact",
]

DEFAULT_EDGE_LIMIT = 22
MASK_BITS = 64  # edge sets are uint64 masks, whatever the limit
# Frontier rows expanded per step; bounds peak memory.  A row carries 32
# bytes, and a step's (edge, row) temporaries peak near 9·m bytes per row.
BLOCK_ROWS = 1 << 13


@dataclass(frozen=True)
class OracleResult:
    """Exact answer for one instance.

    gamma_prime: maximum size of a minimal edge dominating set.
    witness: a minimal EDS attaining it (lexicographically smallest bitmask
        among the maximum-size ones, for reproducibility).
    count_minimal: how many minimal edge dominating sets exist.
    """

    gamma_prime: int
    witness: EdgeSet
    count_minimal: int


def fits(m: int, limit: int = DEFAULT_EDGE_LIMIT) -> bool:
    """Whether the oracle takes m edges: m <= limit and m <= MASK_BITS."""
    return m <= min(limit, MASK_BITS)


def _minimal_masks(g: Graph, limit: int) -> np.ndarray:
    """All minimal-EDS bitmasks as an ascending uint64 array.  The one place
    that raises InstanceTooLarge: at once, unless fits(m, limit)."""
    m = g.m
    if not fits(m, limit):
        raise InstanceTooLarge(
            f"m={m} exceeds enumeration limit {limit}" if m > limit
            else f"m={m} exceeds the {MASK_BITS}-bit enumeration masks"
        )
    one = np.uint64(1)
    edge_bit = one << np.arange(m, dtype=np.uint64)
    full = edge_bit.sum()
    nbr = np.array(g.edge_neighborhood_masks, dtype=np.uint64)
    # Depth-first over blocks: a block's children go on top of the stack, so
    # the stack holds at most one pending run per level, however many leaves
    # the enumeration has.  A frontier is four arrays: mask, banned, dom and
    # twice.
    zero = np.zeros(1, dtype=np.uint64)
    stack = [(zero, zero, zero, zero)]
    found: list[np.ndarray] = []
    while stack:
        frontier = stack.pop()
        if len(frontier[0]) > BLOCK_ROWS:
            stack.append(tuple(a[BLOCK_ROWS:] for a in frontier))
            frontier = tuple(a[:BLOCK_ROWS] for a in frontier)
        mask, banned, dom, twice = frontier
        # Keep the rows whose chosen edges are all critical.  The test runs
        # over (edge, row) arrays: with the rows innermost, numpy broadcasts
        # and reduces them several times faster than over (row, edge).  The
        # critical edges of a row form a sum of disjoint bits.  (A float
        # product with the closed-neighborhood matrix gives the same test,
        # but OpenBLAS spends a second core on it for no gain in wall time.)
        private = dom & ~twice
        crit = (((nbr[:, None] & private) != 0) * edge_bit[:, None]).sum(axis=0)
        keep = (mask & ~crit) == 0
        undom = ~dom & full
        found.append(mask[keep & (undom == 0)])  # every leaf left is a minimal set
        inner = np.flatnonzero(keep & (undom != 0))
        if not len(inner):
            continue
        mask, banned, dom, twice, undom = (
            a[inner] for a in (mask, banned, dom, twice, undom)
        )
        # Branch on the first undominated edge: its i-th untried neighbor
        # joins the set and the neighbors tried before it are banned.
        first = np.bitwise_count((undom & -undom) - one)
        cand = nbr[first] & ~banned
        bits, rows = np.nonzero((cand & edge_bit[:, None]) != 0)
        low = edge_bit[bits]
        add = nbr[bits]
        # Update the gathered children in place: a temporary per word would
        # raise the step's peak memory.
        mask, banned, dom, twice, cand = (
            a[rows] for a in (mask, banned, dom, twice, cand)
        )
        mask |= low
        low -= one
        cand &= low
        banned |= cand
        twice |= dom & add
        dom |= add
        stack.append((mask, banned, dom, twice))
    return np.sort(np.concatenate(found))


def enumerate_minimal_eds(g: Graph, limit: int = DEFAULT_EDGE_LIMIT) -> Iterator[EdgeSet]:
    """Yield every minimal edge dominating set of g exactly once, in ascending
    bitmask order.  Raises InstanceTooLarge unless fits(m, limit), at the
    call and not at the first next()."""
    return (EdgeSet(mask) for mask in _minimal_masks(g, limit).tolist())


def upper_eds_exact(g: Graph, limit: int = DEFAULT_EDGE_LIMIT) -> OracleResult:
    """Exact upper edge domination number with a witness.

    The edgeless graph has gamma_prime 0 witnessed by the empty set.
    """
    masks = _minimal_masks(g, limit)
    sizes = np.bitwise_count(masks)
    best = int(sizes.argmax())  # the first maximum: masks ascend
    return OracleResult(
        gamma_prime=int(sizes[best]),
        witness=EdgeSet(int(masks[best])),
        count_minimal=len(masks),
    )

