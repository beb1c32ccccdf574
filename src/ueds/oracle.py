"""Ground-truth enumeration of minimal edge dominating sets on small instances.

An edge set M dominates the graph iff it intersects the closed edge
neighborhood N[e] of every edge e, so minimal edge dominating sets are exactly
the minimal hitting sets of the hypergraph {N[e] : e in E} (Eiter & Gottlob,
"Identifying the minimal transversals of a hypergraph", 1995).  The enumerator
branches on the first undominated edge: each member of its neighborhood is
tried in turn, banning the previously tried members for the rest of that
subtree.  Every minimal set is reached along exactly one branch.

The branching is level-synchronous over numpy: the frontier is a pair of
uint64 arrays (chosen edges, banned edges), and one step expands every row at
once.  Each step first computes hits[f], the number of chosen edges in N[f],
for every edge f of every row.  A row is dropped when some chosen edge e has
no private edge, an f in N[e] with hits[f] == 1; this is one AND of N[e] with
the row's mask of such f.  Hit counts only grow along a branch, so no dropped
row has a minimal descendant (the critical-edge test of MMCS: Murakami & Uno,
"Efficient algorithms for dualizing large-scale hypergraphs", 2014).  A
surviving row's branch edge is its first edge with hits[f] == 0, and a row
without one is a leaf: it dominates and each member has a private edge, so
every leaf is a minimal set.  Steps take at most BLOCK_ROWS rows, and the
children of a block are expanded before its siblings, so memory is bounded
by the depth times the block's fan-out, not by the number of leaves.  Masks
are uint64, so m is at most 64 whatever the limit.

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
BLOCK_ROWS = 1 << 13  # frontier rows expanded per step; bounds peak memory


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
    nbr = np.array(g.edge_neighborhood_masks, dtype=np.uint64)
    # Depth-first over blocks: a block's children go on top of the stack, so
    # the stack holds at most one pending run per level, however many leaves
    # the enumeration has.  Per-row tests run over (edge, row) arrays: with
    # the rows innermost, numpy broadcasts and reduces them several times
    # faster than over (row, edge).
    stack = [(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64))]
    found: list[np.ndarray] = []
    while stack:
        mask, banned = stack.pop()
        if len(mask) > BLOCK_ROWS:
            stack.append((mask[BLOCK_ROWS:], banned[BLOCK_ROWS:]))
            mask, banned = mask[:BLOCK_ROWS], banned[:BLOCK_ROWS]
        hits = np.bitwise_count(nbr[:, None] & mask)
        # Keep the rows whose chosen edges all have a private edge.  The
        # private edges of a row form a sum of disjoint bits.  (A float
        # product with the closed-neighborhood matrix gives the same test,
        # but OpenBLAS spends a second core on it for no gain in wall time.)
        private = ((hits == 1) * edge_bit[:, None]).sum(axis=0)
        member = (edge_bit[:, None] & mask) != 0
        keep = ~(member & ((nbr[:, None] & private) == 0)).any(axis=0)
        undominated = hits[:, keep] == 0
        mask, banned = mask[keep], banned[keep]
        inner = undominated.any(axis=0)
        found.append(mask[~inner])  # every leaf left is a minimal set
        if not inner.any():
            continue
        mask, banned = mask[inner], banned[inner]
        # Branch on the first undominated edge: its i-th untried neighbor
        # joins the set and the neighbors tried before it are banned.
        cand = nbr[undominated[:, inner].argmax(axis=0)] & ~banned
        bits, rows = np.nonzero((cand & edge_bit[:, None]) != 0)
        low = edge_bit[bits]
        cand = cand[rows]
        stack.append((mask[rows] | low, banned[rows] | (cand & (low - one))))
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

