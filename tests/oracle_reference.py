"""Reference enumerators for tests, two routes independent of ``ueds.oracle``,
which must list exactly the same masks on every input:

* the one-set-at-a-time branching DFS over Python-int bitmasks, with each
  leaf checked by the pure-Python minimality test; unlike the oracle, it has
  no 64-edge ceiling;
* a full scan over all 2^m subsets, vectorized over numpy, for m up to
  BITFORCE_EDGE_LIMIT.
"""

from __future__ import annotations

import numpy as np

from ueds.errors import InstanceTooLarge
from ueds.graph import Graph, _is_minimal_eds_mask

BITFORCE_EDGE_LIMIT = 22


def minimal_masks_reference(g: Graph) -> list[int]:
    """All minimal-EDS bitmasks, ascending."""
    nbr = g.edge_neighborhood_masks
    m = g.m
    out: list[int] = []

    # Iterative DFS over (chosen, banned) pairs; each minimal hitting set is
    # reached along exactly one branch, so no dedup is needed.  Dominated-ness
    # only grows along a branch, so children resume the scan where the parent
    # stopped.
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        mask, banned, start = stack.pop()
        for e in range(start, m):
            if not nbr[e] & mask:
                cand = nbr[e] & ~banned
                ban = banned
                while cand:
                    low = cand & -cand
                    cand ^= low
                    stack.append((mask | low, ban, e))
                    ban |= low
                break
        else:
            if _is_minimal_eds_mask(g, mask):
                out.append(mask)
    out.sort()
    return out


def bitforce_minimal_masks(g: Graph, limit: int = BITFORCE_EDGE_LIMIT) -> list[int]:
    """Ascending-bitmask scan of every subset of E, vectorized over numpy.

    Independent of the branching enumerator; intended for cross-validation.
    """
    if g.m > limit:
        raise InstanceTooLarge(f"m={g.m} exceeds bitforce limit {limit}")
    m = g.m
    if m == 0:
        return [0]
    dtype = np.uint32 if m <= 32 else np.uint64
    masks = np.arange(1 << m, dtype=dtype)
    nbr = g.edge_neighborhood_masks
    # dominated(e): mask intersects N[e]; private(e): exactly one member in N[e]
    eds = np.ones(masks.shape, dtype=bool)
    private = []
    for e in range(m):
        hits = np.bitwise_count(masks & dtype(nbr[e]))
        eds &= hits > 0
        private.append(hits == 1)
    minimal = eds.copy()
    for e in range(m):
        has_private = np.zeros(masks.shape, dtype=bool)
        cand = nbr[e]
        while cand:
            low = cand & -cand
            cand ^= low
            has_private |= private[low.bit_length() - 1]
        member = (masks >> dtype(e) & dtype(1)).astype(bool)
        minimal &= ~member | has_private
    return [int(x) for x in np.nonzero(minimal)[0]]
