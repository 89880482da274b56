"""Backtracking search for a vertex permutation of Delta_m that swaps the
red and blue subgraphs while preserving non-edges.

The search pins phi[0] = 0 (any colour-swapping permutation can be
translated to one fixing vertex 0 without changing pair differences, so
the pin loses no generality).  A candidate image for vertex a must
satisfy kappa[phi[a] ^ phi[b]] = -kappa[a ^ b] against every assigned b;
candidates are drawn in ascending order, which makes every run fully
deterministic.

Per-vertex constraint sets are precomputed as bitmasks, and one
explicit-stack engine (`_walk`) keeps them up to date with one big-int
AND per constraint added.  In natural vertex order a frame caches the
AND of what the earlier vertices impose on the next one, so a candidate
costs one AND to filter the next vertex's images.  In min-domain order
("mcv") a frame carries the domains of every unassigned vertex, each
narrowed by one AND per assignment, and branches on the first vertex
with the fewest candidates.  The accepted candidates and their order
are identical to the plain pairwise check.

`search_swap` runs the engine once, in one process; the node and time
budgets bound that one walk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graphs import build_delta

_SEARCH_ALL_MAX_M = 2
_DEADLINE_STRIDE = 1024  # nodes between wall-clock checks


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SwapMap:
    """A vertex permutation of Delta_m, phi[a] = image of vertex a."""

    m: int
    phi: tuple[int, ...]

    def __post_init__(self):
        v = 1 << (2 * self.m)
        if len(self.phi) != v or sorted(self.phi) != list(range(v)):
            raise ValueError(f"phi is not a permutation of 0..{v - 1}")


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    witness: SwapMap | None
    nodes: int
    max_depth: int
    elapsed: float


@lru_cache(maxsize=None)
def _tables(m: int):
    """kappa of Delta_m plus, per colour, the image-constraint bitmasks.

    masks[t + 1][y] packs every x != y with kappa[x ^ y] = t, so the
    image of a new vertex constrained against an assigned image y is one
    AND away, and that AND also rules out y itself.
    """
    kappa = build_delta(m).kappa
    v = len(kappa)
    idx = np.arange(v)
    diff = np.array(kappa, dtype=np.int8)[np.bitwise_xor.outer(idx, idx)]
    masks = []
    for t in (-1, 0, 1):
        rows = diff == t
        if t == 0:
            rows[idx, idx] = False
        packed = np.packbits(rows, axis=1, bitorder="little")
        masks.append([int.from_bytes(row.tobytes(), "little") for row in packed])
    return kappa, masks


def verify_swap(swap: SwapMap) -> bool:
    """Exhaustive pair check: every red edge must land on a blue one and
    vice versa, and non-edges must stay non-edges.

    All ordered pairs at once: the check is symmetric in a and b, and
    kappa[0] = 0 makes it hold on the diagonal."""
    kappa = np.array(_tables(swap.m)[0])
    phi = np.array(swap.phi)
    vertices = np.arange(phi.size)
    images = kappa[np.bitwise_xor.outer(phi, phi)]
    return bool((images == -kappa[np.bitwise_xor.outer(vertices, vertices)]).all())


def normalize(swap: SwapMap) -> SwapMap:
    """Translate a verified swap so that vertex 0 is fixed.

    XOR by phi[0] preserves every pair difference, so the result still
    verifies.
    """
    if not verify_swap(swap):
        raise ValueError("map does not swap the colours")
    t = swap.phi[0]
    return SwapMap(swap.m, tuple(p ^ t for p in swap.phi))


def _min_domain_frame(verts, doms):
    """Frame branching on the first of `verts` with the fewest candidates,
    or None when some domain is empty."""
    sizes = [d.bit_count() for d in doms]
    k = min(sizes)
    if not k:
        return None
    i = sizes.index(k)
    return [verts[i], doms[i], (verts[:i] + verts[i + 1 :], doms[:i] + doms[i + 1 :])]


def _walk(m, order, sign, visit, node_budget=None, deadline=None):
    """Depth-first walk over the assignments with phi[0] = 0.

    One explicit stack of frames [vertex, candidates left, state]; a node
    is counted when a candidate is assigned, and the pinned vertex 0 is
    the first node.  sign = -1 asks for kappa[phi[a] ^ phi[b]] =
    -kappa[a ^ b] (swaps), sign = +1 for equality (colour-preserving
    automorphisms).  Both orders start every vertex's domain from doms,
    its constraints under vertex 0.  order "natural" branches on vertices
    0, 1, 2, ... and a frame's state is the AND of the constraints that
    the vertices before it put on the vertex after it.  order "mcv"
    branches on the first unassigned vertex of smallest domain, and a
    frame's state is the domains of the other unassigned vertices,
    narrowed by one AND per assignment.

    visit(phi) is called at each complete assignment; the walk stops
    with FOUND when it returns true.  Returns (status, nodes, max_depth):
    INCONCLUSIVE when a budget trips, EXHAUSTED when the tree runs out.
    """
    kappa, masks = _tables(m)
    v = len(kappa)
    # cons[a ^ b][phi[b]] = the images vertex a may take given phi[b]
    cons = [masks[1 + sign * k] for k in kappa]
    phi = [0] + [None] * (v - 1)
    verts = list(range(1, v))
    doms = [cons[a][0] for a in verts]  # doms[a - 1]: vertex a's domain
    nodes = max_depth = 1
    mcv = order == "mcv"
    if mcv:
        root = _min_domain_frame(verts, doms)
    else:
        root = [1, doms[0], doms[1]]  # v >= 4
    stack = [root] if root else []
    while stack:
        frame = stack[-1]
        cand = frame[1]
        if not cand:
            stack.pop()
            continue
        bit = cand & -cand
        frame[1] = cand ^ bit
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return SearchStatus.INCONCLUSIVE, nodes, max_depth
        if deadline is not None and nodes % _DEADLINE_STRIDE == 0:
            if time.monotonic() > deadline:
                return SearchStatus.INCONCLUSIVE, nodes, max_depth
        depth = 1 + len(stack)
        if depth > max_depth:
            max_depth = depth
        x = frame[0]
        c = bit.bit_length() - 1
        phi[x] = c
        if depth == v:
            if visit(tuple(phi)):
                return SearchStatus.FOUND, nodes, max_depth
        elif mcv:
            rest, rest_doms = frame[2]
            child = _min_domain_frame(
                rest, [d & cons[a ^ x][c] for a, d in zip(rest, rest_doms)]
            )
            if child:
                stack.append(child)
        else:
            y = x + 1
            nxt = frame[2] & cons[y ^ x][c]
            if nxt:
                z = y + 1
                pre = 0  # the last vertex has no successor
                if z < v:
                    pre = doms[y]
                    for b in range(1, y):
                        pre &= cons[z ^ b][phi[b]]
                        if not pre:
                            break
                stack.append([y, nxt, pre])
    return SearchStatus.EXHAUSTED, nodes, max_depth


def search_swap(
    m: int,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    order: str = "natural",
) -> SearchOutcome:
    """Find a colour-swapping permutation of Delta_m or exhaust the tree.

    One depth-first walk below the pinned vertex 0, in natural or
    min-domain order; the witness, node count and max depth are
    deterministic.  Exceeding either budget yields status INCONCLUSIVE,
    never EXHAUSTED.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node budget must be >= 1")
    if time_budget is not None and time_budget <= 0:
        raise ValueError("time budget must be positive")
    if order not in ("natural", "mcv"):
        raise ValueError(f"unknown assignment order {order!r}")
    start = time.monotonic()
    deadline = start + time_budget if time_budget is not None else None
    found = []

    def keep_first(phi):
        found.append(SwapMap(m, phi))
        return True

    status, nodes, max_depth = _walk(m, order, -1, keep_first, node_budget, deadline)
    witness = found[0] if found else None
    if witness is not None and not verify_swap(witness):
        raise RuntimeError("search produced a map that fails verification")
    return SearchOutcome(status, witness, nodes, max_depth, time.monotonic() - start)


def _enumerate(m, sign):
    """Every assignment fixing vertex 0 that satisfies the sign's pair
    rule (-1: swaps, +1: colour-preserving automorphisms), sorted."""
    maps = []
    _walk(m, "mcv", sign, maps.append)
    return sorted(maps)


def search_all(m: int, limit: int, *, force: bool = False) -> list[SwapMap]:
    """All normalized colour-swapping maps in lexicographic phi order,
    truncated at `limit`.  Guarded to m <= 2 unless force=True.

    The whole tree is enumerated in min-domain order and then sorted, so
    `limit` truncates the full list; it does not shorten the search.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _SEARCH_ALL_MAX_M and not force:
        raise ValueError(
            f"enumeration is guarded to m <= {_SEARCH_ALL_MAX_M}; pass force=True to override"
        )
    maps = [SwapMap(m, phi) for phi in _enumerate(m, -1)[:limit]]
    if not all(verify_swap(w) for w in maps):
        raise RuntimeError("enumeration produced a map that fails verification")
    return maps
