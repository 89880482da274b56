"""Colour-swapping permutations of Delta_m: verification, one
backtracking engine, and the coset-block search that settles each m.

A swap is a vertex permutation phi with kappa[phi[a] ^ phi[b]] =
-kappa[a ^ b] for all a, b: it sends red edges to blue ones, blue to red,
and non-edges to non-edges.  Every search pins phi[0] = 0 (XOR by a
constant keeps every pair difference, so the pin loses no generality);
candidates are drawn in ascending order, which makes every run
deterministic.

The engine (`_walk`) keeps per-vertex domains as bitmasks, narrowed by
one big-int AND per constraint added, and branches fail-first: on the
unassigned vertex with the fewest candidates (min-domain order, "mcv").
An optional list of per-vertex domain masks is ANDed into every vertex's
starting domain.

`search_swap` is the library's assumption-free search: one walk over the
whole tree, which at m = 4 takes hours.  `search_blocks` (the CLI's
`search`) and `search_all` use the coset blocks of Delta_m instead, and
check at run time every hypothesis the reduction below needs, raising
RuntimeError when one fails.  The searches stop at m = 5: their
constraint tables hold 16^m entries.

The reduction.  Let phi fix 0 and satisfy kappa[phi a ^ phi b] =
s * kappa[a ^ b] with s = -1 (a swap) or +1 (an automorphism).  For
i, x in GF(2)^m let reps[i] put bit k of i at bit 2k (base-4 digits 0
or 1) and D[x] = 3 * reps[x] (digits 0 or 3).  Base-4 digit by digit,
0 = 0 ^ 0, 1 = 1 ^ 0, 2 = 1 ^ 3 and 3 = 0 ^ 3, so every vertex is one
cell reps[i] ^ D[x], and the cells of coset i are reps[i] + D.

(i) The closed form kappa[reps[i] ^ D[x]] = 0 for i = 0 and
    (-1)^(wt(i) + i.x) otherwise is checked cell by cell, at every
    vertex.  So kappa is zero exactly on D, a subgroup (D[x] ^ D[y] =
    D[x ^ y]).  a and b are non-adjacent iff a ^ b is in D, and phi keeps
    non-adjacency, so phi permutes the cosets of D; fixing 0, it fixes
    D, and it induces a permutation pi of the coset indices: phi(reps[i]
    + D) = reps[pi i] + D.
(ii) Between the cells (i, x) and (0, z) the colour is kappa[reps[i] ^
    D[x ^ z]] = (-1)^(wt(i) + i.x + i.z).  So towards D, a vertex of
    coset i != 0 is red on one half of the split of D by the hyperplane
    ker i and blue on the other.  phi fixes D and sends a vertex's red
    half of D to the red (s = +1) or blue (s = -1) half of its image;
    red and blue halves are complements in D, so phi maps the split by
    i onto the split by pi i.
(iii) The split by i ^ j is the XOR of the splits by i and j, so phi
    maps it onto the XOR of the splits by pi i and pi j; by (ii) it also
    maps it onto the split by pi(i ^ j).  A split of D determines its
    functional, so pi(i ^ j) = pi i ^ pi j: pi is linear, an M in
    GL(m, 2).
(iv) Let T = I + E_01 (a transvection: T i = i ^ i_1 e_0) and S the
    cyclic shift of the basis.  The conjugates S^k T S^-k are the
    I + E_(k,k+1), indices mod m; the commutator of I + E_ij and I + E_jk
    is I + E_ik, so they give every I + E_ij, and these generate
    SL(m, 2) = GL(m, 2).  So <T, S> = GL(m, 2).
(v) alpha -> M_alpha is a homomorphism from Aut_0, the automorphisms
    fixing 0, to GL(m, 2).  It is onto, because T and S lift to
    automorphisms fixing 0.  Both lifts are XOR-linear maps of the
    cells, so each keeps kappa on every pair iff it keeps kappa at every
    vertex, and each fixes D (i = 0 stays 0):
    phi_S rotates every vertex's base-4 digits one place, reps[i] ^ D[x]
    -> reps[S i] ^ D[S x].  wt(S i) = wt(i) and (S i).(S x) = i.x, so
    the sign (-1)^(wt(i) + i.x) is kept.
    phi_T sends reps[i] ^ D[x] -> reps[T i] ^ D[N x ^ t_i], with N x =
    x ^ x_0 e_1 = (T^t)^-1 x and t_i = i_1 e_1.  wt(T i) = wt(i) + i_1
    mod 2, (T i).(N x) = i.x and (T i).t_i = i_1, so the exponent moves
    by 2 i_1 and the sign is kept.
    Both are built in closed form, checked over all pairs and checked to
    send coset i to coset T i or S i.  For a swap psi fixing 0 pick
    alpha in Aut_0 with M_alpha = M_psi: psi o alpha^-1 is a swap with
    pi = id.  So a swap exists iff one exists that fixes every coset,
    and one min-domain walk with every vertex held to its own coset
    decides it.  The kernel K (the pi = id automorphisms) and the lifts
    generate Aut_0, of order |K| * |GL(m, 2)|, and the swaps fixing 0
    are the coset psi o Aut_0.

At m = 4 the pi = id walk runs out in 169 nodes, and at m = 5 in 1681.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graphs import _delta_kappa

_SEARCH_MAX_M = 5
_SEARCH_ALL_MAX_M = 2


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
    """A search's verdict.  An EXHAUSTED `search_blocks` run carries its
    certificate: {"lifts": [phi_T, phi_S]}."""

    status: SearchStatus
    witness: SwapMap | None
    nodes: int
    max_depth: int
    elapsed: float
    certificate: dict | None = None


@lru_cache(maxsize=None)
def _kappa(m):
    """kappa of Delta_m as an int8 array."""
    return _delta_kappa(m)


@lru_cache(maxsize=None)
def _tables(m: int):
    """kappa of Delta_m plus, per colour, the image-constraint bitmasks.

    masks[t + 1][y] packs every x != y with kappa[x ^ y] = t, so the
    image of a new vertex constrained against an assigned image y is one
    AND away, and that AND also rules out y itself.
    """
    kappa = _kappa(m)
    idx = np.arange(kappa.size)
    diff = kappa[np.bitwise_xor.outer(idx, idx)]
    masks = []
    for t in (-1, 0, 1):
        rows = diff == t
        if t == 0:
            rows[idx, idx] = False
        packed = np.packbits(rows, axis=1, bitorder="little")
        masks.append([int.from_bytes(row.tobytes(), "little") for row in packed])
    return tuple(kappa.tolist()), masks


def _keeps(m, phi, sign):
    """kappa[phi[a] ^ phi[b]] == sign * kappa[a ^ b] for every pair.

    All ordered pairs at once: the check is symmetric in a and b, and
    kappa[0] = 0 makes it hold on the diagonal."""
    kappa = _kappa(m)
    phi = np.array(phi, dtype=np.min_scalar_type(len(kappa) - 1))
    vertices = np.arange(phi.size, dtype=phi.dtype)
    images = kappa[np.bitwise_xor.outer(phi, phi)]
    return bool((images == sign * kappa[np.bitwise_xor.outer(vertices, vertices)]).all())


def verify_swap(swap: SwapMap) -> bool:
    """Exhaustive pair check: every red edge must land on a blue one and
    vice versa, and non-edges must stay non-edges."""
    return _keeps(swap.m, swap.phi, -1)


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


def _walk(m, sign, visit, node_budget=None, domains=None):
    """Depth-first min-domain walk over the assignments with phi[0] = 0.

    One explicit stack of frames [vertex, candidates left, (other
    unassigned vertices, their domains)]; a frame branches on the first
    unassigned vertex of smallest domain, and each assignment narrows the
    other domains by one AND.  A node is counted when a candidate is
    assigned, and the pinned vertex 0 is the first node.  sign = -1 asks
    for kappa[phi[a] ^ phi[b]] = -kappa[a ^ b] (swaps), sign = +1 for
    equality (colour-preserving automorphisms).  Every vertex's domain
    starts as its constraints under vertex 0, ANDed with domains[a] when
    the per-vertex masks are given.

    visit(phi) is called at each complete assignment; the walk stops
    with FOUND when it returns true.  Returns (status, nodes, max_depth):
    INCONCLUSIVE when the node budget trips, EXHAUSTED when the tree runs
    out.
    """
    kappa, masks = _tables(m)
    v = len(kappa)
    # cons[a ^ b][phi[b]] = the images vertex a may take given phi[b]
    cons = [masks[1 + sign * k] for k in kappa]
    phi = [0] + [None] * (v - 1)
    verts = list(range(1, v))
    doms = [cons[a][0] for a in verts]
    if domains is not None:
        doms = [d & domains[a] for a, d in zip(verts, doms)]
    nodes = max_depth = 1  # a node budget is >= 1, so the pin never trips it
    root = _min_domain_frame(verts, doms)
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
        depth = 1 + len(stack)
        if depth > max_depth:
            max_depth = depth
        x = frame[0]
        c = bit.bit_length() - 1
        phi[x] = c
        if depth == v:
            if visit(tuple(phi)):
                return SearchStatus.FOUND, nodes, max_depth
        else:
            rest, rest_doms = frame[2]
            child = _min_domain_frame(
                rest, [d & cons[a ^ x][c] for a, d in zip(rest, rest_doms)]
            )
            if child:
                stack.append(child)
    return SearchStatus.EXHAUSTED, nodes, max_depth


def _first(m, sign, node_budget=None, domains=None):
    """One walk that stops at its first complete assignment:
    (status, phi or None, nodes, max_depth)."""
    found = []

    def keep_first(phi):
        found.append(phi)
        return True

    status, nodes, max_depth = _walk(m, sign, keep_first, node_budget, domains)
    return status, found[0] if found else None, nodes, max_depth


def _check_search(m, node_budget):
    """ValueError for an m or node budget the searches do not take, raised
    before any table is built."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _SEARCH_MAX_M:
        raise ValueError(f"the search is guarded to m <= {_SEARCH_MAX_M}")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node budget must be >= 1")


def search_swap(m: int, *, node_budget: int | None = None, order: str = "mcv") -> SearchOutcome:
    """Find a colour-swapping permutation of Delta_m or exhaust the tree.

    One min-domain walk over the whole tree below the pinned vertex 0,
    with no reduction; the witness, node count and max depth are
    deterministic, and a witness goes through verify_swap.  Exceeding
    node_budget yields INCONCLUSIVE, never EXHAUSTED.  Guarded to m <= 5.
    order accepts only "mcv"; the keyword remains only so that existing
    callers keep working.
    """
    _check_search(m, node_budget)
    if order != "mcv":
        raise ValueError(f"unknown assignment order {order!r}")
    start = time.monotonic()
    status, phi, nodes, max_depth = _first(m, -1, node_budget)
    witness = None if phi is None else SwapMap(m, phi)
    if witness is not None and not verify_swap(witness):
        raise RuntimeError("search produced a map that fails verification")
    return SearchOutcome(status, witness, nodes, max_depth, time.monotonic() - start)


def _enumerate(m, sign, domains=None):
    """Every assignment fixing vertex 0 that satisfies the sign's pair
    rule (-1: swaps, +1: colour-preserving automorphisms) within the
    domain masks, sorted."""
    maps = []
    _walk(m, sign, maps.append, domains=domains)
    return sorted(maps)


# --- the coset blocks ------------------------------------------------------

@dataclass(frozen=True)
class _Blocks:
    """Delta_m's coset blocks in closed form, checked against kappa.

    cells[i, x] = reps[i] ^ D[x] is the vertex x of coset i, coset[y] the
    coset of vertex y, and domains[y] the bitmask of the vertices of
    vertex y's own coset.
    """

    cells: np.ndarray
    coset: np.ndarray
    domains: list[int]


def _block_system(kappa) -> _Blocks:
    """The coset blocks of the difference graph with this kappa, built in
    closed form and checked against kappa at every vertex (step (i) of the
    module docstring); RuntimeError names the first vertex that
    disagrees."""
    kappa = np.asarray(kappa, dtype=np.int8)
    m = (kappa.size.bit_length() - 1) // 2
    x = np.arange(1 << m)
    reps = np.zeros_like(x)
    parity = np.zeros_like(x)  # parity[u] = wt(u) mod 2
    for k in range(m):
        reps |= ((x >> k) & 1) << (2 * k)
        parity ^= (x >> k) & 1
    cells = np.bitwise_xor.outer(reps, 3 * reps)
    closed = np.empty_like(kappa)
    closed[cells] = 1 - 2 * (parity[:, None] ^ parity[np.bitwise_and.outer(x, x)])
    closed[cells[0]] = 0
    wrong = np.flatnonzero(kappa != closed)
    if wrong.size:
        raise RuntimeError(f"kappa disagrees with the blocks' closed form at vertex {wrong[0]}")
    coset = np.empty(kappa.size, dtype=x.dtype)
    coset[cells] = x[:, None]
    packed = (np.packbits(coset == i, bitorder="little") for i in x)
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    return _Blocks(cells, coset, [masks[i] for i in coset])


@lru_cache(maxsize=None)
def _blocks(m):
    return _block_system(_kappa(m))


def _gl_order(m):
    return math.prod((1 << m) - (1 << i) for i in range(m))


def _lifts(m):
    """phi_T and phi_S of step (v) of the module docstring, built in closed
    form on the blocks; each is checked over all pairs and checked to send
    coset i to coset T i or S i.  RuntimeError if a check fails."""
    blocks = _blocks(m)
    r = 1 << m
    i = np.arange(r)[:, None]
    x = np.arange(r)[None, :]

    def shift(u):
        return ((u << 1) | (u >> (m - 1))) & (r - 1)

    lifts = []
    # (i, x) -> (T i, N x ^ t_i) and (S i, S x); the mask drops e_1 at m = 1
    for name, to, at in (
        ("T", i ^ ((i >> 1) & 1), (x ^ ((x & 1) << 1) ^ (i & 2)) & (r - 1)),
        ("S", shift(i), shift(x)),
    ):
        phi = np.empty_like(blocks.coset)
        phi[blocks.cells] = blocks.cells[to, at]
        if not _keeps(m, phi, +1) or (blocks.coset[phi[blocks.cells]] != to).any():
            raise RuntimeError(f"the lift of the generator {name} of GL({m}, 2) fails its checks")
        lifts.append(phi.tolist())
    return lifts


def search_blocks(m: int, *, node_budget: int | None = None) -> SearchOutcome:
    """Find a colour-swapping permutation of Delta_m, or certify that
    none exists, on the coset blocks (see the module docstring).

    One min-domain walk looks for a swap that holds every vertex to its
    own coset (pi = id); a witness still goes through verify_swap.  When
    that walk runs out, the closed-form lifts of T and S are checked
    before EXHAUSTED is returned, with the certificate {"lifts": [phi_T,
    phi_S]}.  node_budget bounds the walk's nodes; exceeding it yields
    INCONCLUSIVE.  Guarded to m <= 5.  RuntimeError if a checked
    hypothesis fails.
    """
    _check_search(m, node_budget)
    start = time.monotonic()
    status, phi, nodes, max_depth = _first(m, -1, node_budget, _blocks(m).domains)
    certificate = {"lifts": _lifts(m)} if status is SearchStatus.EXHAUSTED else None
    witness = None if phi is None else SwapMap(m, phi)
    if witness is not None and not verify_swap(witness):
        raise RuntimeError("search produced a map that fails verification")
    elapsed = time.monotonic() - start
    return SearchOutcome(status, witness, nodes, max_depth, elapsed, certificate)


def _closure(gens):
    """The group that the permutations gens generate, as an array with
    one element per row, the identity first."""
    v = len(gens[0])
    dtype = np.min_scalar_type(v - 1)
    gens = np.array(gens, dtype=dtype)
    frontier = np.arange(v, dtype=dtype)[None, :]
    group = dict.fromkeys([frontier.tobytes()])
    while len(frontier):
        # frontier[:, gens][f, g, a] = (f o g)[a]
        fresh = []
        for row in frontier[:, gens].reshape(-1, v):
            key = row.tobytes()
            if key not in group:
                group[key] = None
                fresh.append(key)
        frontier = np.frombuffer(b"".join(fresh), dtype).reshape(-1, v)
    return np.frombuffer(b"".join(group), dtype).reshape(-1, v)


def search_all(m: int, limit: int, *, force: bool = False) -> list[SwapMap]:
    """All normalized colour-swapping maps in lexicographic phi order,
    truncated at `limit`.  Guarded to m <= 2 unless force=True;
    search_blocks, called before any other work, holds m to 1..5.

    Built from the coset blocks: the swaps fixing 0 are psi o Aut_0, for
    the first swap psi with pi = id.  Aut_0 is the closure of K, every
    pi = id automorphism, and the lifts of T and S, checked to have
    |K| * |GL(m, 2)| elements.  When there is no psi (m >= 4) the list
    is empty and no closure is built.  `limit` truncates the full sorted
    list; it does not shorten the work.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if m > _SEARCH_ALL_MAX_M and not force:
        raise ValueError(
            f"enumeration is guarded to m <= {_SEARCH_ALL_MAX_M}; pass force=True to override"
        )
    psi = search_blocks(m).witness
    if psi is None:
        return []
    kernel = _enumerate(m, +1, _blocks(m).domains)
    auts = _closure(kernel + _lifts(m))
    if len(auts) != len(kernel) * _gl_order(m):
        raise RuntimeError("K and the lifts do not generate |K| * |GL(m, 2)| automorphisms")
    coset = np.array(psi.phi, dtype=auts.dtype)[auts]
    coset = coset[np.lexsort(coset.T[::-1])][:limit]  # rows in lexicographic order
    maps = [SwapMap(m, tuple(phi)) for phi in coset.tolist()]
    if not all(verify_swap(w) for w in maps):
        raise RuntimeError("enumeration produced a map that fails verification")
    return maps
