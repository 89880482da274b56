"""Colour-swapping permutations of Delta_m: verification, and the search
on the coset blocks that settles each m.

A swap is a vertex permutation phi with kappa[phi[a] ^ phi[b]] =
-kappa[a ^ b] for all a, b: it sends red edges to blue ones, blue to red,
and non-edges to non-edges.  Every search pins phi[0] = 0 (XOR by a
constant keeps every pair difference, so the pin loses no generality),
and every run is deterministic.

`search_swap` (the CLI's `search`) and `search_all` work on the coset
blocks of Delta_m and check at run time every hypothesis the reduction
below needs, raising RuntimeError when one fails.  By the reduction the
swaps that fix every coset are the solutions of a linear system over
GF(2), one equation per pair of cosets, and `_solve` row-reduces it; no
search tree is walked.  The lifts of step (v) are checked as the
XOR-linear maps they are, in O(v), so the searches share Delta_m's
guard, m <= 8 (`twins._DELTA_MAX_M`); only a witness, which exists at
m <= 3, is checked over every pair, by `verify_swap` on the level masks
of `twins._level_masks`.  Everything here is plain Python on bytes,
tuples and big ints: kappa is `twins._delta_kappa`'s int8 bytes, and no
search loads numpy.

The reduction.  Let phi fix 0 and satisfy kappa[phi a ^ phi b] =
s * kappa[a ^ b] with s = -1 (a swap) or +1 (an automorphism).  For
i, x in GF(2)^m let reps[i] put bit k of i at bit 2k (base-4 digits 0
or 1) and D[x] = 3 * reps[x] (digits 0 or 3).  Base-4 digit by digit,
0 = 0 ^ 0, 1 = 1 ^ 0, 2 = 1 ^ 3 and 3 = 0 ^ 3, so every vertex is one
cell reps[i] ^ D[x], and the cells of coset i are reps[i] + D.

(i) The closed form kappa[reps[i] ^ D[x]] = 0 for i = 0 and
    (-1)^(wt(i) + i.x) otherwise holds for every m, by induction on the
    quadrant rules that build kappa_l = tau_l - sigma_l on 2l bits.
    Sigma on the cells: sigma_l(reps[i] ^ D[x]) = wt(i) + i.x mod 2 for
    every i, 0 included.  Base-4 digit k of the cell is i_k ^ 3 x_k,
    which is 1 exactly when i_k = 1 and x_k = 0, so wt(i) - i.x digits
    equal 1, and sigma_l is the parity of that count.
    The quadrant rules: tau_(l+1) = (tau_l, sigma_l, ~sigma_l, tau_l)
    and sigma_(l+1) = (sigma_l, ~sigma_l, sigma_l, sigma_l) by top
    digit q, so kappa_(l+1) reads kappa_l for q = 0 and 3,
    2 sigma_l - 1 for q = 1 and 1 - 2 sigma_l for q = 2.  A cell of
    level l + 1 is (i', x') = ((i_t, i), (x_t, x)): the cell (i, x) of
    level l below the top digit i_t ^ 3 x_t, which is 0, 1, 3, 2 for
    (i_t, x_t) = (0, 0), (1, 0), (0, 1), (1, 1).  The closed form's
    exponent moves by i_t (1 + x_t).  (0, 0) and (0, 1) read kappa_l at
    (i, x), with i' = 0 iff i = 0 and the exponent unmoved.  (1, 0)
    reads 2 sigma_l - 1 = -(-1)^(wt(i) + i.x), the exponent plus 1, and
    (1, 1) reads 1 - 2 sigma_l = (-1)^(wt(i) + i.x), the exponent plus
    2; both have i' != 0.
    Base: kappa_1 = (0, -1, +1, 0) on the digits 0..3, which are the
    cells (0, 0), (1, 0), (1, 1), (0, 1), and the closed form reads 0,
    -1, +1, 0 there.
    The searches still check the closed form cell by cell, at every
    vertex, at run time.
    So kappa is zero exactly on D, a subgroup (D[x] ^ D[y] = D[x ^ y]).
    a and b are non-adjacent iff a ^ b is in D, and phi keeps
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
    phi_T sends reps[i] ^ D[x] -> reps[T i] ^ D[N x ^ b_i], with N x =
    x ^ x_0 e_1 = (T^t)^-1 x and b_i = i_1 e_1.  wt(T i) = wt(i) + i_1
    mod 2, (T i).(N x) = i.x and (T i).b_i = i_1, so the exponent moves
    by 2 i_1 and the sign is kept.
    Both are built in closed form, and `_lifts` checks each as this step
    argues, in O(v): phi is the XOR-linear map with the images phi[e_k]
    of the unit vectors e_k, kappa[phi a] = kappa[a] at every vertex,
    and coset i goes onto coset T i or S i.  Such a map is one to one: if
    phi d = 0 then kappa[a ^ d] = kappa[a] for every a, so d is a zero
    of kappa, d = D[x], and x = 0 by (i) (take a = reps[i] with
    i.x = 1).  Being linear, each lift is fixed by its 2m images
    phi[e_k], which the certificate lists.
    For a swap psi fixing 0 pick alpha in Aut_0 with M_alpha = M_psi:
    psi o alpha^-1 is a swap with pi = id.  So a swap exists iff one
    exists that fixes every coset, and step (vi) decides that.  The
    kernel K (the pi = id automorphisms) and the lifts generate Aut_0,
    of order |K| * |GL(m, 2)|, and the swaps fixing 0 are the coset
    psi o Aut_0.
(vi) A phi with pi = id sends reps[i] ^ D[x] to reps[i] ^ D[f_i(x)],
    with f_i a permutation of GF(2)^m and f_0(0) = 0.  reps and D are
    XOR-linear, so for i != j the cells (i, x) and (j, y) differ by
    reps[i ^ j] ^ D[x ^ y], of colour (-1)^(wt(i ^ j) + (i ^ j).(x ^ y))
    by (i).  Write rhs = 1 for s = -1 and rhs = 0 for s = +1.  The wt
    terms cancel, and phi keeps the rule on that pair iff
        (i ^ j).(f_i(x) ^ x) + (i ^ j).(f_j(y) ^ y) = rhs.
    The pairs (0, i) with y = 0 give i.(f_i(x) ^ x) = rhs for every x,
    and then i.(f_0(y) ^ y) = 0 for every i != 0 and every y: phi is
    the identity on D.  The pairs (i, j) then hold (i ^ j).(f_i(x) ^ x)
    constant in x, and every u != 0 is i ^ j for j = i ^ u, so f_i(x) ^
    x is a constant t_i: f_i is the translation by t_i, with t_0 = 0.
    Conversely every such t gives a map with pi = id; it keeps kappa = 0
    inside each coset, since D[x ^ t_i] ^ D[y ^ t_i] = D[x ^ y], and it
    keeps the rule on every other pair iff
        (i ^ j).(t_i ^ t_j) = rhs   for every pair i < j of cosets.
    So the pi = id swaps (rhs 1) and K (rhs 0) are the solutions of
    2^(m-1) (2^m - 1) equations in the m (2^m - 1) bits of t_1, ...,
    t_(2^m - 1).  For m >= 4 the swap system has none.  Let A =
    span(e_0, e_1), B = span(e_2, e_3) and take the 15 pairs {a, b}
    with a in A, b in B and (a, b) != (0, 0).  In their sum the
    coefficient of t_a is the sum of a ^ b over b in B, that of t_b the
    sum of a ^ b over a in A, and both are 0; the right sides sum to
    15 = 1.  So the sum reads 0 = 1.

`_solve` reduces the pairs in (i, j) order and meets 0 = 1 after 51 of
the 120 equations at m = 4, 99 of 496 at m = 5 and 771 of 32640 at
m = 8; at every m from 4 to 8 the equations it combines are exactly
these 15.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter

from .twins import _DELTA_MAX_M, _delta_kappa, _level_masks

_SEARCH_ALL_MAX_M = 2
# an int8 byte b -> -b
_NEG = bytes(-b & 255 for b in range(256))


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
    """A search's verdict.  An EXHAUSTED run carries its certificate:
    {"refutation": [(i, j), ...], "lifts": [T_images, S_images]}, each
    lift given by its images of the 2m unit vectors e_k, in order of k."""

    status: SearchStatus
    witness: SwapMap | None
    nodes: int
    certificate: dict | None = None


def verify_swap(swap: SwapMap) -> bool:
    """Exhaustive pair check: every red edge must land on a blue one and
    vice versa, and non-edges must stay non-edges.

    The pairs (a, a ^ d) are checked one difference d at a time: the v
    differences phi[a] ^ phi[a ^ d] must all have the colour -kappa[d].
    phi is one big int with a field per vertex, and d runs in Gray-code
    order, so the fields XOR-translated by d come from those of the last
    d by one swap of adjacent blocks, on the masks of `_level_masks`
    (d = 0 holds, as kappa[0] = 0).  A row's colours are read by one
    translate while a vertex fits a byte (v <= 256), field by field
    above.  O(v^2) time and O(v m) memory: no v x v array is made."""
    kappa = _delta_kappa(swap.m)
    negated = kappa.translate(_NEG)
    v = len(kappa)
    fields = f"<{v}{'B' if v <= 256 else 'H'}"
    width = struct.calcsize(fields)  # bytes per row
    if v <= 256:
        table = kappa.ljust(256, b"\0")

        def colours(row):
            return row.translate(table)
    else:
        def colours(row):
            return bytes(map(kappa.__getitem__, struct.unpack(fields, row)))

    # level k: shift and mask that swap adjacent blocks of 2^k fields
    levels = list(_level_masks(v, 8 * width // v))
    phi = int.from_bytes(struct.pack(fields, *swap.phi), "little")
    translated = phi  # field a holds phi[a ^ d]
    for n in range(1, v):
        shift, mask = levels[(n & -n).bit_length() - 1]
        translated = (translated & mask) << shift | (translated >> shift) & mask
        d = n ^ (n >> 1)
        if colours((phi ^ translated).to_bytes(width, "little")) != negated[d : d + 1] * v:
            return False
    return True


def _check_search(m, node_budget):
    """ValueError for an m or node budget the searches do not take, raised
    before kappa is built."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _DELTA_MAX_M:
        raise ValueError(f"the search is guarded to m <= {_DELTA_MAX_M}")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node budget must be >= 1")


# --- the coset blocks ------------------------------------------------------

@dataclass(frozen=True)
class _Blocks:
    """Delta_m's coset blocks in closed form, checked against kappa.

    The vertex x of coset i is the cell reps[i] ^ zeros[x]; zeros, the
    D of the module docstring, is coset 0.
    """

    reps: tuple[int, ...]
    zeros: tuple[int, ...]


def _block_system(kappa: bytes) -> _Blocks:
    """The coset blocks of the difference graph with this int8 kappa,
    built in closed form and checked against kappa at every vertex, one
    coset at a time (step (i) of the module docstring); RuntimeError
    names the first vertex that disagrees."""
    m = (len(kappa).bit_length() - 1) // 2
    reps = [0]  # bit k of i -> base-4 digit k of reps[i]
    for k in range(m):
        reps += [c | 1 << (2 * k) for c in reps]
    zeros = [3 * c for c in reps]
    wrong = []
    for i, c in enumerate(reps):
        # (-1)^(wt(i) + i.x) over x, bit by bit of x; 0 on coset 0
        closed = bytes(1) if i == 0 else b"\xff" if i.bit_count() & 1 else b"\x01"
        for k in range(m):
            closed += closed.translate(_NEG) if i >> k & 1 else closed
        cells = [c ^ d for d in zeros]
        got = bytes(map(kappa.__getitem__, cells))
        if got != closed:
            wrong += (y for y, a, b in zip(cells, got, closed) if a != b)
    if wrong:
        raise RuntimeError(f"kappa disagrees with the blocks' closed form at vertex {min(wrong)}")
    return _Blocks(tuple(reps), tuple(zeros))


@lru_cache(maxsize=None)
def _blocks(m):
    return _block_system(_delta_kappa(m))


def _gl_order(m):
    return math.prod((1 << m) - (1 << i) for i in range(m))


def _cell_map(blocks, to, at):
    """The vertex map reps[i] ^ D[x] -> reps[to(i)] ^ D[at(i)[x]] on the
    blocks' cells, as a tuple."""
    reps, zeros = blocks.reps, blocks.zeros
    phi = [0] * (len(reps) * len(zeros))
    for i, c in enumerate(reps):
        target = reps[to(i)]
        for d, x in zip(zeros, at(i)):
            phi[c ^ d] = target ^ zeros[x]
    return tuple(phi)


def _is_linear_automorphism(m, phi):
    """phi is the XOR-linear map with the images phi[1 << k], k < 2m, and
    kappa[phi[a]] == kappa[a] at every vertex of Delta_m: by step (v) of
    the module docstring, phi is then an automorphism.  The linear map
    is expanded from its images by doubling, in O(v), with no v x v
    array."""
    linear = [0]
    for k in range(2 * m):
        image = phi[1 << k]
        linear += [y ^ image for y in linear]
    kappa = _delta_kappa(m)
    return linear == list(phi) and bytes(map(kappa.__getitem__, phi)) == kappa


def _lifts(m):
    """phi_T and phi_S of step (v) of the module docstring, as tuples,
    built in closed form on the blocks; each is checked to be XOR-linear,
    to keep kappa at every vertex, to send D onto D and to send reps[i]
    into coset T i or S i, so that, being linear, it sends coset i onto
    that coset.  RuntimeError if a check fails."""
    blocks = _blocks(m)
    reps, zeros = blocks.reps, blocks.zeros
    r = 1 << m
    shifted = [((u << 1) | (u >> (m - 1))) & (r - 1) for u in range(r)]  # S u
    normal = [u ^ (((u & 1) << 1) & (r - 1)) for u in range(r)]  # N u
    subgroup = set(zeros)

    lifts = []
    # (i, x) -> (T i, N x ^ b_i) and (S i, S x); the masks drop e_1 at m = 1
    for name, to, at in (
        ("T", lambda i: i ^ ((i >> 1) & 1), lambda i: [u ^ (i & 2 & (r - 1)) for u in normal]),
        ("S", shifted.__getitem__, lambda i: shifted),
    ):
        phi = _cell_map(blocks, to, at)
        onto = set(map(phi.__getitem__, zeros)) == subgroup and all(
            phi[c] ^ reps[to(i)] in subgroup for i, c in enumerate(reps)
        )
        if not _is_linear_automorphism(m, phi) or not onto:
            raise RuntimeError(f"the lift of the generator {name} of GL({m}, 2) fails its checks")
        lifts.append(phi)
    return lifts


def _solve(m, rhs, node_budget=None):
    """Row-reduce the pair equations (i ^ j).(t_i ^ t_j) = rhs of step
    (vi) of the module docstring, for i < j in (i, j) order.

    An equation is a big-int row: bit 0 holds its right side and bit
    m c + k the unknown bit k of t_c (c >= 1; t_0 = 0 is no unknown), and
    a row's top bit is its pivot.  Each row carries the bitmask of the
    input equations combined into it.  Returns (status, nodes, result),
    where nodes counts the equations reduced: FOUND with the echelon
    basis {pivot: row}, EXHAUSTED with the pairs (i, j) whose equations
    sum to 0 = 1, or INCONCLUSIVE with None when an equation is left
    after node_budget.
    """
    r = 1 << m
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    basis = {}  # pivot -> (row, input equations)
    for n, (i, j) in enumerate(pairs):
        if n == node_budget:
            return SearchStatus.INCONCLUSIVE, n + 1, None
        row, eqs = (i ^ j) << (m * j) | rhs, 1 << n
        if i:
            row ^= (i ^ j) << (m * i)
        top = row.bit_length() - 1
        while top in basis:
            row ^= basis[top][0]
            eqs ^= basis[top][1]
            top = row.bit_length() - 1
        if top > 0:
            basis[top] = (row, eqs)
        elif row:  # 0 = 1
            return SearchStatus.EXHAUSTED, n + 1, [pairs[k] for k in range(n + 1) if eqs >> k & 1]
    return SearchStatus.FOUND, len(pairs), {top: row for top, (row, _) in basis.items()}


def _solutions(m, basis):
    """Every solution t = [t_0, ..., t_(2^m - 1)] of an echelon basis from
    _solve, the one with every free unknown 0 first.  A row's bits other
    than its pivot lie below it, so the pivots are set in ascending
    order."""
    r = 1 << m
    free = [b for b in range(m, m * r) if b not in basis]
    for choice in range(1 << len(free)):
        x = 1  # bit 0 stands for the right side
        for k, b in enumerate(free):
            x |= (choice >> k & 1) << b
        for top in sorted(basis):
            x |= ((basis[top] & x).bit_count() & 1) << top
        yield [0] + [x >> (m * c) & (r - 1) for c in range(1, r)]


def _translations(blocks, t):
    """The pi = id map reps[i] ^ D[x] -> reps[i] ^ D[x ^ t[i]] on the
    blocks' cells, as a tuple."""
    xs = range(len(t))
    return _cell_map(blocks, lambda i: i, lambda i: [x ^ t[i] for x in xs])


def search_swap(m: int, *, node_budget: int | None = None, order: str = "mcv") -> SearchOutcome:
    """Find a colour-swapping permutation of Delta_m, or certify that
    none exists, on the coset blocks (see the module docstring).

    The blocks' closed form is checked first; `_solve` then reduces the
    pi = id system of step (vi), and nodes counts the pair equations
    reduced.  A solvable system gives FOUND with the solution whose free
    unknowns are all 0, which at m = 1, 2, 3 (the m with a swap) is the
    lexicographically first swap with pi = id; it still goes through
    verify_swap.  A refuted one gives EXHAUSTED once the closed-form
    lifts of T and S pass their checks, with the certificate
    {"refutation": [(i, j), ...], "lifts": [T_images, S_images]}, where
    each lift is its list of images phi[1 << k], k < 2m.  Exceeding
    node_budget yields INCONCLUSIVE with node_budget + 1 nodes.

    The system has at most 32640 equations and no choice of order: order
    accepts only "mcv", and stays only because the benchmark's steps
    pass it; node_budget is also the CLI's --node-budget.  Guarded to
    m <= 8.  RuntimeError if a checked hypothesis fails.
    """
    _check_search(m, node_budget)
    if order != "mcv":
        raise ValueError(f"unknown assignment order {order!r}")
    blocks = _blocks(m)
    status, nodes, found = _solve(m, 1, node_budget)
    witness = certificate = None
    if status is SearchStatus.FOUND:
        witness = SwapMap(m, _translations(blocks, next(_solutions(m, found))))
        if not verify_swap(witness):
            raise RuntimeError("search produced a map that fails verification")
    elif status is SearchStatus.EXHAUSTED:
        units = [1 << k for k in range(2 * m)]
        certificate = {"refutation": found, "lifts": [[phi[u] for u in units] for phi in _lifts(m)]}
    return SearchOutcome(status, witness, nodes, certificate)


def _closure(gens):
    """The group that the permutations gens generate, as a list of
    tuples, the identity first."""
    identity = tuple(range(len(gens[0])))
    group = {identity: None}  # a dict keeps the order of discovery
    frontier = [identity]
    compose = [itemgetter(*g) for g in gens]  # compose[k](f) = f o gens[k]
    while frontier:
        fresh = []
        for f in frontier:
            for right in compose:
                composed = right(f)
                if composed not in group:
                    group[composed] = None
                    fresh.append(composed)
        frontier = fresh
    return list(group)


def search_all(m: int, limit: int, *, force: bool = False) -> list[SwapMap]:
    """All normalized colour-swapping maps in lexicographic phi order,
    truncated at `limit`.  Guarded to m <= 2 unless force=True;
    search_swap, called before any other work, holds m to 1..8.

    Built from the coset blocks: the swaps fixing 0 are psi o Aut_0, for
    search_swap's witness psi.  Aut_0 is the closure of K and the lifts
    of T and S, checked to have |K| * |GL(m, 2)| elements; K, every
    pi = id automorphism, is the solution set of step (vi)'s system with
    right side 0.  When there is no psi (m >= 4) the list is empty and
    no closure is built.  `limit` truncates the full sorted list; it
    does not shorten the work.  search_swap runs here with no node
    budget and its one order.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if m > _SEARCH_ALL_MAX_M and not force:
        raise ValueError(
            f"enumeration is guarded to m <= {_SEARCH_ALL_MAX_M}; pass force=True to override"
        )
    psi = search_swap(m).witness
    if psi is None:
        return []
    _, _, basis = _solve(m, 0)
    kernel = [_translations(_blocks(m), t) for t in _solutions(m, basis)]
    auts = _closure(kernel + _lifts(m))
    if len(auts) != len(kernel) * _gl_order(m):
        raise RuntimeError("K and the lifts do not generate |K| * |GL(m, 2)| automorphisms")
    coset = sorted(itemgetter(*alpha)(psi.phi) for alpha in auts)[:limit]  # psi o alpha
    maps = [SwapMap(m, phi) for phi in coset]
    if not all(verify_swap(w) for w in maps):
        raise RuntimeError("enumeration produced a map that fails verification")
    return maps
