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
search tree is walked.  Every XOR-linear map here, the blocks, the
lifts of step (v) and the coset-fixing automorphisms of step (vii), is
built by `_linear` from its images of the unit vectors, in O(v), so the
searches share Delta_m's guard, m <= 8 (`twins._DELTA_MAX_M`).  Only
the maps a search returns, which exist at m <= 3, are checked over
every pair, by `_all_swaps` through the bit layer's one walk over XOR
translates, `twins._translates`, in natural order: `search_swap`'s
witness through `verify_swap`, and every map `search_all` lists in one
pass, each unordered pair once, on rows that hold every map's image of
one vertex.  Those maps have at most 64 points, so `search_all`
composes them as bytes, one `bytes.translate` each.  `_check_search`
is the layer's one range check: `search_swap` and `verify_swap` call
it before kappa is built, and `search_all` through its first call, of
`search_swap`.
Everything here is plain Python on bytes, tuples and big ints: kappa
is `twins._delta_kappa`'s int8 bytes.

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
    So kappa is zero exactly on D, a subgroup (D[x] ^ D[y] = D[x ^ y]):
    the indices whose basis matrix is diagonal, by the Kronecker lemma
    in the `ctwin.algebra` docstring, which also shows that the quadrant
    rules are the Clifford-algebra definition for every m.
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
    `_lifts` builds each as the XOR-linear map of its images phi[e_k] of
    the unit vectors e_k, given in closed form, and checks it as this
    step argues, in O(v): kappa[phi a] = kappa[a] at every vertex, and
    coset i goes onto coset T i or S i.  Such a map is one to one: if
    phi d = 0 then kappa[a ^ d] = kappa[a] for every a, so d is a zero
    of kappa, d = D[x], and x = 0 by (i) (take a = reps[i] with
    i.x = 1).  Being linear, each lift is fixed by its 2m images
    phi[e_k], which the certificate lists.
    For a swap psi fixing 0 pick alpha in Aut_0 with M_alpha = M_psi:
    psi o alpha^-1 is a swap with pi = id.  So a swap exists iff one
    exists that fixes every coset, and step (vi) decides that.  The
    kernel K (the pi = id automorphisms) and the lifts generate Aut_0,
    of order |K| * |GL(m, 2)| = 2^(m(m-1)/2) |GL(m, 2)| by step (vii),
    and the swaps fixing 0 are the coset psi o Aut_0.
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
(vii) K in closed form.  With rhs = 0, the pair (0, i) gives i.t_i = 0
    (t_0 = 0), and the pair (i, j) then gives i.t_j = j.t_i, for every
    i and j.  So for every u, u.t_(i ^ j) = (i ^ j).t_u = i.t_u + j.t_u
    = u.t_i + u.t_j, and t_(i ^ j) = t_i ^ t_j: t_i = L i for a linear
    L with i.(L j) = j.(L i) and i.(L i) = 0, an alternating matrix
    (symmetric, zero diagonal).  Conversely every alternating L solves
    the system: (i ^ j).(L i ^ L j) = i.L i + j.L j + i.L j + j.L i = 0.
    So K is the maps (i, x) -> (i, x ^ L i) with L alternating, a space
    with the basis L_ab = E_ab + E_ba for a < b, |K| = 2^(m(m-1)/2),
    and |Aut_0| = 2^(m(m-1)/2) |GL(m, 2)|: 1, 12 and 1344 at m = 1, 2,
    3, the count that `search --all` prints.  The swap system is not
    linear by this argument, since there i.t_i = 1; its witness stays
    `_solve`'s.

`_solve` reduces the pairs in (i, j) order and meets 0 = 1 after 51 of
the 120 equations at m = 4, 99 of 496 at m = 5 and 771 of 32640 at
m = 8; at every m from 4 to 8 the equations it combines are exactly
these 15.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from enum import Enum
from functools import lru_cache

from .twins import _DELTA_MAX_M, _Record, _delta_kappa, _level_masks, _set, _translates

# an int8 byte b -> -b
_NEG = bytes(-b & 255 for b in range(256))


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    INCONCLUSIVE = "inconclusive"


class SwapMap(_Record):
    """A vertex permutation of Delta_m, phi[a] = image of vertex a."""

    __slots__ = ("m", "phi")

    def __init__(self, m: int, phi: tuple[int, ...]):
        _set(self, "m", m)
        _set(self, "phi", phi)
        if m < 1:
            raise ValueError("m must be >= 1")
        if not isinstance(phi, tuple):
            raise TypeError("phi must be a tuple")
        v = 1 << (2 * m)
        if len(phi) != v or set(phi) != set(range(v)):
            raise ValueError(f"phi is not a permutation of 0..{v - 1}")


class SearchOutcome(_Record):
    """A search's verdict.  An EXHAUSTED run carries its certificate,
    the pair of tuples (refutation, lifts): refutation the coset pairs
    ((i, j), ...) whose equations sum to 0 = 1, lifts (T_images,
    S_images), each lift given by its images of the 2m unit vectors e_k,
    in order of k.  Tuples all through, so an outcome hashes."""

    __slots__ = ("status", "witness", "nodes", "certificate")

    def __init__(
        self, status: SearchStatus, witness: SwapMap | None, nodes: int,
        certificate: tuple | None = None,
    ):
        for name, value in zip(self.__slots__, (status, witness, nodes, certificate)):
            _set(self, name, value)


def verify_swap(swap: SwapMap) -> bool:
    """Exhaustive pair check: every red edge must land on a blue one and
    vice versa, and non-edges must stay non-edges.  Guarded to m <= 8,
    like the searches; `_all_swaps` checks the pairs."""
    _check_search(swap.m)
    return _all_swaps(swap.m, [swap.phi])


def _all_swaps(m, phis) -> bool:
    """Every map in phis, each a permutation of Delta_m's vertices as a
    sequence of ints (bytes where v <= 256), is a swap: the exhaustive
    pair check of verify_swap, for all the maps in one pass.

    Each unordered pair {a, a ^ d} is checked once, at the a where the
    top bit h of d is clear: phi[a] ^ phi[a ^ d] must have the colour
    -kappa[d] in every map.  The maps are held vertex-major, row a
    holding every map's phi[a], one field each.  For each h the rows
    with bit h clear are joined in order into one big int, and those
    with bit h set into another, so that lane i holds row a of the
    first and row a ^ h of the second, for the ith a with bit h clear.
    The walk `_translates` on the levels below h takes the second to its
    translates by d ^ h for d = h, ..., 2h - 1, in natural order, whose
    lane i holds row a ^ d; each d is then one XOR with the first, one
    to_bytes and one read of the colours, compared with the row of
    -kappa[d], built once per colour, by `_colours`.  O(v^2) time per
    map, and O(v m) memory per map, for the levels' masks: no v x v
    array and no list of pairs is made.  With kappa all 0, so that every
    difference runs, one map took 0.01, 0.13, 1.5-1.9 and 24-27 s at
    m = 5..8 (2 vCPU)."""
    kappa = _delta_kappa(m)
    negated = kappa.translate(_NEG)
    v = len(kappa)
    fields = array("B" if v <= 256 else "H", itertools.chain.from_iterable(zip(*phis)))
    rows = fields.tobytes()  # row a is every map's phi[a]
    row = len(phis) * fields.itemsize  # bytes per row
    width = v // 2 * row  # bytes per half
    colours = _colours(kappa)
    levels = list(_level_masks(v // 2, 8 * row))
    expected = {c: bytes([c]) * (v // 2 * len(phis)) for c in set(negated)}
    for k in range(2 * m):
        run = row << k  # the bytes of 2^k rows
        starts = range(0, v * row, 2 * run)
        clear = int.from_bytes(b"".join(rows[i : i + run] for i in starts), "little")
        flipped = int.from_bytes(b"".join(rows[i + run : i + 2 * run] for i in starts), "little")
        for d, translated in enumerate(_translates(flipped, levels[:k]), 1 << k):
            if colours((clear ^ translated).to_bytes(width, "little")) != expected[negated[d]]:
                return False
    return True


def _colours(kappa: bytes):
    """The function that reads the int8 colours kappa[x] of a run of
    vertices x packed by `array` in the machine's byte order: one
    translate while a vertex fits a byte (v <= 256), and above that, up
    to v = 2^16, a byte at a time from two-byte vertices x = 256 h + l:
    a code of the low byte l, a code of the high byte h, one OR of the
    two as big ints and one translate of the result.

    Two low bytes share a code when their columns kappa[256 h + l] over
    h are equal, and two high bytes when their rows over l are; then
    kappa[256 h + l] depends on the two codes alone, and the last
    translate reads it off the pair.  The codes take 4 bits each, so they
    tell apart up to 16 distinct rows and 16 distinct columns.  Delta_m
    has 3 of each: a byte holds four base-4 digits, sigma adds over the
    two bytes and membership in D (every digit 0 or 3) multiplies, by
    the Kronecker lemma of `ctwin.algebra`, and kappa reads 0 in D, and
    off D -1 where sigma is 1 and +1 where it is 0.  The colours are
    read once at every vertex and compared with kappa, and RuntimeError
    is raised if they differ, as they do past 16 rows or columns that
    the codes confuse."""
    if len(kappa) <= 256:
        table = kappa.ljust(256, b"\0")
        return lambda half: half.translate(table)
    rows = [kappa[h << 8 : (h + 1) << 8] for h in range(len(kappa) >> 8)]  # row h
    columns = [kappa[low::256] for low in range(256)]
    # a column's index among the distinct columns in bits 0..3, a row's in bits 4..7
    low = bytes(map({c: j & 15 for j, c in enumerate(dict.fromkeys(columns))}.get, columns))
    row_code = {r: i << 4 & 255 for i, r in enumerate(dict.fromkeys(rows))}
    high = bytes(map(row_code.get, rows)).ljust(256, b"\0")
    pair = bytearray(256)  # the codes of a vertex's two bytes, ORed -> its colour
    for x, colour in enumerate(kappa):
        pair[high[x >> 8] | low[x & 255]] = colour
    low_at = sys.byteorder == "big"  # the offset of a field's low byte

    def colours(half):
        codes = int.from_bytes(half[low_at::2].translate(low), "little")
        codes |= int.from_bytes(half[1 - low_at :: 2].translate(high), "little")
        return codes.to_bytes(len(half) // 2, "little").translate(pair)

    if colours(array("H", range(len(kappa))).tobytes()) != kappa:
        raise RuntimeError("the colours read a byte at a time are not kappa")
    return colours


def _check_search(m, node_budget=None):
    """ValueError for an m or node budget the searches and verify_swap do
    not take, raised before kappa is built: the swap layer's one range
    check."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _DELTA_MAX_M:
        raise ValueError(f"the swaps of Delta_m are guarded to m <= {_DELTA_MAX_M}")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node budget must be >= 1")


# --- the coset blocks ------------------------------------------------------

def _block_system(kappa: bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The coset blocks (reps, zeros) of the difference graph with this
    int8 kappa: the vertex x of coset i is the cell reps[i] ^ zeros[x],
    and zeros, the D of the module docstring, is coset 0.  Both are
    `_linear` maps of GF(2)^m, with the images 1 << 2k and 3 << 2k of
    e_k (base-4 digit k 1 or 3), and are checked against kappa at every
    vertex, one coset at a time (step (i) of the module docstring);
    RuntimeError names the first vertex that disagrees."""
    m = (len(kappa).bit_length() - 1) // 2
    reps = _linear([1 << (2 * k) for k in range(m)])
    zeros = _linear([3 << (2 * k) for k in range(m)])
    wrong = []
    for i, c in enumerate(reps):
        # (-1)^(wt(i) + i.x) over x, 0 on coset 0: the int8 byte of
        # (-1)^wt(i), XOR 254 (1 ^ 254 = 255) where the functional i.x is 1
        sign = 0 if i == 0 else 255 if i.bit_count() & 1 else 1
        closed = bytes(sign ^ 254 * dot for dot in _linear([i >> k & 1 for k in range(m)]))
        cells = [c ^ d for d in zeros]
        got = bytes(map(kappa.__getitem__, cells))
        if got != closed:
            wrong += (y for y, a, b in zip(cells, got, closed) if a != b)
    if wrong:
        raise RuntimeError(f"kappa disagrees with the blocks' closed form at vertex {min(wrong)}")
    return tuple(reps), tuple(zeros)


@lru_cache(maxsize=None)
def _blocks(m):
    return _block_system(_delta_kappa(m))


def _gl_order(m):
    return math.prod((1 << m) - (1 << i) for i in range(m))


def _linear(images):
    """The XOR-linear map with phi[1 << k] = images[k], as a list: phi[a]
    is the XOR of the images of a's set bits, expanded by doubling in
    O(2^len(images)), with no matrix."""
    phi = [0]
    for image in images:
        phi += [y ^ image for y in phi]
    return phi


def _lifts(m):
    """phi_T and phi_S of step (v) of the module docstring, as lists, each
    the `_linear` map of its 2m images in closed form: vertex bit 2k is
    the cell (e_k, 0) and bit 2k + 1 the cell (e_k, e_k).  Each is
    checked to keep kappa at every vertex, to send D onto D and to send
    reps[i] into coset T i or S i, so that, being linear, it sends coset
    i onto that coset.  RuntimeError if a check fails."""
    reps, zeros = _blocks(m)
    kappa = _delta_kappa(m)
    low = (1 << m) - 1
    units = [1 << k for k in range(m)]
    subgroup = set(zeros)

    def shifted(u):  # S u
        return (u << 1 | u >> (m - 1)) & low

    lifts = []
    # (i, x) -> (T i, N x ^ b_i) and (S i, S x); the masks drop e_1 at m = 1
    for name, to, at in (
        ("T", lambda i: i ^ (i >> 1 & 1), lambda i, x: (x ^ (x & 1) << 1 ^ i & 2) & low),
        ("S", shifted, lambda i, x: shifted(x)),
    ):
        phi = _linear([reps[to(e)] ^ zeros[at(e, x)] for e in units for x in (0, e)])
        onto = set(map(phi.__getitem__, zeros)) == subgroup and all(
            phi[c] ^ reps[to(i)] in subgroup for i, c in enumerate(reps)
        )
        if bytes(map(kappa.__getitem__, phi)) != kappa or not onto:
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


def _translations(blocks, t):
    """The pi = id map reps[i] ^ D[x] -> reps[i] ^ D[x ^ t[i]] on the
    blocks' cells, as a tuple."""
    reps, zeros = blocks
    phi = [0] * (len(reps) * len(zeros))
    for c, u in zip(reps, t):
        for x, d in enumerate(zeros):
            phi[c ^ d] = c ^ zeros[x ^ u]
    return tuple(phi)


def _coset_fixers(m):
    """K's basis of step (vii) of the module docstring, as lists: for
    a < b the `_linear` map (i, x) -> (i, x ^ L_ab i), whose images of
    vertex bits 2a and 2a + 1 (the cells (e_a, 0) and (e_a, e_a)) gain
    3 << 2b, those of bits 2b and 2b + 1 gain 3 << 2a, and every other
    bit stays put."""
    return [
        _linear([1 << j ^ {a: 3 << 2 * b, b: 3 << 2 * a}.get(j >> 1, 0) for j in range(2 * m)])
        for a, b in itertools.combinations(range(m), 2)
    ]


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
    (((i, j), ...), (T_images, S_images)), where each lift is the tuple
    of its images phi[1 << k], k < 2m.  Exceeding node_budget yields
    INCONCLUSIVE with node_budget + 1 nodes.

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
        x = 1  # bit 0 stands for the right side, and every free unknown is 0
        for top in sorted(found):  # a row's other bits lie below its pivot
            x |= ((found[top] & x).bit_count() & 1) << top
        t = [0] + [x >> (m * c) & ((1 << m) - 1) for c in range(1, 1 << m)]
        witness = SwapMap(m, _translations(blocks, t))
        if not verify_swap(witness):
            raise RuntimeError("search produced a map that fails verification")
    elif status is SearchStatus.EXHAUSTED:
        units = [1 << k for k in range(2 * m)]
        certificate = (tuple(found), tuple(tuple(phi[u] for u in units) for phi in _lifts(m)))
    return SearchOutcome(status, witness, nodes, certificate)


def _closure(gens):
    """The group that the permutations gens generate, each of at most
    256 points, as a list of bytes, the identity first."""
    identity = bytes(range(len(gens[0])))
    group = {identity: None}  # a dict keeps the order of discovery
    frontier = [identity]
    tables = [bytes(g).ljust(256, b"\0") for g in gens]  # f.translate(tables[k]) = gens[k] o f
    while frontier:
        fresh = []
        for f in frontier:
            for table in tables:
                composed = f.translate(table)
                if composed not in group:
                    group[composed] = None
                    fresh.append(composed)
        frontier = fresh
    return list(group)


def search_all(m: int, limit: int, *, force: bool = False) -> list[SwapMap]:
    """All normalized colour-swapping maps in lexicographic phi order,
    truncated at `limit`.  search_swap, called before any other work,
    holds m to 1..8.  `force` is accepted and ignored: like search_swap's
    `order`, it stays only because the benchmark's steps pass it.

    Built from the coset blocks: the swaps fixing 0 are psi o Aut_0, for
    search_swap's witness psi.  K, every pi = id automorphism, is the
    maps (i, x) -> (i, x ^ L i) with L alternating (step (vii) of the
    module docstring), and `_coset_fixers` gives its basis of
    m(m - 1)/2 maps in closed form.  Aut_0 is the closure of that basis
    and the lifts of T and S, checked to have |K| * |GL(m, 2)| =
    2^(m(m-1)/2) |GL(m, 2)| elements: 1, 12 and 1344 at m = 1, 2, 3.
    When there is no psi (m >= 4) the list is empty and no closure is
    built.  `limit` truncates the full sorted list; it does not shorten
    the work, and every map in it goes through one `_all_swaps` pass.
    search_swap runs here with no node budget and its one order.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    psi = search_swap(m).witness
    if psi is None:
        return []
    basis = _coset_fixers(m)
    auts = _closure(basis + _lifts(m))
    if len(auts) != _gl_order(m) << len(basis):
        raise RuntimeError("K and the lifts do not generate |K| * |GL(m, 2)| automorphisms")
    # psi o alpha, one translate each; bytes sort as the tuples of their values
    table = bytes(psi.phi).ljust(256, b"\0")
    coset = sorted(alpha.translate(table) for alpha in auts)[:limit]
    maps = [SwapMap(m, tuple(phi)) for phi in coset]
    if not _all_swaps(m, coset):
        raise RuntimeError("enumeration produced a map that fails verification")
    return maps
