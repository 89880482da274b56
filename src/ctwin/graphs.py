"""The two-colour difference graph Delta_m, Cayley graphs of Boolean
functions, strong-regularity verification, and graph export.

Adjacency is never stored as a v x v structure: a graph on Z_2^n is a
length-2^n colour table kappa indexed by vertex difference, held as
int8 bytes.  Delta_m's table has one builder, `twins._delta_kappa`,
cached per m and shared with the swap search; every reader here views
the bytes as an int8 array without a copy, and a tuple is made only for
a caller that asks for one (`DifferenceGraph.kappa`).  Common-neighbour
counts depend only on the difference of the two vertices, so strong
regularity is read off one autocorrelation of the colour class, and
graph6 is encoded column by column straight from the table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .algebra import SymmetryClass, classify, gamma
from .bent import BoolFunc, _autocorrelation, sigma, tau
from .twins import _delta_kappa

RED = -1
BLUE = 1
COLOUR_NAMES = {RED: "red", BLUE: "blue"}

_ORACLE_MAX_M = 4
_GRAPH6_MAX_VERTICES = 1 << 16
# upper-triangle bits unpacked at once while encoding graph6
_GRAPH6_BLOCK_BITS = 1 << 22
# low index bits that graph6's column gather resolves by a table of
# 2^_GRAPH6_LOW_BITS shifted copies of the colour class
_GRAPH6_LOW_BITS = 6


@dataclass(frozen=True)
class DifferenceGraph:
    """Edge-coloured graph on Z_2^n_bits where the pair (a, b) has the
    colour kappa[a ^ b], kappa held in `colours` as int8 bytes.

    kappa values are -1 (red), +1 (blue) or 0 (no edge); kappa[0] is a
    structural zero since vertices carry no loops.
    """

    n_bits: int
    colours: bytes

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if not isinstance(self.colours, bytes):
            raise TypeError("the colour table must be int8 bytes")
        kappa = self._int8()
        if kappa.size != 1 << self.n_bits:
            raise ValueError("kappa length must be 2^n_bits")
        if kappa[0] != 0:
            raise ValueError("difference 0 cannot carry an edge")
        if kappa.min() < -1 or kappa.max() > 1:
            raise ValueError("colours must be -1, 0 or +1")

    @property
    def v(self) -> int:
        return 1 << self.n_bits

    @property
    def kappa(self) -> tuple[int, ...]:
        """kappa as a tuple of ints, made anew on each call."""
        return tuple(self._int8().tolist())

    def _int8(self) -> np.ndarray:
        """kappa as a read-only int8 array, without a copy."""
        return np.frombuffer(self.colours, np.int8)

    def edges(self, colour: int) -> list[tuple[int, int]]:
        """Sorted list of edges (a, b) with a < b in the given colour."""
        return [(a, b) for a, row in _upper_rows(self, colour) for b in row.tolist()]


def build_delta(m: int) -> DifferenceGraph:
    """Delta_m from the bit rules: difference d is red where sigma_m(d) = 1,
    blue where tau_m(d) = 1, absent where the basis matrix is diagonal."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return DifferenceGraph(2 * m, _delta_kappa(m))


def oracle_build_delta(m: int) -> DifferenceGraph:
    """Delta_m rebuilt from the matrices themselves, every pair checked.

    Each basis matrix gamma(i) is first checked against the bit rules:
    sigma(m, i) = 1 iff it is skew, and tau(m, i) = 1 iff it is symmetric
    but not diagonal; a disagreement raises RuntimeError naming i.  A
    pair is joined iff the permutation parts of its basis matrices
    disagree in every column (disjoint support); the colour is read off
    the symmetry class of M = gamma(a) * gamma(b)^T, and a joined pair
    whose M is neither symmetric nor skew raises ValueError.  All pairs
    with equal difference must agree with the first such pair, (0, d),
    before the colour table is accepted; the first pair in lexicographic
    order that does not raises RuntimeError naming its difference.

    All v(v-1)/2 pairs are worked at once on the stacked (v, n) perm and
    sign arrays of the basis, in int8 (n = 2^m <= 16 under the guard).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _ORACLE_MAX_M:
        raise ValueError(f"oracle path is guarded to m <= {_ORACLE_MAX_M}")
    v = 1 << (2 * m)
    basis = [gamma(m, i) for i in range(v)]
    for i, g in enumerate(basis):
        cls = classify(g)
        if sigma(m, i) != (cls is SymmetryClass.SKEW):
            raise RuntimeError(f"sigma mismatch at index {i}")
        if tau(m, i) != (cls is SymmetryClass.SYMMETRIC_OFF_DIAGONAL):
            raise RuntimeError(f"tau mismatch at index {i}")
    perm = np.array([g.perm for g in basis], dtype=np.int8)
    signs = np.array([g.signs for g in basis], dtype=np.int8)
    # gamma(b)^T: column c holds gamma(b)'s entry from column inv[c]
    inv = np.argsort(perm, axis=1).astype(np.int8)
    signs_t = np.take_along_axis(signs, inv, axis=1)
    a, b = np.triu_indices(v, 1)
    disjoint = (perm[a] != perm[b]).all(axis=1)
    ja, jb = a[disjoint], b[disjoint]
    # M = gamma(a) * gamma(b)^T, column c: row perm_a[inv_b[c]],
    # sign signs_a[inv_b[c]] * signs_b^T[c]
    rows = np.take_along_axis(perm[ja], inv[jb], axis=1)
    vals = np.take_along_axis(signs[ja], inv[jb], axis=1) * signs_t[jb]
    # M^T = +-M iff rows is an involution and vals[rows[c]] = +-vals[c]
    involution = (np.take_along_axis(rows, rows, axis=1) == np.arange(1 << m)).all(axis=1)
    mirrored = np.take_along_axis(vals, rows, axis=1)
    skew = involution & (mirrored == -vals).all(axis=1)
    symmetric = involution & (mirrored == vals).all(axis=1)
    colour = np.zeros(a.size, dtype=np.int8)
    colour[disjoint] = np.where(skew, RED, BLUE)
    neither = np.zeros(a.size, dtype=bool)
    neither[disjoint] = ~(skew | symmetric)
    # the first v - 1 pairs are (0, d) for d = 1..v-1
    kappa = np.concatenate((np.zeros(1, np.int8), colour[: v - 1]))
    bad = neither | (colour != kappa[a ^ b])
    if bad.any():
        first = int(bad.argmax())
        if neither[first]:
            raise ValueError("matrix is neither symmetric nor skew")
        raise RuntimeError(f"pairs with difference {a[first] ^ b[first]} disagree on colour")
    return DifferenceGraph(2 * m, kappa.tobytes())


def cayley_graph(f: BoolFunc) -> DifferenceGraph:
    """Single-colour graph with a ~ b iff f(a ^ b) = 1; edges carry +1."""
    if f(0):
        raise ValueError("f(0) = 1 would create loops")
    # the unpacked 0/1 table is kappa's int8 bytes as it stands
    table = np.unpackbits(f._bytes(), count=f.size, bitorder="little")
    return DifferenceGraph(f.n, table.tobytes())


# --- strong regularity -------------------------------------------------------

@dataclass(frozen=True)
class SrgParams:
    """(v, k, lam, mu) with the standard counting identity enforced."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        if (self.v - self.k - 1) * self.mu != self.k * (self.k - 1 - self.lam):
            raise ValueError("(v-k-1)*mu must equal k*(k-1-lam)")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


def verify_srg(graph: DifferenceGraph, colour: int) -> SrgParams:
    """Exhaustively verify that one colour class of the graph is strongly
    regular and return its parameters.

    Vertices a and b have |S & (S ^ a ^ b)| common neighbours, S being the
    differences of the colour, so one autocorrelation of S covers every
    pair.  Vertex 0 meets each difference d once, as the pair (0, d), so
    lambda, mu and the first offending pair are those a pairwise check in
    lexicographic order would report.
    """
    in_colour = graph._int8() == colour
    in_colour[0] = False  # no loops, even for the colour 0 of non-edges
    counts = _autocorrelation(in_colour)
    k = int(counts[0])
    if k == 0:
        raise ValueError("graph is empty in this colour")
    adjacent, common = in_colour[1:], counts[1:]
    if adjacent.all():
        raise ValueError("graph has no non-adjacent pairs")
    lam = int(common[adjacent.argmax()])
    mu = int(common[(~adjacent).argmax()])
    off = np.flatnonzero(common != np.where(adjacent, lam, mu))
    if off.size:
        b = int(off[0]) + 1
        name, pair, want = (
            ("lambda", "adjacent", lam) if in_colour[b] else ("mu", "non-adjacent", mu)
        )
        raise ValueError(
            f"{name} not constant: {pair} pair (0, {b}) "
            f"has {counts[b]} common neighbours, expected {want}"
        )
    return SrgParams(graph.v, k, lam, mu)


def predicted_srg_params(m: int) -> SrgParams:
    """Closed form (4^m, 2^{2m-1}-2^{m-1}, lam, lam) with lam = 2^{2m-2}-2^{m-1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = (1 << (2 * m - 2)) - (1 << (m - 1))
    return SrgParams(1 << (2 * m), (1 << (2 * m - 1)) - (1 << (m - 1)), lam, lam)


# --- export -------------------------------------------------------------------

def to_graph6(graph: DifferenceGraph, colour: int) -> bytes:
    """Standard graph6 bytes (no ">>graph6<<" header) for one colour class."""
    return b"".join(graph6_blocks(graph, colour))


def graph6_blocks(graph: DifferenceGraph, colour: int):
    """to_graph6's bytes as an iterator of blocks: the size header, then
    the body in pieces of at most _GRAPH6_BLOCK_BITS / 6 characters, so a
    writer never holds the whole payload.  The vertex limit is checked
    on the call, before any block is made."""
    n = graph.v
    if n > _GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 export supports at most {_GRAPH6_MAX_VERTICES} vertices")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    body = _upper_triangle(graph._int8() == colour)
    return itertools.chain((head,), map(_graph6_chars, body))


def _graph6_chars(bits: np.ndarray) -> bytes:
    """Six bits per character, offset by 63, the last one padded with 0s.

    The bits are packed into bytes once, most significant first, and
    every 3 bytes (24 bits) are regrouped into 4 sextets with shifts."""
    packed = np.zeros(-(-bits.size // 24) * 3, np.uint8)
    packed[: (bits.size + 7) // 8] = np.packbits(bits)
    b0, b1, b2 = packed.reshape(-1, 3).T
    chars = np.empty((b0.size, 4), np.uint8)
    chars[:, 0] = b0 >> 2
    chars[:, 1] = (b0 & 3) << 4 | b1 >> 4
    chars[:, 2] = (b1 & 15) << 2 | b2 >> 6
    chars[:, 3] = b2 & 63
    chars += 63
    return chars.reshape(-1)[: (bits.size + 5) // 6].tobytes()


def _upper_triangle(adjacent: np.ndarray):
    """graph6's bit stream, adjacency of (i, j) for i < j in column order,
    in blocks of whole 6-bit characters (the last block may be short).

    Columns j = 0 mod 12 start on a character boundary, since
    j(j - 1)/2 is then a multiple of 6, so blocks are cut there.

    Column j is adjacent[i ^ j] for i < j.  With w = 2^low, the low bits
    of j permute entries within aligned runs of w and the high bits
    permute whole runs, so the column is made of whole runs of the
    precomputed shifted[j mod w] = adjacent[k ^ (j mod w)], gathered
    run by run rather than entry by entry and cut at j."""
    n = adjacent.size
    low = min(_GRAPH6_LOW_BITS, n.bit_length() - 1)
    w = 1 << low
    vertices = np.arange(n)
    shifted = np.stack([adjacent[vertices ^ c] for c in range(w)]).reshape(w, n >> low, w)
    runs = np.arange(n >> low)
    columns, size = [], 0
    for j in range(1, n):
        if j % 12 == 0 and size >= _GRAPH6_BLOCK_BITS:
            yield np.concatenate(columns)
            columns, size = [], 0
        rows = shifted[j & (w - 1)].take(runs[: -(-j >> low)] ^ (j >> low), axis=0)
        columns.append(rows.reshape(-1)[:j])
        size += j
    if columns:
        yield np.concatenate(columns)


def _upper_rows(graph: DifferenceGraph, colour: int):
    """(a, the neighbours b > a of vertex a in ascending order) for every
    vertex a: the rows of the adjacency matrix's upper triangle."""
    adjacent = graph._int8() == colour
    v = graph.v
    for a in range(v):
        yield a, a + 1 + np.flatnonzero(adjacent[np.arange(a + 1, v) ^ a])


def json_edges_blocks(graph: DifferenceGraph, colour: int):
    """The bytes of json.dumps({"v": ..., "colour": ..., "edges": [[a, b],
    ...]}) with the edges sorted, as an iterator of blocks: the head, one
    block per vertex with edges to higher vertices, and the tail, so a
    writer never holds the whole payload."""
    name = json.dumps(COLOUR_NAMES.get(colour, str(colour)))
    yield f'{{"v": {graph.v}, "colour": {name}, "edges": ['.encode()
    # every vertex's decimal name, encoded once
    names = [b"%d" % a for a in range(graph.v)]
    sep = b""
    for a, row in _upper_rows(graph, colour):
        if row.size:
            pairs = (b"], [%s, " % names[a]).join([names[b] for b in row.tolist()])
            yield b"%s[%s, %s]" % (sep, names[a], pairs)
            sep = b", "
    yield b"]}"


def export_graph(graph: DifferenceGraph, colour: int, fmt: str) -> bytes:
    """Serialize one colour class; fmt is "graph6" or "json-edges"."""
    if fmt == "graph6":
        return to_graph6(graph, colour)
    if fmt == "json-edges":
        return b"".join(json_edges_blocks(graph, colour))
    raise ValueError(f"unknown export format {fmt!r}")
