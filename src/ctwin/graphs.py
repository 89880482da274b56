"""The two-colour difference graph Delta_m, Cayley graphs of Boolean
functions, strong-regularity verification, and graph export.

Adjacency is never stored as a v x v structure: a graph on Z_2^n is a
length-2^n colour table indexed by vertex difference.  Common-neighbour
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
from .bent import BoolFunc, _autocorrelation, sigma, sigma_function, tau, tau_function

RED = -1
BLUE = 1
COLOUR_NAMES = {RED: "red", BLUE: "blue"}

_ORACLE_MAX_M = 4
_GRAPH6_MAX_VERTICES = 1 << 16
# upper-triangle bits unpacked at once while encoding graph6
_GRAPH6_BLOCK_BITS = 1 << 22


@dataclass(frozen=True)
class DifferenceGraph:
    """Edge-coloured graph on Z_2^n_bits with colour(a, b) = kappa[a ^ b].

    kappa values are -1 (red), +1 (blue) or 0 (no edge); kappa[0] is a
    structural zero since vertices carry no loops.
    """

    n_bits: int
    kappa: tuple[int, ...]

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if len(self.kappa) != 1 << self.n_bits:
            raise ValueError("kappa length must be 2^n_bits")
        if self.kappa[0] != 0:
            raise ValueError("difference 0 cannot carry an edge")
        if any(c not in (-1, 0, 1) for c in self.kappa):
            raise ValueError("colours must be -1, 0 or +1")

    @property
    def v(self) -> int:
        return 1 << self.n_bits

    def colour(self, a: int, b: int) -> int:
        if not (0 <= a < self.v and 0 <= b < self.v):
            raise ValueError("vertex out of range")
        if a == b:
            raise ValueError("no loops: vertices must differ")
        return self.kappa[a ^ b]

    def differences(self, colour: int) -> tuple[int, ...]:
        """All nonzero differences carrying the given colour."""
        return tuple(d for d in range(1, self.v) if self.kappa[d] == colour)

    def degree(self, colour: int) -> int:
        return len(self.differences(colour))

    def edges(self, colour: int) -> list[tuple[int, int]]:
        """Sorted list of edges (a, b) with a < b in the given colour."""
        return [(a, b) for a, row in _upper_rows(self, colour) for b in row.tolist()]


def build_delta(m: int) -> DifferenceGraph:
    """Delta_m from the bit rules: difference d is red where sigma_m(d) = 1,
    blue where tau_m(d) = 1, absent where the basis matrix is diagonal."""
    if m < 1:
        raise ValueError("m must be >= 1")
    sig = sigma_function(m).table()
    tav = tau_function(m).table()
    kappa = tuple(t - s for s, t in zip(sig, tav))
    return DifferenceGraph(2 * m, kappa)


def oracle_build_delta(m: int) -> DifferenceGraph:
    """Delta_m rebuilt pair by pair from the matrices themselves.

    Each basis matrix gamma(i) is first checked against the bit rules:
    sigma(m, i) = 1 iff it is skew, and tau(m, i) = 1 iff it is symmetric
    but not diagonal; a disagreement raises RuntimeError naming i.  A
    pair is joined iff the permutation parts of its basis matrices
    disagree in every column (disjoint support); the colour is read off
    the symmetry class of gamma(a) * gamma(b)^T.  All pairs with equal
    difference must agree before the colour table is accepted.
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
    seen: dict[int, int] = {0: 0}
    for a in range(v):
        pa = basis[a].perm
        for b in range(a + 1, v):
            pb = basis[b].perm
            disjoint = all(ra != rb for ra, rb in zip(pa, pb))
            if not disjoint:
                colour = 0
            else:
                cls = classify(basis[a] * basis[b].transpose())
                colour = RED if cls is SymmetryClass.SKEW else BLUE
            d = a ^ b
            if seen.setdefault(d, colour) != colour:
                raise RuntimeError(
                    f"pairs with difference {d} disagree on colour"
                )
    return DifferenceGraph(2 * m, tuple(seen[d] for d in range(v)))


def cayley_graph(f: BoolFunc) -> DifferenceGraph:
    """Single-colour graph with a ~ b iff f(a ^ b) = 1; edges carry +1."""
    if f(0):
        raise ValueError("f(0) = 1 would create loops")
    return DifferenceGraph(f.n, tuple(f.table()))


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
    in_colour = np.array(graph.kappa) == colour
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
    body = _upper_triangle(np.array(graph.kappa) == colour)
    return itertools.chain((head,), map(_graph6_chars, body))


def _graph6_chars(bits: np.ndarray) -> bytes:
    """Six bits per character, offset by 63, the last one padded with 0s."""
    bits = np.concatenate((bits, np.zeros(-bits.size % 6, dtype=bool)))
    return ((np.packbits(bits.reshape(-1, 6), axis=1) >> 2) + 63).tobytes()


def _upper_triangle(adjacent: np.ndarray):
    """graph6's bit stream, adjacency of (i, j) for i < j in column order,
    in blocks of whole 6-bit characters (the last block may be short).

    Columns j = 0 mod 12 start on a character boundary, since
    j(j - 1)/2 is then a multiple of 6, so blocks are cut there."""
    n = adjacent.size
    vertices = np.arange(n)
    columns, size = [], 0
    for j in range(1, n):
        if j % 12 == 0 and size >= _GRAPH6_BLOCK_BITS:
            yield np.concatenate(columns)
            columns, size = [], 0
        columns.append(adjacent[vertices[:j] ^ j])
        size += j
    if columns:
        yield np.concatenate(columns)


def from_graph6(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """Decode graph6 bytes into (vertex count, sorted edge list)."""
    if not data:
        raise ValueError("empty graph6 payload")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise ValueError("unsupported graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[pos // 6] - 63
            if (byte >> (5 - pos % 6)) & 1:
                edges.append((i, j))
            pos += 1
    return n, sorted(edges)


def _upper_rows(graph: DifferenceGraph, colour: int):
    """(a, the neighbours b > a of vertex a in ascending order) for every
    vertex a: the rows of the adjacency matrix's upper triangle."""
    adjacent = np.array(graph.kappa) == colour
    v = graph.v
    for a in range(v):
        yield a, a + 1 + np.flatnonzero(adjacent[np.arange(a + 1, v) ^ a])


def to_json_edges(graph: DifferenceGraph, colour: int) -> bytes:
    return b"".join(json_edges_blocks(graph, colour))


def json_edges_blocks(graph: DifferenceGraph, colour: int):
    """The bytes of json.dumps({"v": ..., "colour": ..., "edges": [[a, b],
    ...]}) with the edges sorted, as an iterator of blocks: the head, one
    block per vertex with edges to higher vertices, and the tail, so a
    writer never holds the whole payload."""
    name = json.dumps(COLOUR_NAMES.get(colour, str(colour)))
    yield f'{{"v": {graph.v}, "colour": {name}, "edges": ['.encode()
    sep = ""
    for a, row in _upper_rows(graph, colour):
        if row.size:
            pairs = f"], [{a}, ".join(map(str, row.tolist()))
            yield f"{sep}[{a}, {pairs}]".encode()
            sep = ", "
    yield b"]}"


def export_graph(graph: DifferenceGraph, colour: int, fmt: str) -> bytes:
    """Serialize one colour class; fmt is "graph6" or "json-edges"."""
    if fmt == "graph6":
        return to_graph6(graph, colour)
    if fmt == "json-edges":
        return to_json_edges(graph, colour)
    raise ValueError(f"unknown export format {fmt!r}")
