"""The two-colour difference graph Delta_m, Cayley graphs of Boolean
functions, strong-regularity verification, and graph export.

Adjacency is never stored as a v x v structure: a graph on Z_2^n is a
length-2^n colour table kappa indexed by vertex difference, held as
int8 bytes.  Delta_m's table has one builder, `twins._delta_kappa`,
cached per m and shared with the swap search, and a tuple is made only
for a caller that asks for one (`DifferenceGraph.kappa`).
Common-neighbour counts depend only on the difference of the two
vertices, so strong regularity is read off the colour class's
difference counts, by the kernel `bent._first_off` that difference sets
use too.

Export has one kernel, the bit layer's walk `twins._translates`: the
colour class is a big int whose binary text is the class's indicator,
index 0 first, and row (or column) j of the adjacency matrix is its XOR
translate T_j, reached from T_(j-1) by a couple of swaps of bit runs.
graph6 cuts each column off the top of a translate, and edge lists pick
each row's neighbours by the digits of its translate's binary text.
Everything here runs on the standard library, numpy never loads, and
the matrix oracle alone loads `ctwin.algebra`.
"""

from __future__ import annotations

import binascii
import itertools
import json
from dataclasses import dataclass

from .bent import BoolFunc, _check_lanes, _common, _first_off, sigma, tau
from .twins import _SPREAD, _delta_kappa, _translates

RED = -1
BLUE = 1
COLOUR_NAMES = {RED: "red", BLUE: "blue"}

_ORACLE_MAX_M = 4
_GRAPH6_MAX_VERTICES = 1 << 16
# graph6 bit-stream bits after which a block of characters is cut
_GRAPH6_BLOCK_BITS = 1 << 19

# colour -> translate table marking kappa's bytes of that colour b"1"
# and every other byte b"0"
_SELECT = {c: bytes(48 + (b == (c & 255)) for b in range(256)) for c in (RED, 0, BLUE)}
_NO_COLOUR = b"0" * 256
# the binary digits b"0" and b"1" -> the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")
# the base64 alphabet -> graph6's characters, value k -> chr(63 + k)
_SEXTETS = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


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
        if len(self.colours) != 1 << self.n_bits:
            raise ValueError("kappa length must be 2^n_bits")
        if self.colours[0]:
            raise ValueError("difference 0 cannot carry an edge")
        # whatever is left once the bytes of -1, 0 and +1 are deleted
        if self.colours.translate(None, b"\0\1\xff"):
            raise ValueError("colours must be -1, 0 or +1")

    @property
    def v(self) -> int:
        return 1 << self.n_bits

    @property
    def kappa(self) -> tuple[int, ...]:
        """kappa as a tuple of ints, made anew on each call."""
        return tuple(memoryview(self.colours).cast("b"))

    def edges(self, colour: int) -> list[tuple[int, int]]:
        """Sorted list of edges (a, b) with a < b in the given colour."""
        return [(a, b) for a, row in _rows(self, colour, range(self.v)) for b in row]


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

    The v(v-1)/2 pairs are worked one by one, in lexicographic order, on
    bytes with one byte per column (n = 2^m <= 16 under the guard): the
    perms are disjoint iff the XOR of their bytes, read as one int, has
    no zero byte; a product's rows and sign bits are one bytes.translate
    of the right factor's rows through the left factor's, and M is
    symmetric or skew as it equals M^T = gamma(b) * gamma(a)^T or its
    negation.  `ctwin.algebra` is imported here, on the first call.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _ORACLE_MAX_M:
        raise ValueError(f"oracle path is guarded to m <= {_ORACLE_MAX_M}")
    from .algebra import SymmetryClass, classify, gamma

    v = 1 << (2 * m)
    basis = [gamma(m, i) for i in range(v)]
    for i, g in enumerate(basis):
        cls = classify(g)
        if sigma(m, i) != (cls is SymmetryClass.SKEW):
            raise RuntimeError(f"sigma mismatch at index {i}")
        if tau(m, i) != (cls is SymmetryClass.SYMMETRIC_OFF_DIAGONAL):
            raise RuntimeError(f"tau mismatch at index {i}")

    def column_bytes(g):
        # column c's row, with bit 7 set where its sign is -1
        return bytes(r | (s < 0) << 7 for r, s in zip(g.perm, g.signs))

    width = 1 << m
    ones = int.from_bytes(b"\1" * width, "little")
    high = ones << 7  # bit 7 of every column: its sign bit, and the zero-byte test's
    perms = [int.from_bytes(bytes(g.perm), "little") for g in basis]
    # gamma(i) as a translate table, and gamma(i)^T as its rows and its sign bits
    tables = [column_bytes(g).ljust(256, b"\0") for g in basis]
    transposes = [g.transpose() for g in basis]
    rows_t = [bytes(t.perm) for t in transposes]
    signs_t = [int.from_bytes(column_bytes(t), "little") & high for t in transposes]
    kappa = bytearray(v)
    for a in range(v):
        pa, table_a, rows_ta, signs_ta = perms[a], tables[a], rows_t[a], signs_t[a]
        for b in range(a + 1, v):
            x = pa ^ perms[b]
            if (x - ones) & ~x & high:  # a zero byte: the perms meet in a column
                colour = 0
            else:
                # M = gamma(a) gamma(b)^T against M^T = gamma(b) gamma(a)^T
                product = int.from_bytes(rows_t[b].translate(table_a), "little") ^ signs_t[b]
                mirror = int.from_bytes(rows_ta.translate(tables[b]), "little") ^ signs_ta
                if product == mirror:
                    colour = BLUE
                elif product ^ mirror == high:
                    colour = RED & 255
                else:
                    raise ValueError("matrix is neither symmetric nor skew")
            if not a:
                kappa[b] = colour
            elif kappa[a ^ b] != colour:
                raise RuntimeError(f"pairs with difference {a ^ b} disagree on colour")
    return DifferenceGraph(2 * m, bytes(kappa))


def cayley_graph(f: BoolFunc) -> DifferenceGraph:
    """Single-colour graph with a ~ b iff f(a ^ b) = 1; edges carry +1."""
    if f(0):
        raise ValueError("f(0) = 1 would create loops")
    # the table spread to one byte per entry is kappa's int8 bytes as it stands
    return DifferenceGraph(f.n, b"".join(map(_SPREAD.__getitem__, f.packed))[: f.size])


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
    differences of the colour, so S's difference counts cover every pair,
    and `bent._first_off` checks them all at once.  lambda and mu are the
    counts at the first difference in S and the first one out of it,
    each the popcount of one translate of S.  Vertex 0 meets each
    difference d once, as the pair (0, d), so lambda, mu and the first
    offending pair are those a pairwise check in lexicographic order
    would report.  Guarded to 2^30 vertices (`bent._check_lanes`),
    before any work.
    """
    _check_lanes(graph.n_bits)
    # the class with index d at bit d, without 0: no loops, even for the
    # colour 0 of non-edges
    s = int(_indicator(graph, colour)[::-1], 2) & ~1
    k = s.bit_count()
    if k == 0:
        raise ValueError("graph is empty in this colour")
    apart = ((1 << graph.v) - 2) & ~s
    if not apart:
        raise ValueError("graph has no non-adjacent pairs")
    n = graph.n_bits
    lam = _common(s, n, (s & -s).bit_length() - 1)
    mu = _common(s, n, (apart & -apart).bit_length() - 1)
    off = _first_off(s, n, lam, mu)
    if off:
        b, count = off
        name, pair, want = ("lambda", "adjacent", lam) if s >> b & 1 else ("mu", "non-adjacent", mu)
        raise ValueError(
            f"{name} not constant: {pair} pair (0, {b}) "
            f"has {count} common neighbours, expected {want}"
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
    the body in pieces of about _GRAPH6_BLOCK_BITS / 6 characters, so a
    writer never holds the whole payload.  The vertex limit is checked
    on the call, before any block is made."""
    n = graph.v
    if n > _GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 export supports at most {_GRAPH6_MAX_VERTICES} vertices")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return itertools.chain((head,), _graph6_body(_indicator(graph, colour), n))


def _indicator(graph: DifferenceGraph, colour: int) -> bytes:
    """The colour class as binary text: byte d is b"1" where kappa[d] is
    the colour, b"0" elsewhere.  Read by int(., 2) it is the class with
    index d at bit v - 1 - d, most significant first."""
    return graph.colours.translate(_SELECT.get(colour, _NO_COLOUR))


def _graph6_body(indicator: bytes, v: int):
    """graph6's characters for the pairs i < j of v vertices, adjacent
    where indicator[i ^ j] is b"1", column by column, in blocks.

    Column j is bits 0..j-1 of row j, so for 2^p <= j < 2^(p+1) it needs
    only the class's first w = 2^(p+1) indices, and the walk restarts at
    each power of two on that width, from T_(2^p), the two halves
    exchanged.  Held most significant first, column j is the top j bits
    of its translate: shifted to end on a byte boundary, it joins a bit
    stream whose last byte may be partial.  The bits that follow the
    column into that byte are cleared when the next column fills it, so
    the stream is graph6's bits packed most significant first, and every
    3 whole bytes are 4 base64 sextets.  A block is cut at a multiple of
    3 bytes, and the last one is trimmed to the characters the pairs
    need, its pad bits 0.
    """
    stream = bytearray()  # the bits not yet cut, most significant first
    rem = 0  # the bits in stream's last byte, where it is partial
    sent = 0  # the stream bytes cut into blocks
    for p in range(v.bit_length() - 1):
        h = 1 << p
        w = 2 * h
        low = int(indicator[:w], 2)
        first = low >> h | (low & ((1 << h) - 1)) << h
        for j, t in zip(range(h, w), _translates(first, w)):
            pad = -(rem + j) & 7
            shift = w - j - pad
            column = (t >> shift if shift >= 0 else t << -shift).to_bytes((rem + j + pad) >> 3, "big")
            if rem:
                stream[-1] = stream[-1] & (0xFF00 >> rem) | column[0]
                stream += memoryview(column)[1:]
            else:
                stream += column
            rem = (rem + j) & 7
            if len(stream) << 3 >= _GRAPH6_BLOCK_BITS:
                whole = len(stream) - (rem > 0)
                cut = whole - whole % 3
                yield _sextets(stream[:cut])
                del stream[:cut]
                sent += cut
    if rem:
        stream[-1] &= 0xFF00 >> rem
    yield _sextets(stream)[: -(-(v * (v - 1) // 2 - 8 * sent) // 6)]


def _sextets(stream) -> bytes:
    """graph6 characters of a bit stream packed most significant first:
    each 6 bits, the last padded with 0s, as chr(63 + value).  Padding
    to whole base64 groups is left on for the caller to trim."""
    return binascii.b2a_base64(stream, newline=False).translate(_SEXTETS)


def _rows(graph: DifferenceGraph, colour: int, names):
    """(a, the names of a's neighbours b > a in ascending order) for
    every vertex a: the upper triangle of the adjacency matrix, row a
    picked from names[a + 1:] by the digits of T_a's binary text, whose
    digit b is the colour class's bit a ^ b."""
    v = graph.v
    for a, t in enumerate(_translates(int(_indicator(graph, colour), 2), v)):
        digits = f"{t:0{v}b}"[a + 1 :].encode().translate(_DIGITS)
        yield a, itertools.compress(names[a + 1 :], digits)


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
    for a, row in _rows(graph, colour, names):
        pairs = (b"], [%s, " % names[a]).join(row)
        if pairs:
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
