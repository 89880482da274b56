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
use too: `bent._two_valued` checks that the class's spectrum, taken
exactly in the bit planes of `bent._walsh_planes`, the kernel of
`is_bent` too, takes only the two eigenvalues that lambda and mu allow
off u = 0.

Export has one kernel, the bit layer's walk `twins._translates`: the
colour class is a big int whose binary text is the class's indicator,
index 0 first, and row (or column) j of the adjacency matrix is its XOR
translate T_j, reached from T_(j-1) by a couple of swaps of bit runs:
the walk in natural order that the difference counts and the swap check
read too.  graph6 cuts each column off the top of a translate, and edge lists pick
each row's neighbours by the digits of its translate's binary text.
Everything here runs on the standard library, and loading it loads
`ctwin.twins` alone: `ctwin.bent`, whose difference counts strong
regularity reads and whose closed forms `predicted_srg_params` and the
oracle read, is imported by the calls that need it, so export never
loads it.  The matrix oracle alone loads `ctwin.algebra`; it checks
every pair of basis matrices, one row a against every b at once, on
b-major bytes (`oracle_build_delta`).
"""

from __future__ import annotations

import binascii
import itertools
import json

from .twins import _SPREAD, _Record, _delta_kappa, _level_masks, _set, _translates

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
# the matrix oracle's byte tables: a column byte -> its row (sign bit
# cleared), and -> the same with its sign bit flipped; a byte of
# M = gamma(a) gamma(b)^T XOR its column index -> 0x20 where its row is
# that column (a diagonal entry), 0 elsewhere; the folded code of a
# pair -> its colour as an int8 byte, 0 where the perms meet (0x20 set),
# blue where M = M^T (0), red where M = -M^T (0x80), and _NEITHER
# where M is neither
_ROW = bytes(b & 127 for b in range(256))
_FLIP = bytes(b ^ 128 for b in range(256))
_MEET = bytes(32 * (b & 127 == 0) for b in range(256))
_NEITHER = 2
_VERDICT = bytes(
    0 if b & 32 else BLUE if b == 0 else RED & 255 if b == 128 else _NEITHER for b in range(256)
)
# the binary digits b"0" and b"1" -> the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")
# the base64 alphabet -> graph6's characters, value k -> chr(63 + k)
_SEXTETS = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


class DifferenceGraph(_Record):
    """Edge-coloured graph on Z_2^n_bits where the pair (a, b) has the
    colour kappa[a ^ b], kappa held in `colours` as int8 bytes.

    kappa values are -1 (red), +1 (blue) or 0 (no edge); kappa[0] is a
    structural zero since vertices carry no loops.
    """

    __slots__ = ("n_bits", "colours")

    def __init__(self, n_bits: int, colours: bytes):
        _set(self, "n_bits", n_bits)
        _set(self, "colours", colours)
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if not isinstance(colours, bytes):
            raise TypeError("the colour table must be int8 bytes")
        if len(colours) != 1 << n_bits:
            raise ValueError("kappa length must be 2^n_bits")
        if colours[0]:
            raise ValueError("difference 0 cannot carry an edge")
        # whatever is left once the bytes of -1, 0 and +1 are deleted
        if colours.translate(None, b"\0\1\xff"):
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

    The basis is `algebra.gamma(m, i)`, looked up when the call runs,
    and row a is checked against every b at once, on bytes with one byte
    per matrix and column, b-major: byte c * v + b holds column c of
    matrix b (n = 2^m <= 16 columns under the guard), its row with bit
    7 set where its sign is -1.

    - M's columns: column c of M is gamma(a)'s column at the row of
      gamma(b)^T's column c, so one translate through gamma(a)'s column
      bytes, of the rows of every gamma(b)^T, and an XOR of their sign
      bits, gives M for every b.  M^T = gamma(b) * gamma(a)^T is the
      tables' column at each row of gamma(a)^T, sign bit flipped where
      gamma(a)^T's sign is -1: a join of precomputed columns.
    - The verdict: folding M ^ M^T over the columns by OR and by AND, b
      is symmetric where every byte is 0, skew where every byte is
      0x80, and neither otherwise.
    - Disjointness: gamma(b)^T sends row perm_b[c] to c and gamma(a)
      sends c to perm_a[c], so the perms meet in a column iff M has a
      diagonal entry, a byte of column c whose row is c; one translate
      marks those, folded by OR.
    - The colours: one translate of the folded code gives row a's
      colour for every b, with a mark for "neither".  Row 0 is kappa;
      row a must equal kappa's XOR translate T_a (lane b holds
      kappa[a ^ b]), walked by `twins._translates` on 8-bit lanes, at
      every b > a.  The first byte b > a where it does not names the
      first offending pair of the row: ValueError where the mark is, and
      RuntimeError otherwise.

    `ctwin.algebra` and `ctwin.bent` are imported here, on the first
    call.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _ORACLE_MAX_M:
        raise ValueError(f"oracle path is guarded to m <= {_ORACLE_MAX_M}")
    from .algebra import SymmetryClass, classify, gamma
    from .bent import sigma, tau

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
    size = 8 * v * width  # bits of one b-major string
    high = int.from_bytes(b"\x80" * (v * width), "little")
    tables = [column_bytes(g) for g in basis]
    transposes = [column_bytes(g.transpose()) for g in basis]
    transposed = b"".join(map(bytes, zip(*transposes)))  # b-major
    rows_t, signs_t = transposed.translate(_ROW), int.from_bytes(transposed, "little") & high
    # column r of every table, b-major, keyed by r, and sign-flipped,
    # keyed by r | 128: the byte of a row r with its sign bit
    columns = {}
    for r, column in enumerate(map(bytes, zip(*tables))):
        columns[r], columns[r | 128] = column, column.translate(_FLIP)
    diagonal = int.from_bytes(b"".join(bytes([c]) * v for c in range(width)), "little")
    folds = [(bits, (1 << bits) - 1) for bits in (size >> k for k in range(1, m + 1))]

    def colours(a):
        product = int.from_bytes(rows_t.translate(tables[a].ljust(256, b"\0")), "little") ^ signs_t
        mirror = int.from_bytes(b"".join(map(columns.__getitem__, transposes[a])), "little")
        meet = (product ^ diagonal).to_bytes(size >> 3, "little").translate(_MEET)
        any_ = every = product ^ mirror | int.from_bytes(meet, "little")
        for bits, keep in folds:
            any_ = any_ & keep | any_ >> bits
            every = every & keep & every >> bits
        code = any_ | ((any_ ^ every) & high) >> 1
        return code.to_bytes(v, "little").translate(_VERDICT)

    kappa = colours(0)
    if _NEITHER in kappa:
        raise ValueError("matrix is neither symmetric nor skew")
    translates = _translates(int.from_bytes(kappa, "little"), _level_masks(v, 8), 1)
    for a, expected in enumerate(translates, 1):
        row = colours(a)
        off = (int.from_bytes(row, "little") ^ expected) >> (8 * a + 8)
        if off:
            b = a + 1 + ((off & -off).bit_length() - 1 >> 3)
            if row[b] == _NEITHER:
                raise ValueError("matrix is neither symmetric nor skew")
            raise RuntimeError(f"pairs with difference {a ^ b} disagree on colour")
    return DifferenceGraph(2 * m, kappa)


def cayley_graph(f: BoolFunc) -> DifferenceGraph:
    """Single-colour graph with a ~ b iff f(a ^ b) = 1; edges carry +1."""
    if f(0):
        raise ValueError("f(0) = 1 would create loops")
    # the table spread to one byte per entry is kappa's int8 bytes as it stands
    return DifferenceGraph(f.n, b"".join(map(_SPREAD.__getitem__, f.packed))[: f.size])


# --- strong regularity -------------------------------------------------------

class SrgParams(_Record):
    """(v, k, lam, mu) with the standard counting identity enforced."""

    __slots__ = ("v", "k", "lam", "mu")

    def __init__(self, v: int, k: int, lam: int, mu: int):
        for name, value in zip(self.__slots__, (v, k, lam, mu)):
            _set(self, name, value)
        if (v - k - 1) * mu != k * (k - 1 - lam):
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
    would report.  Guarded to 2^30 vertices (`bent._check_size`),
    before any work.
    """
    from .bent import _check_size, _common, _first_off

    _check_size(graph.n_bits)
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
    """(v, k, lam, lam) from the Hadamard difference set parameters of
    `bent.predicted_params`: a Cayley graph on a difference set with
    lambda = mu."""
    from .bent import predicted_params

    p = predicted_params(m)
    return SrgParams(p.v, p.k, p.lam, p.lam)


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
    only the class's first w = 2^(p+1) indices, and the walk
    `_translates` restarts at each power of two on that width, started
    at 2^p: its first translate T_(2^p) is the two halves exchanged.
    Held most significant first, column j is the top j bits of its
    translate, t >> (w - j), and it joins graph6's bit stream in one
    int, acc, below the fewer than 24 bits left over from the columns
    before it.  Every whole 3 bytes of acc, 4 base64 sextets, are cut
    off its top by one to_bytes per column, and a block's pieces are
    joined once the block holds _GRAPH6_BLOCK_BITS bits.  The last block
    ends with the bits left in acc, padded with 0s to a byte, and is
    trimmed to the characters the pairs need.
    """
    pieces = []  # the block's stream bytes, in whole 3-byte groups
    acc = bits = 0  # the stream's next bits, fewer than 24 between columns
    size = sent = 0  # the bits in pieces, and in the blocks yielded
    for p in range(v.bit_length() - 1):
        h = 1 << p
        w = 2 * h
        for j, t in enumerate(_translates(int(indicator[:w], 2), _level_masks(w), h), h):
            acc = acc << j | t >> (w - j)
            groups, bits = divmod(bits + j, 24)
            pieces.append((acc >> bits).to_bytes(3 * groups, "big"))
            acc &= (1 << bits) - 1
            size += 24 * groups
            if size >= _GRAPH6_BLOCK_BITS:
                yield _sextets(b"".join(pieces))
                pieces, size, sent = [], 0, sent + size
    pieces.append((acc << (-bits & 7)).to_bytes((bits + 7) >> 3, "big"))
    yield _sextets(b"".join(pieces))[: -(-(v * (v - 1) // 2 - sent) // 6)]


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
    for a, t in enumerate(_translates(int(_indicator(graph, colour), 2), _level_masks(v))):
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
