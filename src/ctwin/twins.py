"""The standard-library layer under every command: the twin truth
tables, Delta_m's colour table, their `tt:` text, and the XOR translates
of a table held as one big int.

sigma_m and tau_m are made by one function, `_twin_pieces`, which
gives a packed little-endian table (entry i at bit i % 8 of byte
i // 8) as a tuple of pieces: the table joined up to _PIECE_SIZE (1 MB)
by the quadrant rules, and above that one level's sigma, ~sigma and tau
repeated, so that tau_14's 32 MB are 64 references to three 512 KB
bytes objects.  `_twin_table` joins the pieces, and `table` writes them
out unjoined.  Delta_m's colour table kappa = tau_m - sigma_m is made
by one function, `_delta_kappa`, cached per m as int8 bytes (red -1 is
the byte 255).  A table's text has one memo writer, `_once_each`, which encodes
each distinct piece once and yields its text at every occurrence: in
hex as "tt:<n>:<hex>" (`_tt_text`, which `BoolFunc.hex()` joins and
`table` streams) and as "0"/"1" characters (`_bit_text`, for `table
--format bits`).

The bit layer is `_level_masks`, the masks of the lanes of a big int
whose index has bit k clear, each made from one byte pattern, and
`_translates`, the one walk over XOR translates: given the levels of
`_level_masks` and a start d, it reaches T_d by one swap of adjacent
runs per set bit of d, then steps through T_(d+1), T_(d+2), ... in
natural order, each from the last by swaps at a few levels.  The
difference counts in `bent` (`_common`, `_first_off`), the graph
encoders in `graphs` (`_rows`, `_graph6_body`) and `swap._all_swaps`
all read their translates from it, and `bent._lane_spectrum` and
`bent._walsh_planes` run their butterflies on the same masks.

Every value record of the package (`BoolFunc`, `DiffSetParams`,
`DifferenceGraph`, `SrgParams`, `SwapMap`, `SearchOutcome`,
`SignedPerm`) derives from `_Record`, for value equality, hashing, a
repr and immutability without `dataclasses`, whose import loads
`inspect`, `ast` and `dis` at every command's start-up.
"""

from __future__ import annotations

import binascii
from functools import lru_cache
from operator import attrgetter

# the largest m at which Delta_m is built for a command: graph6 holds
# 4^8 vertices at most, and params and the searches stop here too
_DELTA_MAX_M = 8
# the most bytes in one piece of `_twin_pieces`: the twins are joined
# up to this size, and `table` writes one text block per piece
_PIECE_SIZE = 1 << 20

# sigma_2 and tau_2 packed little-endian, two bytes each; their first
# quadrants (the low nibbles of byte 0) are sigma_1 and tau_1
_TWINS_M2 = {"sigma": (0xD2, 0x22), "tau": (0x24, 0x4D)}

# byte b -> ~b, the complement of eight packed entries
_NOT = bytes(range(255, -1, -1))
# byte b -> its eight bits, bit k as byte k
_SPREAD = [bytes(b >> k & 1 for k in range(8)) for b in range(256)]
# the code 2 tau + sigma of an entry -> kappa = tau - sigma as an int8 byte
_KAPPA = bytes([0, 255, 1, 0]).ljust(256, b"\0")

# sets a field of a record in its __init__, past _Record.__setattr__
_set = object.__setattr__


class _Record:
    """A frozen value record on the fields its subclass names in
    `__slots__`, in order: equality and hash by the tuple of fields
    (records of different classes are never equal), the repr
    "Name(field=value, ...)", copy and pickle through the subclass's
    `__init__`, which takes the fields positionally and sets each by
    `_set`, and AttributeError on any assignment or deletion."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the tuple of fields, read by one C call (the records have >= 2)
        cls._key = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _twin_table(m: int, function: str) -> bytes:
    """Truth table of sigma_m or tau_m ("sigma" or "tau") packed
    little-endian: entry i is bit i % 8 of byte i // 8.  At m = 1 it is
    one byte whose high nibble is 0."""
    return b"".join(_twin_pieces(m, function))


def _twin_pieces(m: int, function: str) -> tuple[bytes, ...]:
    """`_twin_table(m, function)` as the pieces it joins, lowest entries
    first: one piece up to _PIECE_SIZE bytes, and above that 4^(m - L)
    pieces of sigma_L, ~sigma_L and tau_L, for the last level L whose
    table fits in _PIECE_SIZE bytes.  The pieces are at most three bytes
    objects, each repeated (two for sigma, which has no tau_L).

    Built from the m = 2 pair by the quadrant rules,

        sigma_{l+1} = (sigma_l, ~sigma_l, sigma_l, sigma_l)
        tau_{l+1}   = (tau_l, sigma_l, ~sigma_l, tau_l),

    on whole bytes, joined while the joined table fits the piece size
    (a level-2 table is 2 bytes whatever that size), and from there on
    tuples of pieces, so that no level above L copies a byte.  There
    ~sigma_{l+1} = (~sigma_l, sigma_l, ~sigma_l, ~sigma_l), and ~tau
    never occurs.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if function not in _TWINS_M2:
        raise ValueError(f"unknown twin function {function!r}")
    if m == 1:
        return (bytes([_TWINS_M2[function][0] & 15]),)
    s, t = bytes(_TWINS_M2["sigma"]), bytes(_TWINS_M2["tau"])
    level = 2
    while level < m and 4 * len(s) <= _PIECE_SIZE:
        flipped = s.translate(_NOT)
        s, t = s + flipped + s + s, t + s + flipped + t
        level += 1
    s, flipped, t = (s,), (s.translate(_NOT),), (t,)
    for _ in range(level, m):
        s, flipped, t = s + flipped + s + s, flipped + s + flipped + flipped, t + s + flipped + t
    return t if function == "tau" else s


def _once_each(pieces, encode):
    """encode(piece) for each of the pieces in turn, each distinct piece
    encoded once and its text yielded again wherever it recurs.  A bytes
    object caches its hash, so a piece that recurs as the same object is
    hashed once and found again by identity."""
    texts = {}
    for piece in pieces:
        text = texts.get(piece)
        if text is None:
            text = texts[piece] = encode(piece)
        yield text


def _hex_digits(piece: bytes) -> bytes:
    """The hex digits of a packed piece, highest entry first."""
    return binascii.hexlify(piece[::-1])


def _bit_digits(piece: bytes) -> bytes:
    """The entries of a packed piece as "0"/"1", entry 0 first."""
    return format(int.from_bytes(piece, "little"), f"0{8 * len(piece)}b")[::-1].encode()


def _tt_text(pieces, n: int):
    """The text "tt:<n>:<hex>" of a packed truth table on n bits, given
    as a sequence of pieces that join to it, in ASCII byte blocks: the
    head, then the hex digits of each piece, highest entry first, so the
    pieces go last first and the text is never whole.  Below n = 3 the
    one piece is one byte, and it gives one digit."""
    yield b"tt:%d:" % n
    if n < 3:
        yield b"%x" % pieces[0][0]
        return
    yield from _once_each(reversed(pieces), _hex_digits)


def _bit_text(pieces, n: int):
    """The entries of a packed truth table on n bits, given as the pieces
    that join to it, as the characters "0"/"1", entry 0 first, in one
    ASCII block per piece.  Below n = 3 the one byte's 8 characters are
    cut to the table's 2^n."""
    for text in _once_each(pieces, _bit_digits):
        yield text[: 1 << n]


@lru_cache(maxsize=None)
def _delta_kappa(m: int) -> bytes:
    """kappa of Delta_m as int8 bytes: tau_m - sigma_m, entry by entry.
    Built once per m.

    Each table is spread to one byte per entry, the two are combined into
    the code 2 tau + sigma by one big-int shift and OR (each byte holds
    0 or 1, so nothing carries), and one translate maps the code to kappa.
    """
    v = 1 << (2 * m)
    sig, tau = (
        int.from_bytes(b"".join(map(_SPREAD.__getitem__, _twin_table(m, name)))[:v], "little")
        for name in ("sigma", "tau")
    )
    return (tau << 1 | sig).to_bytes(v, "little").translate(_KAPPA)


# a run of r < 8 bits -> the byte whose bits i with i & r == 0 are set
_SHORT_RUNS = {1: 0x55, 2: 0x33, 4: 0x0F}


def _level_masks(lanes: int, bits: int = 1):
    """(2^k * bits, the mask of the lanes whose index has bit k clear)
    for each level k with 2^k < lanes, in turn, on `lanes` lanes of
    `bits` bits each, lane i at bits i * bits and up.  Each mask is one
    byte pattern read by int.from_bytes, never a big-int division.  A
    mask is whole only where 2^(k+1) divides lanes, so a caller with
    lanes not a power of two, such as `swap._all_swaps` with v lanes
    per map, walks only those levels."""
    size = lanes * bits
    run = bits
    while run < size:
        if run < 8:
            pattern = bytes([_SHORT_RUNS[run]]) * max(1, size >> 3)
            yield run, int.from_bytes(pattern, "little") & ((1 << size) - 1)
        else:
            pattern = (b"\xff" * (run >> 3) + bytes(run >> 3)) * (size // (2 * run))
            yield run, int.from_bytes(pattern, "little")
        run *= 2


def _translates(a: int, levels, start: int = 0):
    """T_d(a) for d = start, start + 1, ..., 2^L - 1, in natural order,
    given the L levels (run, mask) of `_level_masks` to walk: T_d(a) has
    lane i ^ d of a at lane i.  The only code that steps through XOR
    translates: `bent._common` reads the first item, `bent._first_off`,
    `graphs._rows`, `graphs._graph6_body` and `swap._all_swaps` walk on.

    T_start is a with adjacent runs exchanged at each level k where
    start has bit k set.  From d - 1 to d the index moves by
    d ^ (d - 1) = 2^(l+1) - 1, where l counts the trailing zeros of d,
    so T_d is T_(d-1) with runs exchanged at each level k = 0..l: two
    swaps per step on average, each a few shifts and masks of the whole
    int.

    Reversing the order of the 2^L lanes commutes with every T_d, so a
    caller may hold index d at lane 2^L - 1 - d, as int(text, 2) does
    with lanes of one bit.
    """
    levels = list(levels)
    for k, (run, mask) in enumerate(levels):
        if start >> k & 1:
            a = (a >> run) & mask | (a & mask) << run
    yield a
    for d in range(start + 1, 1 << len(levels)):
        for run, mask in levels[: (d & -d).bit_length()]:
            a = (a >> run) & mask | (a & mask) << run
        yield a
