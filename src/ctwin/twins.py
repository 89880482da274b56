"""The standard-library layer under every command: the twin truth
tables, Delta_m's colour table, their `tt:` text, and the XOR translates
of a table held as one big int.

sigma_m and tau_m have one builder, `_twin_quadrants`, which makes the
four top-level byte quadrants of a packed little-endian table (entry i
at bit i % 8 of byte i // 8) from whole quadrants of the level below;
`_twin_table` joins them, and `table` writes them out unjoined.
Delta_m's colour table kappa = tau_m - sigma_m has one builder,
`_delta_kappa`, cached per m as int8 bytes (red -1 is the byte 255).
A table's text "tt:<n>:<hex>" has one writer, `_tt_text`, which
`BoolFunc.hex()` joins and `table` streams.

The bit layer is `_level_masks`, the masks of the lanes of a big int
whose index has bit k clear, each made from one byte pattern, and
`_translates`, the one walk over XOR translates: given the levels of
`_level_masks` and a start d, it reaches T_d by one swap of adjacent
runs per set bit of d, then steps through T_(d+1), T_(d+2), ... in
natural order, each from the last by swaps at a few levels.  The
difference counts in `bent` (`_common`, `_first_off`), the graph
encoders in `graphs` (`_rows`, `_graph6_body`) and `swap._all_swaps`
all read their translates from it, and `bent._lane_spectrum` runs its
butterflies on the same masks; only the dense transforms in `bent` view
a table as a numpy array, without a copy.

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
    return b"".join(_twin_quadrants(m, function))


def _twin_quadrants(m: int, function: str) -> tuple[bytes, ...]:
    """`_twin_table(m, function)` as the pieces it joins: its four
    quadrants, lowest entries first, or for m <= 2 the one piece.

    Built from the m = 2 pair by the quadrant rules on whole bytes,

        sigma_{l+1} = (sigma_l, ~sigma_l, sigma_l, sigma_l)
        tau_{l+1}   = (tau_l, sigma_l, ~sigma_l, tau_l),

    keeping only the previous level's pair, joining each level below the
    top, and making at the top level only the function asked for.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if function not in _TWINS_M2:
        raise ValueError(f"unknown twin function {function!r}")
    tables = {name: bytes(pair) for name, pair in _TWINS_M2.items()}
    if m == 1:
        return (bytes([tables[function][0] & 15]),)
    for level in range(3, m + 1):
        s, t = tables["sigma"], tables["tau"]
        flipped = s.translate(_NOT)
        quadrants = {"sigma": (s, flipped, s, s), "tau": (t, s, flipped, t)}
        if level == m:
            return quadrants[function]
        tables = {name: b"".join(pieces) for name, pieces in quadrants.items()}
    return (tables[function],)


def _tt_text(pieces, n: int, block: int):
    """The text "tt:<n>:<hex>" of a packed truth table on n bits, given
    as a sequence of pieces that join to it, in ASCII byte blocks: the
    head, then the hex digits, highest entry first.  The pieces go last
    first, each hexlified `block` bytes at a time from its end, so the
    text is never whole.  Below n = 3 the one piece is one byte, and it
    gives one digit."""
    yield b"tt:%d:" % n
    if n < 3:
        yield b"%x" % pieces[0][0]
        return
    for piece in reversed(pieces):
        for end in range(len(piece), 0, -block):
            yield binascii.hexlify(piece[max(0, end - block) : end][::-1])


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
