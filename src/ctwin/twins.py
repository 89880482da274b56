"""The twin truth tables and Delta_m's colour table as bytes, on the
standard library alone.

sigma_m and tau_m have one builder, `_twin_quadrants`, which makes the
four top-level byte quadrants of a packed little-endian table (entry i
at bit i % 8 of byte i // 8) from whole quadrants of the level below;
`_twin_table` joins them, and `table` writes them out unjoined.
Delta_m's colour table kappa = tau_m - sigma_m has one builder,
`_delta_kappa`, cached per m as int8 bytes (red -1 is the byte 255).
The search, the graph encoders and the hex text of a table
(`_hex_digits`) read both as bytes; only the transforms in `bent` view
them as numpy arrays, without a copy.
"""

from __future__ import annotations

import binascii
from functools import lru_cache

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


def _hex_digits(table: bytes, n: int, block: int):
    """The hex digits of a packed truth table on n bits, highest entry
    first, as ASCII byte blocks: the bytes hexlified last first, `block`
    bytes at a time, so the text is never whole.  Below n = 3 there is
    one digit, where a whole byte would give two."""
    if n < 3:
        yield b"%x" % table[0]
        return
    for end in range(len(table), 0, -block):
        yield binascii.hexlify(table[max(0, end - block) : end][::-1])


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
