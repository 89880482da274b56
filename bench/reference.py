"""The benchmark's own reference for the paper's bit rules and payloads.

Everything the benchmark checks is derived here from the definitions,
independently of ctwin: sigma_m is the parity of the base-4 digits equal
to 1, tau_m follows the quadrant recursion on the leading bit pair, and
kappa = tau - sigma colours Delta_m.  Graph6 and JSON edge payloads and
swap witnesses are checked against these tables, and the expected
parameters come from the closed forms, which are invariant under the
GF(2)-linear relabelling the input generator applies.

Tables are numpy uint8 arrays of 0/1 values indexed by the input, or, for
the largest tables, the same bits packed little-endian (bit i of the
table is bit i % 8 of byte i // 8).
"""

from __future__ import annotations

import numpy as np

# the colour-swapping maps of Delta_m that fix vertex 0 form one coset of
# the colour-preserving automorphisms that fix 0; search_all must list
# exactly this many
SWAP_COUNTS = {2: 12, 3: 1344}

# graph6 encodes 6 adjacency bits per byte, most significant bit first
_SIX = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def sigma_values(m: int) -> np.ndarray:
    """sigma_m(i) for every i: parity of the base-4 digits of i equal to 1."""
    i = np.arange(1 << (2 * m), dtype=np.int64)
    out = np.zeros(i.size, dtype=np.uint8)
    for d in range(m):
        out ^= ((i >> (2 * d)) & 3 == 1).astype(np.uint8)
    return out


def tau_values(m: int) -> np.ndarray:
    """tau_m(i) for every i by the quadrant recursion on the leading pair:
    quadrants 00, 01, 10, 11 hold tau_{m-1}, sigma_{m-1}, 1 + sigma_{m-1},
    tau_{m-1}, and tau_1 is 1 only on the index 10."""
    out = np.array([0, 0, 1, 0], dtype=np.uint8)
    for k in range(2, m + 1):
        s = sigma_values(k - 1)
        out = np.concatenate([out, s, s ^ 1, out])
    return out


def kappa_values(m: int) -> np.ndarray:
    """Colour of each difference in Delta_m: -1 red, +1 blue, 0 no edge."""
    return tau_values(m).astype(np.int8) - sigma_values(m).astype(np.int8)


def _sigma_packed(m: int) -> np.ndarray:
    """Packed sigma_m for m >= 2, from the digit rule split into a high and
    a low block of digits, whose parities add."""
    low = min(m, 8)
    lo = np.packbits(sigma_values(low), bitorder="little")
    hi = sigma_values(m - low)
    return (lo[None, :] ^ (hi[:, None] * np.uint8(0xFF))).ravel()


def tau_packed(m: int) -> np.ndarray:
    """Packed tau_m for m >= 2, by the quadrant recursion on packed bytes."""
    out = np.packbits(tau_values(2), bitorder="little")
    for k in range(3, m + 1):
        s = _sigma_packed(k - 1)
        out = np.concatenate([out, s, ~s, out])
    return out


def table_hex(m: int, function: str) -> str:
    """ctwin's "tt:<arity>:<hex>" string, highest-index entry first."""
    if function == "tau":
        packed = tau_packed(m) if m >= 2 else np.packbits(tau_values(m), bitorder="little")
    else:
        packed = _sigma_packed(m) if m >= 2 else np.packbits(sigma_values(m), bitorder="little")
    digits = packed[::-1].tobytes().hex()
    width = ((1 << (2 * m)) + 3) // 4
    return f"tt:{2 * m}:{digits[len(digits) - width:]}"


def ds_params(m: int) -> tuple[int, int, int, int]:
    """Hadamard difference-set parameters (v, k, lambda, n) of sigma_m and tau_m."""
    return (
        1 << (2 * m),
        (1 << (2 * m - 1)) - (1 << (m - 1)),
        (1 << (2 * m - 2)) - (1 << (m - 1)),
        1 << (2 * m - 2),
    )


def srg_params(m: int) -> tuple[int, int, int, int]:
    """(v, k, lambda, mu) of either colour class of Delta_m, lambda = mu."""
    v, k, lam, _ = ds_params(m)
    return (v, k, lam, lam)


# --- seeded relabelling ------------------------------------------------------

def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def random_invertible(rng: np.random.Generator, n: int) -> list[int]:
    """Columns of a uniformly random invertible n x n matrix over GF(2),
    each column packed into an int."""
    while True:
        cols = [int(c) for c in rng.integers(0, 1 << n, size=n)]
        if _gf2_rank(cols) == n:
            return cols


def relabel(values: np.ndarray, cols: list[int]) -> np.ndarray:
    """Truth table of f o A, where A has the given columns: (f o A)(x) = f(Ax)."""
    x = np.arange(values.size, dtype=np.int64)
    image = np.zeros(values.size, dtype=np.int64)
    for j, c in enumerate(cols):
        image ^= ((x >> j) & 1) * c
    return values[image]


def values_hex(values: np.ndarray) -> str:
    """ctwin's "tt:<arity>:<hex>" string for a 0/1 table of length >= 8."""
    n = values.size.bit_length() - 1
    return f"tt:{n}:{np.packbits(values, bitorder='little')[::-1].tobytes().hex()}"


# --- payloads ----------------------------------------------------------------

def graph6(adjacent: np.ndarray) -> bytes:
    """graph6 bytes of the Cayley graph on Z_2^n whose edge set is the set of
    differences d with adjacent[d] true: the upper triangle, column by
    column, six bits per printable byte."""
    n = adjacent.size
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = np.concatenate([adjacent[np.arange(j) ^ j] for j in range(1, n)]).astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=np.uint8)])
    body = bits.reshape(-1, 6) @ _SIX + 63
    return head + body.astype(np.uint8).tobytes()


def edges(adjacent: np.ndarray) -> np.ndarray:
    """Sorted (a, b), a < b, edge array of the same Cayley graph."""
    v = adjacent.size
    x = np.arange(v)
    a, b = np.nonzero(np.triu(adjacent[x[:, None] ^ x[None, :]], 1))
    return np.stack([a, b], axis=1)


def swaps_ok(m: int, maps: list[list[int]]) -> bool:
    """True iff every map is a permutation fixing 0 that sends each red
    edge of Delta_m to a blue one, each blue edge to a red one, and each
    non-edge to a non-edge."""
    v = 1 << (2 * m)
    phi = np.array(maps, dtype=np.int64).reshape(len(maps), -1)
    if phi.shape[1] != v or not maps:
        return False
    if not (np.sort(phi, axis=1) == np.arange(v)).all() or (phi[:, 0] != 0).any():
        return False
    kappa = kappa_values(m)
    x = np.arange(v)
    want = -kappa[x[:, None] ^ x[None, :]]
    got = kappa[phi[:, :, None] ^ phi[:, None, :]]
    return bool((got == want).all())
