"""Truth-table Boolean functions, the Walsh-Hadamard transform, and the
twin functions sigma_m / tau_m on 2m bits.

sigma_m(i) is the parity of the number of base-4 digits of i equal to 1;
it marks exactly the indices whose basis matrix is skew.  tau_m marks the
indices whose basis matrix is symmetric but not diagonal and satisfies
the quadrant recursion on the leading bit pair

    tau_m(00.i) = tau_{m-1}(i)      tau_m(01.i) = sigma_{m-1}(i)
    tau_m(10.i) = sigma_{m-1}(i)+1  tau_m(11.i) = tau_{m-1}(i)

with tau_1 = 1 only on the index 10.  Both are computed from bits alone;
the matrix route exists only as an independent cross-check (see the
oracle command and the test suite).

Truth tables are packed one bit per entry into a Python int, so tables
stay exact and cheap up to tens of millions of entries.  Every transform
(spectra, bentness, duals, difference-set counts) runs through one in-place
int64 butterfly over the unpacked table; spectra are bounded by 2^n and
autocorrelations by 4^n, so all of it is exact integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BoolFunc:
    """Boolean function on n bits; bit i of `bits` is the value at input i."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("arity must be >= 1")
        if not 0 <= self.bits < 1 << (1 << self.n):
            raise ValueError("truth table does not fit the declared arity")

    @property
    def size(self) -> int:
        return 1 << self.n

    def __call__(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise ValueError(f"input {i} out of range for arity {self.n}")
        return (self.bits >> i) & 1

    def table(self) -> list[int]:
        return _unpack(self).tolist()

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.table()) if b)

    def complement(self) -> BoolFunc:
        return BoolFunc(self.n, self.bits ^ ((1 << self.size) - 1))

    def __xor__(self, other: BoolFunc) -> BoolFunc:
        if self.n != other.n:
            raise ValueError("arity mismatch")
        return BoolFunc(self.n, self.bits ^ other.bits)

    @classmethod
    def from_values(cls, n: int, values) -> BoolFunc:
        vals = list(values)
        if any(v not in (0, 1) for v in vals):
            raise ValueError("truth table entries must be 0 or 1")
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} entries, got {len(vals)}")
        return cls(n, int("".join("01"[v] for v in reversed(vals)), 2))

    def hex(self) -> str:
        """Serialize as "tt:<arity>:<hex>", highest-index entry first."""
        width = (self.size + 3) // 4
        return f"tt:{self.n}:{self.bits:0{width}x}"

    @classmethod
    def from_hex(cls, text: str) -> BoolFunc:
        m = re.fullmatch(r"tt:(\d+):([0-9a-f]+)", text)
        if m is None:
            raise ValueError(f"malformed truth table string: {text!r}")
        n = int(m.group(1))
        if n < 1:
            raise ValueError("arity must be >= 1")
        if len(m.group(2)) != ((1 << n) + 3) // 4:
            raise ValueError("hex payload length does not match the arity")
        return cls(n, int(m.group(2), 16))


# --- the twin functions --------------------------------------------------

def _check_index(m: int, i: int):
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= i < 1 << (2 * m):
        raise ValueError(f"index {i} out of range for m={m}")


def sigma(m: int, i: int) -> int:
    """1 iff an odd number of base-4 digits of i equal 1."""
    _check_index(m, i)
    low = ((1 << (2 * m)) - 1) // 3  # 0b0101...01, one low bit per pair
    ones = i & ~(i >> 1) & low
    return ones.bit_count() & 1


def tau(m: int, i: int) -> int:
    """1 iff the basis matrix for index i is symmetric but not diagonal.

    Evaluated by peeling the leading bit pair; never touches matrices.
    """
    _check_index(m, i)
    while m > 1:
        m -= 1
        pair = i >> (2 * m)
        i &= (1 << (2 * m)) - 1
        if pair == 1:
            return sigma(m, i)
        if pair == 2:
            return sigma(m, i) ^ 1
    return 1 if i == 2 else 0


@lru_cache(maxsize=None)
def _sigma_bits(m: int) -> int:
    if m == 1:
        return 0b0010
    prev = _sigma_bits(m - 1)
    q = 1 << (2 * m - 2)
    flipped = prev ^ ((1 << q) - 1)
    return prev | (flipped << q) | (prev << (2 * q)) | (prev << (3 * q))


@lru_cache(maxsize=None)
def _tau_bits(m: int) -> int:
    if m == 1:
        return 0b0100
    t, s = _tau_bits(m - 1), _sigma_bits(m - 1)
    q = 1 << (2 * m - 2)
    flipped = s ^ ((1 << q) - 1)
    return t | (s << q) | (flipped << (2 * q)) | (t << (3 * q))


def sigma_function(m: int) -> BoolFunc:
    """Full truth table of sigma_m as a BoolFunc on 2m bits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return BoolFunc(2 * m, _sigma_bits(m))


def tau_function(m: int) -> BoolFunc:
    """Full truth table of tau_m as a BoolFunc on 2m bits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return BoolFunc(2 * m, _tau_bits(m))


# --- Walsh-Hadamard transform ---------------------------------------------

def _unpack(f: BoolFunc) -> np.ndarray:
    """The truth table as a uint8 array, entry i at index i."""
    raw = np.frombuffer(f.bits.to_bytes((f.size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=f.size, bitorder="little")


def _fwht(a: np.ndarray) -> np.ndarray:
    """Butterflies by the Sylvester matrix, in place on an int64 array of
    power-of-two length.  Exact while every partial sum, doubled, stays
    below 2^63; callers bound their inputs accordingly."""
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0], pairs[:, 1]
        x += y
        y *= -2
        y += x  # (x + y) - 2y = x - y
        h *= 2
    return a


def _spectrum(f: BoolFunc) -> np.ndarray:
    a = _unpack(f).astype(np.int64)
    a *= -2
    a += 1
    return _fwht(a)


def fwht(values) -> list[int]:
    """Transform by the Sylvester matrix H_n, as exact integers.

    Length must be a power of two, and max|x| * length must stay below
    2^62 so that no int64 partial sum can overflow.
    """
    vec = list(values)
    n = len(vec)
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a positive power of two")
    if max(map(abs, vec)) * n >= 1 << 62:
        raise ValueError("values too large for exact int64 arithmetic")
    return _fwht(np.array(vec, dtype=np.int64)).tolist()


def walsh_transform(f: BoolFunc) -> list[int]:
    """Spectrum H_n * (-1)^f as exact integers."""
    return _spectrum(f).tolist()


def is_bent(f: BoolFunc) -> bool:
    """True iff every spectrum entry has magnitude 2^(n/2).

    Odd arities can never be bent: the magnitude would not be an integer.
    """
    if f.n & 1:
        return False
    return bool((np.abs(_spectrum(f)) == 1 << (f.n // 2)).all())


def dual(f: BoolFunc) -> BoolFunc:
    """The bent function read off the spectrum signs of a bent f."""
    if f.n & 1:
        raise ValueError("input not bent: odd arity")
    spectrum = _spectrum(f)
    off = np.flatnonzero(np.abs(spectrum) != 1 << (f.n // 2))
    if off.size:
        i = int(off[0])
        raise ValueError(f"input not bent: spectrum entry {spectrum[i]} at {i}")
    signs = np.packbits(spectrum < 0, bitorder="little")
    return BoolFunc(f.n, int.from_bytes(signs.tobytes(), "little"))


def tokareva_compose(f0: BoolFunc, f1: BoolFunc, f2: BoolFunc, f3: BoolFunc) -> BoolFunc:
    """Glue four bent functions into one on two more bits, quadrant k
    (the leading bit pair) taking the table of f_k.

    The result is bent whenever the four duals XOR to the all-ones
    function; anything else is rejected before composing.
    """
    parts = (f0, f1, f2, f3)
    arity = f0.n
    if any(f.n != arity for f in parts):
        raise ValueError("arity mismatch among the four quadrant functions")
    duals = []
    for k, f in enumerate(parts):
        try:
            duals.append(dual(f))
        except ValueError as e:
            raise ValueError(f"quadrant f{k} is not bent ({e})") from None
    acc = duals[0] ^ duals[1] ^ duals[2] ^ duals[3]
    if acc.bits != (1 << acc.size) - 1:
        raise ValueError("dual-sum condition violated: duals do not XOR to 1")
    q = f0.size
    bits = f0.bits | (f1.bits << q) | (f2.bits << (2 * q)) | (f3.bits << (3 * q))
    return BoolFunc(arity + 2, bits)


# --- difference sets -------------------------------------------------------

@dataclass(frozen=True)
class DiffSetParams:
    """(v, k, lam, n) difference set parameters with n = k - lam."""

    v: int
    k: int
    lam: int
    n: int

    def __post_init__(self):
        if self.n != self.k - self.lam:
            raise ValueError("n must equal k - lam")

    @property
    def is_hadamard(self) -> bool:
        return self.v == 4 * self.n

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.n)


def _autocorrelation(indicator: np.ndarray) -> np.ndarray:
    """counts[d] = |S & (S ^ d)| for the set S in Z_2^n marked by a 0/1
    array of length v = 2^n, so counts[0] = |S|.

    Wiener-Khinchin: the transform of the squared spectrum W_S^2 is v times
    the autocorrelation.  The first pass is bounded by |W_S| <= v.  The
    second sums terms W_S^2 >= 0 whose total is v * |S| <= 4^n (Parseval),
    so every partial sum, doubled, stays below 2^63 for n <= 30.
    """
    v = indicator.size
    a = _fwht(indicator.astype(np.int64))
    a *= a
    counts, rest = np.divmod(_fwht(a), v)
    if rest.any():
        raise RuntimeError("autocorrelation transform not divisible by v")
    return counts


def verify_difference_set(f: BoolFunc) -> DiffSetParams:
    """Count every nonzero difference over support x support, all at once
    by autocorrelation, and demand a constant; returns the verified
    (v, k, lam, n)."""
    v, k = f.size, f.weight()
    if k == 0:
        raise ValueError("support is empty")
    if k == v:
        raise ValueError("support is the whole group")
    counts = _autocorrelation(_unpack(f))
    lam = int(counts[1])
    off = np.flatnonzero(counts[1:] != lam)
    if off.size:
        g = int(off[0]) + 1
        raise ValueError(
            f"not a difference set: difference 1 occurs {lam} times "
            f"but difference {g} occurs {counts[g]} times"
        )
    return DiffSetParams(v, k, lam, k - lam)


def predicted_params(m: int) -> DiffSetParams:
    """Closed-form Hadamard parameters (4^m, 2^{2m-1}-2^{m-1}, 2^{2m-2}-2^{m-1}, 2^{2m-2})."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return DiffSetParams(
        1 << (2 * m),
        (1 << (2 * m - 1)) - (1 << (m - 1)),
        (1 << (2 * m - 2)) - (1 << (m - 1)),
        1 << (2 * m - 2),
    )
