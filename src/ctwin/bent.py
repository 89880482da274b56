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

The twin tables have one builder, `twins._twin_table`, which joins
whole byte quadrants of packed little-endian bytes (entry i at bit i % 8
of byte i // 8).  That packed form is the only stored form of a truth
table: the CLI writes tables out from it, with the one hex rule
`twins._hex_digits` that BoolFunc.hex() also uses, and a BoolFunc holds
its table in it as bytes.  A Python int (`BoolFunc.bits`) is made only
for a caller that asks for one.  BoolFunc, the twin functions and their
tables run on the standard library; numpy is imported by the transforms
below on their first call.

Every transform (spectra, bentness, duals, difference-set counts) runs
through one staged butterfly kernel, `_fwht(a, dtype)`: the low half of
the index bits on a transposed copy, the high half on the transpose
back, both in one wrapping unsigned type.  It returns H_n a modulo 2^w.
The reduction Z -> Z/2^w keeps sums, differences and doublings, which
is all a butterfly does, so a caller whose true result lies in a window
of 2^w integers reads that result exactly, whatever the intermediate
sums were.  Each caller states the bits its result needs, and
`_ring(bits)` gives the narrowest of uint16, uint32 and uint64 with as
many:

    a spectrum of (-1)^f      in [-2^n, 2^n]       n + 2 bits, read signed
    bentness on n = 2k bits   +-2^k apart, not 0   k + 2 bits (`is_bent`)
    v * autocorrelation       in [0, 4^n]          2n + 1 bits

Bentness and duals need no spectrum: by Parseval's identity the
residues modulo 2^16 decide them up to n = 28.  The kernel's first
stage reads a packed table a slab of rows at a time, each slab unpacked
straight into its transposed copy, as +-1 for spectra and residues and
as 0/1 for autocorrelations, so no unpacked table is ever whole.  When
n is even the second stage transposes in place, so a bentness check at
n = 24 holds one 32 MB array and the 2 MB packed table.  All of it is
exact integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .twins import _SPREAD, _hex_digits, _twin_table

if TYPE_CHECKING:
    import numpy as np


def _packed_size(n: int) -> int:
    """Bytes in a packed truth table on n bits: one below n = 3."""
    return max(1, (1 << n) >> 3)


@dataclass(frozen=True)
class BoolFunc:
    """Boolean function on n bits, its truth table packed little-endian
    into `packed`: the value at input i is bit i % 8 of byte i // 8.
    Below n = 3 the table is one byte whose bits above entry 2^n - 1
    are 0."""

    n: int
    packed: bytes

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("arity must be >= 1")
        if not isinstance(self.packed, bytes):
            raise TypeError("the packed truth table must be bytes (BoolFunc.from_bits takes an int)")
        if len(self.packed) != _packed_size(self.n) or self.packed[0] >> self.size:
            raise ValueError("truth table does not fit the declared arity")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def bits(self) -> int:
        """The truth table as a Python int, bit i the value at input i,
        made anew on each call."""
        return int.from_bytes(self.packed, "little")

    def __call__(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise ValueError(f"input {i} out of range for arity {self.n}")
        return (self.packed[i >> 3] >> (i & 7)) & 1

    def table(self) -> list[int]:
        return list(b"".join(map(_SPREAD.__getitem__, self.packed))[: self.size])

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: BoolFunc) -> BoolFunc:
        if self.n != other.n:
            raise ValueError("arity mismatch")
        return BoolFunc.from_bits(self.n, self.bits ^ other.bits)

    @classmethod
    def from_bits(cls, n: int, bits: int) -> BoolFunc:
        """From a Python int whose bit i is the value at input i."""
        if n < 1:
            raise ValueError("arity must be >= 1")
        if bits < 0 or bits.bit_length() > 1 << n:
            raise ValueError("truth table does not fit the declared arity")
        return cls(n, bits.to_bytes(_packed_size(n), "little"))

    @classmethod
    def from_values(cls, n: int, values) -> BoolFunc:
        vals = list(values)
        if any(v not in (0, 1) for v in vals):
            raise ValueError("truth table entries must be 0 or 1")
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} entries, got {len(vals)}")
        # binary text, highest entry first
        return cls.from_bits(n, int("".join("1" if v else "0" for v in reversed(vals)), 2))

    def hex(self) -> str:
        """Serialize as "tt:<arity>:<hex>", highest-index entry first."""
        digits = _hex_digits(self.packed, self.n, len(self.packed))
        return f"tt:{self.n}:" + b"".join(digits).decode()

    @classmethod
    def from_hex(cls, text: str) -> BoolFunc:
        m = re.fullmatch(r"tt:(\d+):([0-9a-f]+)", text)
        if m is None:
            raise ValueError(f"malformed truth table string: {text!r}")
        n = int(m.group(1))
        if n < 1:
            raise ValueError("arity must be >= 1")
        digits = m.group(2)
        if len(digits) != ((1 << n) + 3) // 4:
            raise ValueError("hex payload length does not match the arity")
        # one digit below n = 3, read as a byte
        return cls(n, bytes.fromhex(digits.zfill(2))[::-1])


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


def sigma_function(m: int) -> BoolFunc:
    """Full truth table of sigma_m as a BoolFunc on 2m bits."""
    return BoolFunc(2 * m, _twin_table(m, "sigma"))


def tau_function(m: int) -> BoolFunc:
    """Full truth table of tau_m as a BoolFunc on 2m bits."""
    return BoolFunc(2 * m, _twin_table(m, "tau"))


# --- Walsh-Hadamard transform ---------------------------------------------

def _ring(bits: int):
    """The narrowest of uint16, uint32 and uint64 with at least `bits`
    bits: the ring Z/2^w in which `_fwht` reads a result that lies in a
    window of 2^bits integers."""
    import numpy as np

    for dtype in (np.uint16, np.uint32, np.uint64):
        if bits <= np.iinfo(dtype).bits:
            return dtype
    raise ValueError(f"no unsigned type has {bits} bits")


# Source rows per slab of a transposing copy, and the side of the tiles
# an in-place transpose swaps.  Copying a whole transpose at once reads
# the source one row-stride apart and misses the cache on almost every
# entry; in slabs each source line is read once (at n = 24, 0.11-0.12 s
# -> 0.03-0.04 s per copy on 2 vCPU).
_SLAB = 128


def _transpose_square(x: np.ndarray):
    """Transpose a square array in place by swapping _SLAB x _SLAB tiles
    across the diagonal; only one tile is ever copied aside."""
    size = x.shape[0]
    for i in range(0, size, _SLAB):
        diagonal = x[i : i + _SLAB, i : i + _SLAB]
        diagonal[...] = diagonal.T.copy()
        for j in range(i + _SLAB, size, _SLAB):
            upper = x[i : i + _SLAB, j : j + _SLAB]
            lower = x[j : j + _SLAB, i : i + _SLAB]
            tile = upper.T.copy()
            upper[...] = lower.T
            lower[...] = tile


class _Unpacked:
    """The packed truth table of f read by `_fwht` as the integer array
    of its entries: (-1)^f as int8 with signs set, f as uint8 0/1
    without.  It offers only what the kernel's first stage takes:
    `size`, `reshape` to (rows, width) and slices of rows, each unpacked
    from just its own bytes when taken, so the table is never unpacked
    whole.  A slice must start at a whole byte, as a slab of _SLAB rows
    does."""

    def __init__(self, f: BoolFunc, signs: bool, shape: tuple[int, int] | None = None):
        self.f, self.signs = f, signs
        self.size = f.size
        self.shape = shape or (1, self.size)

    def reshape(self, rows: int, width: int) -> _Unpacked:
        return _Unpacked(self.f, self.signs, (rows, width))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        width = self.shape[1]
        first, count = start * width, (stop - start) * width
        import numpy as np

        packed = np.frombuffer(self.f.packed, np.uint8)[first >> 3 : (first + count + 7) >> 3]
        x = np.unpackbits(packed, count=count, bitorder="little")
        if self.signs:
            x = x.view(np.int8)
            x *= -2
            x += 1
        return x.reshape(-1, width)


def _fwht(a: np.ndarray | _Unpacked, dtype) -> np.ndarray:
    """H_n a modulo 2^w, in the w-bit unsigned `dtype`, for an integer
    array a of length 2^n or an `_Unpacked` table read as one.

    The reduction Z -> Z/2^w keeps sums, differences and doublings, and
    a butterfly does nothing else (u += w; w *= 2; w = u - w), so the
    result is H_n a modulo 2^w whatever the intermediate entries were.
    A caller whose true result lies in a window of 2^w integers reads it
    exactly: a signed view of the result when the window is centred on
    0, the result itself when it starts at 0.  The caller picks `dtype`
    with `_ring` from that bound; there is no other mode.  Entries of a
    are taken modulo 2^w as they are copied in, so -1 reads 2^w - 1.

    H_n = H_hi (x) H_lo splits the index into lo = n - n//2 low bits and
    hi = n//2 high ones (Fino-Algazi).  The lo levels run on a transposed
    (2^lo, 2^hi) copy and the hi levels on the (2^hi, 2^lo) transpose
    back, so every level adds and subtracts contiguous runs of at least
    2^hi entries.  The first stage copies slab by slab, so the caller's
    array is never written, an `_Unpacked` table is unpacked one slab at
    a time, and the input is dropped once that copy is made: a caller
    that passes a temporary gets its memory back at once.  When n is
    even the matrix is square and the second stage transposes the
    kernel's own array in place.
    """
    import numpy as np

    n = a.size.bit_length() - 1
    hi = n // 2
    lo = n - hi
    x = a.reshape(1 << hi, 1 << lo)
    del a
    for second, levels in enumerate((lo, hi)):
        if second and hi == lo:
            _transpose_square(x)
        else:
            t = np.empty(x.shape[::-1], dtype)
            for r in range(0, x.shape[0], _SLAB):
                t[:, r : r + _SLAB] = x[r : r + _SLAB].T
            x = t
        run = x.shape[1]
        for _ in range(levels):
            pairs = x.reshape(-1, 2, run)
            u, w = pairs[:, 0], pairs[:, 1]
            u += w
            w *= 2
            np.subtract(u, w, out=w)  # (u + w) - 2w = u - w
            run *= 2
    return x.reshape(-1)


def _spectrum(f: BoolFunc) -> np.ndarray:
    """W_f = H_n (-1)^f as signed integers: |W_f| <= 2^n, so n + 2 bits
    hold it (int16 up to n = 14, int32 up to n = 30)."""
    w = _fwht(_Unpacked(f, signs=True), _ring(f.n + 2))
    return w.view(f"i{w.itemsize}")


def _shifted_residues(f: BoolFunc) -> np.ndarray:
    """W_f + 2^k modulo M = 2^16 (2^32 when k > 14) for n = 2k, so that
    an entry W_f = 2^k reads 2^(k+1) and an entry W_f = -2^k reads 0.
    The ring needs k + 2 bits, so that +-2^k are distinct nonzero
    residues (see `is_bent`)."""
    w = _fwht(_Unpacked(f, signs=True), _ring(f.n // 2 + 2))
    w += 1 << (f.n // 2)
    return w


def fwht(values) -> list[int]:
    """Transform by the Sylvester matrix H_n, as exact integers.

    Length must be a power of two, and max|x| * length must stay below
    2^62, so that the result, read signed, fits int64.
    """
    vec = list(values)
    n = len(vec)
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a positive power of two")
    bound = max(map(abs, vec)) * n
    if bound >= 1 << 62:
        raise ValueError("values too large for exact int64 arithmetic")
    import numpy as np

    # every result entry lies in [-bound, bound], which a signed view holds
    w = _fwht(np.array(vec, dtype=np.int64), _ring(bound.bit_length() + 1))
    return w.view(f"i{w.itemsize}").tolist()


def walsh_transform(f: BoolFunc) -> list[int]:
    """Spectrum H_n * (-1)^f as exact integers."""
    return _spectrum(f).tolist()


def is_bent(f: BoolFunc) -> bool:
    """True iff every spectrum entry has magnitude 2^(n/2).

    Odd arities can never be bent: the magnitude would not be an
    integer.  For n = 2k the residues of the spectrum modulo the M =
    2^w of `_shifted_residues` (2^16 up to k = 14), where 2^(k+1) < M,
    decide it exactly:

    Lemma.  f is bent iff W_f(u) = +-2^k (mod M) for every u.

    Proof.  A bent f has W_f(u) = +-2^k.  Conversely, if W_f(u) =
    +-2^k + jM for an integer j, then |W_f(u)| >= min(2^k, M - 2^k) =
    2^k, since 2^(k+1) < M.  Parseval's identity sum_u W_f(u)^2 = 2^(2n)
    holds for every Boolean function, and its 2^n squares are each at
    least 2^(2k) = 2^n, so each equals 2^n: |W_f(u)| = 2^k for every u.

    The residues are shifted by r = 2^k, so that r reads 2r and -r reads
    0, and bit 2r is cleared: f is bent iff nothing is left.
    """
    if f.n & 1:
        return False
    import numpy as np

    w = _shifted_residues(f)
    w &= np.iinfo(w.dtype).max ^ (2 << (f.n // 2))
    return not w.any()


def dual(f: BoolFunc) -> BoolFunc:
    """The bent function read off the spectrum signs of a bent f.

    Bentness is decided on the residues as in `is_bent`; a sign is
    negative where the shifted residue is 0.  Only a function that is
    not bent pays for the exact spectrum, to name its first entry of
    the wrong magnitude.
    """
    if f.n & 1:
        raise ValueError("input not bent: odd arity")
    import numpy as np

    w = _shifted_residues(f)
    negative = w == 0
    w &= np.iinfo(w.dtype).max ^ (2 << (f.n // 2))
    if w.any():
        spectrum = _spectrum(f)
        i = int(np.flatnonzero(np.abs(spectrum) != 1 << (f.n // 2))[0])
        raise ValueError(f"input not bent: spectrum entry {int(spectrum[i])} at {i}")
    return BoolFunc(f.n, np.packbits(negative, bitorder="little").tobytes())


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
    if acc.weight() != acc.size:
        raise ValueError("dual-sum condition violated: duals do not XOR to 1")
    q = f0.size
    bits = f0.bits | (f1.bits << q) | (f2.bits << (2 * q)) | (f3.bits << (3 * q))
    return BoolFunc.from_bits(arity + 2, bits)


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


def _autocorrelation(indicator: np.ndarray | _Unpacked) -> np.ndarray:
    """counts[d] = |S & (S ^ d)| for the set S in Z_2^n marked by a 0/1
    array of length v = 2^n, or by an `_Unpacked` table without signs,
    so counts[0] = |S|, as unsigned integers.

    Wiener-Khinchin: the transform of the squared spectrum W_S^2 is v
    times the autocorrelation, and v * counts[d] lies in [0, v * |S|],
    within [0, 4^n].  So one ring of 2n + 1 bits holds the result, and
    both passes and the squaring between them run in it: the reduction
    modulo 2^w keeps products too, so W_S^2 modulo 2^w is the square of
    W_S modulo 2^w, however large W_S^2 is.  The low n bits of each
    entry must then be 0, and counts is the rest.
    """
    n = indicator.size.bit_length() - 1
    dtype = _ring(2 * n + 1)
    counts = _fwht(indicator, dtype)
    counts *= counts
    counts = _fwht(counts, dtype)
    if (counts & ((1 << n) - 1)).any():
        raise RuntimeError("autocorrelation transform not divisible by v")
    return counts >> n


def verify_difference_set(f: BoolFunc) -> DiffSetParams:
    """Count every nonzero difference over support x support, all at once
    by autocorrelation, and demand a constant; returns the verified
    (v, k, lam, n)."""
    v, k = f.size, f.weight()
    if k == 0:
        raise ValueError("support is empty")
    if k == v:
        raise ValueError("support is the whole group")
    import numpy as np

    counts = _autocorrelation(_Unpacked(f, signs=False))
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
