"""Truth-table Boolean functions, the Walsh-Hadamard transform, the twin
functions sigma_m / tau_m on 2m bits, and difference counts.

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
table: the CLI writes tables out from it, with the one `tt:` writer
`twins._tt_text` that BoolFunc.hex() also joins, and a BoolFunc holds
its table in it as bytes.  A Python int (`BoolFunc.bits`) is made only
for a caller that asks for one.  BoolFunc, the twin functions, their
tables and difference counts run on the standard library; numpy is
imported by the spectral transforms below (`walsh_transform`, `fwht`,
`is_bent`, `dual`, `tokareva_compose`) on their first call.

Spectra, bentness and duals run through one staged butterfly kernel,
`_fwht(a, dtype)`: the low half of the index bits on a transposed copy,
the high half on the transpose back, both in one wrapping unsigned
type.  It returns H_n a modulo 2^w.  The reduction Z -> Z/2^w keeps
sums, differences and doublings, which is all a butterfly does, so a
caller whose true result lies in a window of 2^w integers reads that
result exactly, whatever the intermediate sums were.  Each caller
states the bits its result needs, and `_ring(bits)` gives the narrowest
of uint16, uint32 and uint64 with as many:

    a spectrum of (-1)^f      in [-2^n, 2^n]       n + 2 bits, read signed
    bentness on n = 2k bits   +-2^k apart, not 0   k + 2 bits (`is_bent`)

Bentness and duals need no spectrum: by Parseval's identity the
residues modulo 2^16 decide them up to n = 28.  The kernel's first
stage reads a packed table a slab of rows at a time, each slab unpacked
straight into its transposed copy as +-1, so no unpacked table is ever
whole.  When n is even the second stage transposes in place, so a
bentness check at n = 24 holds one 32 MB array and the 2 MB packed
table.

Difference counts |S & (S ^ d)| have one kernel of their own, shared by
`verify_difference_set` and `graphs.verify_srg`: `_first_off` checks
them all at once against the spectrum of S's 0/1 indicator, which
`_lane_spectrum` computes in biased 32-bit lanes of one Python int, on
the standard-library bit layer of `twins`: its level masks, and its
walk `_translates` over the XOR translates of a set.  All of it is
exact integer arithmetic, guarded to n <= 30 (`_check_lanes`).

Both twins are bent for every m, with dual(f) = f o P, where P swaps
the two bits of every base-4 digit of the index (digits 1 <-> 2).  The
proof is an induction on the quadrant rules; the checks at m <= 12
(`bent`) and at m = 1..8 (the tests' dual(f) == f o P) are its checked
base.

    The 4-concatenation lemma (Tokareva, "On the number of bent
    functions from iterative constructions", 2011; `tokareva_compose`).
    Let f = (f_0, f_1, f_2, f_3) on 2l + 2 bits, quadrant q (the top
    base-4 digit) holding f_q, each f_q bent on 2l bits.  For the top
    digit b of u = (b, w),

        W_f(b, w) = sum_q (-1)^(b.q) W_(f_q)(w)
                  = 2^l sum_q (-1)^(b.q + f_q*(w)).

    A sum of four signs is +-2 iff an odd number of them is -1, and the
    parity of the -1s is the XOR over q of b.q + f_q*(w), where b.q
    XORs to 0 over the four q.  So f is bent iff f_0* + f_1* + f_2* +
    f_3* = 1 (mod 2) everywhere, and then f*(b, w) is 1 exactly where
    the sum is -2.

    tau.  tau_(l+1) = (tau, sigma, ~sigma, tau) by the quadrant rules.
    By induction its quadrants' duals are (tau P, sigma P, ~sigma P,
    tau P) (a complement's spectrum is the negated spectrum), which XOR
    to 1, so tau_(l+1) is bent.  With t = (-1)^tau(Pw) and
    s = (-1)^sigma(Pw), the sums at b = 0, 1, 2, 3 are 2t, -2s, 2s, 2t,
    so tau_(l+1)* = (tau P, ~sigma P, sigma P, tau P) by top digit.
    P sends the top digit b to 0, 2, 1, 3, so that is tau_(l+1) o P.

    sigma.  sigma_(l+1) = (sigma, ~sigma, sigma, sigma), whose duals
    (sigma P, ~sigma P, sigma P, sigma P) also XOR to 1.  The sums are
    2s, 2s, -2s, 2s, so sigma_(l+1)* = (sigma P, sigma P, ~sigma P,
    sigma P) = sigma_(l+1) o P.

    Base.  sigma_1 and tau_1 mark one index each, 01 and 10, so both
    are bent on 2 bits, and each is the other's dual: sigma_1 o P =
    tau_1.

So both supports are Hadamard difference sets for every m (Dillon,
"Elementary Hadamard difference sets", 1974), and since sigma_m(0) =
tau_m(0) = 0 both Cayley graphs are strongly regular with lambda = mu
(Bernasconi & Codenotti, "Spectral analysis of Boolean functions as a
graph eigenvalue problem", IEEE Trans. Comput., 1999).  `params` checks
both at m <= 8.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .twins import _SPREAD, _level_masks, _translates, _tt_text, _twin_table

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
        return b"".join(_tt_text((self.packed,), self.n, len(self.packed))).decode()

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
    """The packed truth table of f read by `_fwht` as the int8 array
    (-1)^f of its entries.  It offers only what the kernel's first stage takes:
    `size`, `reshape` to (rows, width) and slices of rows, each unpacked
    from just its own bytes when taken, so the table is never unpacked
    whole.  A slice must start at a whole byte, as a slab of _SLAB rows
    does."""

    def __init__(self, f: BoolFunc, shape: tuple[int, int] | None = None):
        self.f = f
        self.size = f.size
        self.shape = shape or (1, self.size)

    def reshape(self, rows: int, width: int) -> _Unpacked:
        return _Unpacked(self.f, (rows, width))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        width = self.shape[1]
        first, count = start * width, (stop - start) * width
        import numpy as np

        packed = np.frombuffer(self.f.packed, np.uint8)[first >> 3 : (first + count + 7) >> 3]
        x = np.unpackbits(packed, count=count, bitorder="little").view(np.int8)
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
    w = _fwht(_Unpacked(f), _ring(f.n + 2))
    return w.view(f"i{w.itemsize}")


def _shifted_residues(f: BoolFunc) -> np.ndarray:
    """W_f + 2^k modulo M = 2^16 (2^32 when k > 14) for n = 2k, so that
    an entry W_f = 2^k reads 2^(k+1) and an entry W_f = -2^k reads 0.
    The ring needs k + 2 bits, so that +-2^k are distinct nonzero
    residues (see `is_bent`)."""
    w = _fwht(_Unpacked(f), _ring(f.n // 2 + 2))
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


# --- difference counts ----------------------------------------------------

# a spectrum lane holds W + 2^31, which stays in [0, 2^32) while
# |W| <= 2^n < 2^31
_BIAS = 1 << 31
_LANE_MAX_N = 30


def _check_lanes(n: int):
    """ValueError unless the difference counts of a set in Z_2^n fit the
    32-bit lanes of `_lane_spectrum`, raised before any mask is built."""
    if n > _LANE_MAX_N:
        raise ValueError(f"difference counts run in 32-bit lanes, for n <= {_LANE_MAX_N}")


def _common(s: int, n: int, d: int) -> int:
    """|S & (S ^ d)| for the set S in Z_2^n held as the bits of s: the
    popcount of s and its one translate T_d, reached by a swap at each
    level k where d has bit k set."""
    t = s
    for k, (run, mask) in enumerate(_level_masks(1 << n)):
        if d >> k & 1:
            t = (t >> run) & mask | (t & mask) << run
    return (s & t).bit_count()


def _lane_spectrum(s: int, n: int) -> int:
    """W_S(u) + 2^31 in lane u of 32 bits, little-endian, of one int, for
    the set S in Z_2^n held as the bits of s, n <= 30: W_S = H_n 1_S,
    the spectrum of S's 0/1 indicator.

    The lanes start as 1_S + 2^31: the bits of s, spread to one byte
    each by the 256-entry table `twins._SPREAD`, go into the low byte of
    every lane by one slice assignment.  At level k each lane i with
    bit k clear (`lo`) meets its partner i + 2^k (`hi`), moved down onto
    it, and the level is the one expression

        (lo + hi - B) | (lo - hi + B) << 32 * 2^k

    on the whole int, B the bias in every lo lane.  After level k every
    entry is at most 2^(k+1) <= 2^n in magnitude, so each lane of the
    sum and of the difference lies in [0, 2^32): the sums are exact
    integers whose base-2^32 digits are the lanes, whatever carries the
    arithmetic made on the way.
    """
    v = 1 << n
    lanes = bytearray(b"\0\0\0\x80" * v)  # 2^31 in each lane, little-endian
    bias = int.from_bytes(lanes, "little")
    lanes[::4] = b"".join(map(_SPREAD.__getitem__, s.to_bytes(_packed_size(n), "little")))[:v]
    a = int.from_bytes(lanes, "little")
    for run, mask in _level_masks(v, 32):
        lo = a & mask
        hi = a >> run & mask
        level_bias = bias & mask
        a = (lo + hi - level_bias) | (lo - hi + level_bias) << run
    return a


def _first_off(s: int, n: int, lam: int, mu: int) -> tuple[int, int] | None:
    """The first difference d != 0 whose count c(d) = |S & (S ^ d)| is
    not lam where d is in S and mu where it is not, as (d, c(d)), or
    None if every count is as asked.  S is the set in Z_2^n held as the
    bits of s, bit d for element d, n <= 30; 0 must not be in S unless
    lam = mu, as for a difference set.

    The spectral criterion (Bernasconi & Codenotti 1999; for difference
    sets, where lam = mu, Dillon 1974).  Let k = |S|, v = 2^n and
    W_S = H_n 1_S.  Every count is as asked iff, for every u,

        W_S(u)^2 = (k - mu) + (lam - mu) W_S(u) + mu v [u = 0].

    Proof.  c = 1_S * 1_S is a convolution on Z_2^n, so H_n c = W_S^2
    (Wiener-Khinchin).  The counts are as asked iff c = mu 1 +
    (lam - mu) 1_S + (k - mu) delta_0: at d = 0 both sides read k
    (c(0) = |S|, and 1_S(0) = 0 unless lam = mu), and at d != 0 the
    right side reads lam on S and mu off it.  H_n is invertible
    (H_n^2 = v I), so c equals that iff their transforms agree, and
    H_n 1 = v delta_0, H_n 1_S = W_S and H_n delta_0 = 1 give the
    right side above.

    At u = 0, where W_S(0) = k, the identity is arithmetic on k, lam,
    mu and v.  At u != 0 it says that W_S(u) is a root of x^2 -
    (lam - mu) x - (k - mu); unless both roots are integers no integer
    passes, and v >= 2 gives some u != 0.  So the check counts the lanes
    of `_lane_spectrum` that hold a root, with C's array.count.  Only a
    rejected S walks its translates T_d (`_translates`) in order, to
    name the first d whose count is off: the one a pairwise count in
    lexicographic order would name.
    """
    _check_lanes(n)
    v = 1 << n
    k = s.bit_count()
    b = lam - mu
    disc = b * b + 4 * (k - mu)
    root = math.isqrt(max(disc, 0))
    if root * root == disc and k * (k - b - 1) + mu == mu * v:
        roots = {(b + root) // 2, (b - root) // 2}  # b and root have one parity
        # the lanes in native order for array, which only counts them
        lanes = array("I", _lane_spectrum(s, n).to_bytes(4 * v, sys.byteorder))
        if sum(lanes.count(_BIAS + r) for r in roots) == v - 1 + (k in roots):
            return None
    for d, t in enumerate(_translates(s, v)):
        common = (s & t).bit_count()
        if d and common != (lam if s >> d & 1 else mu):
            return d, common
    return None


def verify_difference_set(f: BoolFunc) -> DiffSetParams:
    """Check that every nonzero difference occurs as often over support x
    support as difference 1 does, all at once by the spectral criterion
    of `_first_off`; returns the verified (v, k, lam, n).  Guarded to
    n <= 30 (`_check_lanes`), before any work."""
    _check_lanes(f.n)
    v, k = f.size, f.weight()
    if k == 0:
        raise ValueError("support is empty")
    if k == v:
        raise ValueError("support is the whole group")
    s = f.bits
    lam = _common(s, f.n, 1)
    off = _first_off(s, f.n, lam, lam)
    if off:
        g, count = off
        raise ValueError(
            f"not a difference set: difference 1 occurs {lam} times "
            f"but difference {g} occurs {count} times"
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
