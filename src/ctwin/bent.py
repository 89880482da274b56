"""Truth-table Boolean functions, the twin functions sigma_m / tau_m on
2m bits, their bentness, and difference counts.

sigma_m(i) is the parity of the number of base-4 digits of i equal to 1;
it marks exactly the indices whose basis matrix is skew.  tau_m marks the
indices whose basis matrix is symmetric but not diagonal, so tau_m = 1 +
sigma_m + 1_D with D the indices whose digits are all 0 or 3; the
Kronecker lemma in the `ctwin.algebra` docstring proves these for every
m.  tau_m satisfies the quadrant recursion on the leading bit pair

    tau_m(00.i) = tau_{m-1}(i)      tau_m(01.i) = sigma_{m-1}(i)
    tau_m(10.i) = sigma_{m-1}(i)+1  tau_m(11.i) = tau_{m-1}(i)

with tau_1 = 1 only on the index 10.  Both are computed from bits alone;
the matrix route exists only as an independent cross-check (see the
oracle command and the test suite).

The twin tables are made by one function, `twins._twin_pieces`, whose
pieces of packed little-endian bytes (entry i at bit i % 8 of byte
i // 8) are at most three bytes objects, sigma_L, ~sigma_L and tau_L of
one level, repeated by the quadrant rules; `twins._twin_table` joins
them.  That
packed form is the only stored form of a truth table: the CLI writes
tables out from the pieces, with the one memo writer of `twins`, which
encodes each distinct piece once, in hex (`twins._tt_text`, which
BoolFunc.hex() also joins over its one piece) or in bits, and a
BoolFunc holds its table in it as bytes.  A Python int
(`BoolFunc.bits`) is made only for a caller that asks for one.
Everything here runs on the standard library.

Every spectrum here comes from one kernel, `_walsh_planes`: the
Walsh-Hadamard transform of a vector of entries in {-1, 0, 1}, held in
two's complement as bit planes, each an int of 2^n bits whose bit u is
one bit of entry u, modulo 2^p for a plane count p.  A level of the
butterfly is a ripple-carry add and a ripple-borrow subtract of whole
planes, by AND, XOR and shifts, so no carry crosses from one entry to
the next, and Z -> Z/2^p keeps both, so the residues are exact whatever
the intermediate entries were.  It runs on the masks of the
standard-library bit layer of `twins` (`_level_masks`), and its
callers ask one spectral question, whether the spectrum of a 0/1 or +-1
vector takes only two values:

- `is_bent` reads W_f modulo 2^(k+1), n = 2k, from the planes of the
  +-1 table, and f is bent iff every entry is 2^k there, by Parseval's
  identity.  A table made of at most _MAX_LEAVES distinct blocks up to
  complement, as the twins are, is factored through the block identity
  below (`_factors`, `_row`), and each distinct row of its spectrum is
  read the same way; any other table, such as the benchmark's
  relabelled tau_10 (1024 distinct blocks), takes the planes of the
  whole table.
- `_first_off`, shared by `verify_difference_set` and
  `graphs.verify_srg`, takes the spectrum of a set's 0/1 indicator
  exactly, in n + 2 planes, and `_two_valued` checks that every entry
  but entry 0 is one of the two roots that the difference counts allow:
  one ripple-carry add of a constant, and an OR of the planes.  The
  walk `_translates` over the XOR translates of the set names the first
  difference whose count is off, for a set that test rejects.

All of it is exact integer arithmetic, and difference counts are
guarded to n <= 30 (`_check_size`).

    The block identity.  Split the index of f on n = hi + lo bits as
    (a, b), a its top hi bits, and call f(a, .) block a.  Suppose every
    block is one of the leaves g_1 .. g_r on lo bits or its complement,
    and let c_j(a) be +1 where block a is g_j, -1 where it is ~g_j, and
    0 elsewhere, so that (-1)^f(a, b) = sum_j c_j(a) (-1)^g_j(b).  Then

        W_f(u_a, u_b) = sum_j (H_hi c_j)(u_a) W_(g_j)(u_b).

    Proof.  u.(a, b) = u_a.a + u_b.b, so W_f(u) = sum_(a, b) (-1)^(f(a, b)
    + u.(a, b)) = sum_j [sum_a c_j(a) (-1)^(u_a.a)] [sum_b (-1)^(g_j(b) +
    u_b.b)]: H_n = H_hi (x) H_lo applied to sum_j c_j (x) (-1)^g_j.
    Every f has this form, with r <= 2^hi, so the identity is exact for
    every f; the 4-concatenation lemma below is its case hi = 2.

    The twins at lo = n // 2.  At even m the split falls between base-4
    digits, with lo/2 digits in b.  sigma counts digits 1 in a and in b,
    so sigma_m(a, b) = sigma(a) + sigma(b): every block is sigma or
    ~sigma on b, r = 1.  By `tau`'s closed form, tau_m(a, b) is
    tau(b) where every digit of a is 0 or 3 (then sigma(a) = 0), and
    otherwise 1 + sigma(a) + sigma(b): the leaves are tau and sigma,
    r = 2.  At odd m the split cuts a digit in two, and r is 2 and 4.

Both twins are bent for every m, with dual(f) = f o P, where P swaps
the two bits of every base-4 digit of the index (digits 1 <-> 2).  The
proof is an induction on the quadrant rules; the checks at m <= 12
(`bent`) and at m = 1..8 (the tests' dual(f) == f o P) are its checked
base.

    The 4-concatenation lemma (Tokareva, "On the number of bent
    functions from iterative constructions", 2011).
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

import itertools
import math
import re

from .twins import _NOT, _SPREAD, _Record, _level_masks, _set, _translates, _tt_text, _twin_table


def _packed_size(n: int) -> int:
    """Bytes in a packed truth table on n bits: one below n = 3."""
    return max(1, (1 << n) >> 3)


class BoolFunc(_Record):
    """Boolean function on n bits, its truth table packed little-endian
    into `packed`: the value at input i is bit i % 8 of byte i // 8.
    Below n = 3 the table is one byte whose bits above entry 2^n - 1
    are 0."""

    __slots__ = ("n", "packed")

    def __init__(self, n: int, packed: bytes):
        _set(self, "n", n)
        _set(self, "packed", packed)
        if n < 1:
            raise ValueError("arity must be >= 1")
        if not isinstance(packed, bytes):
            raise TypeError("the packed truth table must be bytes (BoolFunc.from_bits takes an int)")
        if len(packed) != _packed_size(n) or packed[0] >> self.size:
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
        return b"".join(_tt_text((self.packed,), self.n)).decode()

    @classmethod
    def from_hex(cls, text: str) -> BoolFunc:
        m = re.fullmatch(r"tt:(\d+):([0-9a-f]+)", text)
        if m is None:
            raise ValueError(f"malformed truth table string: {text!r}")
        arity, digits = m.group(1).lstrip("0"), m.group(2)
        # 2^(n - 2) digits from n = 2 on and one at n = 1, so n <= b + 1
        # for b the length's bit count: an arity of more decimal digits
        # is rejected before int() reads it, and a large n before 1 << n
        if len(arity) > len(str(len(digits).bit_length() + 1)):
            raise ValueError("hex payload length does not match the arity")
        n = int(arity or "0")
        if n < 1:
            raise ValueError("arity must be >= 1")
        if len(digits).bit_length() != max(1, n - 1) or len(digits) != ((1 << n) + 3) // 4:
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
    """1 iff the basis matrix for index i is symmetric but not diagonal:
    tau_m(i) = 1 iff sigma_m(i) = 0 and some base-4 digit of i is 1 or 2.

    Proof, by induction on the quadrant rules.  At m = 1 only 10 has
    sigma 0 and a digit 1 or 2.  A top digit 0 or 3 changes neither sigma
    nor the digits' test, and tau keeps the quadrant below; a top digit 1
    or 2 passes the test, and there tau reads sigma and ~sigma of the
    quadrant below, which is ~sigma of the index: digit 1 flips sigma and
    digit 2 keeps it.
    """
    _check_index(m, i)
    low = ((1 << (2 * m)) - 1) // 3  # 0b0101...01, one low bit per pair
    return (1 ^ sigma(m, i)) if (i ^ i >> 1) & low else 0


def sigma_function(m: int) -> BoolFunc:
    """Full truth table of sigma_m as a BoolFunc on 2m bits."""
    return BoolFunc(2 * m, _twin_table(m, "sigma"))


def tau_function(m: int) -> BoolFunc:
    """Full truth table of tau_m as a BoolFunc on 2m bits."""
    return BoolFunc(2 * m, _twin_table(m, "tau"))


# --- the spectrum kernel ---------------------------------------------------

def _plane_sum(x: list[int], y: list[int]) -> list[int]:
    """x + y entry by entry, modulo 2^p, for two lists of p bit planes
    (plane i an int whose bit u is bit i of entry u): a ripple carry
    through the planes, every entry at a time.  The carry out of plane
    p - 1 is dropped."""
    out, carry = [], 0
    for a, b in zip(x, y):
        t = a ^ b
        out.append(t ^ carry)
        carry = b ^ (t & (b ^ carry))  # the majority of (a, b, carry)
    return out


def _walsh_planes(planes: list[int], n: int, p: int) -> list[int]:
    """H_n x modulo 2^p, as p bit planes of 2^n bits, for the vector x
    of 2^n entries in {-1, 0, 1} held in two's complement by the two
    `planes`: [s, 0] for a 0/1 set s, [full, bits] for the +-1 table
    (-1)^f, and [plus | minus, minus] for a 0/+-1 code.  Bit u of plane
    i is bit i of entry u, read modulo 2^p; p = n + 2 holds H_n x
    exactly, and p = k + 1 gives W_f modulo 2^(k+1) for `is_bent`.

    At level j, for (run, M) the j-th item of `twins._level_masks(2^n)`,
    each entry whose index has bit j clear meets its partner run bits
    up, and the level is, plane by plane,

        sum | diff << run,   a = X & M,  b = (X >> run) & M,

    the sum a + b by a ripple carry and the difference a - b by a
    ripple borrow, bit i of the entries at a time (a bitsliced
    butterfly: whole-table AND, XOR and shifts, no carry between
    entries).  After level j every entry lies in [-2^(j+1), 2^(j+1)],
    which j + 3 bits hold in two's complement, so before level j the
    planes grow to min(p, j + 3) by sign extension, and after the last
    they are cut or extended to p.  Once there are p planes, the carry
    and borrow out of the top plane are dropped: Z -> Z/2^p keeps sums
    and differences, so the planes hold H_n x modulo 2^p whatever the
    intermediate entries were.  The planes of two levels, at most 2p
    ints of 2^n bits, are held at once.
    """
    for j, (run, mask) in enumerate(_level_masks(1 << n)):
        level, carry, borrow = [], 0, 0
        for x in planes + [planes[-1]] * (min(p, j + 3) - len(planes)):
            a, b = x & mask, x >> run & mask
            t = a ^ b
            level.append((t ^ carry) | (t ^ borrow) << run)
            # the majorities of (a, b, carry) and (~a, b, borrow)
            carry = b ^ (t & (b ^ carry))
            borrow = b ^ ((t ^ mask) & (b ^ borrow))
        planes = level
    return planes[:p] + [planes[-1]] * (p - len(planes))


def is_bent(f: BoolFunc) -> bool:
    """True iff every spectrum entry has magnitude 2^(n/2).

    Odd arities can never be bent: the magnitude would not be an
    integer.  For n = 2k, f is decided by W_f modulo 2^(k+1): from the
    factors of `_factors` for a table of at most _MAX_LEAVES distinct
    blocks up to complement, as every sigma_m and tau_m is, each
    distinct row once, and otherwise, such as for a twin relabelled by
    an invertible map, from the planes of the whole table,
    `_walsh_planes([full, f.bits], n, k + 1)`.  Both routes stay: the
    factored one costs up to k + 1 plane sums for each distinct row, up
    to 2^k rows, so past _MAX_LEAVES its worst case is slower than the
    whole table's planes, whose cost is the same for every table.

    Lemma.  f is bent iff W_f(u) = 2^k (mod 2^(k+1)) for every u.

    Proof.  A bent f has W_f(u) = +-2^k, which is 2^k modulo 2^(k+1).
    Conversely, each W_f(u) is then an odd multiple of 2^k, so
    |W_f(u)| >= 2^k.  Parseval's identity sum_u W_f(u)^2 = 2^(2n) holds
    for every Boolean function, and its 2^n squares are each at least
    2^(2k) = 2^n, so each equals 2^n: |W_f(u)| = 2^k for every u.

    So the planes below k must be 0 and plane k must be 1 at every
    entry, u = 0 included, in the whole table's planes or in every
    distinct row's.  The factored route takes 0.004 s for tau_12 and
    0.002 s for sigma_11; the whole table's planes take 0.02 s at n =
    20, 0.1 s at n = 22 and 0.4-0.55 s at n = 24 (2 vCPU).
    """
    if f.n & 1:
        return False
    k = f.n // 2
    factors = _factors(f, k + 1)
    if factors is None:
        full = (1 << f.size) - 1
        spectra = [_walsh_planes([full, f.bits], f.n, k + 1)]
    else:
        full, sums, rows = factors
        spectra = (_row(sums, row) for row in set(rows))
    return all(not any(w[:k]) and w[k] == full for w in spectra)


# --- difference sets -------------------------------------------------------

class DiffSetParams(_Record):
    """(v, k, lam, n) difference set parameters with n = k - lam."""

    __slots__ = ("v", "k", "lam", "n")

    def __init__(self, v: int, k: int, lam: int, n: int):
        for name, value in zip(self.__slots__, (v, k, lam, n)):
            _set(self, name, value)
        if n != k - lam:
            raise ValueError("n must equal k - lam")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.n)


# --- difference counts ----------------------------------------------------

# the largest n whose difference counts are checked: their spectrum is
# n + 2 planes of 2^n bits, 4 GB at n = 30, far past any command's m
_SPECTRUM_MAX_N = 30


def _check_size(n: int):
    """ValueError unless the difference counts of a set in Z_2^n are
    within the guard, raised before any mask is built."""
    if n > _SPECTRUM_MAX_N:
        raise ValueError(f"difference counts are guarded to n <= {_SPECTRUM_MAX_N}")


def _common(s: int, n: int, d: int) -> int:
    """|S & (S ^ d)| for the set S in Z_2^n held as the bits of s: the
    popcount of s and T_d, the first item of the walk `_translates`
    started at d, which needs only the d.bit_length() lowest levels."""
    levels = itertools.islice(_level_masks(1 << n), d.bit_length())
    return (s & next(_translates(s, levels, d))).bit_count()


def _two_valued(planes: list[int], n: int, low: int, gap: int) -> bool:
    """True iff every entry u != 0 of the p planes of 2^n bits, read
    modulo 2^p, is low or low + gap, for gap 0 or a power of two: one
    `_plane_sum` adds -low to every entry, and then every plane but
    plane log2(gap) (every plane when gap = 0) must be 0 at every u != 0.
    An entry is 0 or 2^t modulo 2^p exactly where no bit but bit t is
    set among its p bits."""
    full = (1 << (1 << n)) - 1
    shifted = _plane_sum(planes, [full if -low >> i & 1 else 0 for i in range(len(planes))])
    return not any(x >> 1 for i, x in enumerate(shifted) if 1 << i != gap)


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
    passes, and v >= 2 gives some u != 0.  The roots are low and
    low + root, root = sqrt(disc) apart.  When both lie in [-k, k] and
    root is 0 or a power of two, W_S is taken exactly, in n + 2 planes
    (`_walsh_planes([s, 0], n, n + 2)`), and `_two_valued` checks that
    every entry u != 0 holds one of the two roots modulo 2^(n+2).  That
    is exact: at u != 0, |W_S(u)| <= min(k, v - k), since W_S(u) =
    -W_(~S)(u) there (H_n 1 = v delta_0), so W_S(u) is within k +
    min(k, v - k) <= v < 2^(n+2) of each root, and only the root itself
    meets it modulo 2^(n+2).  Otherwise, and for every S that test
    rejects, the walk over the translates T_d (`_translates` from d = 0,
    in natural order) decides, and names the first d whose count is
    off: the one a pairwise count in lexicographic order would name.
    """
    _check_size(n)
    k = s.bit_count()
    b = lam - mu
    disc = b * b + 4 * (k - mu)
    root = math.isqrt(max(disc, 0))
    low = (b - root) // 2  # b and root have one parity
    fits = -k <= low and low + root <= k and root & (root - 1) == 0
    if root * root == disc and k * (k - b - 1) + mu == mu << n and fits:
        if _two_valued(_walsh_planes([s, 0], n, n + 2), n, low, root):
            return None
    for d, t in enumerate(_translates(s, _level_masks(1 << n))):
        common = (s & t).bit_count()
        if d and common != (lam if s >> d & 1 else mu):
            return d, common
    return None


# --- bentness through a table's distinct blocks ---------------------------

# the most distinct blocks, up to complement, that `is_bent` factors a
# table through; a table with more goes to the whole table's planes.
# The twins need 4 (tau_m at odd m).  At n = 24 with 4 leaves, the worst
# case, 4094 distinct rows, took 0.48 s, against 0.40-0.55 s for the
# whole table's planes (2 vCPU), so more leaves would cost more than the
# planes
_MAX_LEAVES = 4


def _factors(f: BoolFunc, p: int) -> tuple[int, list[list[int]], list[str]] | None:
    """W_f modulo 2^p factored through the blocks of f, as (full, sums,
    rows), full the mask of a block's 2^lo entries, or None if f has
    more than _MAX_LEAVES distinct blocks up to complement.

    Block a holds entries a 2^lo .. (a + 1) 2^lo - 1, lo = n // 2 (lo = n,
    one block, below n = 6, where a block would be less than a byte).
    Each block is one of the leaves g_j or its complement, found by one
    dict lookup, and c_j(a) is +1 where block a is g_j, -1 where it is
    ~g_j and 0 elsewhere.  With hi = n - lo, r_j = H_hi c_j and every
    spectrum held modulo 2^p in p planes by `_walsh_planes`, sums[J] is
    the sum of W_(g_j) over the leaves j in the set J, a bit mask of
    leaves, and rows[u_a] the p hex digits J_(p-1) .. J_0, J_i the
    leaves j whose r_j(u_a) has bit i set: the binary text of a plane
    of r_j, read in base 16, puts bit u_a at hex digit u_a.  By the block
    identity of the module docstring and Z -> Z/2^p,

        W_f(u_a, .) = sum_j r_j(u_a) W_(g_j) = sum_i 2^i sums[J_i],

    which `_row` adds up.
    """
    lo = f.n // 2 if f.n >= 6 else f.n
    width = max(1, (1 << lo) >> 3)
    found = {}  # a block -> 2j if it is leaf j, 2j + 1 if it is ~leaf j
    codes = bytearray()
    for start in range(0, len(f.packed), width):
        block = f.packed[start : start + width]
        if block not in found:
            if len(found) == 2 * _MAX_LEAVES:
                return None
            found[block], found[block.translate(_NOT)] = len(found), len(found) + 1
        codes.append(found[block])
    full = (1 << (1 << lo)) - 1
    sums = [[0] * p]
    for g in list(found)[::2]:
        leaf = _walsh_planes([full, int.from_bytes(g, "little")], lo, p)
        sums += [_plane_sum(s, leaf) for s in sums]
    # the blocks of code c as the bits of an int, read from "0"/"1" text
    marks = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(len(found))]
    columns = [0] * p  # hex digit u_a of column i is J_i of row u_a
    for j in range(len(found) // 2):
        plus, minus = (int(codes.translate(t)[::-1], 2) for t in marks[2 * j : 2 * j + 2])
        for i, plane in enumerate(_walsh_planes([plus | minus, minus], f.n - lo, p)):
            columns[i] |= int(format(plane, "b"), 16) << j
    digits = (format(c, f"0{len(codes)}x")[::-1] for c in reversed(columns))
    return full, sums, list(map("".join, zip(*digits)))


def _row(sums: list[list[int]], row: str) -> list[int]:
    """sum_i 2^i sums[J_i] modulo 2^p for the row J_(p-1) .. J_0 of
    `_factors`, by Horner's rule: a shift of the planes by one (a
    product by 2) and one `_plane_sum` per digit."""
    total = sums[0]
    for digit in row:
        total = _plane_sum([0] + total[:-1], sums[int(digit, 16)])
    return total


def verify_difference_set(f: BoolFunc) -> DiffSetParams:
    """Check that every nonzero difference occurs as often over support x
    support as difference 1 does, all at once by the spectral criterion
    of `_first_off`; returns the verified (v, k, lam, n).  Guarded to
    n <= 30 (`_check_size`), before any work."""
    _check_size(f.n)
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
