"""Signed permutation matrices and the monomial basis of Rep(R_{m,m}).

The 4^m basis matrices gamma(m, i) of order 2^m are Kronecker products
of the four 2x2 generators I, E1, E2, E1E2, one factor per base-4 digit
of the index (most significant digit leftmost).  Every matrix is kept
as a (permutation, signs) pair, so all arithmetic is exact integer work
on O(2^m) data; nothing here ever builds a dense matrix or touches
floats.

    The Kronecker lemma.  (A (x) B)^T = A^T (x) B^T, so if A^T = eA and
    B^T = dB with e, d = +-1, then (A (x) B)^T = ed (A (x) B).  The
    signed permutation A (x) B sends column (a, b) to row (perm_A a,
    perm_B b), so its permutation is the identity, and the matrix
    diagonal, iff both factors' permutations are.

    The factors.  I is diagonal; E1 is skew; E2 is symmetric and not
    diagonal; E1E2 = diag(-1, 1) is diagonal.  So, for every m, the
    transpose of gamma(m, i) is gamma(m, i) times -1 per digit 1 of i:
    gamma(m, i) is skew iff an odd number of digits of i are 1, which
    is sigma_m(i) = 1.  It is diagonal iff every digit is 0 or 3, which
    is i in D, the zero set of kappa in `ctwin.swap`, with |D| = 2^m.
    Otherwise it is symmetric and not diagonal: sigma_m(i) = 0 and some
    digit is 1 or 2, the closed form of tau_m(i) = 1 in `bent.tau`.
    Since sigma_m = 0 on D, tau_m = 1 + sigma_m + 1_D (mod 2).

    Reading the class of the top digit's factor gives the quadrant rules
    of `ctwin.bent`: I and E1E2 keep the sign and D-membership of the
    rest of the index, so quadrants 0 and 3 repeat sigma_(m-1) and
    tau_(m-1); E1 flips the sign and E2 keeps it, and both leave D, so
    quadrant 1 reads ~sigma_(m-1) and sigma_(m-1), and quadrant 2
    sigma_(m-1) and ~sigma_(m-1), for sigma_m and tau_m.  So the bit
    rules that every command uses are this definition for every m; the
    one assumption left is that `gamma` is the paper's canonical basis,
    which is a definition, not a computation.  `oracle` rebuilds Delta_m
    from these matrices at m <= 4 as a cross-check.
"""

from __future__ import annotations

from enum import Enum

from .twins import _Record, _set


class SymmetryClass(Enum):
    """The three mutually exclusive shapes a basis element can take."""

    SKEW = "skew"
    DIAGONAL = "diagonal"
    SYMMETRIC_OFF_DIAGONAL = "symmetric-off-diagonal"


class SignedPerm(_Record):
    """Monomial matrix M with M[perm[c], c] = signs[c], zero elsewhere.

    perm[c] is the row of the single nonzero entry in column c; signs[c]
    is that entry (+1 or -1).  Instances are immutable and hashable.
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm: tuple[int, ...], signs: tuple[int, ...]):
        _set(self, "perm", perm)
        _set(self, "signs", signs)
        if not (isinstance(perm, tuple) and isinstance(signs, tuple)):
            raise TypeError("perm and signs must be tuples")
        n = len(perm)
        if len(signs) != n:
            raise ValueError("perm and signs must have the same length")
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> SignedPerm:
        return cls(tuple(range(n)), (1,) * n)

    def __mul__(self, other: SignedPerm) -> SignedPerm:
        """Matrix product self * other with exact sign accumulation."""
        if self.n != other.n:
            raise ValueError(f"order mismatch: {self.n} vs {other.n}")
        perm = tuple(self.perm[r] for r in other.perm)
        signs = tuple(
            self.signs[other.perm[c]] * other.signs[c] for c in range(other.n)
        )
        return SignedPerm(perm, signs)

    def __neg__(self) -> SignedPerm:
        return SignedPerm(self.perm, tuple(-s for s in self.signs))

    def transpose(self) -> SignedPerm:
        inv = [0] * self.n
        for c, r in enumerate(self.perm):
            inv[r] = c
        return SignedPerm(tuple(inv), tuple(self.signs[inv[j]] for j in range(self.n)))

    def kron(self, other: SignedPerm) -> SignedPerm:
        """Kronecker product; column (ca*nb + cb) maps to row perm_a[ca]*nb + perm_b[cb]."""
        nb = other.n
        perm = []
        signs = []
        for ca in range(self.n):
            for cb in range(nb):
                perm.append(self.perm[ca] * nb + other.perm[cb])
                signs.append(self.signs[ca] * other.signs[cb])
        return SignedPerm(tuple(perm), tuple(signs))

    def is_identity_perm(self) -> bool:
        return all(r == c for c, r in enumerate(self.perm))


I2 = SignedPerm((0, 1), (1, 1))
E1 = SignedPerm((1, 0), (1, -1))
E2 = SignedPerm((1, 0), (1, 1))
E1E2 = E1 * E2

# base-4 digit -> Kronecker factor, in coset order 0:I, 1:E1, 2:E2, 3:E1E2
_FACTORS = (I2, E1, E2, E1E2)


def bit_pairs(m: int, value: int) -> tuple[int, ...]:
    """Base-4 digits of value, most significant first.

    value is read as a 2m-bit string split into m bit pairs; raises if it
    does not fit in 2m bits.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= value < 1 << (2 * m):
        raise ValueError(f"index {value} out of range for m={m}")
    return tuple((value >> (2 * (m - 1 - k))) & 3 for k in range(m))


def gamma(m: int, i: int) -> SignedPerm:
    """Basis matrix of order 2^m with positive sign, selected by index i.

    The most significant base-4 digit of i picks the leftmost Kronecker
    factor, so gamma(m, 1) = I2^(m-1 factors) kron E1.
    """
    out = None
    for d in bit_pairs(m, i):
        f = _FACTORS[d]
        out = f if out is None else out.kron(f)
    return out


def classify(a: SignedPerm) -> SymmetryClass:
    """Sort a basis element (or a product of two) into its symmetry class.

    Anything that is neither symmetric nor skew is not such a matrix and
    is rejected.
    """
    t = a.transpose()
    if t == -a:
        return SymmetryClass.SKEW
    if t == a:
        if a.is_identity_perm():
            return SymmetryClass.DIAGONAL
        return SymmetryClass.SYMMETRIC_OFF_DIAGONAL
    raise ValueError("matrix is neither symmetric nor skew")
