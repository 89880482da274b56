"""Signed permutation arithmetic checked against dense integer matrices."""

import random

import pytest

from ctwin import twins
from ctwin.algebra import (
    E1,
    E1E2,
    E2,
    I2,
    SignedPerm,
    SymmetryClass,
    bit_pairs,
    classify,
    gamma,
)

import oracles


# --- dense oracles -----------------------------------------------------

def dense_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def dense_transpose(a):
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def dense_kron(a, b):
    na, nb = len(a), len(b)
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def dense_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_indices(rng, m, count):
    return [rng.randrange(1 << (2 * m)) for _ in range(count)]


# --- generators --------------------------------------------------------

def test_generator_tables():
    assert I2 == SignedPerm((0, 1), (1, 1))
    assert E1 == SignedPerm((1, 0), (1, -1))
    assert E2 == SignedPerm((1, 0), (1, 1))
    # frozen 2x2 product of the displayed E1 and E2 matrices
    assert E1E2 == SignedPerm((0, 1), (-1, 1))


def test_generator_dense_forms():
    assert oracles.dense(E1) == [[0, -1], [1, 0]]
    assert oracles.dense(E2) == [[0, 1], [1, 0]]
    assert oracles.dense(E1E2) == [[-1, 0], [0, 1]]


# --- multiply / transpose ----------------------------------------------

def test_multiply_squares():
    assert E1 * E1 == -SignedPerm.identity(2)
    assert E2 * E2 == SignedPerm.identity(2)
    assert E1E2 * E1E2 == SignedPerm.identity(2)


def test_multiply_inverse_is_transpose():
    for g in (I2, E1, E2, E1E2):
        assert g * g.transpose() == SignedPerm.identity(2)
        assert g.transpose() * g == SignedPerm.identity(2)


def test_multiply_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        E1 * gamma(2, 1)


def test_multiply_matches_dense():
    rng = random.Random(7)
    for m in (1, 2, 3):
        for _ in range(20):
            a = gamma(m, rng.randrange(1 << (2 * m)))
            b = gamma(m, rng.randrange(1 << (2 * m)))
            assert oracles.dense(a * b) == dense_mul(oracles.dense(a), oracles.dense(b))


def test_transpose():
    assert I2.transpose() == I2
    assert E1.transpose() == -E1
    rng = random.Random(11)
    for m in (2, 3):
        for i in random_indices(rng, m, 10):
            g = gamma(m, i)
            assert oracles.dense(g.transpose()) == dense_transpose(oracles.dense(g))
            assert g.transpose().transpose() == g


# --- kron ---------------------------------------------------------------

def test_kron_identity_left():
    g = I2.kron(E1)
    assert oracles.dense(g) == dense_kron(dense_eye(2), oracles.dense(E1))


def test_kron_skew_times_skew_is_symmetric():
    g = E1.kron(E1)
    assert oracles.dense(g) == dense_transpose(oracles.dense(g))


def test_kron_transpose_distributes():
    rng = random.Random(3)
    for _ in range(15):
        a = gamma(2, rng.randrange(16))
        b = gamma(1, rng.randrange(4))
        assert a.kron(b).transpose() == a.transpose().kron(b.transpose())
        assert oracles.dense(a.kron(b)) == dense_kron(oracles.dense(a), oracles.dense(b))


# --- pair indexing ------------------------------------------------------

def test_bit_pairs_roundtrip():
    for m in (1, 2, 3):
        for value in range(1 << (2 * m)):
            digits = bit_pairs(m, value)
            assert len(digits) == m
            assert all(0 <= d <= 3 for d in digits)
            assert sum(d << (2 * k) for k, d in enumerate(reversed(digits))) == value


def test_bit_pairs_range():
    with pytest.raises(ValueError, match="out of range"):
        bit_pairs(1, 4)
    with pytest.raises(ValueError, match="out of range"):
        bit_pairs(2, -1)
    with pytest.raises(ValueError):
        bit_pairs(0, 0)


# --- gamma ---------------------------------------------------------------

def test_gamma_examples():
    assert gamma(1, 2) == E2
    assert gamma(1, 0) == SignedPerm.identity(2)
    assert gamma(2, 0) == SignedPerm.identity(4)
    assert gamma(3, 0) == SignedPerm.identity(8)
    assert gamma(2, 1) == I2.kron(E1)
    assert gamma(2, 0b1000) == E2.kron(I2)


def test_gamma_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        gamma(1, 4)


def test_gamma_orthogonal_and_involutive():
    # symmetric with square I, or skew with square -I; never anything else
    for m in (1, 2, 3):
        n = 1 << m
        eye = SignedPerm.identity(n)
        for i in range(1 << (2 * m)):
            g = gamma(m, i)
            assert g * g.transpose() == eye
            t = g.transpose()
            if t == g:
                assert g * g == eye
            else:
                assert t == -g
                assert g * g == -eye


def test_gamma_commute_or_anticommute():
    for m in (1, 2, 3):
        basis = [gamma(m, i) for i in range(1 << (2 * m))]
        for ga in basis:
            for gb in basis:
                assert ga * gb in (gb * ga, -(gb * ga))


def test_gamma_coset_structure():
    # gamma(a) * gamma(b)^T is gamma(a XOR b) up to sign
    for m in (1, 2, 3):
        basis = [gamma(m, i) for i in range(1 << (2 * m))]
        for a, ga in enumerate(basis):
            for b, gb in enumerate(basis):
                prod = ga * gb.transpose()
                target = basis[a ^ b]
                assert prod in (target, -target)


# --- classify -----------------------------------------------------------

def test_classify_generators():
    assert classify(E1) is SymmetryClass.SKEW
    assert classify(E2) is SymmetryClass.SYMMETRIC_OFF_DIAGONAL
    assert classify(E1E2) is SymmetryClass.DIAGONAL
    for m in (1, 2, 3):
        assert classify(gamma(m, 0)) is SymmetryClass.DIAGONAL


def test_classify_rejects_non_basis():
    lopsided = SignedPerm((1, 2, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="neither symmetric nor skew"):
        classify(lopsided)


def test_classify_diagonal_iff_all_digits_0_or_3():
    for m in (1, 2, 3):
        for i in range(1 << (2 * m)):
            expect_diag = all(d in (0, 3) for d in bit_pairs(m, i))
            got = classify(gamma(m, i)) is SymmetryClass.DIAGONAL
            assert got == expect_diag


def _diagonal_count(m):
    return sum(classify(gamma(m, i)) is SymmetryClass.DIAGONAL for i in range(1 << (2 * m)))


def test_diagonal_count():
    # |D| = 2^m: the diagonal basis matrices, and the zeros of kappa
    for m in (1, 2, 3):
        assert _diagonal_count(m) == 1 << m
    for m in range(1, 9):
        assert twins._delta_kappa(m).count(0) == 1 << m, m


def test_diagonal_count_partition():
    # skew and symmetric-off-diagonal classes have equal size k_m
    for m in (1, 2, 3):
        k = (1 << (2 * m - 1)) - (1 << (m - 1))
        assert 2 * k + _diagonal_count(m) == 1 << (2 * m)


def test_signed_perm_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        SignedPerm((0, 0), (1, 1))
    with pytest.raises(ValueError, match="signs"):
        SignedPerm((0, 1), (1, 2))
    with pytest.raises(ValueError, match="same length"):
        SignedPerm((0, 1), (1,))
