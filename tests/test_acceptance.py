"""End-to-end acceptance checks, one test per criterion.

Every check is exact (integer equality, zero tolerance); the stated wall
clock budgets are asserted where given.  Run with `-s` to see one
PASS line per criterion.  The m=4 exhaustion run takes hours and only
executes when CTWIN_EXTENDED=1 is set.
"""

import os
import time

import pytest

from ctwin.algebra import SymmetryClass, classify, gamma
from ctwin.bent import (
    is_bent,
    predicted_params,
    sigma,
    sigma_function,
    tau,
    tau_function,
    verify_difference_set,
)
from ctwin.graphs import BLUE, RED, build_delta, oracle_build_delta, predicted_srg_params, verify_srg
from ctwin.swap import SearchStatus, search_swap, verify_swap

import oracles


def extended(test):
    """Mark a long run for `-m extended`; it runs only with CTWIN_EXTENDED=1."""
    skip = pytest.mark.skipif(
        os.environ.get("CTWIN_EXTENDED") != "1",
        reason="extended suite only (set CTWIN_EXTENDED=1); the m=4 exhaustion takes hours",
    )
    return pytest.mark.extended(skip(test))


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_bentness_m1_to_m5():
    start = time.monotonic()
    for m in range(1, 6):
        assert is_bent(sigma_function(m)), f"sigma_{m} must be bent"
        assert is_bent(tau_function(m)), f"tau_{m} must be bent"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"bentness checks took {elapsed:.3f}s, budget 1s"
    _passed("bentness of sigma_m and tau_m, m=1..5")


def test_difference_set_parameters_m1_to_m4():
    start = time.monotonic()
    for m in range(1, 5):
        expect = predicted_params(m)
        assert expect.as_tuple() == (
            4**m,
            2 ** (2 * m - 1) - 2 ** (m - 1),
            2 ** (2 * m - 2) - 2 ** (m - 1),
            2 ** (2 * m - 2),
        )
        assert verify_difference_set(sigma_function(m)) == expect
        assert verify_difference_set(tau_function(m)) == expect
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"difference-set checks took {elapsed:.3f}s, budget 10s"
    _passed("Hadamard difference-set parameters, m=1..4")


def test_strong_regularity_both_colours_m1_to_m4():
    start = time.monotonic()
    for m in range(1, 5):
        graph = build_delta(m)
        expect = predicted_srg_params(m)
        assert expect.lam == expect.mu
        for colour in (RED, BLUE):
            got = verify_srg(graph, colour)
            assert got == expect
            assert (got.v - got.k - 1) * got.mu == got.k * (got.k - 1 - got.lam)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"SRG checks took {elapsed:.3f}s, budget 30s"
    _passed("strong regularity of both colours, m=1..4")


def _oracle_equivalence(ms):
    for m in ms:
        for i in range(1 << (2 * m)):
            cls = classify(gamma(m, i))
            assert sigma(m, i) == (cls is SymmetryClass.SKEW)
            assert tau(m, i) == (cls is SymmetryClass.SYMMETRIC_OFF_DIAGONAL)
        assert oracle_build_delta(m) == build_delta(m)


def test_oracle_equivalence_m1_to_m3():
    _oracle_equivalence((1, 2, 3))
    _passed("bit rules equal matrix classification and pairwise graph, m=1..3")


def test_oracle_equivalence_m4():
    _oracle_equivalence((4,))
    _passed("bit rules equal matrix classification and pairwise graph, m=4")


def test_tokareva_reconstruction_m2_to_m5():
    for m in range(2, 6):
        s, t = sigma_function(m - 1), tau_function(m - 1)
        s_bar = oracles.complement(s)
        assert oracles.concatenate(t, s, s_bar, t) == tau_function(m)
        dt = oracles.dual(t)
        acc = dt ^ oracles.dual(s) ^ oracles.dual(s_bar) ^ dt
        assert acc.bits == (1 << acc.size) - 1, "dual sum must be all-ones"
    _passed("four-block composition rebuilds tau_m, m=2..5")


def test_tokareva_reconstruction_of_both_twins_to_m8():
    # the induction in the ctwin.bent docstring: the quadrant duals of
    # sigma_m and of tau_m XOR to 1, and the composition is the twin;
    # each distinct quadrant's dual is read once from the oracle
    for m in range(2, 9):
        s, t = sigma_function(m - 1), tau_function(m - 1)
        s_bar = oracles.complement(s)
        duals = {f: oracles.dual(f) for f in (s, s_bar, t)}
        for parts, twin in (((s, s_bar, s, s), sigma_function(m)), ((t, s, s_bar, t), tau_function(m))):
            assert oracles.concatenate(*parts) == twin, m
            acc = duals[parts[0]] ^ duals[parts[1]] ^ duals[parts[2]] ^ duals[parts[3]]
            assert acc.bits == (1 << acc.size) - 1, "dual sum must be all-ones"
    _passed("four-block composition rebuilds sigma_m and tau_m, duals XOR to 1, m=2..8")


def test_swap_search_finds_witnesses_m1_m2_m3():
    budgets = {1: 0.010, 2: 10.0, 3: 600.0}
    for m, budget in budgets.items():
        start = time.monotonic()
        outcome = search_swap(m)
        elapsed = time.monotonic() - start
        assert outcome.status is SearchStatus.FOUND, f"m={m} must have a swap"
        assert verify_swap(outcome.witness)
        assert elapsed < budget, f"m={m} search took {elapsed:.3f}s, budget {budget}s"
    _passed("swap automorphism found and verified for m=1,2,3")


@extended
def test_swap_search_exhausts_m4_extended():
    # no witness exists at m=4; the oracles' min-domain walk over the full
    # tree, with no coset reduction, takes hours
    status, nodes, _ = oracles.min_domain_walk(4, -1, lambda phi: True)
    assert status is SearchStatus.EXHAUSTED
    _passed(f"swap search exhausted for m=4 ({nodes} nodes)")


def test_property_suites():
    # dual involution and complement commutation for the twins, m <= 4
    for m in range(1, 5):
        for f in (sigma_function(m), tau_function(m)):
            assert oracles.dual(oracles.dual(f)) == f
            assert oracles.dual(oracles.complement(f)) == oracles.complement(oracles.dual(f))

    # SRG counting identity on every returned parameter set, m <= 4
    for m in range(1, 5):
        p = verify_srg(build_delta(m), RED)
        assert (p.v - p.k - 1) * p.mu == p.k * (p.k - 1 - p.lam)

    # sanity: twin support sizes and the diagonal remainder fill the group
    for m in range(1, 9):
        k = predicted_params(m).k
        assert 2 * k + 2**m == 4**m

    _passed("property suites (duals, SRG identity, sanity)")
