"""Colour-swap verification, normalization, and the backtracking search."""

import itertools
import random
import sys
import time

import pytest

from ctwin import swap
from ctwin.graphs import BLUE, RED, build_delta
from ctwin.swap import (
    SearchOutcome,
    SearchStatus,
    SwapMap,
    certificate_payload,
    normalize,
    search_all,
    search_swap,
    verify_swap,
    witness_payload,
)

import oracles


def brute_force_swaps_m1(fix_zero=True):
    """Independent enumeration over raw permutations of the 4 vertices."""
    kappa = build_delta(1).kappa
    found = []
    for phi in itertools.permutations(range(4)):
        if fix_zero and phi[0] != 0:
            continue
        ok = all(
            kappa[phi[a] ^ phi[b]] == -kappa[a ^ b]
            for a in range(4)
            for b in range(a + 1, 4)
        )
        if ok:
            found.append(phi)
    return found


def test_verify_swap_m1_witness():
    assert verify_swap(SwapMap(1, (0, 2, 1, 3)))


def test_verify_swap_identity_fails():
    for m in (1, 2):
        v = 1 << (2 * m)
        assert not verify_swap(SwapMap(m, tuple(range(v))))


def test_verify_swap_translated_witness():
    # the transposition (0 3) is the XOR-3 translate of (0,2,1,3); the
    # exhaustive 6-pair check confirms it swaps every edge colour
    assert verify_swap(SwapMap(1, (3, 1, 2, 0)))


def test_swap_map_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        SwapMap(1, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        SwapMap(1, (0, 1, 2))


def test_normalize():
    fixed = SwapMap(1, (0, 2, 1, 3))
    assert normalize(fixed) == fixed
    translated = SwapMap(1, (3, 1, 2, 0))
    assert normalize(translated) == fixed
    assert normalize(normalize(translated)) == normalize(translated)


def test_normalize_rejects_non_swap():
    with pytest.raises(ValueError, match="does not swap"):
        normalize(SwapMap(1, (0, 1, 2, 3)))


def test_search_m1():
    out = search_swap(1)
    assert out.status is SearchStatus.FOUND
    assert out.witness == SwapMap(1, (0, 2, 1, 3))
    assert out.nodes <= 6
    assert verify_swap(out.witness)


@pytest.mark.parametrize("m", [2, 3])
def test_search_finds_witness(m):
    out = search_swap(m)
    assert out.status is SearchStatus.FOUND
    assert out.witness.phi[0] == 0
    assert verify_swap(out.witness)


def test_search_determinism():
    a = search_swap(2)
    b = search_swap(2)
    assert a.witness == b.witness
    assert a.nodes == b.nodes


def test_search_argument_validation():
    with pytest.raises(ValueError):
        search_swap(0)
    with pytest.raises(ValueError):
        search_swap(1, node_budget=0)
    with pytest.raises(ValueError):
        search_swap(1, time_budget=0)
    with pytest.raises(ValueError):
        search_swap(1, order="sideways")


def test_node_budget_yields_inconclusive():
    out = search_swap(3, node_budget=5)
    assert out.status is SearchStatus.INCONCLUSIVE
    assert out.witness is None
    assert out.nodes == 6  # budget trips strictly above the cap


def test_time_budget_yields_inconclusive():
    out = search_swap(4, time_budget=0.05)
    assert out.status is SearchStatus.INCONCLUSIVE
    assert out.witness is None


def test_parallel_time_budget_bounds_the_run():
    # The search runs serially; the budget must still cut an m = 4 run short.
    start = time.monotonic()
    out = search_swap(4, time_budget=0.5)
    elapsed = time.monotonic() - start
    assert out.status is SearchStatus.INCONCLUSIVE
    assert out.witness is None
    assert elapsed < 5.0, f"time_budget=0.5 took {elapsed:.1f}s"


def test_search_all_m1_matches_brute_force():
    witnesses = search_all(1, 10)
    assert [w.phi for w in witnesses] == brute_force_swaps_m1()
    assert [w.phi for w in witnesses] == [(0, 2, 1, 3)]


def test_search_all_ordering_and_limit():
    all_m2 = search_all(2, 1000)
    assert len(all_m2) == 12
    phis = [w.phi for w in all_m2]
    assert phis == sorted(phis)
    assert [w.phi for w in search_all(2, 3)] == phis[:3]
    assert all(w.phi[0] == 0 for w in all_m2)


@pytest.mark.parametrize("m", [1, 2])
def test_search_all_matches_oracle(m):
    gen, _ = oracles.natural_search(m)
    assert [w.phi for w in search_all(m, 1000)] == list(gen)


@pytest.fixture(scope="module")
def m3_swaps():
    return [w.phi for w in search_all(3, 2000, force=True)]


def test_search_all_m3_forced(m3_swaps):
    phis = m3_swaps
    assert len(phis) == 1344
    assert all(a < b for a, b in zip(phis, phis[1:]))
    assert all(verify_swap(SwapMap(3, phi)) for phi in phis)


def test_verify_swap_matches_oracle_m3(m3_swaps):
    # every m = 3 swap fixing 0, and each with one random transposition
    rng = random.Random(29)
    rejected = 0
    for phi in m3_swaps:
        a, b = rng.sample(range(64), 2)
        moved = list(phi)
        moved[a], moved[b] = moved[b], moved[a]
        for candidate in (phi, tuple(moved)):
            accepted = verify_swap(SwapMap(3, candidate))
            assert accepted == oracles.verify_swap(3, candidate), candidate
        rejected += not accepted
    assert rejected == len(m3_swaps)  # no transposition drawn here is a swap


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tables_match_oracle(m):
    assert swap._tables(m) == oracles.tables(m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_natural_order_matches_oracle(m):
    gen, counters = oracles.natural_search(m)
    first = next(gen)
    out = search_swap(m)
    assert out.witness.phi == first
    assert (out.nodes, out.max_depth) == tuple(counters)


# (m, order, node_budget) -> (status, nodes, max_depth); a change to the
# engine may make nodes cheaper but must not move these
GOLDEN = {
    (1, "natural", None): ("found", 4, 4),
    (2, "natural", None): ("found", 16, 16),
    (3, "natural", None): ("found", 3346, 64),
    (1, "mcv", None): ("found", 4, 4),
    (2, "mcv", None): ("found", 16, 16),
    (3, "mcv", None): ("found", 64, 64),
    (4, "natural", 100000): ("inconclusive", 100001, 16),
    (4, "mcv", 5000): ("inconclusive", 5001, 28),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"m{k[0]}-{k[1]}-{k[2]}")
def test_golden_node_counts(key):
    m, order, budget = key
    out = search_swap(m, order=order, node_budget=budget)
    assert (out.status.value, out.nodes, out.max_depth) == GOLDEN[key]


def _is_automorphism(m, alpha):
    kappa = build_delta(m).kappa
    v = len(kappa)
    return all(
        kappa[alpha[a] ^ alpha[b]] == kappa[a ^ b]
        for a in range(v)
        for b in range(a + 1, v)
    )


@pytest.mark.parametrize("m, count", [(2, 12), (3, 1344)])
def test_aut0_as_large_as_swaps_fixing_zero(m, count):
    # Aut_0: the colour-preserving automorphisms that fix vertex 0
    auts = swap._enumerate(m, +1)
    assert len(auts) == count == len(swap._enumerate(m, -1))
    assert auts[0] == tuple(range(1 << (2 * m)))


def test_aut0_matches_oracle_m2():
    auts = swap._enumerate(2, +1)
    gen, _ = oracles.natural_search(2, sign=+1)
    assert auts == list(gen)
    assert all(_is_automorphism(2, alpha) for alpha in auts)


def test_swaps_form_a_coset_of_aut0_m2():
    swaps = {w.phi for w in search_all(2, 1000)}
    auts = swap._enumerate(2, +1)
    for phi in swaps:
        composed = {tuple(phi[a] for a in alpha) for alpha in auts}
        assert composed == swaps


def test_search_all_guards():
    with pytest.raises(ValueError, match="limit"):
        search_all(1, 0)
    with pytest.raises(ValueError, match="guarded"):
        search_all(3, 1)


def test_pinning_loses_no_generality_m1():
    unpinned = brute_force_swaps_m1(fix_zero=False)
    pinned = {w.phi for w in search_all(1, 100)}
    assert pinned == {normalize(SwapMap(1, phi)).phi for phi in unpinned}
    assert bool(unpinned) == bool(pinned)


def test_translations_still_verify_m2():
    rng = random.Random(31)
    base = search_swap(2).witness
    for _ in range(10):
        t = rng.randrange(16)
        translated = SwapMap(2, tuple(p ^ t for p in base.phi))
        assert verify_swap(translated)
        assert normalize(translated) == normalize(base)


def test_witness_exchanges_neighbour_sets():
    for m in (1, 2):
        g = build_delta(m)
        phi = search_swap(m).witness.phi
        red_rows = oracles.adjacency_rows(g, RED)
        blue_rows = oracles.adjacency_rows(g, BLUE)
        for a in range(g.v):
            red_image = {phi[b] for b in range(g.v) if (red_rows[a] >> b) & 1}
            blue_set = {b for b in range(g.v) if (blue_rows[phi[a]] >> b) & 1}
            assert red_image == blue_set


def test_search_leaves_recursion_limit_alone():
    before = sys.getrecursionlimit()
    out = search_swap(4, node_budget=20000)
    assert out.status is SearchStatus.INCONCLUSIVE
    assert sys.getrecursionlimit() == before


def test_mcv_order_same_status():
    for m in (1, 2):
        out = search_swap(m, order="mcv")
        assert out.status is SearchStatus.FOUND
        assert verify_swap(out.witness)


def test_payload_shapes():
    out = search_swap(1)
    assert witness_payload(out.witness) == {"m": 1, "phi": [0, 2, 1, 3]}
    budget = search_swap(2, node_budget=2)
    cert = certificate_payload(2, budget)
    assert cert == {"m": 2, "status": "inconclusive", "nodes": budget.nodes}
    done = SearchOutcome(SearchStatus.EXHAUSTED, None, 42, 7, 0.1)
    assert certificate_payload(4, done) == {"m": 4, "status": "exhausted", "nodes": 42}
