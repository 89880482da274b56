"""Colour-swap verification, normalization, and the search on the coset
blocks, against the oracles' backtracking walks."""

import functools
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from ctwin import swap, twins
from ctwin.bent import sigma, sigma_function, tau, tau_function
from ctwin.graphs import BLUE, RED, build_delta
from ctwin.swap import (
    SearchStatus,
    SwapMap,
    search_all,
    search_swap,
    verify_swap,
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
    assert oracles.normalize(fixed) == fixed
    translated = SwapMap(1, (3, 1, 2, 0))
    assert oracles.normalize(translated) == fixed
    assert oracles.normalize(oracles.normalize(translated)) == oracles.normalize(translated)


def test_normalize_rejects_non_swap():
    with pytest.raises(ValueError, match="does not swap"):
        oracles.normalize(SwapMap(1, (0, 1, 2, 3)))


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
        search_swap(1, order="sideways")


def test_node_budget_yields_inconclusive():
    out = search_swap(3, node_budget=5)
    assert out.status is SearchStatus.INCONCLUSIVE
    assert out.witness is None
    assert out.nodes == 6  # budget trips strictly above the cap


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


@pytest.mark.parametrize("m", range(1, 7))
def test_int8_kappa_matches_build_delta(m):
    kappa = twins._delta_kappa(m)
    # one cached bytes object per m, immutable, read as int8
    assert isinstance(kappa, bytes) and twins._delta_kappa(m) is kappa
    assert np.frombuffer(kappa, np.int8).tolist() == list(build_delta(m).kappa)
    assert list(build_delta(m).kappa) == [tau(m, d) - sigma(m, d) for d in range(len(kappa))]


def test_verify_swap_memory_is_linear_in_v(monkeypatch):
    # with kappa all 0 every map passes, so the check runs every
    # difference of every pair; at m = 5 (v = 1024) one v x v table of
    # int8 would take 1 MB on its own
    monkeypatch.setattr(swap, "_delta_kappa", lambda m: bytes(1 << (2 * m)))
    identity = SwapMap(5, tuple(range(1 << 10)))
    tracemalloc.start()
    try:
        assert verify_swap(identity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"verify_swap at m = 5 allocated {peak} bytes"


@pytest.mark.parametrize(
    "m, differences", [(1, None), (2, None), (3, None), (5, (1, 2, 3, 511, 512, 1023))]
)
def test_verify_swap_checks_every_difference(monkeypatch, m, differences):
    # with kappa nonzero at d alone, the identity breaks exactly the pairs
    # at difference d, so a check that skipped d would pass it; at m = 5
    # (v > 256) the colours are read field by field, and d = 512 comes last
    v = 1 << (2 * m)
    identity = SwapMap(m, tuple(range(v)))
    for d in differences or range(1, v):
        kappa = bytearray(v)
        kappa[d] = 1
        monkeypatch.setattr(swap, "_delta_kappa", lambda m, kappa=bytes(kappa): kappa)
        assert not verify_swap(identity), d


def test_all_swaps_agrees_with_the_oracle_m3(m3_swaps):
    # the one pass over all 1344 maps, against the oracles' pair-by-pair
    # loop over each
    assert swap._all_swaps(3, m3_swaps)
    assert all(oracles.verify_swap(3, phi) for phi in m3_swaps)
    assert swap._all_swaps(3, m3_swaps[:1]) and swap._all_swaps(3, m3_swaps[-2:])


@pytest.mark.parametrize("position", [0, 672, 1343])
def test_all_swaps_fails_a_batch_with_one_broken_map(m3_swaps, position):
    # two images of one map exchanged, at the first, a middle and the
    # last of the 1344 maps: that map is no swap, so the batch fails
    broken = list(m3_swaps[position])
    broken[5], broken[40] = broken[40], broken[5]
    assert not oracles.verify_swap(3, broken)
    batch = m3_swaps[:position] + [tuple(broken)] + m3_swaps[position + 1 :]
    assert not swap._all_swaps(3, batch)


def test_all_swaps_reads_two_byte_fields_m5(monkeypatch):
    # at m = 5 (v = 1024) a field takes two bytes; Delta_5 has no swap,
    # so a batch of identity maps fails
    identity = tuple(range(1 << 10))
    assert not swap._all_swaps(5, [identity, identity])
    # with kappa nonzero at d = 1 (+1) and d = 512 (-1) alone, the linear
    # map that exchanges vertex bits 0 and 9 is a swap and the identity
    # is not, in either lane of the batch
    kappa = bytearray(1 << 10)
    kappa[1], kappa[512] = 1, 255
    monkeypatch.setattr(swap, "_delta_kappa", lambda m: bytes(kappa))
    exchange = tuple(a & 0b0111111110 | (a & 1) << 9 | a >> 9 for a in identity)
    assert swap._all_swaps(5, [exchange, exchange])
    assert not swap._all_swaps(5, [exchange, identity])
    assert not swap._all_swaps(5, [identity, exchange])


def test_search_all_checks_its_maps_in_one_pass(monkeypatch):
    # search_swap's witness, then the 1344 maps of the enumeration at once;
    # Aut_0 closes over the 3 closed-form generators of K (the maps
    # t_i = L_ab i, a < b) and the 2 lifts
    batches, generators = [], []
    all_swaps, closure = swap._all_swaps, swap._closure

    def counted(m, phis):
        batches.append(len(phis))
        return all_swaps(m, phis)

    def counted_closure(gens):
        generators.append(len(gens))
        return closure(gens)

    monkeypatch.setattr(swap, "_all_swaps", counted)
    monkeypatch.setattr(swap, "_closure", counted_closure)
    assert len(search_all(3, 2000)) == 1344
    assert batches == [1, 1344] and generators == [3 + 2]
    assert len(search_all(3, 7)) == 7 and batches[2:] == [1, 7]


# (m, order, node_budget) -> (status, nodes, max_depth) of the oracles'
# min-domain walk over the whole tree, stopping at its first swap; a
# change to the walk may make nodes cheaper but must not move these.  A
# row with no budget of its own runs under twice its pinned count: a
# budget the walk never reaches leaves its outcome as it is, and a walk
# that branches badly fails in seconds instead of running for minutes
GOLDEN = {
    (1, "mcv", None): ("found", 4, 4),
    (2, "mcv", None): ("found", 16, 16),
    (3, "mcv", None): ("found", 64, 64),
    (4, "mcv", 5000): ("inconclusive", 5001, 28),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"m{k[0]}-{k[1]}-{k[2]}")
def test_golden_node_counts(key):
    m, order, budget = key
    cap = 2 * GOLDEN[key][1] if budget is None else budget
    found = []
    status, nodes, max_depth = oracles.min_domain_walk(
        m, -1, lambda phi: found.append(phi) or True, cap
    )
    assert (status.value, nodes, max_depth) == GOLDEN[key]
    assert all(oracles.verify_swap(m, phi) for phi in found)


def _is_automorphism(m, alpha):
    """kappa[alpha[a] ^ alpha[b]] == kappa[a ^ b] for every pair, one
    vertex a against all b at a time."""
    kappa = np.array(build_delta(m).kappa)
    alpha = np.asarray(alpha)
    vertices = np.arange(len(kappa))
    return all((kappa[alpha[a] ^ alpha] == kappa[a ^ vertices]).all() for a in vertices)


@pytest.mark.parametrize("m, count", [(2, 12), (3, 1344)])
def test_aut0_as_large_as_swaps_fixing_zero(m, count):
    # Aut_0: the colour-preserving automorphisms that fix vertex 0
    auts = exhaustive(m, +1)
    assert len(auts) == count == len(exhaustive(m, -1))
    assert auts[0] == tuple(range(1 << (2 * m)))


@pytest.mark.parametrize("sign", [-1, +1])
def test_natural_walk_lists_every_map_m2(sign):
    # the walk's whole tree, sorted, is the recursive oracle's lexicographic list
    assert exhaustive(2, sign) == list(oracles.natural_search(2, sign)[0])


def test_aut0_matches_oracle_m2():
    auts = exhaustive(2, +1)
    gen, _ = oracles.natural_search(2, sign=+1)
    assert auts == list(gen)
    assert all(_is_automorphism(2, alpha) for alpha in auts)


def test_swaps_form_a_coset_of_aut0_m2():
    swaps = {w.phi for w in search_all(2, 1000)}
    auts = exhaustive(2, +1)
    for phi in swaps:
        composed = {tuple(phi[a] for a in alpha) for alpha in auts}
        assert composed == swaps


def test_search_all_guards():
    with pytest.raises(ValueError, match="limit"):
        search_all(1, 0)
    with pytest.raises(ValueError, match="m must be >= 1"):
        search_all(0, 1, force=True)
    # force is accepted and ignored: search_swap's guard is the only one
    assert search_all(3, 5) == search_all(3, 5, force=True)


def test_searches_stop_above_m8_before_building_kappa(monkeypatch):
    # the searches and verify_swap share Delta_m's guard,
    # twins._DELTA_MAX_M, through swap._check_search
    def no_kappa(m):
        raise AssertionError(f"kappa built for m = {m}")

    monkeypatch.setattr(swap, "_delta_kappa", no_kappa)
    assert twins._DELTA_MAX_M == 8
    identity = SwapMap(9, tuple(range(4**9)))
    for search in (
        search_swap,
        lambda m: search_all(m, 1),
        lambda m: search_all(m, 1, force=True),
        lambda m: verify_swap(identity),
    ):
        with pytest.raises(ValueError, match=r"^the swaps of Delta_m are guarded to m <= 8$"):
            search(9)


def test_pinning_loses_no_generality_m1():
    unpinned = brute_force_swaps_m1(fix_zero=False)
    pinned = {w.phi for w in search_all(1, 100)}
    assert pinned == {oracles.normalize(SwapMap(1, phi)).phi for phi in unpinned}
    assert bool(unpinned) == bool(pinned)


def test_translations_still_verify_m2():
    rng = random.Random(31)
    base = search_swap(2).witness
    for _ in range(10):
        t = rng.randrange(16)
        translated = SwapMap(2, tuple(p ^ t for p in base.phi))
        assert verify_swap(translated)
        assert oracles.normalize(translated) == oracles.normalize(base)


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
    out = search_swap(4, node_budget=2000)
    assert out.status is SearchStatus.EXHAUSTED
    assert sys.getrecursionlimit() == before


def test_mcv_order_same_status():
    for m in (1, 2):
        out = search_swap(m, order="mcv")
        assert out.status is SearchStatus.FOUND
        assert verify_swap(out.witness)



# --- the coset blocks ---------------------------------------------------------


# nodes of a whole walk over the maps fixing 0, the same for either
# sign: (unrestricted, fixing every coset)
WALK_NODES = {1: (4, 4), 2: (160, 31), 3: (74642, 501)}


@functools.lru_cache(maxsize=None)
def exhaustive(m, sign, fixing=False):
    """Every map fixing 0 for the sign, sorted, from one whole walk of the
    oracles' min-domain walk, unrestricted or fixing every coset.  The
    walk runs under a node budget of twice its pinned count, so that a
    walk that branches badly fails in seconds instead of running for
    minutes."""
    maps = []
    domains = _fixing_every_coset(m) if fixing else None
    pinned = WALK_NODES[m][fixing]
    status, nodes, _ = oracles.min_domain_walk(m, sign, maps.append, 2 * pinned, domains)
    assert (status, nodes) == (SearchStatus.EXHAUSTED, pinned), (m, sign, fixing)
    return sorted(maps)


def _fixing_every_coset(m):
    """domains[y]: the bitmask of the vertices in vertex y's coset."""
    v = 1 << (2 * m)
    members = [0] * (1 << m)
    for y in range(v):
        members[_coset_index(m, y)] |= 1 << y
    return [members[_coset_index(m, y)] for y in range(v)]


def _coset_index(m, y):
    # y = c ^ d with c's base-4 digits in {0, 1} and d's in {0, 3}: c has a
    # digit 1 where y's digit is 1 or 2, and bit k of the index is digit k
    c = (y ^ (y >> 1)) & (((1 << (2 * m)) - 1) // 3)
    return sum(((c >> (2 * k)) & 1) << k for k in range(m))


def _int8(kappa):
    """A sequence of colours -1, 0, +1 as int8 bytes."""
    return np.array(kappa, np.int8).tobytes()


def _rejected_at(kappa, vertex):
    with pytest.raises(RuntimeError, match=rf"closed form at vertex {vertex}$"):
        swap._block_system(_int8(kappa))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_block_checks_pass_and_one_flipped_sign_fails_them(m):
    kappa = build_delta(m).kappa
    reps, zeros = swap._block_system(_int8(kappa))
    assert list(zeros) == [y for y in range(len(kappa)) if kappa[y] == 0]
    # the cells reps[i] ^ zeros[x] are the vertices, each once, in its coset
    cells = [(c ^ d, i) for i, c in enumerate(reps) for d in zeros]
    assert sorted(y for y, _ in cells) == list(range(len(kappa)))
    assert all(_coset_index(m, y) == i for y, i in cells)
    for i in range(1, 1 << m):
        c = reps[i]
        for x, d in enumerate(zeros):
            assert kappa[c ^ d] == (-1) ** (sigma(m, c) + (i & x).bit_count())
    z = random.Random(m).choice([y for y in range(len(kappa)) if kappa[y]])
    flipped = list(kappa)
    flipped[z] = -flipped[z]
    _rejected_at(flipped, z)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_block_checks_catch_a_new_zero_and_swapped_cosets(m):
    kappa = build_delta(m).kappa
    reps, _ = swap._block_system(_int8(kappa))
    zeroed = list(kappa)
    zeroed[1] = 0
    _rejected_at(zeroed, 1)
    # cosets 1 and 3 trade their values: each keeps a single Walsh spike
    swapped = list(kappa)
    for y in range(len(kappa)):
        if _coset_index(m, y) in (1, 3):
            swapped[y] = kappa[y ^ reps[1] ^ reps[3]]
    _rejected_at(swapped, min(y for y in range(len(kappa)) if swapped[y] != kappa[y]))


def test_flipped_sign_stops_the_m4_certificate(monkeypatch):
    kappa = list(build_delta(4).kappa)
    kappa[1] = -kappa[1]
    monkeypatch.setattr(swap, "_blocks", lambda m: swap._block_system(_int8(kappa)))
    with pytest.raises(RuntimeError, match="closed form at vertex 1$"):
        search_swap(4)


@pytest.mark.parametrize("m", [9, 10, 11])
def test_block_checks_pass_beyond_the_oracles_range(m):
    # the closed form's check is O(4^m), so it reaches past the m <= 8 of
    # the spike oracle; zeros is D, the zeros of kappa, and the cells
    # reps[i] ^ zeros[x] are the vertices, each once
    kappa = twins._delta_kappa(m)
    reps, zeros = swap._block_system(kappa)
    values = np.frombuffer(kappa, np.int8)
    assert list(zeros) == np.flatnonzero(values == 0).tolist()
    cells = np.bitwise_xor.outer(reps, zeros)
    assert (np.sort(cells, axis=None) == np.arange(values.size)).all()


@pytest.mark.parametrize("m", range(1, 11))
def test_quadrant_identities_prove_the_closed_form(m):
    # the steps of the proof of step (i), on the tables: the base
    # kappa_1 = (0, -1, +1, 0); by top digit, kappa_m reads kappa_(m-1),
    # 2 sigma - 1, 1 - 2 sigma, kappa_(m-1) with sigma = sigma_(m-1);
    # and sigma_m(reps[i] ^ D[x]) = wt(i) + i.x mod 2 on every cell
    def entries(table, v):
        return np.unpackbits(np.frombuffer(table, np.uint8), count=v, bitorder="little").astype(np.int8)

    v = 1 << (2 * m)
    kappa = np.frombuffer(twins._delta_kappa(m), np.int8)
    if m == 1:
        assert kappa.tolist() == [0, -1, 1, 0]
    else:
        below = np.frombuffer(twins._delta_kappa(m - 1), np.int8)
        sig = entries(twins._twin_table(m - 1, "sigma"), v // 4)
        q0, q1, q2, q3 = kappa.reshape(4, -1)
        assert np.array_equal(q0, below) and np.array_equal(q3, below)
        assert np.array_equal(q1, 2 * sig - 1)
        assert np.array_equal(q2, 1 - 2 * sig)
    i = np.arange(1 << m)
    reps = sum(((i >> k) & 1) << (2 * k) for k in range(m))
    cells = reps[:, None] ^ (3 * reps)[None, :]
    weights = np.array([k.bit_count() for k in range(1 << m)])
    exponent = (weights[:, None] + weights[i[:, None] & i[None, :]]) & 1
    assert np.array_equal(entries(twins._twin_table(m, "sigma"), v)[cells], exponent)
    # and the closed form itself, which the three identities prove
    closed = np.where(i[:, None] == 0, 0, 1 - 2 * exponent)
    assert np.array_equal(kappa[cells], closed)


@pytest.mark.parametrize("m", range(1, 9))
def test_spike_oracle_reads_the_closed_form(m):
    # kappa from build_delta, not from twins._delta_kappa
    kappa = build_delta(m).kappa
    reps, zeros, ell, signs = oracles.coset_spikes(kappa)
    r = 1 << m
    assert zeros == [3 * c for c in reps]
    assert ell[1:] == list(range(1, r))
    assert signs[1:] == [(-1) ** i.bit_count() for i in range(1, r)]
    cells = [[c ^ d for d in zeros] for c in reps]
    assert sorted(itertools.chain.from_iterable(cells)) == list(range(len(kappa)))
    block_reps, block_zeros = swap._block_system(_int8(kappa))
    assert [[c ^ d for d in block_zeros] for c in block_reps] == cells


@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("m, count", [(1, 1), (2, 12), (3, 1344)])
def test_coset_fixing_counts_times_gl_order(m, count, sign):
    restricted = exhaustive(m, sign, fixing=True)
    assert len(restricted) * swap._gl_order(m) == len(exhaustive(m, sign)) == count


@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("m", [2, 3])
def test_natural_order_honours_domain_masks(m, sign):
    # the masked walk lists exactly the unmasked walk's maps that fix every
    # coset; at m = 2 the unmasked list is the natural-order oracle's
    domains = _fixing_every_coset(m)
    fixing = [
        phi for phi in exhaustive(m, sign) if all(domains[a] >> y & 1 for a, y in enumerate(phi))
    ]
    assert exhaustive(m, sign, fixing=True) == fixing
    assert len(fixing) == {2: 2, 3: 8}[m]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_search_all_is_the_exhaustive_enumeration(m):
    assert [w.phi for w in search_all(m, 2000, force=True)] == exhaustive(m, -1)


def test_search_all_m4_is_empty():
    assert search_all(4, 10, force=True) == []


def _generator_tables(m):
    """T = I + E_01 and the cyclic shift S of the basis, as tables of
    their action on m-bit vectors."""
    r = 1 << m
    T = [u ^ ((u >> 1) & 1) for u in range(r)]
    S = [((u << 1) | (u >> (m - 1))) & (r - 1) for u in range(r)]
    return T, S


def test_generators_generate_gl():
    # step (iv) of the reduction: <T, S> = GL(m, 2)
    assert [swap._gl_order(m) for m in range(1, 5)] == [1, 6, 168, 20160]
    for m in (2, 3, 4):
        T, S = _generator_tables(m)
        basis = [1 << k for k in range(m)]
        # T = I + E_01 sends e_1 to e_0 + e_1; S sends e_k to e_(k+1 mod m)
        assert [T[e] for e in basis] == [1, 3] + basis[2:]
        assert [S[e] for e in basis] == basis[1:] + [1]
        for M in (T, S):
            assert all(M[u ^ w] == M[u] ^ M[w] for u in range(1 << m) for w in range(1 << m))
        assert len(swap._closure([T, S])) == swap._gl_order(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_lifts_are_automorphisms_inducing_their_generator(m):
    v = 1 << (2 * m)
    phi_T, phi_S = (list(phi) for phi in swap._lifts(m))
    # phi_S rotates the base-4 digits one place
    assert phi_S == [((y << 2) | (y >> (2 * m - 2))) & (v - 1) for y in range(v)]
    for M, alpha in zip(_generator_tables(m), (phi_T, phi_S)):
        assert alpha[0] == 0 and sorted(alpha) == list(range(v))
        assert _is_automorphism(m, alpha)
        for y, image in enumerate(alpha):
            assert _coset_index(m, image) == M[_coset_index(m, y)]


def _lifts_built_from(monkeypatch, m, images_of):
    """Patch swap._linear, once the blocks of m are cached, so that the
    lifts are the linear maps of images_of(images) for the closed-form
    images."""
    swap._blocks(m)
    linear = swap._linear
    monkeypatch.setattr(swap, "_linear", lambda images: linear(images_of(list(images))))


def _exchange_e0_e1(images):
    images[0], images[1] = images[1], images[0]
    return images


def test_failed_lift_check_stops_the_certificate(monkeypatch):
    _lifts_built_from(monkeypatch, 4, _exchange_e0_e1)
    with pytest.raises(RuntimeError, match=r"lift of the generator T of GL\(4, 2\)"):
        search_swap(4)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lift_check_needs_linearity_and_kappa(monkeypatch, m):
    # every lift is the linear map of its images, so the check reads kappa
    # at every vertex and the cosets; both checks pass on the true lifts
    kappa = twins._delta_kappa(m)
    phi_T, phi_S = swap._lifts(m)
    assert bytes(kappa[y] for y in phi_T) == bytes(kappa[y] for y in phi_S) == kappa
    # phi_S with the images of e_0 and e_1 exchanged: linear and one to
    # one, but digits 1 and 2 trade places, so kappa breaks
    images = _exchange_e0_e1([phi_S[1 << k] for k in range(2 * m)])
    linear = tuple(_from_images(images).tolist())
    assert sorted(linear) == list(range(len(kappa)))
    assert bytes(kappa[y] for y in linear) != kappa
    with monkeypatch.context() as patch:
        _lifts_built_from(patch, m, _exchange_e0_e1)
        with pytest.raises(RuntimeError, match=rf"lift of the generator T of GL\({m}, 2\)"):
            swap._lifts(m)
    # S's images handed to T: an automorphism fixing D, but it sends
    # coset e_0 onto coset e_1, not onto T e_0 = e_0
    s_images = [phi_S[1 << k] for k in range(2 * m)]
    with monkeypatch.context() as patch:
        _lifts_built_from(patch, m, lambda images: s_images)
        with pytest.raises(RuntimeError, match=rf"lift of the generator T of GL\({m}, 2\)"):
            swap._lifts(m)


def _from_images(images):
    """The XOR-linear map with phi[1 << k] = images[k]: phi[a] is the XOR
    of the images of a's set bits."""
    a = np.arange(1 << len(images))
    phi = np.zeros_like(a)
    for k, image in enumerate(images):
        phi ^= ((a >> k) & 1) * image
    return phi


def test_linear_matches_the_images_oracle():
    rng = random.Random(35)
    for size in range(13):
        for _ in range(3):
            images = [rng.randrange(1 << 16) for _ in range(size)]
            assert swap._linear(images) == _from_images(images).tolist(), images
    assert swap._linear([]) == [0]


@pytest.mark.parametrize("m", range(1, 9))
def test_block_system_is_the_digit_by_digit_lists(m):
    # reps[i] puts bit k of i at base-4 digit k, and zeros[x] = 3 reps[x]
    reps, zeros = swap._block_system(twins._delta_kappa(m))
    digits = [sum((i >> k & 1) << (2 * k) for k in range(m)) for i in range(1 << m)]
    assert reps == tuple(digits)
    assert zeros == tuple(3 * c for c in digits)


@pytest.mark.parametrize("m", range(4, 9))
def test_certificate_lifts_rebuild_from_their_images(m):
    v = 1 << (2 * m)
    _, lifts = search_swap(m).certificate
    assert [len(images) for images in lifts] == [2 * m, 2 * m]
    coset = _coset_index(m, np.arange(v))
    for M, images in zip(_generator_tables(m), lifts):
        alpha = _from_images(images)
        assert alpha[0] == 0 and sorted(alpha.tolist()) == list(range(v))
        assert (coset[alpha] == np.array(M)[coset]).all()
        if m <= 5:
            assert _is_automorphism(m, alpha)


@pytest.mark.parametrize("m", range(1, 8))
def test_anf_degrees_of_the_twins(m):
    # sigma_m is quadratic and tau_m has degree m (2 at m = 1): an affine
    # map keeps the degree, so for m >= 3 no affine map takes one to the other
    def degree(f):
        return max(s.bit_count() for s, c in enumerate(oracles.anf(f.table())) if c)

    assert degree(sigma_function(m)) == 2
    assert degree(tau_function(m)) == max(2, m)


def _is_linear(phi):
    n = len(phi).bit_length() - 1
    return list(phi) == _from_images([phi[1 << k] for k in range(n)]).tolist()


def test_swaps_are_linear_at_m2_and_none_is_at_m3(m3_swaps):
    m2_swaps = [w.phi for w in search_all(2, 1000)]
    assert len(m2_swaps) == 12 and all(_is_linear(phi) for phi in m2_swaps)
    assert len(m3_swaps) == 1344 and not any(_is_linear(phi) for phi in m3_swaps)


# (m, node_budget) -> (status, nodes): the pair equations reduced.  The
# system has 2^(m-1) (2^m - 1) equations and meets 0 = 1 at the 51st at
# m = 4 and the 99th at m = 5
BLOCKS_GOLDEN = {
    (1, None): ("found", 1),
    (2, None): ("found", 6),
    (3, None): ("found", 28),
    (4, None): ("exhausted", 51),
    (5, None): ("exhausted", 99),
    (4, 50): ("inconclusive", 51),
    (4, 51): ("exhausted", 51),
    (4, 168): ("exhausted", 51),
    (4, 169): ("exhausted", 51),
    (4, 300): ("exhausted", 51),
}


@pytest.mark.parametrize("key", list(BLOCKS_GOLDEN), ids=lambda k: f"m{k[0]}-{k[1]}")
def test_block_search_golden(key):
    m, budget = key
    out = search_swap(m, node_budget=budget)
    assert (out.status.value, out.nodes) == BLOCKS_GOLDEN[key]
    if out.witness is not None:
        assert out.witness.phi[0] == 0 and verify_swap(out.witness)
    if out.status is SearchStatus.EXHAUSTED:
        refutation, lifts = out.certificate
        assert len(refutation) == 15
        assert all(_is_automorphism(m, _from_images(images)) for images in lifts)
    else:
        assert out.certificate is None


def test_block_search_argument_validation():
    with pytest.raises(ValueError):
        search_swap(0)
    with pytest.raises(ValueError):
        search_swap(1, node_budget=0)


# --- the pi = id system -------------------------------------------------------


def _refuting_pairs():
    """The 15 pairs {a, b} with a in span(e_0, e_1), b in span(e_2, e_3)
    and (a, b) != (0, 0), in (i, j) order."""
    return sorted(
        tuple(sorted((a, b))) for a in range(4) for b in (0, 4, 8, 12) if a or b
    )


@pytest.mark.parametrize("m", [4, 5])
def test_refutation_sums_to_zero_equals_one(m):
    # plain XOR, no call into the solver: every unknown bit t_c[k] occurs
    # in an even number of the listed equations (i ^ j).(t_i ^ t_j) = 1,
    # and their right sides sum to 1
    pairs, _ = search_swap(m).certificate
    assert len(pairs) % 2 == 1
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= i < j < 1 << m for i, j in pairs)
    for c in range(1, 1 << m):
        for k in range(m):
            hits = sum(c in (i, j) and (i ^ j) >> k & 1 for i, j in pairs)
            assert hits % 2 == 0, (c, k)


@pytest.mark.parametrize("m", range(4, 9))
def test_swap_system_is_refuted_by_the_15_pairs(m):
    status, nodes, pairs = swap._solve(m, 1)
    assert status is SearchStatus.EXHAUSTED
    assert pairs == _refuting_pairs()
    # the last of them, (3, 12), is the equation that reads 0 = 1
    assert nodes == sum((1 << m) - 1 - i for i in range(3)) + 9


@pytest.mark.parametrize("m", range(1, 9))
def test_kernel_system_leaves_m_choose_2_free_unknowns(m):
    status, nodes, basis = swap._solve(m, 0)
    assert (status, nodes) == (SearchStatus.FOUND, (1 << (m - 1)) * ((1 << m) - 1))
    unknowns = m * ((1 << m) - 1)
    assert unknowns - len(basis) == m * (m - 1) // 2


def _reps(m, u):
    """reps[u]: base-4 digit 1 where u has bit 1."""
    return sum(((u >> k) & 1) << (2 * k) for k in range(m))


def _pi_id_map(m, t):
    """phi(reps[i] ^ D[x]) = reps[i] ^ D[x ^ t[i]], from the base-4
    digits: reps[i] has digit 1 where i has bit 1, D[x] digit 3."""
    phi = [0] * (1 << (2 * m))
    for i, ti in enumerate(t):
        for x in range(1 << m):
            phi[_reps(m, i) ^ 3 * _reps(m, x)] = _reps(m, i) ^ 3 * _reps(m, x ^ ti)
    return tuple(phi)


def _translation_vector(m, phi):
    """t with phi(reps[i]) = reps[i] ^ D[t[i]] for every coset i, read
    from the base-4 digits; fails if some phi(reps[i]) leaves coset i."""
    t = []
    for i in range(1 << m):
        d = phi[_reps(m, i)] ^ _reps(m, i)
        t.append(sum(((d >> (2 * k)) & 1) << k for k in range(m)))
        assert d == 3 * _reps(m, t[-1]), (i, d)
    return t


@pytest.mark.parametrize("m", range(1, 9))
def test_coset_fixers_solve_the_kernel_system(m):
    # each closed-form generator of K, written as _solve's unknown vector
    # (bit m c + k holds bit k of t_c), satisfies every row of the rhs-0
    # echelon basis, and the m(m - 1)/2 vectors are independent; with the
    # m(m - 1)/2 free unknowns of the test above, they span K
    _, _, basis = swap._solve(m, 0)
    generators = swap._coset_fixers(m)
    assert len(generators) == m * (m - 1) // 2
    kappa = build_delta(m).kappa if m <= 5 else None
    pivots = {}  # top bit -> vector, an echelon basis of the vectors so far
    for phi in generators:
        t = _translation_vector(m, phi)
        assert t[0] == 0
        x = sum(tc << (m * c) for c, tc in enumerate(t))
        assert all((row & x).bit_count() % 2 == 0 for row in basis.values())
        while x and x.bit_length() in pivots:
            x ^= pivots[x.bit_length()]
        assert x, "the generators are dependent"
        pivots[x.bit_length()] = x
        if kappa is not None:
            # an automorphism that sends every coset to itself: it keeps
            # kappa at every vertex, so on every pair, being XOR-linear
            v = len(kappa)
            assert sorted(phi) == list(range(v))
            assert all(kappa[phi[a]] == kappa[a] for a in range(v))
            assert all(_coset_index(m, phi[y]) == _coset_index(m, y) for y in range(v))
            assert tuple(phi) == _pi_id_map(m, t)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_solver_matches_the_oracle_walk(m):
    # K, the closure of its closed-form generators, is the walk's
    # coset-fixing automorphisms; the swap witness's t* XORed with each t
    # of K gives the walk's coset-fixing swaps, and the witness is the
    # first of them
    identity = tuple(range(1 << (2 * m)))
    kernel = swap._closure([identity] + swap._coset_fixers(m))
    assert sorted(kernel) == exhaustive(m, +1, fixing=True)
    assert len(kernel) == {1: 1, 2: 2, 3: 8}[m]
    witness = search_swap(m).witness.phi
    star = _translation_vector(m, witness)
    swaps = sorted(
        _pi_id_map(m, [a ^ b for a, b in zip(star, _translation_vector(m, alpha))])
        for alpha in kernel
    )
    assert swaps == exhaustive(m, -1, fixing=True)
    assert witness == exhaustive(m, -1, fixing=True)[0]
