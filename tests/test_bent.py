"""Twin functions, Walsh spectra, duals, composition, difference sets."""

import json
import random

import numpy as np
import pytest

from ctwin import bent, twins
from ctwin.algebra import SymmetryClass, classify, gamma
from ctwin.bent import (
    BoolFunc,
    DiffSetParams,
    dual,
    fwht,
    is_bent,
    predicted_params,
    sigma,
    sigma_function,
    tau,
    tau_function,
    tokareva_compose,
    verify_difference_set,
    walsh_transform,
)
from ctwin.graphs import RED, build_delta, verify_srg

import oracles


# --- dense Sylvester oracle ----------------------------------------------

def dense_sylvester(n):
    h = [[1]]
    for _ in range(n):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def dense_wht(vec):
    h = dense_sylvester(len(vec).bit_length() - 1)
    return [sum(r * v for r, v in zip(row, vec)) for row in h]


def signed(f):
    return [1 - 2 * b for b in f.table()]


# --- sigma / tau ------------------------------------------------------------

def test_sigma_point_values():
    assert sigma(1, 0b01) == 1
    assert sigma(1, 0) == 0
    assert sigma(2, 0) == 0
    assert sigma(2, 0b0101) == 0
    assert sigma(2, 0b0111) == 1
    assert sigma(3, 0b010101) == 1


def test_tau_point_values():
    assert tau(1, 0b10) == 1
    assert tau(1, 0b01) == 0
    assert tau(2, 0) == 0
    assert tau(3, 0) == 0
    assert tau(2, 0b1000) == 1
    assert tau(2, 0b0101) == 1


def test_tau_table_m2_frozen():
    # quadrants tau_1 | sigma_1 | ~sigma_1 | tau_1
    assert tau_function(2).table() == [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0]
    assert sigma_function(2).table() == [0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0]


def test_tables_agree_with_point_rules():
    for m in (1, 2, 3, 4):
        sf, tf = sigma_function(m), tau_function(m)
        for i in range(1 << (2 * m)):
            assert sf(i) == sigma(m, i)
            assert tf(i) == tau(m, i)


def test_twin_table_matches_big_int_oracle():
    # byte for byte, entry i at bit i % 8 of byte i // 8
    for m in range(1, 13):
        size = max(1, (1 << (2 * m)) // 8)
        s, t = oracles.twin_bits(m)
        assert twins._twin_table(m, "sigma") == s.to_bytes(size, "little"), m
        assert twins._twin_table(m, "tau") == t.to_bytes(size, "little"), m


def test_twin_table_matches_point_rules():
    for m in (1, 2, 3, 4):
        v = 1 << (2 * m)
        for name, rule in (("sigma", sigma), ("tau", tau)):
            table = twins._twin_table(m, name)
            assert isinstance(table, bytes)
            values = np.unpackbits(np.frombuffer(table, np.uint8), bitorder="little")
            assert values[:v].tolist() == [rule(m, i) for i in range(v)], (m, name)
            assert not values[v:].any()


def test_twin_quadrants_join_to_the_table():
    # four equal quadrants from m = 3 on, the whole table as one piece below
    for m in range(1, 11):
        for name in ("sigma", "tau"):
            pieces = twins._twin_quadrants(m, name)
            assert b"".join(pieces) == twins._twin_table(m, name), (m, name)
            assert len(pieces) == (4 if m >= 3 else 1)
            assert len({len(piece) for piece in pieces}) == 1


def test_twin_table_rejects_bad_arguments():
    with pytest.raises(ValueError, match="m must be"):
        twins._twin_table(0, "sigma")
    with pytest.raises(ValueError, match="unknown twin function"):
        twins._twin_table(2, "rho")


def test_bit_rules_match_matrix_classes():
    for m in (1, 2, 3):
        for i in range(1 << (2 * m)):
            cls = classify(gamma(m, i))
            assert sigma(m, i) == (cls is SymmetryClass.SKEW)
            assert tau(m, i) == (cls is SymmetryClass.SYMMETRIC_OFF_DIAGONAL)


def test_supports_disjoint_with_diagonal_rest():
    for m in (1, 2, 3, 4, 5):
        sf, tf = sigma_function(m), tau_function(m)
        assert sf.bits & tf.bits == 0
        k = (1 << (2 * m - 1)) - (1 << (m - 1))
        assert sf.weight() == k
        assert tf.weight() == k
        zeros = (1 << (2 * m)) - sf.weight() - tf.weight()
        assert zeros == 1 << m


def test_index_range_checks():
    with pytest.raises(ValueError):
        sigma(1, 4)
    with pytest.raises(ValueError):
        tau(2, -1)
    with pytest.raises(ValueError):
        sigma(0, 0)


# --- transform ---------------------------------------------------------------

def test_walsh_constant_function():
    f = BoolFunc.from_bits(2, 0)
    assert walsh_transform(f) == [4, 0, 0, 0]


def test_walsh_sigma1():
    assert walsh_transform(sigma_function(1)) == [2, 2, -2, 2]


def test_walsh_matches_dense_small():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for bits in [0, (1 << (1 << n)) - 1] + [
            rng.randrange(1 << (1 << n)) for _ in range(6)
        ]:
            f = BoolFunc.from_bits(n, bits)
            assert walsh_transform(f) == dense_wht(signed(f))


def test_walsh_matches_dense_random_n10():
    rng = random.Random(9)
    f = BoolFunc.from_bits(10, rng.randrange(1 << 1024))
    assert walsh_transform(f) == dense_wht(signed(f))


def test_fwht_involution_and_parseval():
    rng = random.Random(13)
    for n in (1, 4, 7, 10):
        size = 1 << n
        vec = [rng.randrange(-50, 50) for _ in range(size)]
        assert fwht(fwht(vec)) == [size * x for x in vec]
        f = BoolFunc.from_bits(n, rng.randrange(1 << size))
        spec = walsh_transform(f)
        assert sum(w * w for w in spec) == size * size


def test_fwht_matches_oracle():
    rng = random.Random(17)
    for n in (0, 1, 6, 10, 14):
        vec = [rng.randrange(-3, 4) for _ in range(1 << n)]
        assert fwht(vec) == oracles.fwht(vec)


def test_fwht_stage_widths_match_oracle():
    # The low n - n//2 levels run in one signed type and all n levels end
    # in another, each chosen from max|x| * 2^levels.  Take max|x| just
    # under and at each type's limit for each stage, with inputs that
    # reach the bound (a constant vector sums to it at every level).
    rng = random.Random(31)
    for n in range(13):
        size = 1 << n
        for levels in {n - n // 2, n}:
            for limit in (1 << 15, 1 << 31):
                for top in ((limit >> levels) - 1, limit >> levels):
                    if top < 1:
                        continue
                    mixed = [rng.choice((-top, top, rng.randrange(-top, top + 1))) for _ in range(size)]
                    for vec in ([top] * size, [-top] * size, mixed):
                        assert fwht(vec) == oracles.fwht(vec), (n, levels, top)


def _spy_rings(monkeypatch):
    """Record the dtype of every `_fwht` call."""
    rings = []
    kernel = bent._fwht

    def spy(a, dtype):
        rings.append(dtype)
        return kernel(a, dtype)

    monkeypatch.setattr(bent, "_fwht", spy)
    return rings


def test_fwht_result_type_is_narrowest(monkeypatch):
    # max|x| * 2^n picks uint16, uint32 or uint64, read as int16, int32
    # or int64
    rings = _spy_rings(monkeypatch)
    for n, top, dtype in [
        (0, 1, np.uint16),
        (12, 7, np.uint16),
        (12, 8, np.uint32),
        (12, (1 << 19) - 1, np.uint32),
        (12, 1 << 19, np.uint64),
        (16, 1, np.uint32),
    ]:
        out = fwht([top] * (1 << n))
        assert rings == [dtype], (n, top)
        assert out[0] == top << n and not any(out[1:])
        rings.clear()


def test_fwht_modular_is_exact_modulo_2_16():
    # +-1 vectors, fair and biased (a bias of 0.15 puts W(0) near
    # +-0.7 * 2^n, past 2^16 from n = 17 on) and constant; odd n takes
    # the copying second stage and even n the in-place one.  uint32
    # holds every spectrum here, so its signed view is exact, and uint64
    # checks it
    rng = np.random.default_rng(41)
    for n in range(15, 21):
        size = 1 << n
        vectors = [np.ones(size, np.int8), -np.ones(size, np.int8)]
        for p in (0.5, 0.15, 0.85):
            vectors.append(np.where(rng.random(size) < p, -1, 1).astype(np.int8))
        for signs in vectors:
            exact = bent._fwht(signs, np.uint32).view(np.int32)
            wide = bent._fwht(signs, np.uint64).view(np.int64)
            assert np.array_equal(exact, wide), n
            residues = bent._fwht(signs, np.uint16)
            assert residues.dtype == np.uint16, n
            assert np.array_equal(residues, (exact & 0xFFFF).astype(np.uint16)), n
        if n >= 17:
            assert np.abs(exact).max() > 1 << 16, n


def test_fwht_never_writes_the_callers_array():
    # inputs already in the ring's type (uint16 in uint16) included, at
    # even n too, where the second stage transposes in place
    rng = np.random.default_rng(43)
    for n in (0, 1, 2, 7, 8, 14, 15):
        for dtype, ring in [
            (np.int8, np.uint16), (np.int8, np.uint32), (np.int16, np.uint16),
            (np.uint16, np.uint16), (np.int64, np.uint64), (np.int64, np.uint16),
        ]:
            a = rng.integers(-1, 2, 1 << n).astype(dtype)
            held = a.tobytes()
            out = bent._fwht(a, ring)
            assert a.tobytes() == held, (n, dtype, ring)
            assert out.dtype == ring, (n, dtype, ring)
            # a uint16 input holds -1 as 2^16 - 1, which is -1 modulo 2^16
            bits = np.iinfo(ring).bits
            want = [w % (1 << bits) for w in oracles.fwht(a.astype(np.int64).tolist())]
            assert out.tolist() == want, (n, dtype, ring)


def test_unsigned_type_rule():
    # the residues of bentness: modulo 2^16 while n // 2 <= 14, modulo
    # 2^32 while n // 2 <= 30, as k + 2 bits for n = 2k ask
    for n in range(62):
        want = np.uint16 if n // 2 <= 14 else np.uint32
        assert bent._ring(n // 2 + 2) == want, n
    assert bent._ring(62 // 2 + 2) == np.uint64


def test_ring_is_the_narrowest_with_enough_bits():
    for bits in range(65):
        want = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
        assert bent._ring(bits) == want, bits
    for bits in (65, 80):
        with pytest.raises(ValueError, match=f"no unsigned type has {bits} bits"):
            bent._ring(bits)


def test_spectrum_ring_edge():
    # |W_f| <= 2^n needs n + 2 bits: n = 14 is the last int16 spectrum,
    # and the constant functions reach the bound, +-2^15 at n = 15
    rng = random.Random(59)
    for n, dtype in [(14, np.int16), (15, np.int32)]:
        size = 1 << n
        for f in (BoolFunc.from_bits(n, 0), BoolFunc.from_bits(n, (1 << size) - 1),
                  BoolFunc.from_bits(n, rng.randrange(1 << size))):
            spectrum = bent._spectrum(f)
            assert spectrum.dtype == dtype, n
            assert spectrum.tolist() == oracles.walsh_transform(f), n
        assert bent._spectrum(BoolFunc.from_bits(n, 0))[0] == size
        assert bent._spectrum(BoolFunc.from_bits(n, (1 << size) - 1))[0] == -size


def test_fwht_ring_edge(monkeypatch):
    # max|x| * length = 2^15 - 1 fits int16 and 2^15 does not; the same
    # one step past int32
    rings = _spy_rings(monkeypatch)
    for bound, dtype in [
        ((1 << 15) - 1, np.uint16), (1 << 15, np.uint32),
        ((1 << 31) - 1, np.uint32), (1 << 31, np.uint64),
    ]:
        vectors = [[bound], [-bound]]
        if bound % 2 == 0:
            vectors.append([bound // 2, -(bound // 2)])  # two entries of bound / 2
        for vec in vectors:
            assert fwht(vec) == oracles.fwht(vec), vec
            assert rings == [dtype], vec
            rings.clear()


def _lanes(a, n):
    """The entries W(u) of `bent._lane_spectrum`'s int, lane u unbiased."""
    lanes = np.frombuffer(a.to_bytes(4 << n, "little"), "<u4").astype(np.int64)
    return (lanes - bent._BIAS).tolist()


@pytest.mark.parametrize("n", [15, 16, 17])
def test_autocorrelation_of_the_whole_group(n):
    # S = Z_2^n reaches the lanes' bound, |W_S(0)| = v; every difference
    # count is v, and the spectral check accepts them without a walk
    v = 1 << n
    s = (1 << v) - 1
    a = bent._lane_spectrum(s, n)
    assert a & 0xFFFFFFFF == bent._BIAS + v
    assert a >> 32 == int.from_bytes(b"\0\0\0\x80" * (v - 1), "little"), n
    assert bent._common(s, n, 1) == bent._common(s, n, v - 1) == v
    assert bent._first_off(s, n, v, v) is None


def test_lane_spectrum_matches_the_transforms():
    # W_S of the 0/1 indicator is H_n 1_S, and (-1)^f = 1 - 2 * 1_S makes
    # it (v [u = 0] - W_f(u)) / 2; the empty set and the whole group reach
    # W_S(0) = 0 and v
    rng = random.Random(61)
    for n in range(1, 15):
        size = 1 << n
        funcs = [BoolFunc.from_bits(n, rng.randrange(1 << size)) for _ in range(2)]
        funcs += [BoolFunc.from_bits(n, 0), BoolFunc.from_bits(n, (1 << size) - 1)]
        if n % 2 == 0:
            funcs += [sigma_function(n // 2), tau_function(n // 2)]
        for f in funcs:
            got = _lanes(bent._lane_spectrum(f.bits, n), n)
            assert got == fwht(f.table()), n
            walsh = walsh_transform(f)
            assert got == [((size if u == 0 else 0) - w) // 2 for u, w in enumerate(walsh)], n
        assert _lanes(bent._lane_spectrum(0, n), n) == [0] * size
        assert _lanes(bent._lane_spectrum((1 << size) - 1, n), n) == [size] + [0] * (size - 1)


def test_level_masks_mark_the_lanes_with_the_level_bit_clear():
    # lanes shorter than a byte, runs shorter than a byte and whole-byte
    # runs, against each lane's index read bit by bit
    for bits in (1, 2, 32):
        for lanes in (2, 4, 8, 16, 64):
            levels = list(twins._level_masks(lanes, bits))
            assert [run for run, _ in levels] == [bits << k for k in range(lanes.bit_length() - 1)]
            for k, (_, mask) in enumerate(levels):
                lane = (1 << bits) - 1
                want = sum(lane << (i * bits) for i in range(lanes) if not i >> k & 1)
                assert mask == want, (bits, lanes, k)


def test_translates_match_the_index_oracle():
    # bit i of T_j(a) is bit i ^ j of a, for j = 0, 1, ... in turn.  The
    # same ints with their bits reversed check that reversal commutes
    # with every T_j, which graph export relies on: their walk is the
    # first one's, read most significant bit first
    rng = random.Random(71)
    for p in range(1, 11):
        width = 1 << p
        for a in (rng.randrange(1 << width), rng.randrange(1 << width)):
            text = f"{a:0{width}b}"[::-1]  # bit i of a at character i
            walks = zip(twins._translates(a, width), twins._translates(int(text, 2), width))
            for j, (t, r) in enumerate(walks):
                want = "".join([text[i ^ j] for i in range(width)])
                assert f"{t:0{width}b}"[::-1] == want, (width, j)
                assert f"{r:0{width}b}" == want, (width, j)
            assert j == width - 1


def test_twins_and_relabelled_delta_pass_without_a_walk(monkeypatch):
    # the spectral check alone accepts every set whose counts are as
    # asked; the translates are walked only to name a rejection
    def walk(*_):
        raise AssertionError("an accepted set walked its translates")

    monkeypatch.setattr(bent, "_translates", walk)
    rng = random.Random(67)
    for m in range(1, 9):
        for f in (sigma_function(m), tau_function(m)):
            assert verify_difference_set(f) == predicted_params(m)
            g = BoolFunc.from_values(2 * m, oracles.relabel(f.table(), oracles.random_invertible(rng, 2 * m)))
            assert verify_difference_set(g) == predicted_params(m)


def test_difference_counts_are_guarded_to_32_bit_lanes():
    # W_S + 2^31 fits a lane while v = 2^n <= 2^30; the guard is checked
    # before anything is built
    with pytest.raises(ValueError, match="32-bit lanes, for n <= 30"):
        bent._first_off(0, 31, 0, 0)


def test_lane_guard_is_checked_before_any_mask(monkeypatch):
    # with the guard lowered below n = 6, both verifiers raise the lanes
    # error before a level mask of 2^n bits is built
    def masks(*_):
        raise AssertionError("a level mask was built before the lane guard")

    monkeypatch.setattr(bent, "_LANE_MAX_N", 4)
    monkeypatch.setattr(bent, "_level_masks", masks)
    with pytest.raises(ValueError, match="32-bit lanes, for n <= 4"):
        verify_difference_set(sigma_function(3))
    with pytest.raises(ValueError, match="32-bit lanes, for n <= 4"):
        verify_srg(build_delta(3), RED)


def test_spectral_functions_match_oracle():
    rng = random.Random(37)
    for n in range(2, 13):
        size = 1 << n
        tables = [BoolFunc.from_bits(n, rng.randrange(1 << size))]
        if n % 2 == 0:
            # a twin plus a linear function is bent; one flipped entry is not
            u = rng.randrange(size)
            linear = BoolFunc.from_values(n, [(u & x).bit_count() & 1 for x in range(size)])
            twin = (sigma_function if n % 4 else tau_function)(n // 2) ^ linear
            tables += [twin, BoolFunc.from_bits(n, twin.bits ^ (1 << rng.randrange(size)))]
        for f in tables:
            assert walsh_transform(f) == oracles.walsh_transform(f)
            assert is_bent(f) == oracles.is_bent(f)
            try:
                want = oracles.dual(f)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    dual(f)
                assert str(got.value) == str(e)
            else:
                assert dual(f) == want


def _kernel_inputs(n, rng):
    """Random, constant and one-entry tables on n bits, the twins at even
    n, and at even n a twin plus a linear function (bent) and the same
    with one entry flipped (not bent)."""
    size = 1 << n
    funcs = [BoolFunc.from_bits(n, rng.randrange(1 << size)) for _ in range(2)]
    funcs += [BoolFunc.from_bits(n, 0), BoolFunc.from_bits(n, (1 << size) - 1)]
    funcs.append(BoolFunc.from_bits(n, 1 << rng.randrange(size)))
    if n % 2 == 0:
        u = rng.randrange(size)
        linear = BoolFunc.from_values(n, [(u & x).bit_count() & 1 for x in range(size)])
        twin = tau_function(n // 2) ^ linear
        flipped = BoolFunc.from_bits(n, twin.bits ^ (1 << rng.randrange(size)))
        funcs += [sigma_function(n // 2), tau_function(n // 2), twin, flipped]
    return funcs


def test_streamed_kernel_matches_whole_array_route():
    # the kernel unpacks a packed table slab by slab; the whole-array
    # route unpacks it at once and passes (-1)^f as an array.  Every
    # n from 1 to 16 covers rows shorter than a byte (n < 5), odd n's
    # copying second stage and even n's in-place one
    rng = random.Random(47)
    for n in range(1, 17):
        for f in _kernel_inputs(n, rng):
            for ring in (np.uint16, np.uint32, np.uint64):
                want = bent._fwht(oracles.signs(f), ring)
                got = bent._fwht(bent._Unpacked(f), ring)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, ring)
            # the difference-count kernel reads the packed table a byte
            # at a time into its lanes; the whole-array route squares the
            # 0/1 indicator's spectrum and transforms it back
            spectrum = bent._lane_spectrum(f.bits, n)
            assert _lanes(spectrum, n) == bent.fwht(f.table()), n
            if n <= 10:
                counts = oracles.autocorrelation(f)
                d = rng.randrange(1, 1 << n)
                assert bent._common(f.bits, n, d) == counts[d], (n, d)
                off = next(((g, c) for g, c in enumerate(counts) if g and c != counts[1]), None)
                assert bent._first_off(f.bits, n, counts[1], counts[1]) == off, n


def test_streamed_duals_match_whole_array_route():
    # dual reads its signs off the streamed residues; the whole-array
    # route reads them off the exact spectrum
    rng = random.Random(53)
    for n in range(2, 17, 2):
        for f in _kernel_inputs(n, rng):
            spectrum = bent._fwht(oracles.signs(f), np.uint32).view(np.int32)
            if (np.abs(spectrum) == 1 << (n // 2)).all():
                negative = np.packbits(spectrum < 0, bitorder="little").tobytes()
                assert dual(f) == BoolFunc(n, negative), n
            else:
                with pytest.raises(ValueError, match="not bent"):
                    dual(f)


def test_fwht_rejects_bad_lengths():
    with pytest.raises(ValueError):
        fwht([1, 2, 3])
    with pytest.raises(ValueError):
        fwht([])


def test_fwht_rejects_int64_overflow():
    # max|x| * length must stay below 2^62
    top = (1 << 61) - 1
    assert fwht([top, -top]) == oracles.fwht([top, -top])
    for vec in ([1 << 61, 0], [0, -(1 << 61)], [1 << 70, 1], [1 << 59] * 8):
        with pytest.raises(ValueError, match="too large"):
            fwht(vec)


# --- bentness and duals -----------------------------------------------------

def test_twins_are_bent():
    for m in (1, 2, 3, 4, 5):
        assert is_bent(sigma_function(m))
        assert is_bent(tau_function(m))


def test_non_bent_cases():
    assert not is_bent(BoolFunc.from_bits(2, 0))
    assert not is_bent(BoolFunc.from_bits(3, 0b01010101))  # odd arity


def test_residues_of_an_unbent_spectrum_can_match():
    # n = 18: the first (2^18 - 66048) / 2 entries set give W(0) = 66048,
    # which is 2^9 modulo 2^16; Parseval makes some other residue differ,
    # and dual names the first exact entry of the wrong magnitude
    weight = ((1 << 18) - 66048) // 2
    f = BoolFunc.from_bits(18, (1 << weight) - 1)
    assert walsh_transform(f)[0] == 66048 == (1 << 16) + (1 << 9)
    assert not is_bent(f)
    with pytest.raises(ValueError) as got:
        dual(f)
    assert str(got.value) == "input not bent: spectrum entry 66048 at 0"


def test_bent_functions_on_four_variables():
    # all 2^16 functions, against spectra from the dense Sylvester matrix
    h = np.array(dense_sylvester(4))
    bits = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
    spectra = (1 - 2 * bits) @ h
    bent_mask = (np.abs(spectra) == 4).all(axis=1)
    assert bent_mask.sum() == 896
    for b in range(1 << 16):
        f = BoolFunc.from_bits(4, b)
        assert is_bent(f) == bent_mask[b], b
        if bent_mask[b]:
            negative = spectra[b] < 0
            assert dual(f).bits == int(np.dot(negative, 1 << np.arange(16))), b


def test_dual_sigma1_is_tau1():
    assert dual(sigma_function(1)) == tau_function(1)
    assert dual(tau_function(1)) == sigma_function(1)


def _swap_digit_bits(f):
    """f o P, where P swaps the two bits of every base-4 digit of the
    index (digits 1 <-> 2)."""
    i = np.arange(f.size)
    low = (1 << f.n) // 3  # 0b0101...01
    p = ((i & low) << 1) | ((i >> 1) & low)
    return BoolFunc(f.n, np.packbits(oracles.unpacked(f)[p], bitorder="little").tobytes())


@pytest.mark.parametrize("m", range(1, 9))
def test_duals_of_the_twins_swap_their_digits(m):
    # dual(sigma_m) = sigma_m o P and dual(tau_m) = tau_m o P, and P
    # moves both twins, so neither is self-dual
    for f in (sigma_function(m), tau_function(m)):
        assert dual(f) == _swap_digit_bits(f) != f, m
        assert _swap_digit_bits(_swap_digit_bits(f)) == f


@pytest.mark.parametrize("l", range(1, 7))
def test_four_concatenation_sign_table(l):
    # the bent.py induction step from level l to l + 1: with
    # t = (-1)^tau_l(Pw) and s = (-1)^sigma_l(Pw), the four sums
    # sum_q (-1)^(b.q + f_q*(w)) at top digits b = 0..3 are
    # (2t, -2s, 2s, 2t) for tau_(l+1) and (2s, 2s, -2s, 2s) for
    # sigma_(l+1), and each is 2 (-1)^f*(b, w) for f's dual
    sig, ta = sigma_function(l), tau_function(l)
    sig_bar = oracles.complement(sig)
    quarter = 1 << (2 * l)
    for f, parts, rule in [
        (tau_function(l + 1), (ta, sig, sig_bar, ta), lambda t, s: (2 * t, -2 * s, 2 * s, 2 * t)),
        (sigma_function(l + 1), (sig, sig_bar, sig, sig), lambda t, s: (2 * s, 2 * s, -2 * s, 2 * s)),
    ]:
        duals = [dual(p).table() for p in parts]
        whole = dual(f).table()
        tp, sp = _swap_digit_bits(ta).table(), _swap_digit_bits(sig).table()
        for w in range(quarter):
            sums = tuple(
                sum((-1) ** (((b & q).bit_count() + duals[q][w]) & 1) for q in range(4)) for b in range(4)
            )
            assert sums == rule((-1) ** tp[w], (-1) ** sp[w]), (l, w)
            assert sums == tuple(2 * (-1) ** whole[b * quarter + w] for b in range(4)), (l, w)


def test_dual_involution_and_complement():
    for m in (1, 2, 3, 4):
        for f in (sigma_function(m), tau_function(m)):
            assert dual(dual(f)) == f
            assert dual(oracles.complement(f)) == oracles.complement(dual(f))


def test_dual_rejects_non_bent():
    with pytest.raises(ValueError, match="not bent"):
        dual(BoolFunc.from_bits(2, 0))
    with pytest.raises(ValueError, match="odd arity"):
        dual(BoolFunc.from_bits(3, 1))


# --- composition -------------------------------------------------------------

def test_compose_reconstructs_tau2():
    s, t = sigma_function(1), tau_function(1)
    assert tokareva_compose(t, s, oracles.complement(s), t) == tau_function(2)


def test_compose_dual_sum_is_all_ones():
    s, t = sigma_function(1), tau_function(1)
    acc = dual(t) ^ dual(s) ^ dual(oracles.complement(s)) ^ dual(t)
    assert acc.bits == (1 << acc.size) - 1


def test_compose_builds_the_next_twins():
    # the quadrant rules sigma_{m+1} = (s, ~s, s, s) and tau_{m+1} =
    # (t, s, ~s, t), whose duals XOR to 1, from quadrants of one digit
    # (m = 1) up to 2^14 entries
    for m in range(1, 8):
        s, t = sigma_function(m), tau_function(m)
        s_bar = oracles.complement(s)
        assert tokareva_compose(s, s_bar, s, s) == sigma_function(m + 1), m
        assert tokareva_compose(t, s, s_bar, t) == tau_function(m + 1), m


def test_compose_rejects_bad_inputs():
    s1, s2 = sigma_function(1), sigma_function(2)
    with pytest.raises(ValueError, match="arity mismatch"):
        tokareva_compose(s1, s1, s1, s2)
    with pytest.raises(ValueError, match="not bent"):
        tokareva_compose(s1, s1, s1, BoolFunc.from_bits(2, 0))
    with pytest.raises(ValueError, match="dual-sum"):
        tokareva_compose(s1, s1, s1, s1)


# --- difference sets ---------------------------------------------------------

def test_difference_set_sigma1():
    assert verify_difference_set(sigma_function(1)).as_tuple() == (4, 1, 0, 1)


def test_difference_set_tau2():
    assert verify_difference_set(tau_function(2)).as_tuple() == (16, 6, 2, 4)


def test_difference_set_matches_prediction():
    for m in (1, 2, 3):
        expect = predicted_params(m)
        assert verify_difference_set(sigma_function(m)) == expect
        assert verify_difference_set(tau_function(m)) == expect
        assert expect.is_hadamard


def test_difference_set_rejects_non_example():
    f = BoolFunc.from_values(2, [1, 1, 0, 0])  # support {00, 01}
    with pytest.raises(ValueError, match="occurs 2 times.*occurs 0 times"):
        verify_difference_set(f)


def test_difference_set_preconditions():
    with pytest.raises(ValueError, match="empty"):
        verify_difference_set(BoolFunc.from_bits(2, 0))
    with pytest.raises(ValueError, match="whole group"):
        verify_difference_set(BoolFunc.from_bits(2, 0b1111))


def test_predicted_params_values():
    assert predicted_params(1).as_tuple() == (4, 1, 0, 1)
    assert predicted_params(2).as_tuple() == (16, 6, 2, 4)
    assert predicted_params(4).as_tuple() == (256, 120, 56, 64)


def test_diff_set_params_type_invariant():
    with pytest.raises(ValueError, match="k - lam"):
        DiffSetParams(4, 1, 0, 2)


# --- serialization ------------------------------------------------------------

def test_hex_roundtrip():
    assert sigma_function(1).hex() == "tt:2:2"
    assert tau_function(1).hex() == "tt:2:4"
    rng = random.Random(21)
    for n in range(1, 13):
        size = 1 << n
        for bits in (0, (1 << size) - 1, 1, 1 << (size - 1), rng.randrange(1 << size)):
            f = BoolFunc.from_bits(n, bits)
            assert f.hex() == f"tt:{n}:{bits:0{(size + 3) // 4}x}", (n, bits)
            assert BoolFunc.from_hex(f.hex()) == f, (n, bits)
        # the one writer behind hex(), its table cut into blocks of every
        # size from one byte to the whole table
        for block in range(1, len(f.packed) + 1):
            assert b"".join(twins._tt_text((f.packed,), n, block)).decode() == f.hex(), (n, block)


def test_hex_rejects_malformed():
    for bad in ("tt:2:100", "tt:2", "f:2:2", "tt:2:Z", "tt:0:1", "tt:1:4", "tt:3:000"):
        with pytest.raises(ValueError):
            BoolFunc.from_hex(bad)


def test_packed_table_invariants():
    # value semantics on the packed bytes; an int is no table, and no
    # bit may sit past the last entry of a one-byte table
    assert BoolFunc(3, b"\x96") == BoolFunc.from_bits(3, 0x96)
    assert len({BoolFunc(3, b"\x96"), BoolFunc.from_bits(3, 0x96)}) == 1
    with pytest.raises(TypeError):
        BoolFunc(2, 0)
    for n, packed in [(2, b"\x10"), (1, b"\x04"), (3, b"\x00\x00"), (4, b"\x00"), (0, b"\x00")]:
        with pytest.raises(ValueError):
            BoolFunc(n, packed)
    with pytest.raises(ValueError, match="does not fit"):
        BoolFunc.from_bits(2, 16)
    rng = random.Random(59)
    for n in range(1, 11):
        size = 1 << n
        bits, other = rng.randrange(1 << size), rng.randrange(1 << size)
        f, g = BoolFunc.from_bits(n, bits), BoolFunc.from_bits(n, other)
        assert f.bits == bits and len(f.packed) == max(1, size // 8)
        assert f.table() == [bits >> i & 1 for i in range(size)]
        assert [f(i) for i in range(size)] == f.table()
        assert f.weight() == bits.bit_count()
        assert oracles.support(f) == tuple(i for i in range(size) if bits >> i & 1)
        assert oracles.complement(f).bits == bits ^ ((1 << size) - 1)
        assert (f ^ g).bits == bits ^ other
        assert BoolFunc.from_values(n, f.table()) == f


def test_spectrum_is_json_serializable():
    spec = walsh_transform(sigma_function(2))
    assert json.loads(json.dumps(spec)) == spec
