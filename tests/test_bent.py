"""Twin functions, the bit-plane kernel, bentness, the lemma's duals and
4-concatenations, difference sets."""

import random
import tracemalloc

import numpy as np
import pytest

from ctwin import bent, twins
from ctwin.algebra import SymmetryClass, classify, gamma
from ctwin.bent import (
    BoolFunc,
    DiffSetParams,
    is_bent,
    predicted_params,
    sigma,
    sigma_function,
    tau,
    tau_function,
    verify_difference_set,
)
from ctwin.graphs import BLUE, RED, DifferenceGraph, build_delta, predicted_srg_params, verify_srg

import oracles


# --- dense Sylvester oracle ----------------------------------------------

def dense_sylvester(n):
    h = [[1]]
    for _ in range(n):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def _residues(planes, n):
    """Entry u of the bit planes of `bent._walsh_planes`, bit p read
    from plane p."""
    size = 1 << n
    total = np.zeros(size, np.int64)
    for p, plane in enumerate(planes):
        assert 0 <= plane < 1 << size
        packed = np.frombuffer(plane.to_bytes(max(1, size >> 3), "little"), np.uint8)
        total += np.unpackbits(packed, count=size, bitorder="little").astype(np.int64) << p
    return total.tolist()


def _signed(planes, n):
    """Entry u of the bit planes read in two's complement, plane
    len(planes) - 1 the sign."""
    top = 1 << (len(planes) - 1)
    return [r - 2 * top if r >= top else r for r in _residues(planes, n)]


def _to_planes(entries, p):
    """Integer entries as p bit planes in two's complement, modulo 2^p."""
    return [sum((e >> i & 1) << u for u, e in enumerate(entries)) for i in range(p)]


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


def test_tau_closed_form_matches_the_table():
    # tau(m, i) = ~sigma(m, i) where some base-4 digit of i is 1 or 2,
    # and 0 where every digit is 0 or 3, against the quadrant-rule tables
    for m in range(1, 11):
        values = [tau(m, i) for i in range(1 << (2 * m))]
        assert BoolFunc.from_values(2 * m, values).packed == twins._twin_table(m, "tau"), m
        # tau = 1 + sigma + 1_D, D the indices whose digits are all 0 or
        # 3: 3 times the base-4 reading of a binary string
        table = twins._twin_table(m, "sigma")
        diagonal = sum(1 << int(format(x, "b"), 4) * 3 for x in range(1 << m))
        want = ((1 << (1 << (2 * m))) - 1) ^ int.from_bytes(table, "little") ^ diagonal
        assert want.to_bytes(len(table), "little") == twins._twin_table(m, "tau"), m


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


def test_twin_quadrants_join_to_the_table(monkeypatch):
    # the pieces are quadrants of quadrants: at a piece size of 1 or 3
    # bytes every table above m = 2 is the level-2 pair and ~sigma_2
    # repeated, and at the default it is one piece up to m = 11
    for size in (1, 3, twins._PIECE_SIZE):
        monkeypatch.setattr(twins, "_PIECE_SIZE", size)
        for m in range(1, 11):
            width = max(1, (1 << (2 * m)) // 8)
            for name, bits in zip(("sigma", "tau"), oracles.twin_bits(m)):
                pieces = twins._twin_pieces(m, name)
                assert b"".join(pieces) == bits.to_bytes(width, "little"), (size, m, name)
                assert len({len(piece) for piece in pieces}) == 1
                # the whole table, or the largest level that fits the size
                piece = len(pieces[0])
                assert piece == width or piece <= max(2, size) < 4 * piece, (size, m, name)


@pytest.mark.parametrize("m", [11, 12, 13, 14])
def test_twin_pieces_match_the_closed_forms(m):
    # read entry i off the unjoined pieces, all of one length, at 200
    # sampled indices
    for name, rule in (("sigma", sigma), ("tau", tau)):
        pieces = twins._twin_pieces(m, name)
        width = len(pieces[0])
        assert {len(piece) for piece in pieces} == {width}
        assert width * len(pieces) == 1 << (2 * m - 3)
        for i in random.Random(m).sample(range(1 << (2 * m)), 200):
            byte = i >> 3
            entry = pieces[byte // width][byte % width] >> (i & 7) & 1
            assert entry == rule(m, i), (name, i)


def test_twin_pieces_are_few_objects_within_the_piece_size():
    # sigma's pieces are sigma_L and ~sigma_L, tau's tau_L, sigma_L and
    # ~sigma_L: at most 2 and 3 distinct bytes objects, none over 1 MB
    for m in range(1, 15):
        for name, most in (("sigma", 2), ("tau", 3)):
            pieces = twins._twin_pieces(m, name)
            assert len({id(piece) for piece in pieces}) <= most, (m, name)
            assert max(map(len, pieces)) <= twins._PIECE_SIZE == 1 << 20, (m, name)
            assert len(pieces) == 4 ** max(0, m - 11), (m, name)


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


@pytest.mark.parametrize("n", [15, 16, 17])
def test_autocorrelation_of_the_whole_group(n):
    # S = Z_2^n reaches the spectrum's largest entry, W_S(0) = v = 2^n,
    # which the n + 2 exact planes hold as plane n alone; every
    # difference count is v, and the spectral check accepts them
    # without a walk
    v = 1 << n
    s = (1 << v) - 1
    assert bent._walsh_planes([s, 0], n, n + 2) == [0] * n + [1, 0]
    assert bent._common(s, n, 1) == bent._common(s, n, v - 1) == v
    assert bent._first_off(s, n, v, v) is None


def test_exact_planes_match_the_transforms():
    # n + 2 planes hold every start's transform exactly, against the
    # oracle at n = 1..14: W_S = H_n 1_S from [s, 0], which (-1)^f =
    # 1 - 2 * 1_S makes (v [u = 0] - W_f(u)) / 2; W_f from [full, bits];
    # and H_n c of a 0/+-1 code c from [plus | minus, minus].  The empty
    # set and the whole group reach W_S(0) = 0 and v.  Fewer planes hold
    # the residues
    rng = random.Random(61)
    for n in range(1, 15):
        size = 1 << n
        full = (1 << size) - 1
        funcs = [BoolFunc.from_bits(n, rng.randrange(1 << size)) for _ in range(2)]
        funcs += [BoolFunc.from_bits(n, 0), BoolFunc.from_bits(n, full)]
        if n % 2 == 0:
            funcs += [sigma_function(n // 2), tau_function(n // 2)]
        for f in funcs:
            walsh = oracles.walsh_transform(f)
            exact = [((size if u == 0 else 0) - w) // 2 for u, w in enumerate(walsh)]
            assert _signed(bent._walsh_planes([f.bits, 0], n, n + 2), n) == exact, n
            assert _signed(bent._walsh_planes([full, f.bits], n, n + 2), n) == walsh, n
            for p in {1, 2, n // 2 + 1, n + 1}:
                residues = _residues(bent._walsh_planes([full, f.bits], n, p), n)
                assert residues == [w % (1 << p) for w in walsh], (n, p)
        code = [rng.choice((-1, 0, 1)) for _ in range(size)]
        plus = sum(1 << u for u, c in enumerate(code) if c == 1)
        minus = sum(1 << u for u, c in enumerate(code) if c == -1)
        want = oracles.fwht(code)
        assert _signed(bent._walsh_planes([plus | minus, minus], n, n + 2), n) == want, n
        assert _signed(bent._walsh_planes([0, 0], n, n + 2), n) == [0] * size
        assert _signed(bent._walsh_planes([full, 0], n, n + 2), n) == [size] + [0] * (size - 1)


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
    # bit i of T_j(a) is bit i ^ j of a, for j = start, start + 1, ... in
    # turn, whatever the start.  The same ints with their bits reversed
    # check that reversal commutes with every T_j, which graph export
    # relies on: their walk is the first one's, read most significant
    # bit first
    rng = random.Random(71)
    for p in range(1, 11):
        width = 1 << p
        for a in (rng.randrange(1 << width), rng.randrange(1 << width)):
            text = f"{a:0{width}b}"[::-1]  # bit i of a at character i
            for start in sorted({0, 1, width // 2, rng.randrange(width), width - 1}):
                walks = zip(
                    twins._translates(a, twins._level_masks(width), start),
                    twins._translates(int(text, 2), twins._level_masks(width), start),
                )
                for j, (t, r) in enumerate(walks, start):
                    want = "".join([text[i ^ j] for i in range(width)])
                    assert f"{t:0{width}b}"[::-1] == want, (width, start, j)
                    assert f"{r:0{width}b}" == want, (width, start, j)
                assert j == width - 1


def test_twins_and_relabelled_delta_pass_without_a_walk(monkeypatch):
    # the one plane test accepts every difference set and strongly
    # regular class of the twins, relabelled or not, on the spectrum's
    # planes: each check runs it once, and it accepts, and the translates
    # are walked only to name a rejection
    verdicts = []

    def two_valued(*args):
        verdicts.append(two_valued_planes(*args))
        return verdicts[-1]

    two_valued_planes = bent._two_valued
    monkeypatch.setattr(bent, "_translates", oracles.first_translate_only)
    monkeypatch.setattr(bent, "_two_valued", two_valued)
    rng = random.Random(67)
    for m in range(1, 9):
        for f in (sigma_function(m), tau_function(m)):
            assert verify_difference_set(f) == predicted_params(m)
            g = BoolFunc.from_values(2 * m, oracles.relabel(f.table(), oracles.random_invertible(rng, 2 * m)))
            assert verify_difference_set(g) == predicted_params(m)
        kappa = oracles.relabel(build_delta(m).kappa, oracles.random_invertible(rng, 2 * m))
        for g in (build_delta(m), DifferenceGraph(2 * m, oracles.int8_bytes(kappa))):
            assert verify_srg(g, RED) == verify_srg(g, BLUE) == predicted_srg_params(m)
    assert verdicts == [True] * 64


def _two_valued_by_entries(entries, p, low, gap):
    """`bent._two_valued` read entry by entry: every entry but entry 0
    is low or low + gap modulo 2^p."""
    return all((e - low) % (1 << p) in (0, gap % (1 << p)) for e in entries[1:])


def test_two_valued_matches_a_lane_by_lane_oracle():
    # entries at the two values, next to them and far from them, in
    # planes of n = 0..5 (1 to 32 entries) and p = 2..12 bits; gap 0 and
    # powers of two up to 2^p, low of either sign.  Entry 0 is never
    # read, and an entry counts modulo 2^p
    rng = random.Random(79)
    for n in range(6):
        size = 1 << n
        for p in (2, 3, 7, 12):
            for low in sorted({-(1 << (p - 1)), -5, -1, 0, 1, 7, (1 << (p - 1)) - 1}):
                for gap in [0] + [1 << t for t in range(p + 1)]:
                    near = [low - 1, low + 1, low + gap - 1, low + gap + 1, low - gap, low + 2 * gap]
                    far = [low + (1 << (p - 1)), rng.randrange(-(1 << p), 1 << p)]
                    cases = []
                    for w in [None] + near + far:
                        entries = [rng.choice((low, low + gap)) for _ in range(size)]
                        entries[0] = rng.randrange(1 << p)
                        if w is not None and size > 1:
                            entries[rng.randrange(1, size)] = w
                        want = _two_valued_by_entries(entries, p, low, gap)
                        got = bent._two_valued(_to_planes(entries, p), n, low, gap)
                        assert got is want, (n, p, low, gap, entries)
                        cases.append(want)
                    assert cases[0] and (size == 1 or not all(cases)), (n, p, low, gap)


def test_difference_counts_are_guarded_to_n_30():
    # the guard is checked before anything is built
    with pytest.raises(ValueError, match="guarded to n <= 30"):
        bent._first_off(0, 31, 0, 0)


def test_spectrum_guard_is_checked_before_any_mask(monkeypatch):
    # with the guard lowered below n = 6, both verifiers raise the
    # guard's error before a level mask of 2^n bits is built
    def masks(*_):
        raise AssertionError("a level mask was built before the guard")

    monkeypatch.setattr(bent, "_SPECTRUM_MAX_N", 4)
    monkeypatch.setattr(bent, "_level_masks", masks)
    with pytest.raises(ValueError, match="^difference counts are guarded to n <= 4$"):
        verify_difference_set(sigma_function(3))
    with pytest.raises(ValueError, match="^difference counts are guarded to n <= 4$"):
        verify_srg(build_delta(3), RED)


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


def test_kernel_matches_whole_array_route():
    # the bit planes of is_bent, [full, bits] with k + 1 planes, hold W_f
    # modulo 2^(k+1), k = n // 2, at every u, against the butterfly
    # oracle's exact W_f; those of the difference counts, [bits, 0] with
    # n + 2 planes, hold F = H_n 1_f exactly: F(u) = (2^n [u = 0] -
    # W_f(u)) / 2.  Residues, not only verdicts: a kernel that keeps too
    # few bits on the way may still decide bentness right.  Every n from
    # 1 to 16 covers tables shorter than a byte (n < 3) and even n,
    # where is_bent reads the planes
    rng = random.Random(47)
    for n in range(1, 17):
        k = n // 2
        full = (1 << (1 << n)) - 1
        for f in _kernel_inputs(n, rng):
            walsh = oracles.walsh_transform(f)
            exact = [((1 << n if u == 0 else 0) - w) // 2 for u, w in enumerate(walsh)]
            planes = bent._walsh_planes([full, f.bits], n, k + 1)
            assert len(planes) == k + 1, n
            assert _residues(planes, n) == [w % (2 << k) for w in walsh], n
            assert _signed(bent._walsh_planes([f.bits, 0], n, n + 2), n) == exact, n
            if n <= 10:
                counts = oracles.autocorrelation(f)
                d = rng.randrange(1, 1 << n)
                assert bent._common(f.bits, n, d) == counts[d], (n, d)
                off = next(((g, c) for g, c in enumerate(counts) if g and c != counts[1]), None)
                assert bent._first_off(f.bits, n, counts[1], counts[1]) == off, n


def test_planes_decide_bentness_as_the_oracle_does(monkeypatch):
    # is_bent by the planes alone, against the oracle's exact spectrum,
    # at n = 2..14: random tables, twins relabelled by an invertible map
    # (bent), one entry flipped (W(0) is off) and two entries of unlike
    # value flipped, which keeps the weight and with it W(0), so that the
    # planes must reject
    monkeypatch.setattr(bent, "_MAX_LEAVES", 0)
    rng = random.Random(83)
    kept = []  # the oracle's verdicts on the weight-keeping flips
    for n in range(2, 15):
        size = 1 << n
        tables = [BoolFunc.from_bits(n, rng.getrandbits(size)) for _ in range(2)]
        if n % 2 == 0:
            for twin in (sigma_function(n // 2), tau_function(n // 2)):
                g = BoolFunc.from_values(n, oracles.relabel(twin.table(), oracles.random_invertible(rng, n)))
                ones = oracles.support(g)
                zeros = sorted(set(range(size)) - set(ones))
                both = BoolFunc.from_bits(n, g.bits ^ 1 << rng.choice(ones) ^ 1 << rng.choice(zeros))
                tables += [g, BoolFunc.from_bits(n, g.bits ^ 1 << rng.randrange(size)), both]
                assert oracles.is_bent(g) and both.weight() == g.weight(), n
                kept.append(oracles.is_bent(both))
        for f in tables:
            assert bent._factors(f, n // 2 + 1) is None
            assert is_bent(f) == oracles.is_bent(f), f.hex()
    assert kept.count(False) >= 10, kept


def test_is_bent_reads_every_plane(monkeypatch):
    # the read-out of the planes alone, on planes put in the kernel's
    # place: every entry, u = 0 included, must read W = 2^k modulo
    # 2^(k+1), at n = 6 (k = 3); the weight is not read
    monkeypatch.setattr(bent, "_MAX_LEAVES", 0)
    f = sigma_function(3)
    assert is_bent(f)
    ones = (1 << 64) - 1
    for planes, want in [
        ([0, 0, 0, ones], True),
        ([1, 0, 0, ones], False),
        ([0, 1 << 63, 0, ones], False),
        ([0, 0, 1 << 5, ones], False),
        ([0, 0, 0, ones ^ 1], False),
        ([0, 0, 0, ones ^ 1 << 5], False),
    ]:
        monkeypatch.setattr(bent, "_walsh_planes", lambda *_: list(planes))
        assert is_bent(f) is want, planes
    monkeypatch.setattr(BoolFunc, "weight", None)
    assert not is_bent(BoolFunc.from_bits(6, f.bits ^ 1))


def _outcome(fn, f):
    """fn(f), or the text of the ValueError it raises."""
    try:
        return fn(f)
    except ValueError as e:
        return f"rejected: {e}"


def test_duals_match_the_pure_python_oracle():
    # the oracle reads the dual off the exact spectrum of a butterfly on
    # Python ints, and rejects a table that is not bent: a dual exists
    # exactly where is_bent finds f bent, by either route
    rng = random.Random(53)
    for n in range(2, 17, 2):
        for f in _kernel_inputs(n, rng):
            has_dual = not isinstance(_outcome(oracles.dual, f), str)
            assert _routes(f) == (has_dual, has_dual), n


def test_dense_route_decides_a_maiorana_mcfarland_table():
    # 2^10 distinct linear blocks, so `_factors` gives up and is_bent runs
    # the bit planes at n = 20, the size of the benchmark's relabelled
    # tau_10; one flipped entry makes every |W_f| 2^10 +- 2
    f = oracles.maiorana_mcfarland(10, 61)
    assert bent._factors(f, 11) is None
    assert is_bent(f)
    packed = bytearray(f.packed)
    i = random.Random(61).randrange(1 << 20)
    packed[i >> 3] ^= 1 << (i & 7)
    flipped = BoolFunc(20, bytes(packed))
    assert not is_bent(flipped)


# --- bentness and duals -----------------------------------------------------

def test_twins_are_bent():
    for m in (1, 2, 3, 4, 5):
        assert is_bent(sigma_function(m))
        assert is_bent(tau_function(m))


def test_non_bent_cases():
    assert not is_bent(BoolFunc.from_bits(2, 0))
    assert not is_bent(BoolFunc.from_bits(3, 0b01010101))  # odd arity


# --- bentness through a table's distinct blocks -----------------------------

def _routes(f):
    """is_bent(f) by the route it takes, and by the dense route, the bit
    planes of the whole table, which is the route of every table when no
    block may be a leaf."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bent, "_MAX_LEAVES", 0)
        dense = is_bent(f)
    return is_bent(f), dense


def _factored_spectrum(f, p):
    """W_f modulo 2^p rebuilt from `bent._factors`: entry u_b of
    `bent._row` of rows[u_a] at index u_a 2^lo + u_b, read in two's
    complement."""
    full, sums, rows = bent._factors(f, p)
    lo = full.bit_length().bit_length() - 1
    assert len(rows) << lo == f.size
    return [w for row in rows for w in _signed(bent._row(sums, row), lo)]


def _factored_matches(f):
    """The factored rows rebuild W_f modulo 2^(k+1), as is_bent reads
    them, and exactly with n + 2 planes."""
    walsh = oracles.walsh_transform(f)
    p = f.n // 2 + 1
    residues = [w % (1 << p) for w in _factored_spectrum(f, p)]
    return residues == [w % (1 << p) for w in walsh] and _factored_spectrum(f, f.n + 2) == walsh


def _direct_sum(g, h):
    """g(x_hi) + h(x_lo): block a is h, or ~h where g(a) = 1."""
    ones = (1 << h.size) - 1
    return BoolFunc.from_bits(
        g.n + h.n, sum((h.bits ^ ones * g(a)) << (a * h.size) for a in range(g.size))
    )


def _bent_inputs():
    """Bent tables: the twins at m = 1..8 and their complements, direct
    sums of twins, and the 4-concatenations (g, g, g, ~g) of twins."""
    twins_ = [make(m) for m in range(1, 9) for make in (sigma_function, tau_function)]
    tables = twins_ + [oracles.complement(f) for f in twins_[:10]]
    small = twins_[:8]  # m = 1..4
    tables += [_direct_sum(g, h) for g in small for h in small if g.n + h.n <= 14]
    tables += [oracles.concatenate(g, g, g, oracles.complement(g)) for g in small]
    return tables


def test_twins_take_the_factored_route():
    # below m = 3 the table is one block; from m = 3 on sigma_m has one
    # leaf and tau_m two at even m, and two and four at odd m, where the
    # split cuts a base-4 digit: all within the limit up to m = 12
    for m in range(1, 13):
        odd = m % 2 if m >= 3 else 0
        assert len(bent._factors(sigma_function(m), m + 1)[1]) == 1 << (1 + odd), m
        assert len(bent._factors(tau_function(m), m + 1)[1]) == 1 << (2 + 2 * odd if m >= 3 else 1), m
    assert bent._MAX_LEAVES >= 4


def test_factored_route_agrees_with_the_dense_route_on_bent_tables():
    # every bent input has at most _MAX_LEAVES distinct blocks; a flip of
    # one entry may add one, and then goes to the dense route
    rng = random.Random(27)
    for f in _bent_inputs():
        flipped = BoolFunc.from_bits(f.n, f.bits ^ 1 << rng.randrange(f.size))
        assert bent._factors(f, f.n + 2) is not None, f.hex()
        assert _routes(f) == (True, True), f.hex()
        assert _routes(flipped) == (False, False), flipped.hex()
        for g in (f, flipped):
            if g.n <= 12 and bent._factors(g, g.n + 2) is not None:
                assert _factored_matches(g), g.hex()


def test_factored_route_agrees_with_the_dense_route_on_random_blocks():
    # r random leaves at n = 6..14, each block one of them or its
    # complement; at even n mostly not bent, and both routes agree
    rng = random.Random(2711)
    for n in range(6, 15):
        lo = n // 2
        ones = (1 << (1 << lo)) - 1
        for r in range(1, bent._MAX_LEAVES + 1):
            for _ in range(4):
                leaves = [rng.getrandbits(1 << lo) for _ in range(r)]
                blocks = [rng.choice(leaves) ^ ones * rng.getrandbits(1) for _ in range(1 << (n - lo))]
                f = BoolFunc.from_bits(n, sum(b << (a << lo) for a, b in enumerate(blocks)))
                if n % 2:
                    assert _routes(f) == (False, False)
                    continue
                assert len(bent._factors(f, n + 2)[1]) <= 1 << r
                assert len(set(_routes(f))) == 1, f.hex()
                if n <= 12:
                    assert _factored_matches(f), f.hex()


def test_factored_route_gives_up_past_its_leaf_limit():
    # one distinct block more than the limit: the dense route decides
    f = BoolFunc(6, bytes(range(bent._MAX_LEAVES + 1)).ljust(8, b"\0"))
    assert bent._factors(f, 4) is None
    assert _routes(f) == (False, False) == (oracles.is_bent(f),) * 2


def test_residues_of_an_unbent_spectrum_can_match():
    # n = 18: the first (2^18 - 66048) / 2 entries set give W(0) =
    # 2^18 - 2 weight = 66048, which is 2^9 modulo 2^16; the weight reads
    # W(0) exactly, and both routes reject f
    weight = ((1 << 18) - 66048) // 2
    f = BoolFunc.from_bits(18, (1 << weight) - 1)
    assert (1 << 18) - 2 * f.weight() == 66048 == (1 << 16) + (1 << 9)
    assert _routes(f) == (False, False)


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
            assert oracles.dual(f).bits == int(np.dot(negative, 1 << np.arange(16))), b


def test_dual_sigma1_is_tau1():
    assert oracles.dual(sigma_function(1)) == tau_function(1)
    assert oracles.dual(tau_function(1)) == sigma_function(1)


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
        assert oracles.dual(f) == _swap_digit_bits(f) != f, m
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
    quarters = {p: oracles.dual(p).table() for p in (sig, ta, sig_bar)}
    for f, parts, rule in [
        (tau_function(l + 1), (ta, sig, sig_bar, ta), lambda t, s: (2 * t, -2 * s, 2 * s, 2 * t)),
        (sigma_function(l + 1), (sig, sig_bar, sig, sig), lambda t, s: (2 * s, 2 * s, -2 * s, 2 * s)),
    ]:
        duals = [quarters[p] for p in parts]
        whole = oracles.dual(f).table()
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
            assert oracles.dual(oracles.dual(f)) == f
            assert oracles.dual(oracles.complement(f)) == oracles.complement(oracles.dual(f))


# --- composition -------------------------------------------------------------

def test_compose_reconstructs_tau2():
    s, t = sigma_function(1), tau_function(1)
    assert oracles.concatenate(t, s, oracles.complement(s), t) == tau_function(2)


def test_compose_dual_sum_is_all_ones():
    s, t = sigma_function(1), tau_function(1)
    acc = oracles.dual(t) ^ oracles.dual(s) ^ oracles.dual(oracles.complement(s)) ^ oracles.dual(t)
    assert acc.bits == (1 << acc.size) - 1


def test_compose_builds_the_next_twins():
    # the quadrant rules sigma_{m+1} = (s, ~s, s, s) and tau_{m+1} =
    # (t, s, ~s, t), whose duals XOR to 1, from quadrants of one digit
    # (m = 1) up to 2^14 entries
    for m in range(1, 8):
        s, t = sigma_function(m), tau_function(m)
        s_bar = oracles.complement(s)
        assert oracles.concatenate(s, s_bar, s, s) == sigma_function(m + 1), m
        assert oracles.concatenate(t, s, s_bar, t) == tau_function(m + 1), m
        d = {f: oracles.dual(f) for f in (s, s_bar, t)}
        for parts in ((s, s_bar, s, s), (t, s, s_bar, t)):
            acc = d[parts[0]] ^ d[parts[1]] ^ d[parts[2]] ^ d[parts[3]]
            assert acc.bits == (1 << acc.size) - 1, m


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
        assert oracles.is_hadamard(expect)


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
        # the writers behind hex() and `table --format bits`, the table
        # cut into pieces of every size from one byte to the whole table
        text = format(f.bits, f"0{size}b")[::-1]
        for block in range(1, len(f.packed) + 1):
            pieces = [f.packed[i : i + block] for i in range(0, len(f.packed), block)]
            assert b"".join(twins._tt_text(pieces, n)).decode() == f.hex(), (n, block)
            assert b"".join(twins._bit_text(pieces, n)).decode() == text, (n, block)


def test_hex_rejects_malformed():
    for bad in ("tt:2:100", "tt:2", "f:2:2", "tt:2:Z", "tt:0:1", "tt:1:4", "tt:3:000"):
        with pytest.raises(ValueError):
            BoolFunc.from_hex(bad)


def test_hex_rejects_a_large_arity_without_its_table():
    # an arity of 4e8 would make 1 << n, 50 MB, before the payload's
    # length is compared; the length's bit count rejects it first, and
    # every wrong length of a small arity still fails
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="hex payload length does not match the arity"):
            BoolFunc.from_hex("tt:400000000:0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    for n in range(1, 13):
        for digits in {1, max(1, (1 << n) // 4 - 1), (1 << n) // 4 + 1, 1 << n}:
            if digits != max(1, (1 << n) // 4):
                with pytest.raises(ValueError, match="does not match the arity"):
                    BoolFunc.from_hex(f"tt:{n}:{'0' * digits}")


def test_hex_rejects_an_arity_too_long_to_read():
    # 5000 decimal digits are past CPython's limit on int(); such an
    # arity is rejected by its length first, with the length's message,
    # while leading zeros still parse
    with pytest.raises(ValueError, match="^hex payload length does not match the arity$"):
        BoolFunc.from_hex("tt:" + "9" * 5000 + ":0")
    assert BoolFunc.from_hex("tt:" + "0" * 5000 + "2:9") == BoolFunc.from_hex("tt:2:9")
    assert BoolFunc.from_hex("tt:02:9") == BoolFunc.from_hex("tt:2:9")
    with pytest.raises(ValueError, match="^arity must be >= 1$"):
        BoolFunc.from_hex("tt:" + "0" * 5000 + ":1")


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

