"""Delta_m construction, Cayley graphs, strong regularity, export formats."""

import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest

from ctwin import algebra, graphs
from ctwin.algebra import SignedPerm, SymmetryClass, classify, gamma
from ctwin.bent import BoolFunc, sigma_function, tau_function
from ctwin.graphs import (
    BLUE,
    RED,
    DifferenceGraph,
    SrgParams,
    build_delta,
    cayley_graph,
    export_graph,
    oracle_build_delta,
    predicted_srg_params,
    to_graph6,
    verify_srg,
)

import oracles


def test_delta1_edges():
    g = build_delta(1)
    assert g.edges(RED) == [(0, 1), (2, 3)]
    assert g.edges(BLUE) == [(0, 2), (1, 3)]
    assert g.kappa == (0, -1, 1, 0)


def test_no_loops():
    with pytest.raises(ValueError, match="^difference 0 cannot carry an edge$"):
        DifferenceGraph(2, oracles.int8_bytes([1, -1, 1, 0]))


def test_difference_graph_takes_only_bytes():
    for colours in ((0, -1, 1, 0), [0, -1, 1, 0], np.array([0, -1, 1, 0], np.int8), bytearray(4)):
        with pytest.raises(TypeError, match="bytes"):
            DifferenceGraph(2, colours)


@pytest.mark.parametrize(
    "values, message",
    [
        ([0, -1, 1], "kappa length must be 2\\^n_bits"),
        ([0, -1, 1, 0, 0], "kappa length must be 2\\^n_bits"),
        ([0, -1, 2, 0], "colours must be -1, 0 or \\+1"),
        ([0, -2, 1, 0], "colours must be -1, 0 or \\+1"),
        ([0, -128, 1, 127], "colours must be -1, 0 or \\+1"),
    ],
)
def test_difference_graph_rejects_bad_tables(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DifferenceGraph(2, oracles.int8_bytes(values))


@pytest.mark.parametrize("m", range(1, 9))
def test_kappa_is_the_tuple_of_tau_minus_sigma(m):
    # the tuple the graph gives on request, entry by entry from the
    # big-int twin tables
    s, t = oracles.twin_bits(m)
    expected = tuple((t >> d & 1) - (s >> d & 1) for d in range(1 << (2 * m)))
    kappa = build_delta(m).kappa
    assert kappa == expected
    assert all(type(k) is int for k in kappa)


def test_equal_graphs_compare_and_hash_equal():
    for m in (1, 2, 3):
        fast, slow = build_delta(m), oracle_build_delta(m)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast == DifferenceGraph(2 * m, oracles.int8_bytes(fast.kappa))
    flipped = list(build_delta(2).kappa)
    flipped[1] = -flipped[1]
    assert build_delta(2) != DifferenceGraph(4, oracles.int8_bytes(flipped))
    assert len({build_delta(2), oracle_build_delta(2), build_delta(1)}) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cayley_graph_from_one_packed_byte(n):
    # up to n = 3 the packed table is one byte; below n = 3 its high bits
    # are unused
    for bits in range(0, 1 << (1 << n), 2):
        f = BoolFunc.from_bits(n, bits)
        g = cayley_graph(f)
        assert (g.n_bits, g.kappa) == (n, tuple(f.table()))
        assert g.edges(BLUE) == oracles.edge_list(g, BLUE)


def test_delta2_red_degree():
    g = build_delta(2)
    rows = oracles.adjacency_rows(g, RED)
    assert all(r.bit_count() == 6 for r in rows)


def test_oracle_matches_fast_path():
    # the whole-array oracle against the bit rules and the pair-by-pair loop
    for m in (1, 2, 3, 4):
        assert oracle_build_delta(m) == build_delta(m) == oracles.pairwise_delta(m)


def _mutated_gamma(index, flip=(), swap=()):
    """gamma with basis matrix `index` altered: the signs of the columns
    in `flip` negated, and the rows of the two columns in `swap` exchanged."""
    def mutated(m, i):
        g = gamma(m, i)
        if i != index:
            return g
        perm, signs = list(g.perm), list(g.signs)
        for c in flip:
            signs[c] = -signs[c]
        if swap:
            c1, c2 = swap
            perm[c1], perm[c2] = perm[c2], perm[c1]
        return SignedPerm(tuple(perm), tuple(signs))
    return mutated


def _outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "mutation, error, message",
    [
        # gamma(2, 1) = I kron E1 made symmetric off the diagonal
        (dict(index=1, flip=(0, 2)), RuntimeError, "sigma mismatch at index 1"),
        # the identity made an off-diagonal permutation
        (dict(index=0, swap=(0, 1)), RuntimeError, "tau mismatch at index 0"),
        # every matrix keeps its class, but the products with gamma(2, 0)
        # now differ from the products of other pairs with the same difference
        (dict(index=0, flip=(0, 1)), RuntimeError, "pairs with difference 5 disagree on colour"),
        # gamma(2, 0) stays diagonal, but its products are neither
        # symmetric nor skew
        (dict(index=0, flip=(0,)), ValueError, "matrix is neither symmetric nor skew"),
    ],
)
def test_oracle_error_branches(monkeypatch, mutation, error, message):
    mutated = _mutated_gamma(**mutation)
    if error is ValueError:
        assert classify(mutated(2, mutation["index"])) is SymmetryClass.DIAGONAL
    monkeypatch.setattr(algebra, "gamma", mutated)
    with pytest.raises(error, match=f"^{message}$"):
        oracle_build_delta(2)
    assert _outcome(oracles.pairwise_delta, 2, mutated) == (error, message)


def test_oracle_matches_pairwise_loop_when_one_matrix_is_mutated(monkeypatch):
    # one or two signs flipped, or two rows swapped, in one basis matrix: the
    # whole-array oracle returns or raises exactly what the loop does.  At
    # m = 3, with 8 columns of 64 matrices each, every single flip of a
    # sample of indices: the 8 diagonal ones, whose flips keep them
    # diagonal and so reach the pair checks, and 4 others
    m, n = 2, 4
    inputs = [
        (m, index, mutation)
        for index in range(1 << (2 * m))
        for mutation in [
            *(dict(flip=(c,)) for c in range(n)),
            *(dict(flip=pair) for pair in itertools.combinations(range(n), 2)),
            *(dict(swap=pair) for pair in itertools.combinations(range(n), 2)),
        ]
    ]
    diagonal = [3 * int(format(x, "b"), 4) for x in range(8)]
    sample = diagonal + random.Random(3).sample(sorted(set(range(64)) - set(diagonal)), 4)
    inputs += [(3, index, dict(flip=(c,))) for index in sample for c in range(8)]
    for m, index, mutation in inputs:
        mutated = _mutated_gamma(index, **mutation)
        monkeypatch.setattr(algebra, "gamma", mutated)
        want = _outcome(oracles.pairwise_delta, m, mutated)
        assert _outcome(oracle_build_delta, m) == want, (m, index, mutation)


def test_oracle_guard():
    with pytest.raises(ValueError, match="guarded"):
        oracle_build_delta(5)


def test_diagonal_difference_means_shared_support():
    # same permutation part everywhere, hence never "disjoint support"
    m = 2
    for a in range(16):
        for b in range(a + 1, 16):
            if classify(gamma(m, a ^ b)) is SymmetryClass.DIAGONAL:
                pa, pb = gamma(m, a).perm, gamma(m, b).perm
                assert all(x == y for x, y in zip(pa, pb))


def test_colour_disjointness_and_degree_sum():
    for m in (1, 2, 3):
        g = build_delta(m)
        red, blue = set(g.edges(RED)), set(g.edges(BLUE))
        assert not red & blue
        # |D| = 2^m differences carry no colour, 0 among them
        assert oracles.degree(g, RED) + oracles.degree(g, BLUE) + (1 << m) - 1 == g.v - 1


def test_cayley_sigma1_is_red_subgraph():
    assert cayley_graph(sigma_function(1)).edges(BLUE) == build_delta(1).edges(RED)


def test_cayley_empty_function():
    g = cayley_graph(BoolFunc.from_bits(2, 0))
    assert g.edges(BLUE) == []


def test_cayley_tau2_edge_count():
    assert len(cayley_graph(tau_function(2)).edges(BLUE)) == 48


def test_cayley_rejects_loops():
    with pytest.raises(ValueError, match="loops"):
        cayley_graph(BoolFunc.from_bits(2, 0b0001))


def test_srg_delta2_both_colours():
    g = build_delta(2)
    assert verify_srg(g, RED).as_tuple() == (16, 6, 2, 2)
    assert verify_srg(g, BLUE).as_tuple() == (16, 6, 2, 2)


def test_srg_delta1_red():
    assert verify_srg(build_delta(1), RED).as_tuple() == (4, 1, 0, 0)


def test_srg_matches_prediction():
    for m in (1, 2, 3):
        g = build_delta(m)
        expect = predicted_srg_params(m)
        assert verify_srg(g, RED) == expect
        assert verify_srg(g, BLUE) == expect


def test_srg_identity_on_returned_params():
    for m in (1, 2, 3, 4):
        p = predicted_srg_params(m)
        assert (p.v - p.k - 1) * p.mu == p.k * (p.k - 1 - p.lam)


def test_predicted_srg_values():
    assert predicted_srg_params(2).as_tuple() == (16, 6, 2, 2)
    assert predicted_srg_params(3).as_tuple() == (64, 28, 12, 12)
    assert predicted_srg_params(4).as_tuple() == (256, 120, 56, 56)


def test_srg_params_identity_enforced():
    with pytest.raises(ValueError, match="must equal"):
        SrgParams(16, 6, 2, 3)


def test_srg_rejects_irregular_degree():
    # path 0-1-2: degrees 1, 2, 1
    rows = [0b010, 0b101, 0b010]
    with pytest.raises(ValueError, match="degree not constant"):
        oracles.srg_params_from_rows(rows)


def test_srg_rejects_nonconstant_mu():
    # Cayley graph of support {1, 2, 7} on Z_2^3 has mu in {0, 2}
    g = cayley_graph(BoolFunc.from_values(3, [0, 1, 1, 0, 0, 0, 0, 1]))
    with pytest.raises(ValueError, match="not constant"):
        verify_srg(g, BLUE)


def test_srg_rejects_empty_colour():
    with pytest.raises(ValueError, match="empty"):
        verify_srg(cayley_graph(BoolFunc.from_bits(2, 0)), BLUE)


def test_common_neighbour_counts_translation_invariant():
    g = build_delta(2)
    rows = oracles.adjacency_rows(g, RED)

    def profile(a):
        return sorted(
            (rows[a] & rows[b]).bit_count() for b in range(g.v) if b != a
        )

    base = profile(0)
    assert all(profile(a) == base for a in range(1, g.v))


# --- export ----------------------------------------------------------------

def test_graph6_delta1_red():
    # upper-triangle bits 100001 -> 33 -> '`'; 4 vertices -> 'C'
    assert to_graph6(build_delta(1), RED) == b"C`"


def test_graph6_empty_graph():
    assert to_graph6(cayley_graph(BoolFunc.from_bits(2, 0)), BLUE) == b"C?"


def test_graph6_roundtrip(monkeypatch):
    # one block per graph, then a block cut at every column j = 0 mod 12
    for block_bits in (graphs._GRAPH6_BLOCK_BITS, 1):
        monkeypatch.setattr(graphs, "_GRAPH6_BLOCK_BITS", block_bits)
        for m in (1, 2, 3):
            for colour in (RED, BLUE):
                g = build_delta(m)
                n, edges = oracles.from_graph6(to_graph6(g, colour))
                assert n == g.v
                assert edges == g.edges(colour)


def test_graph6_chars_matches_packbits_oracle():
    # every length 0..60, so every remainder mod 6 and mod 24: the bits
    # packed most significant first, as the encoder's stream holds them
    rng = np.random.default_rng(60)
    cases = [rng.random(size) < 0.5 for size in range(61) for _ in range(5)]
    cases += [fill(size, bool) for size in (0, 1, 5, 6, 23, 24, 25) for fill in (np.zeros, np.ones)]
    for bits in cases:
        chars = graphs._sextets(np.packbits(bits).tobytes())[: (bits.size + 5) // 6]
        assert chars == oracles.graph6_chars(bits), bits.size


def _body_of(graph, colour):
    data = to_graph6(graph, colour)
    return data[(1 if graph.v <= 62 else 4) :]


# the default cut, a cut after every column, and cuts a few columns apart
BLOCK_BITS = (graphs._GRAPH6_BLOCK_BITS, 1, 7, 200)


def test_graph6_matches_packbits_oracle(monkeypatch):
    # the translate walk against the pair-by-pair upper triangle, in both
    # colours and the non-edges, with the blocks cut at every column too
    for m in range(1, 7):
        g = build_delta(m)
        colours = oracles.upper_triangle_kappa(g)
        for block_bits in BLOCK_BITS:
            monkeypatch.setattr(graphs, "_GRAPH6_BLOCK_BITS", block_bits)
            for colour in (RED, BLUE, 0):
                want = oracles.graph6_chars(colours == colour)
                assert _body_of(g, colour) == want, (m, block_bits, colour)


def _cayley_graphs(rng, n):
    """A random Cayley graph on Z_2^n, and at even n the Cayley graph of
    sigma_(n/2) relabelled by a random invertible matrix."""
    v = 1 << n
    found = [cayley_graph(BoolFunc.from_bits(n, rng.randrange(1 << v) & ~1))]
    if n % 2 == 0:
        relabelled = oracles.relabel(sigma_function(n // 2).table(), oracles.random_invertible(rng, n))
        found.append(cayley_graph(BoolFunc.from_values(n, relabelled)))
    return found


@pytest.mark.parametrize("n", range(1, 13))
def test_graph6_of_random_cayley_graphs_matches_oracle(monkeypatch, n):
    # graphs of every size up to 4096 vertices, cut into blocks at every
    # column and a few columns apart: the stream's last byte is partial
    # at most cuts, and the 3-byte groups leave 0, 1 or 2 bytes behind
    rng = random.Random(300 + n)
    for g in _cayley_graphs(rng, n):
        colours = oracles.upper_triangle_kappa(g)
        for colour in (BLUE, 0):
            want = oracles.graph6_chars(colours == colour)
            for block_bits in BLOCK_BITS:
                monkeypatch.setattr(graphs, "_GRAPH6_BLOCK_BITS", block_bits)
                assert _body_of(g, colour) == want, (n, block_bits, colour)


@pytest.mark.parametrize("n", range(1, 9))
def test_edges_of_random_cayley_graphs_match_oracle(n):
    rng = random.Random(400 + n)
    for g in _cayley_graphs(rng, n):
        for colour in (BLUE, 0):
            edges = oracles.edge_list(g, colour)
            assert g.edges(colour) == edges
            expected = json.dumps({"v": g.v, "colour": graphs.COLOUR_NAMES.get(colour, "0"), "edges": edges})
            assert b"".join(graphs.json_edges_blocks(g, colour)) == expected.encode()


def test_json_edges_blocks_match_json_dumps():
    cayley = cayley_graph(BoolFunc.from_values(3, [0, 1, 1, 0, 0, 0, 0, 1]))
    cases = [(build_delta(m), colour) for m in (1, 2, 3, 4) for colour in (RED, BLUE, 0)]
    for g, colour in [*cases, (cayley, BLUE)]:
        name = graphs.COLOUR_NAMES.get(colour, str(colour))
        expected = json.dumps({"v": g.v, "colour": name, "edges": oracles.edge_list(g, colour)})
        assert b"".join(graphs.json_edges_blocks(g, colour)) == expected.encode()


def test_graph6_against_networkx():
    rng = random.Random(500)
    cases = [(build_delta(m), colour) for m in (1, 2, 3, 4) for colour in (RED, BLUE)]
    cases += [(g, BLUE) for n in (3, 6, 7) for g in _cayley_graphs(rng, n)]
    for g, colour in cases:
        data = to_graph6(g, colour)
        nxg = nx.from_graph6_bytes(data)
        assert nxg.number_of_nodes() == g.v
        assert sorted(tuple(sorted(e)) for e in nxg.edges()) == g.edges(colour)
        assert nx.to_graph6_bytes(nxg, header=False).rstrip(b"\n") == data


def test_graph6_long_size_header():
    g = build_delta(3)  # 64 vertices needs the 4-byte header
    data = to_graph6(g, RED)
    assert data[0] == 126
    n, edges = oracles.from_graph6(data)
    assert n == 64
    assert edges == g.edges(RED)


def test_graph6_size_guard():
    big = DifferenceGraph(17, bytes([0] + [1] * ((1 << 17) - 1)))
    with pytest.raises(ValueError, match="at most"):
        to_graph6(big, BLUE)


def test_json_edges_export():
    g = build_delta(2)
    payload = json.loads(export_graph(g, BLUE, "json-edges"))
    assert payload["v"] == 16
    assert payload["colour"] == "blue"
    assert len(payload["edges"]) == 48
    assert payload["edges"] == sorted(payload["edges"])
    assert all(a < b for a, b in payload["edges"])


def test_export_unknown_format():
    with pytest.raises(ValueError, match="unknown export format"):
        export_graph(build_delta(1), RED, "dot")
