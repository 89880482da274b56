"""The spectral verifiers against the pairwise oracles, input by input.

For every input, verify_difference_set and verify_srg must accept exactly
when the oracles accept, return the same parameters, and reject with the
same message, which names the same first offending difference or pair.
"""

import random

import pytest

from ctwin import bent
from ctwin.bent import (
    BoolFunc,
    predicted_params,
    sigma_function,
    tau_function,
    verify_difference_set,
)
from ctwin.graphs import (
    BLUE,
    RED,
    DifferenceGraph,
    build_delta,
    cayley_graph,
    predicted_srg_params,
    verify_srg,
)

import oracles


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return f"rejected: {e}"


def difference_sets(rng, n):
    """Random tables, f o A relabellings of the twins, and non-examples."""
    v = 1 << n
    funcs = [BoolFunc.from_bits(n, rng.randrange(1 << v)) for _ in range(4)]
    funcs += [BoolFunc.from_bits(n, 0), BoolFunc.from_bits(n, (1 << v) - 1), BoolFunc.from_bits(n, 1), BoolFunc.from_bits(n, 0b11)]
    if n % 2 == 0:
        for twin in (sigma_function(n // 2), tau_function(n // 2)):
            g = BoolFunc.from_values(n, oracles.relabel(twin.table(), oracles.random_invertible(rng, n)))
            assert verify_difference_set(g) == predicted_params(n // 2)
            funcs += [g, oracles.complement(g), BoolFunc.from_bits(n, g.bits ^ (1 << rng.randrange(v)))]
    return funcs


def colour_graphs(rng, n):
    """Random colour tables, relabelled Delta_m, and non-examples."""
    v = 1 << n
    graphs = [
        DifferenceGraph(n, oracles.int8_bytes([0] + [rng.choice((-1, 0, 1)) for _ in range(v - 1)]))
        for _ in range(3)
    ]
    graphs += [
        cayley_graph(BoolFunc.from_bits(n, rng.randrange(1 << v) & ~1)),
        DifferenceGraph(n, bytes(v)),
        DifferenceGraph(n, bytes([0] + [1] * (v - 1))),
        cayley_graph(BoolFunc.from_bits(n, 0b110 | 1 << (v - 1))),  # mu in {0, 2} at n = 3
    ]
    if n == 4:
        # {1, 2, 3, 8, 9}: k = 5, lambda = 4 and mu = 0 pass the check at
        # u = 0, but the roots 5 and -1 are 6 apart, not a power of two,
        # so the plane test is skipped and the walk names the rejection
        graphs.append(cayley_graph(BoolFunc.from_bits(n, 0b1100001110)))
    if n % 2 == 0:
        kappa = oracles.relabel(build_delta(n // 2).kappa, oracles.random_invertible(rng, n))
        g = DifferenceGraph(n, oracles.int8_bytes(kappa))
        assert verify_srg(g, RED) == verify_srg(g, BLUE) == predicted_srg_params(n // 2)
        flipped = list(kappa)
        flipped[rng.choice([d for d in range(v) if kappa[d]])] *= -1
        graphs += [g, DifferenceGraph(n, oracles.int8_bytes(flipped))]
    return graphs


@pytest.mark.parametrize("n", range(2, 9))
def test_difference_set_matches_pairwise_oracle(n):
    rng = random.Random(100 + n)
    for f in difference_sets(rng, n):
        assert outcome(verify_difference_set, f) == outcome(oracles.difference_set_params, f)


@pytest.mark.parametrize("n", range(2, 9))
def test_srg_matches_pairwise_oracle(n):
    rng = random.Random(200 + n)
    for g in colour_graphs(rng, n):
        for colour in (RED, BLUE):
            rows = oracles.adjacency_rows(g, colour)
            assert outcome(verify_srg, g, colour) == outcome(oracles.srg_params_from_rows, rows)


def unequal_srgs(rng, n):
    """Red/blue colour tables whose classes are strongly regular with
    lambda != mu, relabelled: red on H - {0} for a random proper subgroup
    H (disjoint cliques, lambda = |H| - 2 and mu = 0) and blue off H (a
    complete multipartite graph), and at n = 4 the Clebsch graph
    (16, 5, 0, 2) in blue."""
    v = 1 << n
    span = {0}
    for _ in range(rng.randrange(1, n)):
        x = rng.randrange(1, v)
        span |= {y ^ x for y in span}
    tables = [[0] + [RED if d in span else BLUE for d in range(1, v)]]
    if n == 4:
        tables.append([0] + [BLUE if d in (1, 2, 4, 8, 15) else RED for d in range(1, v)])
    return [oracles.relabel(t, oracles.random_invertible(rng, n)) for t in tables]


@pytest.mark.parametrize("n", range(2, 9))
def test_unequal_lambda_mu_and_their_near_misses_match_pairwise_oracle(n, monkeypatch):
    # the spectral check with lambda != mu: each class passes without a
    # walk, and with one entry flipped the pairwise oracle names the same
    # first offending pair
    rng = random.Random(300 + n)
    tables = unequal_srgs(rng, n)
    graphs = [DifferenceGraph(n, oracles.int8_bytes(kappa)) for kappa in tables]
    with monkeypatch.context() as patch:
        patch.setattr(bent, "_translates", oracles.first_translate_only)
        params = [(verify_srg(g, RED), verify_srg(g, BLUE)) for g in graphs]
    red, blue = params[0]
    assert (red.lam, red.mu) == (red.k - 1, 0)  # disjoint cliques
    assert blue.mu == blue.k  # complete multipartite
    for kappa, g in zip(tables, graphs):
        flipped = list(kappa)
        flipped[rng.randrange(1, 1 << n)] *= -1
        for graph in (g, DifferenceGraph(n, oracles.int8_bytes(flipped))):
            for colour in (RED, BLUE):
                rows = oracles.adjacency_rows(graph, colour)
                assert outcome(verify_srg, graph, colour) == outcome(oracles.srg_params_from_rows, rows)
