"""The spectral verifiers against the pairwise oracles, input by input.

For every input, verify_difference_set and verify_srg must accept exactly
when the oracles accept, return the same parameters, and reject with the
same message, which names the same first offending difference or pair.
"""

import random

import pytest

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
