"""Twin bent functions from the real Clifford algebra R_{m,m}.

The package builds the signed monomial basis of Rep(R_{m,m}), the twin
bent functions sigma_m and tau_m on 2m bits, verifies their Hadamard
difference-set and strongly-regular-graph consequences, and searches for
a red/blue colour-swapping automorphism of the two-colour difference
graph Delta_m on its coset blocks.
"""

from .algebra import (
    E1,
    E1E2,
    E2,
    I2,
    SignedPerm,
    SymmetryClass,
    bit_pairs,
    classify,
    diagonal_count,
    from_bit_pairs,
    gamma,
    generator,
)
from .bent import (
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
from .graphs import (
    BLUE,
    RED,
    DifferenceGraph,
    SrgParams,
    build_delta,
    cayley_graph,
    export_graph,
    graph6_blocks,
    json_edges_blocks,
    oracle_build_delta,
    predicted_srg_params,
    to_graph6,
    verify_srg,
)
from .swap import (
    SearchOutcome,
    SearchStatus,
    SwapMap,
    search_all,
    search_swap,
    verify_swap,
)

__version__ = "0.1.0"
