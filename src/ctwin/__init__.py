"""Twin bent functions from the real Clifford algebra R_{m,m}.

The package builds the signed monomial basis of Rep(R_{m,m}), the twin
bent functions sigma_m and tau_m on 2m bits, verifies their Hadamard
difference-set and strongly-regular-graph consequences, and searches for
a red/blue colour-swapping automorphism of the two-colour difference
graph Delta_m on its coset blocks.

The names below load their layer on first use (PEP 562).  Every layer
runs on the standard library alone: `import ctwin`, the swap search,
truth tables, Delta_m, graph export, difference sets
(`verify_difference_set`), strong regularity (`verify_srg`), the matrix
oracle and the bentness of any table (`is_bent`); the oracle alone
loads `algebra`.  The package has no runtime dependency.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "E1", "E1E2", "E2", "I2", "SignedPerm", "SymmetryClass", "bit_pairs",
        "classify", "gamma",
    ),
    "bent": (
        "BoolFunc", "DiffSetParams", "is_bent", "predicted_params", "sigma",
        "sigma_function", "tau", "tau_function", "verify_difference_set",
    ),
    "graphs": (
        "BLUE", "RED", "DifferenceGraph", "SrgParams", "build_delta", "cayley_graph",
        "export_graph", "graph6_blocks", "json_edges_blocks", "oracle_build_delta",
        "predicted_srg_params", "to_graph6", "verify_srg",
    ),
    "swap": (
        "SearchOutcome", "SearchStatus", "SwapMap", "search_all", "search_swap", "verify_swap",
    ),
}
_LAYERS = ("algebra", "bent", "graphs", "swap", "cli")
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
