"""The package's lazy surface: `import ctwin`, the swap search, truth
tables, graph export, difference sets, strong regularity and the matrix
oracle run on the standard library alone, and numpy loads only with the
spectral transforms and `table --format bits`.  What loads is checked
in fresh interpreters, whose sys.modules start without numpy."""

import json
import subprocess
import sys

import pytest

import ctwin

# every name the package exported when its __init__ imported them all,
# by the layer that defines it
EXPORTED = {
    "algebra": "E1 E1E2 E2 I2 SignedPerm SymmetryClass bit_pairs classify diagonal_count "
    "from_bit_pairs gamma generator",
    "bent": "BoolFunc DiffSetParams dual fwht is_bent predicted_params sigma sigma_function "
    "tau tau_function tokareva_compose verify_difference_set walsh_transform",
    "graphs": "BLUE RED DifferenceGraph SrgParams build_delta cayley_graph export_graph "
    "graph6_blocks json_edges_blocks oracle_build_delta predicted_srg_params to_graph6 "
    "verify_srg",
    "swap": "SearchOutcome SearchStatus SwapMap search_all search_swap verify_swap",
}
LAYERS = ("algebra", "bent", "graphs", "swap", "cli")


def _fresh(code):
    """Run code in a fresh interpreter; returns its stdout, parsed as
    JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LIBRARY = """
import json, sys
import ctwin
seen = {"import": "numpy" in sys.modules}
ctwin.search_swap(4)
seen["search_swap"] = "numpy" in sys.modules
ctwin.search_all(3, 2000, force=True)
seen["search_all"] = "numpy" in sys.modules
ctwin.is_bent
seen["import is_bent"] = "numpy" in sys.modules
ctwin.is_bent(ctwin.tau_function(2))
seen["is_bent"] = "numpy" in sys.modules
print(json.dumps(seen))
"""

# graph export from a truth table, as a library caller does it
_LIBRARY_EXPORT = """
import json, sys
import ctwin
f = ctwin.BoolFunc.from_hex(ctwin.sigma_function(3).hex())
data = ctwin.export_graph(ctwin.cayley_graph(f), ctwin.BLUE, "graph6")
print(json.dumps([data.decode(), sorted({"numpy", "ctwin.algebra"} & set(sys.modules))]))
"""


# difference sets and strong regularity, as a library caller checks them
_LIBRARY_VERIFY = """
import json, sys
import ctwin
ds = ctwin.verify_difference_set(ctwin.tau_function(3))
srg = ctwin.verify_srg(ctwin.build_delta(3), ctwin.RED)
print(json.dumps([ds.as_tuple(), srg.as_tuple(), sorted({"numpy", "ctwin.algebra"} & set(sys.modules))]))
"""


def _imported_by_command(argv):
    """(exit code, the modules imported) of `python -m ctwin ARGV`, read
    off the interpreter's -X importtime report."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ctwin", *argv],
        capture_output=True, text=True, timeout=120,
    )
    report = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert report, proc.stderr
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in report}


def test_library_search_loads_no_numpy():
    seen = _fresh(_LIBRARY)
    assert seen == {
        "import": False, "search_swap": False, "search_all": False,
        "import is_bent": False, "is_bent": True,
    }


def test_library_export_loads_no_numpy():
    data, loaded = _fresh(_LIBRARY_EXPORT)
    assert loaded == []
    g = ctwin.cayley_graph(ctwin.sigma_function(3))
    assert data.encode() == ctwin.to_graph6(g, ctwin.BLUE)


def test_library_verifiers_load_no_numpy():
    ds, srg, loaded = _fresh(_LIBRARY_VERIFY)
    assert loaded == []
    assert ds == list(ctwin.predicted_params(3).as_tuple())
    assert srg == list(ctwin.predicted_srg_params(3).as_tuple())


SEARCH_LAYERS = {"ctwin.twins", "ctwin.swap"}
ARRAY_LAYERS = {"numpy", "ctwin.algebra", "ctwin.bent", "ctwin.graphs"}
EXPORT_LAYERS = {"ctwin.twins", "ctwin.bent", "ctwin.graphs"}
# stands for a file path in a command's arguments
OUT = "<out>"


@pytest.mark.parametrize(
    "argv, code, loaded, absent",
    [
        (["search", "--m", "3"], 0, SEARCH_LAYERS, ARRAY_LAYERS),
        (["search", "--m", "8"], 2, SEARCH_LAYERS, ARRAY_LAYERS),
        (["search", "--m", "2", "--all"], 0, SEARCH_LAYERS, ARRAY_LAYERS),
        (["table", "--m", "3", "--function", "tau"], 0,
         {"ctwin.twins"}, ARRAY_LAYERS | {"ctwin.swap"}),
        (["bent", "--m", "3", "--function", "tau"], 0,
         {"numpy", "ctwin.bent"}, {"ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["graph", "--m", "3", "--colour", "red", "--out", OUT], 0,
         EXPORT_LAYERS, {"numpy", "ctwin.algebra", "ctwin.swap"}),
        (["graph", "--m", "3", "--colour", "blue", "--format", "json-edges", "--out", OUT], 0,
         EXPORT_LAYERS, {"numpy", "ctwin.algebra", "ctwin.swap"}),
        (["params", "--m", "3"], 0,
         {"ctwin.twins", "ctwin.bent", "ctwin.graphs"}, {"numpy", "ctwin.algebra", "ctwin.swap"}),
        (["oracle", "--m", "2"], 0,
         {"ctwin.twins", "ctwin.algebra", "ctwin.graphs"}, {"numpy", "ctwin.swap"}),
    ],
)
def test_commands_load_only_their_layers(argv, code, loaded, absent, tmp_path):
    argv = [str(tmp_path / "out") if arg == OUT else arg for arg in argv]
    returned, modules = _imported_by_command(argv)
    assert returned == code
    assert loaded <= modules and not absent & modules


def test_exported_names_and_layers_resolve():
    names = {name: layer for layer, names in EXPORTED.items() for name in names.split()}
    assert sorted(ctwin.__all__) == sorted(names)
    listed = dir(ctwin)
    for name, layer in names.items():
        value = getattr(ctwin, name)
        assert value is getattr(sys.modules[f"ctwin.{layer}"], name), name
        assert name in listed, name
    for layer in LAYERS:
        assert getattr(ctwin, layer) is sys.modules[f"ctwin.{layer}"], layer
        assert layer in listed, layer
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        ctwin.nonesuch
