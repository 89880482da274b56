"""The package's lazy surface: `import ctwin`, every command, the swap
search, truth tables, graph export, difference sets, strong regularity,
the matrix oracle and the bentness of any table run on the standard
library alone, and numpy never loads.  What loads is checked in fresh
interpreters, whose sys.modules start without numpy, and that no module
imports numpy is read off the source."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ctwin

# every name the package exported when its __init__ imported them all,
# by the layer that defines it
EXPORTED = {
    "algebra": "E1 E1E2 E2 I2 SignedPerm SymmetryClass bit_pairs classify gamma",
    "bent": "BoolFunc DiffSetParams is_bent predicted_params sigma sigma_function tau "
    "tau_function verify_difference_set",
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
# one distinct block more than the factored route takes: the bit planes
ctwin.is_bent(ctwin.BoolFunc(6, bytes(range(ctwin.bent._MAX_LEAVES + 1)).ljust(8, bytes(1))))
seen["dense is_bent"] = "numpy" in sys.modules
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
        "import is_bent": False, "is_bent": False, "dense is_bent": False,
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
         {"ctwin.twins", "ctwin.bent"}, {"numpy", "ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["graph", "--m", "3", "--colour", "red", "--out", OUT], 0,
         EXPORT_LAYERS, {"numpy", "ctwin.algebra", "ctwin.swap"}),
        (["graph", "--m", "3", "--colour", "blue", "--format", "json-edges", "--out", OUT], 0,
         EXPORT_LAYERS, {"numpy", "ctwin.algebra", "ctwin.swap"}),
        (["params", "--m", "3"], 0,
         {"ctwin.twins", "ctwin.bent", "ctwin.graphs"}, {"numpy", "ctwin.algebra", "ctwin.swap"}),
        (["oracle", "--m", "2"], 0,
         {"ctwin.twins", "ctwin.algebra", "ctwin.graphs"}, {"numpy", "ctwin.swap"}),
        (["bent", "--m", "1", "--function", "sigma"], 0,
         {"ctwin.twins", "ctwin.bent"}, {"numpy", "ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["bent", "--m", "12", "--function", "tau"], 0,
         {"ctwin.twins", "ctwin.bent"}, {"numpy", "ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["table", "--m", "3", "--function", "tau", "--format", "bits"], 0,
         {"ctwin.twins"}, ARRAY_LAYERS | {"ctwin.swap"}),
    ],
)
def test_commands_load_only_their_layers(argv, code, loaded, absent, tmp_path):
    argv = [str(tmp_path / "out") if arg == OUT else arg for arg in argv]
    returned, modules = _imported_by_command(argv)
    assert returned == code
    assert loaded <= modules and not absent & modules


def _numpy_imports(tree):
    """The enclosing function (None at module level) of every import of
    numpy in a module's tree that runs: not under `if TYPE_CHECKING:`,
    which only type checkers read."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(function)
        checking = isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for child in node.orelse if checking else ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_numpy_is_imported_only_by_the_dense_bentness_route():
    # there is no dense route left, and no module of src/ctwin imports
    # numpy, in a function or at module level
    package = Path(ctwin.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert _numpy_imports(ast.parse(path.read_text())) == [], path.name


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


# --- no dataclasses, and no inspect without numpy ---------------------------

# modules that `dataclasses` imports and numpy imports too
INTROSPECTION = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, numpy",
    [
        (["search", "--m", "3"], False),
        (["search", "--m", "8"], False),
        (["search", "--m", "3", "--all", "2000"], False),
        (["table", "--m", "3", "--function", "tau"], False),
        (["table", "--m", "3", "--function", "tau", "--format", "bits"], False),
        (["bent", "--m", "3", "--function", "tau"], False),
        (["graph", "--m", "3", "--colour", "red", "--out", OUT], False),
        (["graph", "--m", "3", "--colour", "blue", "--format", "json-edges", "--out", OUT], False),
        (["params", "--m", "5"], False),
        (["oracle", "--m", "2"], False),
    ],
)
def test_commands_load_no_dataclasses(argv, numpy, tmp_path):
    # inspect comes with numpy, and with nothing else
    argv = [str(tmp_path / "out") if arg == OUT else arg for arg in argv]
    returned, modules = _imported_by_command(argv)
    assert returned in (0, 2)
    assert ("numpy" in modules) == numpy
    assert INTROSPECTION & modules == ({"inspect"} if numpy else set())


# every library step, in one interpreter: the modules of INTROSPECTION
# loaded after each, and whether numpy has loaded
_LIBRARY_STEPS = """
import json, sys
import ctwin
steps = {
    "import": lambda: None,
    "search_swap": lambda: ctwin.search_swap(4),
    "search_all": lambda: ctwin.search_all(3, 2000),
    "verify_swap": lambda: ctwin.verify_swap(ctwin.search_swap(2).witness),
    "truth tables": lambda: ctwin.BoolFunc.from_hex(ctwin.tau_function(3).hex()),
    "export": lambda: ctwin.export_graph(ctwin.build_delta(2), ctwin.RED, "json-edges"),
    "difference sets": lambda: ctwin.verify_difference_set(ctwin.sigma_function(3)),
    "srg": lambda: ctwin.verify_srg(ctwin.cayley_graph(ctwin.tau_function(4)), ctwin.BLUE),
    "oracle": lambda: ctwin.oracle_build_delta(2) == ctwin.build_delta(2),
    "is_bent": lambda: ctwin.is_bent(ctwin.tau_function(2)),
    "dense is_bent": lambda: ctwin.is_bent(
        ctwin.BoolFunc(6, bytes(range(ctwin.bent._MAX_LEAVES + 1)).ljust(8, bytes(1)))
    ),
}
seen = {}
for name, step in steps.items():
    step()
    seen[name] = [sorted({"dataclasses", "inspect"} & set(sys.modules)), "numpy" in sys.modules]
print(json.dumps(seen))
"""


def test_library_steps_load_no_dataclasses():
    seen = _fresh(_LIBRARY_STEPS)
    assert seen == {name: [[], False] for name in seen} and len(seen) == 11


# --- the value records --------------------------------------------------------

def _records():
    """(record, an equal one made anew, its fields, its repr) for each of
    the package's records."""
    phi = (0, 2, 1, 3)
    # the refuting pairs and the lifts' images, in search_swap's form
    certificate = (((0, 1), (1, 2), (0, 2)), ((1, 2, 4, 8), (4, 8, 1, 2)))
    cases = [
        (lambda: ctwin.BoolFunc(3, b"\x96"), (3, b"\x96"), "BoolFunc(n=3, packed=b'\\x96')"),
        (lambda: ctwin.DiffSetParams(16, 6, 2, 4), (16, 6, 2, 4),
         "DiffSetParams(v=16, k=6, lam=2, n=4)"),
        (lambda: ctwin.DifferenceGraph(2, b"\0\xff\1\0"), (2, b"\0\xff\1\0"),
         "DifferenceGraph(n_bits=2, colours=b'\\x00\\xff\\x01\\x00')"),
        (lambda: ctwin.SrgParams(16, 6, 2, 2), (16, 6, 2, 2), "SrgParams(v=16, k=6, lam=2, mu=2)"),
        (lambda: ctwin.SwapMap(1, phi), (1, phi), "SwapMap(m=1, phi=(0, 2, 1, 3))"),
        (lambda: ctwin.SearchOutcome(ctwin.SearchStatus.FOUND, ctwin.SwapMap(1, phi), 4),
         (ctwin.SearchStatus.FOUND, ctwin.SwapMap(1, phi), 4, None),
         "SearchOutcome(status=<SearchStatus.FOUND: 'found'>, "
         "witness=SwapMap(m=1, phi=(0, 2, 1, 3)), nodes=4, certificate=None)"),
        (lambda: ctwin.SignedPerm((1, 0), (1, -1)), ((1, 0), (1, -1)),
         "SignedPerm(perm=(1, 0), signs=(1, -1))"),
    ]
    params = [
        pytest.param(make(), make(), fields, text, id=text.split("(")[0])
        for make, fields, text in cases
    ]
    # an exhausted outcome, whose certificate must hash as well
    def exhausted():
        return ctwin.SearchOutcome(ctwin.SearchStatus.EXHAUSTED, None, 51, certificate)

    params.append(pytest.param(
        exhausted(), exhausted(), (ctwin.SearchStatus.EXHAUSTED, None, 51, certificate),
        "SearchOutcome(status=<SearchStatus.EXHAUSTED: 'exhausted'>, witness=None, nodes=51, "
        "certificate=(((0, 1), (1, 2), (0, 2)), ((1, 2, 4, 8), (4, 8, 1, 2))))",
        id="SearchOutcome-exhausted",
    ))
    return params


@pytest.mark.parametrize("record, twin, fields, text", _records())
def test_records_are_frozen_values(record, twin, fields, text):
    # value equality and hashing, the repr, copies, and no assignment
    import copy
    import pickle

    assert record == twin and record is not twin and not record != twin
    assert hash(record) == hash(twin) == hash(fields)
    assert repr(record) == text
    assert record != fields  # a record equals only a record of its class
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    name = text.split("(")[1].split("=")[0]  # the first field
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 0
    assert getattr(record, name) == fields[0]


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ctwin.BoolFunc(0, b"\0"), ValueError, "arity must be >= 1"),
        (lambda: ctwin.BoolFunc(2, 0), TypeError, "must be bytes"),
        (lambda: ctwin.BoolFunc(2, b"\x10"), ValueError, "does not fit"),
        (lambda: ctwin.DiffSetParams(4, 1, 0, 2), ValueError, "n must equal k - lam"),
        (lambda: ctwin.DifferenceGraph(0, b"\0"), ValueError, "n_bits must be >= 1"),
        (lambda: ctwin.DifferenceGraph(1, [0, 1]), TypeError, "int8 bytes"),
        (lambda: ctwin.DifferenceGraph(1, b"\0"), ValueError, "2\\^n_bits"),
        (lambda: ctwin.DifferenceGraph(1, b"\1\0"), ValueError, "difference 0"),
        (lambda: ctwin.DifferenceGraph(1, b"\0\2"), ValueError, "-1, 0 or \\+1"),
        (lambda: ctwin.SrgParams(16, 6, 2, 3), ValueError, "must equal k\\*\\(k-1-lam\\)"),
        (lambda: ctwin.SwapMap(1, (0, 0, 1, 2)), ValueError, "not a permutation of 0..3"),
        (lambda: ctwin.SwapMap(1, [0, 1, 2, 3]), TypeError, "phi must be a tuple"),
        (lambda: ctwin.SwapMap(-1, ()), ValueError, "m must be >= 1"),
        (lambda: ctwin.SwapMap(0, (0,)), ValueError, "must be >= 1"),
        (lambda: ctwin.SignedPerm([0, 1], [1, 1]), TypeError, "perm and signs must be tuples"),
        (lambda: ctwin.SignedPerm((0, 1), [1, 1]), TypeError, "must be tuples"),
        (lambda: ctwin.SignedPerm((0, 1), (1,)), ValueError, "same length"),
        (lambda: ctwin.SignedPerm((0, 0), (1, 1)), ValueError, "not a permutation"),
        (lambda: ctwin.SignedPerm((0, 1), (1, 2)), ValueError, "\\+1 or -1"),
    ],
)
def test_records_check_their_fields(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ctwin.BoolFunc(2, b"\x06")(4), ValueError, "input 4 out of range for arity 2"),
        (lambda: ctwin.BoolFunc(2, b"\x06") ^ ctwin.BoolFunc(3, b"\x96"), ValueError, "arity mismatch"),
        (lambda: ctwin.BoolFunc.from_bits(0, 0), ValueError, "arity must be >= 1"),
        (lambda: ctwin.BoolFunc.from_values(1, [0, 2]), ValueError, "entries must be 0 or 1"),
        (lambda: ctwin.BoolFunc.from_values(2, [0, 1]), ValueError, "expected 4 entries, got 2"),
        (lambda: ctwin.predicted_params(0), ValueError, "m must be >= 1"),
        (lambda: ctwin.build_delta(0), ValueError, "m must be >= 1"),
        (lambda: ctwin.oracle_build_delta(0), ValueError, "m must be >= 1"),
    ],
)
def test_calls_check_their_arguments(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_records_take_their_fields_by_keyword():
    outcome = ctwin.SearchOutcome(status=ctwin.SearchStatus.EXHAUSTED, witness=None, nodes=51)
    assert outcome == ctwin.SearchOutcome(ctwin.SearchStatus.EXHAUSTED, None, 51, None)
    assert ctwin.SwapMap(phi=(0, 2, 1, 3), m=1) == ctwin.SwapMap(1, (0, 2, 1, 3))
    assert ctwin.SrgParams(v=16, k=6, lam=2, mu=2).as_tuple() == (16, 6, 2, 2)
