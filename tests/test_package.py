"""The package's lazy surface: `import ctwin`, every command, the swap
search, truth tables, graph export, difference sets, strong regularity,
the matrix oracle and the bentness of any table run on the standard
library alone, and numpy never loads.  What loads is read from
sys.modules in the probe (tests/probe.py), a fresh interpreter with
numpy blocked, so each command and library step runs once there, and
that no module imports numpy is read off the source."""

import ast
import functools
import json
import sys
from pathlib import Path

import pytest

import ctwin

from probe import probe

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


# every library step in one probe, in an order that loads each layer at
# its first use; after each step, its result, the ctwin layers loaded so
# far and the modules of INTROSPECTION loaded so far
_LIBRARY = """
import json, sys
import ctwin
steps = {
    "import": lambda: None,
    "search_swap": lambda: ctwin.search_swap(4).status.value,
    "search_all": lambda: len(ctwin.search_all(3, 2000, force=True)),
    "verify_swap": lambda: ctwin.verify_swap(ctwin.search_swap(2).witness),
    "truth tables": lambda: ctwin.BoolFunc.from_hex(ctwin.tau_function(3).hex()) == ctwin.tau_function(3),
    # graph export from a truth table, as a library caller does it
    "export": lambda: [
        ctwin.export_graph(
            ctwin.cayley_graph(ctwin.BoolFunc.from_hex(ctwin.sigma_function(3).hex())), ctwin.BLUE, "graph6"
        ).decode(),
        json.loads(ctwin.export_graph(ctwin.build_delta(2), ctwin.RED, "json-edges")),
    ],
    "difference sets": lambda: [
        ctwin.verify_difference_set(f(3)).as_tuple() for f in (ctwin.sigma_function, ctwin.tau_function)
    ],
    "srg": lambda: [
        ctwin.verify_srg(ctwin.build_delta(3), ctwin.RED).as_tuple(),
        ctwin.verify_srg(ctwin.cayley_graph(ctwin.tau_function(4)), ctwin.BLUE).as_tuple(),
    ],
    "oracle": lambda: ctwin.oracle_build_delta(2) == ctwin.build_delta(2),
    "is_bent": lambda: ctwin.is_bent(ctwin.tau_function(2)),
    # one distinct block more than the factored route takes: the bit planes
    "dense is_bent": lambda: ctwin.is_bent(
        ctwin.BoolFunc(6, bytes(range(ctwin.bent._MAX_LEAVES + 1)).ljust(8, bytes(1)))
    ),
}
seen = {}
for name, step in steps.items():
    result = step()
    loaded = sorted(n for n, mod in sys.modules.items() if mod)
    seen[name] = [
        result,
        [n for n in loaded if n.startswith("ctwin.")],
        [n for n in loaded if n in ("dataclasses", "inspect")],
    ]
print(json.dumps(seen))
"""

# modules that `dataclasses` imports and numpy imports too
INTROSPECTION = {"dataclasses", "inspect"}


@functools.cache
def _library_steps():
    """{step: [its result, the ctwin layers, the modules of INTROSPECTION
    loaded so far]} of _LIBRARY, probed once for the tests that read it.
    The probe blocks numpy, so a step that imported it would raise."""
    run = probe([], program=_LIBRARY)
    assert run.code == 0, run.err
    return json.loads(run.out)


def _results(*names):
    seen = _library_steps()
    return [seen[name][0] for name in names]


def test_library_search_loads_no_numpy():
    # the search, the enumeration and both bentness routes, numpy blocked
    assert _results("search_swap", "search_all", "verify_swap", "is_bent", "dense is_bent") == [
        "exhausted", 1344, True, True, False,
    ]


def test_library_export_loads_no_numpy():
    # and loads no ctwin.algebra: only the oracle step does
    graph6, edges = _results("export")[0]
    assert graph6.encode() == ctwin.to_graph6(ctwin.cayley_graph(ctwin.sigma_function(3)), ctwin.BLUE)
    assert edges == {"v": 16, "colour": "red", "edges": [list(e) for e in ctwin.build_delta(2).edges(ctwin.RED)]}
    assert "ctwin.algebra" not in _library_steps()["export"][1]


def test_library_verifiers_load_no_numpy():
    ds = list(ctwin.predicted_params(3).as_tuple())
    assert _results("difference sets", "truth tables") == [[ds, ds], True]
    assert _results("srg")[0] == [list(ctwin.predicted_srg_params(m).as_tuple()) for m in (3, 4)]
    assert "ctwin.algebra" not in _library_steps()["srg"][1]


def test_library_steps_load_no_dataclasses():
    seen = _library_steps()
    assert {name: introspection for name, (_, _, introspection) in seen.items()} == {name: [] for name in seen}
    assert len(seen) == 11


def test_library_steps_load_only_their_layers():
    # no step loads a layer before the step that first uses it
    first = {
        "import": [],
        "search_swap": ["ctwin.swap", "ctwin.twins"],
        "truth tables": ["ctwin.bent", "ctwin.swap", "ctwin.twins"],
        "export": ["ctwin.bent", "ctwin.graphs", "ctwin.swap", "ctwin.twins"],
        "oracle": ["ctwin.algebra", "ctwin.bent", "ctwin.graphs", "ctwin.swap", "ctwin.twins"],
    }
    seen = _library_steps()
    layers = []
    for name, (_, watched, _) in seen.items():
        layers = first.get(name, layers)
        assert watched == layers, name
    assert _results("oracle") == [True]


def test_probe_sees_a_layer_loaded_through_getattr():
    # ctwin.__getattr__ loads graphs by importlib, and no import statement
    # names it; graphs loads no layer but twins until a call needs one
    run = probe([], program="import ctwin; ctwin.verify_srg")
    assert run.code == 0, run.err
    assert {name for name in run.modules if name.startswith("ctwin")} == {"ctwin", "ctwin.graphs", "ctwin.twins"}


SEARCH_LAYERS = {"ctwin.twins", "ctwin.swap"}
ARRAY_LAYERS = {"ctwin.algebra", "ctwin.bent", "ctwin.graphs"}
# stands for a file path in a command's arguments
OUT = "<out>"


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """probe(ARGV), run once per command for all the tests of this module;
    OUT in ARGV becomes a file of the command's own."""
    runs = {}

    def run(argv):
        if tuple(argv) not in runs:
            out = str(tmp_path_factory.mktemp("out") / "out")
            runs[tuple(argv)] = probe([out if arg == OUT else arg for arg in argv])
        return runs[tuple(argv)]

    return run


@pytest.mark.parametrize(
    "argv, code, loaded, absent",
    [
        (["search", "--m", "3"], 0, SEARCH_LAYERS, ARRAY_LAYERS),
        (["search", "--m", "8"], 2, SEARCH_LAYERS, ARRAY_LAYERS),
        (["search", "--m", "2", "--all"], 0, SEARCH_LAYERS, ARRAY_LAYERS),
        (["table", "--m", "3", "--function", "tau"], 0,
         {"ctwin.twins"}, ARRAY_LAYERS | {"ctwin.swap"}),
        (["bent", "--m", "3", "--function", "tau"], 0,
         {"ctwin.twins", "ctwin.bent"}, {"ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["graph", "--m", "3", "--colour", "red", "--out", OUT], 0,
         {"ctwin.twins", "ctwin.graphs"}, {"ctwin.algebra", "ctwin.bent", "ctwin.swap"}),
        (["graph", "--m", "3", "--colour", "blue", "--format", "json-edges", "--out", OUT], 0,
         {"ctwin.twins", "ctwin.graphs"}, {"ctwin.algebra", "ctwin.bent", "ctwin.swap"}),
        (["params", "--m", "3"], 0,
         {"ctwin.twins", "ctwin.bent", "ctwin.graphs"}, {"ctwin.algebra", "ctwin.swap"}),
        (["oracle", "--m", "2"], 0,
         {"ctwin.twins", "ctwin.algebra", "ctwin.graphs"}, {"ctwin.swap"}),
        (["bent", "--m", "1", "--function", "sigma"], 0,
         {"ctwin.twins", "ctwin.bent"}, {"ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["bent", "--m", "12", "--function", "tau"], 0,
         {"ctwin.twins", "ctwin.bent"}, {"ctwin.algebra", "ctwin.graphs", "ctwin.swap"}),
        (["table", "--m", "3", "--function", "tau", "--format", "bits"], 0,
         {"ctwin.twins"}, ARRAY_LAYERS | {"ctwin.swap"}),
        (["search", "--m", "3", "--all", "2000"], 0, SEARCH_LAYERS, ARRAY_LAYERS),
        (["params", "--m", "5"], 0,
         {"ctwin.twins", "ctwin.bent", "ctwin.graphs"}, {"ctwin.algebra", "ctwin.swap"}),
    ],
)
def test_commands_load_only_their_layers(argv, code, loaded, absent, probed):
    # with numpy blocked each command exits with its code, having loaded
    # its layers and no other
    run = probed(argv)
    assert run.code == code, run.err
    assert loaded <= run.modules and not absent & run.modules


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
        (["search", "--m", "2", "--all"], False),
        (["params", "--m", "3"], False),
        (["bent", "--m", "1", "--function", "sigma"], False),
        (["bent", "--m", "12", "--function", "tau"], False),
    ],
)
def test_commands_load_no_dataclasses(argv, numpy, probed):
    # numpy: whether the run may import it, False for every command since
    # the probe blocks it; the run is the one its layer test reads, and
    # loads neither dataclasses nor inspect
    assert not numpy
    run = probed(argv)
    assert run.code in (0, 2), run.err
    assert not INTROSPECTION & run.modules


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


def test_no_module_imports_numpy():
    # in a function or at module level: so a command that runs with numpy
    # blocked runs the same where numpy has been imported
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
