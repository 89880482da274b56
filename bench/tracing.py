"""Spans around calls into ctwin's public functions, and the per-layer
metrics computed from them.

A traced step process installs a Tracer before it runs, which replaces
every public function and method of the layer modules by a wrapper that
records one span per call: (name, start, end, parent index, note).  The
parent index is -1 for a span with no traced caller; the note carries the
work a few calls did (arity, vertex count, bytes, search nodes), so that
rates are measured where the work happens.  Spans stay in memory and are
written with marshal when the step ends.  Nothing inside ctwin is changed
on disk.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import statistics
import time
from enum import Enum

LAYERS = ("algebra", "bent", "graphs", "swap", "cli")


def _m(args, kwargs):
    return kwargs["m"] if "m" in kwargs else args[0]


def _search_note(args, kwargs, outcome):
    depth = 0 if outcome.witness is None else len(outcome.witness.phi)
    order = kwargs.get("order", "natural")
    return [_m(args, kwargs), order, outcome.status.value, outcome.nodes, depth]


# work done by a call, read off its arguments and result
_NOTES = {
    "bent.walsh_transform": lambda a, k, r: a[0].n,
    "bent.verify_difference_set": lambda a, k, r: a[0].n,
    "graphs.verify_srg": lambda a, k, r: a[0].v,
    "graphs.to_graph6": lambda a, k, r: len(r),
    "swap.search_swap": _search_note,
    "swap.search_all": lambda a, k, r: [_m(a, k), len(r)],
}


class Tracer:
    """Records one span per call into a wrapped function of this process."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def add(self, name: str, start: float, end: float):
        """Record a span that no wrapper timed, with no traced caller."""
        self.spans.append((name, start, end, -1, None))

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[sid] = (name, start, end, parent, None)
            if note is not None:
                spans[sid] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def install(self, package):
        """Wrap every public function and method defined in the layer
        modules of `package`, in every namespace of the package that
        binds it, so calls between modules are traced too."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._install_methods(f"{layer}.{name}", obj)
        for ns in [package, *modules]:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, name, wrapped[id(obj)])

    def _install_methods(self, prefix, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(f"{prefix}.{name}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", raw))

    def dump(self, path: str):
        with open(path, "wb") as fh:
            marshal.dump(self.spans, fh)


def load(path) -> list:
    with open(path, "rb") as fh:
        return marshal.load(fh)


# --- aggregation (in the benchmark process) ----------------------------------

def _outermost(spans, names):
    """Spans with one of the names whose callers have none of them, so a
    call nested in another of its group is not counted twice."""
    out = []
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(s)
    return out


def _busy(steps, *names):
    return sum(s[2] - s[1] for st in steps for s in _outermost(st.spans, set(names)))


def _notes(steps, name):
    return [(s[2] - s[1], s[4]) for st in steps for s in st.spans if s[0] == name]


def _rate(pairs):
    work = sum(w for _, w in pairs)
    busy = sum(d for d, _ in pairs)
    return work / busy if busy > 0 else 0.0


def layer_metrics(steps) -> dict:
    """Per-layer metrics of a traced pass.

    Each step has `spans`, `wall` (spawn to exit, in the benchmark's
    clock), `kind` ("cli" or a library operation), `elapsed` (the
    command's own elapsed_ms, in seconds, for CLI steps) and `stdout_bytes`.
    """
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("bent.tables_s", _busy(steps, "bent.sigma_function", "bent.tau_function"), "s")
    put("bent.unpack_s", _busy(steps, "bent.BoolFunc.table"), "s")
    put("bent.walsh_s", _busy(steps, "bent.walsh_transform"), "s")
    put("bent.is_bent_s", _busy(steps, "bent.is_bent"), "s")
    walsh = [(d, n * (1 << (n - 1))) for d, n in _notes(steps, "bent.walsh_transform")]
    put("bent.butterflies_per_s", _rate(walsh), "1/s")
    diffset = _notes(steps, "bent.verify_difference_set")
    put("bent.diffset_m6_s", sum(d for d, n in diffset if n == 12), "s")
    put("bent.diffset_m7_s", sum(d for d, n in diffset if n == 14), "s")
    put("bent.hex_s", _busy(steps, "bent.BoolFunc.hex"), "s")

    put("graphs.build_delta_s", _busy(steps, "graphs.build_delta"), "s")
    put("graphs.cayley_s", _busy(steps, "graphs.cayley_graph"), "s")
    put("graphs.srg_s", _busy(steps, "graphs.verify_srg"), "s")
    srg = [(d, v * (v - 1) // 2) for d, v in _notes(steps, "graphs.verify_srg")]
    put("graphs.srg_pairs_per_s", _rate(srg), "1/s")
    put("graphs.graph6_s", _busy(steps, "graphs.to_graph6"), "s")
    put("graphs.graph6_bytes_per_s", _rate(_notes(steps, "graphs.to_graph6")), "B/s")
    put("graphs.json_edges_s", _busy(steps, "graphs.to_json_edges"), "s")
    put("graphs.oracle_s", _busy(steps, "graphs.oracle_build_delta"), "s")

    put("algebra.basis_s", _busy(steps, "algebra.gamma", "algebra.classify"), "s")

    searches = _notes(steps, "swap.search_swap")
    put("swap.witness_s", sum(d for d, n in searches if n[2] == "found"), "s")
    for order in ("natural", "mcv"):
        m3 = [n for _, n in searches if n[0] == 3 and n[1] == order]
        nodes = sum(n[3] for n in m3)
        depth = sum(n[4] for n in m3)
        put(f"swap.nodes.{order}_m3", nodes, "count")
        put(f"swap.useful_ratio.{order}_m3", depth / nodes if nodes else 0.0, "ratio")
    enumerations = _notes(steps, "swap.search_all")
    put("swap.enumerate_s", sum(d for d, _ in enumerations), "s")
    put("swap.witnesses_m3", sum(n[1] for _, n in enumerations if n[0] == 3), "count")
    for order in ("natural", "mcv"):
        m4 = [(d, n[3]) for d, n in searches if n[0] == 4 and n[1] == order]
        put(f"swap.nodes_per_s.{order}_m4", _rate(m4), "1/s")

    startups = [s[2] - s[1] for st in steps for s in st.spans if s[0] == "startup"]
    put("cli.startup_s", statistics.median(startups) if startups else 0.0, "s")
    cli = [st for st in steps if st.kind == "cli"]
    put("cli.overhead_s", sum(st.wall - st.elapsed for st in cli), "s")
    put("cli.stdout_bytes", sum(st.stdout_bytes for st in cli), "B")

    for layer in LAYERS:
        calls = 0
        self_time = 0.0
        for st in steps:
            child = [0.0] * len(st.spans)
            for s in st.spans:
                if s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            for s, c in zip(st.spans, child):
                if s[0].split(".", 1)[0] == layer:
                    calls += 1
                    self_time += s[2] - s[1] - c
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_s", self_time, "s")
    return out


def unaccounted(steps) -> float:
    """Share of the steps' wall time that no top-level span covers."""
    wall = sum(st.wall for st in steps)
    covered = sum(s[2] - s[1] for st in steps for s in st.spans if s[3] < 0)
    return (wall - covered) / wall if wall > 0 else 0.0
