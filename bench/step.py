"""One benchmark step in a fresh interpreter.

    step.py [--trace SPANS T_SPAWN] OPERATION ARG...

OPERATION is "cli" (the remaining arguments go to the ctwin command, as
`python -m ctwin` would take them) or one of the library calls below,
which read a "tt:<arity>:<hex>" truth table from a file and print one
JSON object or write a payload file.  With --trace, every call into a
public ctwin function is recorded (see tracing.py) and the spans are
written to SPANS on exit; T_SPAWN is the benchmark's clock reading when
it started this process, which opens the start-up span.
"""

import json
import sys
import time


def _table(path):
    from ctwin import BoolFunc

    with open(path) as fh:
        return BoolFunc.from_hex(fh.read())


def _is_bent(path):
    from ctwin import is_bent

    print(json.dumps({"bent": is_bent(_table(path))}))


def _diffset(path):
    from ctwin import verify_difference_set

    print(json.dumps({"params": list(verify_difference_set(_table(path)).as_tuple())}))


def _srg(path):
    from ctwin import BLUE, cayley_graph, verify_srg

    graph = cayley_graph(_table(path))
    print(json.dumps({"params": list(verify_srg(graph, BLUE).as_tuple())}))


def _graph6(path, out):
    from ctwin import BLUE, cayley_graph, export_graph

    data = export_graph(cayley_graph(_table(path)), BLUE, "graph6")
    with open(out, "wb") as fh:
        fh.write(data)


def _search_all(m, limit):
    from ctwin import search_all

    maps = search_all(int(m), int(limit), force=True)
    print(json.dumps({"witnesses": [list(w.phi) for w in maps]}))


def _search_swap(m, order, node_budget):
    from ctwin import search_swap

    budget = int(node_budget) or None
    outcome = search_swap(int(m), order=order, node_budget=budget)
    phi = None if outcome.witness is None else list(outcome.witness.phi)
    print(json.dumps({"status": outcome.status.value, "phi": phi, "nodes": outcome.nodes}))


OPERATIONS = {
    "is_bent": _is_bent,
    "diffset": _diffset,
    "srg": _srg,
    "graph6": _graph6,
    "search_all": _search_all,
    "search_swap": _search_swap,
}


def main(argv):
    tracer = None
    if argv[0] == "--trace":
        spans_path, t_spawn = argv[1], float(argv[2])
        argv = argv[3:]
        import ctwin
        import ctwin.cli
        import tracing

        tracer = tracing.Tracer()
        tracer.add("startup", t_spawn, time.monotonic())
        tracer.install(ctwin)
    op, args = argv[0], argv[1:]
    try:
        if op == "cli":
            import ctwin.cli

            return ctwin.cli.main(args)
        OPERATIONS[op](*args)
        return 0
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
