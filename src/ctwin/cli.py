"""Command-line front end.

Each invocation prints exactly one JSON object on stdout; anything meant
for humans goes to stderr.  Exit codes: 0 success (or witness found),
1 error or bad usage, 2 search exhausted, 3 search inconclusive.

Each command imports the layers it uses when it runs, on top of
`twins`: `table` none, `search` `swap`, `graph` `graphs`, `bent` `bent`,
`params` `bent` and `graphs`, and `oracle` `graphs`, `bent` and
`algebra`.  Every one runs on the standard library alone: `search`,
`graph`, `params`, `oracle`, `bent` (whose twins `is_bent` checks
through their few distinct blocks) and `table` in both formats, which
encodes each distinct piece of a twin table once.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from collections.abc import Iterator

from .twins import _DELTA_MAX_M, _bit_text, _tt_text, _twin_pieces

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2
EXIT_INCONCLUSIVE = 3

_TABLE_MAX_M = 14
_BENT_MAX_M = 12
# the largest m whose parameters print: v = 4^m then has 4300 digits,
# Python's default limit on converting an int to decimal text
_PARAMS_MAX_M = 7142
_JSON_EDGES_MAX_M = 6
_SEARCH_ALL_DEFAULT_LIMIT = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ctwin", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("table", help="truth table of sigma_m or tau_m")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--function", choices=("sigma", "tau"), required=True)
    s.add_argument("--format", choices=("hex", "bits"), default="hex")

    s = sub.add_parser("bent", help="check the constant spectrum magnitude")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--function", choices=("sigma", "tau"), required=True)

    s = sub.add_parser("params", help="difference-set and SRG parameters")
    s.add_argument("--m", type=int, required=True)

    s = sub.add_parser("graph", help="export one colour class of Delta_m")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--colour", choices=("red", "blue"), required=True)
    s.add_argument("--format", choices=("graph6", "json-edges"), default="graph6")
    s.add_argument("--out", help="write the payload to this file")

    s = sub.add_parser("search", help="search for the red/blue swap")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--node-budget", type=int, default=None)
    s.add_argument(
        "--all",
        nargs="?",
        type=int,
        const=_SEARCH_ALL_DEFAULT_LIMIT,
        default=None,
        metavar="LIMIT",
        help="enumerate witnesses instead of stopping at the first",
    )

    s = sub.add_parser("oracle", help="cross-validate bit rules against the matrices")
    s.add_argument("--m", type=int, required=True)
    return p


def _check_m(m: int, low: int, high: int):
    if not low <= m <= high:
        raise UsageError(f"--m must be in {low}..{high}, got {m}")


def _cmd_table(args):
    _check_m(args.m, 1, _TABLE_MAX_M)
    pieces = _twin_pieces(args.m, args.function)
    text = (_bit_text if args.format == "bits" else _tt_text)(pieces, 2 * args.m)
    # one JSON string in blocks, so neither the table nor its text is ever whole
    table = itertools.chain((b'"',), text, (b'"',))
    return {"function": args.function, "m": args.m, "table": table}, EXIT_OK


def _cmd_bent(args):
    from .bent import is_bent, sigma_function, tau_function

    _check_m(args.m, 1, _BENT_MAX_M)
    f = sigma_function(args.m) if args.function == "sigma" else tau_function(args.m)
    return {"bent": is_bent(f), "magnitude": 1 << args.m}, EXIT_OK


def _cmd_params(args):
    from .bent import predicted_params, sigma_function, tau_function, verify_difference_set
    from .graphs import BLUE, RED, build_delta, predicted_srg_params, verify_srg

    _check_m(args.m, 1, _PARAMS_MAX_M)
    ds = predicted_params(args.m)
    srg = predicted_srg_params(args.m)
    result = {"ds": list(ds.as_tuple()), "srg": list(srg.as_tuple()), "confirmed": None}
    if args.m <= _DELTA_MAX_M:
        graph = build_delta(args.m)
        measured = (
            verify_difference_set(sigma_function(args.m)),
            verify_difference_set(tau_function(args.m)),
            verify_srg(graph, RED),
            verify_srg(graph, BLUE),
        )
        expected = (ds, ds, srg, srg)
        if measured != expected:
            raise RuntimeError(
                f"measured parameters {measured} disagree with the closed form"
            )
        result["confirmed"] = True
    return result, EXIT_OK


def _cmd_graph(args):
    from .graphs import BLUE, RED, build_delta, graph6_blocks, json_edges_blocks

    graph6 = args.format == "graph6"
    _check_m(args.m, 1, _DELTA_MAX_M if graph6 else _JSON_EDGES_MAX_M)
    colour = RED if args.colour == "red" else BLUE
    graph = build_delta(args.m)
    blocks = (graph6_blocks if graph6 else json_edges_blocks)(graph, colour)
    if args.out:
        # written block by block, so the payload is never held whole,
        # through a 1 MB buffer: the default is the file system's block
        # size, often 4 KB, one write call per few blocks of edges
        with open(args.out, "wb", buffering=1 << 20) as fh:
            size = sum(fh.write(block) for block in blocks)
        return {"format": args.format, "path": args.out, "bytes": size}, EXIT_OK
    if graph6:
        # as a JSON string: graph6 uses the characters ? to ~, of which
        # only the backslash needs escaping
        blocks = itertools.chain(
            (b'"',), (block.replace(b"\\", b"\\\\") for block in blocks), (b'"',)
        )
    # every check has passed, so _report can start writing the payload
    return {"format": args.format, "payload": blocks}, EXIT_OK


def _cmd_search(args):
    from .swap import SearchStatus, search_all, search_swap

    _check_m(args.m, 1, _DELTA_MAX_M)
    if args.all is not None:
        if args.node_budget is not None:
            raise UsageError("--node-budget does not apply to --all")
        witnesses = search_all(args.m, args.all)
        result = {
            "m": args.m,
            "witnesses": [list(w.phi) for w in witnesses],
            "count": len(witnesses),
        }
        return result, EXIT_OK if witnesses else EXIT_EXHAUSTED
    outcome = search_swap(args.m, node_budget=args.node_budget)
    if outcome.status is SearchStatus.FOUND:
        return {"m": args.m, "phi": list(outcome.witness.phi)}, EXIT_OK
    result = {"m": args.m, "status": outcome.status.value, "nodes": outcome.nodes}
    if outcome.status is SearchStatus.EXHAUSTED:
        result["certificate"] = dict(zip(("refutation", "lifts"), outcome.certificate))
        return result, EXIT_EXHAUSTED
    return result, EXIT_INCONCLUSIVE


def _cmd_oracle(args):
    from .graphs import _ORACLE_MAX_M, build_delta, oracle_build_delta

    _check_m(args.m, 1, _ORACLE_MAX_M)
    if oracle_build_delta(args.m) != build_delta(args.m):
        raise RuntimeError("matrix-built graph disagrees with the bit rules")
    v = 1 << (2 * args.m)
    return {"checked": v, "pairs": v * (v - 1) // 2, "ok": True}, EXIT_OK


_DISPATCH = {
    "table": _cmd_table,
    "bent": _cmd_bent,
    "params": _cmd_params,
    "graph": _cmd_graph,
    "search": _cmd_search,
    "oracle": _cmd_oracle,
}


def _emit(pieces):
    """Write byte pieces to stdout's binary buffer in turn, after any
    text already written to stdout."""
    try:
        sys.stdout.flush()
        out = sys.stdout.buffer
        for piece in pieces:
            out.write(piece)
        out.flush()
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(args, result, start):
    """The report of a finished command, as byte pieces that make one
    line of JSON.

    A result member whose value is an iterator (graph's payload to
    stdout, table's text) is JSON already encoded, as ASCII byte blocks
    that are passed on one by one, so it is never held whole; it is
    written after the other members.  elapsed_ms covers the command's
    work, not encoding the report, except that a streamed member is
    encoded as it is written, so there elapsed_ms is taken after its
    last block and covers both."""
    end = time.monotonic()
    params = {k: v for k, v in vars(args).items() if k != "cmd" and v is not None}
    streamed = {k: v for k, v in result.items() if isinstance(v, Iterator)}
    result = {k: v for k, v in result.items() if k not in streamed}
    report = {"command": args.cmd, "params": params, "result": result}
    # the report's text ends in "}}", closing the result and the report
    yield json.dumps(report)[:-2].encode()
    for name, blocks in streamed.items():
        yield b", %s: " % json.dumps(name).encode()
        yield from blocks
        end = time.monotonic()
    yield f'}}, "elapsed_ms": {round((end - start) * 1000.0, 3)}}}\n'.encode()


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        start = time.monotonic()
        result, code = _DISPATCH[args.cmd](args)
    except (UsageError, ValueError, OSError, RuntimeError) as e:
        _emit([json.dumps({"error": str(e)}).encode() + b"\n"])
        print(f"ctwin: {e}", file=sys.stderr)
        return EXIT_ERROR
    _emit(_report(args, result, start))
    return code


if __name__ == "__main__":
    sys.exit(main())
