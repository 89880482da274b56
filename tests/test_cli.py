"""CLI contract: one JSON object on stdout, documented exit codes."""

import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ctwin import twins
from ctwin.bent import BoolFunc, predicted_params, sigma_function, tau, tau_function
from ctwin.cli import main
from ctwin.graphs import BLUE, RED, build_delta, to_graph6
from ctwin.swap import search_all

import oracles
import probe


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# Runs one probe (a ctwin command, by default) under a time budget and
# prints its exit code, seconds and wait4 peak RSS in MB; the probe's
# stderr, with its report of the modules loaded, passes through.  It runs
# in a fresh interpreter because a child's wait4 peak RSS also counts the
# peak of the process that spawned it (the spawner's memory is the
# child's until exec), so a command spawned from the test process would
# carry the test run's peak.
_BUDGETED = """
import os, signal, subprocess, sys, time
budget, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
start = time.monotonic()
with open(out, "wb") as fh:
    proc = subprocess.Popen(argv, stdout=fh)
signal.signal(signal.SIGALRM, lambda *_: proc.kill())
signal.setitimer(signal.ITIMER_REAL, budget)
_, status, usage = os.wait4(proc.pid, 0)
signal.setitimer(signal.ITIMER_REAL, 0)
print(os.waitstatus_to_exitcode(status), time.monotonic() - start, usage.ru_maxrss / 1024)
"""


def run_budgeted_to(out, argv, budget_s, program="ctwin"):
    """Run `ctwin ARGV` (PROGRAM with ARGV for another program) in the
    probe, with numpy blocked and stdout to the file `out`, killed after
    budget_s; returns (exit code, peak RSS in MB, the modules loaded)."""
    proc = subprocess.run(
        [sys.executable, "-c", _BUDGETED, str(budget_s), str(out), *probe.command(argv, program)],
        capture_output=True, text=True, timeout=budget_s + 60,
    )
    code, elapsed, rss = proc.stdout.split()
    assert float(elapsed) < budget_s, f"{' '.join(argv)} ran over its {budget_s:.0f}s budget"
    return int(code), float(rss), probe.loaded(proc.stderr)[1]


def run_budgeted(tmp_path, argv, budget_s, parse=True):
    """As run_budgeted_to; returns (exit code, report, peak RSS in MB,
    the modules loaded), or stdout's bytes in place of the report when
    parse is False.  Stdout goes to a file, since a table can outgrow a
    pipe."""
    out = tmp_path / "stdout.json"
    code, rss, modules = run_budgeted_to(out, argv, budget_s)
    data = out.read_bytes()
    return code, json.loads(data) if parse else data, rss, modules


def test_table_sigma_bits(capsys):
    code, report = run_cli(capsys, "table", "--m", "1", "--function", "sigma", "--format", "bits")
    assert code == 0
    assert report["result"]["table"] == "0100"


def test_table_tau_bits(capsys):
    code, report = run_cli(capsys, "table", "--m", "1", "--function", "tau", "--format", "bits")
    assert code == 0
    assert report["result"]["table"] == "0010"


def _check_table_stream(capsys, function, fmt, text):
    # streamed in blocks, the report must be byte for byte the one that
    # json.dumps makes of the whole string text(f) (m = 12 spans two
    # blocks)
    make = sigma_function if function == "sigma" else tau_function
    for m in range(1, 13):
        f = make(m)
        code = main(["table", "--m", str(m), "--function", function, "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        head, _, tail = out.rpartition(', "elapsed_ms": ')
        expected = {
            "command": "table",
            "params": {"m": m, "function": function, "format": fmt},
            "result": {"function": function, "m": m, "table": text(f)},
        }
        assert head + "}" == json.dumps(expected), m
        assert re.fullmatch(r"[0-9.]+\}\n", tail), m


@pytest.mark.parametrize("function", ["sigma", "tau"])
def test_table_bits_stream_is_the_whole_string(capsys, function):
    # entry 0 first
    _check_table_stream(capsys, function, "bits", lambda f: format(f.bits, f"0{f.size}b")[::-1])


@pytest.mark.parametrize("function", ["sigma", "tau"])
def test_table_hex_stream_is_the_whole_string(capsys, function):
    # BoolFunc.hex(), highest entry first; m = 1 and 2 have one digit
    _check_table_stream(capsys, function, "hex", lambda f: f.hex())


@pytest.mark.parametrize("block", [1, 3, twins._PIECE_SIZE])
def test_table_text_is_the_same_for_every_block_size(monkeypatch, capsys, block):
    # the pieces are written without being joined, one block each; at a
    # piece size of 1 or 3 bytes they are the level-2 tables repeated, so
    # each distinct piece's text is written again where it recurs
    monkeypatch.setattr(twins, "_PIECE_SIZE", block)
    for m in range(1, 8):
        for function, bits in zip(("sigma", "tau"), oracles.twin_bits(m)):
            f = BoolFunc.from_bits(2 * m, bits)
            for fmt, text in (("hex", f.hex()), ("bits", format(bits, f"0{f.size}b")[::-1])):
                _, report = run_cli(capsys, "table", "--m", str(m), "--function", function, "--format", fmt)
                assert report["result"]["table"] == text, (m, function, fmt)


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_table_text_matches_big_int_oracle(capsys, m):
    # hex is BoolFunc.hex() and bits the int's binary digits reversed,
    # both of the big-int tables
    for function, bits in zip(("sigma", "tau"), oracles.twin_bits(m)):
        f = BoolFunc.from_bits(2 * m, bits)
        for fmt, text in (("hex", f.hex()), ("bits", format(bits, f"0{f.size}b")[::-1])):
            _, report = run_cli(capsys, "table", "--m", str(m), "--function", function, "--format", fmt)
            assert report["result"]["table"] == text, (function, fmt)


@pytest.mark.parametrize("function", ["sigma", "tau"])
def test_boolfunc_hex_is_the_table_payload(capsys, function):
    # one hex rule for BoolFunc.hex() and `table`, and both are the
    # big-int oracle's digits, zero-padded to one digit per four entries;
    # both are the one writer twins._tt_text, joined over the whole table,
    # over the unjoined pieces, or over the table cut into one-byte pieces,
    # equal bytes whose text the writer makes once
    make = sigma_function if function == "sigma" else tau_function
    for m in range(1, 9):
        _, report = run_cli(capsys, "table", "--m", str(m), "--function", function)
        bits = oracles.twin_bits(m)[function == "tau"]
        digits = f"{bits:0{max(1, 1 << (2 * m - 2))}x}"
        assert make(m).hex() == report["result"]["table"] == f"tt:{2 * m}:{digits}", m
        packed = make(m).packed
        for pieces in ((packed,), twins._twin_pieces(m, function), [packed[i : i + 1] for i in range(len(packed))]):
            assert b"".join(twins._tt_text(pieces, 2 * m)).decode() == report["result"]["table"], m


def test_table_bits_at_guard_limit_within_budget(tmp_path):
    # m = 14 is the table guard's largest m: 2^28 characters of bits
    # within 2 s and 65 MB, with numpy blocked (0.32 s and 33 MB measured
    # through this launcher, medians of 20 runs, 2 vCPU), read back in
    # chunks
    out = tmp_path / "bits14.json"
    argv = ["table", "--m", "14", "--function", "tau", "--format", "bits"]
    code, rss, modules = run_budgeted_to(out, argv, 2.0)
    assert code == 0 and "ctwin.twins" in modules
    assert rss < 65.0, f"table --m 14 --format bits peaked at {rss:.0f} MB, budget 65 MB"
    opening = (
        b'{"command": "table", "params": {"m": 14, "function": "tau", "format": "bits"}, '
        b'"result": {"function": "tau", "m": 14, "table": "'
    )
    n = 1 << 28
    with open(out, "rb") as fh:
        assert fh.read(len(opening)) == opening
        zeros = ones = 0
        for _ in range(0, n, 1 << 24):
            chunk = fh.read(1 << 24)
            zeros += chunk.count(b"0")
            ones += chunk.count(b"1")
        assert re.fullmatch(rb'"\}, "elapsed_ms": [0-9.]+\}\n', fh.read())
        assert (zeros + ones, ones) == (n, predicted_params(14).k)
        for i in random.Random(14).sample(range(n), 200):
            fh.seek(len(opening) + i)
            assert fh.read(1) == b"%d" % tau(14, i), i


def test_table_hex(capsys):
    code, report = run_cli(capsys, "table", "--m", "1", "--function", "sigma")
    assert code == 0
    assert report["result"]["table"] == "tt:2:2"


def test_table_m_zero_is_usage_error(capsys):
    code, report = run_cli(capsys, "table", "--m", "0", "--function", "sigma")
    assert code == 1
    assert "error" in report


def test_bent_tau3(capsys):
    code, report = run_cli(capsys, "bent", "--m", "3", "--function", "tau")
    assert code == 0
    assert report["result"] == {"bent": True, "magnitude": 8}


def test_bent_sigma5(capsys):
    code, report = run_cli(capsys, "bent", "--m", "5", "--function", "sigma")
    assert code == 0
    assert report["result"] == {"bent": True, "magnitude": 32}


def test_bent_at_guard_limit_within_budget(tmp_path):
    # m = 12 is the bent guard's largest m: 0.5 s and 40 MB, with numpy
    # blocked
    argv = ["bent", "--m", "12", "--function", "tau"]
    code, report, rss, modules = run_budgeted(tmp_path, argv, 0.5)
    assert code == 0 and "ctwin.bent" in modules
    assert report["result"] == {"bent": True, "magnitude": 4096}
    assert rss < 40.0, f"bent --m 12 peaked at {rss:.0f} MB, budget 40 MB"


# is_bent on a Maiorana-McFarland table at n = 24, read packed from a
# file, and on the same table with one entry flipped: 4096 distinct
# blocks, so the factored route gives up on both; the table runs the bit
# planes, and the flipped one is refused by its weight, W(0) = 2^24 -
# 2 wt +- 2
_DENSE_24 = """
import json, random, sys
from ctwin import bent
with open(sys.argv[1], "rb") as fh:
    packed = bytearray(fh.read())
f = bent.BoolFunc(24, bytes(packed))
i = random.Random(67).randrange(1 << 24)
packed[i >> 3] ^= 1 << (i & 7)
flipped = bent.BoolFunc(24, bytes(packed))
print(json.dumps([bent._factors(f) is None, bent.is_bent(f), bent.is_bent(flipped)]))
"""


def test_dense_is_bent_at_n24_within_budget(tmp_path):
    # n = 24 is the largest table `bent` makes; a table the factored route
    # gives up on takes the bit planes there once, in 4 s and 160 MB, with
    # numpy blocked (0.52-0.70 s, median 0.59 s, and 63 MB measured
    # through this launcher over 10 runs, 2 vCPU)
    table = tmp_path / "mm24.bin"
    table.write_bytes(oracles.maiorana_mcfarland(12, 67).packed)
    out = tmp_path / "stdout.json"
    code, rss, _ = run_budgeted_to(out, [str(table)], 4.0, program=_DENSE_24)
    assert code == 0
    assert json.loads(out.read_bytes()) == [True, True, False]
    assert rss < 160.0, f"dense is_bent at n = 24 peaked at {rss:.0f} MB, budget 160 MB"


# is_bent on a table read from a file, as the benchmark's is_bent step
# reads it
_IS_BENT = """
import sys
from ctwin import BoolFunc, is_bent
with open(sys.argv[1]) as fh:
    print(is_bent(BoolFunc.from_hex(fh.read())))
"""


def test_relabelled_tau10_is_bent_within_budget(tmp_path):
    # tau_10 relabelled by a random invertible map over GF(2), the
    # benchmark's is_bent step: 1024 distinct blocks, so the bit planes
    # decide it, in 0.6 s and 40 MB with numpy blocked (0.074-0.134 s,
    # median 0.09 s, and 18.8 MB measured through this launcher over 20
    # runs, 2 vCPU)
    f = tau_function(10)
    cols = oracles.random_invertible(random.Random(10), 20)
    x = np.arange(f.size)
    image = np.zeros(f.size, np.int64)
    for j, c in enumerate(cols):
        image ^= (x >> j & 1) * c
    g = BoolFunc(20, np.packbits(oracles.unpacked(f)[image], bitorder="little").tobytes())
    table = tmp_path / "tau10.hex"
    table.write_text(g.hex())
    out = tmp_path / "stdout.txt"
    code, rss, modules = run_budgeted_to(out, [str(table)], 0.6, program=_IS_BENT)
    assert code == 0 and out.read_text() == "True\n"
    assert "ctwin.twins" in modules
    assert rss < 40.0, f"is_bent of a relabelled tau_10 peaked at {rss:.0f} MB, budget 40 MB"


def test_table_at_guard_limit_within_budget(tmp_path):
    # m = 14 is the table guard's largest m: 1 s and 40 MB, with numpy
    # blocked (0.14 s and 20 MB measured through this launcher, medians
    # of 20 runs, 2 vCPU); a digit holds entries 4j..4j+3, highest digit
    # first
    argv = ["table", "--m", "14", "--function", "tau"]
    code, report, rss, modules = run_budgeted(tmp_path, argv, 1.0)
    assert code == 0 and "ctwin.twins" in modules
    assert rss < 40.0, f"table --m 14 peaked at {rss:.0f} MB, budget 40 MB"
    table = report["result"]["table"]
    assert len(table) == len("tt:28:") + (1 << 26)
    digits = table.removeprefix("tt:28:")
    for i in random.Random(14).sample(range(1 << 28), 200):
        assert int(digits[-1 - i // 4], 16) >> (i % 4) & 1 == tau(14, i), i


def test_bent_range_guard(capsys):
    code, report = run_cli(capsys, "bent", "--m", "13", "--function", "tau")
    assert code == 1
    assert "error" in report


def test_params_m2(capsys):
    code, report = run_cli(capsys, "params", "--m", "2")
    assert code == 0
    assert report["result"] == {
        "ds": [16, 6, 2, 4],
        "srg": [16, 6, 2, 2],
        "confirmed": True,
    }


def test_params_m1(capsys):
    code, report = run_cli(capsys, "params", "--m", "1")
    assert code == 0
    assert report["result"] == {
        "ds": [4, 1, 0, 1],
        "srg": [4, 1, 0, 0],
        "confirmed": True,
    }


def test_params_confirms_at_guard_limit(capsys):
    # m = 8 is the largest m that params confirms; its budget is 30 s
    start = time.monotonic()
    code, report = run_cli(capsys, "params", "--m", "8")
    elapsed = time.monotonic() - start
    assert code == 0
    assert report["result"] == {
        "ds": [65536, 32640, 16256, 16384],
        "srg": [65536, 32640, 16256, 16256],
        "confirmed": True,
    }
    assert elapsed < 30.0, f"params --m 8 took {elapsed:.1f}s, budget 30s"


def test_params_at_guard_limit_within_budget(tmp_path):
    # every difference and common-neighbour count at m = 8 from a fresh
    # interpreter, on the standard library: 2 s and 25 MB
    code, report, rss, _ = run_budgeted(tmp_path, ["params", "--m", "8"], 2.0)
    assert code == 0
    assert report["result"]["confirmed"] is True
    assert rss < 25.0, f"params --m 8 peaked at {rss:.0f} MB, budget 25 MB"


def test_params_large_m_closed_form_only(capsys):
    code, report = run_cli(capsys, "params", "--m", "20")
    assert code == 0
    assert report["result"]["confirmed"] is None
    assert report["result"]["ds"][0] == 4**20


def test_params_prints_up_to_its_guard():
    # v = 4^7142 has 4300 digits, the most Python turns into decimal text
    # by default
    code, out, _, _ = probe.probe(["params", "--m", "7142"])
    assert code == 0 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["ds"] == list(predicted_params(7142).as_tuple())
    assert result["srg"][0] == 4**7142 and result["confirmed"] is None


@pytest.mark.parametrize("m", [7143, 10**8])
def test_params_refuses_above_its_guard(m):
    # refused before any number is made: one error object, no traceback
    code, out, err, _ = probe.probe(["params", "--m", str(m)])
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"error": f"--m must be in 1..7142, got {m}"}
    assert "Traceback" not in err


def test_graph_graph6_payload(capsys):
    code, report = run_cli(capsys, "graph", "--m", "1", "--colour", "red")
    assert code == 0
    assert report["result"] == {"format": "graph6", "payload": "C`"}
    # m = 3 has backslashes, the one graph6 character JSON escapes
    expected = to_graph6(build_delta(3), BLUE).decode()
    assert "\\" in expected
    code, report = run_cli(capsys, "graph", "--m", "3", "--colour", "blue")
    assert report["result"] == {"format": "graph6", "payload": expected}


def test_graph_json_edges(capsys):
    code, report = run_cli(
        capsys, "graph", "--m", "2", "--colour", "blue", "--format", "json-edges"
    )
    assert code == 0
    payload = report["result"]["payload"]
    assert payload["v"] == 16
    assert len(payload["edges"]) == 48


def test_graph_out_file(tmp_path, capsys):
    target = tmp_path / "delta1.g6"
    code, report = run_cli(
        capsys, "graph", "--m", "1", "--colour", "red", "--out", str(target)
    )
    assert code == 0
    assert report["result"]["path"] == str(target)
    assert target.read_bytes() == b"C`"


def test_graph_json_edges_range_guard(capsys):
    code, report = run_cli(
        capsys, "graph", "--m", "7", "--colour", "red", "--format", "json-edges"
    )
    assert code == 1
    assert "error" in report


def test_graph_json_edges_at_guard_limit_within_budget(tmp_path):
    # m = 6 is the json-edges guard's largest m: --out and stdout, each
    # within 10 s and 100 MB
    target = tmp_path / "blue6.json"
    argv = ["graph", "--m", "6", "--colour", "blue", "--format", "json-edges"]
    code, report, rss, _ = run_budgeted(tmp_path, [*argv, "--out", str(target)], 10.0)
    assert code == 0
    size = target.stat().st_size
    assert report["result"] == {"format": "json-edges", "path": str(target), "bytes": size}
    with open(target, "rb") as fh:
        assert fh.read(44) == b'{"v": 4096, "colour": "blue", "edges": [[0, '
        fh.seek(size - 7)
        assert fh.read() == b"4095]]}"
    assert rss < 100.0, f"json-edges --m 6 --out peaked at {rss:.0f} MB, budget 100 MB"

    # too large to parse here: the report must be the file's bytes inside
    # the envelope, on one line
    code, out, rss, _ = run_budgeted(tmp_path, argv, 10.0, parse=False)
    assert code == 0
    opening = (
        b'{"command": "graph", "params": {"m": 6, "colour": "blue", "format": "json-edges"}, '
        b'"result": {"format": "json-edges", "payload": '
    )
    end = len(opening) + size
    assert out.startswith(opening)
    assert memoryview(out)[len(opening) : end] == target.read_bytes()
    assert re.fullmatch(rb'\}, "elapsed_ms": [0-9.]+\}\n', out[end:])
    assert out.count(b"\n") == 1
    assert rss < 100.0, f"json-edges --m 6 to stdout peaked at {rss:.0f} MB, budget 100 MB"


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("CTWIN_EXTENDED") != "1",
    reason="extended suite only (set CTWIN_EXTENDED=1); writes a 358 MB file",
)
def test_graph_at_guard_limit_within_budget(tmp_path):
    # m = 8 is the graph guard's largest m: --out within 15 s and 100 MB
    target = tmp_path / "red8.g6"
    argv = ["graph", "--m", "8", "--colour", "red", "--out", str(target)]
    code, report, rss, _ = run_budgeted(tmp_path, argv, 15.0)
    assert code == 0
    n = 1 << 16
    size = 4 + (n * (n - 1) // 2 + 5) // 6
    assert report["result"] == {"format": "graph6", "path": str(target), "bytes": size}
    assert target.stat().st_size == size
    assert rss < 100.0, f"graph --m 8 --out peaked at {rss:.0f} MB, budget 100 MB"


def test_graph_bad_colour(capsys):
    code, report = run_cli(capsys, "graph", "--m", "1", "--colour", "green")
    assert code == 1
    assert "error" in report


def test_search_m1_found(capsys):
    code, report = run_cli(capsys, "search", "--m", "1")
    assert code == 0
    assert report["result"] == {"m": 1, "phi": [0, 2, 1, 3]}


def test_search_budget_inconclusive(capsys):
    code, report = run_cli(capsys, "search", "--m", "4", "--node-budget", "50")
    assert code == 3
    assert report["result"]["status"] == "inconclusive"
    assert report["result"]["m"] == 4


def _check_m4_certificate(result):
    # each lift is listed by its 8 images of the unit vectors; the map
    # they span by XOR must be an automorphism fixing 0 (checked pair by
    # pair here); the node count and the 15 refuting pairs are pinned
    assert set(result) == {"m", "status", "nodes", "certificate"}
    assert (result["m"], result["status"], result["nodes"]) == (4, "exhausted", 51)
    assert set(result["certificate"]) == {"refutation", "lifts"}
    assert len(result["certificate"]["refutation"]) == 15
    kappa = build_delta(4).kappa
    for images in result["certificate"]["lifts"]:
        assert len(images) == 8
        phi = [0] * 256
        for a in range(256):
            for k in range(8):
                phi[a] ^= images[k] if a >> k & 1 else 0
        assert sorted(phi) == list(range(256)) and phi[0] == 0
        assert all(
            kappa[phi[a] ^ phi[b]] == kappa[a ^ b] for a in range(256) for b in range(a)
        )


def test_search_report_per_status(capsys):
    code, report = run_cli(capsys, "search", "--m", "1")
    assert (code, report["result"]) == (0, {"m": 1, "phi": [0, 2, 1, 3]})
    code, report = run_cli(capsys, "search", "--m", "2", "--node-budget", "2")
    # the budget trips strictly above the cap
    assert (code, report["result"]) == (3, {"m": 2, "status": "inconclusive", "nodes": 3})
    code, report = run_cli(capsys, "search", "--m", "4")
    assert code == 2
    _check_m4_certificate(report["result"])


def test_search_m4_node_budget_within_time(capsys):
    # the README's m = 4 run; the budget covers the whole certificate
    start = time.monotonic()
    code, report = run_cli(capsys, "search", "--m", "4", "--node-budget", "200000")
    elapsed = time.monotonic() - start
    assert code == 2
    _check_m4_certificate(report["result"])
    assert elapsed < 10.0, f"search --m 4 --node-budget 200000 took {elapsed:.1f}s, budget 10s"


def test_search_m4_certificate_within_budget(tmp_path):
    # the paper's negative claim from a fresh interpreter: exit 2 in 2 s
    code, report, _, _ = run_budgeted(tmp_path, ["search", "--m", "4"], 2.0)
    assert code == 2
    _check_m4_certificate(report["result"])


def test_search_budget_bounds_the_walk(capsys):
    # the pi = id system meets 0 = 1 at its 51st pair equation; the count
    # trips strictly above the cap, and the lifts take no nodes
    code, report = run_cli(capsys, "search", "--m", "4", "--node-budget", "50")
    assert code == 3
    assert report["result"] == {"m": 4, "status": "inconclusive", "nodes": 51}
    code, report = run_cli(capsys, "search", "--m", "4", "--node-budget", "51")
    assert code == 2
    _check_m4_certificate(report["result"])


def test_search_range_guard(capsys):
    # the search shares Delta_m's guard: m = 9 is refused
    code, report = run_cli(capsys, "search", "--m", "9")
    assert (code, set(report)) == (1, {"error"})
    assert report["error"] == "--m must be in 1..8, got 9"


def test_search_at_guard_limit_within_budget(tmp_path):
    # m = 8 is the search guard's largest m: the certificate in 2 s and 30 MB
    code, report, rss, _ = run_budgeted(tmp_path, ["search", "--m", "8"], 2.0)
    assert code == 2
    result = report["result"]
    assert (result["m"], result["status"], result["nodes"]) == (8, "exhausted", 771)
    assert len(result["certificate"]["refutation"]) == 15
    assert [len(images) for images in result["certificate"]["lifts"]] == [16, 16]
    assert rss < 30.0, f"search --m 8 peaked at {rss:.0f} MB, budget 30 MB"


@pytest.mark.parametrize("m, count", [(1, 1), (2, 12), (3, 1344)])
def test_search_all_counts_aut0(capsys, m, count):
    # the swaps fixing 0 are the coset psi o Aut_0, so there are
    # |Aut_0| = 2^(m(m-1)/2) |GL(m, 2)| of them; 5000 is no limit here
    code, report = run_cli(capsys, "search", "--m", str(m), "--all", "5000")
    assert code == 0
    gl_order = math.prod((1 << m) - (1 << i) for i in range(m))
    assert report["result"]["count"] == count == gl_order << m * (m - 1) // 2
    if m == 1:
        assert report["result"]["witnesses"] == [[0, 2, 1, 3]]


def test_search_all_follows_the_cli_guard(capsys):
    # search_all and the CLI share the swap layer's guard, m <= 8
    code, report = run_cli(capsys, "search", "--m", "3", "--all", "5")
    assert code == 0
    assert report["result"]["witnesses"] == [list(w.phi) for w in search_all(3, 5, force=True)]
    assert report["result"]["count"] == 5
    code, report = run_cli(capsys, "search", "--m", "4", "--all")
    assert code == 2
    assert report["result"] == {"m": 4, "witnesses": [], "count": 0}


def test_search_bad_budget(capsys):
    for argv in (
        ("--node-budget", "0"),
        ("--all", "--node-budget", "0"),
        ("--all", "--node-budget", "5"),  # search_all runs search_swap with no budget
        ("--threads", "2"),  # the search runs in one process
    ):
        code, report = run_cli(capsys, "search", "--m", "1", *argv)
        assert code == 1, argv
        assert set(report) == {"error"}


def test_oracle_m2(capsys):
    code, report = run_cli(capsys, "oracle", "--m", "2")
    assert code == 0
    assert report["result"] == {"checked": 16, "pairs": 120, "ok": True}


def test_oracle_m3(capsys):
    code, report = run_cli(capsys, "oracle", "--m", "3")
    assert code == 0
    assert report["result"]["ok"] is True


def test_oracle_at_guard_limit_within_budget(tmp_path):
    # m = 4 is the oracle guard's largest m: every one of its pairs in 2 s
    # and 25 MB, on bytes, without numpy
    code, report, rss, _ = run_budgeted(tmp_path, ["oracle", "--m", "4"], 2.0)
    assert code == 0
    assert report["result"] == {"checked": 256, "pairs": 32640, "ok": True}
    assert rss < 25.0, f"oracle --m 4 peaked at {rss:.0f} MB, budget 25 MB"


def test_oracle_cost_guard(capsys):
    code, report = run_cli(capsys, "oracle", "--m", "5")
    assert code == 1
    assert "error" in report


def test_unknown_subcommand(capsys):
    code, report = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "error" in report


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--m", "2", "--function", "tau"),
        ("bent", "--m", "2", "--function", "sigma"),
        ("params", "--m", "3"),
        ("graph", "--m", "1", "--colour", "blue"),
        ("search", "--m", "1"),
        ("oracle", "--m", "1"),
    ],
)
def test_stdout_is_single_json_document(capsys, argv):
    main(list(argv))
    out = capsys.readouterr().out
    json.loads(out)
    assert out.count("\n") == 1


def _result_without_numpy(argv):
    """The "result" of a command run once in the probe, with numpy
    blocked, which must exit 0 with one line of JSON.  No module of
    ctwin imports numpy (test_package.py), so where numpy can be
    imported the command prints the same bytes."""
    run = probe.probe(argv)
    assert run.code == 0, run.err
    assert run.out.count("\n") == 1
    return json.loads(run.out)["result"]


def test_a_closed_pipe_ends_a_command_quietly():
    # a reader that stops early, as head -c 100 does, closes the pipe
    # mid-payload: the command exits 0 and writes nothing to stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctwin", "table", "--m", "14", "--function", "tau"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert head.startswith(b'{"command": "table", "params": {"m": 14')


@pytest.mark.parametrize("fmt", ["graph6", "json-edges"])
def test_graph_without_numpy_prints_the_same_payload(fmt):
    # graph runs on the standard library: with numpy blocked it exits 0
    # and prints the oracles' edges
    result = _result_without_numpy(["graph", "--m", "2", "--colour", "red", "--format", fmt])
    edges = oracles.edge_list(build_delta(2), RED)
    if fmt == "graph6":
        assert oracles.from_graph6(result["payload"].encode()) == (16, edges)
    else:
        assert result["payload"]["edges"] == [list(e) for e in edges]


@pytest.mark.parametrize("fmt", ["hex", "bits"])
def test_table_without_numpy_prints_the_same_payload(fmt):
    # table encodes its pieces on the standard library in both formats:
    # with numpy blocked it exits 0 and prints the big-int oracle's table
    for m in (1, 3, 7):
        for function, bits in zip(("sigma", "tau"), oracles.twin_bits(m)):
            result = _result_without_numpy(["table", "--m", str(m), "--function", function, "--format", fmt])
            f = BoolFunc.from_bits(2 * m, bits)
            text = f.hex() if fmt == "hex" else format(bits, f"0{f.size}b")[::-1]
            assert result == {"function": function, "m": m, "table": text}, (m, function)


@pytest.mark.parametrize("m", [1, 3, 12])
def test_bent_without_numpy_prints_the_same_payload(m):
    # the twins are checked through their few distinct blocks on the
    # standard library: with numpy blocked bent exits 0 and finds them bent
    for function in ("sigma", "tau"):
        result = _result_without_numpy(["bent", "--m", str(m), "--function", function])
        assert result == {"bent": True, "magnitude": 1 << m}


@pytest.mark.parametrize("argv", [("params", "--m", "3"), ("oracle", "--m", "2")])
def test_params_and_oracle_without_numpy_print_the_same_payload(argv):
    # difference sets, strong regularity and the matrix oracle run on the
    # standard library: with numpy blocked both exit 0 and confirm
    result = _result_without_numpy(argv)
    assert result.get("confirmed", result.get("ok")) is True


def test_report_envelope_fields(capsys):
    _, report = run_cli(capsys, "params", "--m", "1")
    assert set(report) == {"command", "params", "result", "elapsed_ms"}
    assert report["command"] == "params"
    assert report["params"]["m"] == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ctwin", "table", "--m", "1", "--function", "sigma", "--format", "bits"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["table"] == "0100"


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ctwin ")]
    assert lines, "README has no ctwin lines in its CLI block"
    return lines


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples(capsys, line):
    # every command the README shows runs as shown: it exits with the code
    # that "exit N" in its comment names (0 if none) and prints one JSON
    # object on stdout
    command, _, comment = line.partition("#")
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    expected = re.search(r"\bexit (\d+)", comment)
    assert code == (int(expected.group(1)) if expected else 0)
    assert "error" not in json.loads(out)
    assert out.count("\n") == 1
