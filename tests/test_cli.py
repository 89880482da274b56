"""CLI contract: one JSON object on stdout, documented exit codes."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ctwin import cli, twins
from ctwin.bent import BoolFunc, predicted_params, sigma_function, tau, tau_function
from ctwin.cli import main
from ctwin.graphs import BLUE, RED, build_delta, to_graph6
from ctwin.swap import search_all

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# Runs one ctwin command under a time budget and prints its exit code,
# seconds and wait4 peak RSS in MB.  It runs in a fresh interpreter
# because a child's wait4 peak RSS also counts the peak of the process
# that spawned it (the spawner's memory is the child's until exec), so a
# command spawned from the test process would carry the test run's peak.
_BUDGETED = """
import os, signal, subprocess, sys, time
budget, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
start = time.monotonic()
with open(out, "wb") as fh:
    proc = subprocess.Popen([sys.executable, "-m", "ctwin", *argv], stdout=fh)
signal.signal(signal.SIGALRM, lambda *_: proc.kill())
signal.setitimer(signal.ITIMER_REAL, budget)
_, status, usage = os.wait4(proc.pid, 0)
signal.setitimer(signal.ITIMER_REAL, 0)
print(os.waitstatus_to_exitcode(status), time.monotonic() - start, usage.ru_maxrss / 1024)
"""


def run_budgeted_to(out, argv, budget_s):
    """Run `python -m ctwin ARGV` with stdout to the file `out`, killed
    after budget_s; returns (exit code, peak RSS in MB)."""
    proc = subprocess.run(
        [sys.executable, "-c", _BUDGETED, str(budget_s), str(out), *argv],
        capture_output=True, text=True, timeout=budget_s + 60,
    )
    code, elapsed, rss = proc.stdout.split()
    assert float(elapsed) < budget_s, f"{' '.join(argv)} ran over its {budget_s:.0f}s budget"
    return int(code), float(rss)


def run_budgeted(tmp_path, argv, budget_s, parse=True):
    """As run_budgeted_to; returns (exit code, report, peak RSS in MB),
    or stdout's bytes in place of the report when parse is False.
    Stdout goes to a file, since a table can outgrow a pipe."""
    out = tmp_path / "stdout.json"
    code, rss = run_budgeted_to(out, argv, budget_s)
    data = out.read_bytes()
    return code, json.loads(data) if parse else data, rss


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


@pytest.mark.parametrize("block", [1, 3, 1 << 20])
def test_table_text_is_the_same_for_every_block_size(monkeypatch, capsys, block):
    # the quadrants are written without being joined, cut into blocks
    # inside each quadrant and at its end
    monkeypatch.setattr(cli, "_TABLE_BLOCK", block)
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
    # both are the one writer twins._tt_text, joined over the whole table
    # or over the unjoined quadrants, in blocks of one byte or _TABLE_BLOCK
    make = sigma_function if function == "sigma" else tau_function
    for m in range(1, 9):
        _, report = run_cli(capsys, "table", "--m", str(m), "--function", function)
        bits = oracles.twin_bits(m)[function == "tau"]
        digits = f"{bits:0{max(1, 1 << (2 * m - 2))}x}"
        assert make(m).hex() == report["result"]["table"] == f"tt:{2 * m}:{digits}", m
        quadrants = twins._twin_quadrants(m, function)
        for pieces, block in (((make(m).packed,), 1), (quadrants, 1), (quadrants, cli._TABLE_BLOCK)):
            assert b"".join(twins._tt_text(pieces, 2 * m, block)).decode() == report["result"]["table"], m


def test_table_bits_at_guard_limit_within_budget(tmp_path):
    # m = 14 is the table guard's largest m: 2^28 characters of bits
    # within 10 s and 200 MB, read back in chunks
    out = tmp_path / "bits14.json"
    code, rss = run_budgeted_to(
        out, ["table", "--m", "14", "--function", "tau", "--format", "bits"], 10.0
    )
    assert code == 0
    assert rss < 200.0, f"table --m 14 --format bits peaked at {rss:.0f} MB, budget 200 MB"
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
    # m = 12 is the bent guard's largest m: 10 s and 80 MB
    code, report, rss = run_budgeted(
        tmp_path, ["bent", "--m", "12", "--function", "tau"], 10.0
    )
    assert code == 0
    assert report["result"] == {"bent": True, "magnitude": 4096}
    assert rss < 80.0, f"bent --m 12 peaked at {rss:.0f} MB, budget 80 MB"


def test_table_at_guard_limit_within_budget(tmp_path):
    # m = 14 is the table guard's largest m: 10 s and 150 MB; a digit
    # holds entries 4j..4j+3, highest digit first
    code, report, rss = run_budgeted(
        tmp_path, ["table", "--m", "14", "--function", "tau"], 10.0
    )
    assert code == 0
    assert rss < 150.0, f"table --m 14 peaked at {rss:.0f} MB, budget 150 MB"
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
    code, report, rss = run_budgeted(tmp_path, ["params", "--m", "8"], 2.0)
    assert code == 0
    assert report["result"]["confirmed"] is True
    assert rss < 25.0, f"params --m 8 peaked at {rss:.0f} MB, budget 25 MB"


def test_params_large_m_closed_form_only(capsys):
    code, report = run_cli(capsys, "params", "--m", "20")
    assert code == 0
    assert report["result"]["confirmed"] is None
    assert report["result"]["ds"][0] == 4**20


def _params_in_fresh_interpreter(m):
    proc = subprocess.run(
        [sys.executable, "-m", "ctwin", "params", "--m", str(m)],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_params_prints_up_to_its_guard():
    # v = 4^7142 has 4300 digits, the most Python turns into decimal text
    # by default
    code, out, _ = _params_in_fresh_interpreter(7142)
    assert code == 0 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["ds"] == list(predicted_params(7142).as_tuple())
    assert result["srg"][0] == 4**7142 and result["confirmed"] is None


@pytest.mark.parametrize("m", [7143, 10**8])
def test_params_refuses_above_its_guard(m):
    # refused before any number is made: one error object, no traceback
    code, out, err = _params_in_fresh_interpreter(m)
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
    code, report, rss = run_budgeted(tmp_path, [*argv, "--out", str(target)], 10.0)
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
    code, out, rss = run_budgeted(tmp_path, argv, 10.0, parse=False)
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
    code, report, rss = run_budgeted(tmp_path, argv, 15.0)
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
    code, report, _ = run_budgeted(tmp_path, ["search", "--m", "4"], 2.0)
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
    code, report, rss = run_budgeted(tmp_path, ["search", "--m", "8"], 2.0)
    assert code == 2
    result = report["result"]
    assert (result["m"], result["status"], result["nodes"]) == (8, "exhausted", 771)
    assert len(result["certificate"]["refutation"]) == 15
    assert [len(images) for images in result["certificate"]["lifts"]] == [16, 16]
    assert rss < 30.0, f"search --m 8 peaked at {rss:.0f} MB, budget 30 MB"


def test_search_all_m1(capsys):
    code, report = run_cli(capsys, "search", "--m", "1", "--all")
    assert code == 0
    assert report["result"]["witnesses"] == [[0, 2, 1, 3]]
    assert report["result"]["count"] == 1


def test_search_all_follows_the_cli_guard(capsys):
    # the library guards search_all to m <= 2; the CLI's own guard is m <= 8
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
        ("--all", "--node-budget", "5"),  # --all enumerates the whole tree
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
    code, report, rss = run_budgeted(tmp_path, ["oracle", "--m", "4"], 2.0)
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


_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from ctwin.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("bent", "--m", "3", "--function", "tau"), id="argv0"),
        pytest.param(("table", "--m", "3", "--function", "tau", "--format", "bits"), id="argv3"),
    ],
)
def test_commands_without_numpy_report_one_error(argv):
    # where numpy cannot be imported, a command that needs it still
    # prints one JSON object, the error, and exits 1 without a traceback
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.count("\n") == 1
    assert list(json.loads(proc.stdout)) == ["error"]
    assert "numpy" in json.loads(proc.stdout)["error"]
    assert "Traceback" not in proc.stderr


def _results_with_and_without_numpy(argv):
    """The "result" of a command that exits 0, run with numpy blocked
    and with numpy imported first, each in a fresh interpreter."""
    results = []
    for code in (_WITHOUT_NUMPY, _WITHOUT_NUMPY.replace("sys.modules['numpy'] = None", "import numpy")):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 1
        results.append(json.loads(proc.stdout)["result"])
    return results


@pytest.mark.parametrize("fmt", ["graph6", "json-edges"])
def test_graph_without_numpy_prints_the_same_payload(fmt):
    # graph runs on the standard library: with numpy blocked it exits 0
    # and prints the payload that it prints where numpy can be imported
    results = _results_with_and_without_numpy(("graph", "--m", "2", "--colour", "red", "--format", fmt))
    assert results[0] == results[1]
    edges = oracles.edge_list(build_delta(2), RED)
    if fmt == "graph6":
        assert oracles.from_graph6(results[0]["payload"].encode()) == (16, edges)
    else:
        assert results[0]["payload"]["edges"] == [list(e) for e in edges]


@pytest.mark.parametrize("argv", [("params", "--m", "3"), ("oracle", "--m", "2")])
def test_params_and_oracle_without_numpy_print_the_same_payload(argv):
    # difference sets, strong regularity and the matrix oracle run on the
    # standard library: with numpy blocked both exit 0 with the same result
    results = _results_with_and_without_numpy(argv)
    assert results[0] == results[1]
    assert results[0].get("confirmed", results[0].get("ok")) is True


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
