"""CLI contract: one JSON object on stdout, documented exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ctwin.cli import main
from ctwin.graphs import BLUE, build_delta, to_graph6
from ctwin.swap import SearchOutcome, SearchStatus


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


def run_budgeted(tmp_path, argv, budget_s, parse=True):
    """Run `python -m ctwin ARGV`, killed after budget_s; returns (exit
    code, report, peak RSS in MB), or stdout's bytes in place of the
    report when parse is False.  Stdout goes to a file, since a table
    can outgrow a pipe."""
    out = tmp_path / "stdout.json"
    proc = subprocess.run(
        [sys.executable, "-c", _BUDGETED, str(budget_s), str(out), *argv],
        capture_output=True, text=True, timeout=budget_s + 60,
    )
    code, elapsed, rss = proc.stdout.split()
    assert float(elapsed) < budget_s, f"{' '.join(argv)} ran over its {budget_s:.0f}s budget"
    data = out.read_bytes()
    return int(code), json.loads(data) if parse else data, float(rss)


def test_table_sigma_bits(capsys):
    code, report = run_cli(capsys, "table", "--m", "1", "--function", "sigma", "--format", "bits")
    assert code == 0
    assert report["result"]["table"] == "0100"


def test_table_tau_bits(capsys):
    code, report = run_cli(capsys, "table", "--m", "1", "--function", "tau", "--format", "bits")
    assert code == 0
    assert report["result"]["table"] == "0010"


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
    # m = 12 is the bent guard's largest m: 10 s and 200 MB
    code, report, rss = run_budgeted(
        tmp_path, ["bent", "--m", "12", "--function", "tau"], 10.0
    )
    assert code == 0
    assert report["result"] == {"bent": True, "magnitude": 4096}
    assert rss < 200.0, f"bent --m 12 peaked at {rss:.0f} MB, budget 200 MB"


def test_table_at_guard_limit_within_budget(tmp_path):
    # m = 14 is the table guard's largest m: 10 s
    code, report, _ = run_budgeted(
        tmp_path, ["table", "--m", "14", "--function", "tau"], 10.0
    )
    assert code == 0
    assert len(report["result"]["table"]) == len("tt:28:") + (1 << 26)


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


def test_params_large_m_closed_form_only(capsys):
    code, report = run_cli(capsys, "params", "--m", "20")
    assert code == 0
    assert report["result"]["confirmed"] is None
    assert report["result"]["ds"][0] == 4**20


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
    # m = 8 is the graph guard's largest m: --out within 60 s and 100 MB
    target = tmp_path / "red8.g6"
    argv = ["graph", "--m", "8", "--colour", "red", "--out", str(target)]
    code, report, rss = run_budgeted(tmp_path, argv, 60.0)
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


def test_search_report_per_status(capsys, monkeypatch):
    code, report = run_cli(capsys, "search", "--m", "1")
    assert (code, report["result"]) == (0, {"m": 1, "phi": [0, 2, 1, 3]})
    code, report = run_cli(capsys, "search", "--m", "2", "--node-budget", "2")
    # the budget trips strictly above the cap
    assert (code, report["result"]) == (3, {"m": 2, "status": "inconclusive", "nodes": 3})
    # no search that finishes in a test run ends exhausted, so stub one
    done = SearchOutcome(SearchStatus.EXHAUSTED, None, 42, 7, 0.1)
    monkeypatch.setattr("ctwin.cli.search_swap", lambda m, **kwargs: done)
    code, report = run_cli(capsys, "search", "--m", "4")
    assert (code, report["result"]) == (2, {"m": 4, "status": "exhausted", "nodes": 42})


def test_search_m4_node_budget_within_time(capsys):
    # the README's m = 4 run; the budget covers the whole tree
    start = time.monotonic()
    code, report = run_cli(capsys, "search", "--m", "4", "--node-budget", "200000")
    elapsed = time.monotonic() - start
    assert code == 3
    assert report["result"] == {"m": 4, "status": "inconclusive", "nodes": 200001}
    assert elapsed < 10.0, f"search --m 4 --node-budget 200000 took {elapsed:.1f}s, budget 10s"


def test_search_all_m1(capsys):
    code, report = run_cli(capsys, "search", "--m", "1", "--all")
    assert code == 0
    assert report["result"]["witnesses"] == [[0, 2, 1, 3]]
    assert report["result"]["count"] == 1


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
    # every command the README shows runs as shown: exit 3 where its
    # comment says so, 0 otherwise, and one JSON object on stdout
    command, _, comment = line.partition("#")
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == (3 if "exit 3" in comment else 0)
    assert "error" not in json.loads(out)
    assert out.count("\n") == 1
