"""Tests of the benchmark itself: its reference, its input generator, and
its handling of wrong output and timeouts.

    python3 -m pytest bench/tests -q
"""

import json
import time

import numpy as np
import pytest

import reference as ref
import run
import tracing
from ctwin import (
    BLUE,
    RED,
    BoolFunc,
    build_delta,
    cayley_graph,
    is_bent,
    search_swap,
    sigma_function,
    tau_function,
    to_graph6,
    verify_difference_set,
    verify_srg,
)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_reference_bit_rules_match_ctwin(m):
    assert ref.sigma_values(m).tolist() == sigma_function(m).table()
    assert ref.tau_values(m).tolist() == tau_function(m).table()
    assert tuple(ref.kappa_values(m).tolist()) == build_delta(m).kappa
    assert ref.table_hex(m, "sigma") == sigma_function(m).hex()
    assert ref.table_hex(m, "tau") == tau_function(m).hex()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reference_payloads_match_ctwin(m):
    graph = build_delta(m)
    kappa = ref.kappa_values(m)
    for colour in (RED, BLUE):
        assert ref.graph6(kappa == colour) == to_graph6(graph, colour)
        assert [tuple(e) for e in ref.edges(kappa == colour).tolist()] == graph.edges(colour)


def test_reference_packed_tables_match_unpacked():
    for m in (2, 5, 9):
        values = np.packbits(ref.tau_values(m), bitorder="little")
        assert (ref.tau_packed(m) == values).all()
        assert ref.table_hex(m, "tau") == ref.values_hex(ref.tau_values(m))
        assert ref.table_hex(m, "sigma") == ref.values_hex(ref.sigma_values(m))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_relabelling_preserves_closed_forms(m, seed):
    rng = np.random.default_rng(seed)
    for values in (ref.sigma_values(m), ref.tau_values(m)):
        table = ref.relabel(values, ref.random_invertible(rng, 2 * m))
        assert sorted(table.tolist()) == sorted(values.tolist())
        f = BoolFunc.from_values(2 * m, table.tolist())
        assert is_bent(f)
        assert verify_difference_set(f).as_tuple() == ref.ds_params(m)
        assert verify_srg(cayley_graph(f), BLUE).as_tuple() == ref.srg_params(m)


def test_relabelling_depends_only_on_the_seed():
    def draw(seed):
        return ref.relabel(ref.tau_values(5), ref.random_invertible(np.random.default_rng(seed), 10))

    assert (draw(3) == draw(3)).all()
    assert not (draw(3) == draw(4)).all()


def test_swaps_ok_rejects_a_corrupted_witness():
    phi = list(search_swap(2).witness.phi)
    assert ref.swaps_ok(2, [phi])
    bad = phi[:]
    bad[1], bad[2] = bad[2], bad[1]
    assert not ref.swaps_ok(2, [bad])
    assert not ref.swaps_ok(2, [phi[:-1]])


def _step(steps, name):
    return next(s for s in steps if s.name == name)


def _fake_spawn(monkeypatch, stdout_text, files=None):
    """Replace the process runner by one that 'prints' the given output."""

    def spawn(argv, stdout, timeout):
        stdout.write_bytes(stdout_text.encode())
        for path, data in (files or {}).items():
            path.write_bytes(data)
        return run.Outcome(kind="", wall=0.01, code=0)

    monkeypatch.setattr(run, "spawn", spawn)


def _cli_report(result):
    return json.dumps({"command": "x", "params": {}, "result": result, "elapsed_ms": 1.0})


@pytest.mark.parametrize("corrupt", [False, True])
def test_witness_is_checked_against_the_reference(tmp_path, monkeypatch, corrupt):
    phi = list(search_swap(3).witness.phi)
    if corrupt:
        phi[5], phi[9] = phi[9], phi[5]
    _fake_spawn(monkeypatch, _cli_report({"m": 3, "phi": phi}))
    step = _step(run.search_steps(1, tmp_path), "search_m3")
    o = run.run_step(step, tmp_path, time.monotonic() + 60)
    assert (o.error == "output disagrees with the reference") is corrupt


@pytest.mark.parametrize("corrupt", [False, True])
def test_graph6_payload_is_checked_against_the_reference(tmp_path, monkeypatch, corrupt):
    step = _step(run.export_steps(1, tmp_path), "graph6_red_m6")
    data = bytearray(to_graph6(build_delta(6), RED))
    if corrupt:
        data[1000] ^= 1
    report = {"format": "graph6", "path": str(step.out), "bytes": len(data)}
    _fake_spawn(monkeypatch, _cli_report(report), {step.out: bytes(data)})
    o = run.run_step(step, tmp_path, time.monotonic() + 60)
    assert (o.error == "output disagrees with the reference") is corrupt


def test_truncated_table_is_a_failed_step(tmp_path, monkeypatch):
    _fake_spawn(monkeypatch, _cli_report({"function": "tau", "m": 14, "table": "tt:28:00"}))
    step = _step(run.export_steps(1, tmp_path), "table_tau_m14")
    assert run.run_step(step, tmp_path, time.monotonic() + 60).error


def test_unparseable_output_is_a_failed_step(tmp_path, monkeypatch):
    _fake_spawn(monkeypatch, "{not json")
    step = _step(run.search_steps(1, tmp_path), "search_m1")
    assert run.run_step(step, tmp_path, time.monotonic() + 60).error.startswith("unreadable output")


def test_wrong_exit_code_is_a_failed_step(tmp_path):
    step = run.Step("guard", ["cli", "bent", "--m", "13", "--function", "tau"], lambda o: True)
    assert run.run_step(step, tmp_path, time.monotonic() + 60).error == "exit code 1"


def test_timeout_is_a_failed_step_with_its_elapsed_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STEP_TIMEOUT_S", 1.0)
    step = run.Step("m4_unbounded", ["cli", "search", "--m", "4"], lambda o: True, codes=(2,))
    o = run.run_step(step, tmp_path, time.monotonic() + 60)
    assert o.timed_out and o.error.startswith("timed out")
    assert 1.0 <= o.wall < 5.0


def test_real_search_steps_pass_and_trace(tmp_path):
    steps = [s for s in run.search_steps(1, tmp_path) if s.name in ("search_m3", "search_mcv_m3")]
    outcomes = run.run_pass(steps, tmp_path, time.monotonic() + 60, trace=True)
    assert [o.error for o in outcomes] == [None, None]
    metrics = tracing.layer_metrics(outcomes)
    assert metrics["swap.nodes.natural_m3"]["value"] == 3346
    assert metrics["swap.nodes.mcv_m3"]["value"] == 64
    assert metrics["swap.useful_ratio.mcv_m3"]["value"] == 1.0
    assert metrics["cli.calls"]["value"] == 1
    assert 0.0 <= tracing.unaccounted(outcomes) < 1.0
