"""The ctwin benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

ctwin is a batch verifier: its users run `ctwin` commands and library
calls and wait for a verified answer.  So every workload is a closed loop
with one client: its steps run one at a time, each in a fresh interpreter
started from the checkout's sources, and each pays interpreter start-up,
the import of ctwin and numpy, table builds and cache fills, as a user's
call does.  No step passes --threads, and CTWIN_THREADS is removed from
the steps' environment: serial runs are ctwin's deterministic reference.

Workloads, and why each was chosen:

  verify  The paper's positive claims: bentness at the `bent` guard's
          largest m, difference sets and strong regularity.  FWHT,
          bit unpacking and pair counting dominate; swap does no work.
  export  The write side of the same layers: the `table` guard's largest
          m on stdout, graph6 and JSON edge lists.  Encoding and CLI
          emission dominate; the truth-table build is a small share.
  search  The swap search alone.  The full m = 3 enumeration has a fixed
          outcome (1344 maps) whatever the engine's notion of a node; the
          m = 4 budgeted runs are the README's command and the min-domain
          order at the size the paper is about.  Its only input is Delta_m.

The library steps of verify and export get their truth tables from the
seeded generator: the table of f o A for a random invertible GF(2)
matrix A.  Bentness and the difference-set and SRG parameters do not
change under A, so the expected answers are the closed forms.

With --trace 0 a run makes full passes over the workload's steps while
another pass fits in --seconds (at least one), imports ctwin in a fresh
interpreter before each step and then until there are SETUP_PROBES such
probes, and reports, as medians over probes or passes:
  wall_s       the summed wall time of a pass's step processes;
  setup_s      the time from starting an interpreter until `import ctwin`
               returns;
  peak_rss_mb  the largest peak RSS of any step process of a pass.
With --trace 1 a run makes one traced pass over the steps of every
workload, so each per-layer metric is measured in every traced run (see
tracing.py).  Each step of the named workload also runs untraced just
before its traced run; trace.overhead_s is the named workload's traced
wall time minus its untraced wall time, and trace.unaccounted_frac the
share of its traced wall time that no top-level span covers.

Every step's output is checked against reference.py after the step's
process has exited, outside the timed region.  A step fails on a wrong
exit code, an output that disagrees with the reference, or a timeout;
failures are counted, never dropped.  The last line printed is one JSON
object with the keys correct, attempted, failed and metrics.  Without
--workload, every workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "export", "search")
DEFAULT_SEED = 1
SETUP_PROBES = 16
STEP_TIMEOUT_S = 60.0
# no step runs past this many seconds after the run started, so that a run
# whose steps time out still ends within three minutes
RUN_LIMIT_S = 170.0
# stands for the clock reading at spawn in a traced step's arguments
SPAWN = "<spawn>"


@dataclass
class Step:
    """One process to run: `cmd` is ["cli", ARG...] for the ctwin command
    or a step.py operation with its arguments; `codes` are the exit codes
    the reference allows and `expect` checks the finished step's output."""

    name: str
    cmd: list[str]
    expect: Callable[["Outcome"], bool]
    codes: tuple[int, ...] = (0,)
    out: Path | None = None


@dataclass
class Outcome:
    """What one step process did; `error` is None for a passed step."""

    kind: str
    wall: float
    rss_mb: float = 0.0
    code: int | None = None
    timed_out: bool = False
    report: object = None
    stdout_bytes: int = 0
    elapsed: float = 0.0
    spans: list = field(default_factory=list)
    error: str | None = None


# --- steps and their reference checks ----------------------------------------

def _cli(name, args, expect, codes=(0,), out=None):
    """A ctwin command whose report's "result" object `expect` checks."""
    return Step(name, ["cli", *args], lambda o: expect(o.report["result"]), codes, out)


def _write_input(work: Path, name: str, values: np.ndarray) -> str:
    path = work / f"{name}.in"
    path.write_text(ref.values_hex(values))
    return str(path)


def _relabelled(rng, values: np.ndarray) -> np.ndarray:
    n = values.size.bit_length() - 1
    return ref.relabel(values, ref.random_invertible(rng, n))


def _edges_match(path: Path, m: int, colour: int) -> bool:
    payload = json.loads(path.read_bytes())
    want = ref.edges(ref.kappa_values(m) == colour)
    got = np.array(payload["edges"], dtype=np.int64).reshape(-1, 2)
    return (
        payload["v"] == 1 << (2 * m)
        and payload["colour"] == {-1: "red", 1: "blue"}[colour]
        and got.shape == want.shape
        and bool((got == want).all())
    )


def _maps_match(m: int, maps) -> bool:
    """All colour-swapping maps fixing 0, each once, in lexicographic order."""
    return (
        len(maps) == ref.SWAP_COUNTS[m]
        and all(a < b for a, b in zip(maps, maps[1:]))
        and ref.swaps_ok(m, maps)
    )


def verify_steps(seed: int, work: Path) -> list[Step]:
    rng = np.random.default_rng(seed)
    tau10 = _write_input(work, "verify_tau_m10", _relabelled(rng, ref.tau_values(10)))
    sigma6 = _write_input(work, "verify_sigma_m6", _relabelled(rng, ref.sigma_values(6)))
    sigma7 = _write_input(work, "verify_sigma_m7", _relabelled(rng, ref.sigma_values(7)))
    tau6 = _write_input(work, "verify_tau_m6", _relabelled(rng, ref.tau_values(6)))
    return [
        _cli("bent_tau_m12", ["bent", "--m", "12", "--function", "tau"],
             lambda r: r == {"bent": True, "magnitude": 1 << 12}),
        _cli("bent_sigma_m11", ["bent", "--m", "11", "--function", "sigma"],
             lambda r: r == {"bent": True, "magnitude": 1 << 11}),
        _cli("params_m5", ["params", "--m", "5"],
             lambda r: r == {"ds": list(ref.ds_params(5)),
                             "srg": list(ref.srg_params(5)), "confirmed": True}),
        _cli("oracle_m4", ["oracle", "--m", "4"],
             lambda r: r == {"checked": 256, "pairs": 256 * 255 // 2, "ok": True}),
        Step("is_bent_tau_m10", ["is_bent", tau10], lambda o: o.report == {"bent": True}),
        Step("diffset_sigma_m6", ["diffset", sigma6],
             lambda o: o.report == {"params": list(ref.ds_params(6))}),
        Step("diffset_sigma_m7", ["diffset", sigma7],
             lambda o: o.report == {"params": list(ref.ds_params(7))}),
        Step("srg_tau_m6", ["srg", tau6],
             lambda o: o.report == {"params": list(ref.srg_params(6))}),
    ]


def export_steps(seed: int, work: Path) -> list[Step]:
    rng = np.random.default_rng(seed)
    sigma5 = _relabelled(rng, ref.sigma_values(5))
    sigma5_in = _write_input(work, "export_sigma_m5", sigma5)
    red6, blue5, g6 = (work / f"export_{n}.out" for n in ("red_m6", "blue_m5", "cayley_m5"))
    table = {}

    def table_ok(r):
        if "tau14" not in table:
            table["tau14"] = ref.table_hex(14, "tau")
        return r == {"function": "tau", "m": 14, "table": table["tau14"]}

    def red6_ok(r):
        want = ref.graph6(ref.kappa_values(6) == -1)
        return r == {"format": "graph6", "path": str(red6), "bytes": len(want)} and red6.read_bytes() == want

    def blue5_ok(r):
        size = blue5.stat().st_size
        return r == {"format": "json-edges", "path": str(blue5), "bytes": size} and _edges_match(blue5, 5, 1)

    return [
        _cli("table_tau_m14", ["table", "--m", "14", "--function", "tau"], table_ok),
        _cli("graph6_red_m6", ["graph", "--m", "6", "--colour", "red", "--out", str(red6)],
             red6_ok, out=red6),
        _cli("json_blue_m5", ["graph", "--m", "5", "--colour", "blue", "--format", "json-edges",
                              "--out", str(blue5)], blue5_ok, out=blue5),
        Step("graph6_cayley_sigma_m5", ["graph6", sigma5_in, str(g6)],
             lambda o: g6.read_bytes() == ref.graph6(sigma5 == 1), out=g6),
    ]


def search_steps(seed: int, work: Path) -> list[Step]:
    # Delta_m is fixed by m, so this workload does not depend on the seed
    def witness(m):
        return lambda r: r["m"] == m and ref.swaps_ok(m, [r["phi"]])

    # no swap exists at m = 4: a budgeted search may only run out of budget
    # (exit 3) or exhaust the tree (exit 2)
    def no_swap(r):
        return r["status"] in ("inconclusive", "exhausted")

    return [
        _cli("search_m1", ["search", "--m", "1"], witness(1)),
        _cli("search_m2", ["search", "--m", "2"], witness(2)),
        _cli("search_m3", ["search", "--m", "3"], witness(3)),
        _cli("search_all_m2", ["search", "--m", "2", "--all"],
             lambda r: r["count"] == len(r["witnesses"]) and _maps_match(2, r["witnesses"])),
        Step("search_all_m3", ["search_all", "3", "2000"],
             lambda o: _maps_match(3, o.report["witnesses"])),
        Step("search_mcv_m3", ["search_swap", "3", "mcv", "0"],
             lambda o: o.report["status"] == "found" and ref.swaps_ok(3, [o.report["phi"]])),
        _cli("search_m4_budget", ["search", "--m", "4", "--node-budget", "1000000"],
             no_swap, codes=(2, 3)),
        Step("search_mcv_m4_budget", ["search_swap", "4", "mcv", "5000"],
             lambda o: no_swap(o.report)),
    ]


STEPS = {"verify": verify_steps, "export": export_steps, "search": search_steps}


# --- running steps -------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CTWIN_THREADS", None)
    return env


def spawn(argv: list[str], stdout: Path, timeout: float) -> Outcome:
    """Run one process to completion with a hard timeout.

    Wall time runs from spawn to exit; peak RSS comes from wait4.  The
    process is killed when the timeout passes and the outcome records
    the time it ran.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        start = time.monotonic()
        argv = [repr(start) if a == SPAWN else a for a in argv]
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        done = threading.Event()
        killed = []

        def watchdog():
            if not done.wait(timeout):
                killed.append(True)
                proc.kill()

        guard = threading.Thread(target=watchdog)
        guard.start()
        try:
            # wait without reaping, so the watchdog can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.monotonic() - start
        finally:
            done.set()
            guard.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        kind="", wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode, timed_out=bool(killed),
    )


def run_step(step: Step, work: Path, deadline: float, spans: Path | None = None) -> Outcome:
    """Run one step, then check its output against the reference."""
    kind = step.cmd[0]
    if spans is not None:
        argv = [sys.executable, str(BENCH / "step.py"), "--trace", str(spans), SPAWN, *step.cmd]
    elif kind == "cli":
        argv = [sys.executable, "-m", "ctwin", *step.cmd[1:]]
    else:
        argv = [sys.executable, str(BENCH / "step.py"), *step.cmd]
    if step.out is not None:
        step.out.unlink(missing_ok=True)
    stdout = work / f"{step.name}.stdout"
    timeout = min(STEP_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return Outcome(kind, 0.0, error="not started: run time limit reached")
    o = spawn(argv, stdout, timeout)
    o.kind = kind
    o.stdout_bytes = stdout.stat().st_size
    if o.timed_out:
        o.error = f"timed out after {o.wall:.3f} s"
        return o
    if o.code not in step.codes:
        o.error = f"exit code {o.code}"
        return o
    try:
        text = stdout.read_bytes()
        o.report = json.loads(text) if text else None
        if kind == "cli":
            o.elapsed = o.report["elapsed_ms"] / 1000.0
        if not step.expect(o):
            o.error = "output disagrees with the reference"
    except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
        o.error = f"unreadable output ({type(e).__name__}: {e})"
    o.report = None  # a payload can be tens of MB; keep only the verdict
    if spans is not None:
        o.spans = tracing.load(spans) if spans.exists() else []
    return o


def run_pass(steps: list[Step], work: Path, deadline: float, trace=False,
             before_each: Callable[[], None] = lambda: None) -> list[Outcome]:
    outcomes = []
    for step in steps:
        before_each()
        spans = work / f"{step.name}.spans" if trace else None
        o = run_step(step, work, deadline, spans)
        if o.error:
            print(f"  FAILED {step.name}: {o.error}", file=sys.stderr)
        outcomes.append(o)
    return outcomes


def setup_probe(work: Path, deadline: float) -> tuple[float | None, Outcome]:
    """Time one fresh interpreter from spawn until `import ctwin` returns."""
    code = "import sys, time; import ctwin; print(time.monotonic() - float(sys.argv[1]))"
    stdout = work / "setup.stdout"
    timeout = min(STEP_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return None, Outcome("setup", 0.0, error="not started: run time limit reached")
    o = spawn([sys.executable, "-c", code, SPAWN], stdout, timeout)
    o.kind = "setup"
    try:
        seconds = float(stdout.read_text())
    except ValueError:
        seconds = None
    if o.timed_out or o.code != 0 or seconds is None:
        o.error = "timed out" if o.timed_out else f"import failed (exit code {o.code})"
        return None, o
    return seconds, o


# --- one workload ----------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, work: Path, deadline: float):
    """Untraced passes while another one fits, with set-up probes."""
    outcomes, probes, setups = [], [], []

    def probe():
        s, o = setup_probe(work, deadline)
        probes.append(o)
        if s is not None:
            setups.append(s)

    # one probe before each step, topped up after the passes, so that the
    # probes sample the machine over the whole run, as the passes do
    steps = STEPS[workload](seed, work)
    walls, rss = [], []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        p = run_pass(steps, work, deadline, before_each=probe)
        outcomes += p
        walls.append(sum(o.wall for o in p))
        rss.append(max(o.rss_mb for o in p))
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probe()
    outcomes += probes
    setup = statistics.median(setups) if setups else 0.0
    failed = sum(1 for o in outcomes if o.error)
    print(
        f"{workload}: wall_s median {statistics.median(walls):.3f} s, max {max(walls):.3f} s "
        f"(n={len(walls)} passes); setup_s median {setup:.4f} s, max {max(setups, default=0):.4f} s "
        f"(n={len(setups)}); peak_rss_mb median {statistics.median(rss):.1f} MB; "
        f"failed_frac {failed / len(outcomes):.3f} ({failed}/{len(outcomes)} steps)"
    )
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    }
    return outcomes, metrics


def trace(workload: str, seed: int, work: Path, deadline: float):
    """One traced pass over every workload's steps; each step of the named
    workload also runs untraced just before its traced run, so that the
    two are compared at the same machine speed."""
    untraced, traced = [], {}
    for w in WORKLOADS:
        traced[w] = []
        for step in STEPS[w](seed, work):
            if w == workload:
                untraced += run_pass([step], work, deadline)
            traced[w] += run_pass([step], work, deadline, trace=True)
    steps = [o for w in WORKLOADS for o in traced[w]]
    metrics = tracing.layer_metrics(steps)
    mine = traced[workload]
    metrics["trace.overhead_s"] = _metric(
        sum(o.wall for o in mine) - sum(o.wall for o in untraced), "s")
    metrics["trace.unaccounted_frac"] = _metric(tracing.unaccounted(mine), "ratio")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return untraced + steps, metrics


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        if traced:
            outcomes, metrics = trace(workload, seed, work, deadline)
        else:
            outcomes, metrics = measure(workload, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    failed = sum(1 for o in outcomes if o.error)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the ctwin benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ctwin" / "__init__.py").is_file():
        print(f"ctwin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
