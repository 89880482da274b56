"""One fresh interpreter with numpy blocked: a ctwin command or a library
program, its exit code and stdout, and every module it loaded.

    python tests/probe.py ctwin ARGV...
    python tests/probe.py PROGRAM ARGS...

The first runs `ctwin.cli.main(ARGV)` and exits with its code; the second
runs the Python source PROGRAM with sys.argv[1:] = ARGS.  Both start with
sys.modules['numpy'] = None, so any import of numpy raises ImportError
and a command that exits with its usual code has run on the standard
library alone.  After the run, also when it raises, the last line of
stderr lists the modules loaded, read from sys.modules (the blocked
entries, None, left out): that sees a layer that `ctwin.__getattr__`
loads by `importlib` as well as one imported by a statement.

`command` gives the argv that runs it, for a launcher that measures the
run, and `loaded` reads its report back; `probe` does both.
"""

import atexit
import sys
from collections import namedtuple
from pathlib import Path

Probe = namedtuple("Probe", "code out err modules")


def command(argv, program="ctwin"):
    """The argv that runs `ctwin ARGV`, or PROGRAM with ARGV, in the
    probe."""
    return [sys.executable, str(Path(__file__).resolve()), program, *argv]


def loaded(stderr):
    """(stderr before the report, the set of modules the report lists)."""
    err, _, report = stderr.rstrip("\n").rpartition("\n")
    return err, set(report.split())


def probe(argv, program="ctwin"):
    """Run `ctwin ARGV`, or PROGRAM with ARGV, in the probe: a Probe of
    its exit code, stdout, stderr before the report, and the set of
    modules it loaded."""
    # imported here, so that the probe's own report does not list it
    import subprocess

    proc = subprocess.run(command(argv, program), capture_output=True, text=True, timeout=120)
    return Probe(proc.returncode, proc.stdout, *loaded(proc.stderr))


def _report():
    modules = sorted(name for name, module in sys.modules.items() if module is not None)
    sys.stderr.write("\n" + " ".join(modules) + "\n")


def _run(program, *argv):
    sys.modules["numpy"] = None
    sys.argv = [program, *argv]
    # at exit, after any traceback
    atexit.register(_report)
    if program == "ctwin":
        from ctwin.cli import main

        sys.exit(main(list(argv)))
    exec(compile(program, "<program>", "exec"), {"__name__": "__main__"})


if __name__ == "__main__":
    _run(*sys.argv[1:])
