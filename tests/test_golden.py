"""Golden outputs of the README Quick-start commands, of ``conditions`` on
every corpus file (with and without the sampled equality-test check), and
of both paths of the semantic symmetry check.

Every command runs through ``cli.main``; its stdout must equal
``golden/<name>.out`` byte for byte and its exit code must equal the one
listed here.  Each non-DOT command is recorded in text and in JSON.  To
re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from pcsp.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

MUTEX_VERIFY = ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
                "--abst", "Abst", "--valid-from", "3")

# name -> (argv, exit code); the JSON twin of each non-DOT command is added below
_COMMANDS = {
    "verify-mutex-traces": (MUTEX_VERIFY + ("--model", "traces", "--sizes", "1..4"), 0),
    "verify-mutex-failures": (MUTEX_VERIFY + ("--model", "failures", "--sizes", "1..4",
                                              "--sample-premise", "3,4,5"), 0),
    "threshold-mutex-failures": (("threshold", "mutex.pcsp", "--spec", "Spec",
                                  "--model", "failures"), 0),
    "refine-ex511": (("refine", "ex511.pcsp", "--spec", "Spec", "--impl", "Impl",
                      "--model", "failures", "--tsize", "3"), 1),
    "conditions-mutex": (("conditions", "mutex.pcsp"), 1),
    "conditions-bigprops": (("conditions", "bigprops.pcsp"), 1),
    "conditions-copy": (("conditions", "copy.pcsp"), 0),
    "conditions-ex315": (("conditions", "ex315.pcsp"), 0),
    "conditions-ex33": (("conditions", "ex33.pcsp"), 1),
    "conditions-ex511": (("conditions", "ex511.pcsp"), 1),
    "conditions-ex512": (("conditions", "ex512.pcsp"), 1),
    "conditions-ring": (("conditions", "ring.pcsp"), 1),
    "conditions-running": (("conditions", "running.pcsp"), 1),
    "conditions-traces-count": (("conditions", "traces-count.pcsp"), 0),
    # the sampled equality-test check, which types each free variable of a
    # conditional by its binder
    **{f"conditions-eqt-{stem}": (("conditions", f"{stem}.pcsp", "--eqt-model", "failures"),
                                  int(stem != "copy"))
       for stem in ("bigprops", "copy", "ex315", "ex33", "ex511", "ex512", "mutex",
                    "ring", "running", "traces-count")},
    "lts-mutex-impl-2": (("lts", "mutex.pcsp", "--proc", "Impl", "--tsize", "2"), 0),
    "congruence-running-2": (("congruence", "running.pcsp", "--proc", "P",
                              "--tsize", "2"), 0),
    # the semantic symmetry check: its fail path (each failing generator of
    # S_n, the transposition and the n-cycle, with its formula) and its pass
    # path
    "typesym-ring-n1-3": (("conditions", "ring.pcsp", "--proc", "N1",
                           "--typesym-sizes", "3"), 1),
    "typesym-mutex-abst-2-3": (("conditions", "mutex.pcsp", "--proc", "Abst",
                                "--typesym-sizes", "2,3"), 1),
    "typesym-copy-2-3": (("conditions", "copy.pcsp", "--proc", "COPY",
                          "--typesym-sizes", "2,3"), 0),
}
_DOT_COMMANDS = {
    "sslts-mutex-spec-dot": (("sslts", "mutex.pcsp", "--proc", "Spec", "--dot"), 0),
    "cose-running-2-dot": (("cose", "running.pcsp", "--proc", "P", "--tsize", "2",
                            "--dot"), 0),
}
CASES = {
    **_COMMANDS,
    **{f"{name}-json": (argv + ("--format", "json"), rc)
       for name, (argv, rc) in _COMMANDS.items()},
    **_DOT_COMMANDS,
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_quick_start_output_unchanged(name):
    argv, rc = CASES[name]
    got_rc, got_out = _run(argv)
    assert got_rc == rc
    assert got_out == (GOLDEN_DIR / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, rc) in sorted(CASES.items()):
        got_rc, got_out = _run(argv)
        if got_rc != rc:
            sys.exit(f"{name}: exit code {got_rc}, expected {rc}")
        (GOLDEN_DIR / f"{name}.out").write_text(got_out)
