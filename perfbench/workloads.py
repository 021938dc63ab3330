"""The benchmark's workloads: fixed lists of ``pcsp`` CLI invocations on the
bundled corpus, each with its expected exit code and a hand-written check of
its verdict.  The expected answers come from the README and the paper, not
from running the program; ``expected/<name>.out`` additionally holds the
full stdout recorded at the commit that introduced the benchmark, compared
byte for byte.  To re-record one after a deliberate output change:

    PYTHONPATH=src python3 -m pcsp ARG... > perfbench/expected/NAME.out
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Invocation:
    name: str                    # stem of the recorded stdout file
    argv: tuple[str, ...]
    rc: int                      # expected exit code
    check: Callable[[str], bool]  # hand-written verdict check on stdout


def _holds_at(sizes, conclusion: str, premises: int = 0):
    def check(out: str) -> bool:
        lines = out.splitlines()
        sized = [ln for ln in lines if ln.startswith("#T=")]
        premise = [ln for ln in lines if ln.startswith("premise ")]
        return ("B = 1" in lines
                and [int(ln[3:ln.index(" ")]) for ln in sized] == list(sizes)
                and all(ln.endswith(": holds") for ln in sized + premise)
                and len(premise) == premises
                and f"conclusion: {conclusion}" in lines)
    return check


def _bisimilar(out: str) -> bool:
    return out.rstrip("\n").endswith(": strongly bisimilar")


def _ex511(out: str) -> bool:
    # Example 5.11: the empty trace, refusing c.i.i for every identity i
    refusal = ", ".join(f"c.{i}.{i}" for i in range(10))
    return out == ("Spec [F= Impl at #T=10: FAILS with counterexample "
                   f"(<>, {{{refusal}}})\n")


def _ex512(out: str) -> bool:
    # Example 5.12: the empty trace, with a refusal that hits every identity
    # on some non-t value
    m = re.fullmatch(r"Spec \[F= Impl at #T=5: FAILS with counterexample "
                     r"\(<>, \{(.*)\}\)\n", out)
    if not m:
        return False
    refused = [re.fullmatch(r"c\.(\d+)\.(y1|y2)", e) for e in m.group(1).split(", ")]
    return all(refused) and {int(r.group(1)) for r in refused} == set(range(5))


def _typesym(out: str) -> bool:
    return ("  TypeSym-semantic: evidence\n"
            "    note: bisimilar to all 144 bijective renamings at sizes {4,5}\n"
            in out)


def _mutex_states(n: int, states: int):
    return lambda out: out.startswith(f"Impl at #T={n}: {states} states, ")


WORKLOADS = {
    "mutex-verify": [
        Invocation("mutex-verify-1-7",
                   ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
                    "--model", "failures", "--sizes", "1..7"), 0,
                   _holds_at(range(1, 8), "Spec(T_n) [F= Impl(T_n) derived via "
                             "the reduced type for n in {2,3,4,5,6,7}")),
        Invocation("mutex-verify-abst",
                   ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
                    "--abst", "Abst", "--valid-from", "3", "--model", "failures",
                    "--sizes", "1..4", "--sample-premise", "3,4,5"), 0,
                   _holds_at((1, 2), "Spec(T) [F= Impl(T) for all "
                             "instantiations with #T >= 3", premises=4)),
    ],
    "typesym-sample": [
        # exit 1: Impl is a parallel composition, so the Seq checks fail
        Invocation("typesym-impl-4-5",
                   ("conditions", "mutex.pcsp", "--proc", "Impl",
                    "--typesym-sizes", "4,5"), 1, _typesym),
    ],
    "seq-congruence": [
        Invocation("congruence-traces-count-8",
                   ("congruence", "traces-count.pcsp", "--proc", "P",
                    "--tsize", "8"), 0, _bisimilar),
        Invocation("congruence-ex315-9",
                   ("congruence", "ex315.pcsp", "--proc", "R1", "--tsize", "9"),
                   0, _bisimilar),
        Invocation("congruence-running-16",
                   ("congruence", "running.pcsp", "--proc", "P", "--tsize", "16"),
                   0, _bisimilar),
        Invocation("refine-ex511-10",
                   ("refine", "ex511.pcsp", "--spec", "Spec", "--impl", "Impl",
                    "--model", "failures", "--tsize", "10"), 1, _ex511),
        Invocation("refine-ex512-5",
                   ("refine", "ex512.pcsp", "--spec", "Spec", "--impl", "Impl",
                    "--model", "failures", "--tsize", "5"), 1, _ex512),
    ],
}

# The ROADMAP's build_lts baseline: mutex Impl at n=6..8, whose state counts
# grow about 2.3x per size.  Run in every traced run, apart from the workload.
BASELINE = [
    Invocation(f"lts-mutex-impl-{n}",
               ("lts", "mutex.pcsp", "--proc", "Impl", "--tsize", str(n)), 0,
               _mutex_states(n, states))
    for n, states in ((6, 1282), (7, 2946), (8, 6658))
]
