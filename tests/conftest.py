from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import pytest

from pcsp.cli import corpus_path
from pcsp.cose import concretize
from pcsp.lts import Event
from pcsp.parser import parse_file
from pcsp.syntax import TVal
from reference import has_failure, has_trace


@lru_cache(maxsize=None)
def load(name: str):
    return parse_file(corpus_path(name))


# Sequential corpus processes usable by every semantics; the optional third
# element closes root free variables.
CORPUS_SEQ = [
    ("running.pcsp", "P", None),
    ("mutex.pcsp", "Spec", None),
    ("copy.pcsp", "COPY", None),
    ("ex315.pcsp", "R1", None),
    ("ex315.pcsp", "R2", None),
    ("traces-count.pcsp", "P", None),
    ("traces-count.pcsp", "Q", None),
    ("ex511.pcsp", "Spec", None),
    ("ex512.pcsp", "Spec", None),
    ("bigprops.pcsp", "Proc", {"x": TVal(0)}),
    ("ex33.pcsp", "SeqOK", None),
]

# The subset that additionally satisfies the normality condition.
SEQNORM_SPECS = [
    ("running.pcsp", "P", None),
    ("mutex.pcsp", "Spec", None),
    ("copy.pcsp", "COPY", None),
    ("ex315.pcsp", "R1", None),
    ("ex315.pcsp", "R2", None),
    ("traces-count.pcsp", "P", None),
    ("traces-count.pcsp", "Q", None),
    ("ex511.pcsp", "Spec", None),
    ("ex512.pcsp", "Spec", None),
    ("bigprops.pcsp", "Proc", {"x": TVal(0)}),
    ("ex33.pcsp", "SeqOK", None),
]

# A t-constant that only a renaming mentions: Impl is not symmetric in t.
RENAMED_CONSTANT = """\
channel a, b, d : t
channel go
Node(i) = a.i -> b.i -> STOP
W = go -> ((b?x:t -> STOP) [[ d.2 <- b.2 ]])
Impl = (||| i:t @ Node(i)) [| {|b|} |] W
S = a?i:t -> S [] b?i:t -> S [] d?i:t -> S [] go -> S
"""

def symmetric_mutant(tmp_path):
    """mutex.pcsp with nodes that may enter the critical section without
    the token, written to tmp_path; still symmetric in t."""
    text = corpus_path("mutex.pcsp").read_text()
    node = "Node(i) = getToken.i -> Entering(i)\n"
    assert node in text
    src = tmp_path / "mutant.pcsp"
    src.write_text(text.replace(
        node, "Node(i) = getToken.i -> Entering(i) [] enterCS.i -> CS(i)\n"))
    return src


ALL_CORPUS_FILES = [
    "running.pcsp", "mutex.pcsp", "copy.pcsp", "ring.pcsp", "ex33.pcsp",
    "ex315.pcsp", "ex511.pcsp", "ex512.pcsp", "bigprops.pcsp",
    "traces-count.pcsp",
]


def proc_body(defs, proc: str):
    """Equation body, usable for parameterised processes too."""
    return defs.equations[proc].body


@pytest.fixture(scope="session")
def mutex():
    return load("mutex.pcsp")


@pytest.fixture(scope="session")
def running():
    return load("running.pcsp")


@dataclass
class BigPropCase:
    name: str
    description: str
    holds: bool


def bigprop_testcases() -> list[BigPropCase]:
    """Membership and non-membership checks, over the process
    c!x$y:t?z:t -> if y=z then d!x -> STOP else d$w:t -> STOP at #T = 3 with
    B = 1, that instantiate the trace- and failure-extension propositions."""
    defs = load("bigprops.pcsp")
    tsize = 3
    tv = [TVal(i) for i in range(tsize)]
    body = proc_body(defs, "Proc")
    l0 = concretize(defs, body, tsize, init_env={"x": TVal(0)})
    l2 = concretize(defs, body, tsize, init_env={"x": TVal(2)})

    def ev(ch, *idx):
        return Event(ch, tuple(TVal(i) for i in idx))

    cases = []

    holds = all(has_trace(l0, (ev("c", 0, v2.index, v3.index),))
                for v2 in tv for v3 in tv)
    cases.append(BigPropCase(
        "traces-1", "x=0: <c.0.v2.v3> is a trace for all v2, v3", holds))

    holds = all(not has_trace(l2, (ev("c", 1, v2.index, v3.index),))
                for v2 in tv for v3 in tv)
    cases.append(BigPropCase(
        "traces-2", "x=2: no trace <c.1.v2.v3> (collapsed output excluded)", holds))

    holds = all(has_trace(l0, (ev("c", 0, 0, 2), ev("d", v.index))) for v in tv)
    cases.append(BigPropCase(
        "traces-3", "x=0 after <c.0.0.2>: every d.v is available", holds))

    holds = has_trace(l0, (ev("c", 0, 1, 2), ev("d", 0)))
    cases.append(BigPropCase(
        "traces-4", "x=0 after <c.0.1.2>: d.0 is available (negative branch "
        "covers the positive one)", holds))

    all_c = {Event("c", (a, b, c)) for a in tv for b in tv for c in tv}

    x1 = all_c - {Event("c", (TVal(0), TVal(1), v)) for v in tv}
    cases.append(BigPropCase(
        "failures-1", "x=0: (<>, {|c|} - {|c.0.1|}) is a failure",
        has_failure(l0, (), x1)))

    x2 = {e for e in all_c if e.values[0] == TVal(2)}
    cases.append(BigPropCase(
        "failures-2", "x=2: (<>, {|c.2|}) is not a failure",
        not has_failure(l2, (), x2)))

    x3 = all_c | {Event("d", (v,)) for v in tv if v != TVal(2)}
    cases.append(BigPropCase(
        "failures-3", "x=0: (<c.0.0.2>, {|c|} u {d.v | v /= 2}) is a failure",
        has_failure(l0, (ev("c", 0, 0, 2),), x3)))

    x4 = all_c | {Event("d", (v,)) for v in tv if v != TVal(0)}
    cases.append(BigPropCase(
        "failures-4", "x=0: (<c.0.1.2>, {|c|} u {d.v | v /= 0}) is a failure",
        has_failure(l0, (ev("c", 0, 1, 2),), x4)))

    return cases
