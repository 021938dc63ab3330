from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcsp
from conftest import RENAMED_CONSTANT, symmetric_mutant
from pcsp import reduction, std_semantics
from pcsp.cli import _COMMON, _SUBCOMMANDS, _read, main, make_parser
from pcsp.parser import MAX_DEPTH
from test_golden import CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_mutex_traces(capsys):
    code, out, _ = run(capsys, "verify", "mutex.pcsp", "--spec", "Spec",
                       "--impl", "Impl", "--abst", "Abst", "--valid-from", "3",
                       "--model", "traces", "--sizes", "1..4")
    assert code == 0
    assert "#T >= 3" in out
    assert "#T=1 [direct]" in out and "#T=2 [direct]" in out


def test_threshold_mutex_failures(capsys):
    code, out, _ = run(capsys, "threshold", "mutex.pcsp", "--spec", "Spec",
                       "--model", "failures")
    assert code == 0
    assert "B = 1" in out


def test_refine_ex511_counterexample(capsys):
    code, out, _ = run(capsys, "refine", "ex511.pcsp", "--spec", "Spec",
                       "--impl", "Impl", "--model", "failures", "--tsize", "3")
    assert code == 1
    assert "{c.0.0, c.1.1, c.2.2}" in out


def test_congruence_command(capsys):
    code, out, _ = run(capsys, "congruence", "running.pcsp", "--proc", "P",
                       "--tsize", "2")
    assert code == 0 and "bisimilar" in out


def test_conditions_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "conditions", "mutex.pcsp", "--format", "json")
    code2, out2, _ = run(capsys, "conditions", "mutex.pcsp", "--format", "json")
    assert code1 == code2 == 1  # Nodes deliberately fails data independence
    assert out1 == out2
    payload = json.loads(out1)
    spec_reports = {r["name"]: r["verdict"] for r in payload["Spec"]}
    assert spec_reports["SeqNorm"] == "pass"
    nodes_reports = {r["name"]: r["verdict"] for r in payload["Nodes"]}
    assert nodes_reports["data-independence"] == "fail"


def test_dot_outputs_are_byte_identical(capsys):
    _, a, _ = run(capsys, "sslts", "running.pcsp", "--proc", "P", "--dot")
    _, b, _ = run(capsys, "sslts", "running.pcsp", "--proc", "P", "--dot")
    assert a == b and a.startswith("digraph")
    _, c, _ = run(capsys, "cose", "running.pcsp", "--proc", "P",
                  "--tsize", "2", "--dot")
    assert "y->0" in c or "y->1" in c


def test_lts_command_json(capsys):
    code, out, _ = run(capsys, "lts", "running.pcsp", "--proc", "P",
                       "--tsize", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["states"] == 16


def test_a_json_refusal_lists_its_events_in_the_order_of_the_text(capsys):
    # at #T=11 label order puts c.10.10 last, string order after c.1.1
    argv = ("refine", "ex511.pcsp", "--spec", "Spec", "--impl", "Impl",
            "--model", "failures", "--tsize", "11")
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    refusal = json.loads(out)["refusal"]
    assert code == json_code == 1
    assert refusal == [f"c.{i}.{i}" for i in range(11)]
    assert text.endswith("(<>, {" + ", ".join(refusal) + "})\n")


PARSE_ERROR = "channel c : t\nP = c$ -> STOP\n"
BOUND_TWICE = "channel c : t.t\nP = c$x:t$x:t -> STOP\n"


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pcsp"
    bad.write_text(PARSE_ERROR)
    code, _, err = run(capsys, "conditions", str(bad))
    assert code == 2
    assert "bad.pcsp:2:" in err


# An error at the end of an item points just past its last token.
MALFORMED_DECLARATIONS = [
    ("channel : t\nP = STOP\n", "1:9: expected channel name, found ':'"),
    ("channel a,\nP = STOP\n", "1:11: expected channel name, found 'end of input'"),
    ("channel a : ->\nP = STOP\n", "1:13: expected type, found '->'"),
    ("channel a : {0\nP = STOP\n", "1:15: expected '}', found 'end of input'"),
    ("channel a b\nP = STOP\n", "1:11: unexpected 'b' after declaration"),
    ("const N = x\nP = STOP\n", "1:11: expected a number"),
    ("datatype = a | b\nP = STOP\n", "1:10: expected type name, found '='"),
    ("datatype AB = a |\nP = STOP\n", "1:18: expected value name, found 'end of input'"),
    ("P = STOP\nassert P P\n", "2:10: expected '[T=' or '[F='"),
]

# A diagnostic of the resolution phase points at the head of the equation
# it concerns, or at the keyword of the assertion; each is reported once.
MALFORMED_EQUATIONS = [
    ("channel a\nP = a ->\nQ = STOP\n\n\n", ["2:9: expected a process, found 'end of input'"]),
    ("channel c : t\nR = (c?i:t -> STOP) [[ c.k <- c.k ]]\n",
     ["2:1: undefined variable 'k' in the definition of 'R'"]),
    ("channel c : t\nQ = STOP\nP(x) = c!x -> STOP [] (x > 0) & STOP\n",
     ["3:1: parameter 'x' of 'P' used both as t and as nat",
      "3:1: variable 'x' in 'P' used both as t and as nat"]),
    ("channel c : t\nQ = STOP\nP(x) = if x == x then c!x -> STOP else STOP\n",
     ["3:1: trivial condition x==x in 'P'"]),
    ("channel c : t\nQ = STOP\n  assert Z [T= Z\n",
     ["3:3: assertion references undefined process 'Z'"]),
    # a replicated operator over a datatype puts its values where its
    # index variable stands, which must not be a t field
    ("datatype Y = y1 | y2\nchannel ca : t\nP = [] j : Y @ ca!j -> STOP\n",
     ["3:8: value 'y1' of type Y in a t field"]),
    ("datatype Y = y1 | y2\nchannel ca : t\n"
     "P = [] j : Y @ ((ca?x:t -> STOP) [[ ca.j <- ca.j ]])\n",
     ["3:8: value 'y1' of type Y in a t field"]),
    ("datatype Y = y1 | y2\nchannel ca : t\nP = ||| j : Y @ ((ca?x:t -> STOP) \\ {ca.j})\n",
     ["3:9: value 'y1' of type Y in a t field"]),
    # the conflict comes from the call, so it is reported at the caller,
    # whichever of the two equations comes first
    ("datatype Y = y1 | y2\nchannel ca : t\nQ(i) = ca!i -> STOP\nP = [] j : Y @ Q(j)\n",
     ["4:1: parameter 'i' of 'Q' used both as t and as Y"]),
    ("datatype Y = y1 | y2\nchannel ca : t\nP = [] j : Y @ Q(j)\nQ(i) = ca!i -> STOP\n",
     ["3:1: parameter 'i' of 'Q' used both as t and as Y"]),
    # a guard or a comparison is read once, as the lookahead decides, and
    # reported where that reading fails
    ("channel a\nP = if x then STOP else STOP\n", ["2:10: expected comparison operator"]),
    ("channel a\nP = (x > 0) & \n", ["2:14: expected a process, found 'end of input'"]),
    ("channel a\nP = x + & STOP\n", ["2:9: expected a value, variable or number, found '&'"]),
    # an ill-typed comparison is dropped from the resolved body, but its
    # names are still read from the body as parsed
    ("channel c : t\nP = c?x:t -> if x == y + 1 then STOP else STOP\n",
     ["2:1: comparison between t and nat in 'P'",
      "2:1: undefined variable 'y' in the definition of 'P'"]),
    # min, + and < take naturals: a datatype value there is reported, not
    # ordered or left to fail at build time, and so is a natural compared
    # with a datatype value
    *[(f"datatype X = a | b\nchannel e\nP = if {guard} then e -> STOP else STOP\n",
       ["3:1: value 'a' of type X where a natural is expected in 'P'",
        "3:1: value 'b' of type X where a natural is expected in 'P'"] + extra)
      for guard, extra in (("min(a, b) == a", ["3:1: comparison between nat and X in 'P'"]),
                           ("a + b == a", ["3:1: comparison between nat and X in 'P'"]),
                           ("a < b", []))],
    # ==/!= between values of two different known types is reported, not
    # left silently false
    ("datatype X = a | b\nchannel e\nP = if a == 1 then e -> STOP else STOP\n",
     ["3:1: comparison between X and nat in 'P'"]),
    ("datatype X = a | b\ndatatype Y = c | d\nchannel e\n"
     "P = if a == c then e -> STOP else STOP\n",
     ["4:1: comparison between X and Y in 'P'"]),
]


@pytest.mark.parametrize("text,diagnostic", MALFORMED_DECLARATIONS)
def test_malformed_declaration_exits_2(tmp_path, capsys, text, diagnostic):
    src = tmp_path / "decl.pcsp"
    src.write_text(text)
    code, out, err = run(capsys, "conditions", str(src))
    assert code == 2 and out == ""
    assert err == f"{src}:{diagnostic}\n"


@pytest.mark.parametrize("text,diagnostics", MALFORMED_EQUATIONS)
def test_malformed_equation_exits_2(tmp_path, capsys, text, diagnostics):
    src = tmp_path / "eq.pcsp"
    src.write_text(text)
    code, out, err = run(capsys, "conditions", str(src))
    assert code == 2 and out == ""
    assert err == "".join(f"{src}:{d}\n" for d in diagnostics)


@pytest.mark.parametrize("text", [PARSE_ERROR, BOUND_TWICE]
                         + [text for text, _ in MALFORMED_DECLARATIONS + MALFORMED_EQUATIONS])
def test_no_diagnostic_of_malformed_input_has_line_0(tmp_path, capsys, text):
    src = tmp_path / "bad.pcsp"
    src.write_text(text)
    code, _, err = run(capsys, "conditions", str(src))
    assert code == 2 and err
    for line in err.splitlines():
        assert line.startswith(f"{src}:")
        assert int(line[len(f"{src}:"):].split(":")[0]) > 0


def test_name_bound_twice_in_one_construct_exits_2(tmp_path, capsys):
    src = tmp_path / "twice.pcsp"
    src.write_text(BOUND_TWICE)
    code, out, err = run(capsys, "lts", str(src), "--proc", "P", "--tsize", "2")
    assert code == 2 and out == ""
    assert err == (f"{src}:2:11: input variable 'x' is bound twice in one "
                   "construct on channel 'c'\n")


@pytest.mark.parametrize("body", [
    "P = b!2 -> STOP",
    "P = (b?x:t -> STOP) [[ b.2 <- d.2 ]]",
    "P = (b?x:t -> STOP) \\ {b.2}",
], ids=["construct", "renaming", "event-set"])
def test_t_constant_outside_the_instantiation_exits_2(tmp_path, capsys, body):
    src = tmp_path / "tconst.pcsp"
    src.write_text(f"channel b, d : t\n{body}\n")
    code, out, err = run(capsys, "lts", str(src), "--proc", "P", "--tsize", "1")
    assert code == 2 and out == ""
    assert err == "error: t-value 2 outside the instantiation of size 1\n"
    assert run(capsys, "lts", str(src), "--proc", "P", "--tsize", "3")[0] == 0


@pytest.mark.parametrize("command", [
    ("refine", "--tsize", "1"), ("verify", "--sizes", "1..2"),
])
def test_a_cycle_of_bare_calls_is_a_divergent_specification(tmp_path, capsys, command):
    # refine and verify build without the unfolding τ, except where the
    # calls close a cycle; verify names the specification and the size
    src = tmp_path / "cycle.pcsp"
    src.write_text("channel a\nP = Q\nQ = P\nS = a -> S\n")
    code, out, err = run(capsys, command[0], str(src), "--spec", "P", "--impl", "S",
                         "--model", "failures", *command[1:])
    assert code == 2 and out == ""
    assert err == {
        "refine": "error: specification diverges: stable-failures normalisation "
                  "requires divergence-freedom\n",
        "verify": "error: specification 'P' diverges at #T=1: stable-failures "
                  "refinement requires a divergence-free specification\n",
    }[command[0]]


def test_a_divergent_abstraction_is_named_before_the_premise_samples(tmp_path, capsys):
    src = tmp_path / "cycle.pcsp"
    src.write_text("channel a\nP = Q\nQ = P\nS = a -> S\n")
    code, out, err = run(capsys, "verify", str(src), "--spec", "S", "--impl", "S",
                         "--abst", "P", "--valid-from", "1", "--model", "failures",
                         "--sizes", "1..2", "--sample-premise", "2")
    assert code == 2 and out == ""
    assert err == ("error: abstraction 'P' diverges at #T=1: stable-failures "
                   "refinement requires a divergence-free specification\n")


def test_a_divergent_specification_keeps_its_traces_results(tmp_path, capsys):
    src = tmp_path / "cycle.pcsp"
    src.write_text("channel a\nP = Q\nQ = P\nS = a -> S\n")
    code, out, err = run(capsys, "verify", str(src), "--spec", "P", "--impl", "S",
                         "--model", "traces", "--sizes", "1..2")
    assert code == 1 and err == ""
    assert "#T=2 [theorem] P({0..0}) vs phi(S({0..1})): FAILS with counterexample <a>\n" in out


def test_conditions_report_a_renamed_t_constant(tmp_path, capsys):
    src = tmp_path / "ren.pcsp"
    src.write_text(RENAMED_CONSTANT)
    code, out, _ = run(capsys, "conditions", str(src), "--proc", "Impl")
    assert code == 1
    assert ("  data-independence: fail\n"
            "    (i) [Impl] replicated construct indexed over a set depending on t\n"
            "    (iii) [W] constant 2 of type t\n") in out
    assert "  TypeSym-syntactic: fail\n    (i) [W] constant 2 of type t\n" in out


def test_verify_checks_each_size_when_impl_names_a_t_constant(tmp_path, capsys):
    # TypeSym-syntactic fails, so no build is explored modulo symmetry: the
    # verdict is direct per size, and exit 1 reports the failed condition.
    # The sizes start at 3, where the renamed constant 2 is a value of t.
    src = tmp_path / "ren.pcsp"
    src.write_text(RENAMED_CONSTANT)
    code, out, err = run(capsys, "verify", str(src), "--spec", "S", "--impl", "Impl",
                         "--model", "traces", "--sizes", "3..5")
    assert err == "" and code == 1
    assert "mode: direct-per-size\n" in out
    assert "TypeSym-syntactic: fail\n  (i) [W] constant 2 of type t\n" in out
    for n in (3, 4, 5):
        assert (f"#T={n} [direct] S({{0..{n - 1}}}) vs Impl({{0..{n - 1}}}): "
                "holds\n") in out


@pytest.mark.parametrize("command", [("lts", "--tsize", "1"), ("sslts",),
                                     ("cose", "--tsize", "1")])
@pytest.mark.parametrize("body", ["P = P [] a -> STOP", "P = Q [] a -> STOP\nQ = P"])
def test_recursion_through_an_operator_exits_2_at_once(tmp_path, capsys, body, command):
    src = tmp_path / "grow.pcsp"
    src.write_text(f"channel a\n{body}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], str(src), "--proc", "P", *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: state terms grow without bound ('P' recurses "
                   "through an operator context, which is not supported)\n")


@pytest.mark.parametrize("command", [("lts", "--tsize", "1"), ("sslts",),
                                     ("cose", "--tsize", "1")])
def test_self_recursion_behind_a_conditional_exits_2_at_once(tmp_path, capsys, command):
    src = tmp_path / "grow.pcsp"
    src.write_text("channel a\n"
                   "Q(n) = if n > 0 then (Q(n) [] a -> STOP) else STOP\n"
                   "P = Q(1)\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], str(src), "--proc", "P", *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: state terms grow without bound ('Q' recurses "
                   "through an operator context, which is not supported)\n")


@pytest.mark.parametrize("command", [("sslts",), ("cose", "--tsize", "2"),
                                     ("congruence", "--tsize", "2")])
def test_symbolic_semantics_reject_a_process_outside_seq(tmp_path, capsys, command):
    # an output repeating an input of one construct: the translation
    # semantics found no instance of c2?x:t!x, and congruence reported the
    # two semantics as not bisimilar
    code, out, err = run(capsys, command[0], "ex33.pcsp", "--proc", "SeqVI",
                         *command[1:])
    assert code == 2 and out == ""
    assert err == ("error: process is not in the Seq fragment: input variable "
                   "'x' of type t occurs 2 times in one construct\n")
    # a recursive process is checked once, not again at its own call
    src = tmp_path / "rec.pcsp"
    src.write_text("channel c : t.t\nP = c?x:t!x -> P\n")
    code, out, err = run(capsys, command[0], str(src), "--proc", "P", *command[1:])
    assert code == 2 and out == ""
    assert err == ("error: process is not in the Seq fragment: input variable "
                   "'x' of type t occurs 2 times in one construct\n")


_T_VARIABLE_ARGUMENT = ("channel enterCS, leaveCS : t\n"
                        "Spec = enterCS$i:t -> Inside(i)\n"
                        "Inside(i) = leaveCS!i -> Spec\n")
_CANNOT_UNFOLD = ("cannot unfold Inside(i): the symbolic semantics cannot yet "
                  "pass a symbolic t-variable as an argument")


def test_a_symbolic_t_variable_as_an_argument_is_named(tmp_path, capsys):
    src = tmp_path / "arg.pcsp"
    src.write_text(_T_VARIABLE_ARGUMENT)
    code, out, err = run(capsys, "sslts", str(src), "--proc", "Spec")
    assert code == 2 and out == ""
    assert err == f"error: {_CANNOT_UNFOLD}\n"
    code, out, _ = run(capsys, "verify", str(src), "--spec", "Spec",
                       "--impl", "Spec", "--sizes", "1..2")
    assert code == 0
    assert out.startswith("mode: direct-per-size\n")
    assert "conclusion: hypothesis failure: per-size direct results only\n" in out
    assert (f"caveat: threshold computation failed: {_CANNOT_UNFOLD}, "
            "building the symbolic LTS of Spec\n") in out
    assert "#T=2 [direct] Spec({0..1}) vs Spec({0..1}): holds" in out


@pytest.mark.parametrize("command", [("lts", "--tsize", "1"), ("sslts",),
                                     ("cose", "--tsize", "1")])
def test_mutual_recursion_behind_a_conditional_exits_2_at_once(tmp_path, capsys, command):
    # R passes Q's parameter back unchanged, so the guard holds again
    src = tmp_path / "grow.pcsp"
    src.write_text("channel a\n"
                   "Q(n) = if n > 0 then (R(n) [] a -> STOP) else STOP\n"
                   "R(n) = Q(n)\n"
                   "P = Q(1)\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], str(src), "--proc", "P",
                         "--max-states", "2000", *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: state terms grow without bound ('Q' recurses "
                   "through an operator context, which is not supported)\n")


@pytest.mark.parametrize("body", ["a -> " * 5000 + "STOP",
                                  " [] ".join(["a -> STOP"] * 5000),
                                  "(" * 5000 + "STOP" + ")" * 5000],
                         ids=["prefixes", "choices", "parentheses"])
def test_too_deeply_nested_definition_exits_2(tmp_path, capsys, body):
    src = tmp_path / "deep.pcsp"
    src.write_text(f"channel a\nP = {body}\n")
    code, out, err = run(capsys, "lts", str(src), "--proc", "P", "--tsize", "1")
    assert code == 2 and out == ""
    assert err.endswith("the definition of 'P' nests too deeply\n")
    assert "Traceback" not in err


_SUM = "+".join(["1"] * 9000)


@pytest.mark.parametrize("equations", [
    f"R(n) = if {_SUM} > n then a -> STOP else STOP\nP = R(0)\n",
    f"R(n) = a -> STOP\nP = R({_SUM})\n"], ids=["guard", "argument"])
def test_a_sum_of_9000_terms_builds(tmp_path, capsys, equations):
    # each walk over a data expression (parse, resolve, substitute,
    # evaluate) takes one frame per operator: 12 000 terms nest too deeply
    src = tmp_path / "sum.pcsp"
    src.write_text(f"channel a\n{equations}")
    code, out, err = run(capsys, "lts", str(src), "--proc", "P", "--tsize", "1")
    assert (code, out, err) == (0, "P at #T=1: 3 states, 2 transitions\n", "")


def _deep_body(shape: str, n: int) -> str:
    """An equation body n + 1 terms deep: a chain of n prefixes, or an n-way
    choice (which associates to the left); or n + 1 processes one inside
    the next: STOP in n parentheses."""
    if shape == "parentheses":
        return "(" * n + "STOP" + ")" * n
    return "a -> " * n + "STOP" if shape == "prefixes" else " [] ".join(["a -> STOP"] * n)


@pytest.mark.parametrize("shape", ["prefixes", "choices", "parentheses"])
def test_a_body_at_the_nesting_bound_parses(tmp_path, shape):
    # in a fresh interpreter: below pytest's own frames, the parser of a
    # Python whose frames take C stack overflows near the bound
    src = tmp_path / "deep.pcsp"
    src.write_text(f"channel a\nP = {_deep_body(shape, MAX_DEPTH - 1)}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(pcsp.__file__).parent.parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = "import sys; from pcsp.parser import parse_file; parse_file(sys.argv[1])"
    done = subprocess.run([sys.executable, "-c", probe, str(src)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("shape", ["prefixes", "choices", "parentheses"])
def test_a_body_beyond_the_nesting_bound_exits_2(tmp_path, capsys, shape):
    src = tmp_path / "deep.pcsp"
    src.write_text(f"channel a\nP = {_deep_body(shape, MAX_DEPTH)}\n")
    code, out, err = run(capsys, "lts", str(src), "--proc", "P", "--tsize", "1")
    assert code == 2 and out == ""
    assert err == f"{src}:2:1: the definition of 'P' nests too deeply\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "lts", "nonexistent.pcsp", "--proc", "P",
                       "--tsize", "1")
    assert code == 2 and "no such file" in err


def test_conditions_with_sampled_checks(capsys):
    code, out, _ = run(capsys, "conditions", "copy.pcsp", "--proc", "COPY",
                       "--eqt-model", "traces", "--typesym-sizes", "2,3")
    assert code == 0
    assert "RevPosConjEqT-T: evidence" in out
    assert "TypeSym-semantic: evidence" in out


def test_a_repeated_typesym_size_is_checked_once(capsys):
    code, out, _ = run(capsys, "conditions", "copy.pcsp", "--proc", "COPY",
                       "--typesym-sizes", "3,2,3")
    assert code == 0
    assert "bisimilar to all 8 bijective renamings at sizes {3,2}" in out


def test_a_repeated_premise_size_is_sampled_once(capsys):
    code, out, _ = run(capsys, "verify", "mutex.pcsp", "--spec", "Spec",
                       "--impl", "Impl", "--abst", "Abst", "--valid-from", "3",
                       "--model", "failures", "--sizes", "1..2",
                       "--sample-premise", "3,3")
    assert code == 0
    assert out.count("[premise-sample]") == 1


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "mutex.pcsp", "--spec", "Spec",
                       "--impl", "Impl", "--model", "traces", "--sizes", "2,3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"mode", "model", "B", "thresholds", "conditions",
                            "sizes", "premises", "conclusion", "caveats"}
    assert payload["B"] == 1
    assert all(row["holds"] for row in payload["sizes"])


@pytest.mark.parametrize("argv", [
    ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Nope",
     "--model", "traces", "--sizes", "1..2"),
    ("conditions", "mutex.pcsp", "--proc", "Nope"),
    ("lts", "mutex.pcsp", "--proc", "Nope", "--tsize", "2"),
    ("refine", "mutex.pcsp", "--spec", "Spec", "--impl", "Nope", "--tsize", "2"),
])
def test_undefined_process_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: undefined process 'Nope'\n"


@pytest.mark.parametrize("argv, option", [
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
      "--sizes", "1..x"), "--sizes '1..x'"),
    (("conditions", "copy.pcsp", "--typesym-sizes", "2,a"), "--typesym-sizes '2,a'"),
    # an empty list, or a size below 1, would check nothing or fail later
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
      "--sizes", "3..1"), "--sizes '3..1'"),
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
      "--sizes", ","), "--sizes ','"),
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
      "--sizes", "0..2"), "--sizes '0..2'"),
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
      "--sizes", "1..2", "--eqt-sizes", "0"), "--eqt-sizes '0'"),
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
      "--sizes", "1..2", "--abst", "Abst", "--valid-from", "3",
      "--sample-premise", "0"), "--sample-premise '0'"),
    (("conditions", "copy.pcsp", "--typesym-sizes", "0"), "--typesym-sizes '0'"),
    (("conditions", "copy.pcsp", "--eqt-model", "traces", "--eqt-sizes", ""),
     "--eqt-sizes ''"),
])
def test_bad_sizes_message(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {option}: expected sizes as N..M or N,M,...\n"


@pytest.mark.parametrize("argv, option, value", [
    # a state bound below 1 used to be hit at the root, a premise bound below
    # 1 to be taken on assertion from that size
    (("lts", "mutex.pcsp", "--proc", "Impl", "--tsize", "2", "--max-states", "-5"),
     "--max-states", "-5"),
    (("lts", "mutex.pcsp", "--proc", "Impl", "--tsize", "2", "--max-states", "0"),
     "--max-states", "0"),
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl", "--abst", "Abst",
      "--valid-from", "-3", "--model", "failures", "--sizes", "1..2"), "--valid-from", "-3"),
    (("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl", "--abst", "Abst",
      "--valid-from", "x", "--model", "failures", "--sizes", "1..2"), "--valid-from", "x"),
    # a size below 1 is refused before the file is read
    (("lts", "no-such-file.pcsp", "--proc", "P", "--tsize", "0"), "--tsize", "0"),
    (("cose", "mutex.pcsp", "--proc", "Spec", "--tsize", "-1"), "--tsize", "-1"),
])
def test_a_bound_not_a_positive_integer_is_a_usage_error(capsys, argv, option, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: pcsp ")
    assert err.endswith(f": error: argument {option}: expected an integer of at least 1, "
                        f"got '{value}'\n")


def test_verify_names_the_build_that_hits_the_bound(tmp_path, capsys):
    # the mutant's reduced builds of Impl have 79, 159 and 279 states at
    # #T=3..5, so the fifth size is the first over the bound: sizes 1..4 are
    # decided, each of 5..8 is an error row naming the bound and the build,
    # and the exit code is 2
    code, out, err = run(capsys, "verify", str(symmetric_mutant(tmp_path)),
                         "--spec", "Spec", "--impl", "Impl", "--model", "failures",
                         "--sizes", "1..8", "--max-states", "200")
    assert code == 2 and err == ""
    rows = [line for line in out.splitlines() if line.startswith("#T=")]
    assert len(rows) == 8
    assert all(": FAILS with counterexample " in row for row in rows[:4])
    for n, row in zip((5, 6, 7, 8), rows[4:]):
        assert row.startswith(
            f"#T={n} [theorem] Spec({{0..1}}) vs phi(Impl({{0..{n - 1}}})): "
            f"error: state bound (200) exceeded building Impl at #T={n}: ")


def test_verify_names_the_premise_sample_build_that_hits_the_bound(tmp_path, capsys):
    # the reduced builds of the mutant's Impl have 79 states at #T=3 and
    # more at #T=4 and 5: the first premise sample fails, the other two are
    # error rows naming the bound and the build, and the exit code is 2
    code, out, err = run(capsys, "verify", str(symmetric_mutant(tmp_path)),
                         "--spec", "Spec", "--impl", "Impl", "--abst", "Spec",
                         "--valid-from", "2", "--model", "traces", "--sizes", "1",
                         "--sample-premise", "3,4,5", "--max-states", "100")
    assert code == 2 and err == ""
    rows = [line for line in out.splitlines()
            if line.startswith("premise ") and "[premise-sample]" in line]
    assert rows[0] == ("premise Spec({0..1}) vs phi(Impl({0..2})) [premise-sample]: "
                       "FAILS with counterexample <enterCS.0, enterCS.1>")
    for n, row in zip((4, 5), rows[1:]):
        assert row.startswith(
            f"premise Spec({{0..1}}) vs phi(Impl({{0..{n - 1}}})) [premise-sample]: "
            f"error: state bound (100) exceeded building Impl at #T={n}: ")
    assert len(rows) == 3
    assert "#T=1 [direct] Spec({0..0}) vs Impl({0..0}): holds\n" in out
    assert "conclusion: abstraction check failed: no universal conclusion\n" in out


@pytest.mark.parametrize("argv, error", [
    # mutex's Impl has 12 states at #T=1, 34 at #T=2 and 90 at #T=3: the
    # third size is the first over the bound
    (("mutex.pcsp", "--proc", "Impl", "--typesym-sizes", "1..3", "--max-states", "40"),
     "state bound (40) exceeded building Impl at #T=3: (Node(0) ||| CS(1) ||| "
     "Node(2)) [|{|getToken, returnToken|}|] returnToken?j:t -> Controller "
     "\\ {|getToken, returnToken|}"),
    # ex512's Impl ranges |~| v:(t\{u}) over nothing at #T=1
    (("ex512.pcsp", "--proc", "Impl", "--typesym-sizes", "1"),
     "replicated internal choice over an empty index set, building Impl at #T=1"),
])
def test_typesym_sizes_names_the_build_that_stops(capsys, argv, error):
    code, out, err = run(capsys, "conditions", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("argv, error", [
    # the threshold's symbolic build of mutex's Spec has 3 states
    (("threshold", "mutex.pcsp", "--spec", "Spec", "--max-states", "2"),
     "state bound (2) exceeded building the symbolic LTS of Spec: Spec"),
    # verify samples the equality-test hypothesis first; its first build,
    # a negative branch of P's conditionals at #T=2, has more than 5 states
    (("verify", "traces-count.pcsp", "--spec", "P", "--impl", "P", "--model", "traces",
      "--sizes", "2", "--max-states", "5"),
     "state bound (5) exceeded building the negative equality-test branch of P "
     "at #T=2: STOP"),
])
def test_threshold_and_sampler_name_the_build_that_hits_the_bound(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


def test_verify_reports_a_failed_build_as_its_own_row(capsys):
    # Impl's |~| v:(t\{u}) ranges over nothing at #T=1, the first direct
    # size: that size's row names the build, the other sizes are decided,
    # and the exit code is 2
    argv = ("verify", "ex512.pcsp", "--spec", "Spec", "--impl", "Impl",
            "--sizes", "1..4")
    error = ("replicated internal choice over an empty index set, "
             "building Impl at #T=1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    rows = [line for line in out.splitlines() if line.startswith("#T=")]
    assert rows == [f"#T=1 [direct] Spec({{0..0}}) vs Impl({{0..0}}): error: {error}"] + [
        f"#T={n} [direct] Spec({{0..{n - 1}}}) vs Impl({{0..{n - 1}}}): holds"
        for n in (2, 3, 4)]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and err == ""
    sizes = json.loads(out)["sizes"]
    assert sizes[0] == {"n": 1, "lhs": "Spec({0..0})", "rhs": "Impl({0..0})",
                        "method": "direct", "error": error}
    assert [(r["n"], r["holds"]) for r in sizes[1:]] == [(2, True), (3, True), (4, True)]


def test_internal_error_exit_code(capsys, monkeypatch):
    # an internal KeyError is a bug, not a diagnostic: exit 3 with the traceback
    def broken(*args, **kwargs):
        raise KeyError("missing table entry")

    monkeypatch.setattr(std_semantics, "build_lts", broken)
    code, out, err = run(capsys, "lts", "mutex.pcsp", "--proc", "Spec", "--tsize", "2")
    assert code == 3 and out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert "KeyError: 'missing table entry'" in err
    assert err.endswith("internal error: KeyError (a bug in pcsp; "
                        "the traceback is above)\n")


@pytest.mark.parametrize("argv", [
    ("lts", "mutex.pcsp", "--proc", "Spec", "--tsize", "2"),
    ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl", "--sizes", "1..2"),
])
def test_running_out_of_memory_is_an_error_not_a_bug(capsys, monkeypatch, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(std_semantics.StateGraph, "intern_root", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def _argparse(argv):
    """The arguments argparse reads from argv, or the exit code, stdout and
    stderr with which it exits instead."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(make_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nosuch"], ["--format", "json", "lts"],
    ["conditions", "mutex.pcsp", "--bogus"],  # the top-level usage names every command
    *([name, "--help"] for name in _SUBCOMMANDS),
    *([name] for name in _SUBCOMMANDS),  # a missing argument
])
def test_one_sub_parser_prints_what_all_of_them_do(argv, capsys):
    # each line is left to argparse, and main prints and exits as the parser
    # of every sub-command does: a sub-command's help and usage, and the
    # top-level usage that lists every command
    assert _read(argv) is None
    assert run(capsys, *argv) == _argparse(argv)


_VALUES = st.sampled_from(["1", "3", "1..4", "2,3", "Spec", "traces", "failures",
                           "json", "text", "", "0", "-1", "+2", " 4", "x", "1.5",
                           "-", "--", "-h", "--proc", "a b"])


@st.composite
def _command_lines(draw, well_formed):
    """An argv for a command of the table: the command, its file and its
    options in any order, each option with a value of its type and among
    its choices.  Unless well_formed, one or two of its parts are then
    spoilt: a value replaced or dropped, an option abbreviated, written
    with '=', given twice or left out, or help, '--', an unknown option or
    a second file added."""
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    parts = [[draw(st.sampled_from(["mutex.pcsp", "x.pcsp", "verify"]))]]
    for flag, kwargs in _COMMON + _SUBCOMMANDS[command][2]:
        if "action" in kwargs:
            value = []
        elif "choices" in kwargs:
            value = [draw(st.sampled_from(kwargs["choices"]))]
        elif "type" in kwargs:
            value = [str(draw(st.integers(1, 9)))]
        else:
            value = [draw(st.sampled_from(["P", "1..3", "2,3"]))]
        if kwargs.get("required") or draw(st.booleans()):
            parts.append([flag] + value)
    for _ in range(0 if well_formed else draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(parts) - 1))
        flag, *value = parts[i]
        how = draw(st.sampled_from(["value", "value", "no value", "short", "equals",
                                    "twice", "drop", "add"]))
        if how == "value":
            parts[i] = [flag, draw(_VALUES)]
        elif how == "no value":
            parts[i] = [flag]
        elif how == "short" and len(flag) > 3:
            parts[i] = [flag[:draw(st.integers(3, len(flag) - 1))]] + value
        elif how == "equals":
            parts[i] = ["=".join(parts[i])]
        elif how == "twice":
            parts.append([flag, draw(_VALUES)])
        elif how == "drop":
            del parts[i]
        else:
            parts.append([draw(st.sampled_from(
                ["-h", "--help", "--", "--bogus", "extra.pcsp", "-5"]))])
    parts = draw(st.permutations(parts))
    return [command] + [word for part in parts for word in part]


@settings(max_examples=500, deadline=None)
@given(st.one_of(_command_lines(False),
                 st.lists(_VALUES | st.sampled_from(list(_SUBCOMMANDS)), max_size=4)))
@example(["lts", "mutex.pcsp", "--proc", "P", "--tsize"])  # a value missing at the end
@example(["refine", "mutex.pcsp", "--spec", "Spec", "--tsize", "2"])  # no --impl
@example(["lts", "mutex.pcsp", "--tsize", "2", "--proc", "-h"])  # a value that is help
def test_the_table_reader_reads_what_argparse_reads_or_leaves_it(argv):
    got = _read(argv)
    assert got is None or vars(got) == _argparse(argv)


@settings(max_examples=100, deadline=None)
@given(_command_lines(True))
def test_the_table_reader_reads_every_well_formed_line(argv):
    got = _read(argv)
    assert got is not None and vars(got) == _argparse(argv)


def _benchmark_command_lines():
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    return [inv.argv for invs in workloads["WORKLOADS"].values() for inv in invs] + [
        inv.argv for inv in workloads["BASELINE"]]


@pytest.mark.parametrize("argv", [argv for argv, _ in CASES.values()]
                         + _benchmark_command_lines())
def test_golden_and_benchmark_lines_are_read_without_argparse(argv):
    got = _read(list(argv))
    assert got is not None and vars(got) == _argparse(list(argv))


def test_a_well_formed_run_loads_no_argparse():
    probe = ("import sys; from pcsp.cli import main; "
             "codes = [main(argv.split()) for argv in sys.argv[1:]]; "
             "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(pcsp.__file__).parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", probe,
         "verify mutex.pcsp --spec Spec --impl Impl --model failures --sizes 1..3",
         "conditions copy.pcsp --proc COPY --eqt-model traces --eqt-sizes 2",
         "congruence running.pcsp --proc P --tsize 2",
         "refine ex511.pcsp --spec Spec --impl Impl --model failures --tsize 3"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 1] []"


@pytest.mark.parametrize("extra, error", [
    # --abst was ignored when the hypotheses failed, and otherwise failed
    # after the thresholds naming valid_from
    (("--abst", "Abst"),
     "--abst needs --valid-from, the size from which the abstraction premise holds"),
    (("--valid-from", "3"), "--valid-from needs --abst"),
    (("--sample-premise", "3,4"), "--sample-premise needs --abst"),
    (("--valid-from", "3", "--sample-premise", "3"), "--valid-from needs --abst"),
])
def test_verify_checks_its_option_pairing_before_any_build(capsys, monkeypatch,
                                                           extra, error):
    def forbidden(*args, **kwargs):
        raise AssertionError("verify_pmcp ran")

    monkeypatch.setattr(reduction, "verify_pmcp", forbidden)
    code, out, err = run(capsys, "verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl",
                         "--sizes", "1..2", *extra)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("sizes", ["2,3", "0"])
def test_eqt_sizes_without_eqt_model_is_a_usage_error(capsys, sizes):
    code, out, err = run(capsys, "conditions", "copy.pcsp", "--eqt-sizes", sizes)
    assert (code, out, err) == (2, "", "error: --eqt-sizes needs --eqt-model\n")


@pytest.mark.parametrize("argv", [
    ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl", "--model", "failures",
     "--sizes", "1..7"),
    ("verify", "mutex.pcsp", "--spec", "Spec", "--impl", "Impl", "--abst", "Abst",
     "--valid-from", "3", "--model", "failures", "--sizes", "1..4",
     "--sample-premise", "3,4,5"),
    ("refine", "ex511.pcsp", "--spec", "Spec", "--impl", "Impl", "--model", "failures",
     "--tsize", "3"),
    ("congruence", "traces-count.pcsp", "--proc", "P", "--tsize", "4"),
    ("threshold", "mutex.pcsp", "--spec", "Spec", "--model", "failures"),
    ("lts", "mutex.pcsp", "--proc", "Impl", "--tsize", "3"),
])
def test_checks_build_no_state_term(argv, capsys, monkeypatch):
    # only a printed LTS (--dot) reads the states as terms; the symbolic
    # graph's term is StateGraph.term too
    def forbidden(*args):
        raise AssertionError("a check built a state term")

    monkeypatch.setattr(std_semantics.StateGraph, "term", forbidden)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
