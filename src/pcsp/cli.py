"""Command-line entry point.

Subcommands: ``conditions``, ``lts``, ``sslts``, ``cose``, ``congruence``,
``refine``, ``threshold``, ``verify``.  Exit code 0 means every requested
check passed, 1 means a check failed (with a counterexample where one
exists), 2 means a usage error, a diagnostic or running out of memory, and
3 means an internal error (a bug in pcsp), reported with its traceback on
stderr.  Paths that do not exist are resolved against the bundled corpus,
so ``pcsp refine mutex.pcsp ...`` works out of the box.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, conditions, cose, reduction, ssos, std_semantics
from .errors import ParseError, PcspError, UsageError
from .parser import parse_file

CORPUS_DIR = Path(__file__).parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    candidate = corpus_path(path)
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such file: {path}")


def _sizes(spec: str, option: str) -> list[int]:
    """The sizes an option lists, each once, in order: at least one, each at least 1."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            sizes = list(range(int(lo), int(hi) + 1))
        else:
            sizes = [int(part) for part in spec.split(",") if part]
    except ValueError:
        sizes = []
    if min(sizes, default=0) < 1:
        raise UsageError(f"{option} {spec!r}: expected sizes as N..M or N,M,...")
    return list(dict.fromkeys(sizes))


def _bound(text: str) -> int:
    """The value of --tsize, --max-states or --valid-from: an integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        import json  # only on this path: it adds to every start-up
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def make_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the sub-command that argv[0] names, or of every
    sub-command when it names none, so that --help and a wrong command
    list them all.  Building one sub-parser is most of the start-up of
    argparse; the usage line still names every command."""
    ap = argparse.ArgumentParser(
        prog="pcsp",
        description="Parameterised verification for a CSP subset: operational "
        "semantics, refinement checking, and type-reduction thresholds.")
    if argv and argv[0] in _SUBCOMMANDS:
        names, metavar = argv[:1], "{" + ",".join(_SUBCOMMANDS) + "}"
    else:
        names, metavar = list(_SUBCOMMANDS), None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, help_text, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="definition file (.pcsp); bundled corpus "
                       "names are resolved automatically")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-states", type=_bound,
                       default=std_semantics.DEFAULT_MAX_STATES)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return ap


def _fmt_verdict(v) -> str:
    if v.holds:
        return "holds"
    return f"FAILS with counterexample {v.counterexample_str()}"


def _fmt_row(r) -> str:
    return f"error: {r.error}" if r.error else _fmt_verdict(r.verdict)


def cmd_conditions(args, defs) -> int:
    names = [args.proc] if args.proc else sorted(defs.equations)
    reports = {}
    failed = False
    for name in names:
        rs = conditions.check_all(name, defs)
        if args.eqt_model:
            rs.append(conditions.revposconjeqt_evidence(
                name, defs, args.eqt_model,
                tuple(_sizes(args.eqt_sizes, "--eqt-sizes")),
                args.max_states))
        if args.typesym_sizes:
            rs.append(analysis.permutation_bisim_check(
                defs, name, _sizes(args.typesym_sizes, "--typesym-sizes"),
                args.max_states))
        reports[name] = rs
        failed = failed or any(r.verdict == "fail" for r in rs)
    payload = {n: [r.to_dict() for r in rs] for n, rs in reports.items()}
    text_lines = []
    for n, rs in reports.items():
        text_lines.append(f"== {n}")
        for r in rs:
            text_lines.append("  " + r.render().replace("\n", "\n  "))
    _emit(args, payload, "\n".join(text_lines))
    return 1 if failed else 0


def _print_dot(lts, name: str) -> None:
    from .dot import lts_to_dot  # only on this path: hashlib adds to every start-up
    print(lts_to_dot(lts, name), end="")


def cmd_lts(args, defs) -> int:
    lts = std_semantics.build_lts(defs, args.proc, args.tsize, args.max_states,
                                  terms=args.dot)
    if args.dot:
        _print_dot(lts, "lts")
        return 0
    _emit(args, {"proc": args.proc, "tsize": args.tsize,
                 "states": lts.n_states(), "edges": lts.n_edges()},
          f"{args.proc} at #T={args.tsize}: {lts.n_states()} states, "
          f"{lts.n_edges()} transitions")
    return 0


def cmd_sslts(args, defs) -> int:
    s = ssos.build_sslts(defs, args.proc, args.max_states, terms=args.dot)
    if args.dot:
        _print_dot(s, "sslts")
        return 0
    _emit(args, {"proc": args.proc, "states": s.n_states(), "edges": s.n_edges()},
          f"{args.proc}: {s.n_states()} symbolic states, "
          f"{s.n_edges()} symbolic transitions")
    return 0


def cmd_cose(args, defs) -> int:
    lts = cose.concretize(defs, args.proc, args.tsize, max_states=args.max_states,
                          terms=args.dot)
    if args.dot:
        _print_dot(lts, "cose")
        return 0
    _emit(args, {"proc": args.proc, "tsize": args.tsize,
                 "states": lts.n_states(), "edges": lts.n_edges()},
          f"{args.proc} at #T={args.tsize}: {lts.n_states()} configurations, "
          f"{lts.n_edges()} transitions")
    return 0


def cmd_congruence(args, defs) -> int:
    std = std_semantics.build_lts(defs, args.proc, args.tsize, args.max_states)
    sym = cose.concretize(defs, args.proc, args.tsize, max_states=args.max_states)
    ok, formula = analysis.strong_bisim(std, sym)
    payload = {"proc": args.proc, "tsize": args.tsize, "bisimilar": ok}
    if not ok:
        payload["distinguished_by"] = formula
    _emit(args, payload,
          f"standard and environment semantics of {args.proc} at "
          f"#T={args.tsize}: "
          + ("strongly bisimilar" if ok else f"NOT bisimilar ({formula})"))
    return 0 if ok else 1


def cmd_refine(args, defs) -> int:
    engine = std_semantics.Engine(defs)
    lhs = std_semantics.build_lts(defs, args.spec, args.tsize, args.max_states,
                                  unfold_calls=False, engine=engine)
    rhs = std_semantics.build_lts(defs, args.impl, args.tsize, args.max_states,
                                  unfold_calls=False, engine=engine)
    verdict = analysis.refines(lhs, rhs, args.model)
    op = "[T=" if args.model == "traces" else "[F="
    payload = {"spec": args.spec, "impl": args.impl, "model": args.model,
               "tsize": args.tsize}
    payload.update(verdict.to_dict())
    _emit(args, payload,
          f"{args.spec} {op} {args.impl} at #T={args.tsize}: "
          + _fmt_verdict(verdict))
    return 0 if verdict.holds else 1


def cmd_threshold(args, defs) -> int:
    report = reduction.compute_thresholds(defs, args.spec, args.model,
                                          args.max_states)
    value = report.traces if args.model == "traces" else report.failures
    lines = [f"B = {value} ({args.model} model threshold of {args.spec})"]
    if report.traces_witness:
        lines.append("traces witness: " + report.traces_witness.render())
    if args.model == "failures" and report.failures_witness:
        lines.append("failures witness: " + report.failures_witness)
    _emit(args, {"spec": args.spec, "model": args.model, "B": value,
                 "thresholds": report.to_dict()}, "\n".join(lines))
    return 0


def cmd_verify(args, defs) -> int:
    verdict = reduction.verify_pmcp(
        defs, args.spec, args.impl, args.model, _sizes(args.sizes, "--sizes"),
        abst=args.abst, valid_from=args.valid_from,
        premise_sizes=(_sizes(args.sample_premise, "--sample-premise")
                       if args.sample_premise else []),
        eqt_sizes=tuple(_sizes(args.eqt_sizes, "--eqt-sizes")),
        assume_typesym=args.assume_typesym, max_states=args.max_states)
    lines = [f"mode: {verdict.mode}", f"model: {verdict.model}"]
    if verdict.bound is not None:
        lines.append(f"B = {verdict.bound}")
    for c in verdict.conditions:
        lines.append(c.render())
    for r in verdict.premises:
        lines.append(f"premise {r.lhs} vs {r.rhs} [{r.method}]: " + _fmt_row(r))
    for r in verdict.sizes:
        lines.append(f"#T={r.n} [{r.method}] {r.lhs} vs {r.rhs}: " + _fmt_row(r))
    lines.append("conclusion: " + verdict.conclusion)
    for c in verdict.caveats:
        lines.append("caveat: " + c)
    _emit(args, verdict.to_dict(), "\n".join(lines))
    if any(r.error for r in verdict.premises + verdict.sizes):
        return 2
    return 0 if verdict.holds() else 1


_MODEL = {"choices": ("traces", "failures"), "default": "traces"}
_REQUIRED = {"required": True}
_TSIZE = {"type": _bound, "required": True}
_DOT = {"action": "store_true"}

# sub-command -> (its handler, its help, its options after the file,
# --format and --max-states that every one takes), in the order --help
# lists them
_SUBCOMMANDS = {
    "conditions": (cmd_conditions, "run the syntactic condition checkers", (
        ("--proc", {"help": "check one process (default: all)"}),
        ("--eqt-model", {"choices": ("traces", "failures"),
                         "help": "also sample the equality-test condition in this model"}),
        ("--eqt-sizes", {"default": "2,3"}),
        ("--typesym-sizes", {"help": "also sample semantic symmetry in t at these sizes"}),
    )),
    "lts": (cmd_lts, "build the concrete transition system", (
        ("--proc", _REQUIRED), ("--tsize", _TSIZE), ("--dot", _DOT))),
    "sslts": (cmd_sslts, "build the semi-symbolic transition system", (
        ("--proc", _REQUIRED), ("--dot", _DOT))),
    "cose": (cmd_cose, "instantiate the symbolic system at a size", (
        ("--proc", _REQUIRED), ("--tsize", _TSIZE), ("--dot", _DOT))),
    "congruence": (cmd_congruence,
                   "check the two concrete semantics are strongly bisimilar", (
                       ("--proc", _REQUIRED), ("--tsize", _TSIZE))),
    "refine": (cmd_refine, "check a refinement at one size", (
        ("--spec", _REQUIRED), ("--impl", _REQUIRED), ("--model", _MODEL),
        ("--tsize", _TSIZE))),
    "threshold": (cmd_threshold, "compute the specification threshold", (
        ("--spec", _REQUIRED), ("--model", _MODEL))),
    "verify": (cmd_verify, "run the full reduction pipeline", (
        ("--spec", _REQUIRED), ("--impl", _REQUIRED), ("--model", _MODEL),
        ("--sizes", {"required": True, "help": "e.g. 1..4 or 2,3"}),
        ("--abst", {"help": "abstraction process for the universal conclusion"}),
        ("--valid-from", {"type": _bound,
                          "help": "size from which the abstraction premise holds"}),
        ("--sample-premise", {"default": "",
                              "help": "sizes at which to sample the abstraction premise"}),
        ("--eqt-sizes", {"default": "2,3"}),
        ("--assume-typesym", {"action": "store_true",
                              "help": "accept symmetry in t of the implementation on "
                              "assertion when the syntactic check fails"}),
    )),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = make_parser(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        defs = parse_file(_resolve(args.file))
        return _SUBCOMMANDS[args.command][0](args, defs)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(d.render(), file=sys.stderr)
        return 2
    except (PcspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only on this path: it adds to every start-up
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__} (a bug in pcsp; "
              "the traceback is above)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
