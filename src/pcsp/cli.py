"""Command-line entry point.

Subcommands: ``conditions``, ``lts``, ``sslts``, ``cose``, ``congruence``,
``refine``, ``threshold``, ``verify``.  Exit code 0 means every requested
check passed, 1 means a check failed (with a counterexample where one
exists), 2 means a usage error, a diagnostic or running out of memory, and
3 means an internal error (a bug in pcsp), reported with its traceback on
stderr.  Paths that do not exist are resolved against the bundled corpus,
so ``pcsp refine mutex.pcsp ...`` works out of the box.

A well-formed command line (the command, its file, and exact ``--option
value`` pairs and flags with valid values) is read straight from the
``_SUBCOMMANDS`` table.  argparse reads every other line: it prints
``--help`` and every usage error, and is imported only then, since it and
the gettext and locale it loads are a large share of a short run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

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


def _positive(text: str) -> int:
    """The integer that text spells if it is at least 1, else 0."""
    try:
        value = int(text)
    except ValueError:
        return 0
    return value if value >= 1 else 0


def _bound(text: str) -> int:
    """The value of --tsize, --max-states or --valid-from: an integer, at least 1."""
    value = _positive(text)
    if not value:
        import argparse  # loaded already: only argparse calls this
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        import json  # only on this path: it adds to every start-up
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def make_parser():
    """The parser of every sub-command, for the command lines that _read
    leaves to argparse: --help and every usage error."""
    import argparse  # only on this path: with gettext and locale, it adds to every start-up
    ap = argparse.ArgumentParser(
        prog="pcsp",
        description="Parameterised verification for a CSP subset: operational "
        "semantics, refinement checking, and type-reduction thresholds.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="definition file (.pcsp); bundled corpus "
                       "names are resolved automatically")
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
    return ap


def _read(argv) -> SimpleNamespace | None:
    """The arguments of a well-formed command line, read from the table as
    argparse would read them: the command, one file, and in any order
    exact ``--option value`` pairs and flags, each value of its type and
    among its choices, every required option given.  None for any other
    line (help, an abbreviation, ``--option=value``, a value that starts
    with '-', a bad value, a missing or extra argument), which argparse
    then reads and reports."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options = dict(_COMMON + _SUBCOMMANDS[argv[0]][2])
    words = iter(argv[1:])
    file, given = None, {}
    for word in words:
        kwargs = options.get(word)
        if kwargs is None:
            if word.startswith("-") or file is not None:
                return None
            file = word
        elif kwargs.get("action") == "store_true":
            given[word] = True
        else:
            text = next(words, "-")
            if text.startswith("-"):
                return None
            value = text
            if kwargs.get("type") is _bound:
                value = _positive(text)
                if not value:
                    return None
            if value not in kwargs.get("choices", (value,)):
                return None
            given[word] = value
    if file is None or any(kwargs.get("required") and flag not in given
                           for flag, kwargs in options.items()):
        return None
    args = SimpleNamespace(command=argv[0], file=file)
    for flag, kwargs in options.items():
        default = kwargs.get("default", False if "action" in kwargs else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _fmt_verdict(v) -> str:
    if v.holds:
        return "holds"
    return f"FAILS with counterexample {v.counterexample_str()}"


def _fmt_row(r) -> str:
    return f"error: {r.error}" if r.error else _fmt_verdict(r.verdict)


def cmd_conditions(args, defs) -> int:
    if args.eqt_sizes is not None and args.eqt_model is None:
        raise UsageError("--eqt-sizes needs --eqt-model")
    eqt_sizes = (conditions.EQT_SIZES if args.eqt_sizes is None
                 else tuple(_sizes(args.eqt_sizes, "--eqt-sizes")))
    typesym_sizes = (None if args.typesym_sizes is None
                     else _sizes(args.typesym_sizes, "--typesym-sizes"))
    names = [args.proc] if args.proc else sorted(defs.equations)
    reports = {}
    failed = False
    for name in names:
        rs = conditions.check_all(name, defs)
        if args.eqt_model:
            rs.append(conditions.revposconjeqt_evidence(
                name, defs, args.eqt_model, eqt_sizes, args.max_states))
        if typesym_sizes:
            rs.append(analysis.permutation_bisim_check(
                defs, name, typesym_sizes, args.max_states))
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
    if args.abst is not None and args.valid_from is None:
        raise UsageError("--abst needs --valid-from, the size from which the "
                         "abstraction premise holds")
    for flag, value in (("--valid-from", args.valid_from),
                        ("--sample-premise", args.sample_premise)):
        if value is not None and args.abst is None:
            raise UsageError(f"{flag} needs --abst")
    verdict = reduction.verify_pmcp(
        defs, args.spec, args.impl, args.model, _sizes(args.sizes, "--sizes"),
        abst=args.abst, valid_from=args.valid_from,
        premise_sizes=(() if args.sample_premise is None
                       else _sizes(args.sample_premise, "--sample-premise")),
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

# the options that every sub-command takes after its file
_COMMON = (("--format", {"choices": ("text", "json"), "default": "text"}),
           ("--max-states", {"type": _bound, "default": std_semantics.DEFAULT_MAX_STATES}))

# sub-command -> (its handler, its help, its options after the file and
# _COMMON), in the order --help lists them
_SUBCOMMANDS = {
    "conditions": (cmd_conditions, "run the syntactic condition checkers", (
        ("--proc", {"help": "check one process (default: all)"}),
        ("--eqt-model", {"choices": ("traces", "failures"),
                         "help": "also sample the equality-test condition in this model"}),
        ("--eqt-sizes", {}),  # 2,3 with --eqt-model
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
        ("--sample-premise", {"help": "sizes at which to sample the abstraction premise"}),
        ("--eqt-sizes", {"default": ",".join(map(str, conditions.EQT_SIZES))}),
        ("--assume-typesym", {"action": "store_true",
                              "help": "accept symmetry in t of the implementation on "
                              "assertion when the syntactic check fails"}),
    )),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = make_parser().parse_args(argv)
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
