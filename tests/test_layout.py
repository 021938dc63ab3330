"""Layout guard for the shipped package: every function, method and class in
``src/pcsp`` is named somewhere in the package besides its own definition,
and every imported name is used by the module that imports it, in the
package and in its tests.  Code that
only tests reach belongs under ``tests/``.  Start-up loads no module that
only code generation, DOT or JSON output needs.  The term classes are the
process terms of the language, and no more."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

from pcsp import syntax

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "pcsp"


def _modules(where: Path = PACKAGE) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p))
            for p in sorted(where.glob("*.py"))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _used_names(tree: ast.AST) -> Counter:
    """Identifiers read as a bare name or an attribute, and the strings of
    an ``__all__`` list."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            out.update(elt.value for elt in node.value.elts)
    return out


def test_every_definition_is_named_elsewhere_in_the_package():
    modules = _modules()
    used = Counter()
    for tree in modules.values():
        used.update(_used_names(tree))
    # a name that only its own body reads (a recursive call) is dead too
    dead = [f"{mod}:{node.lineno} {node.name}"
            for mod, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not _is_dunder(node.name)
            and used[node.name] <= _used_names(node)[node.name]]
    assert not dead, "defined but never named in src/pcsp: " + ", ".join(dead)


def test_every_import_is_used_by_its_module():
    unused = []
    for where in (PACKAGE, TESTS):
        for mod, tree in _modules(where).items():
            used = _used_names(tree)
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if not used[name]:
                        unused.append(f"{where.name}/{mod}:{node.lineno} {name}")
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_start_up_loads_no_code_generation_or_hashing():
    """Record classes come from ``pcsp.record``, not ``dataclasses`` (whose
    per-class ``exec`` and its import of ``inspect`` dominated start-up),
    ``hashlib`` is loaded only by ``--dot`` and ``json`` only by ``--format
    json``."""
    users = [f"{mod}:{node.lineno}" for mod, tree in _modules().items()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert not users, "imports dataclasses: " + ", ".join(users)
    probe = ("import sys; before = set(sys.modules); import pcsp.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "pcsp.cli" in loaded
    unwanted = {"dataclasses", "inspect", "hashlib", "json"} & set(loaded)
    assert not unwanted, f"import pcsp.cli loads {sorted(unwanted)}"


def test_the_subterm_table_holds_exactly_the_process_terms():
    # a kind of state-graph node (a vector, say) is no term class: every
    # class the subterm table walks is a member of ProcessTerm, and back
    assert set(syntax._SUBTERM_FIELDS) == set(typing.get_args(syntax.ProcessTerm))
