"""State and edge counts of the standard semantics on the corpus.

``golden/lts-counts.txt`` holds one line per closed corpus equation at
#T = 1..4, plus mutex ``Impl`` at 5..7: ``file equation n states edges``,
or ``file equation n error: message`` where the build is rejected.  It was
recorded with the term-as-state builder, before the hash-consed state
graph replaced it, so any change of the state space shows here.  To
re-record after a deliberate change:

    PYTHONPATH=src python tests/test_lts_counts.py
"""

from __future__ import annotations

from pathlib import Path

from pcsp.cli import CORPUS_DIR
from pcsp.errors import PcspError
from pcsp.parser import parse_file
from pcsp.std_semantics import build_lts

GOLDEN = Path(__file__).parent / "golden" / "lts-counts.txt"


def _cases():
    for path in sorted(CORPUS_DIR.glob("*.pcsp")):
        defs = parse_file(path)
        for name in sorted(defs.equations):
            if not defs.equations[name].params:
                for n in range(1, 5):
                    yield path.name, defs, name, n
            if path.name == "mutex.pcsp" and name == "Impl":
                for n in range(5, 8):
                    yield path.name, defs, name, n


def count_lines() -> list[str]:
    lines = []
    for fname, defs, name, n in _cases():
        try:
            lts = build_lts(defs, name, n)
        except PcspError as exc:
            lines.append(f"{fname} {name} {n} error: {exc}")
        else:
            lines.append(f"{fname} {name} {n} {lts.n_states()} {lts.n_edges()}")
    return lines


def test_corpus_state_counts_unchanged():
    assert count_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(count_lines()) + "\n")
