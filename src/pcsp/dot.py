"""DOT export of transition systems.

Node identifiers are short hashes of each state's index and label, so
identical invocations produce byte-identical files; edge labels use the
same notation as the pretty printer ($, ?, !, conditions, τ).
"""

from __future__ import annotations

import hashlib

from .cose import Configuration
from .lts import Lts
from .pretty import fmt_term


def _node_id(key_repr: str) -> str:
    return "n" + hashlib.sha1(key_repr.encode("utf-8")).hexdigest()[:10]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render(name: str, node_ids, node_labels, root, edge_rows) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    lines.append(f"  {node_ids[root]} [label={_quote(node_labels[root])}, penwidth=2];")
    for i, nid in enumerate(node_ids):
        if i == root:
            continue
        lines.append(f"  {nid} [label={_quote(node_labels[i])}];")
    for src, label, tgt in edge_rows:
        lines.append(f"  {node_ids[src]} -> {node_ids[tgt]} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lts_to_dot(lts: Lts, name: str = "lts") -> str:
    labels = []
    for payload in lts.states:
        if isinstance(payload, Configuration):
            labels.append(payload.describe())
        else:
            labels.append(fmt_term(payload))
    ids = [_node_id(f"{i}:{lab}") for i, lab in enumerate(labels)]
    rows = [(src, str(lab), tgt)
            for src in range(lts.n_states()) for lab, tgt, _ in lts.edges[src]]
    return _render(name, ids, labels, lts.root, rows)

