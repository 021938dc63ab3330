"""Decision procedures over finite LTSs: divergence-freedom, normalisation
of a specification, refinement in the traces and stable-failures models,
strong bisimulation with distinguishing formulas, and the semantic symmetry
check."""

from __future__ import annotations

import itertools
import math
from collections import deque
from operator import add
from typing import Callable, Optional

from .errors import SemanticsError
from .lts import Event, Lts, TAU, label_key, rename_lts, tau_closure
from .record import record
from .report import ConditionReport, Finding
from .syntax import permute_t


# ---------------------------------------------------------------------------
# Normalisation (τ-closure subset construction with acceptance sets)

@record
class NormalisedSpec:
    """Deterministic automaton over visible events obtained by τ-closure
    subset construction, annotated per node with its minimal acceptance sets
    and a divergence flag."""

    nodes: list[frozenset[int]]
    trans: list[dict[Event, int]]
    acceptances: list[tuple[frozenset[Event], ...]]
    divergent: list[bool]
    root: int = 0


def _minimal_sets(sets) -> tuple[frozenset, ...]:
    uniq = sorted(set(sets), key=lambda s: (len(s), sorted(map(label_key, s))))
    out = []
    for s in uniq:
        if not any(t < s for t in out):
            out.append(s)
    return tuple(out)


def _divergent_states(lts: Lts) -> frozenset[int]:
    """States lying on or reaching a τ-cycle via τ steps: what remains once
    the states with no τ edge to a remaining state are peeled off, one at a
    time, from the τ-terminal ones backwards."""
    n = lts.n_states()
    out_degree = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, es in enumerate(lts.edges):
        for lab, tgt, _ in es:
            if lab is TAU:
                out_degree[s] += 1
                preds[tgt].append(s)
    stack = [s for s in range(n) if not out_degree[s]]
    while stack:
        for s in preds[stack.pop()]:
            out_degree[s] -= 1
            if not out_degree[s]:
                stack.append(s)
    return frozenset(s for s in range(n) if out_degree[s])


def divergence_free(lts: Lts) -> bool:
    """No τ-cycle is reachable from the root (the whole graph is reachable
    by construction)."""
    return not _divergent_states(lts)


def normalise(lts: Lts, *, forbid_divergence: bool = False) -> NormalisedSpec:
    diverging = _divergent_states(lts)
    root = tau_closure(lts.edges, lts.root)
    nodes = [root]
    index = {root: 0}
    trans: list[dict[Event, int]] = []
    acceptances = []
    divergent = []
    frontier = 0
    while frontier < len(nodes):
        node = nodes[frontier]
        div = any(s in diverging for s in node)
        if div and forbid_divergence:
            raise SemanticsError(
                "specification diverges: stable-failures normalisation "
                "requires divergence-freedom")
        divergent.append(div)
        acceptances.append(_minimal_sets(
            lts.initials(s) for s in node if lts.is_stable(s)))
        succ: dict[Event, set[int]] = {}
        for s in node:
            for lab, tgt, _ in lts.edges[s]:
                if lab is TAU:
                    continue
                succ.setdefault(lab, set()).add(tgt)
        row = {}
        for lab in sorted(succ, key=label_key):
            closed = tau_closure(lts.edges, succ[lab])
            tgt = index.get(closed)
            if tgt is None:
                tgt = len(nodes)
                index[closed] = tgt
                nodes.append(closed)
            row[lab] = tgt
        trans.append(row)
        frontier += 1
    return NormalisedSpec(nodes, trans, acceptances, divergent)


# ---------------------------------------------------------------------------
# Refinement

@record
class Verdict:
    holds: bool
    kind: str = ""  # 'trace' | 'refusal' when not holds
    trace: tuple = ()
    refusal: Optional[frozenset[Event]] = None

    def counterexample_str(self) -> str:
        if self.holds:
            return ""
        tr = "<" + ", ".join(str(e) for e in self.trace) + ">"
        if self.kind == "refusal":
            ref = "{" + ", ".join(
                str(e) for e in sorted(self.refusal, key=label_key)) + "}"
            return f"({tr}, {ref})"
        return tr

    def to_dict(self) -> dict:
        out = {"holds": self.holds}
        if not self.holds:
            out["kind"] = self.kind
            out["trace"] = [str(e) for e in self.trace]
            if self.refusal is not None:
                out["refusal"] = sorted(str(e) for e in self.refusal)
        return out


def _product_bfs(norm: NormalisedSpec, impl: Lts, on_node: Callable) -> Optional[Verdict]:
    """Breadth-first exploration of norm x impl, expanding edges in label
    order so reported counterexamples are shortest and deterministic.

    on_node(nnode, impl_state, trace) may return a Verdict to stop early;
    trace reconstruction uses parent pointers.
    """
    start = (norm.root, impl.root)
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        nnode, istate = queue.popleft()

        def get_trace():
            path = []
            cur = (nnode, istate)
            while parent[cur] is not None:
                cur, lab = parent[cur]
                if lab is not TAU:
                    path.append(lab)
            return tuple(reversed(path))

        stop = on_node(nnode, istate, get_trace)
        if stop is not None:
            return stop
        for lab, tgt, _ in impl.edges[istate]:
            if lab is TAU:
                nxt = (nnode, tgt)
            else:
                row = norm.trans[nnode]
                if lab not in row:
                    tr = get_trace() + (lab,)
                    return Verdict(False, "trace", tr)
                nxt = (row[lab], tgt)
            if nxt not in parent:
                parent[nxt] = ((nnode, istate), lab)
                queue.append(nxt)
    return None


def refines_traces(spec: Lts, impl: Lts) -> Verdict:
    """spec ⊑ impl in the traces model: every trace of impl is one of spec."""
    norm = normalise(spec)

    bad = _product_bfs(norm, impl, lambda nnode, istate, get_trace: None)
    return bad if bad is not None else Verdict(True)


def refines_failures(spec: Lts, impl: Lts) -> Verdict:
    """spec ⊑ impl in the stable failures model: trace containment plus
    domination of every stable implementation state's refusal."""
    norm = normalise(spec, forbid_divergence=True)
    sigma = spec.alphabet | impl.alphabet

    def on_node(nnode, istate, get_trace):
        if not impl.is_stable(istate):
            return None
        initials = impl.initials(istate)
        for acc in norm.acceptances[nnode]:
            if acc <= initials:
                return None
        return Verdict(False, "refusal", get_trace(), frozenset(sigma - initials))

    bad = _product_bfs(norm, impl, on_node)
    return bad if bad is not None else Verdict(True)


def refines(spec: Lts, impl: Lts, model: str) -> Verdict:
    if model == "traces":
        return refines_traces(spec, impl)
    if model == "failures":
        return refines_failures(spec, impl)
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# Strong bisimulation (partition refinement, with distinguishing formulas)

def _distinct_rows(edges: list) -> tuple:
    """The distinct row objects of edges and each state's index among
    them, None when no row is shared (then no per-state index is built)."""
    if len(set(map(id, edges))) == len(edges):
        return edges, None
    index: dict = {}
    which = [index.setdefault(id(row), len(index)) for row in edges]
    return list({id(row): row for row in edges}.values()), which


def _signatures(rows, which, get):
    """Each state's signature, its offsets plus the blocks get reads for
    its targets, computed once per distinct row."""
    sigs = (frozenset(map(add, offs, map(get, tgts))) for offs, tgts in rows)
    return sigs if which is None else map(list(sigs).__getitem__, which)


def strong_bisim(l1: Lts, l2: Lts) -> tuple[bool, Optional[str]]:
    """Partition refinement over the disjoint union, treating τ as an
    ordinary label.  On failure, returns a distinguishing
    Hennessy-Milner-style observation built from the refinement history.

    Labels are interned once per call, numbered in label_key order.  A row
    keeps two tuples: the offsets id * n of its labels, n the states of the
    union, and its targets within its own LTS, which index block for l1 and
    block[n1:] for l2.  Every block id is below n, so id * n + block encodes
    the pair (id, block) injectively, and a signature, a frozenset of such
    ints, splits exactly as a set of pairs would.  States that share a row
    object (lts.build) share its tuples and, each round, its signature.
    The pairs themselves are built only to explain a failure."""
    n1 = l1.n_states()
    n = n1 + l2.n_states()
    (rows1, which1), (rows2, which2) = _distinct_rows(l1.edges), _distinct_rows(l2.edges)

    key_of = {}  # label -> label_key, in order of first occurrence
    for row in itertools.chain(rows1, rows2):
        for lab, _, _ in row:
            if lab not in key_of:
                key_of[lab] = label_key(lab)
    key_id = {key: i for i, key in enumerate(sorted(set(key_of.values())))}
    lab_id = {lab: key_id[key] for lab, key in key_of.items()}
    offset = {lab: i * n for lab, i in lab_id.items()}
    rows1, rows2 = [[(tuple([offset[lab] for lab, _, _ in row]), tuple([t for _, t, _ in row]))
                     for row in rows] for rows in (rows1, rows2)]

    block = [0] * n
    history = [block]
    while True:
        renumber = {}
        sigs = itertools.chain(_signatures(rows1, which1, block.__getitem__),
                               _signatures(rows2, which2, block[n1:].__getitem__))
        new_block = [renumber.setdefault((b, sig), len(renumber))
                     for b, sig in zip(block, sigs)]
        if new_block == block:
            break
        block = new_block
        history.append(block)

    r1, r2 = l1.root, l2.root + n1
    if block[r1] == block[r2]:
        return True, None

    labels = {}  # id -> the first label with that id
    for lab, i in lab_id.items():
        labels.setdefault(i, lab)
    edges = [[(lab_id[lab], tgt) for lab, tgt, _ in row] for row in l1.edges]
    edges += [[(lab_id[lab], tgt + n1) for lab, tgt, _ in row] for row in l2.edges]

    def succs(s, i):
        return [t for j, t in edges[s] if j == i]

    def dist(a, b, depth=0):
        # a and b are apart: take the first level at which they are, and a
        # (label, block) pair of the level before that only one of them has
        if depth > len(history) + 4:
            return "..."
        prev = history[next(lvl for lvl, blocks in enumerate(history)
                            if blocks[a] != blocks[b]) - 1]
        siga = frozenset((i, prev[t]) for i, t in edges[a])
        sigb = frozenset((i, prev[t]) for i, t in edges[b])
        neg, (x, y), (i, blk) = (("", (a, b), min(siga - sigb)) if siga - sigb
                                 else ("not ", (b, a), min(sigb - siga)))
        x2 = min(t for t in succs(x, i) if prev[t] == blk)
        parts = sorted({dist(x2, t2, depth + 1) for t2 in succs(y, i)})
        inner = " and ".join(parts) if parts else "true"
        return f"{neg}<{'tau' if labels[i] is TAU else labels[i]}>({inner})"

    return False, dist(r1, r2)


# ---------------------------------------------------------------------------
# Semantic type-symmetry check

def perm_event_fn(perm) -> Callable[[Event], Event]:
    """Events renamed by the permutation perm of t."""
    return lambda e: permute_t(e, perm)


def permutation_bisim_check(defs, proc, sizes, max_states: int = 50_000) -> ConditionReport:
    """Check of full symmetry in t: at each requested size, the process must
    be strongly bisimilar to its renaming under every bijection of the
    instantiation.

    Renaming by a bijection preserves bisimilarity and bisimilarity is
    transitive, so if l ~ π(l) and l ~ σ(l) then l ~ σ(π(l)): the passing
    bijections form a subgroup of S_n.  The transposition (1,0,2,…,n−1) and
    the n-cycle (1,2,…,n−1,0) generate S_n, so when both pass every bijection
    does.  Otherwise all n! bijections are checked, so that each failing one
    is reported with a distinguishing formula."""
    from .std_semantics import build_lts

    findings = []
    total = 0
    for n in sizes:
        lts = build_lts(defs, proc, n, max_states)
        total += math.factorial(n)
        generators = ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1 else ()
        # at n = 2 the two generators are the same bijection
        if all(strong_bisim(lts, rename_lts(lts, perm_event_fn(g)))[0]
               for g in dict.fromkeys(generators)):
            continue
        for perm in itertools.permutations(range(n)):
            renamed = rename_lts(lts, perm_event_fn(perm))
            ok, formula = strong_bisim(lts, renamed)
            if not ok:
                pi = ", ".join(f"{i}->{perm[i]}" for i in range(n))
                findings.append(Finding(
                    "bisim", f"not bisimilar to its renaming under {{{pi}}} at "
                    f"#T={n}; distinguished by {formula}",
                    proc if isinstance(proc, str) else "<term>"))
    if findings:
        return ConditionReport("TypeSym-semantic", "fail", findings)
    sizes_str = ",".join(str(n) for n in sizes)
    return ConditionReport(
        "TypeSym-semantic", "evidence", [],
        [f"bisimilar to all {total} bijective renamings at sizes {{{sizes_str}}}"])
