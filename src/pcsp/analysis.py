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

from .errors import SemanticsError, building
from .lts import Event, Lts, TAU, label_key, rename_lts, tau_closure
from .record import record
from .report import ConditionReport, Finding
from .std_semantics import DEFAULT_MAX_STATES
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

    def on_node(nnode, istate, get_trace):
        if not impl.is_stable(istate):
            return None
        initials = impl.initials(istate)
        for acc in norm.acceptances[nnode]:
            if acc <= initials:
                return None
        sigma = frozenset(spec.alphabet).union(impl.alphabet)
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


def _label_ids(keyed: list[dict]) -> list[dict]:
    """For each map of labels to their label_key in keyed, its labels to
    their ids, numbered in label_key order over all the maps (labels with
    equal keys share one).  The maps stay apart, so the labels of one are
    never compared with those of another."""
    key_id = {key: i for i, key in enumerate(sorted({k for keys in keyed
                                                     for k in keys.values()}))}
    return [{lab: key_id[key] for lab, key in keys.items()} for keys in keyed]


def _union(parts, n: int) -> tuple[list, list]:
    """The disjoint union of parts, each a _distinct_rows pair plus an
    offset per label, as its rows and, for each row, the union's states
    that hold it.  A row is two tuples: the offsets of its labels and its
    targets in the union."""
    rows: list = []
    users: list = []
    base = 0
    for distinct, which, offset in parts:
        first = len(rows)
        rows += [(tuple([offset[lab] for lab, _, _ in row]),
                  tuple([base + t for _, t, _ in row])) for row in distinct]
        if which is None:
            users += [[s] for s in range(base, base + len(distinct))]
            base += len(distinct)
        else:
            users += [[] for _ in distinct]
            for s, r in enumerate(which, base):
                users[first + r].append(s)
            base += len(which)
    return rows, users


def _refine(rows, users, n: int) -> list[list[int]]:
    """The partitions of the union's n states, as lists of block ids, from
    one block to the coarsest stable one.  Each round splits every block
    by its states' signatures, the sets of offset + block over their
    rows' edges: every block id is below n and each offset is a label's
    id times n, so an int encodes the pair (label id, block) injectively.

    A round re-signs only the dirty rows, those with a target that changed
    block in the round before.  A block that splits keeps its id for its
    largest part, its clean states (those of no dirty row) when they are
    as many, and gives each other part a new id.  So a clean row's
    signature is the set it was, the clean states of a block still share
    one, and a dirty state's new one holds a new id that theirs lacks: a
    block splits into its clean states and its dirty ones grouped by
    signature, and no signature is stored.  The partitions are those of
    re-signing every row each round; only their ids differ."""
    preds: list[list[int]] = [[] for _ in range(n)]
    for r, (_, tgts) in enumerate(rows):
        for t in set(tgts):
            preds[t].append(r)
    block = [0] * n
    members = [set(range(n))]
    history = [block[:]]
    dirty = set(range(len(rows)))
    while True:
        get = block.__getitem__
        by_sig: dict = {}  # (block, signature) -> its dirty states
        for r in dirty:
            offs, tgts = rows[r]
            us = users[r]  # one row's states are never apart
            key = block[us[0]], frozenset(map(add, offs, map(get, tgts)))
            got = by_sig.get(key)
            if got is None:
                by_sig[key] = us[:]
            else:
                got += us
        split: dict = {}  # block -> its dirty states, grouped by signature
        for (b, _), part in by_sig.items():
            split.setdefault(b, []).append(part)
        moved = []
        for b, parts in split.items():
            clean = len(members[b]) - sum(map(len, parts))
            if not clean and len(parts) == 1:
                continue
            largest = max(parts, key=len)
            if clean >= len(largest):
                for part in parts:
                    members[b].difference_update(part)
            else:
                if clean:
                    parts.append(list(members[b].difference(*parts)))
                parts.remove(largest)
                members[b] = set(largest)
            for part in parts:
                new = len(members)
                members.append(set(part))
                for s in part:
                    block[s] = new
                moved += part
        if not moved:
            return history
        history.append(block[:])
        dirty = {r for s in moved for r in preds[s]}


def _first_occurrence(blocks: list[int]) -> list[int]:
    """blocks renumbered in order of first occurrence."""
    ids: dict = {}
    return [ids.setdefault(b, len(ids)) for b in blocks]


def strong_bisim(l1: Lts, l2: Lts) -> tuple[bool, Optional[str]]:
    """Partition refinement over the disjoint union, treating τ as an
    ordinary label.  On failure, returns a distinguishing
    Hennessy-Milner-style observation built from the refinement history.

    Labels are numbered in label_key order, by the keys the LTSs' builders
    computed (Lts.label_keys) where they did, and the union is refined by
    _refine: each round re-signs only the distinct rows (states that share
    a row object in lts.build share its tuples and its signature) with a
    target whose block changed, and a block that splits keeps its id for
    its largest part.  Its history is the plain
    refinement's up to the block ids, so only on failure is each round
    renumbered in order of first occurrence, the plain refinement's
    numbering, which the formula's choice of a (label, block) pair reads.
    The pairs themselves are built only to explain a failure."""
    n1 = l1.n_states()
    n = n1 + l2.n_states()
    parts = _distinct_rows(l1.edges), _distinct_rows(l2.edges)
    ids = _label_ids([lts.label_keys or {lab: label_key(lab) for row in rows for lab, _, _ in row}
                      for lts, (rows, _) in zip((l1, l2), parts)])
    history = _refine(*_union([(*part, {lab: i * n for lab, i in lab_id.items()})
                               for part, lab_id in zip(parts, ids)], n), n)

    r1, r2 = l1.root, l2.root + n1
    if history[-1][r1] == history[-1][r2]:
        return True, None

    history = [_first_occurrence(blocks) for blocks in history]
    labels = {}  # id -> the first label with that id
    for lab_id in ids:
        for lab, i in lab_id.items():
            labels.setdefault(i, lab)
    edges = [[(ids[0][lab], tgt) for lab, tgt, _ in row] for row in l1.edges]
    edges += [[(ids[1][lab], tgt + n1) for lab, tgt, _ in row] for row in l2.edges]

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


def _invariant_under(lts: Lts, fns) -> list[bool]:
    """For each of fns, whether lts is strongly bisimilar to its renaming
    by it, decided by one refinement of the disjoint union of lts and one
    view of it per renaming: lts's rows with each label's id replaced by
    its image's.  A signature is a set, so a view's rows need no sorting,
    and no renamed copy is built."""
    distinct, which = _distinct_rows(lts.edges)
    labels = list({lab: None for row in distinct for lab, _, _ in row})
    images = [labels] + [[lab if lab is TAU else fn(lab) for lab in labels] for fn in fns]
    n1 = lts.n_states()
    n = n1 * len(images)
    (lab_id,) = _label_ids([{lab: label_key(lab) for lab in
                             dict.fromkeys(itertools.chain.from_iterable(images))}])
    views = [(distinct, which, {lab: lab_id[img] * n for lab, img in zip(labels, imgs)})
             for imgs in images]
    block = _refine(*_union(views, n), n)[-1]
    return [block[lts.root] == block[k * n1 + lts.root] for k in range(1, len(views))]


def permutation_bisim_check(defs, proc, sizes,
                            max_states: int = DEFAULT_MAX_STATES) -> ConditionReport:
    """Check of full symmetry in t: at each requested size, the process must
    be strongly bisimilar to its renaming under every bijection of the
    instantiation.

    Renaming by a bijection preserves bisimilarity and bisimilarity is
    transitive, so if l ~ π(l) and l ~ σ(l) then l ~ σ(π(l)): the passing
    bijections form a subgroup of S_n.  The transposition (1,0,2,…,n−1) and
    the n-cycle (1,2,…,n−1,0) generate S_n (one bijection at n = 2), so
    every bijection passes iff both do.  Both are decided at once, by one
    refinement over the process's LTS and a view of it per generator
    (_invariant_under), on an LTS whose states are never made terms
    (build_lts); a round of it re-signs only the rows with a target that
    changed block, and block ids are never renumbered, since no formula is
    built from them.  Each failing generator is reported with the formula
    by which strong_bisim tells the LTS from its renamed copy.  Every size
    is built over one engine."""
    from .std_semantics import Engine, build_lts

    name = proc if isinstance(proc, str) else "<term>"
    engine = Engine(defs)
    findings = []
    total = 0
    for n in sizes:
        with building(f"{name} at #T={n}"):
            lts = build_lts(defs, proc, n, max_states, engine=engine)
        total += math.factorial(n)
        if n < 2:
            continue
        generators = dict.fromkeys(((1, 0, *range(2, n)), (*range(1, n), 0)))
        invariant = _invariant_under(lts, [perm_event_fn(g) for g in generators])
        for g, ok in zip(generators, invariant):
            if not ok:
                _, formula = strong_bisim(lts, rename_lts(lts, perm_event_fn(g)))
                pi = ", ".join(f"{i}->{g[i]}" for i in range(n))
                findings.append(Finding(
                    "bisim", f"not bisimilar to its renaming under {{{pi}}} at "
                    f"#T={n}; distinguished by {formula}", name))
    if findings:
        return ConditionReport("TypeSym-semantic", "fail", findings)
    sizes_str = ",".join(str(n) for n in sizes)
    return ConditionReport(
        "TypeSym-semantic", "evidence", [],
        [f"bisimilar to all {total} bijective renamings at sizes {{{sizes_str}}}"])
