"""Concrete labelled transition systems: labels, the LTS container, and a
deterministic breadth-first builder shared by the two concrete semantics."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from .errors import BoundExceeded, SemanticsError
from .syntax import Value, value_key


class _Tau:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "τ"


TAU = _Tau()


@dataclass(frozen=True)
class Event:
    """A concrete visible event c.v1...vk."""

    channel: str
    values: tuple[Value, ...] = ()

    def __str__(self) -> str:
        return self.channel + "".join(f".{v}" for v in self.values)


Label = object  # TAU or Event


def label_key(label):
    if label is TAU:
        return (0, "", ())
    return (1, label.channel, tuple(value_key(v) for v in label.values))


# An edge is (label, target_index, construct_uid_or_None).
Edge = tuple


@dataclass
class Lts:
    """A rooted, finite LTS with deduplicated states.

    states hold display payloads; keys hold the identity used for
    deduplication.  The standard semantics keys states by ids of its
    per-build state graph, meaningful within one build only; the COSE
    semantics keys them by configuration keys, which are shared across
    instantiation sizes, so that check_monotonicity can match states
    between sizes.
    """

    root: int
    states: list
    keys: list
    edges: list[list[Edge]]
    alphabet: frozenset[Event]
    tsize: int
    key_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.key_index:
            self.key_index = {k: i for i, k in enumerate(self.keys)}

    def n_states(self) -> int:
        return len(self.states)

    def n_edges(self) -> int:
        return sum(len(es) for es in self.edges)

    def successors(self, idx: int, label=None):
        if label is None:
            return self.edges[idx]
        return [e for e in self.edges[idx] if e[0] == label]

    def initials(self, idx: int) -> frozenset[Event]:
        return frozenset(lab for lab, _, _ in self.edges[idx] if lab is not TAU)

    def is_stable(self, idx: int) -> bool:
        return all(lab is not TAU for lab, _, _ in self.edges[idx])


def _is_tau(label) -> bool:
    return label is TAU


def tau_closure(edges, seed, follow: Callable[[object], bool] = _is_tau) -> frozenset[int]:
    """The states reachable from seed (a state index or an iterable of them)
    along edges, per-state lists of (label, target, ...) triples, whose label
    satisfies follow; by default the τ edges."""
    out = {seed} if isinstance(seed, int) else set(seed)
    stack = list(out)
    while stack:
        for lab, tgt, _ in edges[stack.pop()]:
            if tgt not in out and follow(lab):
                out.add(tgt)
                stack.append(tgt)
    return frozenset(out)


@contextmanager
def terms_bounded():
    """Report a RecursionError as a diagnostic: state terms nest deeper the
    longer exploration runs only under recursion through an operator
    context, which the semantics does not support."""
    try:
        yield
    except RecursionError:
        raise SemanticsError(
            "state terms grow without bound (recursion through an "
            "operator context is not supported)") from None


def build(root_payload, root_key, successors: Callable, *,
          alphabet: frozenset[Event], tsize: int,
          max_states: int, describe: Callable[[object], str]) -> Lts:
    """Deterministic BFS closure of a successor function.

    successors(payload) yields (label, uid, payload, key) quadruples;
    exploration order and edge order are fixed by label and insertion order,
    so two runs produce identical structures.
    """
    states = [root_payload]
    keys = [root_key]
    index = {root_key: 0}
    edges: list[list[Edge]] = []
    frontier = 0
    with terms_bounded():
        while frontier < len(states):
            out = []
            seen_edges = set()
            succ = sorted(successors(states[frontier]), key=lambda s: (label_key(s[0]),))
            for label, uid, next_payload, next_key in succ:
                tgt = index.get(next_key)
                if tgt is None:
                    if len(states) >= max_states:
                        raise BoundExceeded("state", max_states, describe(next_payload))
                    tgt = len(states)
                    index[next_key] = tgt
                    states.append(next_payload)
                    keys.append(next_key)
                edge = (label, tgt, uid)
                dedup = (label_key(label), tgt, uid)
                if dedup not in seen_edges:
                    seen_edges.add(dedup)
                    out.append(edge)
            edges.append(sorted(out, key=lambda e: (label_key(e[0]), e[1])))
            frontier += 1
    return Lts(0, states, keys, edges, alphabet, tsize, index)


def rename_lts(lts: Lts, fn: Callable[[Event], Event]) -> Lts:
    """Relabel every visible edge through fn (total on the LTS's visible
    labels); τ and the state graph are unchanged."""
    new_edges = []
    for es in lts.edges:
        out = []
        seen = set()
        for lab, tgt, uid in es:
            lab2 = lab if lab is TAU else fn(lab)
            k = (label_key(lab2), tgt, uid)
            if k not in seen:
                seen.add(k)
                out.append((lab2, tgt, uid))
        new_edges.append(sorted(out, key=lambda e: (label_key(e[0]), e[1])))
    alphabet = frozenset(fn(e) for e in lts.alphabet)
    return Lts(lts.root, list(lts.states), list(lts.keys), new_edges,
               alphabet, lts.tsize, dict(lts.key_index))
