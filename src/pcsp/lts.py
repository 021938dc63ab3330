"""Labelled transition systems: labels, the LTS container, and a
deterministic breadth-first builder shared by the two concrete semantics
and the semi-symbolic one."""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Optional

from .errors import BoundExceeded, SemanticsError
from .record import field, record
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


@record(frozen=True, slots=True)
class Event:
    """A concrete visible event c.v1...vk.  Its hash is computed once, at
    construction: events are looked up in sets and dicts on every edge."""

    channel: str
    values: tuple[Value, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.channel, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.channel + "".join(f".{v}" for v in self.values)


Label = object  # TAU or Event


class Alphabet:
    """A set of events made when it is first read: in, iteration, len and
    equality read the made set.  An LTS carries the events of its file's
    channels, and only a refusal counterexample and a renaming read them."""

    __slots__ = ("_make", "_events")
    __hash__ = None

    def __init__(self, make: Callable[[], frozenset[Event]]):
        self._make = make
        self._events = None

    @property
    def events(self) -> frozenset[Event]:
        if self._events is None:
            self._events, self._make = self._make(), None
        return self._events

    def __contains__(self, event) -> bool:
        return event in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return self.events == (other.events if isinstance(other, Alphabet) else other)

    def __repr__(self) -> str:
        return repr(self.events)


# value -> value_key(value), one per value met: the keys of all labels
# share their parts, as an LTS keeps a key for each of its labels
_VALUE_KEYS: dict = {}


def label_key(label):
    if label is TAU:
        return (0, "", ())
    keys = []
    for v in label.values:
        k = _VALUE_KEYS.get(v)
        if k is None:
            k = _VALUE_KEYS[v] = value_key(v)
        keys.append(k)
    return (1, label.channel, tuple(keys))


# An edge is (label, target_index, construct_uid_or_None).
Edge = tuple


@record
class Lts:
    """A rooted, finite LTS with deduplicated states.

    It also carries the semi-symbolic LTS of a sequential process: its
    labels are then symbolic (ssos.Vis, a syntax.Guard or τ) and its
    alphabet is empty.

    states hold display payloads.

    edges[i] is state i's row.  States that move alike (build's movers) may
    hold one shared row object, so a row is read-only: copy it to change it.

    label_keys maps labels of the rows to their label_key, as build and
    rename_lts computed them, so that strong_bisim need not again.
    """

    root: int
    states: list
    edges: list[list[Edge]]
    alphabet: frozenset[Event] | Alphabet
    label_keys: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.label_keys = {}

    def n_states(self) -> int:
        return len(self.states)

    def n_edges(self) -> int:
        return sum(len(es) for es in self.edges)

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


def _edge_row(keyed) -> list[Edge]:
    """One state's edges, given as (label key, edge) pairs, without repeats
    (equal label keys, targets and uids; the first is kept), sorted by
    label key and target."""
    first = {}
    for k, e in keyed:
        first.setdefault((k, e[1], e[2]), e)
    return [first[k] for k in sorted(first, key=itemgetter(0, 1))]


def build(root_payload, root_key, successors: Callable, *,
          alphabet: frozenset[Event] | Alphabet, max_states: int,
          describe: Callable[[object], str],
          order: Callable = label_key, mover: Optional[Callable] = None) -> Lts:
    """Deterministic BFS closure of a successor function.

    successors(payload) yields (label, uid, payload, key) quadruples;
    exploration order and edge order are fixed by label, sorted by order,
    and insertion order, so two runs produce identical structures.  Each
    distinct label's order key is computed once per build.

    mover(payload), if given, is None for a state that moves as itself,
    else the hashable value it moves as (a conditional as its branch),
    which successors accepts in place of the payload.  States with one
    mover share one read-only edge row: the first numbered every target,
    so the later ones add no state.
    """
    states = [root_payload]
    index = {root_key: 0}
    edges: list[list[Edge]] = []
    order_keys: dict = {}  # label -> order(label)
    rows: dict = {}        # mover -> its edge row
    frontier = 0
    with terms_bounded():
        while frontier < len(states):
            payload = states[frontier]
            frontier += 1
            moves_as = None if mover is None else mover(payload)
            if moves_as is not None:
                row = rows.get(moves_as)
                if row is not None:
                    edges.append(row)
                    continue
            succ = []
            for s in successors(payload if moves_as is None else moves_as):
                k = order_keys.get(s[0])
                if k is None:
                    k = order_keys[s[0]] = order(s[0])
                succ.append((k, s))
            succ.sort(key=itemgetter(0))
            out = []
            for k, (label, uid, next_payload, next_key) in succ:
                tgt = index.get(next_key)
                if tgt is None:
                    if len(states) >= max_states:
                        raise BoundExceeded("state", max_states, describe(next_payload))
                    tgt = len(states)
                    index[next_key] = tgt
                    states.append(next_payload)
                out.append((k, (label, tgt, uid)))
            row = _edge_row(out)
            if moves_as is not None:
                rows[moves_as] = row
            edges.append(row)
    lts = Lts(0, states, edges, alphabet)
    if order is label_key:
        lts.label_keys = order_keys
    return lts


def rename_lts(lts: Lts, fn: Callable[[Event], Event]) -> Lts:
    """Relabel every visible edge through fn (total on the LTS's visible
    labels); τ and the state graph are unchanged.  fn and label_key run
    once per distinct label, and each distinct row object is renamed once,
    so rows that states share stay shared."""
    images = {TAU: (label_key(TAU), TAU)}

    def image(lab):
        got = images.get(lab)
        if got is None:
            new = fn(lab)
            got = images[lab] = (label_key(new), new)
        return got

    renamed: dict = {}  # id(row) -> its renaming
    new_edges = []
    for es in lts.edges:
        row = renamed.get(id(es))
        if row is None:
            keyed = []
            for lab, tgt, uid in es:
                k, new = image(lab)
                keyed.append((k, (new, tgt, uid)))
            row = renamed[id(es)] = _edge_row(keyed)
        new_edges.append(row)
    events = lts.alphabet
    alphabet = Alphabet(lambda: frozenset(map(fn, events)))
    out = Lts(lts.root, list(lts.states), new_edges, alphabet)
    out.label_keys = {new: k for k, new in images.values()}
    return out
