"""Concrete Operational Semantics with Environments.

Instantiates a symbolic transition system at a concrete type: states are
configurations (symbolic state, environment, instantiation).  A visible
symbolic event with nondeterministic selections over t first resolves them
by a τ that records the chosen values in the environment and rewrites the
selections of the originating construct into outputs; symbolic τs carry
over; conditional edges dissolve, contributing the transitions of their
target when the condition holds in the environment.  Also implements the
ternary relation linking symbolic traces, environments and concrete traces.

Configurations are identified up to alpha-equivalence and kept minimal:
one canonicalising walk of ``syntax`` per successor (``configure``) gives
both the free names that the environment is restricted to and the
canonical form of the term with the environment substituted, which is the
configuration's key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import SemanticsError
from .lts import Event, Lts, TAU, build, tau_closure
from .pretty import fmt_term
from .ssos import Cond, Vis
from .ssos import successors as sym_successors
from .std_semantics import (
    check_guarded_recursion, eval_guard, file_alphabet, tvalues_for,
)
from .syntax import (
    Condition, Construct, Definitions, DOLLAR, ExtChoice, If, MixedGuard,
    Prefix, ProcessTerm, QUERY, Sliding, alpha_canonical, canonicalise,
    classify_fields, domain_values, replace_selections,
)

Environment = dict  # variable name -> TVal


@dataclass(frozen=True)
class Configuration:
    """(symbolic state, environment) at a fixed instantiation; two
    configurations are identical iff substituting the environments yields
    alpha-equivalent terms."""

    term: ProcessTerm
    env: tuple  # sorted (name, TVal) pairs

    def env_dict(self) -> Environment:
        return dict(self.env)

    def describe(self) -> str:
        items = ", ".join(f"{k}->{v}" for k, v in self.env)
        return f"({fmt_term(self.term)}, {{{items}}})"


def configure(term: ProcessTerm, env: Environment) -> tuple[Configuration, ProcessTerm]:
    """The configuration of term under env and its key, from one
    canonicalising walk: env keeps only the free variables of the term
    (environment minimality), and the key is the canonical form of the term
    with env substituted."""
    canon, free, _ = canonicalise(term, env)
    cfg = Configuration(term, tuple(sorted(
        (k, v) for k, v in env.items() if k in free)))
    return cfg, canon


def eval_condition(cond: Condition, env: Environment) -> bool:
    vals = []
    for l, r in cond.atoms:
        lv = env.get(l, l) if isinstance(l, str) else l
        rv = env.get(r, r) if isinstance(r, str) else r
        if isinstance(lv, str) or isinstance(rv, str):
            raise SemanticsError(
                f"condition variable {lv if isinstance(lv, str) else rv!r} "
                "is not bound by the environment")
        vals.append(lv == rv)
    result = all(vals)
    return (not result) if cond.negated else result


# ---------------------------------------------------------------------------
# The per-construct selection-to-output state transformation

def replace_t_initials(term: ProcessTerm, uid: int) -> ProcessTerm:
    """Rewrite the t-selections of the construct with the given source
    identity into outputs, wherever that construct occurs as an initial
    (pre-τ) communication of the state."""
    if isinstance(term, Prefix):
        if term.construct.uid == uid:
            return Prefix(replace_selections(term.construct, "t"), term.cont)
        return term
    if isinstance(term, ExtChoice):
        return ExtChoice(replace_t_initials(term.left, uid),
                         replace_t_initials(term.right, uid))
    if isinstance(term, Sliding):
        return Sliding(replace_t_initials(term.left, uid), term.right)
    if isinstance(term, If):
        if isinstance(term.guard, (Condition, MixedGuard)):
            return term
        branch_then = eval_guard(term.guard)
        if branch_then:
            return If(term.guard, replace_t_initials(term.then, uid), term.els)
        return If(term.guard, term.then, replace_t_initials(term.els, uid))
    return term


# ---------------------------------------------------------------------------
# Instantiation of symbolic events

def insts(eps: Construct, env: Environment, tvalues) -> list[Event]:
    """All concrete events instantiating the symbolic event consistently with
    the environment: inputs and selections of type t range over the
    instantiation, outputs take their environment values."""
    choices = []
    for f in eps.fields:
        if f.sel in (DOLLAR, QUERY):
            choices.append(list(domain_values(f.ty, tvalues)))
        else:
            if isinstance(f.payload, str):
                v = env.get(f.payload)
                if v is None:
                    return []
                choices.append([v])
            else:
                choices.append([f.payload])
    return [Event(eps.channel, vs) for vs in itertools.product(*choices)]


def match(eps: Construct, event: Event) -> Environment:
    """The environment extension caused by instantiating the symbolic event
    with the concrete event: bindings for its t inputs and selections."""
    if event.channel != eps.channel or len(event.values) != len(eps.fields):
        raise SemanticsError(f"event {event} does not fit symbolic event shape")
    out = {}
    for f, v in zip(eps.fields, event.values):
        if f.sel in (DOLLAR, QUERY) and f.is_t():
            out[f.payload] = v
    return out


# ---------------------------------------------------------------------------
# Translation rules

def successors_of_config(cfg: Configuration, defs: Definitions, tvalues):
    """COSE transitions of a configuration, as (label, uid, target
    configuration, its key).  Conditional symbolic edges whose condition
    holds contribute the transitions of their target (so a false condition
    contributes nothing); chains of conditionals are followed with a cycle
    guard."""
    env = cfg.env_dict()
    out = []
    seen_terms = set()

    def expand(term: ProcessTerm):
        key = alpha_canonical(term)
        if key in seen_terms:
            return
        seen_terms.add(key)
        for lab, uid, target in sym_successors(term, defs):
            if lab is TAU:
                out.append((TAU, uid, *configure(target, env)))
            elif isinstance(lab, Cond):
                if eval_condition(lab.condition, env):
                    expand(target)
            else:
                eps = lab.event
                sets = classify_fields(eps)
                if sets.dollar_t:
                    positions = sorted(sets.dollar_t)
                    domains = [domain_values(eps.fields[i - 1].ty, tvalues)
                               for i in positions]
                    transformed = replace_t_initials(term, eps.uid)
                    for vs in itertools.product(*domains):
                        env2 = dict(env)
                        for i, v in zip(positions, vs):
                            env2[eps.fields[i - 1].payload] = v
                        out.append((TAU, eps.uid, *configure(transformed, env2)))
                else:
                    for event in insts(eps, env, tvalues):
                        env2 = dict(env)
                        env2.update(match(eps, event))
                        out.append((event, eps.uid, *configure(target, env2)))

    expand(cfg.term)
    return out


def concretize(defs: Definitions, source: Union[Lts, str, ProcessTerm],
               tsize: int, init_env: Optional[Environment] = None,
               max_states: int = 100_000) -> Lts:
    """The LTS of configurations rooted at (root state, initial environment),
    per the translation rules."""
    if isinstance(source, Lts):
        root_term = source.states[source.root]
    elif isinstance(source, str):
        root_term = defs.body(source)
    else:
        root_term = source
    check_guarded_recursion(root_term, defs)
    tvalues = tvalues_for(tsize)
    env = dict(init_env) if init_env else {}
    root, root_key = configure(root_term, env)
    return build(root, root_key,
                 lambda cfg: successors_of_config(cfg, defs, tvalues),
                 alphabet=file_alphabet(defs, tvalues), tsize=tsize,
                 max_states=max_states, describe=Configuration.describe)


# ---------------------------------------------------------------------------
# Symbolic traces generating concrete traces

def generates(sigma, env: Environment, trace, tvalues) -> bool:
    """The least ternary relation: τ labels are skipped, a conditional label
    requires its condition to hold, and a visible symbolic label consumes one
    concrete event it instantiates, extending the environment."""
    if not sigma:
        return not trace
    head, rest = sigma[0], sigma[1:]
    if head is TAU:
        return generates(rest, env, trace, tvalues)
    if isinstance(head, Cond):
        return (eval_condition(head.condition, env)
                and generates(rest, env, trace, tvalues))
    eps = head.event if isinstance(head, Vis) else head
    if not trace:
        return False
    event = trace[0]
    if event not in insts(eps, env, tvalues):
        return False
    env2 = dict(env)
    env2.update(match(eps, event))
    return generates(rest, env2, trace[1:], tvalues)


def generated_traces(sigma, env: Environment, tvalues) -> Iterator[tuple]:
    """All concrete traces the symbolic trace generates under the given
    initial environment."""
    if not sigma:
        yield ()
        return
    head, rest = sigma[0], sigma[1:]
    if head is TAU:
        yield from generated_traces(rest, env, tvalues)
        return
    if isinstance(head, Cond):
        if eval_condition(head.condition, env):
            yield from generated_traces(rest, env, tvalues)
        return
    eps = head.event if isinstance(head, Vis) else head
    for event in insts(eps, env, tvalues):
        env2 = dict(env)
        env2.update(match(eps, event))
        for tail in generated_traces(rest, env2, tvalues):
            yield (event,) + tail


# ---------------------------------------------------------------------------
# Regularity validators (assertions that hold for SeqNorm specifications)

def _macro_states(lts: Lts):
    """The determinisation of the LTS: yields each set of states reached by
    a visible trace (before its τ-closure) with, per visible label leaving
    its τ-closure, the set of targets and the set of construct uids."""
    start = frozenset((lts.root,))
    seen = {start}
    queue = [start]
    while queue:
        macro = queue.pop()
        succ: dict = {}
        for s in tau_closure(lts.edges, macro):
            for lab, tgt, uid in lts.edges[s]:
                if lab is not TAU:
                    tgts, uids = succ.setdefault(lab, (set(), set()))
                    tgts.add(tgt)
                    uids.add(uid)
        yield macro, succ
        for tgts, _ in succ.values():
            nxt = frozenset(tgts)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def check_environment_uniqueness(lts: Lts) -> list[str]:
    """After any visible trace not ending in τ, exactly one configuration is
    reachable (checked over the determinisation of the configuration LTS,
    whose macro-states each correspond to at least one trace)."""
    return [f"configurations {{{', '.join(map(str, sorted(macro)))}}} "
            "reachable by one trace"
            for macro, _ in _macro_states(lts) if len(macro) != 1]


def check_unique_matching_construct(lts: Lts) -> list[str]:
    """Each (trace, event) pair is produced by a unique construct, checked by
    comparing the source identities on same-labelled edges reachable after a
    common trace."""
    return [f"event {lab} arises from {len(uids)} constructs after a common trace"
            for _, succ in _macro_states(lts)
            for lab, (_, uids) in succ.items() if len(uids) > 1]


def check_monotonicity(small: Lts, large: Lts) -> list[str]:
    """Every transition available at a sub-instantiation is available at the
    larger one, with matching source and target configurations (matching via
    the type-independent configuration keys)."""
    problems = []
    for idx, key in enumerate(small.keys):
        big = large.key_index.get(key)
        if big is None:
            problems.append(f"configuration {small.states[idx].describe()} "
                            "unreachable at the larger instantiation")
            continue
        small_edges = {(lab, small.keys[tgt]) for lab, tgt, _ in small.edges[idx]}
        large_edges = {(lab, large.keys[tgt]) for lab, tgt, _ in large.edges[big]}
        missing = small_edges - large_edges
        for lab, _ in sorted(missing, key=lambda e: str(e[0])):
            problems.append(f"transition {lab} from "
                            f"{small.states[idx].describe()} missing at the "
                            "larger instantiation")
    return problems
