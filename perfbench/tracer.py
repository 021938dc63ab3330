"""Spans and counters around the layer entry points of ``pcsp``.

The wrappers live here, outside the package: nothing in ``src/pcsp`` knows
it is being measured.  A wrapper replaces the original function object at
every place it is bound -- module attributes (``reduction`` binds
``build_lts``, ``refines`` and ``divergence_free`` at import time), the
attributes read by function-local imports, and class attributes for methods
such as ``CollapsingFn.lts``.  ``Tracer(selftest=True)`` additionally counts
calls to each original's code object with ``sys.setprofile``; a binding site
the wrappers missed shows up as a profiler count above the wrapper count.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# layer name -> the public functions whose spans make up that layer
LAYERS = {
    "parser.parse_file": [("pcsp.parser", "parse_file")],
    "std_semantics.build_lts": [("pcsp.std_semantics", "build_lts")],
    "cose.concretize": [("pcsp.cose", "concretize")],
    "ssos.build_sslts": [("pcsp.ssos", "build_sslts")],
    "analysis.refines": [("pcsp.analysis", "refines_traces"),
                         ("pcsp.analysis", "refines_failures")],
    "analysis.normalise": [("pcsp.analysis", "normalise")],
    "analysis.divergence_free": [("pcsp.analysis", "divergence_free")],
    "analysis.strong_bisim": [("pcsp.analysis", "strong_bisim")],
    "lts.rename_lts": [("pcsp.lts", "rename_lts")],
    "reduction.compute_thresholds": [("pcsp.reduction", "compute_thresholds")],
    "reduction.phi": [("pcsp.reduction", "CollapsingFn.lts")],
    # the side-condition checkers; the sampled semantic symmetry check is
    # one of them even though it lives in analysis
    "conditions": [("pcsp.conditions", name) for name in (
        "check_all", "check_data_independence", "check_seq", "check_seqnorm",
        "check_typesym_syntactic", "check_no_mixed_inputs",
        "revposconjeqt_evidence")]
    + [("pcsp.analysis", "permutation_bisim_check")],
}


def _states(out, _args, _seen):
    return {"states": out.n_states()}


def _build_lts(out, args, seen):
    proc, subst = args["proc"], args.get("init_subst")
    key = (proc if isinstance(proc, str) else repr(proc), args["tsize"],
           repr(sorted(subst.items(), key=repr)) if subst else None)
    repeat = key in seen
    seen.add(key)
    return {"states": out.n_states(), "edges": out.n_edges(), "repeats": repeat}


# layer name -> the counts taken from (result, bound arguments, the keys
# the wrapped function has seen in this process)
COUNTERS = {
    "std_semantics.build_lts": _build_lts,
    "cose.concretize": _states,
    "ssos.build_sslts": _states,
    "analysis.normalise": lambda out, _args, _seen: {"nodes": len(out.nodes)},
}
FIELDS = ("s", "calls", "states", "edges", "nodes", "repeats")


def _lookup(modname: str, qualname: str):
    owner = sys.modules[modname]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, selftest: bool = False):
        self.selftest = selftest
        self.layers = {name: dict.fromkeys(FIELDS, 0) for name in LAYERS}
        self.wrapper_calls: dict[str, int] = {}
        self.profiled_calls: dict[str, int] = {}
        self.stack: list[float] = []  # child time covered, per open span
        self.root_self_s = 0.0
        self._codes: dict = {}

    def install(self) -> None:
        """Wrap every target at every pcsp binding site.  Call after
        ``import pcsp.cli``, so that all modules are loaded."""
        for layer, targets in LAYERS.items():
            for modname, qualname in targets:
                owner, name = _lookup(modname, qualname)
                original = getattr(owner, name)
                fid = f"{modname}.{qualname}"
                wrapper = self._wrap(fid, layer, original)
                self._codes[original.__code__] = fid
                self.wrapper_calls[fid] = 0
                self.profiled_calls[fid] = 0
                if inspect.isclass(owner):
                    setattr(owner, name, wrapper)
                    continue
                for modname2, mod in list(sys.modules.items()):
                    if modname2 != "pcsp" and not modname2.startswith("pcsp."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, fid: str, layer_name: str, fn):
        layer = self.layers[layer_name]
        seen: set = set()
        stack = self.stack
        counter = COUNTERS.get(layer_name)
        signature = inspect.signature(fn)
        calls = self.wrapper_calls

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                layer["s"] += dur - child
                layer["calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for k, v in counter(out, bound, seen).items():
                    layer[k] += v
            return out

        return wrapper

    def _profile(self, frame, event, _arg):
        if event == "call":
            fid = self._codes.get(frame.f_code)
            if fid is not None:
                self.profiled_calls[fid] += 1

    def run(self, fn, *args):
        """Call fn as the root span (``cli.main``); its self time is the
        part of the call no layer span covers."""
        self.stack.append(0.0)
        if self.selftest:
            sys.setprofile(self._profile)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dur = perf_counter() - t0
            sys.setprofile(None)
            self.root_self_s += dur - self.stack.pop()

    def report(self) -> dict:
        out = {"layers": self.layers,
               "root_self_s": self.root_self_s}
        if self.selftest:
            out["selftest"] = {fid: [self.wrapper_calls[fid],
                                     self.profiled_calls[fid]]
                               for fid in self.wrapper_calls}
        return out
