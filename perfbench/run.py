"""Layered benchmark for pcsp: time to verdict on the bundled corpus.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``pcsp`` CLI invocations (see workloads.py);
the seed only shuffles their order.  Every invocation runs in its own fresh
interpreter, one at a time, because the heap left by earlier work slows
later work in a long-lived process.  A pass runs each invocation once; the
benchmark repeats passes until S seconds have gone by and reports medians
over passes.  Every invocation's exit code, verdict and stdout are checked.

--trace 0 reports the end-to-end metrics: the summed ``cli.main`` wall time
of a pass, the children's CPU time, the largest child peak RSS (from
``os.wait4``), and the set-up time (interpreter start plus ``import
pcsp.cli``).

--trace 1 alternates untraced and traced passes and reports per-layer self
times and counts from wrappers around the layer entry points (tracer.py),
the tracing overhead, and the ROADMAP's ``build_lts`` baseline on mutex
Impl at n=6..8.  It also runs the wrapper self-test: one pass under
``sys.setprofile`` whose per-function call counts must equal the wrappers'.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

from workloads import BASELINE, WORKLOADS, Invocation  # noqa: E402

CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child stamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    inv: Invocation
    mode: str
    error: str = ""          # why the invocation counts as failed, if it does
    main_s: float = 0.0      # wall time of cli.main
    setup_s: float = 0.0     # spawn to `import pcsp.cli` done
    cpu_s: float = 0.0       # user + sys of the whole child
    rss_mb: float = 0.0      # the child's own peak RSS
    result: dict = field(default_factory=dict)


def _drain(fds: dict, deadline: float) -> tuple[dict, bool]:
    """Read every fd to EOF; False if the deadline passed first."""
    bufs = {name: bytearray() for name in fds}
    with selectors.DefaultSelector() as sel:
        for name, fd in fds.items():
            sel.register(fd, selectors.EVENT_READ, name)
        while sel.get_map():
            left = deadline - _now()
            if left <= 0:
                return bufs, False
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    bufs[key.data] += chunk
                else:
                    sel.unregister(key.fd)
    return bufs, True


def spawn(inv: Invocation, mode: str, run_end: float) -> Child:
    child = Child(inv, mode)
    rfd, wfd = os.pipe()
    t_spawn = _now()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(wfd), *inv.argv],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(wfd,))
    finally:
        os.close(wfd)
    finished = False
    try:
        bufs, finished = _drain(
            {"out": proc.stdout.fileno(), "err": proc.stderr.fileno(),
             "result": rfd},
            min(t_spawn + CHILD_TIMEOUT_S, run_end))
    finally:
        os.close(rfd)
        proc.stdout.close()
        proc.stderr.close()
        if not finished:
            proc.kill()
        # reap it here, not through Popen: wait4 gives this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
    if not finished:
        child.error = "timeout"
        return child
    try:
        child.result = json.loads(bufs["result"])
    except ValueError:
        child.error = (f"exit code {proc.returncode} without measurements: "
                       + bufs["err"].decode(errors="replace").strip()[-500:])
        return child
    child.main_s = child.result["main_s"]
    child.setup_s = child.result["ready"] - t_spawn
    child.error = _check(inv, proc.returncode, bytes(bufs["out"]),
                         bytes(bufs["err"]), child.result)
    return child


def _check(inv: Invocation, rc: int, out: bytes, err: bytes, result: dict) -> str:
    """Why the invocation counts as failed, or "" if it passed."""
    if rc != inv.rc:
        return f"exit code {rc}, expected {inv.rc}"
    if err:
        return "stderr: " + err.decode(errors="replace").strip()[-500:]
    if out != (EXPECTED / f"{inv.name}.out").read_bytes():
        return f"stdout differs from expected/{inv.name}.out"
    if not inv.check(out.decode()):
        return "wrong verdict"
    missed = {fid: counts for fid, counts in result.get("selftest", {}).items()
              if counts[0] != counts[1]}
    if missed:
        return f"wrapper/profiler call counts differ: {missed}"
    return ""


def run_pass(invocations, mode: str, run_end: float) -> list[Child]:
    return [spawn(inv, mode, run_end) for inv in invocations]


def end_to_end(children: list[Child]) -> dict[str, float]:
    return {
        "wall_s": sum(c.main_s for c in children),
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
        "setup_s": sum(c.setup_s for c in children),
    }


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
FASTEST_PASS = {"wall_s", "cpu_s"}
# cpu_s is printed but left out of the result: here it moves with wall_s
# and spreads at least as much from run to run, so it adds no signal
REPORTED_E2E = ("wall_s", "peak_rss_mb", "setup_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# layer -> the fields of its summed records reported as "<layer>.<field>"
REPORTED = {
    "std_semantics.build_lts": ("s", "calls", "states", "edges"),
    "cose.concretize": ("s", "states"),
    "analysis.strong_bisim": ("s", "calls"),
    "lts.rename_lts": ("s", "calls"),
    "analysis.refines": ("s", "calls"),
    "analysis.normalise": ("s", "nodes"),
    "analysis.divergence_free": ("s",),
    "ssos.build_sslts": ("s", "states"),
    "reduction.compute_thresholds": ("s",),
    "reduction.phi": ("s",),
    "conditions": ("s",),
    "parser.parse_file": ("s",),
}


def layer_metrics(children: list[Child]) -> dict[str, float]:
    layers: dict[str, dict] = {}
    for c in children:
        for name, fields in c.result["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(fields, 0))
            for k, v in fields.items():
                acc[k] += v
    out = {f"{layer}.{f}": layers[layer][f]
           for layer, fields in REPORTED.items() for f in fields}
    build = layers["std_semantics.build_lts"]
    out["std_semantics.build_lts.states_per_s"] = _ratio(build["states"], build["s"])
    out["std_semantics.build_lts.repeat_share"] = _ratio(build["repeats"], build["calls"])
    out["cli.self_s"] = sum(c.result["root_self_s"] for c in children)
    return out


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "ratio"
    return "s" if name.endswith((".s", "_s")) else "count"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.4f}  q3 {q3:.4f}"


def _report_failures(children: list[Child]) -> int:
    failed = [c for c in children if c.error]
    for c in failed:
        print(f"FAILED [{c.mode}] {c.inv.name}: {c.error}")
    return len(failed)


def _repeat(step, seconds: float, start: float, run_end: float) -> None:
    """Call step() until `seconds` have gone by, at least once, stopping
    early if another step would overrun the run's time limit."""
    while True:
        t0 = _now()
        step()
        if _now() - start >= seconds or _now() + (_now() - t0) > run_end:
            return


def untraced_run(order, seconds: float, start: float) -> tuple[dict, list[Child]]:
    passes: list[list[Child]] = []
    run_end = start + RUN_LIMIT_S
    _repeat(lambda: passes.append(run_pass(order, "plain", run_end)),
            seconds, start, run_end)
    rows = [end_to_end(p) for p in passes]
    print(f"{len(passes)} passes of {len(order)} invocations")
    metrics = {}
    for name, unit in E2E_UNITS.items():
        values = [r[name] for r in rows]
        # Other tenants of a shared machine only ever slow a pass down, so
        # the fastest pass is the steadiest estimate of the work's own cost;
        # set-up and memory are reported as medians.
        how, value = (("min", min(values)) if name in FASTEST_PASS
                      else ("median", statistics.median(values)))
        if name in REPORTED_E2E:
            metrics[name] = _metric(value, unit)
        print(f"  {name:<12} {value:10.4f} {unit:<3} ({how} of {len(values)})"
              f"  median {statistics.median(values):.4f}{_quartiles(values)}")
    return metrics, [c for p in passes for c in p]


def traced_run(order, seconds: float, start: float) -> tuple[dict, list[Child]]:
    run_end = start + RUN_LIMIT_S
    plain: list[list[Child]] = []
    traced: list[list[Child]] = []

    def pair():
        plain.append(run_pass(order, "plain", run_end))
        traced.append(run_pass(order, "trace", run_end))

    _repeat(pair, seconds, start, run_end)
    selftest = run_pass(order, "selftest", run_end)
    baseline = run_pass(BASELINE, "trace", run_end)
    everything = [c for p in plain + traced for c in p] + selftest + baseline
    if any(c.error for c in everything):
        return {}, everything

    # the fastest traced pass, for the same reason as wall_s; its layer
    # times add up to its wall time
    fastest = min(traced, key=lambda p: end_to_end(p)["wall_s"])
    layers = layer_metrics(fastest)
    wall = end_to_end(fastest)["wall_s"]
    layers["trace.overhead_s"] = wall - min(end_to_end(p)["wall_s"] for p in plain)
    baseline_lines = []
    for c in baseline:
        n = c.inv.argv[-1]
        build = c.result["layers"]["std_semantics.build_lts"]
        layers[f"baseline.mutex_impl_{n}.build_lts.s"] = build["s"]
        layers[f"baseline.mutex_impl_{n}.build_lts.states"] = build["states"]
        baseline_lines.append(
            f"baseline build_lts(mutex, Impl, {n}): {build['s']:.3f} s, "
            f"{build['states']} states, {_ratio(build['states'], build['s']):.0f} states/s")

    print(f"{len(traced)} traced and {len(plain)} untraced passes; traced wall "
          f"{wall:.4f} s, overhead {layers['trace.overhead_s']:+.4f} s")
    print(f"  {'layer self time':<34} {'s':>9} {'share':>7}")
    for name in sorted((k for k in layers if k.endswith(".s")
                        and not k.startswith("baseline.")), key=lambda k: -layers[k]):
        print(f"  {name[:-2]:<34} {layers[name]:9.4f} {_ratio(layers[name], wall):7.1%}")
    print(f"  {'cli (self)':<34} {layers['cli.self_s']:9.4f} "
          f"{_ratio(layers['cli.self_s'], wall):7.1%}")
    functions = {fid for c in selftest for fid in c.result["selftest"]}
    print(f"self-test: wrapper and sys.setprofile call counts agree for "
          f"{len(functions)} functions over {len(selftest)} invocations")
    print("\n".join(baseline_lines))
    return {k: _metric(v, _unit(k)) for k, v in layers.items()}, everything


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pcsp" / "cli.py").is_file():
        print(f"error: no pcsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    order = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(order)
    print(f"workload {args.workload}, seed {args.seed}, order: "
          + ", ".join(inv.name for inv in order))
    # compile the package's bytecode once, as an install would, so that the
    # first pass's set-up time is not inflated by it
    subprocess.run([sys.executable, "-c", "import pcsp.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    start = _now()
    run = traced_run if args.trace else untraced_run
    metrics, children = run(order, args.seconds, start)
    failed = _report_failures(children)
    print(f"  failed_share {_ratio(failed, len(children)):.4f} ratio "
          f"({failed}/{len(children)} invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": len(children),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
