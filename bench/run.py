"""capmach benchmark: differential checks on the source and target
machines, end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 bench/run.py --workload corpus-diff --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports capmach from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's context (Python version, CPU count, host steal time)
and the exact counts behind the metrics.  A traced run also writes its
spans to ``.bench_out/``.  See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracer import TIMED_MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_INTERVAL_S = 0.5
UNTRACED_SHARE = 0.3       # of --seconds, in a traced run
STACK_POINTS = {"64": 64, "1k": 1024, "16k": 16 * 1024, "64k": 64 * 1024}
CODE_POINTS = {"100": 100, "1k": 1000, "4k": 4000}
SCALE_CALLS, SCALE_WIDTH = 4, 16
SCALE_BUDGET_S = 0.5       # host time spent on each scaling point
FAMILIES = {
    "move": ("exec_move",),
    "arith": ("exec_lt", "exec_plus", "exec_minus"),
    "ptr": ("exec_cca", "exec_restrict", "exec_seta2b"),
    "get": ("exec_gettype", "exec_geta", "exec_getb", "exec_gete",
            "exec_getp", "exec_getlin"),
    "mem": ("exec_store", "exec_load"),
    "jump": ("exec_jmp", "exec_jnz", "exec_xjmp"),
    "split": ("exec_split", "exec_splice"),
    "seal": ("exec_cseal",),
}


def _import_capmach():
    src = ROOT / "src"
    if not (src / "capmach" / "__init__.py").is_file():
        sys.exit(f"error: no capmach sources under {src}")
    sys.path.insert(0, str(src))


def _steal_ticks():
    """(steal, total) jiffies of the host since boot, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(x) for x in fields[1:]]
    return ticks[7], sum(ticks[:8])


# ---------------------------------------------------------------------------
# Measurement

class MachineClock:
    """Times every ``harness.run_report`` call per machine: the patch is
    two clock reads per machine run, so it stays in untraced runs."""

    def __init__(self):
        self.seconds = {"source": 0.0, "target": 0.0}
        self.steps = {"source": 0, "target": 0}

    def __enter__(self):
        from capmach import harness
        self._orig = orig = harness.run_report

        def run_report(cfg, machine_kind, *args, **kwargs):
            t0 = time.perf_counter()
            report = orig(cfg, machine_kind, *args, **kwargs)
            self.seconds[machine_kind] += time.perf_counter() - t0
            self.steps[machine_kind] += report.steps
            return report
        harness.run_report = run_report
        return self

    def __exit__(self, *exc):
        from capmach import harness
        harness.run_report = self._orig


class Session:
    """Runs a workload in whole passes and keeps every time twice: as
    measured and at the reference host speed (see ``hostspeed``).

    A set-up is timed about every ``SETUP_INTERVAL_S`` between untraced
    passes, so that set-up samples see the same host as the operations.
    """

    def __init__(self, workload):
        self.workload = workload
        self.speed = HostSpeed()
        self.setups = []          # (raw s, reference s)
        self.latencies = []       # (raw s, reference s)
        self.machine_s = {"source": 0.0, "target": 0.0}   # reference s
        self.failed = 0
        self._next_setup = float("-inf")

    def setup(self):
        t0 = time.perf_counter()
        self.workload.setup()
        dt = time.perf_counter() - t0
        self.speed.tick()
        self.setups.append((dt, dt * self.speed.factor()))
        self._next_setup = time.perf_counter() + SETUP_INTERVAL_S

    def run(self, seconds, clock=None, tracer=None):
        """Whole passes until ``seconds`` have gone.  Whole passes keep
        the corpus mix, and so every per-operation count, the same in
        every run."""
        first = len(self.latencies)
        deadline = time.perf_counter() + seconds
        while True:
            for item in self.workload.next_pass():
                if tracer is not None:
                    tracer.op += 1
                before = dict(clock.seconds) if clock else None
                t0 = time.perf_counter()
                ok = self.workload.run(item)
                dt = time.perf_counter() - t0
                self.speed.tick()
                f = self.speed.factor()
                self.latencies.append((dt, dt * f))
                self.failed += not ok
                if clock:
                    for kind, s in clock.seconds.items():
                        self.machine_s[kind] += (s - before[kind]) * f
            now = time.perf_counter()
            if now >= deadline:
                return self.latencies[first:]
            if tracer is None and now >= self._next_setup:
                self.setup()


def _percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def end_to_end(workload, seconds):
    session = Session(workload)
    session.setup()
    session.run(0)                          # warm-up pass, not counted
    session.latencies.clear()
    with MachineClock() as clock:
        session.run(seconds, clock)
    lat = [ref for _, ref in session.latencies]
    steps = clock.steps
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in session.setups), "s"),
        "diff_per_s": (len(lat) / sum(lat), "1/s"),
        "diff_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "diff_p90_ms": (_percentile(lat, 0.9) * 1e3, "ms"),
        "source_kstep_s": (steps["source"] / session.machine_s["source"] / 1e3,
                           "kstep/s"),
        "target_kstep_s": (steps["target"] / session.machine_s["target"] / 1e3,
                           "kstep/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    raw = [r for r, _ in session.latencies]
    detail = {
        "samples": len(lat),
        "setup_samples": len(session.setups),
        "steps.source": steps["source"],
        "steps.target": steps["target"],
        "raw.setup_s": statistics.median(r for r, _ in session.setups),
        "raw.diff_per_s": len(raw) / sum(raw),
        "raw.diff_p50_ms": statistics.median(raw) * 1e3,
        "raw.diff_p90_ms": _percentile(raw, 0.9) * 1e3,
        "raw.source_kstep_s": steps["source"] / clock.seconds["source"] / 1e3,
        "raw.target_kstep_s": steps["target"] / clock.seconds["target"] / 1e3,
        "host_speed": sum(raw) and sum(lat) / sum(raw),
    }
    return metrics, len(lat), session.failed, detail


# ---------------------------------------------------------------------------
# Traced run

def _probes():
    def hit(key):
        return lambda args, r: ((f"{key}.{'miss' if r is None else 'hit'}", 0),)

    def cells(field):
        return lambda args, r: (("cfg_copy", len(getattr(args[0], field))),)

    return {
        "asm.call_cond": hit("call_cond"),
        "source.SourceExtension.recognize_call": hit("recognize_call"),
        "source.SourceExtension.xjump_result":
            lambda args, r: (("return", 0),) if r is not None else (),
        "machine.TargetConfig.with_regs": cells("reg"),
        "machine.TargetConfig.with_mem_cell": cells("mem"),
        "source.SourceConfig.with_regs": cells("reg"),
        "source.SourceConfig.with_mem_cell": cells("mem"),
        "source.SourceConfig.with_stk_cell": cells("ms_stk"),
        "harness.run_report":
            lambda args, r: ((f"steps.{args[1]}", r.steps),),
        "components.validate_component":
            lambda args, r: (("validate_cells", len(args[0].ms_code)),),
        "asm.find_hidden_calls":
            lambda args, r: (("hidden_cells", len(args[0])),),
    }


def _layer_metrics(traced, ops, op_ns, setup_tracer):
    """Per-layer metrics from the traced operations (``traced``) and
    one traced set-up (``setup_tracer``)."""
    tot = traced.totals()
    both = setup_tracer.totals()
    for name, t in tot.items():
        b = both.setdefault(name, [0, 0, 0])
        b[0] += t[0]
        b[1] += t[1]

    def probe(key, tracer=traced):
        return tracer.probes.get(key, [0, 0, 0])

    def calls(name):
        return tot.get(name, [0])[0] / ops

    def mean_us(count, ns):
        return ns / count / 1e3 if count else 0.0

    def us(name, table=tot):
        c, ns = table.get(name, [0, 0])[:2]
        return mean_us(c, ns)

    src_steps = probe("steps.source")[2]
    trg_steps = probe("steps.target")[2]
    steps = src_steps + trg_steps
    m = {}
    m["core.dec_instr.calls"] = (calls("core.dec_instr"), "1/op")
    m["core.dec_instr.us"] = (us("core.dec_instr"), "us")
    m["core.dec_instr.per_step"] = (
        tot.get("core.dec_instr", [0])[0] / steps if steps else 0.0, "1/step")
    step_calls, _, step_self = tot.get("machine.step", [0, 0, 0])
    m["machine.step.calls"] = (step_calls / ops, "1/op")
    m["machine.step.self_us"] = (mean_us(step_calls, step_self), "us")
    for fam, fns in FAMILIES.items():
        c = sum(tot.get(f"machine.{f}", [0])[0] for f in fns)
        ns = sum(tot.get(f"machine.{f}", [0, 0])[1] for f in fns)
        m[f"machine.exec_instr.{fam}.calls"] = (c / ops, "1/op")
        m[f"machine.exec_instr.{fam}.us"] = (mean_us(c, ns), "us")
    c, ns, cells = probe("cfg_copy")
    m["machine.cfg_copy.calls"] = (c / ops, "1/op")
    m["machine.cfg_copy.us"] = (mean_us(c, ns), "us")
    m["machine.cfg_copy.cells_per_step"] = (cells / steps if steps else 0.0,
                                            "cells/step")
    hits, misses = probe("recognize_call.hit")[0], probe("recognize_call.miss")[0]
    m["source.recognize_call.calls"] = ((hits + misses) / ops, "1/op")
    m["source.recognize_call.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["asm.call_cond.miss_us"] = (mean_us(*probe("call_cond.miss")[:2]), "us")
    m["asm.call_cond.hit_us"] = (mean_us(*probe("call_cond.hit")[:2]), "us")
    m["source.exec_call.calls"] = (calls("source.exec_call"), "1/op")
    m["source.exec_call.us"] = (us("source.exec_call"), "us")
    ret = probe("return")
    m["source.return.calls"] = (ret[0] / ops, "1/op")
    m["source.return.us"] = (mean_us(*ret[:2]), "us")
    for name, key in (("components.validate_component", "validate_cells"),
                      ("asm.find_hidden_calls", "hidden_cells")):
        n = probe(key)[2] + probe(key, setup_tracer)[2]
        ns = both.get(name, [0, 0])[1]
        m[f"{name}.us_per_cell"] = (ns / n / 1e3 if n else 0.0, "us/cell")
    for short in ("link", "initial_config", "parse_component"):
        m[f"components.{short}.us"] = (us(f"components.{short}", both), "us")
    lin = tot.get("harness.check_linearity", [0, 0])
    part = tot.get("harness.check_stack_partition", [0, 0])
    m["harness.check_linearity.calls"] = (lin[0] / ops, "1/op")
    m["harness.check_linearity.us"] = (mean_us(*lin[:2]), "us")
    m["harness.check_stack_partition.us"] = (mean_us(*part[:2]), "us")
    m["harness.paranoid.share"] = ((lin[1] + part[1]) / op_ns, "share")
    m["harness.run_report.self_us"] = (
        tot.get("harness.run_report", [0, 0, 0])[2] / steps / 1e3
        if steps else 0.0, "us/step")
    m["steps.source"] = (src_steps / ops, "1/op")
    m["steps.target"] = (trg_steps / ops, "1/op")
    m["calls.source"] = (calls("source.exec_call"), "1/op")
    for mod in TIMED_MODULES:
        self_ns = sum(t[2] for n, t in tot.items() if n.split(".")[0] == mod)
        m[f"share.{mod}"] = (self_ns / op_ns, "share")
    m["asm.find_hidden_calls.self_share"] = (
        tot.get("asm.find_hidden_calls", [0, 0, 0])[2] / op_ns, "share")
    return m


def _median_time(fn, speed):
    """Median time of ``fn()`` at the reference host speed, repeated
    until ``SCALE_BUDGET_S`` host seconds have gone (at least once), and
    ``fn``'s last result."""
    raw, ref = [], []
    while sum(raw) < SCALE_BUDGET_S:
        t0 = time.perf_counter()
        result = fn()
        raw.append(time.perf_counter() - t0)
        speed.calibrate()
        ref.append(raw[-1] * speed.factor())
    return statistics.median(ref), result


def scaling_points(probes):
    """Time against size, untraced and at the reference host speed: µs
    per step of the call-stack program against stack size, and µs per
    cell of validation against code size.  One extra traced run per
    stack size counts the cells that config updates copy.  Every point
    also checks its outputs."""
    from capmach import fixtures
    from capmach.components import validate_component
    from capmach.core import GlobalConstants
    import oracle
    import programs
    from workloads import CallStack, _run_both

    speed = HostSpeed()
    m = {}
    ok = True
    for label, cells in STACK_POINTS.items():
        w = CallStack(0, SCALE_CALLS, SCALE_WIDTH, cells)
        w.setup()
        dt, (src, trg) = _median_time(
            lambda: _run_both(w.gc, w.cfgs, w.fuel), speed)
        ok &= oracle.check_call_stack(src, trg, w.plan)
        steps = src.steps + trg.steps
        m[f"machine.step_us.stack_{label}"] = (dt / steps * 1e6, "us/step")
        tracer = Tracer(raw_limit=0)
        tracer.install(probes=probes)
        try:
            _run_both(w.gc, w.cfgs, w.fuel)
        finally:
            tracer.uninstall()
        m[f"machine.cfg_copy.cells_per_step.stack_{label}"] = (
            tracer.probes["cfg_copy"][2] / steps, "cells/step")
    for label, cells in CODE_POINTS.items():
        comp = programs.synthetic_trusted(cells)
        gc = GlobalConstants(frozenset(comp.ms_code), fixtures.STK_BASE)
        dt, diags = _median_time(lambda: validate_component(comp, gc), speed)
        ok &= diags == []
        m[f"components.validate_us_per_cell.code_{label}"] = (
            dt / cells * 1e6, "us/cell")
    return m, ok


def per_layer(workload, seconds, out_path):
    import oracle
    import programs
    import workloads

    session = Session(workload)
    session.setup()
    untraced = [ref for _, ref in session.run(seconds * UNTRACED_SHARE)]
    bench_modules = (oracle, programs, workloads)
    probes = _probes()

    setup_tracer = Tracer()
    setup_tracer.install(bench_modules, probes)
    try:
        workload.setup()
    finally:
        setup_tracer.uninstall()

    tracer = Tracer()
    tracer.install(bench_modules, probes)
    try:
        traced = session.run(seconds * (1 - UNTRACED_SHARE), tracer=tracer)
    finally:
        tracer.uninstall()

    op_ns = sum(raw for raw, _ in traced) * 1e9
    metrics = _layer_metrics(tracer, len(traced), op_ns, setup_tracer)
    metrics["trace.overhead_x"] = (
        statistics.mean(ref for _, ref in traced) / statistics.mean(untraced),
        "x")
    scaled, scale_ok = scaling_points(probes)
    metrics.update(scaled)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"setup": setup_tracer.dump(), "ops": tracer.dump()}, fh)
    detail = {"samples.untraced": len(untraced), "samples.traced": len(traced),
              "trace_file": str(out_path)}
    attempted = len(untraced) + len(traced) + 1
    return metrics, attempted, session.failed + (not scale_ok), detail


# ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    _import_capmach()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    steal0 = _steal_ticks()
    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        metrics, attempted, failed, detail = per_layer(workload, args.seconds, out)
    else:
        metrics, attempted, failed, detail = end_to_end(workload, args.seconds)
    steal1 = _steal_ticks()

    context = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "workload": args.workload, "seed": args.seed}
    if steal0 and steal1:
        hz = os.sysconf("SC_CLK_TCK")
        context["host_steal_ms"] = (steal1[0] - steal0[0]) * 1e3 / hz
        total = steal1[1] - steal0[1]
        context["host_steal_share"] = (steal1[0] - steal0[0]) / total if total else 0.0
    print(json.dumps({"context": context, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
