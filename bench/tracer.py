"""Spans around the public functions of capmach, recorded from outside.

``Tracer.install`` wraps every public function and method of the timed
modules and patches each name where its callers look it up: a module
that did ``from .core import dec_instr`` keeps its own binding, so the
wrapper replaces every binding of the original object in every capmach
module and in the benchmark's own modules.  ``uninstall`` puts the
originals back.

A span records its name, start, end, parent span and the operation it
belongs to.  The first ``raw_limit`` spans are kept whole; all spans are
also aggregated per (name, parent name), which is what the per-layer
metrics read.  A layer's self time is its span time minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TIMED_MODULES = ("core", "machine", "source", "asm", "components", "harness")


class Tracer:
    def __init__(self, raw_limit=50_000):
        self.raw_limit = raw_limit
        self.raw = []      # (id, op, name, parent id, start ns, end ns)
        self.agg = {}      # (name, parent name) -> [calls, incl ns, self ns]
        self.probes = {}   # probe key -> [calls, ns, amount]
        self.op = 0
        self._stack = []   # open spans: [name, child ns, id]
        self._next_id = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        stack = self._stack
        agg = self.agg
        raw = self.raw
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, 0, self._next_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent else None)
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if len(raw) < self.raw_limit:
                    raw.append((frame[2], self.op, name,
                                parent[2] if parent else None, t0, t1))
            if probe is not None:
                for k, n in probe(args, result):
                    p = self.probes.setdefault(k, [0, 0, 0])
                    p[0] += 1
                    p[1] += dt
                    p[2] += n
            return result
        return span

    # -- installation ------------------------------------------------------

    def install(self, bench_modules=(), probes=None):
        """Wrap the timed modules' public functions and methods.

        ``probes`` maps a span name to a function of (args, result) that
        yields (probe key, amount) pairs: the span's time is added to each
        key, and the amount to the key's total (cells copied, steps...).
        """
        probes = probes or {}
        originals = {}
        for short in TIMED_MODULES:
            mod = sys.modules[f"capmach.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(
                        name, obj, probes.get(name)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m, fn in list(vars(obj).items()):
                        if m.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{short}.{attr}.{m}"
                        wrapped = self._wrap(name, fn, probes.get(name))
                        setattr(obj, m, wrapped)
                        self._patched.append((obj, m, fn))
        holders = [m for n, m in list(sys.modules.items())
                   if n == "capmach" or n.startswith("capmach.")]
        holders += list(bench_modules)
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for holder, attr, obj in reversed(self._patched):
            setattr(holder, attr, obj)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def totals(self):
        """name -> [calls, incl ns, self ns], summed over parents."""
        out = {}
        for (name, _), (calls, incl, self_ns) in self.agg.items():
            t = out.setdefault(name, [0, 0, 0])
            t[0] += calls
            t[1] += incl
            t[2] += self_ns
        return out

    def dump(self):
        """Everything recorded, as plain data for a JSON file."""
        return {
            "spans": [dict(zip(("id", "op", "name", "parent", "start_ns",
                                "end_ns"), s)) for s in self.raw],
            "spans_dropped": max(0, self._next_id - len(self.raw)),
            "aggregate": [{"name": n, "parent": p, "calls": c,
                           "incl_ns": i, "self_ns": s}
                          for (n, p), (c, i, s) in sorted(
                              self.agg.items(), key=lambda kv: -kv[1][2])],
            "probes": {k: {"calls": c, "ns": ns, "amount": a}
                       for k, (c, ns, a) in sorted(self.probes.items())},
        }
