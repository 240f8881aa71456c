"""The benchmark's workloads: how each builds its inputs and runs one
operation.  All are closed loop: one caller, one process, the next
operation starts when the previous one has been checked.

An operation is one differential check: the same program on the source
(overlay) and the target (bare) machine, with the verdict and step
counts compared against ``oracle``.  Every machine run goes through
``capmach.harness.run_report``, looked up on the module at call time, so
the measurement loop can time each machine there.
"""

from __future__ import annotations

import random

from capmach import fixtures, harness
from capmach.components import (
    format_component, initial_config, link, parse_component,
    validate_component,
)
from capmach.core import GlobalConstants

import oracle
import programs

SPIN_FUEL = 2_000
CALLS = 4            # secure calls per call-stack operation
WIDTH = 8            # mean stack cells each callback stores and reloads
STACK_CELLS = 16 * 1024


def _containers(trusted, context):
    """Round-trip both components through the container format, as the
    ``capmach diff`` command reads them."""
    return (parse_component(format_component(trusted)),
            parse_component(format_component(context)))


def _prepare(trusted, context, e_stk):
    """Validate, link and build both initial configurations."""
    gc = GlobalConstants(frozenset(trusted.ms_code), fixtures.STK_BASE)
    diags = validate_component(trusted, gc) + validate_component(context, gc)
    if diags:
        raise ValueError("benchmark program does not validate:\n"
                         + "\n".join(diags))
    prog = link(trusted, context)
    return gc, {kind: initial_config(prog, kind, fixtures.STK_BASE, e_stk)
                for kind in ("source", "target")}


def _run_both(gc, cfgs, fuel):
    return (harness.run_report(cfgs["source"], "source", gc, fuel),
            harness.run_report(cfgs["target"], "target", gc, fuel))


class CorpusDiff:
    """Passes over the 10 terminating corpus programs and the 4 attack
    scenarios, in an order the seed shuffles anew for every pass.

    A corpus operation parses both container texts and runs ``run_diff``
    with validation and paranoid checks; a scenario operation is its
    ``fixtures.SCENARIOS`` entry.
    """

    name = "corpus-diff"

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup(self):
        self.texts = {name: (format_component(t), format_component(c))
                      for name, t, c in fixtures.corpus() if name != "spin"}
        if set(self.texts) != set(oracle.CORPUS):
            raise ValueError("corpus and oracle name different programs")
        self.items = sorted(self.texts) + sorted(fixtures.SCENARIOS)

    def next_pass(self):
        order = list(self.items)
        self.rng.shuffle(order)
        return order

    def run(self, item) -> bool:
        if item in fixtures.SCENARIOS:
            return oracle.check_scenario(item, fixtures.SCENARIOS[item]())
        trusted_text, context_text = self.texts[item]
        verdict = harness.run_diff(
            parse_component(trusted_text), parse_component(context_text),
            fixtures.STK_BASE, fixtures.STK_END, validate=True, paranoid=True)
        return oracle.check_corpus(item, verdict)


class Spin:
    """The ``spin`` fixture on both machines at a fixed fuel, paranoid
    checks off.  The seed changes nothing: the program has no input."""

    name = "spin"

    def __init__(self, seed):
        self.fuel = SPIN_FUEL

    def setup(self):
        trusted, context = _containers(*dict(fixtures.CORPUS)["spin"]())
        self.gc, self.cfgs = _prepare(trusted, context, fixtures.STK_END)

    def next_pass(self):
        return ("spin",)

    def run(self, item) -> bool:
        src, trg = _run_both(self.gc, self.cfgs, self.fuel)
        return oracle.check_spin(src, trg, self.fuel)


class CallStack:
    """A trusted loop of ``calls`` secure calls into a context callback
    that stores to and reloads cells of its own stack, on a stack of
    ``stack`` cells, paranoid checks off.  The seed sets the stored
    values and how the ``calls * width`` swept cells split across calls.
    """

    name = "call-stack"

    def __init__(self, seed, calls=CALLS, width=WIDTH, stack=STACK_CELLS):
        self.plan = programs.sweep_plan(seed, calls, width)
        self.stack = stack

    def setup(self):
        trusted, context = _containers(*programs.call_stack_program(self.plan))
        self.gc, self.cfgs = _prepare(
            trusted, context, fixtures.STK_BASE + self.stack - 1)
        self.fuel = max(oracle.call_stack_steps(self.plan))

    def next_pass(self):
        return ("call-stack",)

    def run(self, item) -> bool:
        src, trg = _run_both(self.gc, self.cfgs, self.fuel)
        return oracle.check_call_stack(src, trg, self.plan)


WORKLOADS = {w.name: w for w in (CorpusDiff, Spin, CallStack)}
