"""Differential runner and per-step invariant checks.

A diff run plugs the same trusted/context pair into both machines and
compares termination behaviour; the observables are termination-based,
so fuel exhaustion stands in for divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .components import Component, initial_config, link, is_program, \
    validate_component
from .core import PC, GlobalConstants, MemCap, dec_instr, linear_overlaps, \
    linear_range
from .machine import Failed, Halted, NULL_EXTENSION, step
from .source import SOURCE_EXTENSION, SourceConfig

DEFAULT_FUEL = 100_000


class ValidationFailure(Exception):
    def __init__(self, diagnostics):
        super().__init__("\n".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunReport:
    outcome: str                 # halted | failed | fuel-exhausted
    steps: int
    violations: list = field(default_factory=list)
    final_cfg: object = None
    trace: Optional[list] = None


@dataclass
class DiffVerdict:
    source: RunReport
    target: RunReport
    agreement: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Invariant checks

def check_linearity(cfg) -> list:
    """``(addr, earlier, later)`` for each linear capability that shares
    an address with another one anywhere in a configuration: registers,
    memory, stack memory and saved frames (see ``core.linear_overlaps``)."""
    places = [("reg", cfg.reg), ("mem", cfg.mem), ("stk", cfg.ms_stk)]
    places += [(f"frame {i} addr", f.ms) for i, f in enumerate(cfg.stk)]
    owners = []
    for name, cells in places:
        for k, w in cells.items():
            if isinstance(w, int):
                continue
            r = linear_range(w)
            if r is not None:
                owners.append((r[0], r[1], f"{name} {k}"))
    return linear_overlaps(owners)


def check_stack_partition(cfg: SourceConfig) -> list:
    """The stack regions ``ms_stk``, frame 0, frame 1, ... rise
    strictly, which makes them disjoint, and none shares an address with
    ``mem``.  A configuration without stack regions (the target's)
    passes at once."""
    regions = [("ms_stk", cfg.ms_stk)] if cfg.ms_stk else []
    regions += [(f"frame {i}", f.ms) for i, f in enumerate(cfg.stk) if f.ms]
    out = []
    if not regions:
        return out
    mem = cfg.mem.keys()
    below = None     # (name, top address) of the region below
    for name, cells in regions:
        dom = cells.keys()
        if not mem.isdisjoint(dom):
            out.append(f"{name} overlaps mem at {sorted(mem & dom)[:4]}")
        if below is not None and min(dom) <= below[1]:
            out.append(f"{name} not above {below[0]}")
        below = (name, max(dom))
    return out


# ---------------------------------------------------------------------------
# Running

@dataclass(frozen=True)
class TraceRecord:
    step: int
    pc_addr: object
    instr: str
    outcome: str


def current_instr_repr(cfg) -> str:
    pc = cfg.reg[PC]
    if not isinstance(pc, MemCap):
        return "<no pc cap>"
    w = cfg.mem.get(pc.addr)
    return repr(dec_instr(w)) if w is not None else "<unmapped>"


def run_report(cfg, machine_kind: str, gc: GlobalConstants,
               fuel: int = DEFAULT_FUEL, paranoid: bool = False,
               want_trace: bool = False) -> RunReport:
    """Step ``cfg`` on one machine until it halts, fails or runs out of
    ``fuel``.  ``paranoid`` checks both invariants before every step;
    ``want_trace`` records one TraceRecord per step."""
    ext = SOURCE_EXTENSION if machine_kind == "source" else NULL_EXTENSION
    trace = [] if want_trace else None
    violations: list = []
    steps = 0
    while steps < fuel:
        if paranoid:
            for dup in check_linearity(cfg):
                violations.append(f"step {steps}: duplicated linear addr {dup}")
            for v in check_stack_partition(cfg):
                violations.append(f"step {steps}: {v}")
        nxt = step(cfg, ext, gc)
        steps += 1
        if want_trace:
            pc = cfg.reg[PC]
            pc_addr = pc.addr if isinstance(pc, MemCap) else None
            trace.append(TraceRecord(steps, pc_addr, current_instr_repr(cfg),
                                     nxt.kind))
        if isinstance(nxt, Halted):
            return RunReport("halted", steps, violations, cfg, trace)
        if isinstance(nxt, Failed):
            return RunReport("failed", steps, violations, cfg, trace)
        cfg = nxt.cfg
    return RunReport("fuel-exhausted", steps, violations, cfg, trace)


def format_trace(machine_kind: str, records) -> str:
    """One tab-separated line per record: step, machine, pc, instr,
    outcome."""
    return "".join(f"{r.step}\t{machine_kind}\t{r.pc_addr}\t"
                   f"{r.instr}\t{r.outcome}\n" for r in records)


def _outcomes_agree(a: str, b: str) -> bool:
    if a == "halted" or b == "halted":
        return a == b
    return True  # failed / fuel-exhausted both count as non-termination


def run_diff(trusted: Component, context: Component,
             b_stk: int, e_stk: int, fuel: int = DEFAULT_FUEL,
             check_stk_base: bool = True, paranoid: bool = False,
             want_trace: bool = False, validate: bool = True) -> DiffVerdict:
    gc = GlobalConstants(frozenset(trusted.ms_code), b_stk, check_stk_base)
    if validate:
        diags = validate_component(trusted, gc) + validate_component(context, gc)
        if diags:
            raise ValidationFailure(diags)
    prog = link(trusted, context)
    if not is_program(prog):
        raise ValidationFailure(["link\tprogram\tlink does not yield a program"])
    src = run_report(initial_config(prog, "source", b_stk, e_stk),
                     "source", gc, fuel, paranoid, want_trace)
    trg = run_report(initial_config(prog, "target", b_stk, e_stk),
                     "target", gc, fuel, paranoid, want_trace)
    agree = _outcomes_agree(src.outcome, trg.outcome)
    detail = "" if agree else (
        f"source {src.outcome} after {src.steps} steps, "
        f"target {trg.outcome} after {trg.steps} steps")
    return DiffVerdict(src, trg, agree, detail)


# ---------------------------------------------------------------------------
# Observations (for round-trip comparisons)

def visible_observations(src_cfg: SourceConfig, trg_cfg: SourceConfig):
    """(mismatches, shared-int-register map) between two final states.

    Registers compare as ints; capability-shaped values are
    representation-dependent (token vs capability) and are skipped.
    Memory compares on the source's domain (the target additionally
    maps the stack).
    """
    mismatches = []
    ints = {}
    for r in src_cfg.reg:
        a, b = src_cfg.reg[r], trg_cfg.reg[r]
        if isinstance(a, int) or isinstance(b, int):
            if a != b:
                mismatches.append(f"reg {r}: {a!r} vs {b!r}")
            else:
                ints[r] = a
    for addr in src_cfg.mem:
        a, b = src_cfg.mem[addr], trg_cfg.mem.get(addr)
        if a != b:
            mismatches.append(f"mem {addr}: {a!r} vs {b!r}")
    return mismatches, ints
