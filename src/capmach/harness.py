"""Differential runner and per-step invariant checks.

A diff run plugs the same trusted/context pair into both machines and
compares termination behaviour; the observables are termination-based,
so fuel exhaustion stands in for divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import is_not
from typing import Optional

from .components import Component, initial_config, link, is_program, \
    validate_component
from .core import PC, GlobalConstants, MemCap, dec_instr, linear_overlaps, \
    linear_range
from .machine import Failed, Halted, NULL_EXTENSION, Running, step
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

def _owner(name: str, k, w):
    """``(base, end, "name k")`` when the word ``w`` at place ``name k``
    owns addresses, else None: every check names its places here."""
    r = linear_range(w)
    return None if r is None else (r[0], r[1], f"{name} {k}")


def _owners(name: str, cells) -> dict:
    """``k -> owner`` for each linear word ``cells[k]`` (ints skipped
    before the call: most cells hold one)."""
    return {k: o for k, w in cells.items()
            if not isinstance(w, int) and (o := _owner(name, k, w))}


def _frame_owners(stk) -> list:
    return [o for i, f in enumerate(stk)
            for o in _owners(f"frame {i} addr", f.ms).values()]


def check_linearity(cfg) -> list:
    """``(addr, earlier, later)`` for each linear capability that shares
    an address with another one anywhere in a configuration: registers,
    memory, stack memory and saved frames (see ``core.linear_overlaps``)."""
    owners = _frame_owners(cfg.stk)
    for name, cells in (("reg", cfg.reg), ("mem", cfg.mem),
                        ("stk", cfg.ms_stk)):
        owners += _owners(name, cells).values()
    return linear_overlaps(owners)


def check_stack_partition(cfg: SourceConfig) -> list:
    """The stack regions ``ms_stk``, frame 0, frame 1, ... rise
    strictly, which makes them disjoint, and none shares an address with
    ``mem``.  A configuration without stack regions (the target's)
    passes at once."""
    return _partition(cfg, max(cfg.ms_stk, default=None))


def _partition(cfg, top) -> list:
    """``check_stack_partition(cfg)``, given ``top``, the highest address
    of ``ms_stk`` (None when it is empty)."""
    regions = [] if top is None else [("ms_stk", cfg.ms_stk, None, top)]
    regions += [(f"frame {i}", f.ms, min(f.ms), max(f.ms))
                for i, f in enumerate(cfg.stk) if f.ms]
    out = []
    mem = cfg.mem
    below = None     # (name, top address) of the region below
    for name, cells, lo, hi in regions:
        # walk the smaller side: the stack memory may be far larger
        small, big = (mem, cells) if len(mem) <= len(cells) else (cells, mem)
        shared = [a for a in small if a in big]
        if shared:
            out.append(f"{name} overlaps mem at {sorted(shared)[:4]}")
        if below is not None and lo <= below[1]:
            out.append(f"{name} not above {below[0]}")
        below = (name, hi)
    return out


def _top(cells, top, moved):
    """The highest address of ``cells``, from ``top``, the highest before
    the addresses ``moved`` were added or removed.  When the top cell
    went, the walk down passes only removed addresses while the cells
    are contiguous; a gap falls back to a full scan."""
    for a in moved:
        if a in cells and (top is None or a > top):
            top = a
    if top is None or top in cells:
        return top
    for a in range(top - 1, top - 1 - len(moved), -1):
        if a in cells:
            return a
    return max(cells, default=None)


class _Invariants:
    """Both checks over the configurations of one run, kept up to date
    step by step at the cost of what each step changed.

    One full scan fills a table of linear owners per place; each later
    configuration updates it for the registers and cells that are not
    the same word object as before, and for the frames when ``stk`` is a
    new tuple (at a call or a return; rebuilding renumbers the frames).
    The overlaps are recomputed only when an owner changed, and the
    partition only when a memory's domain or the frames did, from the
    highest stack-memory address, which is kept up to date too.  ``at``
    answers what ``check_linearity`` and ``check_stack_partition``
    would.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.regs = _owners("reg", cfg.reg)
        self.mem = _owners("mem", cfg.mem)
        self.stk = _owners("stk", cfg.ms_stk)
        self.frames = _frame_owners(cfg.stk)
        self.overlaps = linear_overlaps(self._all())
        self.top = max(cfg.ms_stk, default=None)
        self.partition = _partition(cfg, self.top)

    def _all(self) -> list:
        return [*self.regs.values(), *self.mem.values(), *self.stk.values(),
                *self.frames]

    def at(self, cfg):
        """``(check_linearity(cfg), check_stack_partition(cfg))`` for a
        configuration that follows the last one asked about."""
        old, self.cfg = self.cfg, cfg
        if cfg is old:
            return self.overlaps, self.partition
        changed = domain = False
        reg, prev = cfg.reg, old.reg
        if len(reg) != len(prev):
            # with_regs appended a register the first configuration lacked
            self.regs = _owners("reg", reg)
            changed = True
        else:
            # with_regs keeps the key order, so the values line up
            for r in compress(reg, map(is_not, reg.values(), prev.values())):
                changed |= _reown(self.regs, "reg", r, reg[r])
        if cfg.stk is not old.stk:
            frames = _frame_owners(cfg.stk)
            changed |= frames != self.frames
            self.frames = frames
            domain = True
        if cfg.mem is not old.mem:
            c, moved = _recell(self.mem, "mem", cfg.mem, old.mem)
            changed |= c
            domain |= bool(moved)
        if cfg.ms_stk is not old.ms_stk:
            c, moved = _recell(self.stk, "stk", cfg.ms_stk, old.ms_stk)
            changed |= c
            if moved:
                domain = True
                self.top = _top(cfg.ms_stk, self.top, moved)
        if changed:
            self.overlaps = linear_overlaps(self._all())
        if domain:
            self.partition = _partition(cfg, self.top)
        return self.overlaps, self.partition


_MISSING = object()


def _recell(table: dict, name: str, new, prev):
    """Update ``table``, the owners of memory ``name``, from version
    ``prev`` to ``new``: (an owner changed, the addresses added or
    removed)."""
    changed, moved = False, []
    for a in new.changed_since(prev):
        w = new.get(a, _MISSING)
        if w is _MISSING or a not in prev:
            moved.append(a)
        changed |= _reown(table, name, a, w)
    return changed, moved


def _reown(table: dict, name: str, k, w) -> bool:
    """Set the owner of place ``name k`` in ``table`` to word ``w``
    (``_MISSING`` for a removed cell); True when it changed."""
    o = None if w is _MISSING or isinstance(w, int) else _owner(name, k, w)
    if o is None:
        return table.pop(k, None) is not None
    if table.get(k) == o:
        return False
    table[k] = o
    return True


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
    ``fuel``.  ``paranoid`` checks both invariants before every step
    (one full scan, then the changes of each step); ``want_trace``
    records one TraceRecord per step."""
    ext = SOURCE_EXTENSION if machine_kind == "source" else NULL_EXTENSION
    trace = [] if want_trace else None
    violations: list = []
    checks = _Invariants(cfg) if paranoid else None
    steps = 0
    while steps < fuel:
        if paranoid:
            dups, partition = checks.at(cfg)
            for dup in dups:
                violations.append(f"step {steps}: duplicated linear addr {dup}")
            for v in partition:
                violations.append(f"step {steps}: {v}")
        nxt = step(cfg, ext, gc)
        steps += 1
        if want_trace:
            pc = cfg.reg[PC]
            pc_addr = pc.addr if isinstance(pc, MemCap) else None
            trace.append(TraceRecord(steps, pc_addr, current_instr_repr(cfg),
                                     nxt.kind))
        if type(nxt) is Running:
            cfg = nxt.cfg
            continue
        if isinstance(nxt, Halted):
            return RunReport("halted", steps, violations, cfg, trace)
        if isinstance(nxt, Failed):
            return RunReport("failed", steps, violations, cfg, trace)
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
