"""Runs, their per-step invariant checks, and the differential runner.

``Run`` is the one loop over steps, and a caller steps it: ``run_report``
(with the paranoid checks when asked) and ``format_trace`` consume it.
A diff run plugs the same trusted/context pair into both machines and
compares termination behaviour; the observables are termination-based,
so fuel exhaustion stands in for divergence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from .asm import CALL_LEN, RET_PT_OFFSET
from .components import Component, diagnostics, initial_config, link
from .core import _NORMAL, PC, GlobalConstants, MemCap, Memory, \
    dec_instr, linear_overlaps, linear_range
from .machine import NULL_EXTENSION, Running, advance
from .source import SOURCE_EXTENSION, SourceConfig

DEFAULT_FUEL = 100_000
# The target's steps beyond the source's one per atomic call: the call
# macro's cells before its xjmp, which sits just before the return code
_CALL_EXTRA = RET_PT_OFFSET - 1
# and per return: the return code's cells, less the ``fail`` it jumps over
_RETURN_EXTRA = CALL_LEN - RET_PT_OFFSET - 1
# machine kind -> the extension its steps run under
_EXTENSIONS = {"source": SOURCE_EXTENSION, "target": NULL_EXTENSION}


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
    calls: int = 0               # atomic calls, on the source
    returns: int = 0             # return-token jumps, on the source


@dataclass
class DiffVerdict:
    source: RunReport
    target: RunReport
    agreement: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Invariant checks

def _owners(name: str, cells: dict) -> dict:
    """``k -> (base, end, "name k")`` for each linear word ``cells[k]``
    (ints skipped before the call: most cells hold one); every check
    names its places this way.  Of a memory, only ``written`` cells own."""
    return {k: (r[0], r[1], f"{name} {k}") for k, w in cells.items()
            if not isinstance(w, int) and (r := linear_range(w))}


def check_stack_partition(cfg: SourceConfig) -> list:
    """The stack regions ``ms_stk``, frame 0, frame 1, ... rise
    strictly, which makes them disjoint, and none shares an address with
    ``mem``.  A configuration without stack regions (the target's)
    passes at once.  It costs O(runs) of the memories' domains."""
    regions = [("ms_stk", cfg.ms_stk.domain)]
    regions += [(f"frame {i}", f.ms.domain) for i, f in enumerate(cfg.stk)]
    out = []
    below = None     # (name, top address) of the region below
    for name, domain in regions:
        if not (ends := domain.bounds()):
            continue
        if shared := domain & cfg.mem.domain:
            out.append(f"{name} overlaps mem at {list(islice(shared, 4))}")
        if below is not None and ends[0] <= below[1]:
            out.append(f"{name} not above {below[0]}")
        below = (name, ends[1])
    return out


_NOTHING = SourceConfig(Memory(), {})   # no registers, cells or frames


class _Invariants:
    """The linearity check (``core.linear_overlaps`` of the linear words
    in the registers, memory, stack memory and saved frames) and the
    stack-partition check over the configurations of one run, kept up to
    date step by step at the cost of what each step wrote.

    The first configuration is scanned whole, as a step from one with
    nothing in it, into a table of linear owners per place.  A step that
    keeps the configuration object (all but a call and a return) costs a
    visit of the registers and the cell it names.  The verdict,
    ``(overlaps, partition)``, is rebuilt when an owner changed for the
    overlaps, and at every new configuration object (the first, a call,
    a return) for the partition."""

    def __init__(self, cfg):
        self.cfg, self.found, self.frames = _NOTHING, ([], []), []
        self.regs, self.mem, self.stk = _owners("reg", cfg.reg), {}, {}
        self.frame_owners = []
        self._follow(cfg)
        self.found = linear_overlaps(self._all()), self.found[1]

    def _all(self) -> list:
        return [*self.regs.values(), *self.mem.values(), *self.stk.values(),
                *self.frame_owners]

    def at(self, cfg, wrote, cell=None):
        """``(overlaps, check_stack_partition(cfg))`` for a configuration
        that follows the last one asked about; ``wrote`` names every
        register whose word is not the same object as there (registers
        are never removed), and ``cell`` (see ``Running``) the one such
        cell of a memory that is.  ``cfg`` may be the last one,
        or share its registers and memories, written in place since.  An
        int or a normal memory capability owns nothing, and is told apart
        with no call (the test ``core.lin_cons`` makes first)."""
        changed = False
        regs, reg = self.regs, cfg.reg
        for r in wrote:
            w = reg[r]
            t = type(w)
            if t is int or t is MemCap and w.lin is _NORMAL:
                if r in regs:
                    del regs[r]
                    changed = True
            else:
                changed |= _reown(regs, "reg", r, w)
        if cell is not None:
            m, a, w = cell
            changed |= _reown(*((self.mem, "mem") if m is cfg.mem
                                else (self.stk, "stk")), a, w)
        if cfg is not self.cfg:
            changed |= self._follow(cfg)
        if changed:
            self.found = linear_overlaps(self._all()), self.found[1]
        return self.found

    def _follow(self, cfg) -> bool:
        """Take ``cfg``, a new object: scan its memories that are new
        objects, follow its frames and rebuild the partition,
        ``check_stack_partition``'s own; True when an owner changed."""
        old, self.cfg = self.cfg, cfg
        mem, _, stk, ms_stk = cfg
        old_mem, _, old_stk, old_ms_stk = old
        changed = stk is not old_stk and self._reframe(stk)
        if mem is not old_mem:
            owners, self.mem = self.mem, _owners("mem", mem.written)
            changed |= owners != self.mem
        if ms_stk is not old_ms_stk:
            owners, self.stk = self.stk, _owners("stk", ms_stk.written)
            changed |= owners != self.stk
        self.found = self.found[0], check_stack_partition(cfg)
        return changed

    def _reframe(self, stk) -> bool:
        """Follow the frames to ``stk``; True when a frame owner changed
        or was renamed.  Calls and returns push and pop at the front, so
        the frames that ``stk`` ends with are kept, and only a pushed one
        is scanned (its owners named ``addr k``, the index left out)."""
        old = self.frames
        kept = 0
        while kept < len(stk) and kept < len(old) and \
                stk[-1 - kept] is old[-1 - kept][0]:
            kept += 1
        new = [(f, list(_owners("addr", f.ms.written).values()))
               for f in stk[:len(stk) - kept]]
        self.frames = new + old[len(old) - kept:]
        named = [(b, e, f"frame {i} {n}")
                 for i, (_, owned) in enumerate(self.frames)
                 for b, e, n in owned]
        changed = named != self.frame_owners
        self.frame_owners = named
        return changed


def _reown(table: dict, name: str, k, w) -> bool:
    """Set the owner of place ``name k`` in ``table`` to word ``w``
    (0 for a removed cell); True when it changed.  The
    owner's name is built only when its range changed."""
    r = None if isinstance(w, int) else linear_range(w)
    if r is None:
        return table.pop(k, None) is not None
    o = table.get(k)
    if o is not None and o[0] == r[0] and o[1] == r[1]:
        return False
    table[k] = (r[0], r[1], f"{name} {k}")
    return True


# ---------------------------------------------------------------------------
# Running

class Run:
    """The one loop over steps.  Iterated (once), it yields ``(cfg,
    wrote, cell)`` before each step until the run halts, fails or has
    taken ``fuel`` steps; ``wrote`` names the registers the last step
    wrote, and ``cell`` is its cell write (see ``Running``), or None.
    It then sets ``outcome`` (halted, failed or fuel-exhausted),
    ``steps``, ``calls`` and ``returns`` (atomic calls and return-token
    jumps, seen as the frames grow and shrink) and ``cfg``, the final
    configuration; until then ``cfg`` is the first.

    ``cfg`` is not written: the run copies its registers and memories
    once and is their one writer.  It applies each step's writes in
    place, so a yielded configuration is valid until the next item.  A
    new run may start from one: it makes its own copies."""

    def __init__(self, cfg, machine_kind: str, gc: GlobalConstants,
                 fuel: int = DEFAULT_FUEL):
        if machine_kind not in _EXTENSIONS:
            raise ValueError(f"unknown machine kind {machine_kind!r}")
        self.ext = _EXTENSIONS[machine_kind]
        # with_regs copies the registers (the bench counts copies there)
        mem, reg, stk, ms_stk = cfg.with_regs({})
        self.gc, self.fuel, self.cfg = gc, fuel, SourceConfig(
            Memory(mem.written, mem.domain), reg, stk,
            Memory(ms_stk.written, ms_stk.domain))

    def __iter__(self):
        # The counters and the fuel stay in locals: this is the hot loop.
        ext, gc, fuel, cfg = self.ext, self.gc, self.fuel, self.cfg
        reg = cfg.reg
        steps = calls = returns = 0
        frames = len(cfg.stk)
        wrote, cell = (), None
        outcome = "fuel-exhausted"
        while steps < fuel:
            yield cfg, wrote, cell
            out = advance(cfg, ext, gc)
            steps += 1
            if isinstance(out, dict):
                wrote, cell = out, None
            elif type(out) is Running:
                cfg, wrote, cell = out
                if cell is not None:
                    cell[0].written[cell[1]] = cell[2]
                elif len(cfg.stk) != frames:   # a call or a return
                    calls += len(cfg.stk) > frames
                    returns += len(cfg.stk) < frames
                    frames = len(cfg.stk)
            else:
                outcome = out.kind
                break
            reg.update(wrote)
        self.outcome, self.steps, self.cfg = outcome, steps, cfg
        self.calls, self.returns = calls, returns


def run_report(cfg, machine_kind: str, gc: GlobalConstants,
               fuel: int = DEFAULT_FUEL, paranoid: bool = False) -> RunReport:
    """The ``Run`` of ``cfg``, reported.  ``paranoid`` checks both
    invariants before every step: one full scan of the first
    configuration, then the changes of each step (``_Invariants``),
    with a violation formatted only at a step whose verdict holds one."""
    run = Run(cfg, machine_kind, gc, fuel)
    violations: list = []
    if paranoid:
        at = _Invariants(run.cfg).at
        for steps, (cfg, wrote, cell) in enumerate(run):
            dups, partition = at(cfg, wrote, cell)
            if dups or partition:
                violations += [f"step {steps}: linear address {x} owned by "
                               f"both {first} and {later}"
                               for x, first, later in dups]
                violations += [f"step {steps}: {v}" for v in partition]
    else:
        deque(run, 0)   # no Python code per step
    return RunReport(run.outcome, run.steps, violations, run.cfg,
                     run.calls, run.returns)


def format_trace(cfg, machine_kind: str, gc: GlobalConstants,
                 fuel: int = DEFAULT_FUEL) -> str:
    """The ``Run`` of ``cfg`` as text: per step, its number, the machine,
    pc's address and the instruction there before the step, and
    ``running``, or the outcome of a run that halts or fails at it."""
    run = Run(cfg, machine_kind, gc, fuel)
    rows = []
    for cfg, _, _ in run:
        pc = cfg.reg[PC]
        if isinstance(pc, MemCap):
            w = cfg.mem.get(pc.addr)
            rows.append([pc.addr, "<unmapped>" if w is None
                         else repr(dec_instr(w)), "running"])
        else:
            rows.append([None, "<no pc cap>", "running"])
    if run.outcome != "fuel-exhausted":
        rows[-1][2] = run.outcome
    return "".join(f"{n}\t{machine_kind}\t{at}\t{instr}\t{end}\n"
                   for n, (at, instr, end) in enumerate(rows, 1))


def diff_start(trusted: Component, context: Component, b_stk: int,
               e_stk: int, check_stk_base: bool = True,
               validate: bool = True):
    """``(gc, cfgs)``: a diff run's global constants, which trust the
    trusted component's code, and ``cfgs``, the linked program's initial
    configuration per machine kind.  ``validate`` first checks both
    components, each distinct one once per process (``diagnostics``),
    and raises ``ValidationFailure`` on a diagnostic."""
    gc = GlobalConstants(trusted.ms_code, b_stk, check_stk_base)
    if validate:
        diags = diagnostics(trusted, gc) + diagnostics(context, gc)
        if diags:
            raise ValidationFailure(diags)
    prog = link(trusted, context)
    return gc, {kind: initial_config(prog, kind, b_stk, e_stk)
                for kind in _EXTENSIONS}


def run_diff(trusted: Component, context: Component,
             b_stk: int, e_stk: int, fuel: int = DEFAULT_FUEL,
             check_stk_base: bool = True, paranoid: bool = False,
             validate: bool = True) -> DiffVerdict:
    gc, cfgs = diff_start(trusted, context, b_stk, e_stk, check_stk_base,
                          validate)
    src = run_report(cfgs["source"], "source", gc, fuel, paranoid)
    # fuel counts source steps: the target's run ends at the same point
    trg = run_report(cfgs["target"], "target", gc,
                     fuel + _CALL_EXTRA * src.calls
                     + _RETURN_EXTRA * src.returns, paranoid)
    ends = (src.outcome, trg.outcome)
    # failing and running out of fuel both count as not terminating
    agree = ends[0] == ends[1] or "halted" not in ends
    detail = "" if agree else (
        f"source {src.outcome} after {src.steps} steps, "
        f"target {trg.outcome} after {trg.steps} steps")
    return DiffVerdict(src, trg, agree, detail)
