"""Runs, their per-step invariant checks, and the differential runner.

``run`` is the one loop over steps; a caller that looks at each
configuration it reaches passes a hook: ``run_report`` the paranoid
tracker's, when asked, and ``format_trace`` a row appender.
A diff run plugs the same trusted/context pair into both machines and
compares termination behaviour; the observables are termination-based,
so fuel exhaustion stands in for divergence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

from .asm import CALL_HEAD, CALL_LEN, RET_PT_OFFSET
from .components import Component, diagnostics, initial_config, link
from .core import _LINEAR, _NORMAL, EXEC_PERMS, PC, GlobalConstants, \
    MemCap, Memory, RetPtrData, Sealed, StkPtr, _new, dec_instr, \
    linear_overlaps, linear_range
from .machine import (
    _DECODED, _MODULE, JUMPED, NULL_EXTENSION, Running, _decode,
)
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

def check_stack_partition(cfg: SourceConfig) -> list:
    """The stack regions ``ms_stk``, frame 0, frame 1, ... rise
    strictly, which makes them disjoint, and none shares an address with
    ``mem``.  A configuration without stack regions (the target's)
    passes at once.  A region is intersected with ``mem`` only when a
    bisect finds a run of ``mem`` within its bounds."""
    dom = cfg.mem.domain
    regions = [("ms_stk", cfg.ms_stk.domain)]
    regions += [(f"frame {i}", f.ms.domain) for i, f in enumerate(cfg.stk)]
    out = []
    below = None     # (name, top address) of the region below
    for name, domain in regions:
        if not (ends := domain.bounds()):
            continue
        if dom.meets(*ends) and (shared := domain & dom):
            out.append(f"{name} overlaps mem at {list(islice(shared, 4))}")
        if below is not None and ends[0] <= below[1]:
            out.append(f"{name} not above {below[0]}")
        below = (name, ends[1])
    return out


def _scan(cells: dict) -> dict:
    """``{k: (base, end, 0)}`` for each word ``cells[k]`` that owns
    ``base..end`` (``core.linear_range``): an owner in
    ``core.linear_overlaps``'s form, its name left out (0) until a
    violation names it.  One pass: every word bare or under one seal is
    told in place, and only a seal within a seal goes through
    ``linear_range``.  ``_Invariants.observe`` makes the same test
    inline for registers."""
    out = {}
    for k, w in cells.items():
        if type(w) is not int:    # most cells hold an int
            t = type(w)
            if t is Sealed:
                w = w[1]
                t = type(w)
            if t is MemCap:
                if w[1] is _LINEAR:
                    out[k] = (w[2], w[3], 0)
            elif t is StkPtr:
                out[k] = (w[1], w[2], 0)
            elif t is RetPtrData:
                out[k] = (w[0], w[1], 0)
            elif t is Sealed and (r := linear_range(w)) is not None:
                out[k] = (r[0], r[1], 0)
    return out


class _Region:
    """A stack region as the tracker keeps it, ``ms_stk`` or a saved
    frame's memory: its owners by address, the bounds of its domain
    (None when empty), and its two partition faults, whether it shares
    an address with ``mem`` and whether it is not above the region below
    it (ms_stk's never is)."""

    __slots__ = ("owned", "ends", "shares", "under")


_NOTHING = SourceConfig(Memory(), {})   # no registers, cells or frames


class _Invariants:
    """The linearity check (``core.linear_overlaps`` of the linear words
    in the registers, memory, stack memory and saved frames) and the
    stack-partition check over the configurations of one run, kept up to
    date step by step at the cost of what each step changed.

    The first configuration observed is scanned whole, as a step from
    one with nothing in it: one pass per table of linear owners by place
    (registers, ``mem``, ``ms_stk``; an empty one is skipped).  A step
    that keeps the configuration object (all but a call and a return)
    costs a visit of the registers and the cell it names.  A call or a
    return scans the memories that are new objects, the stack memory and
    a pushed frame, and keeps the frames it did not push or pop, with
    their owners and partition faults.  It tests only the regions whose
    neighbours changed, so it costs the same at any frame depth.

    Owners carry no name: ``found``, the verdict with its places and
    regions named as the full checks name them, is built when it is
    read, and ``observe`` reads it only at a step whose verdict holds a
    violation."""

    __slots__ = ("cfg", "dom", "regs", "mem", "frames", "low",
                 "owning", "clash", "faults", "_dups", "_partition",
                 "steps", "violations")

    def __init__(self):
        self.cfg, self.dom = _NOTHING, None     # dom: mem's domain
        self.regs, self.mem, self.frames = {}, {}, []
        self.low = low = _Region()                  # ms_stk, empty
        low.owned, low.ends, low.shares, low.under = {}, None, False, False
        # how many frames own something; whether two owners share an
        # address; how many partition faults the regions have
        self.owning, self.clash, self.faults = 0, False, 0
        self._dups = self._partition = None     # named when read
        self.steps, self.violations = 0, []

    @property
    def found(self) -> tuple:
        """``(overlaps, partition)`` of the configuration last observed:
        ``core.linear_overlaps`` of its owners, each named by its place
        (``reg r``, ``mem a``, ``stk a``, ``frame i addr a``), and
        ``check_stack_partition``'s findings."""
        if self._dups is None:
            places = [("reg", self.regs), ("mem", self.mem),
                      ("stk", self.low.owned)]
            places += [(f"frame {i} addr", f.owned)
                       for i, f in enumerate(self.frames)]
            self._dups = linear_overlaps([
                (b, e, f"{name} {k}") for name, owned in places
                for k, (b, e, _) in owned.items()]) if self.clash else []
        if self._partition is None:
            self._partition = check_stack_partition(self.cfg) \
                if self.faults else []
        return self._dups, self._partition

    def observe(self, cfg, wrote, cell):
        """Bring the verdict to ``cfg``, which follows the last
        configuration seen (or is it, written in place since), and add
        its violations to ``violations`` as step ``steps``'s.  ``wrote``
        names every register whose word is not the same object as there
        (registers are never removed), and ``cell`` (see ``Running``)
        the one such cell of a memory that is."""
        changed = False
        regs, reg = self.regs, cfg.reg
        for r in wrote:
            # ``_scan``'s test, inlined: most steps write only registers,
            # and mostly ints and normal memory capabilities
            w = reg[r]
            t = type(w)
            if t is int or t is MemCap and w[1] is _NORMAL:
                if r in regs:
                    del regs[r]
                    changed = True
                continue
            if t is Sealed:
                w = w[1]
                t = type(w)
            if t is MemCap:
                o = (w[2], w[3], 0) if w[1] is _LINEAR else None
            elif t is StkPtr:
                o = (w[1], w[2], 0)
            elif t is RetPtrData:
                o = (w[0], w[1], 0)
            elif t is Sealed and (o := linear_range(w)) is not None:
                o = (o[0], o[1], 0)
            else:
                o = None
            if o is None:
                if r in regs:
                    del regs[r]
                    changed = True
            elif regs.get(r) != o:
                regs[r] = o
                changed = True
        if cell is not None:
            m, a, w = cell
            owned = self.mem if m is cfg.mem else self.low.owned
            o = None if type(w) is int else _scan({a: w}).get(a)
            if o is None:
                changed |= owned.pop(a, None) is not None
            elif owned.get(a) != o:
                owned[a] = o
                changed = True
        if cfg is not self.cfg:
            changed |= self._follow(cfg)
        if changed:
            owners = [*self.regs.values(), *self.mem.values(),
                      *self.low.owned.values()]
            if self.owning:
                for f in self.frames:
                    owners += f.owned.values()
            self.clash = len(owners) > 1 and bool(linear_overlaps(owners))
            self._dups = None
        if self.clash or self.faults:
            dups, partition = self.found
            n = self.steps
            self.violations += [f"step {n}: linear address {x} owned by "
                                f"both {first} and {later}"
                                for x, first, later in dups]
            self.violations += [f"step {n}: {v}" for v in partition]
        self.steps += 1

    def _follow(self, cfg) -> bool:
        """Take ``cfg``, a new object: scan its registers and memories
        that are new objects, follow its frames, and test the regions
        whose neighbours changed; True when an owner changed or, in a
        frame that owns, was renumbered."""
        old_mem, old_reg, old_stk, old_ms = self.cfg
        mem, reg, stk, ms_stk = self.cfg = cfg
        changed = False
        if reg is not old_reg:
            owned, self.regs = self.regs, _scan(reg)
            changed = owned != self.regs
        if mem is not old_mem:
            owned, self.mem = self.mem, _scan(mem.written)
            changed |= owned != self.mem
        if mem.domain is not self.dom:     # every region is new
            self.dom = mem.domain
            old_stk = old_ms = None
        elif stk is old_stk and ms_stk is old_ms:
            return changed
        self._partition = None
        faults, owning = self.faults, self.owning
        if ms_stk is not old_ms:
            low, self.low = self.low, self._region(ms_stk, None)
            faults += self.low.shares - low.shares
            changed |= low.owned != self.low.owned
        # the regions rise from ms_stk's: each must be above the nearest
        # one below it that is not empty, whose top is ``top``
        top = self.low.ends and self.low.ends[1]
        frames, new = self.frames, 0       # new: how many were pushed
        if stk is not old_stk:
            # calls and returns push and pop at the front: the frames of
            # the shorter stack are kept when the longer one ends with
            # them (compared in C, by identity first), and only a pushed
            # frame is scanned; any other change scans every frame
            n, m = len(stk), len(frames)
            kept = n if n < m else m
            if old_stk is None or stk[n - kept:] != old_stk[m - kept:]:
                kept = 0
            new = n - kept
            for f in frames[:m - kept]:
                faults -= f.shares + f.under
                owning -= bool(f.owned)
            made = []
            for frame in stk[:new]:        # bottom up, from frame 0
                f = self._region(frame.ms, top)
                faults += f.shares + f.under
                owning += bool(f.owned)
                if f.ends is not None:
                    top = f.ends[1]
                made.append(f)
            frames[:m - kept] = made
            # a frame that owns was pushed, popped or renumbered
            changed |= (owning or self.owning) > 0
        # and the first kept frame that is not empty is above a new one
        for f in islice(frames, new, None):
            if f.ends is not None:
                under = top is not None and f.ends[0] <= top
                faults += under - f.under
                f.under = under
                break
        self.faults, self.owning = faults, owning
        return changed

    def _region(self, ms: Memory, top) -> _Region:
        """``ms``, a stack region's memory, as the tracker keeps it, over
        a region whose top address is ``top`` (None when there is no
        region below that is not empty).  It is intersected with
        ``mem`` only when a bisect finds a run of ``mem`` within its
        bounds: ``Ranges.bounds`` and ``Ranges.meets``, inlined, since
        a call or a return makes two regions."""
        r = _Region()
        r.owned = _scan(ms.written) if ms.written else {}
        domain = ms.domain
        if not domain._lo:
            r.ends, r.shares, r.under = None, False, False
            return r
        r.ends = lo, hi = domain._lo[0], domain._hi[-1]
        dom = self.dom
        i = bisect_left(dom._hi, lo)
        r.shares = i < len(dom._lo) and dom._lo[i] <= hi and \
            bool(domain & dom)
        r.under = top is not None and lo <= top
        return r


# ---------------------------------------------------------------------------
# Running

def run(cfg, machine_kind: str, gc: GlobalConstants, fuel: int = DEFAULT_FUEL,
        observe=None) -> RunReport:
    """The one loop over steps: take them until the run halts, fails or
    has taken ``fuel`` steps, and report its outcome, steps, calls and
    returns (atomic calls and return-token jumps, seen as the frames
    grow and shrink) and final configuration; to pause a run, give it
    less fuel and run again from its ``final_cfg``.  ``observe``, when
    given, is called as ``observe(cfg, wrote, cell)`` once at every
    configuration the run reaches: first with ``wrote == ()`` and
    ``cell`` None, then after each step that runs on, with ``wrote``
    naming every register the step may have changed, pc always among
    them (its word's decode, or a call's or a return's ``Running``),
    and its cell write (see ``machine.Running``), or None.  ``cfg`` is
    not written: the run copies its registers and memories once, and
    the handlers write the registers and the run each cell write into
    them in place, so what a hook gets is valid until the hook returns
    (a new run may start from it: it makes its own copies)."""
    if machine_kind not in _EXTENSIONS:
        raise ValueError(f"unknown machine kind {machine_kind!r}")
    ext = _EXTENSIONS[machine_kind]
    # with_regs copies the registers (the bench counts copies there)
    mem, reg, stk, ms_stk = cfg.with_regs({})
    cfg = tuple.__new__(SourceConfig, (
        Memory(mem.written, mem.domain), reg, stk,
        Memory(ms_stk.written, ms_stk.domain)))
    # Everything the loop reads stays in locals: this is the hot loop,
    # and a register-only step makes one Python-level call, its
    # handler's, which writes ``reg`` in place.  A ``Running``'s cfg
    # keeps these registers and ``mem``.
    mem, written = cfg.mem, cfg.mem.written
    steps = calls = returns = 0
    frames, decoded = len(stk), _DECODED.get
    outcome = "fuel-exhausted"
    # pc's fields live in locals.  Only a step that sets pc (a jump, a
    # call or a return) writes its register, so only after one (``check``)
    # is pc read back and its type and permission tested; any other step
    # moves ``a`` to the next cell, which leaves pc's register behind
    # (``stale``).  It is written, built once, where something reads it:
    # before a handler whose operands name pc, before call recognition
    # (the call reads pc), before a hook and at the run's end.
    check, stale = True, False
    if observe is not None:
        observe(cfg, (), None)
    for steps in range(1, fuel + 1):   # a step that fails or halts counts
        if check:
            pc = reg[PC]
            if type(pc) is not MemCap:
                outcome = "failed"
                break
            perm, lin, base, end, a = pc
            if perm not in EXEC_PERMS:
                outcome = "failed"
                break
            check = False
        w = written.get(a)
        if w is None:   # unwritten: 0 in the domain, None outside it
            w = mem.get(a)
        if w is None or not base <= a <= end:
            outcome = "failed"
            break
        # A call sequence starts with CALL_HEAD (``call_cond`` rejects
        # any other first cell), so no other cell needs call
        # recognition.  A call sets pc.
        if w != CALL_HEAD:
            out = None
        else:
            if stale:
                reg[PC] = _new(MemCap, (perm, lin, base, end, a))
                stale = False
            out = ext.recognize_call(cfg, gc)
        if out is None:
            # the memo holds the handler's name, looked up at each
            # step, so a wrapped handler is seen
            name, ops, reads_pc, wrote = decoded(w) or _decode(w)
            if reads_pc and stale:
                reg[PC] = _new(MemCap, (perm, lin, base, end, a))
                stale = False
            out = _MODULE[name](cfg, ext, gc, ops)
        # the next-pc rule: a step that did not set pc moves it to the
        # next cell
        if out is None:
            a += 1
            stale = True
        elif out is JUMPED:
            check = True
            stale = False
        elif type(out) is Running:
            cfg, named, cell = out
            if cell is not None:
                cell[0].written[cell[1]] = cell[2]
                a += 1
                stale = True
            else:   # a call or a return: it set pc and names its writes
                wrote = named
                check = True
                stale = False
                if len(cfg.stk) != frames:
                    calls += len(cfg.stk) > frames
                    returns += len(cfg.stk) < frames
                    frames = len(cfg.stk)
        else:
            outcome = out.kind
            break
        if observe is not None:
            if stale:
                reg[PC] = _new(MemCap, (perm, lin, base, end, a))
                stale = False
            observe(cfg, wrote, cell if type(out) is Running else None)
    if stale:
        reg[PC] = _new(MemCap, (perm, lin, base, end, a))
    return RunReport(outcome, steps, [], cfg, calls, returns)


def run_report(cfg, machine_kind: str, gc: GlobalConstants,
               fuel: int = DEFAULT_FUEL, paranoid: bool = False) -> RunReport:
    """The ``run`` of ``cfg``.  ``paranoid`` checks both invariants at
    every configuration the run reaches, and reports their violations:
    one full scan of the first, then the changes of each step
    (``_Invariants``, whose ``observe`` is the run's hook)."""
    if not paranoid:
        return run(cfg, machine_kind, gc, fuel)
    checks = _Invariants()
    report = run(cfg, machine_kind, gc, fuel, checks.observe)
    report.violations = checks.violations
    return report


def format_trace(cfg, machine_kind: str, gc: GlobalConstants,
                 fuel: int = DEFAULT_FUEL) -> str:
    """The ``run`` of ``cfg`` as text: per step, its number, the machine,
    pc's address and the instruction there before the step, and
    ``running``, or the outcome of a run that halts or fails at it."""
    rows = []

    def row(cfg, wrote, cell):
        pc = cfg.reg[PC]
        if isinstance(pc, MemCap):
            w = cfg.mem.get(pc.addr)
            rows.append([pc.addr, "<unmapped>" if w is None
                         else repr(dec_instr(w)), "running"])
        else:
            rows.append([None, "<no pc cap>", "running"])

    outcome = run(cfg, machine_kind, gc, fuel, row).outcome
    if outcome == "fuel-exhausted":
        rows.pop()   # the configuration the run ends in starts no step
    else:
        rows[-1][2] = outcome
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
    return gc, {"source": initial_config(prog, "source", b_stk, e_stk),
                "target": initial_config(prog, "target", b_stk, e_stk)}


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
