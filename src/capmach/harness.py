"""Runs, their per-step invariant checks, and the differential runner.

``run`` is the one loop over steps; a caller that looks at each
configuration it reaches passes a hook: ``run_report`` the paranoid
tracker's, when asked, and ``format_trace`` a row appender.
A diff run plugs the same trusted/context pair into both machines and
compares termination behaviour; the observables are termination-based,
so fuel exhaustion stands in for divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .asm import CALL_HEAD, CALL_LEN, RET_PT_OFFSET
from .components import Component, diagnostics, initial_config, link
from .core import _NORMAL, EXEC_PERMS, PC, GlobalConstants, MemCap, \
    Memory, dec_instr, linear_overlaps, linear_range
from .machine import _DECODED, _MODULE, NULL_EXTENSION, Running, _decode, \
    _new
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

    The first configuration observed is scanned whole, as a step from
    one with nothing in it, into a table of linear owners per place.  A
    step that keeps the configuration object (all but a call and a
    return) costs a visit of the registers and the cell it names.  The
    verdict, ``(overlaps, partition)``, is rebuilt when an owner changed
    for the overlaps, and at every new configuration object (the first,
    a call, a return) for the partition.  ``observe`` is a run's hook:
    it counts the steps, and formats a violation only at a step whose
    verdict holds one."""

    def __init__(self):
        self.cfg, self.found, self.frames = _NOTHING, ([], []), []
        self.regs, self.mem, self.stk = {}, {}, {}
        self.frame_owners, self.steps, self.violations = [], 0, []

    def _all(self) -> list:
        return [*self.regs.values(), *self.mem.values(), *self.stk.values(),
                *self.frame_owners]

    def observe(self, cfg, wrote, cell):
        """Bring ``found``, ``(overlaps, check_stack_partition(cfg))``, to
        ``cfg``, which follows the last configuration seen (or is it,
        written in place since), and add its violations to ``violations``
        as step ``steps``'s.  ``wrote`` names every register whose word is
        not the same object as there (registers are never removed), and
        ``cell`` (see ``Running``) the one such cell of a memory that is.
        An int or a normal memory capability owns nothing, and is told
        apart with no call (the test ``core.lin_cons`` makes first)."""
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
        dups, partition = self.found
        if dups or partition:
            n = self.steps
            self.violations += [f"step {n}: linear address {x} owned by "
                                f"both {first} and {later}"
                                for x, first, later in dups]
            self.violations += [f"step {n}: {v}" for v in partition]
        self.steps += 1

    def _follow(self, cfg) -> bool:
        """Take ``cfg``, a new object: scan its registers and memories
        that are new objects, follow its frames and rebuild the
        partition, ``check_stack_partition``'s own; True when an owner
        changed."""
        old, self.cfg = self.cfg, cfg
        mem, reg, stk, ms_stk = cfg
        old_mem, old_reg, old_stk, old_ms_stk = old
        changed = stk is not old_stk and self._reframe(stk)
        if reg is not old_reg:
            owners, self.regs = self.regs, _owners("reg", reg)
            changed |= owners != self.regs
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

def run(cfg, machine_kind: str, gc: GlobalConstants, fuel: int = DEFAULT_FUEL,
        observe=None) -> RunReport:
    """The one loop over steps: take them until the run halts, fails or
    has taken ``fuel`` steps, and report its outcome, steps, calls and
    returns (atomic calls and return-token jumps, seen as the frames
    grow and shrink) and final configuration; to pause a run, give it
    less fuel and run again from its ``final_cfg``.  ``observe``, when
    given, is called as ``observe(cfg, wrote, cell)`` once at every
    configuration the run reaches: first with ``wrote == ()`` and
    ``cell`` None, then after each step that runs on, with the registers
    it wrote and its cell write (see ``machine.Running``), or None.
    ``cfg`` is not written: the run copies its registers and memories
    once and writes each step's writes into them in place, so what a
    hook gets is valid until the hook returns (a new run may start from
    it: it makes its own copies)."""
    if machine_kind not in _EXTENSIONS:
        raise ValueError(f"unknown machine kind {machine_kind!r}")
    ext = _EXTENSIONS[machine_kind]
    # with_regs copies the registers (the bench counts copies there)
    mem, reg, stk, ms_stk = cfg.with_regs({})
    cfg = SourceConfig(Memory(mem.written, mem.domain), reg, stk,
                       Memory(ms_stk.written, ms_stk.domain))
    # Everything the loop reads stays in locals: this is the hot loop,
    # and a register-only step makes one Python-level call, its
    # handler's.  The memory locals follow every Running's cfg.
    mem, written = cfg.mem, cfg.mem.written
    steps = calls = returns = 0
    frames, decoded = len(stk), _DECODED.get
    outcome = "fuel-exhausted"
    if observe is not None:
        observe(cfg, (), None)
    while steps < fuel:
        steps += 1   # a step that fails or halts counts
        pc = reg[PC]
        if type(pc) is not MemCap or pc.perm not in EXEC_PERMS:
            outcome = "failed"
            break
        perm, lin, base, end, a = pc
        w = written.get(a)
        if w is None:   # unwritten: 0 in the domain, None outside it
            w = mem.get(a)
        if w is None or not base <= a <= end:
            outcome = "failed"
            break
        # A call sequence starts with CALL_HEAD (``call_cond`` rejects
        # any other first cell), so no other cell needs call
        # recognition.  A call's writes name pc.
        out = ext.recognize_call(cfg, gc) if w == CALL_HEAD else None
        if out is None:
            # the memo holds the handler's name, looked up at each
            # step, so a wrapped handler is seen
            name, ops = decoded(w) or _decode(w)
            out = _MODULE[name](cfg, ext, gc, ops)
        if type(out) is dict:
            wrote = out
        elif type(out) is Running:
            wrote = out[1]
        else:
            outcome = out.kind
            break
        # the next-pc rule: writes that do not name pc (a jump's do)
        # gain pc moved to the next cell
        if PC not in wrote:
            wrote[PC] = _new(MemCap, (perm, lin, base, end, a + 1))
        if wrote is out:
            cell = None
        else:
            cfg, _, cell = out
            reg, mem, written = cfg.reg, cfg.mem, cfg.mem.written
            if cell is not None:
                cell[0].written[cell[1]] = cell[2]
            elif len(cfg.stk) != frames:   # a call or a return
                calls += len(cfg.stk) > frames
                returns += len(cfg.stk) < frames
                frames = len(cfg.stk)
        reg.update(wrote)
        if observe is not None:
            observe(cfg, wrote, cell)
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
