"""Differential runner and per-step invariant checks.

A diff run plugs the same trusted/context pair into both machines and
compares termination behaviour; the observables are termination-based,
so fuel exhaustion stands in for divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .components import Component, initial_config, link, \
    validate_component
from .core import PC, GlobalConstants, Lin, MemCap, dec_instr, \
    linear_overlaps, linear_range
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

def _owners(name: str, cells) -> dict:
    """``k -> (base, end, "name k")`` for each linear word ``cells[k]``
    (ints skipped before the call: most cells hold one); every check
    names its places this way."""
    return {k: (r[0], r[1], f"{name} {k}") for k, w in cells.items()
            if not isinstance(w, int) and (r := linear_range(w))}


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
    mem = cfg.mem
    # the lowest address of ms_stk is never compared
    regions = [("ms_stk", cfg.ms_stk, None, max(cfg.ms_stk))] \
        if cfg.ms_stk else []
    regions += [(f"frame {i}", f.ms, min(f.ms), max(f.ms))
                for i, f in enumerate(cfg.stk) if f.ms]
    out = []
    for name, cells, lo, hi in regions:
        # walk the smaller side: the stack memory may be far larger
        small, big = (mem, cells) if len(mem) <= len(cells) else (cells, mem)
        out.append((name, [a for a in small if a in big], lo, hi))
    return _partition(out)


def _partition(regions) -> list:
    """The partition verdict over the non-empty stack regions, in stack
    order, each given as ``(name, its addresses that mem holds too, its
    lowest address, its highest)``."""
    out = []
    below = None     # (name, top address) of the region below
    for name, shared, lo, hi in regions:
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


def _follow(shared: set, cells, mem_keys: set, moved):
    """Update ``shared``, the addresses of ``cells`` that mem holds too,
    for the addresses ``moved`` into or out of either."""
    for a in moved:
        if a in cells and a in mem_keys:
            shared.add(a)
        else:
            shared.discard(a)


class _Frame:
    """One saved frame, scanned once: ``owned`` lists ``(base, end,
    addr)`` for each linear word (named only with the frame's index),
    ``lo``/``hi`` bound its addresses (None when it is empty), and
    ``shared`` holds those of its addresses that mem holds too."""

    __slots__ = ("frame", "owned", "lo", "hi", "shared")

    def __init__(self, frame, mem_keys: set):
        self.frame = frame
        ms = frame.ms
        self.owned = [(r[0], r[1], a) for a, w in ms.items()
                      if not isinstance(w, int) and (r := linear_range(w))]
        self.lo = min(ms, default=None)
        self.hi = max(ms, default=None)
        self.shared = ms.keys() & mem_keys


_NORMAL = Lin.NORMAL


class _Invariants:
    """Both checks over the configurations of one run, kept up to date
    step by step at the cost of what each step wrote.

    One full scan fills a table of linear owners per place, and for each
    stack region the addresses that mem holds too.  Each later
    configuration comes with its step's write set: the registers it
    names are visited, and an int or a normal memory capability, which
    owns nothing, is told apart without a call.  Memory cells are
    visited when they are not the same word object as before.  Frames
    are scanned once each, when pushed: a call scans the new frame, a
    return drops the old one, and the frames' owners are renamed (their
    names carry the frame's index) only when some frame holds one.  The
    overlaps are recomputed only when an owner changed; the partition
    verdict only when a memory's domain or the frames did, from the
    kept regions, after following the moved addresses alone.  ``at``
    answers what ``check_linearity`` and ``check_stack_partition``
    would.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.regs = _owners("reg", cfg.reg)
        self.mem = _owners("mem", cfg.mem)
        self.stk = _owners("stk", cfg.ms_stk)
        self.mem_keys = set(cfg.mem)
        self.stk_shared = cfg.ms_stk.keys() & self.mem_keys
        self.top = max(cfg.ms_stk, default=None)
        self.frames = [_Frame(f, self.mem_keys) for f in cfg.stk]
        self.frame_owners = self._name_frame_owners()
        self.overlaps = linear_overlaps(self._all())
        self.partition = self._partition()

    def _all(self) -> list:
        return [*self.regs.values(), *self.mem.values(), *self.stk.values(),
                *self.frame_owners]

    def _name_frame_owners(self) -> list:
        return [(b, e, f"frame {i} addr {a}")
                for i, f in enumerate(self.frames) for b, e, a in f.owned]

    def _partition(self) -> list:
        regions = [] if self.top is None else \
            [("ms_stk", self.stk_shared, None, self.top)]
        regions += [(f"frame {i}", f.shared, f.lo, f.hi)
                    for i, f in enumerate(self.frames) if f.lo is not None]
        return _partition(regions)

    def _reframe(self, stk) -> bool:
        """Follow the frames to ``stk``; True when a frame owner changed
        or was renamed.  Calls and returns push and pop at the front, so
        the frames that ``stk`` ends with are kept."""
        old = self.frames
        kept = 0
        while kept < len(stk) and kept < len(old) and \
                stk[-1 - kept] is old[-1 - kept].frame:
            kept += 1
        new = [_Frame(f, self.mem_keys) for f in stk[:len(stk) - kept]]
        self.frames = new + old[len(old) - kept:]
        if not self.frame_owners and not any(f.owned for f in new):
            return False
        named = self._name_frame_owners()
        changed = named != self.frame_owners
        self.frame_owners = named
        return changed

    def at(self, cfg, wrote):
        """``(check_linearity(cfg), check_stack_partition(cfg))`` for a
        configuration that follows the last one asked about; ``wrote``
        names every register whose word is not the same object as there
        (registers are never removed)."""
        old, self.cfg = self.cfg, cfg
        if cfg is old:
            return self.overlaps, self.partition
        changed = domain = False
        mem, reg, stk, ms_stk = cfg
        old_mem, _, old_stk, old_ms_stk = old
        regs = self.regs
        for r in wrote:
            w = reg[r]
            t = type(w)
            if t is int or t is MemCap and w.lin is _NORMAL:
                if r in regs:
                    del regs[r]
                    changed = True
            else:
                changed |= _reown(regs, "reg", r, w)
        if mem is not old_mem:
            c, moved = _recell(self.mem, "mem", mem, old_mem)
            changed |= c
            if moved:
                domain = True
                keys = self.mem_keys
                for a in moved:
                    if a in mem:
                        keys.add(a)
                    else:
                        keys.discard(a)
                _follow(self.stk_shared, ms_stk, keys, moved)
                for f in self.frames:
                    _follow(f.shared, f.frame.ms, keys, moved)
        if stk is not old_stk:
            changed |= self._reframe(stk)
            domain = True
        if ms_stk is not old_ms_stk:
            c, moved = _recell(self.stk, "stk", ms_stk, old_ms_stk)
            changed |= c
            if moved:
                domain = True
                self.top = _top(ms_stk, self.top, moved)
                _follow(self.stk_shared, ms_stk, self.mem_keys, moved)
        if changed:
            self.overlaps = linear_overlaps(self._all())
        if domain:
            self.partition = self._partition()
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
    (``_MISSING`` for a removed cell); True when it changed.  The
    owner's name is built only when its range changed."""
    r = None if w is _MISSING or isinstance(w, int) else linear_range(w)
    if r is None:
        return table.pop(k, None) is not None
    o = table.get(k)
    if o is not None and o[0] == r[0] and o[1] == r[1]:
        return False
    table[k] = (r[0], r[1], f"{name} {k}")
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
    wrote = ()
    while steps < fuel:
        if paranoid:
            dups, partition = checks.at(cfg, wrote)
            for x, first, later in dups:
                violations.append(f"step {steps}: linear address {x} owned "
                                  f"by both {first} and {later}")
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
            if paranoid:
                wrote = nxt.wrote
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
