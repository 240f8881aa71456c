import gc
import sys
from collections import namedtuple
from typing import Optional

from capmach.asm import CALL_LEN, call_cond
from capmach.core import (
    INF, PC, GlobalConstants, Lin, Memory, MemCap, Perm, Ranges, dec_instr,
    enc_instr, fresh_registers, linear_overlaps, linear_range, mk_instr,
)
from capmach.fixtures import STK_BASE
from capmach.harness import _EXTENSIONS, run
from capmach.machine import FAILED, HALTED, NULL_EXTENSION, MachineExtension
from capmach.source import SourceConfig

NOWHERE = GlobalConstants(frozenset(), 0)


def std_gc(trusted, check_stk_base=True):
    """The global constants a fixture's diff runs under: its trusted
    side's code is trusted, and the stack starts at ``STK_BASE``."""
    return GlobalConstants(trusted.ms_code, STK_BASE, check_stk_base)


def trust_all(stk_base, check_stk_base=True):
    """Global constants that trust every address: ``call_cond`` under
    them recognizes any call expansion for ``stk_base``."""
    return GlobalConstants(Ranges.span(-INF, INF), stk_base, check_stk_base)


def rx(b, e, a):
    return MemCap(Perm.RX, Lin.NORMAL, b, e, a)


def rw(b, e, a, lin=Lin.NORMAL):
    return MemCap(Perm.RW, lin, b, e, a)


def with_cell(mem: Memory, a, w) -> Memory:
    """A copy of ``mem`` with cell ``a`` holding ``w``: ``a`` joins the
    domain if it is new.  ``mem`` is not written."""
    domain = mem.domain
    if a not in mem:
        domain = domain | Ranges.span(a, a)
    return Memory({**mem.written, a: w}, domain)


def tcfg(mem=None, **regvals):
    reg = fresh_registers()
    reg.update(regvals)
    return SourceConfig(Memory(mem or {}), reg)


def scfg(mem=None, stk=(), ms_stk=None, **regvals):
    reg = fresh_registers()
    reg.update(regvals)
    return SourceConfig(Memory(mem or {}), reg, tuple(stk),
                        Memory(ms_stk or {}))


def enc(op, *args):
    return enc_instr(mk_instr(op, *args))


HALT = enc("halt")


def ex(cfg, op, *args, ext=NULL_EXTENSION, gc=NOWHERE):
    """``step`` over ``cfg`` with ``op args``'s image in pc's cell (if pc
    has one): the instruction through a run's fetch, decode and pc rule."""
    pc = cfg.reg[PC]
    if isinstance(pc, MemCap):
        cfg = cfg._replace(mem=with_cell(cfg.mem, pc.addr, enc(op, *args)))
    return step(cfg, ext, gc)


# Oracles: the one step that ``harness.run`` takes, as a value; a count of
# Python-level calls; the full scan the paranoid tracker must match; the
# front-end tests' disassembler.

_KINDS = {ext: kind for kind, ext in _EXTENSIONS.items()}

# the outcome of a step that runs on, as ``step`` records it
Running = namedtuple("Running", "cfg wrote cell")


def step(cfg, ext: MachineExtension = NULL_EXTENSION,
         gc: GlobalConstants = None):
    """One step of ``cfg`` on ``ext``'s machine, as a run takes it:
    FAILED, HALTED, or a ``Running`` that owns a copy of the
    configuration after the step, the registers the step may have
    written (the hook's ``wrote``) with their words in the copy, and the
    cell it wrote (in the copy), or None.  A run of fuel 1 makes it: its
    hook copies what it gets after a step that runs on.  ``cfg`` is not
    written."""
    out = []

    def keep(now, wrote, cell):
        if wrote:   # after the step: the first configuration has none
            mem, reg, stk, ms_stk = now
            copy = SourceConfig(Memory(mem.written, mem.domain), dict(reg),
                                stk, Memory(ms_stk.written, ms_stk.domain))
            if cell is not None:
                m, a, w = cell
                cell = (copy.mem if m is mem else copy.ms_stk, a, w)
            out.append(Running(copy, {r: copy.reg[r] for r in wrote}, cell))

    outcome = run(cfg, _KINDS[ext], gc, 1, keep).outcome
    return out[0] if out else FAILED if outcome == "failed" else HALTED


def count_calls(work):
    """Python-level ``call`` events inside ``work()``, the call of
    ``work`` itself aside, and its result: a cost that wall time on a
    shared host cannot pin, and that does not depend on the host's
    speed."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # a collection inside the count would close unreachable generators
    # and run finalizers left by earlier code, which counts as calls
    gc.collect()
    gc.disable()
    old = sys.getprofile()
    sys.setprofile(count)
    try:
        result = work()
    finally:
        sys.setprofile(old)
        gc.enable()
    return calls - 1, result


def check_linearity(cfg) -> list:
    """``(addr, earlier, later)`` for each linear capability that shares
    an address with another one anywhere in a configuration: registers,
    memory, stack memory and saved frames (see ``core.linear_overlaps``).
    Each word goes through ``core.linear_range``, and each place is
    named ``reg r``, ``mem a``, ``stk a`` or ``frame i addr a``; of a
    memory, only the written cells own (an unwritten one reads 0)."""
    places = [("reg", cfg.reg), ("mem", cfg.mem.written),
              ("stk", cfg.ms_stk.written)]
    places += [(f"frame {i} addr", f.ms.written)
               for i, f in enumerate(cfg.stk)]
    return linear_overlaps([(*r, f"{name} {k}") for name, cells in places
                            for k, w in cells.items()
                            if (r := linear_range(w)) is not None])


def disassemble(seg, stk_base: Optional[int] = None,
                check_stk_base: bool = True) -> str:
    """Per-cell decode of a memory segment.

    Call-macro runs are folded to one ``call`` line when ``stk_base``
    is supplied; words with no instruction reading print as data.
    """
    lines = []
    end = -INF      # the first address after the last line
    for a in sorted(seg):
        if a < end:     # a cell of a folded call
            continue
        if a != end:
            lines.append(f".org {a}")
        p = None if stk_base is None else \
            call_cond(seg, a, trust_all(stk_base, check_stk_base))
        if p is not None:
            lines.append(f"call {p.off_pc} {p.off_sigma} {p.r1} {p.r2}")
            end = a + CALL_LEN
            continue
        w = seg[a]
        instr = dec_instr(w)
        if isinstance(w, int) and w == enc_instr(instr):
            lines.append(repr(instr))
        else:
            lines.append(f".word {w!r}")
        end = a + 1
    return "\n".join(lines) + "\n"
