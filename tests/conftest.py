from typing import Optional

from capmach.asm import CALL_LEN, call_cond
from capmach.core import (
    INF, PC, GlobalConstants, Lin, Memory, MemCap, Perm, dec_instr,
    enc_instr, fresh_registers, linear_overlaps, mk_instr,
)
from capmach.fixtures import STK_BASE
from capmach.harness import _owners
from capmach.machine import (
    NULL_EXTENSION, MachineExtension, Running, _new, advance,
)
from capmach.source import SourceConfig

NOWHERE = GlobalConstants(frozenset(), 0)


def std_gc(trusted, check_stk_base=True):
    """The global constants a fixture's diff runs under: its trusted
    side's code is trusted, and the stack starts at ``STK_BASE``."""
    return GlobalConstants(trusted.ms_code, STK_BASE, check_stk_base)


def rx(b, e, a):
    return MemCap(Perm.RX, Lin.NORMAL, b, e, a)


def rw(b, e, a, lin=Lin.NORMAL):
    return MemCap(Perm.RW, lin, b, e, a)


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
        cfg = cfg._replace(mem=cfg.mem.set(pc.addr, enc(op, *args)))
    return step(cfg, ext, gc)


# Oracles: the pure step whose fold ``harness.Run`` must match, the full
# scan the paranoid tracker must match, the front-end tests' disassembler.

def as_running(cfg, out):
    """A step outcome over ``cfg`` as ``step`` returns it: its register
    writes, alone or a ``Running``'s, applied to a fresh copy of the
    registers, and a ``Running``'s cell write to a fresh copy of its
    memory; FAILED and HALTED are returned as they are."""
    if type(out) is Running:
        cfg, out, cell = out
        if cell is not None:
            m, a, w = cell
            if m is cfg.mem:
                cfg = cfg._replace(mem=m.set(a, w))
            else:
                cfg = cfg._replace(ms_stk=m.set(a, w))
    if isinstance(out, dict):
        return _new(Running, (cfg.with_regs(out), out, None))
    return out


def step(cfg, ext: MachineExtension = NULL_EXTENSION,
         gc: GlobalConstants = None):
    """One step of ``cfg``: FAILED, HALTED, or a ``Running`` that owns a
    fresh register dict and a fresh copy of any memory the step wrote.
    ``cfg`` is not written."""
    return as_running(cfg, advance(cfg, ext, gc))


def check_linearity(cfg) -> list:
    """``(addr, earlier, later)`` for each linear capability that shares
    an address with another one anywhere in a configuration: registers,
    memory, stack memory and saved frames (see ``core.linear_overlaps``)."""
    owners = [o for i, f in enumerate(cfg.stk)
              for o in _owners(f"frame {i} addr", f.ms.written).values()]
    for name, cells in (("reg", cfg.reg), ("mem", cfg.mem.written),
                        ("stk", cfg.ms_stk.written)):
        owners += _owners(name, cells).values()
    return linear_overlaps(owners)


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
            call_cond(seg, a, stk_base, check_stk_base)
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
