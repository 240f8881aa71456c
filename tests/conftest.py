from capmach.core import (
    GlobalConstants, Lin, Memory, MemCap, Perm, fresh_registers,
)
from capmach.fixtures import STK_BASE
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
