"""Single-step instruction interpretation shared by both machines.

Every function here is pure: configurations are immutable snapshots and
each step builds a fresh one, copying the registers once.  ``step``
decodes each distinct word once: a bounded memo keyed by the word (never
by its address, so a store into code runs the new word) gives the
handler's name and operands, and the handler is then looked up by name
in the module.  The records most steps build (the next pc, the
configuration, ``Running``) are made with ``tuple.__new__``, which
skips the Python-level constructor that ``namedtuple`` generates.  A memory
capability indexes ``mem`` and a stack pointer indexes ``ms_stk``; every
pointer case is written once over the pointer and the segment it
indexes.  A ``MachineExtension`` names the pointer kinds its machine
accepts and supplies the source-only rules (call recognition,
return-token jumps); the target machine uses the null extension, which
accepts memory capabilities only.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from dataclasses import dataclass

from .core import (
    CALL_HEAD, EXEC_PERMS, OPCODES, PC, RDATA, GlobalConstants, Instr, Lin,
    MemCap, Record, RetPtrCode, RetPtrData, SealCap, Sealed, StkPtr, dec_instr,
    dec_perm, enc_lin, enc_perm, enc_type, is_linear, is_sealable, lin_cons,
    lin_cons_perm, non_exec, non_zero, perm_leq, read_allowed, within_bounds,
    write_allowed,
)


class Running(Record, namedtuple("Running", "cfg wrote")):
    """The next configuration, and ``wrote``, the names of the registers
    the step wrote (a step writes no other): the update dict it passed
    to ``with_regs``."""

    __slots__ = ()

    kind = "running"


@dataclass(frozen=True)
class Failed:
    kind = "failed"


@dataclass(frozen=True)
class Halted:
    kind = "halted"


FAILED = Failed()
HALTED = Halted()

# Builds a record from its fields without the Python-level ``__new__``
# that ``namedtuple`` generates: the same class, fields and equality.
_new = tuple.__new__


def upd_pc_addr(cfg, updates: dict):
    """``cfg`` with the register ``updates`` written and pc moved to the
    next cell, in one register copy; ``updates`` is the caller's own
    dict and gains the new pc.  pc is read after the updates, so a step
    that writes pc (``plus pc 1 2``, ``move r5 pc`` on a linear pc)
    fails."""
    pc = updates.get(PC, cfg.reg[PC])
    if isinstance(pc, MemCap):
        updates[PC] = _new(MemCap, (pc.perm, pc.lin, pc.base, pc.end,
                                    pc.addr + 1))
        return _new(Running, (cfg.with_regs(updates), updates))
    return FAILED


class MachineExtension:
    """What sets one machine apart from the other.

    ``pointers`` lists the capability kinds that load, store and the
    pointer instructions accept.  Each hook returns a step outcome when
    its case applies and None otherwise; ``xjump_result`` also gets the
    registers the jump has written so far (see ``xjump_result`` below).
    This base class is the target machine: memory capabilities only, no
    source-only rules.
    """

    pointers = (MemCap,)

    def xjump_result(self, c1, c2, cfg, gc, updates):
        return None

    def recognize_call(self, cfg, gc):
        """Big-step call dispatch; None means no call fires here.  ``step``
        calls it only when pc is an executable memory capability whose
        cell holds ``CALL_HEAD``."""
        return None


NULL_EXTENSION = MachineExtension()


def _operand(cfg, rn):
    """Resolve a register-or-immediate operand to an integer, or None."""
    if isinstance(rn, int):
        return rn
    w = cfg.reg[rn]
    return w if isinstance(w, int) else None


def _segment(cfg, c):
    """The memory a pointer indexes: the stack memory for a stack pointer."""
    return cfg.ms_stk if isinstance(c, StkPtr) else cfg.mem


def _with_cell(cfg, c, w):
    """``cfg`` with ``w`` written at the cell that pointer ``c`` indexes."""
    if isinstance(c, StkPtr):
        return cfg.with_stk_cell(c.addr, w)
    return cfg.with_mem_cell(c.addr, w)


# ``_with_addr`` runs on most pointer steps, so it skips ``_replace``.

def _with_addr(c, a):
    """Pointer ``c`` moved to address ``a``."""
    if isinstance(c, StkPtr):
        return _new(StkPtr, (c.perm, c.base, c.end, a))
    return _new(MemCap, (c.perm, c.lin, c.base, c.end, a))


def exec_fail(cfg, ext, gc):
    return FAILED


def exec_halt(cfg, ext, gc):
    return HALTED


def exec_jmp(cfg, ext, gc, r):
    target = cfg.reg[r]
    updates = {r: lin_cons(target), PC: target}
    return _new(Running, (cfg.with_regs(updates), updates))


def exec_jnz(cfg, ext, gc, r, rn):
    operand = rn if isinstance(rn, int) else cfg.reg[rn]
    if non_zero(operand):
        target = cfg.reg[r]
        updates = {r: lin_cons(target), PC: target}
        return _new(Running, (cfg.with_regs(updates), updates))
    return upd_pc_addr(cfg, {})


def exec_gettype(cfg, ext, gc, r1, r2):
    return upd_pc_addr(cfg, {r1: enc_type(cfg.reg[r2])})


def exec_geta(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr)):
        v = w.addr
    elif isinstance(w, SealCap):
        v = w.cur
    else:
        v = -1
    return upd_pc_addr(cfg, {r1: v})


def exec_getb(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr, SealCap)):
        v = w.base
    else:
        v = -1
    return upd_pc_addr(cfg, {r1: v})


def exec_gete(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr, SealCap)):
        v = w.end
    else:
        v = -1
    return upd_pc_addr(cfg, {r1: v})


def exec_getp(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr)):
        v = enc_perm(w.perm)
    else:
        v = -1
    return upd_pc_addr(cfg, {r1: v})


def exec_getlin(cfg, ext, gc, r1, r2):
    lin = Lin.LINEAR if is_linear(cfg.reg[r2]) else Lin.NORMAL
    return upd_pc_addr(cfg, {r1: enc_lin(lin)})


def exec_move(cfg, ext, gc, r, rn):
    if r == PC:
        return FAILED
    if isinstance(rn, int):
        return upd_pc_addr(cfg, {r: rn})
    # Clear the source register first, then write the destination:
    # correct even when r == rn (a linear cap stays put).
    old = cfg.reg[rn]
    return upd_pc_addr(cfg, {rn: lin_cons(old), r: old})


def exec_store(cfg, ext, gc, r1, r2):
    c = cfg.reg[r1]
    if (isinstance(c, ext.pointers) and write_allowed(c.perm)
            and within_bounds(c) and r2 != PC and c.addr in _segment(cfg, c)):
        w = cfg.reg[r2]
        return upd_pc_addr(_with_cell(cfg, c, w), {r2: lin_cons(w)})
    return FAILED


def exec_load(cfg, ext, gc, r1, r2):
    c = cfg.reg[r2]
    if (isinstance(c, ext.pointers) and read_allowed(c.perm)
            and within_bounds(c) and r1 != PC):
        w = _segment(cfg, c).get(c.addr)
        if w is not None and lin_cons_perm(c.perm, w):
            # lin_cons changes only a linear word's cell: write no other.
            if is_linear(w):
                cfg = _with_cell(cfg, c, 0)
            return upd_pc_addr(cfg, {r1: w})
    return FAILED


def exec_cca(cfg, ext, gc, r, rn):
    n = _operand(cfg, rn)
    if n is None or r == PC:
        return FAILED
    c = cfg.reg[r]
    if isinstance(c, ext.pointers):
        if c.addr + n < 0:
            return FAILED
        return upd_pc_addr(cfg, {r: _with_addr(c, c.addr + n)})
    if isinstance(c, SealCap):
        if c.cur + n < 0:
            return FAILED
        return upd_pc_addr(cfg, {r: SealCap(c.base, c.end, c.cur + n)})
    return FAILED


def exec_restrict(cfg, ext, gc, r1, rn):
    n = _operand(cfg, rn)
    if n is None or r1 == PC:
        return FAILED
    c = cfg.reg[r1]
    p = dec_perm(n)
    if isinstance(c, ext.pointers) and perm_leq(p, c.perm):
        return upd_pc_addr(cfg, {r1: c._replace(perm=p)})
    return FAILED


def _binop(cfg, r0, rn1, rn2, fn):
    n1 = _operand(cfg, rn1)
    n2 = _operand(cfg, rn2)
    if n1 is None or n2 is None:
        return FAILED
    return upd_pc_addr(cfg, {r0: fn(n1, n2)})


def _lt(a, b):
    return 1 if a < b else 0


def exec_lt(cfg, ext, gc, r0, rn1, rn2):
    return _binop(cfg, r0, rn1, rn2, _lt)


def exec_plus(cfg, ext, gc, r0, rn1, rn2):
    return _binop(cfg, r0, rn1, rn2, operator.add)


def exec_minus(cfg, ext, gc, r0, rn1, rn2):
    return _binop(cfg, r0, rn1, rn2, operator.sub)


def exec_seta2b(cfg, ext, gc, r1):
    if r1 == PC:
        return FAILED
    c = cfg.reg[r1]
    if isinstance(c, ext.pointers):
        return upd_pc_addr(cfg, {r1: _with_addr(c, c.base)})
    if isinstance(c, SealCap):
        return upd_pc_addr(cfg, {r1: SealCap(c.base, c.end, c.base)})
    return FAILED


def exec_cseal(cfg, ext, gc, r1, r2):
    sc = cfg.reg[r1]
    s = cfg.reg[r2]
    if is_sealable(sc) and isinstance(s, SealCap) and within_bounds(s):
        return upd_pc_addr(cfg, {r1: Sealed(s.cur, sc)})
    return FAILED


def exec_split(cfg, ext, gc, r1, r2, r3, rn4):
    n = _operand(cfg, rn4)
    if n is None or PC in (r1, r2, r3):
        return FAILED
    c = cfg.reg[r3]
    if ((isinstance(c, ext.pointers) or isinstance(c, SealCap))
            and c.base <= n < c.end):
        # Seals are normal: lin_cons leaves the seal in r3.
        return upd_pc_addr(cfg, {
            r3: lin_cons(c), r1: c._replace(end=n),
            r2: c._replace(base=n + 1)})
    return FAILED


def exec_splice(cfg, ext, gc, r1, r2, r3):
    if PC in (r1, r2, r3):
        return FAILED
    c2 = cfg.reg[r2]
    c3 = cfg.reg[r3]
    if not (type(c2) is type(c3)
            and (isinstance(c2, ext.pointers) or isinstance(c2, SealCap))
            and c2.end + 1 == c3.base
            and c2.base <= c2.end and c3.base <= c3.end):
        return FAILED
    if not isinstance(c2, SealCap) and (
            c2.perm != c3.perm or is_linear(c2) != is_linear(c3)):
        return FAILED
    return upd_pc_addr(cfg, {
        r2: lin_cons(c2), r3: lin_cons(c3),
        r1: c3._replace(base=c2.base)})


def xjump_result(c1, c2, cfg, ext, gc, updates: dict):
    """Dispatch after unsealing an xjmp pair.

    ``updates`` holds the registers the jump has written so far, which
    are not yet in ``cfg``: each outcome adds its own to them and writes
    them all in one register copy, so they are the step's write set.
    The base case loads the code half into pc and the data half into
    r_data; the source extension adds the return-token case.
    """
    if (not isinstance(c1, RetPtrCode) and not isinstance(c2, RetPtrData)
            and non_exec(c2)):
        updates[PC] = c1
        updates[RDATA] = c2
        return _new(Running, (cfg.with_regs(updates), updates))
    out = ext.xjump_result(c1, c2, cfg, gc, updates)
    if out is not None:
        return out
    return FAILED


def exec_xjmp(cfg, ext, gc, r1, r2):
    w1 = cfg.reg[r1]
    w2 = cfg.reg[r2]
    if (isinstance(w1, Sealed) and isinstance(w2, Sealed)
            and w1.sigma == w2.sigma):
        # The registers keep the sealed words, as under the atomic call
        # rule; only linear halves are cleared.
        return xjump_result(w1.inner, w2.inner, cfg, ext, gc,
                            {r1: lin_cons(w1), r2: lin_cons(w2)})
    return FAILED


_HANDLER = {op: "exec_" + op for op in OPCODES}
_MODULE = globals()


@functools.lru_cache(maxsize=4096)
def _decode(w):
    """(handler name, operands) of the word ``w``: ``dec_instr`` and the
    handler table run once per distinct word, not once per step."""
    instr = dec_instr(w)
    return _HANDLER[instr.op], instr.args


def exec_instr(instr: Instr, cfg, ext: MachineExtension, gc: GlobalConstants):
    """One decoded instruction through the handler table ``step`` uses.
    The handler is looked up in the module's globals on every call, so a
    wrapped handler is seen."""
    return _MODULE[_HANDLER[instr.op]](cfg, ext, gc, *instr.args)


def step(cfg, ext: MachineExtension = NULL_EXTENSION,
         gc: GlobalConstants = None):
    pc = cfg.reg[PC]
    if not (isinstance(pc, MemCap) and pc.perm in EXEC_PERMS):
        return FAILED
    w = cfg.mem.get(pc.addr)
    # A call sequence starts with CALL_HEAD (``call_cond`` rejects any
    # other first cell), so no other cell needs call recognition.
    if w == CALL_HEAD:
        out = ext.recognize_call(cfg, gc)
        if out is not None:
            return out
    if w is None or not pc.base <= pc.addr <= pc.end:
        return FAILED
    # The memo holds the handler's name, not the function, so a wrapped
    # handler is seen.
    name, args = _decode(w)
    return _MODULE[name](cfg, ext, gc, *args)
