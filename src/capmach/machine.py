"""Single-step instruction interpretation shared by both machines.

No function here writes a configuration.  A handler that writes only
registers returns its writes as a dict; one that writes a cell or the
frames returns a ``Running``, its writes unapplied.  Only a jump (jmp,
jnz, xjmp) sets pc: any other instruction that names pc as a register
it writes decodes to fail.  So writes that name pc are a jump's, and
``advance`` adds the next pc to any others, building nothing:
``harness.Run``, the one loop over steps, applies them in place, and a
register-only step is one ``advance`` call plus its handler's.  ``step``
(``advance``, applied to copies) and ``exec_instr`` (one decoded
instruction) are the one-step API.

``advance`` reads pc's cell from the memory's written cells and
decodes each distinct word once: a bounded memo keyed by the word
(never by its address, so a store into code runs the new word) gives
the handler's name and operands, and the handler is then looked up by
name in the module.  Records are built with ``tuple.__new__``, which
skips the Python-level constructor that ``namedtuple`` generates.  A
memory capability indexes ``mem`` and a stack pointer ``ms_stk``;
every pointer case is written once over the pointer and its segment.
A ``MachineExtension`` names the pointer kinds its machine accepts and
supplies the source-only rules (call recognition, return-token jumps);
the target uses the null extension: memory capabilities only.
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


class Running(Record, namedtuple("Running", "cfg wrote cell",
                                  defaults=(None,))):
    """A step's writes, unapplied: ``cfg``, the configuration it read,
    with a call's or a return's new frames and stack memory; ``wrote``,
    its register writes; ``cell``, None or its one cell write
    ``(memory, address, word)`` into a memory of ``cfg``."""

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
        """Big-step call dispatch; None means no call fires here.
        ``advance`` calls it only when pc is an executable memory
        capability whose cell holds ``CALL_HEAD``."""
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


def _with_addr(c, a):
    """Pointer ``c`` moved to address ``a`` (without ``_replace``: this
    runs on most pointer steps)."""
    if isinstance(c, StkPtr):
        return _new(StkPtr, (c.perm, c.base, c.end, a))
    return _new(MemCap, (c.perm, c.lin, c.base, c.end, a))


def exec_fail(cfg, ext, gc):
    return FAILED


def exec_halt(cfg, ext, gc):
    return HALTED


def exec_jmp(cfg, ext, gc, r):
    target = cfg.reg[r]
    return {r: lin_cons(target), PC: target}


def exec_jnz(cfg, ext, gc, r, rn):
    operand = rn if isinstance(rn, int) else cfg.reg[rn]
    if non_zero(operand):
        target = cfg.reg[r]
        return {r: lin_cons(target), PC: target}
    return {}


def exec_gettype(cfg, ext, gc, r1, r2):
    return {r1: enc_type(cfg.reg[r2])}


def exec_geta(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr)):
        v = w.addr
    elif isinstance(w, SealCap):
        v = w.cur
    else:
        v = -1
    return {r1: v}


def exec_getb(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr, SealCap)):
        v = w.base
    else:
        v = -1
    return {r1: v}


def exec_gete(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr, SealCap)):
        v = w.end
    else:
        v = -1
    return {r1: v}


def exec_getp(cfg, ext, gc, r1, r2):
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr)):
        v = enc_perm(w.perm)
    else:
        v = -1
    return {r1: v}


def exec_getlin(cfg, ext, gc, r1, r2):
    lin = Lin.LINEAR if is_linear(cfg.reg[r2]) else Lin.NORMAL
    return {r1: enc_lin(lin)}


def exec_move(cfg, ext, gc, r, rn):
    if isinstance(rn, int):
        return {r: rn}
    old = cfg.reg[rn]
    if rn == PC:   # pc moves on, so it is copied, never cleared
        return {r: old} if lin_cons(old) is old else FAILED
    # Clear the source register first, then write the destination:
    # correct even when r == rn (a linear cap stays put).
    return {rn: lin_cons(old), r: old}


def exec_store(cfg, ext, gc, r1, r2):
    c = cfg.reg[r1]
    if (isinstance(c, ext.pointers) and write_allowed(c.perm)
            and within_bounds(c) and c.addr in _segment(cfg, c)):
        w = cfg.reg[r2]
        return _new(Running, (cfg, {r2: lin_cons(w)},
                              (_segment(cfg, c), c.addr, w)))
    return FAILED


def exec_load(cfg, ext, gc, r1, r2):
    c = cfg.reg[r2]
    if (isinstance(c, ext.pointers) and read_allowed(c.perm)
            and within_bounds(c)):
        w = _segment(cfg, c).get(c.addr)
        if w is not None and lin_cons_perm(c.perm, w):
            # lin_cons changes only a linear word's cell: write no other.
            if is_linear(w):
                return _new(Running, (cfg, {r1: w},
                                      (_segment(cfg, c), c.addr, 0)))
            return {r1: w}
    return FAILED


def exec_cca(cfg, ext, gc, r, rn):
    n = _operand(cfg, rn)
    if n is None:
        return FAILED
    c = cfg.reg[r]
    if isinstance(c, ext.pointers):
        if c.addr + n < 0:
            return FAILED
        return {r: _with_addr(c, c.addr + n)}
    if isinstance(c, SealCap):
        if c.cur + n < 0:
            return FAILED
        return {r: SealCap(c.base, c.end, c.cur + n)}
    return FAILED


def exec_restrict(cfg, ext, gc, r1, rn):
    n = _operand(cfg, rn)
    if n is None:
        return FAILED
    c = cfg.reg[r1]
    p = dec_perm(n)
    if isinstance(c, ext.pointers) and perm_leq(p, c.perm):
        return {r1: c._replace(perm=p)}
    return FAILED


def _binop(cfg, r0, rn1, rn2, fn):
    n1 = _operand(cfg, rn1)
    n2 = _operand(cfg, rn2)
    if n1 is None or n2 is None:
        return FAILED
    return {r0: fn(n1, n2)}


def _lt(a, b):
    return 1 if a < b else 0


def exec_lt(cfg, ext, gc, r0, rn1, rn2):
    return _binop(cfg, r0, rn1, rn2, _lt)


def exec_plus(cfg, ext, gc, r0, rn1, rn2):
    return _binop(cfg, r0, rn1, rn2, operator.add)


def exec_minus(cfg, ext, gc, r0, rn1, rn2):
    return _binop(cfg, r0, rn1, rn2, operator.sub)


def exec_seta2b(cfg, ext, gc, r1):
    c = cfg.reg[r1]
    if isinstance(c, ext.pointers):
        return {r1: _with_addr(c, c.base)}
    if isinstance(c, SealCap):
        return {r1: SealCap(c.base, c.end, c.base)}
    return FAILED


def exec_cseal(cfg, ext, gc, r1, r2):
    sc = cfg.reg[r1]
    s = cfg.reg[r2]
    if is_sealable(sc) and isinstance(s, SealCap) and within_bounds(s):
        return {r1: Sealed(s.cur, sc)}
    return FAILED


def exec_split(cfg, ext, gc, r1, r2, r3, rn4):
    n = _operand(cfg, rn4)
    if n is None:
        return FAILED
    c = cfg.reg[r3]
    if ((isinstance(c, ext.pointers) or isinstance(c, SealCap))
            and c.base <= n < c.end):
        # Seals are normal: lin_cons leaves the seal in r3.
        return {
            r3: lin_cons(c), r1: c._replace(end=n),
            r2: c._replace(base=n + 1)}
    return FAILED


def exec_splice(cfg, ext, gc, r1, r2, r3):
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
    return {
        r2: lin_cons(c2), r3: lin_cons(c3),
        r1: c3._replace(base=c2.base)}


def xjump_result(c1, c2, cfg, ext, gc, updates: dict):
    """Dispatch after unsealing an xjmp pair.

    ``updates`` holds the registers the jump has written so far, which
    are not yet in ``cfg``: each outcome adds its own to them, so they
    are the step's write set.  The base case loads the code half into pc
    and the data half into r_data and returns them all, a jump's writes
    over ``cfg``; the source extension adds the return-token case, a
    ``Running``.
    """
    if (not isinstance(c1, RetPtrCode) and not isinstance(c2, RetPtrData)
            and non_exec(c2)):
        updates[PC] = c1
        updates[RDATA] = c2
        return updates
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

# op -> the positions of the register operands it writes, but for the
# jumps, which alone set pc (``exec_move`` decides ``move r pc``).
_WRITES = dict.fromkeys(
    ("gettype", "geta", "getb", "gete", "getp", "getlin", "lt", "plus",
     "minus", "cseal", "load", "cca", "restrict", "seta2b", "move"), (0,))
_WRITES.update(store=(1,), split=(0, 1, 2), splice=(0, 1, 2))


def _handler(instr: Instr):
    """(handler name, operands) of ``instr``, or fail's when it names pc
    as a register it writes: no handler tests for pc."""
    args = instr.args
    if any(args[i] == PC for i in _WRITES.get(instr.op, ())):
        return _HANDLER["fail"], ()
    return _HANDLER[instr.op], args


@functools.lru_cache(maxsize=4096)
def _decode(w):
    """``_handler`` of the word ``w``, once per distinct word."""
    return _handler(dec_instr(w))


def exec_instr(instr: Instr, cfg, ext: MachineExtension, gc: GlobalConstants):
    """One decoded instruction through the handler table ``step`` uses,
    as ``step`` returns its outcome.  The handler is looked up in the
    module's globals on every call, so a wrapped handler is seen.  Writes
    that do not name pc (a jump's do) gain pc moved to the next cell, or
    fail when pc is no memory capability: ``advance`` has a fast copy."""
    name, args = _handler(instr)
    out = _MODULE[name](cfg, ext, gc, *args)
    wrote = out.wrote if type(out) is Running else out
    if type(wrote) is dict and PC not in wrote:
        pc = cfg.reg[PC]
        if not isinstance(pc, MemCap):
            return FAILED
        wrote[PC] = pc._replace(addr=pc.addr + 1)
    return as_running(cfg, out)


def advance(cfg, ext: MachineExtension = NULL_EXTENSION,
            gc: GlobalConstants = None):
    """One step of ``cfg`` that builds no configuration when it writes
    only registers: FAILED, HALTED, a ``Running`` for a step that
    changes memory or frames, or else the step's register writes, pc
    included either way.  ``cfg`` is not written; the caller applies
    the writes."""
    pc = cfg.reg[PC]
    if not (isinstance(pc, MemCap) and pc.perm in EXEC_PERMS):
        return FAILED
    perm, lin, base, end, a = pc
    w = cfg.mem.written.get(a)
    if w is None:   # unwritten: 0 in the domain, None outside it
        w = cfg.mem.get(a)
    # A call sequence starts with CALL_HEAD (``call_cond`` rejects any
    # other first cell), so no other cell needs call recognition.
    if w == CALL_HEAD:
        out = ext.recognize_call(cfg, gc)
        if out is not None:
            return out
    if w is None or not base <= a <= end:
        return FAILED
    # The memo holds the handler's name, not the function, so a wrapped
    # handler is seen.
    name, args = _decode(w)
    out = _MODULE[name](cfg, ext, gc, *args)
    # ``exec_instr``'s pc rule, over a pc known to be a memory capability
    if type(out) is dict:
        if PC not in out:
            out[PC] = _new(MemCap, (perm, lin, base, end, a + 1))
    elif type(out) is Running and PC not in out[1]:
        out[1][PC] = _new(MemCap, (perm, lin, base, end, a + 1))
    return out


def step(cfg, ext: MachineExtension = NULL_EXTENSION,
         gc: GlobalConstants = None):
    """One step of ``cfg``: FAILED, HALTED, or a ``Running`` that owns a
    fresh register dict and a fresh copy of any memory the step wrote.
    ``cfg`` is not written."""
    return as_running(cfg, advance(cfg, ext, gc))
