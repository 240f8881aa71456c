"""Single-step instruction interpretation shared by both machines.

No function here writes a configuration.  A handler that writes only
registers returns its writes as a dict; one that writes a cell or the
frames returns a ``Running``, its writes unapplied.  Only a jump (jmp,
jnz, xjmp) sets pc: any other instruction that names pc as a register
it writes decodes to fail.  So writes that name pc are a jump's, and
``advance`` adds the next pc to any others, building nothing:
``harness.Run``, the one loop over steps, applies them in place, and a
register-only step is one ``advance`` call plus its handler's.
``advance`` is the one-step API, and the one place the next-pc rule is
written.

``advance`` reads pc's cell from the memory's written cells and
decodes each distinct word once: a bounded dict memo, ``_DECODED``,
keyed by the word (never by its address, so a store into code runs the
new word) gives the handler's name and its operands as one tuple.  The
handler is then looked up by name in the module and called as
``exec_<op>(cfg, ext, gc, ops)``: a call with a fixed number of
arguments, which CPython 3.11 inlines into the running interpreter
loop; a starred call it does not.  The common register steps call no
helper: a jump to a normal memory capability writes only pc, ``move r
pc`` tests pc's linearity in place, ``cca`` and ``seta2b`` build the
moved pointer from its fields, and the arithmetic handlers that
``_binop`` builds do the work themselves.  Records
are built with ``tuple.__new__``, which skips the Python-level
constructor that ``namedtuple`` generates.  A memory capability
indexes ``mem`` and a stack pointer ``ms_stk``; every pointer case is
written once over the pointer and its segment, and load and store
share one access guard, ``_access``.  Operands are read in place, and
permission sets are tuples, not sets: a tuple's ``in`` tests identity
first and hashes nothing.  A
``MachineExtension`` names the pointer kinds its machine accepts and
supplies the source-only rules (call recognition, return-token jumps);
the target uses the null extension: memory capabilities only.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass

from .asm import CALL_HEAD
from .core import (
    _LINEAR, _NORMAL, EXEC_PERMS, OPCODES, PC, RDATA, READ_PERMS,
    WRITE_PERMS, GlobalConstants, MemCap, Record, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, dec_instr, dec_perm, enc_lin,
    enc_perm, enc_type, is_linear, is_sealable, lin_cons, linear_range,
    non_exec, perm_leq, within_bounds,
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


def exec_fail(cfg, ext, gc, ops):
    return FAILED


def exec_halt(cfg, ext, gc, ops):
    return HALTED


def exec_jmp(cfg, ext, gc, ops):
    r, = ops
    target = cfg.reg[r]
    # r keeps a normal memory capability, so only pc is written
    if type(target) is MemCap and target.lin is _NORMAL:
        return {PC: target}
    return {r: lin_cons(target), PC: target}


def exec_jnz(cfg, ext, gc, ops):
    r, rn = ops
    x = rn if type(rn) is int else cfg.reg[rn]
    if type(x) is not int or x != 0:   # a capability is never 0
        target = cfg.reg[r]
        if type(target) is MemCap and target.lin is _NORMAL:
            return {PC: target}
        return {r: lin_cons(target), PC: target}
    return {}


def exec_gettype(cfg, ext, gc, ops):
    r1, r2 = ops
    return {r1: enc_type(cfg.reg[r2])}


def exec_geta(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr)):
        v = w.addr
    elif isinstance(w, SealCap):
        v = w.cur
    else:
        v = -1
    return {r1: v}


def exec_getb(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    return {r1: w.base if isinstance(w, (MemCap, StkPtr, SealCap)) else -1}


def exec_gete(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    return {r1: w.end if isinstance(w, (MemCap, StkPtr, SealCap)) else -1}


def exec_getp(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    return {r1: enc_perm(w.perm) if isinstance(w, (MemCap, StkPtr)) else -1}


def exec_getlin(cfg, ext, gc, ops):
    r1, r2 = ops
    lin = _LINEAR if is_linear(cfg.reg[r2]) else _NORMAL
    return {r1: enc_lin(lin)}


def exec_move(cfg, ext, gc, ops):
    r, rn = ops
    if type(rn) is int:
        return {r: rn}
    old = cfg.reg[rn]
    if rn == PC:   # pc moves on, so it is copied, never cleared
        # ``advance`` has checked that pc is a memory capability
        return {r: old} if old.lin is _NORMAL else FAILED
    # Clear the source register first, then write the destination:
    # correct even when r == rn (a linear cap stays put).
    return {rn: lin_cons(old), r: old}


def _access(cfg, ext, c, perms):
    """The memory ``c`` indexes (the stack memory for a stack pointer)
    when ``c`` is one of ``ext``'s pointer kinds, its permission is in
    ``perms`` and its address within its bounds; None otherwise."""
    if (isinstance(c, ext.pointers) and c.perm in perms
            and c.base <= c.addr <= c.end):
        return cfg.ms_stk if type(c) is StkPtr else cfg.mem
    return None


def exec_store(cfg, ext, gc, ops):
    r1, r2 = ops
    c = cfg.reg[r1]
    m = _access(cfg, ext, c, WRITE_PERMS)
    if m is not None and (c.addr in m.written or c.addr in m.domain):
        w = cfg.reg[r2]
        return _new(Running, (cfg, {r2: lin_cons(w)}, (m, c.addr, w)))
    return FAILED


def exec_load(cfg, ext, gc, ops):
    r1, r2 = ops
    c = cfg.reg[r2]
    m = _access(cfg, ext, c, READ_PERMS)
    if m is None:
        return FAILED
    w = m.written.get(c.addr)
    if w is None:   # unwritten: 0 in the domain, None outside it
        w = m.get(c.addr)
        if w is None:
            return FAILED
    if type(w) is int or linear_range(w) is None:
        return {r1: w}
    # lin_cons empties a linear word's cell, so the pointer must write
    if c.perm in WRITE_PERMS:
        return _new(Running, (cfg, {r1: w}, (m, c.addr, 0)))
    return FAILED


def exec_cca(cfg, ext, gc, ops):
    r, rn = ops
    n = rn if type(rn) is int else cfg.reg[rn]
    if type(n) is not int:
        return FAILED
    c = cfg.reg[r]
    if isinstance(c, ext.pointers):
        if c.addr + n < 0:
            return FAILED
        # both pointer records end in addr
        return {r: _new(type(c), (*c[:-1], c.addr + n))}
    if isinstance(c, SealCap):
        if c.cur + n < 0:
            return FAILED
        return {r: SealCap(c.base, c.end, c.cur + n)}
    return FAILED


def exec_restrict(cfg, ext, gc, ops):
    r1, rn = ops
    n = rn if type(rn) is int else cfg.reg[rn]
    if type(n) is not int:
        return FAILED
    c = cfg.reg[r1]
    p = dec_perm(n)
    if isinstance(c, ext.pointers) and perm_leq(p, c.perm):
        return {r1: c._replace(perm=p)}
    return FAILED


def _binop(fn):
    """The handler of an arithmetic instruction ``r0 rn1 rn2``: ``fn`` of
    two ints into ``r0``.  The handler does the work itself, so an
    arithmetic step calls no helper."""
    def exec_binop(cfg, ext, gc, ops):
        r0, rn1, rn2 = ops
        n1 = rn1 if type(rn1) is int else cfg.reg[rn1]
        n2 = rn2 if type(rn2) is int else cfg.reg[rn2]
        if type(n1) is int and type(n2) is int:
            return {r0: fn(n1, n2)}
        return FAILED
    return exec_binop


def _lt(a, b):
    return 1 if a < b else 0


exec_lt = _binop(_lt)
exec_plus = _binop(operator.add)
exec_minus = _binop(operator.sub)


def exec_seta2b(cfg, ext, gc, ops):
    r1, = ops
    c = cfg.reg[r1]
    if isinstance(c, ext.pointers):
        return {r1: _new(type(c), (*c[:-1], c.base))}
    if isinstance(c, SealCap):
        return {r1: SealCap(c.base, c.end, c.base)}
    return FAILED


def exec_cseal(cfg, ext, gc, ops):
    r1, r2 = ops
    sc = cfg.reg[r1]
    s = cfg.reg[r2]
    if is_sealable(sc) and isinstance(s, SealCap) and within_bounds(s):
        return {r1: Sealed(s.cur, sc)}
    return FAILED


def exec_split(cfg, ext, gc, ops):
    r1, r2, r3, rn4 = ops
    n = rn4 if type(rn4) is int else cfg.reg[rn4]
    if type(n) is not int:
        return FAILED
    c = cfg.reg[r3]
    if ((isinstance(c, ext.pointers) or isinstance(c, SealCap))
            and c.base <= n < c.end):
        # Seals are normal: lin_cons leaves the seal in r3.
        return {
            r3: lin_cons(c), r1: c._replace(end=n),
            r2: c._replace(base=n + 1)}
    return FAILED


def exec_splice(cfg, ext, gc, ops):
    r1, r2, r3 = ops
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


def exec_xjmp(cfg, ext, gc, ops):
    r1, r2 = ops
    w1 = cfg.reg[r1]
    w2 = cfg.reg[r2]
    if r1 == r2 and is_linear(w1):   # one linear word cannot be both halves
        return FAILED
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


# word -> ``_decode(word)``, which fills it
_DECODED = {}


def _decode(w):
    """(handler name, operands) of the word ``w``, fail's when it names pc
    as a register it writes: no handler tests for pc.  It is stored in
    ``_DECODED``, which ``advance`` reads with ``.get`` first, so each
    distinct word is decoded once; the memo is emptied when it holds
    4096 words.  A plain dict, not an ``lru_cache``, whose hit relinks
    its list: a hit is one C-level ``get``.  The operands stay one tuple,
    which ``advance`` passes as one argument."""
    if len(_DECODED) >= 4096:
        _DECODED.clear()
    instr = dec_instr(w)
    args = instr.args
    if any(args[i] == PC for i in _WRITES.get(instr.op, ())):
        out = _HANDLER["fail"], ()
    else:
        out = _HANDLER[instr.op], args
    _DECODED[w] = out
    return out


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
    name, ops = _DECODED.get(w) or _decode(w)
    out = _MODULE[name](cfg, ext, gc, ops)
    # the next-pc rule: writes that do not name pc (a jump's do) gain pc
    # moved to the next cell
    if type(out) is dict:
        if PC not in out:
            out[PC] = _new(MemCap, (perm, lin, base, end, a + 1))
    elif type(out) is Running and PC not in out[1]:
        out[1][PC] = _new(MemCap, (perm, lin, base, end, a + 1))
    return out
