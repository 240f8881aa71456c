"""The instruction handlers, the decode memo and the extensions that
both machines step with; ``harness.run`` is the loop that calls them.

No function here writes a configuration.  A handler that writes only
registers returns its writes as a dict; one that writes a cell or the
frames returns a ``Running``, its writes unapplied.  Only a jump (jmp,
jnz, xjmp) sets pc: any other instruction that names pc as a register it
writes decodes to fail.  So writes that name pc are a jump's, and the
run moves pc to the next cell after any others, in the one place that
rule is written.  The run keeps pc's fields in locals and writes pc's
register only when something reads it.  ``_DECODED``, a bounded dict
memo keyed by the word (never by its address, so a store into code runs
the new word), gives each distinct word's handler name, its operands as
one tuple, and whether an operand names pc.  The run looks the handler
up by name here at every step and calls it as
``exec_<op>(cfg, ext, gc, ops)``: a call with a fixed number of
arguments, which CPython 3.11 inlines into the running interpreter loop;
a starred call it does not.
The common steps call no helper: a jump to a normal memory capability
writes only pc, ``move r pc`` tests pc's linearity in place, ``cca`` and
``seta2b`` build the moved pointer from the fields they keep, the
handlers ``_binop`` builds do the arithmetic themselves, a store of an
int or a normal memory capability keeps it with no call, and a load
tells whether the word it reads is linear in place.  Records are built
with ``tuple.__new__``, which skips the Python-level constructor that
``namedtuple`` generates.  A memory capability indexes ``mem`` and a
stack pointer ``ms_stk``; every pointer case is written once over the
pointer and its segment, and load and store share one access guard,
``_access``.  Permission sets are tuples, not sets: a tuple's ``in``
tests identity first and hashes nothing.  A ``MachineExtension`` names
the pointer kinds its machine accepts and supplies the source-only rules
(call recognition, return-token jumps); the target uses the null
extension: memory capabilities only.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass

from .core import (
    _LINEAR, _NORMAL, EXEC_PERMS, OPCODES, PC, RDATA, READ_PERMS,
    WRITE_PERMS, MemCap, Record, RetPtrCode, RetPtrData, SealCap, Sealed,
    StkPtr, dec_instr, dec_perm, enc_lin, enc_perm, enc_type, is_linear,
    is_sealable, lin_cons, linear_range, perm_leq,
)


class Running(Record, namedtuple("Running", "cfg wrote cell",
                                  defaults=(None,))):
    """A step's writes, unapplied: ``cfg``, the configuration it read,
    with a call's or a return's new frames and stack memory; ``wrote``,
    its register writes; ``cell``, None or its one cell write
    ``(memory, address, word)`` into a memory of ``cfg``."""

    __slots__ = ()


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

# The handlers below tell a pointer's kind by its type and build pointers
# and seals by position, concatenating the fields they keep (``cca``,
# ``restrict``, ``seta2b``, ``split``, ``splice``): perm comes first, and
# base, end and addr (a seal's cur) last.
assert MemCap._fields[0] == StkPtr._fields[0] == "perm" and all(
    t._fields[-3:-1] == ("base", "end") for t in (MemCap, StkPtr, SealCap))


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
        ``harness.run`` calls it only when pc is an executable memory
        capability within its bounds whose cell holds ``CALL_HEAD``."""
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
        # ``harness.run`` has checked that pc is a memory capability
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
    if m is None:
        return FAILED
    a = c.addr
    # ``a in m`` with no Python-level call: the written cells, then
    # ``Ranges.__contains__``'s bisect of the domain, inlined
    if a in m.written or (i := bisect_right(m.domain._lo, a)) \
            and a <= m.domain._hi[i - 1]:
        w = cfg.reg[r2]
        # an int or a normal memory capability stays in r2: ``lin_cons``'s
        # own first test, with no call
        t = type(w)
        kept = w if t is int or t is MemCap and w.lin is _NORMAL \
            else lin_cons(w)
        return _new(Running, (cfg, {r2: kept}, (m, a, w)))
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
    t = type(w)
    if t is int or t is MemCap and w.lin is _NORMAL:
        return {r1: w}
    v = w[1] if t is Sealed else w   # linear? told as ``lin_cons`` tells it
    t = type(v)
    if not (t is MemCap and v.lin is _LINEAR or t is StkPtr
            or t is RetPtrData or t is Sealed and linear_range(v)):
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
    if ((t := type(c)) is MemCap or t in ext.pointers or t is SealCap) \
            and (a := c[-1] + n) >= 0:
        return {r: _new(t, c[:-1] + (a,))}
    return FAILED


def exec_restrict(cfg, ext, gc, ops):
    r1, rn = ops
    n = rn if type(rn) is int else cfg.reg[rn]
    if type(n) is not int:
        return FAILED
    c = cfg.reg[r1]
    p = dec_perm(n)
    if (t := type(c)) in ext.pointers and perm_leq(p, c.perm):
        return {r1: _new(t, (p,) + c[1:])}
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
    if (t := type(c)) is MemCap or t in ext.pointers or t is SealCap:
        return {r1: _new(t, c[:-1] + (c.base,))}
    return FAILED


def exec_cseal(cfg, ext, gc, ops):
    r1, r2 = ops
    sc = cfg.reg[r1]
    s = cfg.reg[r2]
    if is_sealable(sc) and isinstance(s, SealCap) \
            and s.base <= s.cur <= s.end:
        return {r1: _new(Sealed, (s.cur, sc))}
    return FAILED


def exec_split(cfg, ext, gc, ops):
    r1, r2, r3, rn4 = ops
    n = rn4 if type(rn4) is int else cfg.reg[rn4]
    if type(n) is not int:
        return FAILED
    c = cfg.reg[r3]
    if (((t := type(c)) is MemCap or t in ext.pointers or t is SealCap)
            and c.base <= n < c.end):
        # Seals are normal: lin_cons leaves the seal in r3.
        return {
            r3: lin_cons(c), r1: _new(t, c[:-2] + (n, c[-1])),
            r2: _new(t, c[:-3] + (n + 1,) + c[-2:])}
    return FAILED


def exec_splice(cfg, ext, gc, ops):
    r1, r2, r3 = ops
    c2 = cfg.reg[r2]
    c3 = cfg.reg[r3]
    if not ((t := type(c2)) is type(c3)
            and (t is MemCap or t in ext.pointers or t is SealCap)
            and c2.end + 1 == c3.base
            and c2.base <= c2.end and c3.base <= c3.end):
        return FAILED
    if t is not SealCap and (
            c2.perm != c3.perm or is_linear(c2) != is_linear(c3)):
        return FAILED
    return {
        r2: lin_cons(c2), r3: lin_cons(c3),
        r1: _new(t, c3[:-3] + (c2.base,) + c3[-2:])}


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
            and not (isinstance(c2, MemCap) and c2.perm in EXEC_PERMS)):
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
        # rule; only linear halves are cleared, so only they are written
        wrote = {}
        if (v := lin_cons(w1)) is not w1:
            wrote[r1] = v
        if (v := lin_cons(w2)) is not w2:
            wrote[r2] = v
        return xjump_result(w1.inner, w2.inner, cfg, ext, gc, wrote)
    return FAILED


_HANDLER = {op: "exec_" + op for op in OPCODES}
_MODULE = globals()


# word -> ``_decode(word)``, which fills it
_DECODED = {}


def _decode(w):
    """(handler name, operands, reads_pc) of the word ``w``, fail's when
    it names pc at an operand ``OPCODES`` marks "w": no handler tests for
    pc.  ``reads_pc`` says that an operand names pc, so the run writes
    pc's register before the handler reads it.  It is stored in
    ``_DECODED``, which ``harness.run`` reads with ``.get`` first, so
    each distinct word is decoded once; the memo is emptied
    when it holds 4096 words.  A plain dict, not an ``lru_cache``, whose
    hit relinks its list: a hit is one C-level ``get``.  The operands
    stay one tuple, which the run passes as one argument."""
    if len(_DECODED) >= 4096:
        _DECODED.clear()
    instr = dec_instr(w)
    args = instr.args
    if any(k == "w" and a == PC for k, a in zip(OPCODES[instr.op], args)):
        out = _HANDLER["fail"], (), False
    else:
        out = _HANDLER[instr.op], args, PC in args
    _DECODED[w] = out
    return out
