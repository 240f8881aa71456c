"""The instruction handlers, the decode memo and the extensions that
both machines step with; ``harness.run`` is the loop that calls them.

A handler makes every write of its step in place, after its last
guard, so a step that fails or halts writes nothing: the registers it
changes into ``cfg.reg``, the dict that the run copied for itself, and
its one cell, if any, into the memory of ``cfg`` that it indexes.  It
returns None when pc moves on, ``JUMPED`` when it set pc, the cell it
wrote as ``(memory, address, word)`` (a store, or a load that empties a
linear word's cell), the new ``SourceConfig`` of a call or a return,
which set pc, or ``FAILED`` or ``HALTED``.  Only a jump (jmp, jnz,
xjmp), a call and a return set pc: any other instruction that names pc
as a register it writes decodes to fail.  So the run moves pc to the
next cell after any other step, in the one place that rule is written;
it keeps pc's fields in locals and writes pc's register only when
something reads it.  ``_DECODED``, a bounded dict memo keyed by the word
(never by its address, so a store into code runs the new word), gives
each distinct word's handler name, its operands as one tuple, whether
the handler reads pc, and the registers a step of it may write, pc
among them, which the run hands to a hook.  The one word ``CALL_HEAD``,
the first of every call sequence, decodes to ``_exec_call_head``: the
call, when the extension recognizes one at pc, or else the word's own
rule, a move.  The run looks the handler up by name here at every step
and calls it as ``exec_<op>(cfg, ext, gc, ops)``: a call with a fixed
number of arguments, which CPython 3.11 inlines into the running
interpreter loop; a starred call it does not.
The common steps call no helper: a jump to a normal memory capability
writes only pc, ``move r pc`` tests pc's linearity in place, ``cca`` and
``seta2b`` build the moved pointer from the fields they keep, the
handlers ``_binop`` builds do the arithmetic themselves, a store or a
register move of an int or a normal memory capability keeps it with no
call, and a load tells whether the word it reads is linear, and a
splice whether its halves are, by one lookup in ``core.OWNS``, the
table of the words that own addresses.
Records are built with ``tuple.__new__``, which skips the Python-level
constructor that ``namedtuple`` generates.  A memory capability indexes
``mem`` and a stack pointer ``ms_stk``; every pointer case is written
once over the pointer and its segment, and load and store share one
access guard, ``_access``.  Permission sets are tuples, not sets: a
tuple's ``in`` tests identity first and hashes nothing.  A
``MachineExtension`` names the pointer kinds its machine accepts and
supplies the source-only rules (call recognition, return-token jumps)
as hooks; the target uses the null extension: memory capabilities
only, and no hooks.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass

from .asm import CALL_HEAD
from .core import (
    _LINEAR, _NORMAL, EXEC_PERMS, OPCODES, OWNS, PC, RDATA, READ_PERMS,
    WRITE_PERMS, MemCap, RetPtrCode, RetPtrData, SealCap, Sealed, StkPtr,
    _new, dec_instr, dec_perm, enc_lin, enc_perm, enc_type, is_linear,
    is_sealable, lin_cons, perm_leq,
)


@dataclass(frozen=True)
class Failed:
    kind = "failed"


@dataclass(frozen=True)
class Halted:
    kind = "halted"


@dataclass(frozen=True)
class Jumped:
    kind = "jumped"


FAILED = Failed()
HALTED = Halted()
JUMPED = Jumped()   # the step set pc, so the run reads it back

# The handlers below tell a pointer's kind by its type and build pointers
# and seals by position, concatenating the fields they keep (``cca``,
# ``restrict``, ``seta2b``, ``split``, ``splice``): perm comes first, and
# base, end and addr (a seal's cur) last.
assert MemCap._fields[0] == StkPtr._fields[0] == "perm" and all(
    t._fields[-3:-1] == ("base", "end") for t in (MemCap, StkPtr, SealCap))


class MachineExtension:
    """What sets one machine apart from the other.

    ``pointers`` lists the capability kinds that load, store and the
    pointer instructions accept.  Two hooks hold the source-only rules:
    ``recognize_call(cfg, gc)``, big-step call dispatch, which only
    ``CALL_HEAD``'s handler calls, with pc's register holding an
    executable memory capability within its bounds whose cell holds that
    word; and ``xjump_result(c1, c2, cfg, gc, pending)``, the jumps
    through a sealed pair that the base case of ``xjump_result`` below
    does not take, which writes the step's ``pending`` writes only when
    it applies and every premise of its case holds.  Each returns a step
    outcome when its case applies and None otherwise: a call or a return
    returns its new ``SourceConfig``, over the run's registers, which it
    has written.  This base class is the target machine: memory
    capabilities only, and no hooks (None), so its steps call nothing in
    their place.
    """

    pointers = (MemCap,)
    recognize_call = xjump_result = None


NULL_EXTENSION = MachineExtension()


def exec_fail(cfg, ext, gc, ops):
    return FAILED


def exec_halt(cfg, ext, gc, ops):
    return HALTED


def exec_jmp(cfg, ext, gc, ops):
    r, = ops
    reg = cfg.reg
    target = reg[r]
    # r keeps a normal memory capability, so only pc is written
    if type(target) is not MemCap or target.lin is not _NORMAL:
        reg[r] = lin_cons(target)
    reg[PC] = target
    return JUMPED


def exec_jnz(cfg, ext, gc, ops):
    r, rn = ops
    reg = cfg.reg
    x = rn if type(rn) is int else reg[rn]
    if type(x) is int and x == 0:   # a capability is never 0
        return None
    target = reg[r]
    if type(target) is not MemCap or target.lin is not _NORMAL:
        reg[r] = lin_cons(target)
    reg[PC] = target
    return JUMPED


def exec_gettype(cfg, ext, gc, ops):
    r1, r2 = ops
    cfg.reg[r1] = enc_type(cfg.reg[r2])


def exec_geta(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    if isinstance(w, (MemCap, StkPtr)):
        v = w.addr
    elif isinstance(w, SealCap):
        v = w.cur
    else:
        v = -1
    cfg.reg[r1] = v


def exec_getb(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    cfg.reg[r1] = w.base if isinstance(w, (MemCap, StkPtr, SealCap)) else -1


def exec_gete(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    cfg.reg[r1] = w.end if isinstance(w, (MemCap, StkPtr, SealCap)) else -1


def exec_getp(cfg, ext, gc, ops):
    r1, r2 = ops
    w = cfg.reg[r2]
    cfg.reg[r1] = enc_perm(w.perm) if isinstance(w, (MemCap, StkPtr)) \
        else -1


def exec_getlin(cfg, ext, gc, ops):
    r1, r2 = ops
    lin = _LINEAR if is_linear(cfg.reg[r2]) else _NORMAL
    cfg.reg[r1] = enc_lin(lin)


def exec_move(cfg, ext, gc, ops):
    r, rn = ops
    reg = cfg.reg
    if type(rn) is int:
        reg[r] = rn
        return None
    old = reg[rn]
    if rn == PC:   # pc moves on, so it is copied, never cleared
        # ``harness.run`` has checked that pc is a memory capability
        if old.lin is not _NORMAL:
            return FAILED
    elif (t := type(old)) is not int and (
            t is not MemCap or old.lin is not _NORMAL):
        # Clear the source register first, then write the destination:
        # correct even when r == rn (a linear cap stays put).  An int or
        # a normal memory capability stays, as in ``exec_store``
        reg[rn] = lin_cons(old)
    reg[r] = old
    return None


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
    reg = cfg.reg
    c = reg[r1]
    m = _access(cfg, ext, c, WRITE_PERMS)
    if m is None:
        return FAILED
    a = c.addr
    # ``a in m`` with no Python-level call: the written cells, then
    # ``Ranges.__contains__``'s bisect of the domain, inlined
    if not (a in m.written or (i := bisect_right(m.domain._lo, a))
            and a <= m.domain._hi[i - 1]):
        return FAILED
    w = reg[r2]
    # an int or a normal memory capability stays in r2: ``lin_cons``'s
    # own first test, with no call
    t = type(w)
    if t is not int and (t is not MemCap or w.lin is not _NORMAL):
        reg[r2] = lin_cons(w)
    m.written[a] = w
    return m, a, w


def exec_load(cfg, ext, gc, ops):
    r1, r2 = ops
    reg = cfg.reg
    c = reg[r2]
    m = _access(cfg, ext, c, READ_PERMS)
    if m is None:
        return FAILED
    a = c.addr
    w = m.written.get(a)
    if w is None:   # unwritten: 0 in the domain, None outside it
        w = m.get(a)
        if w is None:
            return FAILED
    t = type(w)
    if t is int or t is MemCap and w.lin is _NORMAL:
        reg[r1] = w
        return None
    v = w[1] if t is Sealed else w   # linear? told as ``lin_cons`` tells it
    t = type(v)
    own = OWNS.get(v[1] if t is MemCap else t)
    if not (own and own(v)):
        reg[r1] = w
        return None
    # lin_cons empties a linear word's cell, so the pointer must write
    if c.perm not in WRITE_PERMS:
        return FAILED
    reg[r1] = w
    m.written[a] = 0
    return m, a, 0


def exec_cca(cfg, ext, gc, ops):
    r, rn = ops
    reg = cfg.reg
    n = rn if type(rn) is int else reg[rn]
    if type(n) is not int:
        return FAILED
    c = reg[r]
    if not (((t := type(c)) is MemCap or t in ext.pointers or t is SealCap)
            and (a := c[-1] + n) >= 0):
        return FAILED
    reg[r] = _new(t, c[:-1] + (a,))
    return None


def exec_restrict(cfg, ext, gc, ops):
    r1, rn = ops
    reg = cfg.reg
    n = rn if type(rn) is int else reg[rn]
    if type(n) is not int:
        return FAILED
    c = reg[r1]
    p = dec_perm(n)
    if not ((t := type(c)) in ext.pointers and perm_leq(p, c.perm)):
        return FAILED
    reg[r1] = _new(t, (p,) + c[1:])
    return None


def _binop(fn):
    """The handler of an arithmetic instruction ``r0 rn1 rn2``: ``fn`` of
    two ints into ``r0``.  The handler does the work itself, so an
    arithmetic step calls no helper."""
    def exec_binop(cfg, ext, gc, ops):
        r0, rn1, rn2 = ops
        reg = cfg.reg
        n1 = rn1 if type(rn1) is int else reg[rn1]
        n2 = rn2 if type(rn2) is int else reg[rn2]
        if type(n1) is not int or type(n2) is not int:
            return FAILED
        reg[r0] = fn(n1, n2)
        return None
    return exec_binop


def _lt(a, b):
    return 1 if a < b else 0


exec_lt = _binop(_lt)
exec_plus = _binop(operator.add)
exec_minus = _binop(operator.sub)


def exec_seta2b(cfg, ext, gc, ops):
    r1, = ops
    reg = cfg.reg
    c = reg[r1]
    if not ((t := type(c)) is MemCap or t in ext.pointers or t is SealCap):
        return FAILED
    reg[r1] = _new(t, c[:-1] + (c.base,))
    return None


def exec_cseal(cfg, ext, gc, ops):
    r1, r2 = ops
    reg = cfg.reg
    sc = reg[r1]
    s = reg[r2]
    if not (is_sealable(sc) and isinstance(s, SealCap)
            and s.base <= s.cur <= s.end):
        return FAILED
    reg[r1] = _new(Sealed, (s.cur, sc))
    return None


def exec_split(cfg, ext, gc, ops):
    r1, r2, r3, rn4 = ops
    reg = cfg.reg
    n = rn4 if type(rn4) is int else reg[rn4]
    if type(n) is not int:
        return FAILED
    c = reg[r3]
    if not (((t := type(c)) is MemCap or t in ext.pointers or t is SealCap)
            and c.base <= n < c.end):
        return FAILED
    # Seals are normal: lin_cons leaves the seal in r3.  The writes go
    # in this order, so overlapping operands end as the rule says.
    reg[r3] = lin_cons(c)
    reg[r1] = _new(t, c[:-2] + (n, c[-1]))
    reg[r2] = _new(t, c[:-3] + (n + 1,) + c[-2:])
    return None


def exec_splice(cfg, ext, gc, ops):
    r1, r2, r3 = ops
    reg = cfg.reg
    c2 = reg[r2]
    c3 = reg[r3]
    if not ((t := type(c2)) is type(c3)
            and (t is MemCap or t in ext.pointers or t is SealCap)
            and c2.end + 1 == c3.base
            and c2.base <= c2.end and c3.base <= c3.end):
        return FAILED
    # the halves have one type, so one ownership key, as the load tells
    # a word, decides both: a memory capability's lin, else the type
    if t is MemCap:
        key = c2[1]
        if key is not c3[1]:   # one linear half, one normal
            return FAILED
    else:
        key = t
    if t is not SealCap and c2.perm != c3.perm:
        return FAILED
    if key in OWNS:   # each linear half is moved into the spliced word
        reg[r2] = 0
        reg[r3] = 0
    reg[r1] = _new(t, c3[:-3] + (c2.base,) + c3[-2:])
    return None


def xjump_result(w1, w2, r1, r2, cfg, ext, gc, pending=()):
    """The xjmp rule over the words ``w1`` and ``w2`` read from registers
    ``r1`` and ``r2``: ``exec_xjmp`` and the atomic call both jump here.

    ``pending`` holds the ``(register, word)`` writes that the step
    makes before the jump, not yet in ``cfg`` (the atomic call's): the
    jump adds the linear halves it clears, and the case that applies
    writes them all, then its own, once every premise of the rule and of
    its case holds, so a jump that fails writes nothing.  The registers
    keep the sealed words: only linear halves are cleared, so only they
    are written.  The base case loads the code half into pc and the
    data half into r_data and returns ``JUMPED``; any other pair goes to
    the extension's ``xjump_result`` hook, which fails on a machine that
    has none: the source's adds the return-token case, which returns its
    new ``SourceConfig``.
    """
    if r1 == r2 and is_linear(w1):   # one linear word cannot be both halves
        return FAILED
    if not (isinstance(w1, Sealed) and isinstance(w2, Sealed)
            and w1.sigma == w2.sigma):
        return FAILED
    if (v := lin_cons(w1)) is not w1:
        pending += ((r1, v),)
    if (v := lin_cons(w2)) is not w2:
        pending += ((r2, v),)
    c1, c2 = w1.inner, w2.inner
    if (not isinstance(c1, RetPtrCode) and not isinstance(c2, RetPtrData)
            and not (isinstance(c2, MemCap) and c2.perm in EXEC_PERMS)):
        reg = cfg.reg
        for r, w in pending:
            reg[r] = w
        reg[PC] = c1
        reg[RDATA] = c2
        return JUMPED
    hook = ext.xjump_result
    out = None if hook is None else hook(c1, c2, cfg, gc, pending)
    return FAILED if out is None else out


def exec_xjmp(cfg, ext, gc, ops):
    r1, r2 = ops
    return xjump_result(cfg.reg[r1], cfg.reg[r2], r1, r2, cfg, ext, gc)


def _exec_call_head(cfg, ext, gc, ops):
    """The handler of ``CALL_HEAD``, a call sequence's first word
    (``asm.call_cond`` rejects any other first cell), which the run
    calls with pc's register written: the call, when ``ext`` has a
    ``recognize_call`` and it recognizes one at pc, or else the word's
    own rule, through the module's ``exec_move``."""
    hook = ext.recognize_call
    if hook is not None and (out := hook(cfg, gc)) is not None:
        return out
    return exec_move(cfg, ext, gc, ops)


_HANDLER = {op: "exec_" + op for op in OPCODES}
_MODULE = globals()


# word -> ``_decode(word)``, which fills it
_DECODED = {}


def _decode(w):
    """(handler name, operands, reads_pc, wrote) of the word ``w``,
    fail's when it names pc at an operand ``OPCODES`` marks "w": no
    handler tests for pc.  The handler is ``_exec_call_head`` for
    ``CALL_HEAD`` and ``exec_<op>`` for any other word.  ``reads_pc``
    says that the handler reads pc (an operand names it, or it is
    ``CALL_HEAD``'s), so the run writes pc's register before it.
    ``wrote`` names the registers a step of it may write, pc among them:
    a jump's operands ``OPCODES`` marks "r" (and rdata, xjmp's), any
    other instruction's marked "w", and the source of a register move,
    which it clears of a linear word (after a call, which may write any
    register, the run names every register instead).  It is stored in
    ``_DECODED``, which ``harness.run`` reads with ``.get`` first, so
    each distinct word is decoded once; the memo is emptied
    when it holds 4096 words.  A plain dict, not an ``lru_cache``, whose
    hit relinks its list: a hit is one C-level ``get``.  The operands
    stay one tuple, which the run passes as one argument."""
    if len(_DECODED) >= 4096:
        _DECODED.clear()
    instr = dec_instr(w)
    op, args = instr.op, instr.args
    marks = OPCODES[op]
    if any(k == "w" and a == PC for k, a in zip(marks, args)):
        out = _HANDLER["fail"], (), False, ()
    else:
        kind = "r" if op in ("jmp", "jnz", "xjmp") else "w"
        wrote = [a for k, a in zip(marks, args) if k == kind]
        if op == "xjmp":
            wrote.append(RDATA)
        elif op == "move" and type(args[1]) is str:
            wrote.append(args[1])
        call = w == CALL_HEAD
        out = ("_exec_call_head" if call else _HANDLER[op], args,
               call or PC in args, tuple(dict.fromkeys(wrote + [PC])))
    _DECODED[w] = out
    return out
