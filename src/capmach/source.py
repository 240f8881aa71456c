"""The overlay machine: native stack, stack pointers, call/return tokens.

Source configurations extend the bare machine's with a separate stack
memory (``ms_stk``) and a stack of call frames; both machines share the
configuration shape, and the target leaves the stack fields empty.
Stack pointers index ms_stk through the same instruction cases as memory
capabilities (see ``machine``).  What is left here is source-only: the
call sequence, executed as a single big step whenever it sits entirely
at trusted addresses, and jumps through return tokens.  Both build their
records with ``machine._new``, as the handlers do.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .asm import CALL_LEN, CALL_WRITES, CANARY, CallParams, call_cond
from .core import (
    _NORMAL, PC, RDATA, RRETCODE, RRETDATA, RSTK, RTMP1, RTMP2,
    GlobalConstants, Memory, MemCap, Perm, Record, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, _new,
)
from .machine import FAILED, JUMPED, MachineExtension, xjump_result

# module constants: ``Perm.RW`` is a slow class-attribute lookup, and a
# call and a return each make several
_RW, _RX = Perm.RW, Perm.RX


class StackFrame(Record, namedtuple("StackFrame", "opc ms")):
    """A saved call frame: ``opc`` is the return address in the caller's
    code capability, ``ms`` the memory of the caller's private stack."""

    __slots__ = ()


class SourceConfig(Record, namedtuple("SourceConfig", "mem reg stk ms_stk",
                                     defaults=((), Memory()))):
    """A configuration of either machine: memory, registers (a dict),
    call frames innermost first, and the accessible stack memory.

    The target keeps its stack in ``mem``, so its ``stk`` and ``ms_stk``
    stay empty.  ``with_regs`` skips the constructor's Python-level
    ``__new__``.  A run copies the registers once, through it, and each
    memory once, as a new ``Memory`` over its cells, and writes those
    copies in place.
    """

    __slots__ = ()

    def with_regs(self, updates: dict) -> "SourceConfig":
        return tuple.__new__(SourceConfig, (
            self.mem, {**self.reg, **updates}, self.stk, self.ms_stk))


class SourceExtension(MachineExtension):
    """Stack pointers index ms_stk, and the call and return-token rules
    each fire as one step."""

    pointers = (MemCap, StkPtr)

    def xjump_result(self, c1, c2, cfg, gc, pending):
        if not (isinstance(c1, RetPtrCode) and isinstance(c2, RetPtrData)):
            return None
        # rstk as the writes before the jump leave it: the atomic call
        # writes it
        reg = cfg.reg
        rstk = reg[RSTK]
        for r, w in pending:
            if r == RSTK:
                rstk = w
        if not isinstance(rstk, StkPtr):
            return FAILED
        perm, b_stk, e_stk, _ = rstk
        if not (perm is _RW and b_stk == gc.stk_base <= e_stk):
            return FAILED
        stk = cfg.stk
        if not stk:
            return FAILED
        opc, ms_priv = stk[0]
        a_stk, e_priv = c2
        if opc != c1.addr or e_stk + 1 != a_stk:
            return FAILED
        # the frame's domain is ``a_stk..e_priv``: one run, or none; its
        # runs' bounds compared in C
        dom = ms_priv.domain
        if (dom._lo, dom._hi) != (
                ((a_stk,), (e_priv,)) if a_stk <= e_priv else ((), ())):
            return FAILED
        cfg = _new(SourceConfig, (cfg.mem, reg, stk[1:],
                                  cfg.ms_stk.update(ms_priv)))
        for r, w in pending:
            reg[r] = w
        reg[PC] = _new(MemCap, (_RX, _NORMAL, *c1))
        reg[RDATA] = 0
        reg[RSTK] = _new(StkPtr, (_RW, b_stk, e_priv, a_stk))
        reg[RTMP1] = reg[RTMP2] = 0
        return cfg

    def recognize_call(self, cfg, gc):
        pc = cfg.reg[PC]
        a = pc.addr
        params = call_cond(cfg.mem, a, gc)
        if params is None or a + CALL_LEN - 1 > pc.end:
            return None
        return exec_call(cfg, params, self, gc)


def exec_call(cfg: SourceConfig, params: CallParams,
              ext: MachineExtension, gc: GlobalConstants):
    """The call sequence as one atomic step.  A run reaches it only
    through ``recognize_call``, with an executable memory capability in
    pc whose window of ``CALL_LEN`` cells is within its bounds.  Its
    register writes wait, with the jump's, until every premise of both
    holds (``machine.xjump_result``), so a call that fails writes
    nothing.  It returns its new ``SourceConfig``, or the jump's
    outcome when that is not ``JUMPED``."""
    r1, r2 = params.r1, params.r2
    if r1 in CALL_WRITES or r2 in CALL_WRITES:
        return FAILED
    reg = cfg.reg
    rstk = reg[RSTK]
    if not isinstance(rstk, StkPtr):
        return FAILED
    perm, b_stk, e_stk, a_stk = rstk
    if not (perm is _RW and b_stk < a_stk <= e_stk):
        return FAILED
    # ``a_stk in ms`` with no Python-level call, as ``exec_store`` tells it
    ms = cfg.ms_stk
    if not (a_stk in ms.written or (i := bisect_right(ms.domain._lo, a_stk))
            and a_stk <= ms.domain._hi[i - 1]):
        return FAILED
    _, _, base, end, a = reg[PC]
    if not (base <= a + params.off_pc <= end):
        return FAILED
    # an unwritten cell reads 0 or nothing, never a seal
    seal = cfg.mem.written.get(a + params.off_pc)
    if not isinstance(seal, SealCap):
        return FAILED
    sigma = seal.cur + params.off_sigma
    if not (seal.base <= sigma <= seal.end):
        return FAILED

    opc = a + CALL_LEN
    ms_priv, ms_rest = ms.split(a_stk, e_stk)
    ms_priv.written[a_stk] = CANARY   # a fresh dict, a_stk in its domain
    cfg = _new(SourceConfig, (cfg.mem, reg, (_new(StackFrame, (
        opc, ms_priv)),) + cfg.stk, ms_rest))
    # the jump writes these first, over the pushed frame, once its every
    # premise holds.  It reads r1 and r2 as they were before the call,
    # and they are none of these
    out = xjump_result(reg[r1], reg[r2], r1, r2, cfg, ext, gc, (
        (RSTK, _new(StkPtr, (_RW, b_stk, a_stk - 1, a_stk - 1))),
        (RRETCODE, _new(Sealed, (sigma, _new(RetPtrCode, (base, end, opc))))),
        (RRETDATA, _new(Sealed, (sigma, _new(RetPtrData, (a_stk, e_stk))))),
        (RTMP1, 0)))
    return cfg if out is JUMPED else out


SOURCE_EXTENSION = SourceExtension()
