"""The overlay machine: native stack, stack pointers, call/return tokens.

Source configurations extend the bare machine's with a separate stack
memory (``ms_stk``) and a stack of call frames; both machines share the
configuration shape, and the target leaves the stack fields empty.
Stack pointers index ms_stk through the same instruction cases as memory
capabilities (see ``machine``).  What is left here is source-only: the
call sequence, executed as a single big step whenever it sits entirely
at trusted addresses, and jumps through return tokens.
"""

from __future__ import annotations

from collections import namedtuple

from .asm import CALL_LEN, CANARY, CallParams, call_cond
from .core import (
    _NORMAL, PC, RDATA, RRETCODE, RRETDATA, RSTK, RTMP1, RTMP2,
    GlobalConstants, Memory, MemCap, Perm, Ranges, Record, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, lin_cons,
)
from .machine import (
    FAILED, MachineExtension, Running, xjump_result,
)

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
    ``__new__``; a run copies its registers and memories once, through
    it, and writes them in place.
    """

    __slots__ = ()

    def with_regs(self, updates: dict) -> "SourceConfig":
        return tuple.__new__(SourceConfig, (
            self.mem, {**self.reg, **updates}, self.stk, self.ms_stk))


class SourceExtension(MachineExtension):
    """Stack pointers index ms_stk, and the call and return-token rules
    each fire as one step."""

    pointers = (MemCap, StkPtr)

    def xjump_result(self, c1, c2, cfg, gc, updates):
        if not (isinstance(c1, RetPtrCode) and isinstance(c2, RetPtrData)):
            return None
        # rstk as the jump left it: the atomic call writes it
        rstk = updates.get(RSTK, cfg.reg[RSTK])
        if not (isinstance(rstk, StkPtr) and rstk.perm == _RW):
            return FAILED
        e_stk = rstk.end
        if not (rstk.base == gc.stk_base and gc.stk_base <= e_stk):
            return FAILED
        if not cfg.stk:
            return FAILED
        frame = cfg.stk[0]
        a_stk, e_priv = c2.base, c2.end
        if frame.opc != c1.addr:
            return FAILED
        if e_stk + 1 != a_stk:
            return FAILED
        if frame.ms.domain != Ranges.span(e_stk + 1, e_priv):
            return FAILED
        cfg = SourceConfig(cfg.mem, cfg.reg, cfg.stk[1:],
                           cfg.ms_stk.update(frame.ms))
        updates.update({
            PC: MemCap(_RX, _NORMAL, c1.base, c1.end, c1.addr),
            RDATA: 0,
            RSTK: StkPtr(_RW, gc.stk_base, e_priv, a_stk),
            RTMP1: 0,
            RTMP2: 0,
        })
        return Running(cfg, updates)

    def recognize_call(self, cfg, gc):
        pc = cfg.reg[PC]
        a = pc.addr
        params = call_cond(cfg.mem, a, gc.stk_base, gc.check_stk_base)
        last = a + CALL_LEN - 1
        if params is None or not gc.ta.covers(a, last) \
                or not (pc.base <= a and last <= pc.end):
            return None
        return exec_call(cfg, params, self, gc)


def exec_call(cfg: SourceConfig, params: CallParams,
              ext: MachineExtension, gc: GlobalConstants):
    """The call sequence as one atomic step.  ``advance`` reaches it only
    through ``recognize_call``, with an executable memory capability in
    pc."""
    r1, r2 = params.r1, params.r2
    if RTMP1 in (r1, r2):
        return FAILED
    w1, w2 = cfg.reg[r1], cfg.reg[r2]
    if not (isinstance(w1, Sealed) and isinstance(w2, Sealed)
            and w1.sigma == w2.sigma):
        return FAILED
    rstk = cfg.reg[RSTK]
    if not (isinstance(rstk, StkPtr) and rstk.perm == _RW
            and rstk.base < rstk.addr <= rstk.end):
        return FAILED
    a_stk, e_stk = rstk.addr, rstk.end
    if a_stk not in cfg.ms_stk:
        return FAILED
    pc = cfg.reg[PC]
    a = pc.addr
    if not (pc.base <= a + params.off_pc <= pc.end):
        return FAILED
    seal = cfg.mem.get(a + params.off_pc)
    if not isinstance(seal, SealCap):
        return FAILED
    sigma = seal.cur + params.off_sigma
    if not (seal.base <= sigma <= seal.end):
        return FAILED

    opc = a + CALL_LEN
    ms_priv, ms_rest = cfg.ms_stk.split(a_stk, e_stk)
    cfg = SourceConfig(cfg.mem, cfg.reg, (StackFrame(
        opc, ms_priv.set(a_stk, CANARY)),) + cfg.stk, ms_rest)
    # the jump writes these registers together with its own, over the
    # pushed frame: not over the configuration ``advance`` got
    out = xjump_result(w1.inner, w2.inner, cfg, ext, gc, {
        r1: lin_cons(w1),
        r2: lin_cons(w2),
        RSTK: StkPtr(_RW, rstk.base, a_stk - 1, a_stk - 1),
        RRETCODE: Sealed(sigma, RetPtrCode(pc.base, pc.end, opc)),
        RRETDATA: Sealed(sigma, RetPtrData(a_stk, e_stk)),
        RTMP1: 0,
    })
    return Running(cfg, out) if type(out) is dict else out


SOURCE_EXTENSION = SourceExtension()
