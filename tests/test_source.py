import dataclasses
import functools

from conftest import HALT, enc, ex, rw, rx, scfg, std_gc, step, with_cell

from capmach.asm import CALL_HEAD, CALL_LEN, CallParams, call_cond, expand_scall
from capmach.components import initial_config, link, validate_component
from capmach.core import (
    INF, GlobalConstants, Lin, Memory, MemCap, Perm, Ranges, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, enc_instr, enc_perm, mk_instr,
)
from capmach.fixtures import STK_BASE, STK_END, corpus
from capmach.harness import check_stack_partition, run_diff, run_report
from capmach.machine import FAILED, Running
from capmach.source import SOURCE_EXTENSION, StackFrame, exec_call

GC = GlobalConstants(frozenset(), 1000)


def sp(b, e, a):
    return StkPtr(Perm.RW, b, e, a)


ex = functools.partial(ex, ext=SOURCE_EXTENSION, gc=GC)


def test_stkptr_store_load():
    pc = rx(0, 9, 0)
    out = ex(scfg(ms_stk={1005: 0}, pc=pc, r1=sp(1000, 1010, 1005), r2=7),
             "store", "r1", "r2")
    # memory holds the instruction alone, as before the step
    assert out.cfg.ms_stk[1005] == 7
    assert out.cfg.mem == Memory({0: enc("store", "r1", "r2")})
    # a stack pointer never reaches ordinary memory
    assert ex(scfg({1005: 0}, pc=pc, r1=sp(1000, 1010, 1005), r2=7),
              "store", "r1", "r2") is FAILED
    cfg = scfg(ms_stk={1005: 9}, pc=pc, r2=sp(1000, 1010, 1005))
    out = ex(cfg, "load", "r1", "r2")
    assert out.cfg.reg["r1"] == 9 and out.cell is None
    lin = rw(0, 1, 0, Lin.LINEAR)
    out = ex(scfg(ms_stk={1005: lin}, pc=pc, r2=sp(1000, 1010, 1005)),
             "load", "r1", "r2")
    assert out.cfg.reg["r1"] == lin and out.cfg.ms_stk[1005] == 0


def test_stkptr_arith_and_split():
    pc = rx(0, 9, 0)
    out = ex(scfg(pc=pc, r1=sp(1000, 1010, 1005)), "cca", "r1", -2)
    assert out.cfg.reg["r1"] == sp(1000, 1010, 1003)
    out = ex(scfg(pc=pc, r1=sp(1000, 1010, 1005)), "seta2b", "r1")
    assert out.cfg.reg["r1"] == sp(1000, 1010, 1000)
    out = ex(scfg(pc=pc, r1=sp(1000, 1010, 1005)),
             "restrict", "r1", enc_perm(Perm.R))
    assert out.cfg.reg["r1"].perm is Perm.R
    out = ex(scfg(pc=pc, r3=sp(1000, 1010, 1008)),
             "split", "r1", "r2", "r3", 1004)
    assert out.cfg.reg["r1"] == sp(1000, 1004, 1008)
    assert out.cfg.reg["r2"] == sp(1005, 1010, 1008)
    assert out.cfg.reg["r3"] == 0
    out = ex(scfg(pc=pc, r2=sp(1000, 1004, 1001), r3=sp(1005, 1010, 1008)),
             "splice", "r1", "r2", "r3")
    assert out.cfg.reg["r1"] == sp(1000, 1010, 1008)
    assert out.cfg.reg["r2"] == 0 and out.cfg.reg["r3"] == 0
    # stack pointers and memory capabilities never splice together
    assert ex(scfg(pc=pc, r2=sp(1000, 1004, 1001),
                   r3=rw(1005, 1010, 1008)), "splice", "r1", "r2", "r3") \
        is FAILED


def _call_cfg(**over):
    reg = dict(
        pc=rx(0, 100, 10),
        r3=Sealed(5, rx(200, 210, 200)),
        r4=Sealed(5, rw(300, 310, 300)),
        rstk=sp(1000, 1010, 1005),
    )
    reg.update(over)
    ms = {a: 0 for a in range(1000, 1011)}
    return scfg({40: SealCap(5, 9, 5)}, ms_stk=ms, **reg)


PARAMS = CallParams(30, 0, "r3", "r4")


def _call(cfg, params=PARAMS):
    """``exec_call``'s outcome, its register writes applied to a copy.
    The call itself writes no register: its ``Running`` holds the
    registers it read."""
    out = exec_call(cfg, params, SOURCE_EXTENSION, GC)
    assert isinstance(out, Running) and out.cfg.reg is cfg.reg
    return out._replace(cfg=out.cfg.with_regs(out.wrote))


def test_exec_call():
    cfg = _call(_call_cfg()).cfg
    assert cfg.reg["pc"] == rx(200, 210, 200)
    assert cfg.reg["rdata"] == rw(300, 310, 300)
    assert cfg.reg["rstk"] == sp(1000, 1004, 1004)
    assert cfg.reg["rretcode"] == Sealed(5, RetPtrCode(0, 100, 36))
    assert cfg.reg["rretdata"] == Sealed(5, RetPtrData(1005, 1010))
    assert cfg.reg["rtmp1"] == 0
    (frame,) = cfg.stk
    assert frame.opc == 10 + CALL_LEN
    assert set(frame.ms) == set(range(1005, 1011))
    assert frame.ms[1005] == 42  # the caller's canary cell
    assert set(cfg.ms_stk) == set(range(1000, 1005))
    assert check_stack_partition(cfg) == []


def test_exec_call_sigma_offset():
    out = _call(_call_cfg(
        r3=Sealed(7, rx(200, 210, 200)),
        r4=Sealed(7, rw(300, 310, 300))), CallParams(30, 2, "r3", "r4"))
    assert out.cfg.reg["rretcode"].sigma == 7


def test_exec_call_guards():
    def fails(cfg, params=PARAMS):
        assert exec_call(cfg, params, SOURCE_EXTENSION, GC) is FAILED

    fails(_call_cfg(), CallParams(30, 0, "rtmp1", "r4"))
    fails(_call_cfg(r3=rx(200, 210, 200)))                  # unsealed code
    fails(_call_cfg(r4=Sealed(6, rw(300, 310, 300))))       # seal mismatch
    fails(_call_cfg(r4=Sealed(5, rx(300, 310, 300))))       # executable data
    fails(_call_cfg(rstk=rw(1000, 1010, 1005)))             # not a StkPtr
    fails(_call_cfg(rstk=sp(1000, 1010, 1000)))             # empty private part
    fails(_call_cfg(rstk=sp(1000, 1010, 1011)))             # past the end
    fails(_call_cfg(), CallParams(30, 5, "r3", "r4"))       # sigma out of range
    fails(_call_cfg(), CallParams(200, 0, "r3", "r4"))      # seal outside code
    cfg = _call_cfg()
    fails(cfg._replace(mem=with_cell(cfg.mem, 40, 7)))      # not a seal word
    fails(cfg._replace(ms_stk=with_cell(cfg.ms_stk, 1005, 0)).with_regs(
        {"rstk": sp(1000, 1020, 1015)}))                    # a_stk unmapped


def test_call_that_names_rtmp1_fails_on_both_machines():
    # call-return's trusted side loads the callback's code half into
    # rtmp1, and its call window jumps through it: ``xjmp rtmp1 r2`` at
    # cell 14, written as raw words, since ``assemble`` refuses rtmp1 as
    # a call operand.  It validates and the window is a call, but the
    # macro's own writes to rtmp1 leave 0 there, so the target fails at
    # the xjmp, and the source must fail at the call: without the
    # guard, it ran the callback and halted after 8 steps
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    code = dict(t.ms_code)
    (load_r1,) = [a for a, w in code.items()
                  if w == enc_instr(mk_instr("load", "r1", "r3"))]
    (start,) = [a for a, w in code.items() if w == CALL_HEAD]
    code[load_r1] = enc_instr(mk_instr("load", "rtmp1", "r3"))
    code[start + 14] = enc_instr(mk_instr("xjmp", "rtmp1", "r2"))
    t = dataclasses.replace(t, ms_code=code)
    gc = std_gc(t)
    assert validate_component(t, gc) == validate_component(ctx, gc) == []
    assert call_cond(code, start, gc).r1 == "rtmp1"
    v = run_diff(t, ctx, STK_BASE, STK_END)
    assert (v.source.outcome, v.source.steps, v.source.calls) == \
        ("failed", 5, 0)
    assert (v.target.outcome, v.target.steps) == ("failed", 19)


def _ret_cfg(**over):
    reg = dict(
        pc=rx(200, 210, 205),
        r1=Sealed(5, RetPtrCode(0, 100, 36)),
        r2=Sealed(5, RetPtrData(1005, 1010)),
        rstk=sp(1000, 1004, 1004),
        rdata=rw(300, 310, 300),
        rtmp2=9,
    )
    reg.update(over)
    frame = StackFrame(36, Memory({1005: 42}, Ranges.span(1005, 1010)))
    return scfg(stk=(frame,), ms_stk={a: 0 for a in range(1000, 1005)}, **reg)


def test_return_token_xjmp():
    out = ex(_ret_cfg(), "xjmp", "r1", "r2")
    assert isinstance(out, Running)
    cfg = out.cfg
    assert cfg.reg["pc"] == rx(0, 100, 36)
    assert cfg.reg["rstk"] == sp(1000, 1010, 1005)
    assert cfg.reg["rdata"] == 0
    assert cfg.reg["rtmp1"] == 0 and cfg.reg["rtmp2"] == 0
    assert cfg.stk == ()
    assert set(cfg.ms_stk) == set(range(1000, 1011))
    assert cfg.ms_stk[1005] == 42


def test_return_token_guards():
    def fails(cfg):
        assert ex(cfg, "xjmp", "r1", "r2") is FAILED

    fails(_ret_cfg(rstk=sp(999, 1004, 1004)))      # wrong stack base
    fails(_ret_cfg(rstk=rw(1000, 1004, 1004)))     # rstk no stack pointer
    fails(_ret_cfg(rstk=StkPtr(Perm.R, 1000, 1004, 1004)))  # not RW
    fails(_ret_cfg(rstk=sp(1000, 1003, 1003)))     # not adjacent to frame
    fails(_ret_cfg(r1=Sealed(5, RetPtrCode(0, 100, 37))))  # opc mismatch
    fails(_ret_cfg(r2=Sealed(5, RetPtrData(1005, 1012))))  # wrong frame span
    fails(_ret_cfg(r2=Sealed(5, rw(300, 310, 300))))  # mixed token/cap pair
    fails(_ret_cfg(r1=RetPtrCode(0, 100, 36),
                   r2=RetPtrData(1005, 1010)))     # tokens must stay sealed
    cfg = _ret_cfg()
    fails(scfg(stk=(), ms_stk=cfg.ms_stk, **{r: cfg.reg[r] for r in
               ("pc", "r1", "r2", "rstk")}))       # nothing to return to


def test_return_to_unbounded_stack_fails():
    # a frame's span is compared as one run, so an unbounded one fails
    # the return without a walk up to INF
    assert ex(_ret_cfg(r2=Sealed(5, RetPtrData(1005, INF))),
              "xjmp", "r1", "r2") is FAILED
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    cfg = cfg.with_regs({"rstk": sp(STK_BASE, INF, STK_END)})
    report = run_report(cfg, "source", std_gc(t))
    assert (report.outcome, report.steps) == ("failed", 7)


_TA = GlobalConstants(frozenset(range(10, 10 + CALL_LEN)), 1000)


def _macro_cfg(**over):
    """``_call_cfg`` with the call macro from pc's cell, 10, and a halt."""
    cfg = _call_cfg(**over)
    code = dict(enumerate(map(enc_instr, expand_scall(PARAMS, 1000)), 10))
    code[10 + CALL_LEN] = HALT
    return cfg._replace(mem=cfg.mem.update(Memory(code)))


def test_call_recognition_in_ta():
    out = step(_macro_cfg(), SOURCE_EXTENSION, _TA)
    assert isinstance(out, Running)
    assert out.cfg.stk  # one step, one frame: the big-step rule fired
    assert out.cfg.reg["pc"] == rx(200, 210, 200)


def test_same_bytes_outside_ta_run_raw():
    out = step(_macro_cfg(), SOURCE_EXTENSION, GC)  # empty trusted set
    assert isinstance(out, Running)
    assert out.cfg.stk == ()            # no frame: just the first instruction
    assert out.cfg.reg["rtmp1"] == 42   # move rtmp1 42
    assert out.cfg.reg["pc"].addr == 11


def test_call_truncated_by_pc_bound_runs_raw():
    cfg = _macro_cfg(pc=rx(0, 20, 10))   # capability ends mid-macro
    out = step(cfg, SOURCE_EXTENSION, _TA)
    assert isinstance(out, Running)
    assert out.cfg.stk == ()
    assert out.cfg.reg["rtmp1"] == 42


def test_double_return_fails():
    # after a successful return the tokens in other registers are stale
    cfg = _ret_cfg(r8=_ret_cfg().reg["r1"], r9=_ret_cfg().reg["r2"])
    out = ex(cfg, "xjmp", "r1", "r2")
    cfg2 = out.cfg.with_regs({"pc": rx(0, 100, 36)})
    assert ex(cfg2, "xjmp", "r8", "r9") is FAILED
