"""The acceptance gate: one test per receivable claim.

Each test pins a law of the system end to end — encodings, the
permission lattice, split/splice duality, linearity preservation, call
recognition, round-trip semantics, the attack scenarios, differential
agreement on the corpus, and component validation — at the stated
budgets.
"""

import random
import time

import pytest

from capmach.asm import (
    CALL_LEN, RET_PT_OFFSET, CallParams, assemble, call_cond, expand_scall,
    find_hidden_calls,
)
from capmach.components import Component, LinkError, link, validate_component
from capmach.core import (
    INF, OPCODES, READ_PERMS, REGISTERS, WRITE_PERMS, GlobalConstants, Lin,
    MemCap, Perm, SealCap, StkPtr, dec_instr, dec_perm, enc_instr,
    enc_perm, mk_instr, perm_leq,
)
from capmach.fixtures import (
    SCENARIOS, STK_BASE, STK_END, context_cb, corpus, minimal_context,
    trusted_one_call,
)
from capmach.harness import ValidationFailure, run_diff
from capmach.machine import NULL_EXTENSION
from capmach.source import SOURCE_EXTENSION
from conftest import HALT, Running, ex, scfg, std_gc, tcfg, trust_all

RNG_SEED = 20260826


def random_instr(rng):
    op = rng.choice(list(OPCODES))
    args = []
    for kind in OPCODES[op]:
        if kind != "n" or rng.random() < 0.5:
            args.append(rng.choice(REGISTERS))
        else:
            args.append(rng.randrange(-2**30, 2**30))
    return mk_instr(op, *args)


def random_cap(rng):
    b = rng.randrange(0, 1000)
    e = b + rng.randrange(0, 1000)
    kind = rng.randrange(3)
    if kind == 0:
        return MemCap(rng.choice(list(Perm)), rng.choice(list(Lin)),
                      b, e, rng.randrange(0, 2000))
    if kind == 1:
        return SealCap(b, e, rng.randrange(b, e + 1))
    return StkPtr(rng.choice(list(Perm)), b, e, rng.randrange(b, e + 1))


def test_criterion_1_encoding_laws():
    t0 = time.monotonic()
    rng = random.Random(RNG_SEED)
    for _ in range(10_000):
        i = random_instr(rng)
        assert dec_instr(enc_instr(i)) == i
    fail = mk_instr("fail")
    assert enc_instr(fail) == 0
    for _ in range(10_000):
        assert dec_instr(random_cap(rng)) == fail
        w = rng.randrange(-2**62, 2**62)
        d = dec_instr(w)
        # total decoder: non-images fail, images decode exactly
        assert (d == fail and (w < 0 or enc_instr(d) != w or w == 0)) \
            or enc_instr(d) == w
    for p in Perm:
        assert dec_perm(enc_perm(p)) is p
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_lattice_laws():
    perms = list(Perm)
    for p in perms:
        assert perm_leq(p, p)
    for p in perms:
        for q in perms:
            if perm_leq(p, q) and perm_leq(q, p):
                assert p is q
            for r in perms:
                if perm_leq(p, q) and perm_leq(q, r):
                    assert perm_leq(p, r)
    assert not perm_leq(Perm.RW, Perm.RX)
    assert not perm_leq(Perm.RX, Perm.RW)
    for p in perms:
        for q in perms:
            if perm_leq(p, q):
                if p in WRITE_PERMS:
                    assert q in WRITE_PERMS
                if p in READ_PERMS:
                    assert q in READ_PERMS


def test_criterion_3_split_splice_duality():
    rng = random.Random(RNG_SEED)
    pc = MemCap(Perm.RX, Lin.NORMAL, 0, 9, 0)
    for _ in range(10_000):
        cap = random_cap(rng)
        if isinstance(cap, StkPtr):
            cfg, ext = scfg(pc=pc, r3=cap), SOURCE_EXTENSION
        else:
            cfg, ext = tcfg(pc=pc, r3=cap), NULL_EXTENSION
        b, e = cap.base, cap.end
        if b == e:
            out = ex(cfg, "split", "r1", "r2", "r3", b, ext=ext)
            assert out.kind == "failed"
            continue
        n = rng.randrange(b, e)
        out = ex(cfg, "split", "r1", "r2", "r3", n, ext=ext)
        assert isinstance(out, Running)
        lo, hi = out.cfg.reg["r1"], out.cfg.reg["r2"]
        cfg2 = cfg.with_regs({"r2": lo, "r3": hi})
        out2 = ex(cfg2, "splice", "r1", "r2", "r3", ext=ext)
        assert isinstance(out2, Running)
        joined = out2.cfg.reg["r1"]
        # the cursor comes from the right half
        assert joined.base == b and joined.end == e
        if isinstance(cap, SealCap):
            assert joined == SealCap(b, e, hi.cur)
        else:
            assert joined.perm == cap.perm
            assert joined.addr == hi.addr
        # rejection: halves presented in the wrong order are not adjacent
        bad = cfg.with_regs({"r2": hi, "r3": lo})
        assert ex(bad, "splice", "r1", "r2", "r3", ext=ext).kind == "failed"


def test_criterion_4_linearity_induction():
    t0 = time.monotonic()
    for name, t, ctx in corpus():
        v = run_diff(t, ctx, STK_BASE, STK_END, fuel=10_000, paranoid=True)
        assert v.source.violations == [], name
        assert v.target.violations == [], name
    assert time.monotonic() - t0 < 30.0


def _oracle_hidden_calls(seg, stk_base):
    """Direct evaluation of the no-hidden-calls definition: a window
    placement is a violation when every in-segment cell agrees with
    some full parameter choice but the window overhangs the segment."""
    from capmach.asm import _call_instrs
    regs = ("r0", "r1", "r3", "r4", "rtmp1")
    tables = []
    for off_pc in range(46):
        for off_sigma in range(4):
            for r1 in regs:
                for r2 in regs:
                    tables.append([enc_instr(i) for i in _call_instrs(
                        off_pc, off_sigma, r1, r2, stk_base)])
    found = set()
    lo, hi = min(seg), max(seg)
    for start in range(lo - CALL_LEN + 1, hi + 1):
        for cells in tables:
            matched = []
            consistent = True
            full = True
            for j in range(CALL_LEN):
                a = start + j
                if a not in seg:
                    full = False
                    continue
                if seg[a] != cells[j]:
                    consistent = False
                    break
                matched.append((a, j))
            if consistent and not full:
                for a, j in matched:
                    found.add((start, j, a))
    return found


def test_criterion_5_call_macro_geometry():
    p = CallParams(30, 1, "r3", "r4")
    ins = expand_scall(p, STK_BASE)
    assert len(ins) == CALL_LEN == 26
    assert ins[14].op == "xjmp"
    assert RET_PT_OFFSET == 15
    assert ins[22].op == "fail"

    seg = {i: enc_instr(w) for i, w in enumerate(ins)}
    assert call_cond(seg, 0, trust_all(STK_BASE)) == p
    for i in range(CALL_LEN):
        mut = dict(seg)
        mut[i] = mut[i] + 1
        assert call_cond(mut, 0, trust_all(STK_BASE)) is None, i

    # 40-cell segment: one complete call, one overhanging fragment
    filler = enc_instr(mk_instr("plus", "r0", "r0", 1))
    seg40 = {a: filler for a in range(40)}
    for i, w in enumerate(expand_scall(p, STK_BASE)):
        seg40[5 + i] = enc_instr(w)
    seg40[35] = SealCap(1, 2, 1)
    for i in range(4):
        seg40[36 + i] = enc_instr(expand_scall(p, STK_BASE)[i])
    got = {(v.start, v.index, v.addr)
           for v in find_hidden_calls(seg40, STK_BASE)}
    assert got == _oracle_hidden_calls(seg40, STK_BASE)
    assert (36, 0, 36) in got            # the fragment is flagged
    assert not any(s == 5 for s, _, _ in got)  # the complete call is not


def test_criterion_6_round_trip_semantics():
    t, ctx = trusted_one_call(), context_cb("  move r5 7")
    v = run_diff(t, ctx, STK_BASE, STK_END)
    assert v.source.outcome == "halted" and v.target.outcome == "halted"
    # source: 4 setup steps + 1 call + 1 callee + 1 return + 1 halt
    assert v.source.steps == 8
    # target: the call costs 15 prologue steps and the return runs the
    # 11-step return code, 24 extra steps in total
    assert v.target.steps == v.source.steps + 24 == 32
    # ints agree in every register, and memory over the source's domain
    src, trg = v.source.final_cfg, v.target.final_cfg
    assert all(src.reg[r] == trg.reg[r] for r in src.reg
               if isinstance(src.reg[r], int) or isinstance(trg.reg[r], int))
    assert all(src.mem[a] == trg.mem.get(a) for a in src.mem)
    assert src.reg["r5"] == 7


def test_criterion_7_attack_suite():
    for name in ("partial-stack-return", "second-stack", "double-return"):
        r = SCENARIOS[name]()
        assert r.expected == "both-failed" and r.as_expected, name
        assert r.verdict.source.outcome == "failed"
        assert r.verdict.target.outcome == "failed"
    r = SCENARIOS["second-stack-nocheck"]()
    assert r.expected == "disagreement" and r.as_expected
    assert r.verdict.target.outcome == "halted"
    assert not r.verdict.agreement
    from capmach import cli
    assert cli.main(["scenarios", "--run", "second-stack-nocheck"]) == 2


def test_criterion_8_differential_corpus():
    t0 = time.monotonic()
    entries = corpus()
    assert len(entries) >= 10
    for name, t, ctx in entries:
        v = run_diff(t, ctx, STK_BASE, STK_END, fuel=100_000)
        assert v.agreement, f"{name}: {v.detail}"
    assert time.monotonic() - t0 < 60.0


def _base():
    return {"ms_code": {99: 0, 100: HALT, 101: SealCap(5, 5, 5), 102: 0},
            "ms_data": {}, "sig_clos": frozenset({5})}


def _broken_fixtures():
    from capmach.asm import _call_instrs
    tail = [enc_instr(i) for i in
            _call_instrs(30, 0, "r3", "r4", STK_BASE)[23:]]
    dbl = assemble(".org 100\ncall s 0 r3 r4\ncall s 0 r3 r4\nhalt\n"
                   "s: .seal 5 6 5", STK_BASE).segment
    yield "bad pad", {**_base(), "ms_code": {99: 7, 100: HALT,
                                             101: SealCap(5, 5, 5), 102: 0}}, \
        "pads must be 0"
    yield "hidden call", {**_base(), "ms_code": {
        99: 0, 100: tail[0], 101: tail[1], 102: tail[2], 103: 0}}, \
        "hidden call"
    yield "seal double-claim", {
        "ms_code": {99: 0, **dbl, max(dbl) + 1: 0}, "ms_data": {},
        "sig_ret": frozenset({5}), "sig_clos": frozenset({6})}, \
        "claimed twice"
    yield "linear overlap", {**_base(), "ms_data": {
        700: MemCap(Perm.RW, Lin.LINEAR, 710, 712, 710),
        701: MemCap(Perm.RW, Lin.LINEAR, 712, 714, 712),
        **{a: 0 for a in range(710, 715)}},
        "a_linear": frozenset(range(710, 715))}, "owned twice"
    yield "rx data cap", {**_base(), "ms_data": {
        700: MemCap(Perm.RX, Lin.NORMAL, 700, 700, 700)}}, "perm"
    yield "import into code", {**_base(), "imports": ((100, "x"),)}, \
        "resolves into code"


def test_criterion_9_validation_fixtures():
    seen = 0
    for name, kw, needle in _broken_fixtures():
        c = Component(**kw)
        gc = GlobalConstants(frozenset(c.ms_code), STK_BASE)
        ds = validate_component(c, gc)
        assert any(needle in d for d in ds), name
        with pytest.raises(ValidationFailure) as e:   # before any link
            run_diff(c, minimal_context(), STK_BASE, STK_END)
        assert e.value.diagnostics == ds, name
        seen += 1

    a = Component(**_base())
    with pytest.raises(LinkError):          # overlapping link
        link(a, Component(**{**_base(), "sig_clos": frozenset({6})}))
    with pytest.raises(LinkError):          # seal-set clash
        link(a, Component({199: 0, 200: HALT, 201: SealCap(5, 5, 5), 202: 0},
                          {}, sig_ret=frozenset({5})))
    seen += 2
    assert seen >= 8

    for name, t, ctx in corpus():
        gc = std_gc(t)
        assert validate_component(t, gc) == [], name
        assert validate_component(ctx, gc) == [], name
