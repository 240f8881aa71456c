import functools
import io
import itertools
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from capmach import cli, harness
from capmach.asm import CALL_HEAD, assemble
from capmach.components import (
    format_component, initial_config, link, parse_component,
)
from capmach import fixtures
from capmach.core import (
    INF, OPCODES, PC, RDATA, REGISTERS, RRETCODE, RRETDATA, RSTK,
    GlobalConstants, Instr, Lin, Memory, MemCap, Perm, Ranges, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, dec_instr, enc_instr,
    fresh_registers, linear_range,
)
from capmach.fixtures import (
    SCENARIOS, STK_BASE, STK_END, context_cb, corpus, minimal_context,
    trusted_one_call, trusted_simple,
)
from capmach.harness import (
    check_stack_partition, format_trace, run, run_diff, run_report,
)
from capmach.machine import NULL_EXTENSION
from capmach.source import SOURCE_EXTENSION, SourceConfig, StackFrame

from conftest import Running, check_linearity, count_calls, disassemble, \
    step, tcfg, with_cell
from test_source import call_through


def test_corpus_agreement():
    for name, t, ctx in corpus():
        v = run_diff(t, ctx, STK_BASE, STK_END, fuel=2000)
        assert v.agreement, f"{name}: {v.detail}"


def test_paranoid_corpus():
    for name, t, ctx in corpus()[:4]:
        v = run_diff(t, ctx, STK_BASE, STK_END, fuel=2000, paranoid=True)
        assert v.source.violations == [] and v.target.violations == [], name


def test_closure_called_twice_without_reload():
    # sequential-calls without the reload between its calls: xjmp leaves
    # the sealed closure in r1/r2, as the source's atomic call does
    text = f"""\
entry:
{fixtures._LOAD_CB}
  call sealw 0 r1 r2
  call sealw 1 r1 r2
  halt
sealw: .seal 1 3 1
"""
    d = fixtures.T_DATA
    t = fixtures.component(
        fixtures.T_CODE, text, {d: 0, d + 1: 0}, ret={1, 2}, clos={3},
        exports={"main_code": (3, "entry"), "main_data": (3, d, d + 1)},
        main=("main_code", "main_data"),
        imports=((d, "cb_code"), (d + 1, "cb_data")))
    v = run_diff(t, context_cb("  plus r6 r6 1"), STK_BASE, STK_END)
    assert v.agreement, v.detail
    assert (v.source.outcome, v.source.steps) == ("halted", 11)
    assert (v.target.outcome, v.target.steps) == ("halted", 11 + 24 * 2)


def test_xjmp_one_linear_word_as_both_halves_fails():
    # the callback jumps with its sealed linear return data in both
    # operands: the step fails on both machines, and no register ever
    # holds a copy of it (the target once put it in pc and rdata)
    ctx = context_cb("  xjmp rretdata rretdata")
    for name, steps in (("call-return", (6, 20)), ("stack-locals", (9, 23))):
        t, _ = dict(fixtures.CORPUS)[name]()
        v = run_diff(t, ctx, STK_BASE, STK_END, fuel=300, paranoid=True)
        assert [(r.outcome, r.steps, r.violations)
                for r in (v.source, v.target)] == \
            [("failed", steps[0], []), ("failed", steps[1], [])], name


def test_scenarios_as_expected():
    for name, fn in SCENARIOS.items():
        r = fn()
        assert r.as_expected, name


def test_second_stack_knob():
    on = SCENARIOS["second-stack"]()
    assert on.expected == "both-failed" and on.as_expected
    off = SCENARIOS["second-stack-nocheck"]()
    assert off.expected == "disagreement"
    assert off.verdict.target.outcome == "halted"
    assert off.verdict.source.outcome == "failed"


def lincap(b, e):
    return MemCap(Perm.RW, Lin.LINEAR, b, e, b)


def test_check_linearity():
    t, ctx = corpus()[0][1], corpus()[0][2]
    from capmach.components import initial_config
    cfg = initial_config(link(t, ctx), "target", STK_BASE, STK_END)
    assert check_linearity(cfg) == []
    dup = cfg.with_regs({"r1": lincap(2000, 2010), "r2": lincap(2005, 2015)})
    assert check_linearity(dup)
    hidden = cfg.with_regs({"r1": lincap(2000, 2010),
                            "r2": Sealed(1, lincap(2010, 2020))})
    assert check_linearity(hidden)  # sealing does not hide duplication
    ok = cfg.with_regs({"r1": lincap(2000, 2010), "r2": lincap(2011, 2020)})
    assert check_linearity(ok) == []
    far = 2 * 10 ** 9
    unbounded = MemCap(Perm.RW, Lin.LINEAR, far, INF, far)
    high = cfg.with_regs({"r1": unbounded, "r2": lincap(far + 5, far + 9)})
    assert check_linearity(high)  # an infinite end has no stand-in cap
    # an empty range owns nothing, even where its base falls inside
    # another owner's range
    empty = cfg.with_regs({"r1": lincap(5, 7),
                           "r2": MemCap(Perm.RW, Lin.LINEAR, 6, 4, 6)})
    assert check_linearity(empty) == []
    # an owner that starts inside a wide one but after a narrow one
    wide = cfg.with_regs({"r1": lincap(2000, 2100), "r2": lincap(2001, 2002),
                          "r3": lincap(2050, 2060)})
    assert [d[0] for d in check_linearity(wide)] == [2001, 2050]


# ---------------------------------------------------------------------------
# The linearity checker against a brute-force count of owners

_SMALL = st.integers(0, 12)
_CAPS = st.one_of(
    st.builds(MemCap, st.sampled_from([Perm.RW, Perm.RX, Perm.R]),
              st.sampled_from(list(Lin)), _SMALL, _SMALL, _SMALL),
    st.builds(StkPtr, st.just(Perm.RW), _SMALL, _SMALL, _SMALL),
    st.builds(RetPtrData, _SMALL, _SMALL),
    st.builds(RetPtrCode, _SMALL, _SMALL, _SMALL),
    st.builds(SealCap, _SMALL, _SMALL, _SMALL))
# ints and every kind of capability over small ranges, some of them
# empty, some sealed
_WORDS = st.one_of(_SMALL, _CAPS, st.builds(Sealed, _SMALL, _CAPS))
_CELLS = st.dictionaries(st.integers(0, 40), _WORDS, max_size=4)


def _owned(w):
    """The addresses a word owns, written out independently of core."""
    if isinstance(w, Sealed):
        w = w.inner
    if isinstance(w, (StkPtr, RetPtrData)) or (
            isinstance(w, MemCap) and w.lin is Lin.LINEAR):
        return set(range(w.base, w.end + 1))
    return set()


@st.composite
def _linearity_cfgs(draw):
    reg = fresh_registers()
    reg.update(draw(st.dictionaries(st.sampled_from(REGISTERS), _WORDS,
                                    max_size=4)))
    frames = tuple(StackFrame(0, Memory(draw(_CELLS)))
                   for _ in range(draw(st.integers(0, 2))))
    return SourceConfig(Memory(draw(_CELLS)), reg, frames,
                        Memory(draw(_CELLS)))


def _places(cfg):
    """Each place of a configuration by the name ``check_linearity``
    gives it, with the word it holds."""
    out = {f"reg {r}": w for r, w in cfg.reg.items()}
    out.update({f"mem {a}": w for a, w in cfg.mem.items()})
    out.update({f"stk {a}": w for a, w in cfg.ms_stk.items()})
    for i, f in enumerate(cfg.stk):
        out.update({f"frame {i} addr {a}": w for a, w in f.ms.items()})
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_linearity_cfgs())
def test_check_linearity_against_brute_force(cfg):
    places = _places(cfg)
    owners = Counter(x for w in places.values() for x in _owned(w))
    dups = check_linearity(cfg)
    assert bool(dups) == any(n > 1 for n in owners.values())
    for addr, first, second in dups:
        assert first != second
        assert addr in _owned(places[first]) & _owned(places[second])


def test_check_stack_partition():
    from capmach.components import initial_config
    t, ctx = corpus()[0][1], corpus()[0][2]
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    assert check_stack_partition(cfg) == []
    bad = SourceConfig(cfg.mem, cfg.reg,
                       (StackFrame(0, Memory({STK_BASE: 0})),), cfg.ms_stk)
    assert check_stack_partition(bad)
    # frames must sit above the accessible part, innermost on top
    upside_down = SourceConfig(cfg.mem, cfg.reg,
                               (StackFrame(0, Memory({900: 0})),),
                               Memory({STK_BASE: 0}))
    assert check_stack_partition(upside_down)
    # the accessible stack may not reach into memory
    shared = SourceConfig(cfg.mem, cfg.reg, (),
                          with_cell(cfg.ms_stk, min(cfg.mem), 0))
    assert check_stack_partition(shared)
    # a frame that starts on the accessible part's top address
    touching = SourceConfig(cfg.mem, cfg.reg,
                            (StackFrame(0, Memory({STK_END: 0})),), cfg.ms_stk)
    assert check_stack_partition(touching) == ["frame 0 not above ms_stk"]
    # the target has no stack regions
    target = initial_config(link(t, ctx), "target", STK_BASE, STK_END)
    assert check_stack_partition(target) == []


# ---------------------------------------------------------------------------
# run_report's step-by-step checks against the two full checks

def _folded(cfg, kind, gc, fuel, paranoid=True, seen=None):
    """(outcome, steps, final configuration, violations) of a run made
    by folding the pure ``step``; when ``paranoid``, the violations come
    from ``check_linearity`` and ``check_stack_partition`` on every
    configuration the run reaches: each that a step starts from, and
    the last of a run that runs out of fuel.  ``seen``, when given, gets
    each configuration that a step starts from."""
    ext = SOURCE_EXTENSION if kind == "source" else NULL_EXTENSION
    out, steps, outcome = [], 0, "fuel-exhausted"

    def checked(cfg):
        if paranoid:
            out.extend(f"step {steps}: linear address {x} owned by both "
                       f"{a} and {b}" for x, a, b in check_linearity(cfg))
            out.extend(f"step {steps}: {v}"
                       for v in check_stack_partition(cfg))

    while steps < fuel:
        if seen is not None:
            seen.append(cfg)
        checked(cfg)
        nxt = step(cfg, ext, gc)
        steps += 1
        if not isinstance(nxt, Running):
            outcome = nxt.kind
            break
        cfg = nxt.cfg
    else:
        checked(cfg)
    return outcome, steps, cfg, out


def _contents(cfg) -> list:
    """Copies of every dict in ``cfg`` that a run could write in place:
    the registers, and the written cells of the memory, the stack memory
    and each frame's memory."""
    return [dict(cfg.reg), dict(cfg.mem.written), dict(cfg.ms_stk.written),
            *(dict(f.ms.written) for f in cfg.stk)]


def _unwritten(cfg, contents, parts):
    """``cfg`` holds the very words of ``contents`` (``_contents``) at
    the same places, in the very ``parts``, its memories and frames."""
    now = _contents(cfg)
    assert len(now) == len(contents) and all(
        d.keys() == was.keys() and all(d[k] is w for k, w in was.items())
        for d, was in zip(now, contents))
    assert all(a is b for a, b in zip((cfg.mem, cfg.stk, cfg.ms_stk), parts))


def _same_as_folded(cfg, kind, gc, fuel):
    """``run_report``'s paranoid report, checked with paranoid checks on
    and off against ``_folded``: the same outcome, steps, final
    configuration and violations, and ``cfg`` as it was (the same
    words in the same registers, memories and frames), though the run
    writes registers and cells in place on its own copies."""
    contents, parts = _contents(cfg), (cfg.mem, cfg.stk, cfg.ms_stk)
    for paranoid in (False, True):
        r = run_report(cfg, kind, gc, fuel, paranoid)
        outcome, steps, final, violations = _folded(cfg, kind, gc, fuel,
                                                    paranoid)
        assert (r.outcome, r.steps, r.violations) == \
            (outcome, steps, violations), (kind, paranoid)
        assert r.final_cfg == final, (kind, paranoid)
        _unwritten(cfg, contents, parts)
    return r


def _same_checks(cfg, gc, fuel, kinds=("source", "target")):
    """Each machine's paranoid report, checked by ``_same_as_folded``."""
    return [_same_as_folded(cfg, kind, gc, fuel) for kind in kinds]


def test_paranoid_corpus_and_scenarios_against_full_checks():
    # every run of the corpus and the scenarios, made paranoid, reports
    # the violations of the full checks at the same steps; with paranoid
    # checks on and off it is the run that folding ``step`` makes
    real, kinds = harness.run_report, Counter()

    def compared(cfg, kind, gc, fuel=harness.DEFAULT_FUEL, paranoid=False):
        _same_as_folded(cfg, kind, gc, fuel)
        kinds[kind] += 1
        return real(cfg, kind, gc, fuel, paranoid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_report", compared)
        for name, t, ctx in corpus():
            run_diff(t, ctx, STK_BASE, STK_END, fuel=2000)
        for fn in SCENARIOS.values():
            assert fn().as_expected
    runs = len(corpus()) + len(SCENARIOS)
    assert kinds == {"source": runs, "target": runs}


_CODE = 100                 # random code sits at _CODE.., words below it
_RUN_GC = GlobalConstants(frozenset(range(_CODE, _CODE + 16)), 12)
_RUN_REGS = ("r0", "r1", "r2", "r3", "rstk", "rdata", "rretcode",
             "rretdata")
# every opcode, and more often the ones that move words between places
_RUN_OPS = sorted(OPCODES) + ["move"] * 6 + ["load", "store"] * 4 + \
    ["split", "splice", "cca"] * 2


def _run_word(rng):
    """An int, or any kind of capability (some of them sealed), mostly
    over a rising range of 0..24 and pointing into it, sometimes over
    an empty one."""
    if rng.random() < 0.3:
        return rng.randint(-2, 12)
    lo, hi = rng.randint(0, 24), rng.randint(0, 24)
    if lo % 4:
        lo, hi = min(lo, hi), max(lo, hi)
    at = rng.randint(min(lo, hi), max(lo, hi))
    w = (MemCap(rng.choice([Perm.RW, Perm.RWX, Perm.R]), rng.choice(list(Lin)),
                lo, hi, at),
         StkPtr(rng.choice([Perm.RW, Perm.R]), lo, hi, at),
         RetPtrData(lo, hi), RetPtrCode(lo, hi, at),
         SealCap(lo, hi, at))[rng.randrange(5)]
    return Sealed(rng.randint(0, 3), w) if rng.random() < 0.3 else w


def _run_instr(rng):
    op = rng.choice(_RUN_OPS)
    return enc_instr(Instr(op, tuple(
        rng.choice(_RUN_REGS) if k != "n" or rng.random() < 0.5
        else rng.randint(-3, 24) for k in OPCODES[op])))


def _run_cfg(rng):
    """A short random program over small memories, stack memory and
    frames that hold linear capabilities, sealed linear words, stack
    pointers and return tokens: memory at 0..11, stack cells at 12..24,
    16 code cells at _CODE.

    The program is generated by execution on the source: each cell the
    pc reaches gets the first of a few drawn instructions that steps
    without failing; cells never reached hold ``halt``."""
    def cells():
        return {a: _run_word(rng)
                for a in rng.sample(range(12, 25), rng.randint(0, 6))}
    mem = dict.fromkeys(range(_CODE, _CODE + 16), enc_instr(Instr("halt")))
    mem.update({a: _run_word(rng) for a in range(12)})
    reg = fresh_registers()
    reg.update({r: _run_word(rng) for r in _RUN_REGS})
    reg[PC] = MemCap(Perm.RWX, Lin.NORMAL, _CODE, _CODE + 15, _CODE)
    frames = tuple(StackFrame(_CODE, Memory(cells()))
                   for _ in range(rng.randint(0, 2)))
    cfg = SourceConfig(Memory(mem), reg, frames, Memory(cells()))
    code, cur = {}, cfg
    for _ in range(rng.randint(4, 12)):
        a = cur.reg[PC].addr
        if a in code or not _CODE <= a < _CODE + 16:
            break
        for _ in range(4):
            code[a] = _run_instr(rng)
            nxt = step(cur._replace(mem=with_cell(cur.mem, a, code[a])),
                       SOURCE_EXTENSION, _RUN_GC)
            if isinstance(nxt, Running):
                break
        if not isinstance(nxt, Running) or not isinstance(
                nxt.cfg.reg[PC], MemCap):
            break
        cur = nxt.cfg
    return SourceConfig(cfg.mem.update(Memory(code)), reg, frames, cfg.ms_stk)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=True))
def test_paranoid_steps_against_full_checks(rng):
    _same_checks(_run_cfg(rng), _RUN_GC, 20)


def _may_write(instr) -> set:
    """The registers besides pc that a step of ``instr`` may write, by
    its ``OPCODES`` signature: a jump's register operands (and rdata,
    for xjmp), any other instruction's operands marked "w", and the
    source of a register ``move``, which it clears of a linear word."""
    args = instr.args
    if instr.op in ("jmp", "jnz", "xjmp"):
        return {a for a in args if isinstance(a, str)} | (
            {RDATA} if instr.op == "xjmp" else set())
    out = {a for k, a in zip(OPCODES[instr.op], args) if k == "w"}
    if instr.op == "move" and isinstance(args[1], str):
        out.add(args[1])
    return out


def test_write_set_names_every_changed_register():
    # a step's write set names every register whose word is not the
    # same object after it, for every opcode on both machines, the
    # atomic call and the return-token jump: random programs, the corpus
    # and the scenarios, seen by a hook on each of their runs; every step
    # writes the one register dict the run started with.  A step that
    # pushes or pops no frame writes only what its signature allows
    seen = set()

    def checked(cfg, kind, gc, fuel):
        last = []   # the registers, their words, the frames and the instr

        def hook(now, wrote, cell):
            if last:
                reg, before, frames, instr = last
                assert now.reg is reg
                changed = {r for r in reg.keys() | before.keys()
                           if reg.get(r) is not before.get(r)}
                assert changed <= set(wrote), (changed, wrote)
                depth = len(now.stk) - frames
                if depth == 0:
                    assert set(wrote) <= _may_write(instr) | {PC}, \
                        (instr, wrote)
                seen.add((kind, "call" if depth > 0 else
                          "return" if depth < 0 else instr.op))
            pc = now.reg[PC]
            w = now.mem.get(pc.addr) if isinstance(pc, MemCap) else None
            last[:] = (now.reg, dict(now.reg), len(now.stk),
                       w is not None and dec_instr(w))

        run(cfg, kind, gc, fuel, hook)

    rng = random.Random(5)
    for _ in range(300):
        cfg = _run_cfg(rng)
        for kind in ("source", "target"):
            checked(cfg, kind, _RUN_GC, 20)
    for cfg, kind, gc in _machine_runs():
        checked(cfg, kind, gc, 4000)
    ops = set(OPCODES) - {"fail", "halt"}
    assert {op for kind, op in seen if kind == "target"} == ops
    assert {op for kind, op in seen if kind == "source"} == \
        ops | {"call", "return"}


def test_a_step_that_fails_or_halts_writes_no_register():
    # a handler writes the run's registers and cells in place, after its
    # last guard: a run that fails or halts ends with the registers and
    # memories of the configuration its last step started from, pc at
    # that step's cell.
    # Random programs, the corpus and the scenarios, and call-return
    # with every register pair as its trusted call's xjmp operands,
    # validated or not, on both machines
    ends = Counter()

    def checked(cfg, kind, gc, fuel):
        last = []

        def hook(now, wrote, cell):
            last[:] = [dict(now.reg), dict(now.mem.written),
                       dict(now.ms_stk.written)]

        report = run(cfg, kind, gc, fuel, hook)
        if report.outcome != "fuel-exhausted":
            end = report.final_cfg
            assert [end.reg, end.mem.written, end.ms_stk.written] == last, \
                (kind, report.outcome)
            pc = last[0][PC]
            w = report.final_cfg.mem.get(pc.addr) \
                if isinstance(pc, MemCap) else None
            ends[kind, report.outcome, "call" if w == CALL_HEAD else
                 w is not None and dec_instr(w).op] += 1

    rng = random.Random(6)
    for _ in range(300):
        cfg = _run_cfg(rng)
        for kind in ("source", "target"):
            checked(cfg, kind, _RUN_GC, 20)
    runs = _machine_runs()
    for r1, r2 in itertools.product(REGISTERS, repeat=2):
        t, ctx, _, _ = call_through(r1, r2)
        gc, cfgs = harness.diff_start(t, ctx, STK_BASE, STK_END,
                                      validate=False)
        runs += [(cfgs[kind], kind, gc) for kind in cfgs]
    for cfg, kind, gc in runs:
        checked(cfg, kind, gc, 4000)
    # every guarded handler fails somewhere on each machine, and so does
    # the atomic call on the source
    guarded = {"cca", "cseal", "load", "lt", "plus", "restrict", "seta2b",
               "splice", "split", "store", "xjmp"}
    for kind, more in (("source", {"call"}), ("target", set())):
        assert {op for k, end, op in ends if (k, end) == (kind, "failed")} \
            >= guarded | more, kind
        assert ends[kind, "halted", "halt"] > 0, kind


def _cells(rng, lo, hi, most):
    """Up to ``most`` random words at addresses of ``lo..hi``."""
    return {a: _run_word(rng) for a in rng.sample(
        range(lo, hi + 1), rng.randint(0, min(most, hi - lo + 1)))}


def _edit(rng, cfg):
    """(``cfg`` with one random change that no step makes on its own:
    any register, a cell written, added or removed in either memory, a
    frame pushed or popped; the registers it wrote; the cell it wrote
    in place, or None).  Two kinds keep the configuration object, as
    ``run`` does: a register or a cell of either memory written in
    place.  Four push or pop the way a call or a return does, but are
    not one: a pushed frame over cells of mem, a pushed frame not cut
    from ms_stk, a pop that leaves an unrelated ms_stk, and two frames
    pushed at once."""
    kind = rng.randrange(12)
    mem, ms_stk, stk = cfg.mem, cfg.ms_stk, cfg.stk
    if kind == 0:
        r = rng.choice(REGISTERS)
        return cfg.with_regs({r: _run_word(rng)}), (r,), None
    if kind == 6:
        r = rng.choice(REGISTERS)
        cfg.reg[r] = _run_word(rng)
        return cfg, (r,), None
    if kind == 7:
        m = rng.choice((mem, ms_stk))
        if not m.domain:
            return cfg, (), None
        a = rng.choice(list(m.domain))
        m.written[a] = w = _run_word(rng)
        return cfg, (), (m, a, w)
    if kind == 1:
        mem = with_cell(mem, rng.randint(0, 24), _run_word(rng))
    elif kind == 2:
        ms_stk = with_cell(ms_stk, rng.randint(0, 30), _run_word(rng))
    elif kind in (3, 11):
        for _ in range(1 + (kind == 11)):
            lo = rng.randint(0, 30)
            part, ms_stk = ms_stk.split(lo, lo + rng.randint(0, 4))
            if kind == 11 or rng.random() < 0.5:
                stk = (StackFrame(_CODE, part),) + stk
    elif kind == 4:
        stk = stk[1:]
        if cfg.stk and rng.random() < 0.5:
            ms_stk = ms_stk.update(cfg.stk[0].ms)
    elif kind == 8:
        lo = rng.randint(0, 11)
        hi = lo + rng.randint(0, 4)
        stk = (StackFrame(_CODE, Memory(_cells(rng, lo, hi, 2),
                                        Ranges.span(lo, hi))),) + stk
        if rng.random() < 0.5:
            _, ms_stk = ms_stk.split(12, rng.randint(12, 30))
    elif kind == 9:
        lo = rng.randint(12, 30)
        hi = lo + rng.randint(0, 4)
        _, ms_stk = ms_stk.split(lo, hi)
        stk = (StackFrame(_CODE, Memory(_cells(rng, lo, hi, 3),
                                        Ranges.span(lo, hi))),) + stk
    elif kind == 10:
        stk = stk[1:]
        ms_stk = Memory(_cells(rng, 12, 30, 4))
    else:
        _, mem = mem.split(*sorted((rng.randint(0, 24), rng.randint(0, 24))))
    return SourceConfig(mem, cfg.reg, stk, ms_stk), (), None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.randoms(use_true_random=True))
def test_paranoid_tracker_against_full_checks_on_edits(rng):
    # the tracker is exact for any next configuration, not only for the
    # changes the machines make, whether it is a new object or the last
    # one written in place; the registers start partial, so that edits
    # add some, and the memories are copies the edits may write in place
    cfg = _run_cfg(rng)
    cfg = SourceConfig(Memory(cfg.mem.written, cfg.mem.domain),
                       {r: cfg.reg[r] for r in _RUN_REGS}, cfg.stk,
                       Memory(cfg.ms_stk.written, cfg.ms_stk.domain))
    checks = harness._Invariants()
    checks.observe(cfg, (), None)
    for _ in range(12):
        cfg, wrote, cell = _edit(rng, cfg)
        checks.observe(cfg, wrote, cell)
        assert checks.found == (check_linearity(cfg),
                                check_stack_partition(cfg))


def test_scan_and_register_test_agree_with_linear_range():
    # harness._scan and the register test that _Invariants.observe
    # inlines tell a linear word in place, as lin_cons and a load do
    # (test_lin_cons, test_load): for every kind of word, bare and under
    # one or two seals, each gives the owner that linear_range gives
    norm = MemCap(Perm.RW, Lin.NORMAL, 0, 5, 0)
    bare = [0, 7, norm, norm._replace(lin=Lin.LINEAR),
            StkPtr(Perm.RW, 0, 9, 3), RetPtrData(0, 9), RetPtrCode(0, 9, 4),
            SealCap(0, 5, 0)]
    for w in bare + [Sealed(2, v) for v in bare] + \
            [Sealed(3, Sealed(2, v)) for v in bare]:
        r = linear_range(w)
        owner = None if r is None else (*r, 0)
        assert harness._scan({5: w}).get(5) == owner, w
        # the word written into r1 of the configuration last observed,
        # in place: only the register test sees it
        cfg = SourceConfig(Memory(), {"r1": 0})
        checks = harness._Invariants()
        checks.observe(cfg, (), None)
        cfg.reg["r1"] = w
        checks.observe(cfg, ("r1",), None)
        assert checks.regs.get("r1") == owner, w


# ---------------------------------------------------------------------------
# Linearity is conserved: one step of every opcode keeps every address
# owned once

# code at 100..103 (the instruction at 100), memory cells at 0..5, the
# stack memory at 8..11 and a saved frame's at 12..15 (stk_base 8).  An
# owning word takes a window no other owner holds; any other word points
# into the cells' windows, the first six
_LAW_GC = GlobalConstants(frozenset(), 8)
_LAW_REGS = ("r1", "r2", "r3", "rstk", "rdata", "rretcode", "rretdata")
_LAW_WINDOWS = [(0, 2), (3, 5), (8, 9), (10, 11), (12, 13), (14, 15)] + \
    [(lo, lo + 2) for lo in range(20, 50, 3)]
# the windows of a planted return: rstk's and the return-data token's
_LAW_RETURN = [(8, 9), (10, 11), (12, 13), (14, 15)]
_PERMS, _LINS = tuple(Perm), tuple(Lin)
# each kind of capability over lo..hi at ``at``: the three that own first
_LAW_KINDS = (
    lambda rng, lo, hi, at: MemCap(rng.choice(_PERMS), Lin.LINEAR, lo, hi,
                                   at),
    lambda rng, lo, hi, at: StkPtr(rng.choice([Perm.RW, Perm.R]), lo, hi,
                                   at),
    lambda rng, lo, hi, at: RetPtrData(lo, hi),
    lambda rng, lo, hi, at: MemCap(rng.choice(_PERMS), Lin.NORMAL, lo, hi,
                                   at),
    lambda rng, lo, hi, at: RetPtrCode(lo, hi, at),
    lambda rng, lo, hi, at: SealCap(lo, hi, at),
)


def _law_cfg(rng, kind, op):
    """A configuration that steps ``op`` on machine ``kind`` with words
    of every kind, owning and not, bare and under one or two seals, in
    its registers, pc included, and in a few cells, and no address owned
    twice.  Some steps are planted, as random words seldom make them:
    half of the ``split`` and ``splice`` steps split a word over 50..55
    or join two halves that ``split`` could have made of it, and two
    thirds of the ``xjmp`` steps jump through a pair under one seal, on
    the source half of those a return through the frame it saved."""
    plant = rng.choice((op, None)) if op in ("split", "splice") else \
        rng.choice(("pair", "return", None)) if op == "xjmp" else None
    if plant == "return" and kind == "target":
        plant = "pair"
    pool = [x for x in rng.sample(_LAW_WINDOWS, len(_LAW_WINDOWS))
            if plant != "return" or x not in _LAW_RETURN]

    def cap(k):
        if k < 3 and not pool:      # no window left for an owner
            k = 3
        lo, hi = pool.pop() if k < 3 else rng.choice(_LAW_WINDOWS[:6])
        return _LAW_KINDS[k](rng, lo, hi, rng.randint(lo, hi))

    def word():
        k = rng.randrange(8)
        if k >= len(_LAW_KINDS):
            return rng.randrange(16)
        w = cap(k)
        while rng.random() < 0.25:
            w = Sealed(rng.randrange(2), w)
        return w

    reg = fresh_registers()
    reg.update({r: word() for r in _LAW_REGS})
    reg[PC] = word() if rng.random() < 0.1 else MemCap(
        rng.choice([Perm.RX, Perm.RWX]), rng.choice(_LINS), 100, 103, 100)
    operands = (PC,) + _LAW_REGS
    args = tuple(rng.choice(operands) if k != "n" or rng.random() < 0.5
                 else rng.randrange(-1, 16) for k in OPCODES[op])
    mem = {a: word() for a in rng.sample(range(6), 3)}
    frame = {a: word() for a in rng.sample(range(12, 16), 2)}
    if plant in ("split", "splice"):
        c = rng.choice((MemCap(rng.choice(_PERMS), rng.choice(_LINS), 50, 55,
                               50), StkPtr(Perm.RW, 50, 55, 50),
                        SealCap(50, 55, 50)))
        if plant == "split":
            reg["r3"] = c
            args = args[:2] + ("r3", rng.randrange(50, 55))
        else:
            reg["r2"] = c._replace(end=52)
            reg["r3"] = c._replace(base=53, **{c._fields[-1]: 53})
            args = (args[0], "r2", "r3")
    elif plant == "pair":
        sigma = rng.randrange(2)
        reg["r1"] = Sealed(sigma, cap(rng.choice((0, 3))))
        reg["r2"] = Sealed(sigma, cap(rng.randrange(6)))
        args = ("r1", "r2")
    elif plant == "return":
        sigma = rng.randrange(2)
        reg[RSTK] = StkPtr(Perm.RW, 8, 11, rng.randint(8, 11))
        reg[RRETCODE] = Sealed(sigma, RetPtrCode(100, 103, 103))
        reg[RRETDATA] = Sealed(sigma, RetPtrData(12, 15))
        args = (RRETCODE, RRETDATA)
    mem[100] = enc_instr(Instr(op, args))
    mem = Memory(mem, Ranges([(0, 5), (100, 103)]))
    if kind == "target":
        return SourceConfig(mem, reg)
    frames = (StackFrame(103, Memory(frame, Ranges.span(12, 15))),) \
        if plant == "return" or rng.random() < 0.5 else ()
    return SourceConfig(mem, reg, frames, Memory(
        {a: word() for a in rng.sample(range(8, 12), 2)}, Ranges.span(8, 11)))


def test_linearity_is_conserved_by_every_opcode():
    # item 26's first law, over words rather than the runs the corpus
    # makes: after one step of any instruction, on either machine, from
    # a configuration in which no address has two owners, none has
    rng = random.Random(26)
    ran, returns = Counter(), 0
    for op in OPCODES:
        for kind in ("source", "target"):
            for _ in range(250):
                cfg = _law_cfg(rng, kind, op)
                assert check_linearity(cfg) == [], cfg
                r = run(cfg, kind, _LAW_GC, 1)
                assert check_linearity(r.final_cfg) == [], (kind, cfg)
                ran[op, kind] += r.outcome == "fuel-exhausted"
                returns += len(r.final_cfg.stk) < len(cfg.stk)
    # every instruction but fail and halt stepped on at least 5 times on
    # each machine, and planted returns were taken
    assert {x for x, n in ran.items() if n >= 5} == {
        (op, kind) for op in OPCODES if op not in ("fail", "halt")
        for kind in ("source", "target")}, ran
    assert returns >= 20, returns


def test_paranoid_violation_comes_and_goes():
    code = [Instr("move", ("r2", 0)), Instr("halt")]
    reg = fresh_registers()
    reg.update({PC: MemCap(Perm.RX, Lin.NORMAL, _CODE, _CODE + 1, _CODE),
                "r1": lincap(2000, 2010), "r2": lincap(2005, 2015)})
    cfg = SourceConfig(Memory({_CODE + i: enc_instr(x)
                               for i, x in enumerate(code)}), reg)
    gc = GlobalConstants(frozenset(), STK_BASE)
    for r in _same_checks(cfg, gc, 10):
        assert (r.outcome, r.steps) == ("halted", 2)
        assert r.violations == [
            "step 0: linear address 2005 owned by both reg r1 and reg r2"]


def test_paranoid_checks_the_configuration_a_run_ends_in():
    # a run that runs out of fuel is checked at the configuration it
    # ends in as well: at fuel 0 that is the first, reported as step 0,
    # and at fuel k the one after k steps, reported as step k
    spin = MemCap(Perm.RX, Lin.NORMAL, _CODE, _CODE, _CODE)
    reg = fresh_registers()
    reg.update({PC: spin, "r5": spin, "r1": lincap(320, 321),
                "r2": lincap(320, 330)})
    cfg = SourceConfig(Memory({_CODE: enc_instr(Instr("jmp", ("r5",)))}),
                       reg)
    gc = GlobalConstants(frozenset(), STK_BASE)
    for fuel in (0, 1, 4):
        for r in _same_checks(cfg, gc, fuel):
            assert (r.outcome, r.steps) == ("fuel-exhausted", fuel)
            assert r.violations == [
                f"step {n}: linear address 320 owned by both reg r1 and "
                f"reg r2" for n in range(fuel + 1)]


def test_paranoid_frames_renumbered():
    # deep-trusted makes two nested atomic calls on the source.  A linear
    # word in the caller's private stack, and a memory cell planted at
    # its address, move from ``stk`` to frame 0, to frame 1 under the
    # nested call, and back: both checks follow the renumbering
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["deep-trusted"]
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    cfg = SourceConfig(with_cell(cfg.mem, STK_END, 0), {
        **cfg.reg, "rstk": StkPtr(Perm.RW, STK_BASE, STK_END, STK_END - 1),
        "r12": lincap(5003, 5008)},
        (), with_cell(cfg.ms_stk, STK_END, lincap(5000, 5005)))
    gc = GlobalConstants(frozenset(t.ms_code), STK_BASE)
    r, = _same_checks(cfg, gc, 1000, kinds=("source",))
    assert r.outcome == "halted"
    at_step = {}
    for v in r.violations:
        n, text = v.split(": ", 1)
        at_step.setdefault(n, []).append(text)
    assert len(at_step) == r.steps
    seen = []
    for texts in at_step.values():
        if not seen or texts != seen[-1]:
            seen.append(texts)

    def both(place, region):
        return [f"linear address 5003 owned by both {place} and reg r12",
                f"{region} overlaps mem at [{STK_END}]"]
    assert seen == [both(f"stk {STK_END}", "ms_stk"),
                    both(f"frame 0 addr {STK_END}", "frame 0"),
                    both(f"frame 1 addr {STK_END}", "frame 1"),
                    both(f"frame 0 addr {STK_END}", "frame 0"),
                    both(f"stk {STK_END}", "ms_stk")]


def _calls_per_paranoid_step(cfg, kind, gc, fuel=1000):
    """(Python-level calls per paranoid step after the first, the run's
    report): a run of ``fuel`` steps less a run of one, which makes the
    same initial scan, over the steps after the first; a first run fills
    the decode memo.  A rescan of a memory or a frame whose words go
    through ``core.linear_range`` (a seal capability does) counts a call
    per word."""
    run_report(cfg, kind, gc, fuel, paranoid=True)
    first, one = count_calls(lambda: run_report(cfg, kind, gc, 1, True))
    calls, r = count_calls(lambda: run_report(cfg, kind, gc, fuel, True))
    assert one.steps == 1
    return (calls - first) / (r.steps - 1), r


def _paranoid_words_per_step(kind, cells):
    """Python-level calls per paranoid step after the first, on a
    program that sweeps 16 cells down its stack and back, with every
    stack cell holding a seal capability, which owns nothing, so that a
    full scan would examine each one."""
    body = """  move r7 16
  move r4 5
  move r5 pc
  cca r5 @down+1
down:
  store rstk r4
  cca rstk -1
  minus r7 r7 1
  jnz r5 r7
  move r7 16
  move r5 pc
  cca r5 @up+1
up:
  cca rstk 1
  load r8 rstk
  minus r7 r7 1
  jnz r5 r7
  halt"""
    t, ctx = trusted_simple(body), minimal_context()
    top = STK_BASE + cells - 1
    cfg = initial_config(link(t, ctx), kind, STK_BASE, top)
    idle = SealCap(0, 0, 0)
    if kind == "source":
        cfg = SourceConfig(cfg.mem, cfg.reg, cfg.stk,
                           Memory(dict.fromkeys(cfg.ms_stk, idle)))
    else:
        cfg = SourceConfig(cfg.mem.update(Memory(dict.fromkeys(
            range(STK_BASE, top + 1), idle))), cfg.reg)
    gc = GlobalConstants(frozenset(t.ms_code), STK_BASE)
    per_step, r = _calls_per_paranoid_step(cfg, kind, gc)
    assert r.outcome == "halted" and r.violations == [] and r.steps > 60
    return per_step


def test_paranoid_cost_flat_in_stack_size():
    for kind in ("source", "target"):
        small = _paranoid_words_per_step(kind, 64)
        large = _paranoid_words_per_step(kind, 16 * 1024)
        assert 0 < small and large <= 2 * small, (kind, small, large)


def _frame_words_per_step(cells):
    """Python-level calls per paranoid step of deep-trusted's nested
    calls and returns on the source, under an outer frame of ``cells``
    seal capabilities, which own nothing and which a rescan of the
    frames would examine at every call and return."""
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["deep-trusted"]
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    # above the stack and the guard cell mem holds just above it
    outer = StackFrame(_CODE, Memory(dict.fromkeys(
        range(STK_END + 2, STK_END + 2 + cells), SealCap(0, 0, 0))))
    cfg = SourceConfig(cfg.mem, cfg.reg, (outer,), cfg.ms_stk)
    gc = GlobalConstants(frozenset(t.ms_code), STK_BASE)
    per_step, r = _calls_per_paranoid_step(cfg, "source", gc)
    assert r.outcome == "halted" and r.violations == []
    assert r.final_cfg.stk == (outer,)
    return per_step


def test_paranoid_cost_flat_in_frame_size():
    small = _frame_words_per_step(64)
    large = _frame_words_per_step(16 * 1024)
    assert 0 < small and large <= 2 * small, (small, large)


def _tracker_calls_at_call_and_return(depth):
    """The Python-level calls of the paranoid tracker's hook at
    call-return's atomic call and at its return, with ``depth - 1``
    outer frames under the call, so that its frame is the innermost of
    ``depth``.  Each outer frame holds a seal capability and an int,
    which own nothing."""
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    # above the stack and the guard cell mem holds just above it, two
    # cells each, innermost first
    outer = tuple(StackFrame(_CODE, Memory({
        a: SealCap(0, 0, 0), a + 1: 7}))
        for a in range(STK_END + 2, STK_END + 2 * depth, 2))
    cfg = SourceConfig(cfg.mem, cfg.reg, outer, cfg.ms_stk)
    gc = GlobalConstants(frozenset(t.ms_code), STK_BASE)
    checks, counts = harness._Invariants(), []

    def hook(now, wrote, cell):
        if wrote and len(now.stk) != len(checks.cfg.stk):
            counts.append(count_calls(
                lambda: checks.observe(now, wrote, cell))[0])
        else:
            checks.observe(now, wrote, cell)

    r = run(cfg, "source", gc, 100, hook)
    assert (r.outcome, r.calls, r.returns, r.final_cfg.stk) == \
        ("halted", 1, 1, outer)
    assert checks.violations == [] and len(counts) == 2
    return counts


def test_paranoid_call_and_return_cost_flat_in_depth():
    # a call or a return keeps the frames it does not push or pop, and
    # the tracker tests only the regions next to the one pushed or
    # popped, so its Python-level calls at each are the same at depth 1
    # and 4: 6 at the call and 4 at the return with Python 3.10 to 3.13
    # (11 and 7 when each region called ``bounds`` and ``meets`` and a
    # return code half went through ``linear_range``, 29 and 18 at
    # depth 1, 38 and 27 at depth 4, when each call and return rebuilt
    # the whole partition)
    shallow = _tracker_calls_at_call_and_return(1)
    assert _tracker_calls_at_call_and_return(4) == shallow


def test_write_trace(tmp_path):
    t, ctx = trusted_simple("  halt"), minimal_context()
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    gc = GlobalConstants(frozenset(t.ms_code), STK_BASE)
    text = format_trace(cfg, "source", gc)
    step, kind, pc_addr, instr, outcome = text.split("\t")
    assert (step, kind, pc_addr) == ("1", "source", str(cfg.reg[PC].addr))
    assert (instr, outcome) == ("halt", "halted\n")
    # `run --trace` writes the same text
    prog = tmp_path / "p.comp"
    prog.write_text(format_component(link(t, ctx)))
    p = tmp_path / "t.trace"
    assert cli.main(["run", str(prog), "--no-validate", "--machine",
                     "source", "--trace", str(p)]) == 0
    assert p.read_text() == text


def _machine_runs():
    """(cfg, kind, gc) of every machine run that the corpus, through
    ``run_diff``, and the scenarios make."""
    runs, real = [], harness.run_report

    def kept(cfg, kind, gc, *args):
        runs.append((cfg, kind, gc))
        return real(cfg, kind, gc, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_report", kept)
        for name, t, ctx in corpus():
            run_diff(t, ctx, STK_BASE, STK_END, fuel=2000)
        for fn in SCENARIOS.values():
            fn()
    return runs


def test_trace_against_folded_steps():
    # one line per step of the ``step`` fold, with the pc and the
    # instruction the step starts from, and the run's own ending: the
    # corpus and the scenarios halt, fail and run out of fuel, and two
    # runs fail at once, one on a pc that is no capability and one on a
    # pc that points at no cell
    no_cap = tcfg({}, pc=0)
    unmapped = tcfg({}, pc=MemCap(Perm.RX, Lin.NORMAL, 0, 9, 3))
    runs = _machine_runs() + [(c, kind, _RUN_GC) for c in (no_cap, unmapped)
                              for kind in ("source", "target")]
    endings = Counter()
    for cfg, kind, gc in runs:
        for fuel in (0, 5, 2000):
            seen = []
            outcome, steps, _, _ = _folded(cfg, kind, gc, fuel, False, seen)
            lines = [line.split("\t") for line in
                     format_trace(cfg, kind, gc, fuel).splitlines()]
            assert len(lines) == steps == len(seen), (kind, fuel)
            for n, (line, before) in enumerate(zip(lines, seen), 1):
                pc = before.reg[PC]
                if not isinstance(pc, MemCap):
                    at, instr = "None", "<no pc cap>"
                elif pc.addr not in before.mem:
                    at, instr = str(pc.addr), "<unmapped>"
                else:
                    at = str(pc.addr)
                    instr = repr(dec_instr(before.mem[pc.addr]))
                assert line[:4] == [str(n), kind, at, instr], (kind, fuel)
            last = "running" if outcome == "fuel-exhausted" else outcome
            assert [line[4] for line in lines] == \
                ["running"] * (steps - 1) + [last] * (steps > 0)
            endings[outcome, steps > 0] += 1
    assert set(endings) == {("halted", True), ("failed", True),
                            ("fuel-exhausted", True),
                            ("fuel-exhausted", False)}


def test_the_hook_sees_every_configuration_once():
    # the hook is called at the first configuration, with nothing
    # written, then after each step that runs on, whose writes name pc:
    # a run that runs out of fuel ends on a configuration that starts
    # no step, and the last call sees it
    runs = []
    for name, fuels in (("spin", (0, 1, 4)), ("call-return", (100,))):
        gc, cfgs = harness.diff_start(*dict(fixtures.CORPUS)[name](),
                                      STK_BASE, STK_END)
        runs += [(cfgs[kind], kind, gc, fuel) for fuel in fuels
                 for kind in ("source", "target")]
    runs.append((tcfg({}, pc=0), "source", _RUN_GC, 100))   # fails at once
    ends = []
    for cfg, kind, gc, fuel in runs:
        seen = []
        report = run(cfg, kind, gc, fuel, lambda now, wrote, cell: seen.append(
            (wrote, cell, dict(now.reg), dict(now.mem.written),
             dict(now.ms_stk.written))))
        ends.append((report.outcome, report.steps))
        exhausted = report.outcome == "fuel-exhausted"
        assert len(seen) == report.steps + exhausted, (kind, fuel)
        assert seen[0][:2] == ((), None), (kind, fuel)
        assert all(PC in wrote for wrote, *_ in seen[1:]), (kind, fuel)
        if exhausted:
            final = report.final_cfg
            assert seen[-1][2:] == (final.reg, final.mem.written,
                                    final.ms_stk.written), (kind, fuel)
    assert ends == [("fuel-exhausted", fuel) for fuel in (0, 0, 1, 1, 4, 4)] \
        + [("halted", 8), ("halted", 32), ("failed", 1)]


# one instruction per opcode with an operand that reads a register,
# naming pc there
_READS_PC = ("move r1 pc", "geta r1 pc", "getb r1 pc", "gete r1 pc",
             "getp r1 pc", "getlin r1 pc", "gettype r1 pc", "jmp pc",
             "jnz pc 1", "load r1 pc", "xjmp pc r1", "cseal r1 pc",
             "cca r1 pc", "plus r1 pc 1", "plus r1 1 pc")


def test_a_run_without_a_hook_writes_pc_back_wherever_it_is_read():
    # without a hook the run leaves pc's register behind after a step
    # that does not jump, and writes it back before a handler that reads
    # it, before call recognition and at the run's end; a hook sees pc at
    # every configuration.  Each instruction that reads pc runs after two
    # steps that do not jump, and the call after four (the callback's
    # loads): a run without a hook ends as the same run with one does,
    # and a run paused at each step ends on what the hook saw there
    runs = []
    for instr in _READS_PC:
        for tail in ("halt", "fail"):
            t = trusted_simple(f"  move r2 1\n  move r3 2\n  {instr}\n"
                               f"  {tail}")
            runs.append((instr, t, minimal_context()))
    for tail in ("", "  fail\n"):
        runs.append(("call", trusted_one_call(post=tail),
                     context_cb("  move r6 pc")))
    endings = Counter()
    for name, t, ctx in runs:
        gc, cfgs = harness.diff_start(t, ctx, STK_BASE, STK_END,
                                      validate=False)
        for kind, cfg in cfgs.items():
            seen = []
            hooked = run(cfg, kind, gc, 100, lambda now, wrote, cell:
                         seen.append(dict(now.reg)))
            for fuel in [*range(len(seen) + 1), 100]:
                plain = run(cfg, kind, gc, fuel)
                same = run(cfg, kind, gc, fuel, lambda *seen: None)
                assert (plain.outcome, plain.steps, plain.final_cfg) == \
                    (same.outcome, same.steps, same.final_cfg), \
                    (name, kind, fuel)
                if fuel < len(seen):
                    assert plain.final_cfg.reg == seen[fuel], \
                        (name, kind, fuel)
            endings[hooked.outcome] += 1
    assert set(endings) == {"halted", "failed", "fuel-exhausted"}


def test_a_run_ends_at_its_fuel_boundary():
    # a program that halts, or fails, at its k-th step reports that
    # outcome with steps == k when given k steps of fuel, and runs out
    # of fuel with steps == k - 1 when given one fewer: on both machines,
    # with and without a hook.  k = 1 is the end itself; k = 4 takes a
    # jump first, so the run reads pc back before its last step
    jump = "  move r5 pc\n  cca r5 4\n  jmp r5\n  fail\n"
    for body, k in (("", 1), (jump, 4)):
        for end in ("halt", "fail"):
            gc, cfgs = harness.diff_start(
                trusted_simple(f"{body}  {end}"), minimal_context(),
                STK_BASE, STK_END)
            outcome = "halted" if end == "halt" else "failed"
            for kind, hook in itertools.product(
                    ("source", "target"), (None, lambda *seen: None)):
                ends = [(r.outcome, r.steps) for r in (
                    run(cfgs[kind], kind, gc, fuel, hook)
                    for fuel in (k, k - 1))]
                assert ends == [(outcome, k), ("fuel-exhausted", k - 1)], \
                    (body, end, kind, hook)


def test_run_paused_and_resumed():
    # a run given k steps of fuel, and a new run from its final
    # configuration with the fuel that is left, end as one uninterrupted
    # run does, with the same calls and returns; no run writes its input
    fuel, paused = 2000, Counter()
    for name, t, ctx in corpus():
        gc = GlobalConstants(frozenset(t.ms_code), STK_BASE)
        for kind in ("source", "target"):
            cfg = initial_config(link(t, ctx), kind, STK_BASE, STK_END)
            contents, parts = _contents(cfg), (cfg.mem, cfg.stk, cfg.ms_stk)
            whole = run(cfg, kind, gc, fuel)
            for k in (1, 5, 19):
                first = run(cfg, kind, gc, k)
                if first.outcome != "fuel-exhausted":   # ended in k steps
                    assert whole.steps <= k, (name, kind, k)
                    continue
                paused_cfg = first.final_cfg
                item_contents = _contents(paused_cfg)
                item_parts = paused_cfg.mem, paused_cfg.stk, paused_cfg.ms_stk
                rest = run(paused_cfg, kind, gc, fuel - k)
                assert (rest.outcome, k + rest.steps, rest.final_cfg,
                        first.calls + rest.calls,
                        first.returns + rest.returns) == \
                    (whole.outcome, whole.steps, whole.final_cfg, whole.calls,
                     whole.returns), (name, kind, k)
                paused[name, k] += 1
                _unwritten(paused_cfg, item_contents, item_parts)
            _unwritten(cfg, contents, parts)
    assert paused["call-return", 1] == paused["call-return", 5] == 2
    assert paused["call-return", 19] == 1     # the source takes 8 steps


def test_a_store_copies_nothing():
    # a callback that stores to 40 cells of its stack: on the target the
    # memory that holds the stack is one object for the whole run, and on
    # the source the stack memory is replaced only by the call and the
    # return, which move a frame
    body = "  move r5 7\n" + "  store rstk r5\n  cca rstk -1\n" * 40
    t, ctx = trusted_one_call(), context_cb(body)
    gc, cfgs = harness.diff_start(t, ctx, STK_BASE, STK_END)
    for kind, cfg in cfgs.items():
        items = []
        report = run(cfg, kind, gc, observe=lambda c, *_: items.append(
            (c.mem, c.stk, c.ms_stk)))
        assert report.outcome == "halted"
        for (mem, stk, ms_stk), (mem2, stk2, ms_stk2) in zip(items, items[1:]):
            assert mem2 is mem, kind
            assert ms_stk2 is ms_stk or stk2 is not stk, kind
        final = report.final_cfg
        stack = final.mem if kind == "target" else final.ms_stk
        assert [stack[a] for a in range(STK_END - 41, STK_END)] == \
            [0] + [7] * 40, kind


def test_diff_fuel_counts_source_steps():
    # the target gets the source's fuel plus 14 steps per atomic call and
    # 10 per return that the source made, so runs that fuel cuts short end
    # at the same point: every terminating corpus program agrees at every
    # fuel up to its whole target run
    for name, t, ctx in corpus():
        whole = run_diff(t, ctx, STK_BASE, STK_END)
        if whole.target.outcome != "halted":     # spin
            continue
        for fuel in range(whole.target.steps + 1):
            v = run_diff(t, ctx, STK_BASE, STK_END, fuel)
            assert v.agreement, (name, fuel, v.detail)
    # second-stack agrees at every fuel; without the stack-base check
    # the target halts after 38 steps, and the disagreement is real
    for name, check in (("second-stack", True),
                        ("second-stack-nocheck", False)):
        t, ctx = SCENARIOS[name]().components
        disagree = [fuel for fuel in range(60) if not run_diff(
            t, ctx, STK_BASE, STK_END, fuel, check).agreement]
        assert disagree == ([] if check else list(range(38, 60)))


def _source_stack_word(cfg, a):
    """The source's word at stack address ``a``: from ``ms_stk``, else
    from the frame that holds it (None when no region does)."""
    for ms in (cfg.ms_stk, *(f.ms for f in cfg.stk)):
        if a in ms:
            return ms[a]
    return None


def test_calls_and_returns_leave_the_same_stack():
    # at each step where the source's frames grow or shrink, the target,
    # 14 steps further per call and 10 per return so far, is at the same
    # pc and holds the same word at every stack address: the canary and
    # the split, sealed and spliced stack of the call macro agree with
    # the source's atomic call and return
    stack = range(STK_BASE, STK_END + 1)
    points = 0
    for name, t, ctx in corpus():
        gc, cfgs = harness.diff_start(t, ctx, STK_BASE, STK_END)
        if run_report(cfgs["source"], "source", gc, 2000).outcome != "halted":
            continue
        # target step -> (pc's address, stack words, source step)
        want, got, steps = {}, {}, itertools.count()
        frames = calls = returns = 0

        def at_source(src, wrote, cell):
            nonlocal frames, calls, returns
            k = next(steps)
            if len(src.stk) != frames:
                calls += len(src.stk) > frames
                returns += len(src.stk) < frames
                frames = len(src.stk)
                want[k + 14 * calls + 10 * returns] = (src.reg[PC].addr, [
                    _source_stack_word(src, a) for a in stack], k)

        def at_target(trg, wrote, cell, steps=itertools.count()):
            j = next(steps)
            if j in want:
                got[j] = (trg.reg[PC].addr, [trg.mem.get(a) for a in stack],
                          want[j][2])

        run(cfgs["source"], "source", gc, 2000, at_source)
        run(cfgs["target"], "target", gc, 4000, at_target)
        assert got == want, name
        points += len(want)
    assert points == 18


def test_run_refuses_an_unknown_machine_kind():
    # a kind is "source" or "target", spelled so: any other is refused
    # before a step, by run and by both of its consumers
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    for kind in ("Source", "middle"):
        for runner in (run, run_report, format_trace):
            with pytest.raises(ValueError,
                               match=f"^unknown machine kind {kind!r}$"):
                runner(cfg, kind, _RUN_GC)


# ---------------------------------------------------------------------------
# CLI

def _write(tmp_path, name, comp):
    p = tmp_path / name
    p.write_text(format_component(comp))
    return str(p)


def test_cli_asm(tmp_path):
    src = tmp_path / "a.s"
    src.write_text(".org 10\nstart: halt\nnext: fail\n")
    out = tmp_path / "a.comp"
    assert cli.main(["asm", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("; start\t10\n; next\t11\n[code base=10]\n")
    # the segment between two zero guard pads, labels as comments
    comp = parse_component(text)
    res = assemble(src.read_text())
    assert comp.ms_code == {9: 0, **res.segment, 12: 0}
    assert comp.ms_data == {} and comp.exports == () and comp.mains is None
    src.write_text("bogus r9\n")
    assert cli.main(["asm", str(src), "-o", str(out)]) == 3
    src.write_text("; nothing\n")
    assert cli.main(["asm", str(src), "-o", str(out)]) == 3


def test_cli_asm_pipeline(tmp_path, capsys):
    # asm writes a container: complete it by hand, then validate and diff
    src = tmp_path / "t.s"
    src.write_text(".org 100\nentry:\n  halt\nsealw: .seal 2 2 2\n")
    t = tmp_path / "t.comp"
    assert cli.main(["asm", str(src), "-o", str(t)]) == 0
    code = "sealed(2,cap(rx,normal,100,101,100))"
    data = "sealed(2,cap(rw,normal,300,300,300))"
    with open(t, "a") as fh:
        fh.write(f"[data]\n300\t0\n[seals ret= clos=2]\n"
                 f"[exports]\nmain_code\t{code}\nmain_data\t{data}\n"
                 f"[main]\n{code}\n{data}\n")
    assert parse_component(t.read_text()) == trusted_simple("  halt")
    c = _write(tmp_path, "c.comp", minimal_context())
    assert cli.main(["validate", str(t)]) == 0
    assert cli.main(["diff", str(t), c]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "agreement"


_CLI_UNDER_1GB = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from capmach.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _cli_under_1gb(argv):
    """``capmach argv`` in its own process with 1 GB of address space,
    so building a set per address ends in MemoryError, not a full host."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-c", _CLI_UNDER_1GB, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


def test_cli_malformed_inputs(tmp_path):
    t = _write(tmp_path, "t.comp", trusted_simple("  halt"))
    c = _write(tmp_path, "c.comp", minimal_context())
    prog = str(tmp_path / "p.comp")
    assert cli.main(["link", t, c, "-o", prog]) == 0
    afile = str(tmp_path / "afile")
    open(afile, "w").close()
    far_code = tmp_path / "far.comp"      # code blocks at 1 and 10^9
    far_code.write_text("[code base=2]\n0\n0\n"
                        "[code base=1000000001]\n0\n0\n")
    far_seals = tmp_path / "seals.comp"   # seals 1 and 10^9
    text = format_component(trusted_simple("  halt"))
    far_seals.write_text(text.replace("clos=2]", "clos=2,1000000000]"))
    literals = []                         # one malformed word literal each
    for old, new, message in (
            ("seal(2,2,2)", "seal(2,2,2", "bad word literal"),    # unbalanced
            ("seal(2,2,2)", "seal(2,2)", "seal takes 3 fields"),
            ("seal(2,2,2)", "sael(2,2,2)", "bad word literal"),
            ("300\t0", "300\tsealed(1,5)", "sealed wraps a sealable"),
            ("300\t0", "300\tint:0", "bad word literal"),       # old spellings
            ("300\t0", "300\tcap:rw,normal,300,300,300", "bad word literal")):
        path = tmp_path / f"literal{len(literals)}.comp"
        path.write_text(text.replace(old, new, 1))
        line = text[:text.index(old)].count("\n") + 1
        literals.append((3, f"error: line {line}: {message}",
                         ["validate", str(path)]))
    sources = []                          # one malformed assembly each
    for src, message in (
            ("move r0 nolabel", "unresolved label 'nolabel'"),
            (".org 0\nhalt\n.org 0\nhalt", "address 0 assembled twice"),
            ("cca r1 @x+", "bad int '@x+'"),
            (".seal 1 x 1", "bad int 'x'"),
            (".word", "bad word literal: ''"),
            ("call s 99999999999 r1 r2", "immediate 99999999999 out of range"),
            ("call s 0 bogus r2", "call: 'bogus' is not a register")):
        path = tmp_path / f"source{len(sources)}.s"
        path.write_text(f"{src}\ns: .seal 1 1 1\n")
        line = src.count("\n") + 1 if "twice" in message else 1
        sources.append((3, f"error: line {line}: {message}\n",
                        ["asm", str(path), "-o", str(tmp_path / "a.comp")]))
    twice = tmp_path / "twice.comp"       # a second [seals] header
    twice.write_text(text + "[seals ret=2]\n")
    twice_line = text.count("\n") + 1
    run = ["run", "--machine", "source"]
    cases = [
        (3, f"error: line {twice_line}: [seals] given twice",
         ["validate", str(twice)]),
        (3, "error: ", run + [prog, "--no-validate", "--trace",
                              str(tmp_path / "no" / "such" / "t")]),
        (3, "error: ", ["diff", t, c, "--trace-dir",
                        str(tmp_path / "afile" / "x")]),
        (3, "error: ", ["diff", t, c, "--trace-dir", afile]),
        (4, "code domain is not contiguous", run + [str(far_code)]),
        (4, "owned seals are not contiguous", run + [str(far_seals)]),
        (4, "data overlaps trusted addresses",
         run + [t, "--ta", "0..2000000000"]),
    ] + literals + sources
    for code, message, argv in cases:
        p = _cli_under_1gb(argv)
        assert p.returncode == code, (argv, p.stderr[-300:])
        assert message in p.stderr, (argv, p.stderr[-300:])
        assert "Traceback" not in p.stderr, argv
        if code == 3:   # one error line
            assert p.stderr.count("\n") == 1, (argv, p.stderr[-300:])


@pytest.mark.parametrize("flag, value, message", [
    ("--stk-base", "1_000", "bad int '1_000'"),
    ("--stk-base", "+5", "bad int '+5'"),
    ("--ta", "+1..1_0", "expected a range lo..hi, got '+1..1_0'"),
    ("--ta", "129..104", "empty trusted range '129..104'"),
    ("--fuel", "1_000", "bad int '1_000'"),
    ("--fuel", "+5", "bad int '+5'"),
    ("--stack", "+1000..1063", "expected a range lo..hi, got '+1000..1063'"),
])
def test_cli_flag_ints_have_one_spelling(tmp_path, capsys, flag, value,
                                         message):
    # a flag reads an int as every other input does: ASCII digits with
    # an optional minus; any other spelling is a usage error
    t = _write(tmp_path, "t.comp", trusted_simple("  halt"))
    c = _write(tmp_path, "c.comp", minimal_context())
    argv = ["validate", t] if flag in ("--stk-base", "--ta") else \
        ["diff", t, c]
    assert cli.main(argv) == 0
    assert cli.main(argv + [flag, value]) == 3
    assert f"argument {flag}: {message}\n" in capsys.readouterr().err


_MUTANTS = ("bogus", "+5", "1_000", "99999999999", "@nolabel", "inf",
            "seal(1,x,1)", "[bogus]", "ret=1,x")


# ``run`` and ``diff`` at a fuel that every corpus program but spin halts
# within, paranoid
_RUN = ("--fuel", "300", "--paranoid")


@functools.lru_cache(maxsize=None)
def _front_end_lines():
    """Each line that the front end reads, as ``(argv, texts, k, i)``:
    line ``i`` of the ``k``-th of the input files ``texts`` of the
    subcommand and options ``argv``.  ``asm`` reads each corpus
    component's code and ``validate`` its container; ``run`` reads the
    linked program's, unvalidated (a linked program has two code
    blocks) and with the trusted code as ``--ta``; ``link`` and ``diff``
    read the trusted and the context container, either of which may be
    the one mutated.  The lines are grouped by subcommand and kind of
    line (its first token, numbers aside), so that a rare kind is drawn
    as often as a common one."""
    kinds = {}

    def add(argv, texts, k):
        for i, line in enumerate(texts[k]):
            kind = re.sub(r"[0-9(].*", "", line.split()[0])
            kinds.setdefault((argv[0], kind), []).append((argv, texts, k, i))

    for _, t, ctx in corpus():
        pair = tuple(tuple(format_component(c).splitlines())
                     for c in (t, ctx))
        prog = tuple(format_component(link(t, ctx)).splitlines())
        ta = "..".join(map(str, Ranges.of(t.ms_code).bounds()))
        for k, c in enumerate((t, ctx)):
            add(("asm",), (tuple(disassemble(c.ms_code, STK_BASE)
                                 .splitlines()),), 0)
            add(("validate",), (pair[k],), 0)
            add(("link",), pair, k)
            add(("diff", *_RUN), pair, k)
        for machine in ("source", "target"):
            add(("run", "--machine", machine, "--ta", ta, "--no-validate",
                 *_RUN), (prog,), 0)
    return list(kinds.values())


def _mutate(data, lines, i):
    """Line ``i`` of ``lines`` with one token dropped, doubled or
    replaced by a mutant, if it has one."""
    tokens = lines[i].split()
    if not tokens:
        return
    j = data.draw(st.integers(0, len(tokens) - 1))
    how = data.draw(st.sampled_from(("drop", "double", "replace")))
    if how == "drop":
        del tokens[j]
    elif how == "double":
        tokens.insert(j, tokens[j])
    else:
        tokens[j] = data.draw(st.sampled_from(_MUTANTS))
    lines[i] = " ".join(tokens)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_cli_front_end_fuzz(data):
    # one or two tokens, of one line or of two, dropped, doubled or
    # replaced, in the input of any subcommand that reads assembly or a
    # container: the front end answers with an exit code and at most one
    # error line, never a traceback, and names a line at most once.  An
    # unvalidated program may fail (``run`` exits 1), an answer too;
    # ``diff`` validates both sides, so its machines never disagree
    argv, texts, k, i = data.draw(st.sampled_from(
        data.draw(st.sampled_from(_front_end_lines()))))
    texts = [list(text) for text in texts]
    lines = texts[k]
    _mutate(data, lines, i)
    if data.draw(st.booleans()):   # a second token, here or elsewhere
        other = data.draw(st.integers(0, len(lines) - 1))
        _mutate(data, lines, data.draw(st.sampled_from((i, other))))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for n, text in enumerate(texts):
            paths.append(os.path.join(d, f"input{n}"))
            with open(paths[-1], "w") as fh:
                fh.write("\n".join(text) + "\n")
        out = ["-o", os.path.join(d, "out")] if argv[0] in ("asm", "link") \
            else []
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = cli.main([argv[0], *paths, *argv[1:], *out])
    assert code in ((0, 1, 3, 4) if argv[0] == "run" else (0, 3, 4)), \
        (code, argv, lines[i])
    if code == 3:
        assert re.fullmatch(r"error: (?!(line \d+: ){2})[^\n]*\n",
                            err.getvalue()), (lines[i], err.getvalue())


def test_cli_wide_stack(tmp_path):
    # the stack is one zero run on both machines, so a stack of two
    # billion cells runs as one of 64 does, in 1 GB of address space:
    # the same outcome and steps, paranoid checks included
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    t, c = _write(tmp_path, "t.comp", t), _write(tmp_path, "c.comp", ctx)
    prog = str(tmp_path / "p.comp")
    assert cli.main(["link", t, c, "-o", prog]) == 0
    run = ["run", prog, "--no-validate", "--paranoid", "--machine"]
    for argv, out in (
            (run + ["source"], "halted after 8 steps\n"),
            (run + ["target"], "halted after 32 steps\n"),
            (["diff", t, c, "--paranoid"], "source: halted after 8 steps\n"
             "target: halted after 32 steps\nagreement\n")):
        for stack in ([], ["--stack", "1000..2000000000"]):
            p = _cli_under_1gb(argv + stack)
            assert (p.returncode, p.stdout, p.stderr) == (0, out, ""), stack


def test_cli_wide_seal_and_linear_lists(tmp_path):
    # a container's seal and linear lists are read as runs, so lists of
    # any width parse, link writes them back and validate reports on
    # them, in 1 GB of address space: a few lines, not one per seal;
    # the empty component leaves the other one as it is
    text = format_component(trusted_simple("  halt"))
    assert "[seals ret= clos=2]" in text
    empty = tmp_path / "empty.comp"
    empty.write_text("[data]\n")
    for name, wide, runs, verdict in (
            ("ret", text.replace("[seals ret=", "[seals ret=3..100000000"),
             "[seals ret=3..100000000 clos=2]",
             "return seals 3..100000000 claimed by no call"),
            ("clos", text.replace("clos=2]",    # the runs, not one run
                                  "clos=2,0..600000,700000..1300000]"),
             "clos=0..600000,700000..1300000]",
             "owned seals are not contiguous"),
            ("linear", text + "[linear]\n0..100000000\n",
             "[linear]\n0..100000000\n", None),
            ("lines", text + "[linear]\n" + "".join(    # runs that touch
                f"{k * 10 ** 6}..{k * 10 ** 6 + 999999}\n" for k in range(20)),
             "[linear]\n0..19999999\n", None),
            ("both", text.replace("ret= clos=2]",
                                  "ret=0..100000000 clos=0..100000000]"),
             None, "return/closure seal overlap: 0..100000000")):
        path, out = tmp_path / f"{name}.comp", tmp_path / f"{name}.out"
        path.write_text(wide)
        if runs is not None:
            p = _cli_under_1gb(["link", str(path), str(empty), "-o", str(out)])
            assert (p.returncode, p.stderr) == (0, ""), name
            assert runs in out.read_text(), name
            assert parse_component(out.read_text()) == parse_component(wide)
        p = _cli_under_1gb(["validate", str(path)])
        assert (p.returncode, p.stderr) == (4 if verdict else 0, ""), name
        assert len(p.stdout.splitlines()) < 5, name
        assert verdict is None or verdict in p.stdout, name


def test_paranoid_runs_at_a_wide_stack():
    # at a stack of 2^30 cells, calls, stack locals and nested calls run
    # as at 64 cells: the same outcomes and steps, and no violation
    programs = dict((n, (a, b)) for n, a, b in corpus())
    for name in ("call-return", "stack-locals", "deep-trusted"):
        narrow, wide = (run_diff(*programs[name], STK_BASE, top, paranoid=True)
                        for top in (STK_END, STK_BASE + 2 ** 30 - 1))
        for n, w in ((narrow.source, wide.source),
                     (narrow.target, wide.target)):
            assert (w.outcome, w.steps, w.violations) == \
                ("halted", n.steps, []), name
        assert (narrow.source.steps, narrow.target.steps) == \
            {"call-return": (8, 32), "stack-locals": (15, 39),
             "deep-trusted": (16, 64)}[name]


def test_cli_deeply_nested_sealed(tmp_path):
    # a sealed word wraps only a sealable capability, so an inner sealed
    # literal is refused before parse_word recurses into it: exit 3 and
    # one error line at any depth, not a RecursionError
    word = "sealed(1," * 3000 + "seal(1,2,1)" + ")" * 3000
    path = tmp_path / "nested.comp"
    text = format_component(trusted_simple("  halt")) + "[data]\n"
    path.write_text(text + f"700 {word}\n")
    p = _cli_under_1gb(["validate", str(path)])
    assert p.returncode == 3, p.stderr[-300:]
    line = text.count("\n") + 1
    assert p.stderr.startswith(
        f"error: line {line}: sealed wraps a sealable capability")
    assert p.stderr.count("\n") == 1 and "Traceback" not in p.stderr


def _link_corpus(tmp_path, name):
    """The containers of corpus program ``name``: (trusted, context,
    linked program) paths."""
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())[name]
    t, ctx = _write(tmp_path, "t.comp", t), _write(tmp_path, "c.comp", ctx)
    prog = str(tmp_path / "p.comp")
    assert cli.main(["link", t, ctx, "-o", prog]) == 0
    return t, ctx, prog


def test_cli_wide_ta_range(tmp_path):
    # a range --ta that holds call-return's one trusted call, 104..129,
    # runs it as one atomic call (the gate's 8 source steps) at any
    # width; one cell short at either end runs its 26 cells one by one
    # (32, the target's count)
    _, _, prog = _link_corpus(tmp_path, "call-return")
    run = ["run", prog, "--machine", "source", "--no-validate", "--ta"]
    for ta, steps in (("auto", 8), ("0..2000000000", 8), ("100..140", 8),
                      ("104..129", 8), ("104..128", 32), ("105..129", 32)):
        p = _cli_under_1gb(run + [ta])
        assert (p.returncode, p.stdout) == \
            (0, f"halted after {steps} steps\n"), ta


def test_cli_validate_trust_edges(tmp_path, capsys):
    # the trusted component's code is 99..132: trusting part of it is
    # refused, a call window with an untrusted cell claims no seal, and
    # a component trusted nowhere may own no return seal
    t, _, _ = _link_corpus(tmp_path, "call-return")
    partly = "comp\tcode\tcode partially trusted\n"
    unclaimed = "comp-code\tseals\treturn seal 1 claimed by no call\n"
    owner = "comp\tseals\tuntrusted component owns return seals\n"
    for ta, out in (("104..129", partly), ("99..128", partly + unclaimed),
                    ("0..5", owner + unclaimed)):
        assert cli.main(["validate", t, "--ta", ta]) == 4, ta
        assert capsys.readouterr().out == out, ta
    assert cli.main(["validate", t, "--ta", "99..132"]) == 0


def test_cli_run_auto_ta_trusts_linked_context_code(tmp_path, capsys):
    # a linked container records no boundary between the trusted code and
    # the context's, so --ta auto would trust both and run the context's
    # calls atomically (16 source steps where diff takes 40): run refuses
    # it, given or by default, on either machine, naming --ta, when more
    # than one code block makes calls; --ta 99..134 (the trusted code
    # alone) gives diff's count
    t, ctx, prog = _link_corpus(tmp_path, "nested-mixed")
    run = ["run", prog, "--no-validate", "--machine"]
    for argv in (run + ["source", "--ta", "auto"],
                 run + ["target", "--ta", "auto"], run + ["source"]):
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: --ta auto ") and err.count("\n") == 1
    assert cli.main(run + ["source", "--ta", "99..134"]) == 0
    assert capsys.readouterr().out == "halted after 40 steps\n"
    assert cli.main(["diff", t, ctx]) == 0
    assert capsys.readouterr().out.startswith("source: halted after 40 steps\n")


def test_cli_validate(tmp_path, capsys):
    good = _write(tmp_path, "good.comp", trusted_simple("  halt"))
    assert cli.main(["validate", good]) == 0
    bad = trusted_simple("  halt")
    broken = bad.ms_code.copy()
    broken[min(broken)] = 7  # clobber the guard pad
    from capmach.components import Component
    badc = Component(broken, bad.ms_data, bad.imports, bad.exports,
                     bad.sig_ret, bad.sig_clos, bad.a_linear, bad.mains)
    badf = _write(tmp_path, "bad.comp", badc)
    assert cli.main(["validate", badf]) == 4
    assert "pads" in capsys.readouterr().out


def test_cli_link_and_run(tmp_path):
    t = _write(tmp_path, "t.comp", trusted_simple("  halt"))
    c = _write(tmp_path, "c.comp", minimal_context())
    out = str(tmp_path / "p.comp")
    assert cli.main(["link", t, c, "-o", out]) == 0
    # a linked program is not a single well-formed component (the seal
    # sets of its parts need not be contiguous together), so skip the
    # per-component checks when running it
    run = ["run", out, "--no-validate", "--machine"]
    assert cli.main(run + ["target"]) == 0
    assert cli.main(run + ["source"]) == 0
    assert cli.main(["run", out, "--machine", "target"]) == 4
    tfail = _write(tmp_path, "tf.comp", trusted_simple("  fail"))
    assert cli.main(["link", tfail, c, "-o", out]) == 0
    assert cli.main(run + ["target"]) == 1
    # linking two components that claim the same seals
    assert cli.main(["link", t, t, "-o", out]) == 4


def test_cli_diff(tmp_path):
    t = _write(tmp_path, "t.comp", trusted_one_call())
    c = _write(tmp_path, "c.comp", context_cb("  move r5 7"))
    tdir = str(tmp_path / "traces")
    assert cli.main(["diff", t, c, "--trace-dir", tdir]) == 0
    # each machine traced from the configuration the diff started from
    gc, cfgs = harness.diff_start(trusted_one_call(),
                                  context_cb("  move r5 7"), *cli.DEFAULT_STACK)
    for kind, cfg in cfgs.items():
        assert (tmp_path / "traces" / f"{kind}.trace").read_text() == \
            format_trace(cfg, kind, gc)


def test_cli_diff_fuel_counts_source_steps(tmp_path, capsys):
    # call-return halts after 8 source steps: at --fuel 8 the target gets
    # 24 steps more for the call and the return, and halts too; traces
    # run as far as each diff run did
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    tdir = tmp_path / "traces"
    assert cli.main(["diff", _write(tmp_path, "t.comp", t),
                     _write(tmp_path, "c.comp", ctx), "--fuel", "8",
                     "--trace-dir", str(tdir)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source: halted after 8 steps", "target: halted after 32 steps",
        "agreement"]
    for kind, steps in (("source", 8), ("target", 32)):
        lines = (tdir / f"{kind}.trace").read_text().splitlines()
        assert len(lines) == steps and lines[-1].endswith("\thalted"), kind


def test_cli_paranoid_violations(tmp_path, capsys):
    # two data words own the same linear range: with validation off, the
    # paranoid checks find it, and run and diff print what they found
    twice = ("[data]\n310\tcap(rw,linear,320,321,320)\n"
             "311\tcap(rw,linear,320,321,320)\n")
    t, ctx = trusted_simple("  halt"), minimal_context()
    prog = tmp_path / "p.comp"
    prog.write_text(format_component(link(t, ctx)).replace("[data]\n", twice))
    found = "violation: step 0: linear address 320 owned by both mem 310 " \
            "and mem 311"
    assert cli.main(["run", str(prog), "--machine", "source", "--no-validate",
                     "--paranoid"]) == 0
    assert capsys.readouterr().out == f"halted after 1 steps\n{found}\n"
    c = tmp_path / "c.comp"
    c.write_text(format_component(ctx).replace("[data]\n", twice))
    assert cli.main(["diff", _write(tmp_path, "t.comp", t), str(c),
                     "--no-validate", "--paranoid"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source: halted after 1 steps", f"source: {found}",
        "target: halted after 1 steps", f"target: {found}", "agreement"]


def test_cli_diff_unresolved_import(tmp_path, capsys):
    # both components validate, but the context exports no callback for
    # the trusted call: the linked program has unresolved imports, which
    # initial_config refuses
    argv = ["diff", _write(tmp_path, "t.comp", trusted_one_call()),
            _write(tmp_path, "c.comp", minimal_context())]
    assert cli.main(argv) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "invalid: program has unresolved imports\n"


def test_cli_diff_disagreement(tmp_path, capsys):
    # second-stack with the stack-base check compiled out: the target
    # completes the ill-bracketed return, the source refuses it
    t, ctx = SCENARIOS["second-stack-nocheck"]().components
    argv = ["diff", _write(tmp_path, "t.comp", t),
            _write(tmp_path, "c.comp", ctx), "--no-check-stk-base"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out.splitlines() == [
        "source: failed after 12 steps", "target: halted after 38 steps",
        "disagreement: source failed after 12 steps, "
        "target halted after 38 steps"]


def test_cli_scenarios():
    assert cli.main(["scenarios"]) == 0
    assert cli.main(["scenarios", "--run", "partial-stack-return"]) == 0
    assert cli.main(["scenarios", "--run", "second-stack-nocheck"]) == 2
    assert cli.main(["scenarios", "--run", "no-such"]) == 3


def test_cli_scenario_that_misses_its_expectation(monkeypatch, capsys):
    # a scenario whose run does not show what it expects exits 1
    run = cli.SCENARIOS["double-return"]

    def expects_a_disagreement():
        result = run()
        result.expected = "disagreement"
        return result

    monkeypatch.setitem(cli.SCENARIOS, "double-return",
                        expects_a_disagreement)
    assert cli.main(["scenarios", "--run", "double-return"]) == \
        cli.EXIT_FAILED == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "expected disagreement NOT observed"


def test_cli_usage_errors(tmp_path):
    assert cli.main(["frobnicate"]) == 3
    garbled = tmp_path / "g.comp"
    garbled.write_text("not a container\n")
    assert cli.main(["validate", str(garbled)]) == 3


def test_cli_missing_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.comp")
    good = _write(tmp_path, "good.comp", trusted_simple("  halt"))
    out = str(tmp_path / "out")
    for argv in (["asm", missing, "-o", out], ["validate", missing],
                 ["link", good, missing, "-o", out],
                 ["run", missing, "--machine", "source"],
                 ["diff", missing, good]):
        assert cli.main(argv) == 3, argv
        assert "error: " in capsys.readouterr().err, argv


def test_cli_unknown_permission(tmp_path, capsys):
    text = format_component(trusted_simple("  halt"))
    text = text.replace("cap(rw,", "cap(zz,", 1)
    assert "cap(zz," in text
    bad = tmp_path / "perm.comp"
    bad.write_text(text)
    assert cli.main(["validate", str(bad)]) == 3
    assert "'zz' is not a valid Perm" in capsys.readouterr().err


def test_cli_negative_fuel(tmp_path, capsys):
    t = _write(tmp_path, "t.comp", trusted_simple("  halt"))
    c = _write(tmp_path, "c.comp", minimal_context())
    out = str(tmp_path / "p.comp")
    assert cli.main(["link", t, c, "-o", out]) == 0
    run = ["run", out, "--no-validate", "--machine", "target"]
    assert cli.main(run + ["--fuel", "0"]) == 1
    assert cli.main(run + ["--fuel", "-5"]) == 3
    assert cli.main(["diff", t, c, "--fuel", "-5"]) == 3
    assert "fuel must be non-negative" in capsys.readouterr().err


def test_cli_malformed_ta(tmp_path, capsys):
    t = _write(tmp_path, "t.comp", trusted_simple("  halt"))
    c = _write(tmp_path, "c.comp", minimal_context())
    out = str(tmp_path / "p.comp")
    assert cli.main(["link", t, c, "-o", out]) == 0
    for bad in ("5", "1..x", ".."):
        assert cli.main(["validate", t, "--ta", bad]) == 3, bad
        assert "expected a range lo..hi" in capsys.readouterr().err
        assert cli.main(["run", out, "--machine", "target", "--no-validate",
                         "--ta", bad]) == 3, bad
        assert "expected a range lo..hi" in capsys.readouterr().err
    assert cli.main(["run", out, "--machine", "target", "--no-validate",
                     "--ta", "0..5"]) == 0
    # a reversed range trusts nothing: refused, as a reversed --stack is
    assert cli.main(["run", out, "--machine", "target", "--no-validate",
                     "--ta", "129..104"]) == 3
    assert "empty trusted range '129..104'" in capsys.readouterr().err


def test_cli_empty_stack_range(tmp_path, capsys):
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    tf, cf = _write(tmp_path, "t.comp", t), _write(tmp_path, "c.comp", ctx)
    out = str(tmp_path / "p.comp")
    assert cli.main(["link", tf, cf, "-o", out]) == 0
    for argv in (["diff", tf, cf], ["run", out, "--machine", "source"]):
        assert cli.main(argv + ["--stack", "1063..1000"]) == 3, argv
        assert "empty stack range" in capsys.readouterr().err, argv
    assert cli.main(["diff", tf, cf, "--stack", "1000..1000"]) != 3


def test_cli_output_in_missing_directory(tmp_path, capsys):
    src = tmp_path / "a.s"
    src.write_text(".org 0\nstart: halt\n")
    t = _write(tmp_path, "t.comp", trusted_simple("  halt"))
    c = _write(tmp_path, "c.comp", minimal_context())
    out = str(tmp_path / "no" / "such" / "out")
    assert cli.main(["asm", str(src), "-o", out]) == 3
    assert "error: " in capsys.readouterr().err
    assert cli.main(["link", t, c, "-o", out]) == 3
    assert "error: " in capsys.readouterr().err


def test_cli_link_keeps_code_blocks(tmp_path, capsys):
    # the context's code stays at its own address after link, so the
    # linked program runs as `diff` runs the pair
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["stack-smash"]
    out = str(tmp_path / "p.comp")
    assert cli.main(["link", _write(tmp_path, "t.comp", t),
                     _write(tmp_path, "c.comp", ctx), "-o", out]) == 0
    capsys.readouterr()
    for machine in ("source", "target"):
        assert cli.main(["run", out, "--no-validate",
                         "--machine", machine]) == 0, machine
        assert capsys.readouterr().out == "halted after 72 steps\n"


def test_cli_one_stack_base(tmp_path, capsys):
    # call-return's trusted call checks the stack base, so validation
    # needs the base that run and diff use
    t, ctx = dict((n, (a, b)) for n, a, b in corpus())["call-return"]
    tf, cf = _write(tmp_path, "t.comp", t), _write(tmp_path, "c.comp", ctx)
    assert cli.main(["validate", tf]) == 0
    assert cli.main(["validate", tf, "--stk-base", "0"]) == 4
    assert cli.main(["diff", tf, cf]) == 0
    # the base is the low end of --stack; there is no second flag for it
    assert cli.main(["diff", tf, cf, "--stk-base", "1000"]) == 3
    out = str(tmp_path / "p.comp")
    assert cli.main(["link", tf, cf, "-o", out]) == 0
    assert cli.main(["run", out, "--machine", "source", "--no-validate",
                     "--stk-base", "1000"]) == 3
    capsys.readouterr()
    # a stack that does not start at the base the call was assembled for:
    # run and diff both take the base from it, and agree
    run = ["run", out, "--no-validate", "--stack", "1010..1063", "--machine"]
    assert cli.main(run + ["source"]) == 1
    assert cli.main(run + ["target"]) == 1
    assert capsys.readouterr().out == "failed after 27 steps\n" * 2
    assert cli.main(["diff", tf, cf, "--stack", "1010..1063",
                     "--no-validate"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "source: failed after 27 steps", "target: failed after 27 steps"]
