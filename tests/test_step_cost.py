"""Python-level calls per step, counted with ``sys.setprofile``: a cost
that wall time on a shared host cannot pin, and that does not depend on
the host's speed."""

import ast
import inspect
import sys
import textwrap

import pytest

from capmach import asm, fixtures, harness, machine
from capmach.asm import CALL_HEAD
from capmach.components import _verdict, format_component, parse_component
from capmach.core import (
    PC, Lin, MemCap, Memory, Perm, StkPtr, dec_instr, linear_range,
)
from capmach.harness import diff_start, run, run_report
from capmach.machine import NULL_EXTENSION
from capmach.source import SOURCE_EXTENSION, SourceConfig
from conftest import NOWHERE, count_calls

# r0 cells of the callback's stack: store r4 into each, going down,
# then load them back into the sum r6, going up
_SWEEP = """\
  move r0 32
  move r4 5
  move r7 r0
  move r5 pc
  cca r5 @down+1
down:
  store rstk r4
  cca rstk -1
  minus r7 r7 1
  jnz r5 r7
  move r7 r0
  move r5 pc
  cca r5 @up+1
up:
  cca rstk 1
  load r8 rstk
  plus r6 r6 r8
  minus r7 r7 1
  jnz r5 r7"""


def _calls_per_step(programs, fuel, paranoid=False):
    """Python-level ``call`` events per step over a run of each machine
    on each ``(trusted, context)`` pair of ``programs``, after a first
    run of each fills the decode memo, and the reports."""
    runs = []
    for trusted, context in programs:
        consts, cfgs = diff_start(trusted, context, fixtures.STK_BASE,
                                  fixtures.STK_END)
        runs += [(cfgs[kind], kind, consts) for kind in ("source", "target")]
    for cfg, kind, consts in runs:
        run_report(cfg, kind, consts, fuel, paranoid)
    calls, reports = count_calls(lambda: [
        run_report(cfg, kind, consts, fuel, paranoid)
        for cfg, kind, consts in runs])
    return calls / sum(r.steps for r in reports), reports


def test_spin_step_calls():
    # a step is its handler's call, the run's loop folds in the rest:
    # 1.004 calls with Python 3.11, the run's start aside (3.004 when the
    # loop was a generator that called a one-step function, 4.004 when
    # ``move r pc``, ``cca`` and ``jmp`` each called a helper too)
    per_step, reports = _calls_per_step(
        [dict(fixtures.CORPUS)["spin"]()], 2000)
    assert [(r.outcome, r.steps) for r in reports] == \
        [("fuel-exhausted", 2000)] * 2
    assert per_step <= 1.1, per_step


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode event counts differ between Python "
                    "versions; the bound is set for 3.11")
def test_run_loop_opcodes_per_step():
    # the loop's own cost, which a call count does not see: opcode
    # events of ``sys.settrace`` in ``harness.run``'s frame over an
    # unhooked spin run of 2000 steps, 67.4 per step with Python 3.11
    # (76.4 when the loop tested every word against CALL_HEAD and wrote
    # the cells that stores handed back in a ``Running``, 93.4 when each
    # handler returned a dict of its writes for the run to apply)
    consts, cfgs = diff_start(*dict(fixtures.CORPUS)["spin"](),
                              fixtures.STK_BASE, fixtures.STK_END)
    code, events = run.__code__, 0

    def opcodes(frame, event, arg):
        nonlocal events
        events += event == "opcode"
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return opcodes

    for kind in ("source", "target"):
        run(cfgs[kind], kind, consts, 2000)   # the decode memo, warm
        events, old = 0, sys.gettrace()
        sys.settrace(calls)
        try:
            r = run(cfgs[kind], kind, consts, 2000)
        finally:
            sys.settrace(old)
        assert (r.outcome, r.steps) == ("fuel-exhausted", 2000)
        assert events / r.steps <= 70, (kind, events / r.steps)


def test_spin_applies_no_write_dict():
    # a handler writes its register into the run's dict in place: an
    # unhooked spin run of 2000 steps calls no ``dict.update`` (2000 a
    # run, one per step, when each handler returned a dict of its writes
    # and the run applied it)
    consts, cfgs = diff_start(*dict(fixtures.CORPUS)["spin"](),
                              fixtures.STK_BASE, fixtures.STK_END)
    updates = 0

    def count(frame, event, arg):
        nonlocal updates
        if event == "c_call" and arg.__qualname__ == "dict.update":
            updates += 1

    for kind in ("source", "target"):
        run(cfgs[kind], kind, consts, 2000)   # the decode memo, warm
        sys.setprofile(count)
        try:
            r = run(cfgs[kind], kind, consts, 2000)
        finally:
            sys.setprofile(None)
        assert (r.outcome, r.steps) == ("fuel-exhausted", 2000)
    assert updates == 0, updates


def test_spin_builds_one_pc_record(monkeypatch):
    # a step that does not set pc moves it in the run's locals: with no
    # hook, pc's register is written back, built once, only at the run's
    # end (against 1334 records, one per step that does not jump, when
    # every step wrote it); a hook sees pc at every configuration, so a
    # run with one still builds a record at each such step
    consts, cfgs = diff_start(*dict(fixtures.CORPUS)["spin"](),
                              fixtures.STK_BASE, fixtures.STK_END)
    built = []

    def new(cls, fields):
        built.append(cls)
        return machine._new(cls, fields)

    monkeypatch.setattr(harness, "_new", new)
    for kind in ("source", "target"):
        for hook, records in ((None, 1), (lambda *seen: None, 1334)):
            built.clear()
            r = run(cfgs[kind], kind, consts, 2000, hook)
            assert (r.outcome, r.steps) == ("fuel-exhausted", 2000)
            assert built == [MemCap] * records, (kind, len(built))


def test_handlers_take_one_operand_tuple(monkeypatch):
    # what ``setprofile`` cannot see: every handler takes a fixed number
    # of parameters, the run's loop makes no starred call (which CPython
    # does not inline), and a handler is looked up by name at each step,
    # so one replaced after the decode memo is warm (as the bench's
    # tracer wraps them) is the one called
    for name in (*machine._HANDLER.values(), "_exec_call_head"):
        params = inspect.signature(getattr(machine, name)).parameters
        assert list(params) == ["cfg", "ext", "gc", "ops"], name
    tree = ast.parse(textwrap.dedent(inspect.getsource(run)))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Call) and (
        any(isinstance(a, ast.Starred) for a in n.args)
        or any(k.arg is None for k in n.keywords))]
    consts, cfgs = diff_start(*dict(fixtures.CORPUS)["spin"](),
                              fixtures.STK_BASE, fixtures.STK_END)
    run_report(cfgs["source"], "source", consts, 300)
    calls = 0
    exec_jmp = machine.exec_jmp

    def counting(*args):
        nonlocal calls
        calls += 1
        return exec_jmp(*args)

    def jump(cfg, wrote, cell):
        nonlocal jumps
        jumps += dec_instr(cfg.mem[cfg.reg[PC].addr]).op == "jmp"

    monkeypatch.setattr(machine, "exec_jmp", counting)
    for kind in ("source", "target"):
        calls = jumps = 0
        run(cfgs[kind], kind, consts, 300, jump)
        assert calls == jumps == 100, kind


def test_load_store_sweep_step_calls():
    # a load or a store is one handler call plus one access guard, and a
    # store of an int calls nothing else, not even to tell that an
    # unwritten cell is in the memory: 1.271 calls per step with Python
    # 3.11 (1.281 when a splice told its halves through ``is_linear`` and
    # ``lin_cons``, 1.292 when a register move of an int called
    # ``lin_cons``, 1.424 when that test went through
    # ``Ranges.__contains__``, 1.443 when ``lin_cons`` sent a sealed word
    # to ``linear_range``, 3.630 with the generator loop and ``lin_cons``
    # on every store)
    per_step, reports = _calls_per_step(
        [(fixtures.trusted_one_call(), fixtures.context_cb(_SWEEP))], 5000)
    assert [(r.outcome, r.steps, r.final_cfg.reg["r6"]) for r in reports] \
        == [("halted", 303, 160), ("halted", 327, 160)]
    assert per_step <= 1.35, per_step


def test_paranoid_step_calls():
    # the paranoid checks visit what a step changed: the registers it
    # wrote and its cell, whose owners are told in place, and at a call
    # or a return the memories it made and the regions next to them, in
    # one hook call per step: 3.010 calls per step with Python 3.11
    # (3.126 when a splice told its halves through ``is_linear`` and
    # ``lin_cons``; 3.171 when a target CALL_HEAD step asked a
    # ``recognize_call`` that returned None and a register move of an int
    # called ``lin_cons``; 3.141 before a call's first word had a handler
    # of its own; 3.690 when a call or a return split and joined the stack
    # through ``Ranges``' Python-level constructor and the tracker called
    # ``bounds`` and ``meets``, 3.957 when ``lin_cons`` sent a sealed
    # word to ``linear_range``, 5.559 when the words other than ints and
    # normal memory capabilities went through ``linear_range`` and each
    # call and return rebuilt the partition, 8.454 with the generator
    # loop).
    # Unchecked, these runs make 1.708
    programs = [(t, ctx) for name, t, ctx in fixtures.corpus()
                if name != "spin"]
    per_step, reports = _calls_per_step(programs, 2000, paranoid=True)
    assert len(reports) == 20 and all(
        r.outcome == "halted" and r.violations == [] for r in reports)
    assert per_step <= 3.25, per_step


def test_load_tells_linear_words_in_place():
    # a load tells whether the word it reads is linear as ``lin_cons``
    # tells it, in place: over paranoid runs of both machines on the 10
    # terminating corpus programs (57 loads), ``exec_load`` makes no
    # ``linear_range`` call (55 when every word but an int went through
    # it)
    from_load, loads = 0, 0
    load, linear = machine.exec_load.__code__, linear_range.__code__

    def count(frame, event, arg):
        nonlocal from_load, loads
        if event == "call":
            loads += frame.f_code is load
            from_load += frame.f_code is linear and frame.f_back.f_code is load

    programs = [(t, ctx) for name, t, ctx in fixtures.corpus()
                if name != "spin"]
    runs = []
    for trusted, context in programs:
        consts, cfgs = diff_start(trusted, context, fixtures.STK_BASE,
                                  fixtures.STK_END)
        runs += [(cfgs[kind], kind, consts) for kind in ("source", "target")]
    sys.setprofile(count)
    try:
        reports = [run_report(cfg, kind, consts, 2000, True)
                   for cfg, kind, consts in runs]
    finally:
        sys.setprofile(None)
    assert all(r.outcome == "halted" and r.violations == [] for r in reports)
    assert (loads, from_load) == (57, 0)


def test_linear_splice_calls_nothing():
    # a splice tells both halves by one ownership key and one ``OWNS``
    # lookup, in place, as the load tells a word: a splice of two linear
    # halves is its handler's one call on either machine, and so is one
    # of two stack pointers on the source (7 when each half went through
    # ``is_linear``, which called ``linear_range``, and ``lin_cons``)
    ops = ("r1", "r2", "r3")
    lo = MemCap(Perm.RW, Lin.LINEAR, 0, 5, 1)
    hi = MemCap(Perm.RW, Lin.LINEAR, 6, 10, 8)
    sp = StkPtr(Perm.RW, 1000, 1004, 1001), StkPtr(Perm.RW, 1005, 1010, 1008)
    cases = [(NULL_EXTENSION, (lo, hi)), (SOURCE_EXTENSION, (lo, hi)),
             (SOURCE_EXTENSION, sp)]
    for ext, (c2, c3) in cases:
        cfg = SourceConfig(Memory({}), {"r1": 0, "r2": c2, "r3": c3})
        calls, out = count_calls(
            lambda: machine.exec_splice(cfg, ext, NOWHERE, ops))
        assert out is None and cfg.reg["r2"] == cfg.reg["r3"] == 0, c2
        assert calls == 1, (c2, calls)


def test_scenario_pairs_built_once():
    # a scenario builds its (trusted, context) pair on its first run in
    # the process only: a second run assembles nothing, runs over the
    # same two component objects and reaches the same verdict, and no
    # run or validation writes into the shared pair, which still equals
    # a build made anew
    code = asm.assemble.__code__
    for name, scenario in fixtures.SCENARIOS.items():
        first = scenario()
        assembles = 0

        def count(frame, event, arg):
            nonlocal assembles
            assembles += event == "call" and frame.f_code is code

        sys.setprofile(count)
        try:
            again = scenario()
        finally:
            sys.setprofile(None)
        assert assembles == 0, name
        (t, ctx), (t0, ctx0) = again.components, first.components
        assert t is t0 and ctx is ctx0, name
        assert again.verdict == first.verdict and again.as_expected, name
        assert again.components == fixtures._SCENARIO[name][0](), name


def test_call_and_return_step_calls():
    # call-return's one atomic call (``recognize_call``, its window memo
    # warm) and its one return (the ``xjmp`` through the return pair),
    # each counted at the configuration the source run reaches it: 8
    # and 7 calls with Python 3.10 to 3.13, against 17 and 11 when the
    # stack was split and joined through ``Memory._of``,
    # ``Ranges._new`` and a comprehension, the trusted window and
    # ``a_stk`` were tested through ``Ranges`` methods and ``lin_cons``
    # sent a return code half to ``linear_range``, 19 and 12 when it
    # sent every sealed half there, and 39 and 18 when each call window
    # was decoded cell by cell and the records were built through their
    # Python-level constructors
    consts, cfgs = diff_start(*dict(fixtures.CORPUS)["call-return"](),
                              fixtures.STK_BASE, fixtures.STK_END)
    ext, counts = SOURCE_EXTENSION, []

    def count(cfg, wrote, cell):
        # each call and jump over its own copy of the registers, which it
        # writes in place: the run's own are left as they are
        first, again = cfg.with_regs({}), cfg.with_regs({})
        w = cfg.mem[cfg.reg[PC].addr]
        if w == CALL_HEAD:
            ext.recognize_call(first, consts)
            counts.append(count_calls(
                lambda: ext.recognize_call(again, consts))[0])
        elif dec_instr(w).args == ("rretcode", "rretdata"):
            counts.append(count_calls(lambda: machine.exec_xjmp(
                again, ext, consts, ("rretcode", "rretdata")))[0])

    r = run(cfgs["source"], "source", consts, 100, count)
    assert (r.outcome, r.steps, r.calls, r.returns) == \
        ("halted", 8, 1, 1)
    assert len(counts) == 2
    assert counts[0] <= 8 and counts[1] <= 7, counts


def test_target_call_head_step_calls():
    # on the target, a call's first word is its move: the null extension
    # has no ``recognize_call``, so ``_exec_call_head`` calls only
    # ``exec_move``, 2 calls with Python 3.10 to 3.13, against 3 when it
    # asked a ``recognize_call`` that always returned None
    consts, cfgs = diff_start(*dict(fixtures.CORPUS)["call-return"](),
                              fixtures.STK_BASE, fixtures.STK_END)
    ops = machine._decode(CALL_HEAD)[1]
    counts = []

    def count(cfg, wrote, cell):
        if cfg.mem[cfg.reg[PC].addr] == CALL_HEAD:
            again = cfg.with_regs({})   # the handler writes its registers
            counts.append(count_calls(lambda: machine._exec_call_head(
                again, NULL_EXTENSION, consts, ops))[0])

    r = run(cfgs["target"], "target", consts, 100, count)
    assert r.outcome == "halted" and len(counts) == 1
    assert counts[0] <= 2, counts


def test_parse_calls_per_line():
    # a warm parse takes each word and section header from its memo, so
    # what is left is each container's records and the ints outside a
    # header (a ``[data]`` or ``[imports]`` address): 0.20 calls per
    # content line (headers aside), against 0.29 when ``core._is_int``
    # was a Python-level function, 0.11 when those ints had a memo too,
    # 1.21 when each header and int was read anew and 5.05 when every
    # word was parsed anew
    texts = [format_component(c) for name, t, ctx in fixtures.corpus()
             if name != "spin" for c in (t, ctx)]
    lines = sum(line.strip()[:1] not in ("", "[")
                for text in texts for line in text.splitlines())
    parsed = [parse_component(text) for text in texts]
    calls, again = count_calls(
        lambda: [parse_component(text) for text in texts])
    assert (len(texts), lines, again) == (20, 534, parsed)
    assert calls / lines <= 1.5, calls / lines


def test_assemble_calls_per_line(monkeypatch):
    # a warm fixtures.corpus() reads each operand and each instruction
    # image from a memo keyed by the token or by the opcode and
    # operands, so what is left is each component's build and its
    # directives: 2.62 calls per content line it assembles (the ``.org``
    # line that ``component`` adds among them), against 8.02 when each
    # operand was told by a generator through ``is_register`` and
    # ``parse_int``, and each record built through its class
    texts = []

    def assemble(src, *args):   # the texts of a first, warming build
        texts.append(src)
        return asm.assemble(src, *args)

    monkeypatch.setattr(fixtures, "assemble", assemble)
    first = fixtures.corpus()
    monkeypatch.undo()
    lines = sum(map(bool, map(str.strip, "\n".join(texts).splitlines())))
    calls, again = count_calls(fixtures.corpus)
    assert (len(texts), lines, again) == (22, 188, first)
    assert calls / lines <= 2.9, calls / lines


def test_format_calls_per_line():
    # a line is written in C, joined with ``map`` and ``str.format``,
    # and only a record's ``repr`` and its enums' are Python-level
    # calls, with each section's, and a main word that is an exported
    # one reuses its text: 0.54 calls per line written over the
    # corpus's 22 components, against 0.67 when each main word was
    # printed anew and 1.14 when each line was written in a Python loop
    # and an enum's repr read ``Enum.value``
    comps = [c for _, t, ctx in fixtures.corpus() for c in (t, ctx)]
    texts = [format_component(c) for c in comps]
    lines = sum(text.count("\n") for text in texts)
    calls, again = count_calls(
        lambda: [format_component(c) for c in comps])
    assert (len(comps), lines, again) == (22, 652, texts)
    assert calls / lines <= 0.6, calls / lines


def test_warm_diff_start_calls():
    # a warm diff_start on parsed containers, as ``capmach diff`` reads
    # them, builds each side's memo key and hits: 46 calls on
    # deep-trusted with Python 3.10 to 3.13 (44 with validate=False: the
    # keys are flat tuples, which hash and compare in C), against 85
    # when the keys held ``Ranges`` and the constants, which hash and
    # compare in Python, and 229 when both sides are validated anew, as
    # a key that always missed would have them
    t, ctx = (format_component(c) for c in
              dict(fixtures.CORPUS)["deep-trusted"]())
    # the stored keys are this test's, whose words parse_word shares
    _verdict.cache_clear()
    first = diff_start(parse_component(t), parse_component(ctx),
                       fixtures.STK_BASE, fixtures.STK_END)
    args = (parse_component(t), parse_component(ctx), fixtures.STK_BASE,
            fixtures.STK_END)
    calls, again = count_calls(lambda: diff_start(*args))
    hits, misses = _verdict.cache_info()[:2]
    assert (hits, misses, again) == (2, 2, first)
    assert calls <= 95, calls


def test_diff_fixed_calls():
    # a corpus check as the bench makes one: parse both containers, then
    # a paranoid run_diff, here of halt, which takes one step per
    # machine, so nearly all of it is the fixed cost.  Warm, it makes
    # 81 calls with Python 3.10 to 3.13 (82 when ints had a memo and the
    # first scan called ``bounds`` and ``meets``), against 166 (160 with
    # 3.12 and 3.13) when every header was read anew, each Ranges and
    # record went through its Python-level constructor, the memo key
    # hashed its Ranges and constants in Python and the first paranoid
    # scan sent seal words to ``linear_range``
    t, ctx = (format_component(c) for c in dict(fixtures.CORPUS)["halt"]())
    # as in test_warm_diff_start_calls: a key an earlier test stored
    # (the fixture-built components, equal words but not the same
    # objects) would be compared field by field in Python
    _verdict.cache_clear()

    def check():
        return harness.run_diff(parse_component(t), parse_component(ctx),
                                fixtures.STK_BASE, fixtures.STK_END,
                                paranoid=True)

    first = check()
    calls, again = count_calls(check)
    assert again == first
    assert (again.source.steps, again.target.steps) == (1, 1)
    assert calls <= 90, calls
