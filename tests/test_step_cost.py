"""Python-level calls per step, counted with ``sys.setprofile``: a cost
that wall time on a shared host cannot pin, and that does not depend on
the host's speed."""

import ast
import gc
import inspect
import sys

from capmach import fixtures, machine
from capmach.components import _verdict, format_component, parse_component
from capmach.core import PC, dec_instr
from capmach.harness import Run, diff_start, run_report

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
    calls, reports = _count_calls(lambda: [
        run_report(cfg, kind, consts, fuel, paranoid)
        for cfg, kind, consts in runs])
    return calls / sum(r.steps for r in reports), reports


def _count_calls(work):
    """Python-level ``call`` events inside ``work()``, the call of
    ``work`` itself aside, and its result."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # a collection inside the count would close unreachable generators
    # and run finalizers left by earlier code, which counts as calls
    gc.collect()
    gc.disable()
    old = sys.getprofile()
    sys.setprofile(count)
    try:
        result = work()
    finally:
        sys.setprofile(old)
        gc.enable()
    return calls - 1, result


def test_spin_step_calls():
    # a step is the run's resume, ``advance`` and its handler: 3.004
    # calls with Python 3.11, the run's start aside (4.004 when ``move r
    # pc``, ``cca`` and ``jmp`` each called a helper)
    per_step, reports = _calls_per_step(
        [dict(fixtures.CORPUS)["spin"]()], 2000)
    assert [(r.outcome, r.steps) for r in reports] == \
        [("fuel-exhausted", 2000)] * 2
    assert per_step <= 3.1, per_step


def test_handlers_take_one_operand_tuple(monkeypatch):
    # what ``setprofile`` cannot see: every handler takes a fixed number
    # of parameters, ``advance`` makes no starred call (which CPython
    # does not inline), and a handler is looked up by name at each step,
    # so one replaced after the decode memo is warm (as the bench's
    # tracer wraps them) is the one called
    for name in machine._HANDLER.values():
        params = inspect.signature(getattr(machine, name)).parameters
        assert list(params) == ["cfg", "ext", "gc", "ops"], name
    tree = ast.parse(inspect.getsource(machine.advance))
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

    monkeypatch.setattr(machine, "exec_jmp", counting)
    for kind in ("source", "target"):
        calls = 0
        jumps = sum(dec_instr(cfg.mem[cfg.reg[PC].addr]).op == "jmp"
                    for cfg, _, _ in Run(cfgs[kind], kind, consts, 300))
        assert calls == jumps == 100, kind


def test_load_store_sweep_step_calls():
    # a load or a store is one handler call plus one access guard
    per_step, reports = _calls_per_step(
        [(fixtures.trusted_one_call(), fixtures.context_cb(_SWEEP))], 5000)
    assert [(r.outcome, r.steps, r.final_cfg.reg["r6"]) for r in reports] \
        == [("halted", 303, 160), ("halted", 327, 160)]
    assert per_step <= 3.75, per_step


def test_paranoid_step_calls():
    # the paranoid checks visit what a step changed: the registers it
    # wrote and its cell, told apart in place when they own nothing, and
    # a memory or the frames only at a call or a return: 8.454 calls per
    # step with Python 3.11.  Unchecked, these runs make 5.30
    programs = [(t, ctx) for name, t, ctx in fixtures.corpus()
                if name != "spin"]
    per_step, reports = _calls_per_step(programs, 2000, paranoid=True)
    assert len(reports) == 20 and all(
        r.outcome == "halted" and r.violations == [] for r in reports)
    assert per_step <= 8.55, per_step


def test_parse_calls_per_line():
    # a warm parse takes each word from the memo, so what is left is a
    # line's fields and the container's sections: 1.21 calls per
    # content line (headers aside), against 5.05 when every word was
    # parsed anew
    texts = [format_component(c) for name, t, ctx in fixtures.corpus()
             if name != "spin" for c in (t, ctx)]
    lines = sum(line.strip()[:1] not in ("", "[")
                for text in texts for line in text.splitlines())
    parsed = [parse_component(text) for text in texts]
    calls, again = _count_calls(
        lambda: [parse_component(text) for text in texts])
    assert (len(texts), lines, again) == (20, 534, parsed)
    assert calls / lines <= 1.5, calls / lines


def test_warm_diff_start_calls():
    # a warm diff_start on parsed containers, as ``capmach diff`` reads
    # them, builds each side's memo key and hits: 89 calls on
    # deep-trusted with Python 3.11 (68 with validate=False; the rest
    # hash and compare the two keys, whose ``Perm`` and ``Lin`` fields
    # hash in C), against 229 when both sides are validated anew, as a
    # key that always missed would have them
    t, ctx = (format_component(c) for c in
              dict(fixtures.CORPUS)["deep-trusted"]())
    # the stored keys are this test's, whose words parse_word shares
    _verdict.cache_clear()
    first = diff_start(parse_component(t), parse_component(ctx),
                       fixtures.STK_BASE, fixtures.STK_END)
    args = (parse_component(t), parse_component(ctx), fixtures.STK_BASE,
            fixtures.STK_END)
    calls, again = _count_calls(lambda: diff_start(*args))
    hits, misses = _verdict.cache_info()[:2]
    assert (hits, misses, again) == (2, 2, first)
    assert calls <= 95, calls
