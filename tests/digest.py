"""A digest of the machines' observable behaviour: run it as
``python tests/digest.py`` from any directory.  It prints the number of
records and the md5 over them, one ``repr`` line each:

- ``run_report`` of every corpus program on both machines, with the
  stack-base check on and off, at fuels 0, 1, 5, 8, 31 and 2000,
  paranoid on and off: outcome, steps, violations, calls, returns and
  the final configuration;
- ``format_trace`` of the same runs;
- the four attack scenarios' verdicts;
- paranoid ``run_diff`` of every corpus program at fuels 0, 7, ..., 77;
- paranoid ``run_report`` of configurations that break an invariant
  (``violating``), on each machine at fuels 0, 1, 5 and 2000, so that
  violation text is in the digest too;
- the front end: ``format_component`` of every corpus and scenario
  component and every linked corpus program, the parse of that text,
  with its ``diagnostics`` under both stack-base checks, the message of
  each malformed container of ``test_components.BAD_CONTAINER_LINES``
  and that of each malformed assembly of ``test_asm.ASM_ERRORS``;
- every register pair as the operands of call-return's trusted call
  (``test_source.call_through``): its diagnostics, and its paranoid
  ``run_diff`` verdict when it validates.

A change that keeps behaviour prints the same line before and after,
the one committed in ``tests/digest.expected``, which CI compares it
with; a change that alters behaviour updates that file.  A
configuration is written with its cells and registers sorted, so the
line does not depend on ``PYTHONHASHSEED``.  pytest does not collect
this file (its name does not start with ``test_``)."""

import hashlib
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from capmach.asm import assemble  # noqa: E402
from capmach.components import (  # noqa: E402
    diagnostics, format_component, initial_config, link, parse_component,
)
from capmach.core import (  # noqa: E402
    PC, REGISTERS, GlobalConstants, Instr, Lin, MemCap, Memory, Perm,
    Ranges, StkPtr, enc_instr, fresh_registers,
)
from capmach.fixtures import (  # noqa: E402
    CORPUS, SCENARIOS, STK_BASE, STK_END, corpus, minimal_context,
    trusted_simple,
)
from capmach.harness import (  # noqa: E402
    diff_start, format_trace, run_diff, run_report,
)
from capmach.source import SourceConfig, StackFrame  # noqa: E402
from test_asm import ASM_ERRORS  # noqa: E402
from test_components import BAD_CONTAINER_LINES, bad_container  # noqa: E402
from test_source import call_through  # noqa: E402

FUELS = (0, 1, 5, 8, 31, 2000)


def _mem(m):
    return sorted(m.written.items()), m.domain


def _cfg(cfg):
    mem, reg, stk, ms_stk = cfg
    return (_mem(mem), sorted(reg.items()),
            [(f.opc, _mem(f.ms)) for f in stk], _mem(ms_stk))


def _report(r):
    return (r.outcome, r.steps, r.violations, r.calls, r.returns,
            _cfg(r.final_cfg))


def _verdict(v):
    return _report(v.source), _report(v.target), v.agreement, v.detail


def _component(c):
    return (sorted(c.ms_code.items()), sorted(c.ms_data.items()), c.imports,
            c.exports, c.sig_ret, c.sig_clos, c.a_linear, c.mains)


def front_end():
    """``(name, component, trusted code)``: every corpus and scenario
    component and every linked corpus program, each with the code that
    its diagnostics trust."""
    for name, t, ctx in corpus():
        yield name, t, t.ms_code
        yield name, ctx, t.ms_code
        yield name, link(t, ctx), t.ms_code
    for name, fn in SCENARIOS.items():
        t, ctx = fn().components
        yield name, t, t.ms_code
        yield name, ctx, t.ms_code


def _lin(b, e):
    return MemCap(Perm.RW, Lin.LINEAR, b, e, b)


def _with(m, cells):
    """A copy of memory ``m`` that also holds ``cells``."""
    return Memory({**m.written, **cells},
                  m.domain | Ranges(((a, a) for a in cells)))


def violating():
    """``(name, cfg, kind, gc)`` runs whose configurations break an
    invariant: two data words that own one range (as in
    ``test_cli_paranoid_violations``), a register and a cell that own
    one range, a linear word and a cell of ``mem`` carried through
    deep-trusted's nested frames, a frame below the stack memory, and a
    violation that a step ends."""
    t, ctx = trusted_simple("  halt"), minimal_context()
    gc, cfgs = diff_start(t, ctx, STK_BASE, STK_END, validate=False)
    for kind, cfg in cfgs.items():
        twice = _with(cfg.mem, dict.fromkeys((310, 311), _lin(320, 321)))
        yield "data-twice", cfg._replace(mem=twice), kind, gc
        yield "reg-and-cell", cfg._replace(
            mem=_with(cfg.mem, {310: _lin(320, 330)}),
            reg={**cfg.reg, "r1": _lin(325, 326)}), kind, gc
    cfg = cfgs["source"]
    yield "frame-below", cfg._replace(
        stk=(StackFrame(0, Memory({900: 0})),),
        ms_stk=Memory({STK_BASE: 0})), "source", gc
    t, ctx = dict(CORPUS)["deep-trusted"]()   # two nested calls
    cfg = initial_config(link(t, ctx), "source", STK_BASE, STK_END)
    yield "frames-over-mem", SourceConfig(
        _with(cfg.mem, {STK_END: 0}),
        {**cfg.reg, "rstk": StkPtr(Perm.RW, STK_BASE, STK_END, STK_END - 1),
         "r12": _lin(5003, 5008)},
        (), _with(cfg.ms_stk, {STK_END: _lin(5000, 5005)})), "source", \
        GlobalConstants(frozenset(t.ms_code), STK_BASE)
    code = [Instr("move", ("r2", 0)), Instr("halt")]
    reg = fresh_registers()
    reg.update({PC: MemCap(Perm.RX, Lin.NORMAL, 100, 101, 100),
                "r1": _lin(2000, 2010), "r2": _lin(2005, 2015)})
    cfg = SourceConfig(Memory({100 + i: enc_instr(x)
                               for i, x in enumerate(code)}), reg)
    for kind in ("source", "target"):
        yield "comes-and-goes", cfg, kind, GlobalConstants(frozenset(),
                                                           STK_BASE)


def records():
    """Every record, in a fixed order."""
    for name, t, ctx in corpus():
        for check in (True, False):
            gc, cfgs = diff_start(t, ctx, STK_BASE, STK_END, check,
                                  validate=False)
            for kind, cfg in cfgs.items():
                for fuel in FUELS:
                    for paranoid in (False, True):
                        yield (name, check, kind, fuel, paranoid, _report(
                            run_report(cfg, kind, gc, fuel, paranoid)))
                    yield (name, check, kind, fuel,
                           format_trace(cfg, kind, gc, fuel))
    for name, fn in SCENARIOS.items():
        s = fn()
        yield name, s.expected, s.as_expected, _verdict(s.verdict)
    for name, t, ctx in corpus():
        for fuel in range(0, 78, 7):
            yield name, fuel, _verdict(run_diff(t, ctx, STK_BASE, STK_END,
                                                fuel, paranoid=True))
    for name, cfg, kind, gc in violating():
        for fuel in (0, 1, 5, 2000):
            yield name, kind, fuel, _report(run_report(cfg, kind, gc, fuel,
                                                       True))
    for name, c, code in front_end():
        text = format_component(c)
        yield name, text
        parsed = parse_component(text)
        yield name, _component(parsed), [
            diagnostics(parsed, GlobalConstants(code, STK_BASE, check))
            for check in (True, False)]
    for section, bad in BAD_CONTAINER_LINES:
        try:
            parse_component(bad_container(section, bad))
        except ValueError as e:
            yield section, bad, str(e)
        else:
            yield section, bad, "parsed"
    for src, _ in ASM_ERRORS:
        try:
            assemble(src, stk_base=1000)
        except ValueError as e:
            yield src, str(e)
        else:
            yield src, "assembled"
    for r1, r2 in product(REGISTERS, repeat=2):
        _, _, diags, v = call_through(r1, r2)
        yield r1, r2, diags, None if v is None else _verdict(v)


def main():
    digest, n = hashlib.md5(), 0
    for rec in records():
        digest.update(f"{rec!r}\n".encode())
        n += 1
    print(n, digest.hexdigest())


if __name__ == "__main__":
    main()
