"""A digest of the machines' observable behaviour: run it as
``python tests/digest.py`` from any directory.  It prints the number of
records and the md5 over them, one ``repr`` line each:

- ``run_report`` of every corpus program on both machines, with the
  stack-base check on and off, at fuels 0, 1, 5, 8, 31 and 2000,
  paranoid on and off: outcome, steps, violations, calls, returns and
  the final configuration;
- ``format_trace`` of the same runs;
- the four attack scenarios' verdicts;
- paranoid ``run_diff`` of every corpus program at fuels 0, 7, ..., 77.

A change that keeps behaviour prints the same line before and after; a
configuration is written with its cells and registers sorted, so the
line does not depend on ``PYTHONHASHSEED``.  pytest does not collect
this file (its name does not start with ``test_``)."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capmach.fixtures import SCENARIOS, STK_BASE, STK_END, corpus  # noqa: E402
from capmach.harness import (  # noqa: E402
    diff_start, format_trace, run_diff, run_report,
)

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


def main():
    digest, n = hashlib.md5(), 0
    for rec in records():
        digest.update(f"{rec!r}\n".encode())
        n += 1
    print(n, digest.hexdigest())


if __name__ == "__main__":
    main()
