"""Programs the benchmark builds itself: the ``call-stack`` loop and the
synthetic trusted code segments used for the validation scaling points.

Both are built through the public API (``assemble``, ``Component``) so
that a change to the fixtures module does not change the benchmark.
"""

from __future__ import annotations

import random

from capmach.asm import CALL_LEN, assemble
from capmach.components import Component
from capmach.core import Lin, MemCap, Perm, Sealed
from capmach.fixtures import C_CODE, STK_BASE, T_CODE, T_DATA, context_cb


def _pad(segment: dict) -> dict:
    lo, hi = min(segment), max(segment)
    return {lo - 1: 0, **segment, hi + 1: 0}


def _code_cap(res, label):
    return MemCap(Perm.RX, Lin.NORMAL, min(res.segment), max(res.segment),
                  res.labels[label])


def _rw(lo, hi):
    return MemCap(Perm.RW, Lin.NORMAL, lo, hi, lo)


# The trusted loop reloads the callback pair before every call.  Calling
# the same pair twice without a reload makes the machines disagree (the
# target's xjmp leaves the unsealed closure halves in r1/r2 while the
# source's atomic call leaves them sealed); that defect is not what this
# workload measures, so the loop stays on the reload path, as the
# ``sequential-calls`` fixture does.
_TRUSTED_LOOP = """\
entry:
  move r3 rdata
  move r11 rdata
  cca r11 2
  move r12 {calls}
  move r13 pc
  cca r13 @loop+1
loop:
  seta2b r3
  load r1 r3
  cca r3 1
  load r2 r3
  load r0 r11
  cca r11 1
  load r4 r11
  cca r11 1
  call sealw 0 r1 r2
  minus r12 r12 1
  jnz r13 r12
  halt
sealw: .seal 1 2 1
"""

# r0 = cells to sweep, r4 = value to store; the callback stores r4 into
# r0 cells below its stack top, then loads them back into the sum r6.
_CALLBACK = """\
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


def sweep_plan(seed: int, calls: int, width: int):
    """Per-call (cells, value) pairs: ``calls * width`` cells in total,
    split across the calls by the seed, each call sweeping at least one
    and at most ``2 * width`` cells."""
    rng = random.Random(seed)
    cells = [width] * calls
    for _ in range(4 * calls):
        i, j = rng.randrange(calls), rng.randrange(calls)
        d = rng.randint(0, min(cells[i] - 1, 2 * width - cells[j]))
        cells[i] -= d
        cells[j] += d
    return [(w, rng.randint(1, 10 ** 6)) for w in cells]


def call_stack_program(plan):
    """(trusted, context) for the call-stack loop over ``plan``."""
    calls = len(plan)
    res = assemble(f".org {T_CODE}\n" + _TRUSTED_LOOP.format(calls=calls),
                   STK_BASE)
    data = {T_DATA: 0, T_DATA + 1: 0}
    for k, (w, v) in enumerate(plan):
        data[T_DATA + 2 + 2 * k] = w
        data[T_DATA + 3 + 2 * k] = v
    data_hi = max(data)
    assert data_hi < C_CODE - 1, "call table runs into the context"
    mains = (Sealed(2, _code_cap(res, "entry")), Sealed(2, _rw(T_DATA, data_hi)))
    trusted = Component(
        _pad(res.segment), data, ((T_DATA, "cb_code"), (T_DATA + 1, "cb_data")),
        (("main_code", mains[0]), ("main_data", mains[1])),
        frozenset({1}), frozenset({2}), frozenset(), mains)
    return trusted, context_cb(_CALLBACK)


_FILLER = ("move r5 1", "plus r6 r6 r5", "cca r3 1", "geta r7 r3",
           "lt r8 r7 r6", "move r9 r8")


def synthetic_trusted(cells: int) -> Component:
    """A well-formed trusted code segment of exactly ``cells`` cells
    (pads excluded): call macros, each claiming its own return seal,
    separated by filler instructions, then a halt and the seal word."""
    lines = []
    size = 0
    calls = 0
    block = CALL_LEN + len(_FILLER)
    while size + block + 2 <= cells:
        calls += 1
        lines.append(f"  call sealw {calls - 1} r1 r2")
        lines.extend("  " + f for f in _FILLER)
        size += block
    while size + 2 < cells:
        lines.append("  " + _FILLER[size % len(_FILLER)])
        size += 1
    lines.append("  halt")
    clos = calls + 1
    lines.append(f"sealw: .seal 1 {clos} 1")
    res = assemble(f".org {T_CODE}\n" + "\n".join(lines) + "\n", STK_BASE)
    assert len(res.segment) == cells
    return Component(_pad(res.segment), {}, sig_ret=frozenset(range(1, clos)),
                     sig_clos=frozenset({clos}))
