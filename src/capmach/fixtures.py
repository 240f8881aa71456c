"""Built-in program corpus and attack scenarios.

Every fixture pairs a trusted component (its code is the trusted
address set) with a context.  Addresses follow one layout: trusted code
near 100 with data at 300, context code near 500 with data at 700, the
stack at [1000, 1063] with guard cells just outside.  Every component
is built by ``component``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import assemble
from .components import Component
from .core import Lin, MemCap, Perm, Sealed, _new
from .harness import DiffVerdict, run_diff

STK_BASE = 1000
STK_END = 1063

T_CODE = 100
T_DATA = 300
C_CODE = 500
C_DATA = 700

_MAIN = ("main_code", "main_data")


def component(base: int, text: str, data=None, *, ret=(), clos=(),
              exports=None, main=None, imports=(), linear=(),
              check_stk_base: bool = True) -> Component:
    """Assemble ``text`` at ``base`` into a component with guard pads.

    A value in ``data`` or ``exports`` may be a closure-half spec, which
    becomes its sealed word: ``(σ, label)`` is the rx code half over the
    whole block, entering at ``label``; ``(σ, lo, hi)`` is the rw data
    half over ``lo..hi``.  ``exports`` maps symbols to words in order,
    ``main`` names the two exports that form the main pair, and
    ``imports`` holds ``(addr, symbol)`` pairs.
    """
    res = assemble(f".org {base}\n{text}", STK_BASE, check_stk_base)
    lo, hi = min(res.segment), max(res.segment)
    assert len(res.segment) == hi - lo + 1, "code must be contiguous"

    def word(w):
        if type(w) is not tuple:   # capabilities are tuples too
            return w
        if len(w) == 2:
            sigma, label = w
            return _new(Sealed, (sigma, _new(MemCap, (
                Perm.RX, Lin.NORMAL, lo, hi, res.labels[label]))))
        sigma, b, e = w
        return _new(Sealed, (sigma, _new(MemCap, (Perm.RW, Lin.NORMAL,
                                                  b, e, b))))

    exported = {sym: word(w) for sym, w in (exports or {}).items()}
    data = dict(data or ())
    data.update({a: word(w) for a, w in data.items() if type(w) is tuple})
    return Component({lo - 1: 0, **res.segment, hi + 1: 0}, data,
                     tuple(imports), tuple(exported.items()),
                     ret, clos, linear,
                     tuple(map(exported.__getitem__, main)) if main else None)


def _zeros(lo: int, hi: int) -> dict:
    return dict.fromkeys(range(lo, hi + 1), 0)


def _trusted_main(text: str, sigma: int, data_hi: int, data=None, *,
                  exports=None, **kw) -> Component:
    """A trusted component at ``T_CODE`` whose main pair, sealed with
    ``sigma``, enters at ``entry`` over data ``T_DATA..data_hi`` (zeros
    unless ``data`` is given)."""
    main = {"main_code": (sigma, "entry"),
            "main_data": (sigma, T_DATA, data_hi)}
    return component(T_CODE, text,
                     _zeros(T_DATA, data_hi) if data is None else data,
                     exports={**main, **(exports or {})}, main=_MAIN, **kw)


def _ctx(text: str, data=None, **kw) -> Component:
    """A context at ``C_CODE`` owning closure seal 9, whose seal word
    ends its code."""
    return component(C_CODE, f"{text}\ncsealw: .seal 9 9 9", data,
                     clos={9}, **kw)


# ---------------------------------------------------------------------------
# Building blocks

def minimal_context() -> Component:
    """Just the mandatory seal word; no exports, no behaviour."""
    return _ctx("")


def context_cb(body: str) -> Component:
    """A context exporting one callback closure with body ``body``."""
    return _ctx(f"cb:\n{body}\n  xjmp rretcode rretdata", {C_DATA: 0},
                exports={"cb_code": (9, "cb"),
                         "cb_data": (9, C_DATA, C_DATA)})


def trusted_simple(body: str) -> Component:
    """A trusted main with no calls (clos seal only)."""
    return _trusted_main(f"entry:\n{body}\nsealw: .seal 2 2 2", 2, T_DATA,
                         clos={2})


_LOAD_CB = """\
  move r3 rdata
  load r1 r3
  cca r3 1
  load r2 r3"""

_CB_IMPORTS = ((T_DATA, "cb_code"), (T_DATA + 1, "cb_data"))


def trusted_one_call(pre: str = "", post: str = "") -> Component:
    """Trusted main: load the imported callback pair, call it, halt."""
    text = f"""\
entry:
{pre}{_LOAD_CB}
  call sealw 0 r1 r2
{post}  halt
sealw: .seal 1 2 1
"""
    return _trusted_main(text, 2, T_DATA + 1, ret={1}, clos={2},
                         imports=_CB_IMPORTS)


# ---------------------------------------------------------------------------
# Corpus entries

def _fx_halt():
    return trusted_simple("  halt"), minimal_context()


def _fx_arith():
    body = """\
  move r6 10
  move r0 0
  move r5 pc
  cca r5 @loop+1
loop:
  plus r0 r0 r6
  minus r6 r6 1
  jnz r5 r6
  minus r0 r0 55
  jnz r10 r0
  halt"""
    return trusted_simple(body), minimal_context()


def _fx_call_return():
    return trusted_one_call(), context_cb("  move r5 7")


def _fx_sequential_calls():
    text = f"""\
entry:
{_LOAD_CB}
  call sealw 0 r1 r2
  seta2b r3
  load r1 r3
  cca r3 1
  load r2 r3
  call sealw 1 r1 r2
  halt
sealw: .seal 1 3 1
"""
    t = _trusted_main(text, 3, T_DATA + 1, ret={1, 2}, clos={3},
                      imports=_CB_IMPORTS)
    return t, context_cb("  plus r6 r6 1")


def _fx_nested_mixed():
    # trusted main calls an untrusted callback; the callback calls back
    # into a second trusted closure with its own (raw) call sequence
    t_text = f"""\
entry:
{_LOAD_CB}
  call sealw 0 r1 r2
  halt
clo2:
  move r7 99
  xjmp rretcode rretdata
sealw: .seal 1 3 1
"""
    t = _trusted_main(t_text, 2, T_DATA + 1, _zeros(T_DATA, T_DATA + 2),
                      exports={"clo2_code": (3, "clo2"),
                               "clo2_data": (3, T_DATA + 2, T_DATA + 2)},
                      ret={1}, clos={2, 3}, imports=_CB_IMPORTS)
    c_text = """\
cb:
  move r8 rretcode
  move r9 rretdata
  move r5 rdata
  load r3 r5
  cca r5 1
  load r4 r5
  call csealw 0 r3 r4
  xjmp r8 r9"""
    c = _ctx(c_text, _zeros(C_DATA, C_DATA + 1),
             exports={"cb_code": (9, "cb"),
                      "cb_data": (9, C_DATA, C_DATA + 1)},
             imports=((C_DATA, "clo2_code"), (C_DATA + 1, "clo2_data")))
    return t, c


def _fx_stack_locals():
    pre = """\
  move r7 5
  store rstk r7
  cca rstk -1
"""
    post = """\
  cca rstk 1
  load r7 rstk
  minus r7 r7 5
  jnz r10 r7
"""
    return trusted_one_call(pre, post), context_cb("  move r5 1")


def _fx_data_passing():
    pre = "  move r0 5\n"
    post = """\
  minus r0 r0 15
  jnz r10 r0
"""
    body = """\
  plus r5 r0 r0
  plus r0 r5 r0"""
    return trusted_one_call(pre, post), context_cb(body)


def _fx_deep_trusted():
    # trusted main calls its own second closure, which calls the context
    text = f"""\
entry:
{_LOAD_CB}
  call sealw 0 r1 r2
  halt
clo2:
  move r8 rretcode
  move r9 rretdata
  move r3 rdata
  load r1 r3
  cca r3 1
  load r2 r3
  call sealw 1 r1 r2
  xjmp r8 r9
sealw: .seal 1 3 1
"""
    data = {T_DATA: (3, "clo2"), T_DATA + 1: (3, T_DATA + 2, T_DATA + 3),
            T_DATA + 2: 0, T_DATA + 3: 0}
    t = _trusted_main(text, 3, T_DATA + 1, data, ret={1, 2}, clos={3},
                      imports=((T_DATA + 2, "cb_code"),
                               (T_DATA + 3, "cb_data")))
    return t, context_cb("  plus r6 r6 1")


def _fx_stack_smash():
    # no trusted calls: the context mangles its stack freely; both
    # machines agree step for step
    t = component(T_CODE, "sealw: .seal 2 2 2", clos={2})
    text = """\
entry:
  move r7 7
  cca rstk -63
  move r6 16
  move r5 pc
  cca r5 @loop+1
loop:
  store rstk r7
  cca rstk 1
  minus r6 r6 1
  jnz r5 r6
  split r4 rstk rstk 1031
  splice rstk r4 rstk
  halt"""
    c = _ctx(text, {C_DATA: 0},
             exports={"main_code": (9, "entry"),
                      "main_data": (9, C_DATA, C_DATA)}, main=_MAIN)
    return t, c


def _fx_multi_seal():
    t_text = f"""\
cloA:
{_LOAD_CB}
  call sealw 0 r1 r2
  halt
cloB:
  fail
sealw: .seal 1 3 1
"""
    t = component(T_CODE, t_text, _zeros(T_DATA, T_DATA + 1),
                  ret={1}, clos={2, 3},
                  exports={"cloA_code": (2, "cloA"),
                           "cloA_data": (2, T_DATA, T_DATA + 1),
                           "cloB_code": (3, "cloB")},
                  imports=_CB_IMPORTS)
    c_text = """\
entry:
  move r5 rdata
  load r3 r5
  cca r5 1
  load r4 r5
  xjmp r3 r4
cb:
  plus r6 r6 1
  xjmp rretcode rretdata"""
    c = _ctx(c_text, _zeros(C_DATA, C_DATA + 2),
             exports={"main_code": (9, "entry"),
                      "main_data": (9, C_DATA, C_DATA + 1),
                      "cb_code": (9, "cb"),
                      "cb_data": (9, C_DATA + 2, C_DATA + 2)},
             main=_MAIN,
             imports=((C_DATA, "cloA_code"), (C_DATA + 1, "cloA_data")))
    return t, c


def _fx_spin():
    body = """\
  move r5 pc
  cca r5 @entry+1
  jmp r5"""
    return trusted_simple(body), minimal_context()


CORPUS = (
    ("halt", _fx_halt),
    ("arith-loop", _fx_arith),
    ("call-return", _fx_call_return),
    ("sequential-calls", _fx_sequential_calls),
    ("nested-mixed", _fx_nested_mixed),
    ("stack-locals", _fx_stack_locals),
    ("data-passing", _fx_data_passing),
    ("deep-trusted", _fx_deep_trusted),
    ("stack-smash", _fx_stack_smash),
    ("multi-seal", _fx_multi_seal),
    ("spin", _fx_spin),
)


def corpus():
    return [(name, *fn()) for name, fn in CORPUS]


# ---------------------------------------------------------------------------
# Attack scenarios

@dataclass
class ScenarioResult:
    name: str
    verdict: DiffVerdict
    expected: str       # "both-failed" | "disagreement"
    components: tuple   # the (trusted, context) pair that was run

    @property
    def as_expected(self) -> bool:
        s, t = self.verdict.source.outcome, self.verdict.target.outcome
        if self.expected == "both-failed":
            return s == "failed" and t == "failed"
        return s == "failed" and t == "halted" and not self.verdict.agreement


def _scenario(name, expected, t, c, check_stk_base=True) -> ScenarioResult:
    v = run_diff(t, c, STK_BASE, STK_END, fuel=1000,
                 check_stk_base=check_stk_base)
    return ScenarioResult(name, v, expected, (t, c))


def scenario_partial_stack_return() -> ScenarioResult:
    """The callee keeps the top of the stack and tries to return."""
    return _scenario("partial-stack-return", "both-failed",
                     trusted_one_call(),
                     context_cb("  split rstk r7 rstk 1050"))


def _second_stack_components(check_stk_base: bool):
    t_text = """\
entry:
  call sealw 0 r1 r2
  halt
sealw: .seal 1 2 1
"""
    t = component(T_CODE, t_text, {T_DATA: 0}, ret={1}, clos={2},
                  exports={"tmain_code": (2, "entry"),
                           "tmain_data": (2, T_DATA, T_DATA)},
                  check_stk_base=check_stk_base)

    fake_lo, fake_hi = C_DATA + 10, C_DATA + 68
    c_text = """\
entry:
  move r5 rdata
  load r3 r5
  cca r5 1
  load r4 r5
  cca r5 1
  load r1 r5
  cca r5 1
  load r2 r5
  cca r5 1
  load rstk r5
  xjmp r3 r4
cb:
  xjmp rretcode rretdata"""
    # the context keeps its own callback pair in data so the trusted
    # macro finds a sealed pair in r1/r2
    cb_data = (9, C_DATA + 69, C_DATA + 69)
    data = {C_DATA: 0, C_DATA + 1: 0, C_DATA + 2: (9, "cb"),
            C_DATA + 3: cb_data,
            C_DATA + 4: MemCap(Perm.RW, Lin.LINEAR, fake_lo, fake_hi, fake_hi),
            **_zeros(fake_lo, fake_hi), C_DATA + 69: 0}
    c = _ctx(c_text, data,
             exports={"cb_code": (9, "cb"), "cb_data": cb_data,
                      "main_code": (9, "entry"),
                      "main_data": (9, C_DATA, C_DATA + 4)},
             main=_MAIN,
             imports=((C_DATA, "tmain_code"), (C_DATA + 1, "tmain_data")),
             linear=range(fake_lo, fake_hi + 1))
    return t, c


def scenario_second_stack(check_stk_base: bool = True) -> ScenarioResult:
    """A context hands the trusted caller a private second stack.

    With the stack-base check in place both machines refuse; with the
    check compiled out the target completes the ill-bracketed return
    while the source still refuses — a visible disagreement.
    """
    name = "second-stack" if check_stk_base else "second-stack-nocheck"
    expected = "both-failed" if check_stk_base else "disagreement"
    return _scenario(name, expected,
                     *_second_stack_components(check_stk_base),
                     check_stk_base=check_stk_base)


def scenario_double_return() -> ScenarioResult:
    """A second closure replays the consumed return pair."""
    t_text = f"""\
entry:
{_LOAD_CB}
  cca r3 1
  load r5 r3
  cca r3 1
  load r6 r3
  call sealw 0 r1 r2
  xjmp r5 r6
  halt
sealw: .seal 1 2 1
"""
    t = _trusted_main(t_text, 2, T_DATA + 3, ret={1}, clos={2},
                      imports=_CB_IMPORTS + ((T_DATA + 2, "cb2_code"),
                                             (T_DATA + 3, "cb2_data")))
    c_text = """\
cb:
  xjmp rretcode rretdata
cb2:
  xjmp rretcode rretdata"""
    c = _ctx(c_text, _zeros(C_DATA, C_DATA + 1),
             exports={"cb_code": (9, "cb"),
                      "cb_data": (9, C_DATA, C_DATA),
                      "cb2_code": (9, "cb2"),
                      "cb2_data": (9, C_DATA + 1, C_DATA + 1)})
    return _scenario("double-return", "both-failed", t, c)


SCENARIOS = {
    "partial-stack-return": scenario_partial_stack_return,
    "second-stack": scenario_second_stack,
    "second-stack-nocheck": lambda: scenario_second_stack(False),
    "double-return": scenario_double_return,
}
