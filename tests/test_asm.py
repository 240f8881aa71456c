import math
import random

import pytest
from conftest import disassemble, trust_all
from hypothesis import example, given, settings, strategies as st

from capmach.asm import (
    CALL_LEN, RET_PT_OFFSET, AsmError, CallParams, HiddenCallViolation,
    _call_instrs, _fixed_parts, _parts_of, _window_params, _word_parts,
    assemble, call_cond,
    expand_scall, find_hidden_calls,
)
from capmach.core import (
    GlobalConstants, Lin, Memory, MemCap, Perm, Ranges, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, dec_instr, enc_instr, mk_instr,
    parse_word,
)


def enc_call(params, at=0, stk_base=1000, check=True):
    return {at + i: enc_instr(ins)
            for i, ins in enumerate(expand_scall(params, stk_base, check))}


def test_expansion_geometry():
    ins = expand_scall(CallParams(30, 2, "r3", "r4"), 1000)
    assert len(ins) == CALL_LEN == 26
    assert ins[6] == mk_instr("cca", "rtmp1", 25)     # off_pc - 5
    assert ins[8] == mk_instr("cca", "rtmp1", 2)      # off_sigma
    assert ins[14] == mk_instr("xjmp", "r3", "r4")
    assert ins[RET_PT_OFFSET] == mk_instr("getb", "rtmp1", "rstk")
    assert ins[16] == mk_instr("minus", "rtmp1", "rtmp1", 1000)
    assert ins[22] == mk_instr("fail")
    assert ins[24] == mk_instr("cca", "rstk", 1)
    ins = expand_scall(CallParams(30, 2, "r3", "r4"), 1000, check_stk_base=False)
    assert ins[16] == mk_instr("minus", "rtmp1", "rtmp1", "rtmp1")


def test_expand_rejects_bad_operands():
    with pytest.raises(ValueError):
        expand_scall(CallParams(0, 0, "rtmp1", "r4"), 0)
    with pytest.raises(ValueError):
        expand_scall(CallParams(0, 0, "r3", "pc"), 0)
    with pytest.raises(ValueError):
        expand_scall(CallParams(-1, 0, "r3", "r4"), 0)
    # any operand that is not a register is refused before encoding
    for r1, r2 in (("bogus", "r4"), ("r3", 5), ("r3", "5")):
        with pytest.raises(ValueError, match="is not a register"):
            expand_scall(CallParams(0, 0, r1, r2), 0)


def test_call_cond_roundtrip():
    p = CallParams(30, 2, "r3", "r4")
    mem = enc_call(p, at=7)
    assert call_cond(mem, 7, trust_all(1000)) == p
    assert call_cond(mem, 8, trust_all(1000)) is None    # misaligned
    assert call_cond(mem, 7, trust_all(999)) is None     # wrong stack base
    assert call_cond(mem, 7, trust_all(1000, False)) is None
    # every cell of the window must be trusted
    window = Ranges.span(7, 7 + CALL_LEN - 1)
    assert call_cond(mem, 7, GlobalConstants(window, 1000)) == p
    for a in window:
        assert call_cond(mem, 7, GlobalConstants(
            window - Ranges.span(a, a), 1000)) is None, a
    mem_nc = enc_call(p, at=7, check=False)
    assert call_cond(mem_nc, 7, trust_all(1000, False)) == p
    assert call_cond(mem_nc, 7, trust_all(1000)) is None
    # every integer that is not an instruction image decodes to fail, so
    # the fail cell (index 22) may hold any of them
    for junk in (-1, enc_instr(mk_instr("fail")) + 23 * 5):
        assert dec_instr(junk).op == "fail"
        assert call_cond({**mem, 7 + 22: junk}, 7, trust_all(1000)) == p
    mem[20] = SealCap(0, 9, 0)                   # non-integer cell
    assert call_cond(mem, 7, trust_all(1000)) is None


def test_call_cond_over_a_memory_and_a_dict():
    # a Memory and the plain dict of the cells it reads give the same
    # verdict: a complete window, then each cell unwritten in the domain
    # (it reads 0) and outside the domain (it reads nothing)
    p = CallParams(30, 2, "r3", "r4")
    cells = enc_call(p, at=7)
    window, gc = Ranges.span(0, 40), trust_all(1000)
    assert call_cond(Memory(cells, window), 7, gc) == p
    for a in range(7, 7 + CALL_LEN):
        rest = {x: w for x, w in cells.items() if x != a}
        unwritten = Memory(rest, window)
        assert call_cond(unwritten, 7, gc) == \
            call_cond({**rest, a: 0}, 7, gc), a
        outside = Memory(rest, window - Ranges.span(a, a))
        assert call_cond(outside, 7, gc) is None
        assert call_cond(rest, 7, gc) is None
    # 0 is fail's image: only the fail cell (part 22) may read it
    assert call_cond(Memory({x: w for x, w in cells.items() if x != 29},
                            window), 7, gc) == p


def test_call_cond_perturbation():
    p = CallParams(12, 0, "r0", "r1")
    base = enc_call(p, stk_base=77)
    assert call_cond(base, 0, trust_all(77)) == p
    for i in range(CALL_LEN):
        mem = dict(base)
        mem[i] = mem[i] + 1
        assert call_cond(mem, 0, trust_all(77)) is None, f"cell {i} perturbation missed"


def _reference_call_cond(mem, a, stk_base, check_stk_base):
    """The window is a call when, decoded, it equals the expansion of the
    parameters read from parts 6, 8 and 14."""
    cells = [mem.get(a + j) for j in range(CALL_LEN)]
    if not all(isinstance(w, int) for w in cells):
        return None
    ins = [dec_instr(w) for w in cells]
    i6, i8, i14 = ins[6], ins[8], ins[14]
    if not (i6.op == i8.op == "cca" and i6.args[0] == i8.args[0] == "rtmp1"
            and isinstance(i6.args[1], int) and isinstance(i8.args[1], int)
            and i14.op == "xjmp"):
        return None
    p = CallParams(i6.args[1] + 5, i8.args[1], *i14.args)
    if p.off_pc < 0 or p.off_sigma < 0:
        return None
    expect = _call_instrs(p.off_pc, p.off_sigma, p.r1, p.r2, stk_base,
                          check_stk_base)
    return p if ins == expect else None


_params = st.builds(CallParams, st.integers(0, 40), st.integers(0, 4),
                    *[st.sampled_from(("r0", "r3", "rtmp1", "pc"))] * 2)
# integers that decode to fail but are not its image, and images that
# bind a parameter out of range or stand at no part
_STRAY = (-1, 10 ** 15, enc_instr(mk_instr("fail")) + 23 * 5,
          enc_instr(mk_instr("cca", "rtmp1", -6)),
          enc_instr(mk_instr("cca", "rtmp1", -1)),
          enc_instr(mk_instr("halt")), SealCap(0, 9, 0))


def _raw_call(p, check):
    # rtmp1 and pc operands too: recognition does not reject them
    return [enc_instr(i) for i in _call_instrs(
        p.off_pc, p.off_sigma, p.r1, p.r2, 1000, check)]


@st.composite
def _call_windows(draw):
    """An encoded expansion with one or two cells swapped for a cell of
    another expansion (at the same part or another), or a stray word."""
    cells = _raw_call(draw(_params), draw(st.booleans()))
    for j in draw(st.lists(st.integers(0, CALL_LEN - 1), max_size=2)):
        kind = draw(st.sampled_from(("same part", "other part", "stray")))
        if kind == "stray":
            cells[j] = draw(st.sampled_from(_STRAY))
            continue
        other = _raw_call(draw(_params), draw(st.booleans()))
        k = j if kind == "same part" else draw(st.integers(0, CALL_LEN - 1))
        cells[j] = other[k]
    return dict(enumerate(cells))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_call_windows(), st.booleans())
def test_call_cond_against_reference(mem, check):
    assert call_cond(mem, 0, trust_all(1000, check)) == \
        _reference_call_cond(mem, 0, 1000, check)


def _agrees(mem, a, stk_base=1000, check=True):
    """``call_cond`` under global constants that trust every address,
    which agrees with the reference; its verdict."""
    got = call_cond(mem, a, trust_all(stk_base, check))
    assert got == _reference_call_cond(mem, a, stk_base, check), (a, got)
    return got


# The window memo is keyed by the window's words and the stack base and
# check, never by the address or the memory: each test below asks again
# after the memo holds the window's entry.

def test_window_memo_sees_a_cell_written_in_place():
    p = CallParams(30, 2, "r3", "r4")
    mem = Memory(enc_call(p, at=7), Ranges.span(0, 40))
    assert _agrees(mem, 7) == _agrees(mem, 7) == p
    hits = _window_params.cache_info().hits
    assert _agrees(mem, 7) == p and _window_params.cache_info().hits > hits
    # as a run writes a store, into the memory's own dict
    mem.written[7 + 6] = enc_instr(mk_instr("cca", "rtmp1", 9))
    assert _agrees(mem, 7) == CallParams(14, 2, "r3", "r4")
    mem.written[7 + 9] = enc_instr(mk_instr("halt"))
    assert _agrees(mem, 7) is None
    mem.written[7 + 9] = enc_call(p)[9]
    assert _agrees(mem, 7) == CallParams(14, 2, "r3", "r4")


def test_window_memo_reads_unwritten_cells_by_the_domain():
    p = CallParams(30, 2, "r3", "r4")
    cells = enc_call(p, at=7)
    for j in (22, 5):   # 0, fail's image, stands at part 22 alone
        rest = {a: w for a, w in cells.items() if a != 7 + j}
        inside = Memory(rest, Ranges.span(0, 40))
        outside = Memory(rest, Ranges.span(0, 40) - Ranges.span(7 + j, 7 + j))
        # the same words, one unwritten cell: 0 inside the domain,
        # nothing outside it
        for _ in range(2):
            assert _agrees(inside, 7) == (p if j == 22 else None)
            assert _agrees(outside, 7) is None


def test_window_memo_keeps_the_trust_test():
    p = CallParams(30, 2, "r3", "r4")
    for at in (7, 107):
        mem = enc_call(p, at=at)
        window = Ranges.span(at, at + CALL_LEN - 1)
        assert call_cond(mem, at, GlobalConstants(window, 1000)) == \
            _reference_call_cond(mem, at, 1000, True) == p
        # the same words, where the trusted addresses end a cell early
        # or start past the window
        for ta in (window - Ranges.span(at + 25, at + 25),
                   Ranges.span(at + CALL_LEN, 500)):
            assert call_cond(mem, at, GlobalConstants(ta, 1000)) is None


def test_window_memo_keys_the_stack_base_and_check():
    p = CallParams(30, 2, "r3", "r4")
    for stk_base in (1000, 77):
        for check in (True, False):
            mem = enc_call(p, stk_base=stk_base, check=check)
            for _ in range(2):
                assert _agrees(mem, 0, stk_base, check) == p
                # the other check, and the other base (a base only the
                # check names: without it both read the same words)
                assert _agrees(mem, 0, stk_base, not check) is None
                assert _agrees(mem, 0, 1077 - stk_base, check) == \
                    (None if check else p)


def test_word_parts_match_decoded_parts():
    # the parts table keyed by the word agrees with the one keyed by the
    # decoded instruction: every cell of the expansion under both
    # stack-base variants, and random ints and capabilities
    rng = random.Random(7)
    words = [w for check in (True, False)
             for w in _raw_call(CallParams(12, 3, "r3", "r4"), check)]
    for _ in range(500):
        p = CallParams(rng.randint(-3, 40), rng.randint(-3, 4),
                       *rng.sample(("r0", "r3", "rtmp1", "pc"), 2))
        words.append(rng.choice(_raw_call(p, rng.random() < 0.5)))
        words.append(rng.choice((rng.randint(-5, 10 ** 6),
                                 rng.randint(0, 10 ** 18))))
    words += [MemCap(Perm.RX, Lin.NORMAL, 0, 9, 3), SealCap(0, 9, 0),
              StkPtr(Perm.RW, 0, 9, 9), Sealed(2, SealCap(1, 2, 1)),
              RetPtrData(3, 9), RetPtrCode(0, 9, 4)]
    for check in (True, False):
        fixed = _fixed_parts(1000, check)
        for w in words:
            assert _word_parts(1000, check)(w) == \
                tuple(_parts_of(dec_instr(w), fixed)), (w, check)


def test_find_hidden_calls():
    p = CallParams(30, 0, "r3", "r4")
    complete = enc_call(p, at=100)
    complete[100 + 30] = SealCap(0, 9, 0)
    assert find_hidden_calls(complete, 1000) == []

    # a truncated prefix: every matching part overhangs the segment
    frag = {a: w for a, w in enc_call(p, at=200).items() if a < 210}
    vs = find_hidden_calls(frag, 1000)
    assert vs and all(isinstance(v, HiddenCallViolation) for v in vs)
    assert any(v.start == 200 for v in vs)

    # an inner cell contradicting the window suppresses the report
    broken = dict(frag)
    broken[205] = enc_instr(mk_instr("halt"))
    starts = {v.start for v in find_hidden_calls(broken, 1000)}
    assert 200 not in starts

    # unrelated code is clean
    plain = {i: enc_instr(mk_instr("plus", "r0", "r0", 1)) for i in range(40)}
    assert find_hidden_calls(plain, 1000) == []


def _reference_hidden_calls(code, stk_base, check_stk_base):
    """The per-(cell, part) walk: each cell that can stand at part ``i``
    tests the window starting ``i`` cells before it."""
    fixed = _fixed_parts(stk_base, check_stk_base)
    parts = {a: _parts_of(dec_instr(w), fixed) if isinstance(w, int) else []
             for a, w in code.items()}
    violations = []
    for addr in sorted(code):
        for i in parts[addr]:
            start = addr - i
            full = True
            for j in range(CALL_LEN):
                p = parts.get(start + j)
                if p is None:
                    full = False
                elif j not in p:
                    break
            else:
                if not full:
                    violations.append(HiddenCallViolation(start, i, addr))
    return violations


_FILLER = enc_instr(mk_instr("plus", "r0", "r0", 1))


@st.composite
def _code_segments(draw):
    """One to three blocks, each a call expansion of either stack-base
    variant cut to ``lo..hi`` (a prefix, a suffix, both or neither),
    with up to two stray words, maybe a one-cell gap, and filler; the
    next block may overlap this one's window or sit past a gap."""
    seg = {}
    at = draw(st.integers(-CALL_LEN, CALL_LEN))
    for _ in range(draw(st.integers(1, 3))):
        cells = _raw_call(draw(_params), draw(st.booleans()))
        for j in draw(st.lists(st.integers(0, CALL_LEN - 1), max_size=2)):
            cells[j] = draw(st.sampled_from(_STRAY))
        lo = draw(st.integers(0, CALL_LEN - 1))
        hi = draw(st.integers(lo, CALL_LEN - 1))
        seg.update((at + j, cells[j]) for j in range(lo, hi + 1))
        if draw(st.booleans()):
            seg.pop(at + draw(st.integers(lo, hi)))
        at += hi + 1
        for _ in range(draw(st.integers(0, 3))):
            seg[at] = _FILLER
            at += 1
        at += draw(st.integers(-CALL_LEN, CALL_LEN))
    return seg


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_code_segments(), st.booleans())
# one cell at parts 6 and 8: two windows, reported by part
@example({50: enc_instr(mk_instr("cca", "rtmp1", 5))}, True)
def test_find_hidden_calls_against_reference(code, check):
    assert find_hidden_calls(code, 1000, check) == \
        _reference_hidden_calls(code, 1000, check)


def test_find_hidden_calls_overhang():
    # a lone xjmp one cell from the segment edge could be part 14 of a
    # call whose tail lies outside the segment
    seg = {50: enc_instr(mk_instr("xjmp", "r3", "r4"))}
    vs = find_hidden_calls(seg, 1000)
    assert any(v.index == 14 and v.addr == 50 for v in vs)


WORDS = [
    0,
    -17,
    MemCap(Perm.RWX, Lin.NORMAL, 0, 10, 3),
    MemCap(Perm.RW, Lin.LINEAR, 5, math.inf, 5),
    SealCap(2, 9, 4),
    StkPtr(Perm.RW, 1000, 1010, 1005),
    RetPtrCode(0, 99, 36),
    RetPtrData(1005, 1010),
    Sealed(3, MemCap(Perm.RX, Lin.NORMAL, 0, 9, 0)),
    Sealed(3, RetPtrData(1, 2)),
]


def test_word_literals_roundtrip():
    for w in WORDS:
        assert parse_word(repr(w)) == w
    assert parse_word("42") == 42
    with pytest.raises(ValueError):
        parse_word("sealed(1,5)")
    with pytest.raises(ValueError):
        parse_word("bogus(1,2)")
    # an int is ASCII digits with an optional minus, bare or in a field
    for bad in ("+5", "1_000", "--5", "\u0663", "seal(+1,1_000, 2)",
                "seal(1,1000, 2)", "seal(1,+2,1)", "sealed(+1,seal(1,2,3))",
                "cap(rw,normal,1,2,1_0)", "retptrdata(0, inf)"):
        with pytest.raises(ValueError):
            parse_word(bad)
    assert parse_word(" -5 ") == -5


_ADDR = st.integers(-5, 2 ** 40)
_BOUND = st.one_of(_ADDR, st.just(math.inf))
_PERM = st.sampled_from(list(Perm))
_SEALABLE = st.one_of(
    st.builds(MemCap, _PERM, st.sampled_from(list(Lin)), _ADDR, _BOUND, _ADDR),
    st.builds(SealCap, _ADDR, _BOUND, _ADDR),
    st.builds(StkPtr, _PERM, _ADDR, _BOUND, _ADDR),
    st.builds(RetPtrCode, _ADDR, _BOUND, _ADDR),
    st.builds(RetPtrData, _ADDR, _BOUND))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.integers(), _SEALABLE,
                 st.builds(Sealed, st.integers(), _SEALABLE)))
def test_word_literals_roundtrip_every_kind(w):
    # every word kind, bare and sealed under any seal id, with negative
    # ints and inf ends: a word's repr is its literal
    assert parse_word(repr(w)) == w


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.integers(), _SEALABLE,
                 st.builds(Sealed, st.integers(), _SEALABLE)))
def test_word_memo_matches_a_fresh_parse(w):
    # the memo hands out the word a fresh parse builds, of the same type
    text = repr(w)
    memo, fresh = parse_word(text), parse_word.__wrapped__(text)
    assert memo == fresh and type(memo) is type(fresh) is type(w)
    assert parse_word(text) is memo


def test_assemble_basics():
    r = assemble("""
    .org 10
    start: move r0 5
    loop: minus r0 r0 1
    jnz r1 r0          ; falls through at zero
    halt
    .word cap(rw,normal,0,9,0)
    .seal 3 9 3
    """)
    assert r.labels == {"start": 10, "loop": 11}
    assert dec_instr(r.segment[10]) == mk_instr("move", "r0", 5)
    assert dec_instr(r.segment[13]) == mk_instr("halt")
    assert r.segment[14] == MemCap(Perm.RW, Lin.NORMAL, 0, 9, 0)
    assert r.segment[15] == SealCap(3, 9, 3)
    # components are built by fixtures.component, not by directives
    for line in (".export entry = start", ".import other @20"):
        with pytest.raises(AsmError, match="unknown instruction"):
            assemble(f".org 10\nstart: halt\n{line}\n")


def test_assemble_labels_as_operands():
    r = assemble("""
    .org 0
    jmp r0
    target: halt
    move r2 target      ; absolute: 1
    move r3 @target     ; relative to this cell: 1 - 3
    move r4 target+3
    """)
    assert dec_instr(r.segment[2]) == mk_instr("move", "r2", 1)
    assert dec_instr(r.segment[3]) == mk_instr("move", "r3", -2)
    assert dec_instr(r.segment[4]) == mk_instr("move", "r4", 4)


def test_assemble_call_macro():
    r = assemble("""
    .org 100
    call sealw 0 r3 r4
    halt
    sealw: .seal 5 9 5
    """, stk_base=1000)
    assert call_cond(r.segment, 100, trust_all(1000)) == CallParams(27, 0, "r3", "r4")
    assert r.labels["sealw"] == 127
    assert dec_instr(r.segment[126]) == mk_instr("halt")


_ASM_ERRORS = [
    ("move r0 nolabel", "line 1: unresolved label 'nolabel'"),
    ("x: halt\nx: halt", "line 2: duplicate label 'x'"),
    (".org 0\nhalt\n.org 0\nhalt", "line 4: address 0 assembled twice"),
    ("frob r0", "line 1: unknown instruction 'frob'"),
    ("s: .seal 0 9 0\ncall s 0 r1 r2",
     "line 2: call seal must sit at or after the macro"),
    ("cca r1 @x+", "line 1: bad int '@x+'"),
    (".seal 1 x 1", "line 1: bad int 'x'"),
    (".seal 1 1", "line 1: .seal needs base end cur"),
    (".word", "line 1: bad word literal: ''"),
    ("halt\n.org", "line 2: .org needs addr"),
    ("call s 99999999999 r1 r2\ns: .seal 1 1 1",
     "line 1: immediate 99999999999 out of range"),
    ("call s 0 bogus r2\ns: .seal 1 1 1",
     "line 1: call: 'bogus' is not a register"),
    ("call s 0 r1 5\ns: .seal 1 1 1", "line 1: call: '5' is not a register"),
    ("call s 0 r1\ns: .seal 1 1 1", "line 1: call needs seal off_sigma r1 r2"),
    # an int is digits with an optional minus, wherever one is read
    ("move r0 1_000", "line 1: bad int '1_000'"),
    ("move r0 +5", "line 1: bad int '+5'"),
    ("halt\n.org +5", "line 2: bad int '+5'"),
    (".seal 1 1_0 1", "line 1: bad int '1_0'"),
    (".word seal(+1,1,1)", "line 1: bad word literal: 'seal(+1,1,1)'"),
    ("x: move r0 x+\u0663", "line 1: bad int 'x+\u0663'"),
    # the image memos key no line: each error keeps its own
    ("jmp 5", "line 1: jmp: 5 is not a register"),
    ("halt\njmp 5", "line 2: jmp: 5 is not a register"),
    ("s: call s 0 rtmp1 r2", "line 1: call operands may not be rtmp1 or pc"),
    ("halt\ns: call s 0 rtmp1 r2",
     "line 2: call operands may not be rtmp1 or pc"),
]


def test_assemble_errors():
    # every error names its line once, whichever pass finds it, and at
    # every assembly: the memos store no error
    for src, message in _ASM_ERRORS * 2:
        with pytest.raises(AsmError) as e:
            assemble(src, stk_base=1000)
        assert str(e.value) == message, src


def test_disassemble_roundtrip():
    src = """
    .org 5
    move r0 7
    lt r1 r0 9
    halt
    .org 20
    .word seal(1,4,2)
    """
    seg = assemble(src).segment
    again = assemble(disassemble(seg)).segment
    assert again == seg


def test_disassemble_folds_calls():
    r = assemble("""
    .org 0
    call 30 1 r5 r6
    halt
    """, stk_base=1000)
    text = disassemble(r.segment, stk_base=1000)
    assert "call 30 1 r5 r6" in text
    assert text.count("\n") == 3  # .org, call, halt
    raw = disassemble(r.segment)  # without folding: 27 instruction lines
    assert "xjmp r5 r6" in raw
    assert assemble(raw, stk_base=1000).segment == r.segment


def test_disassemble_noncanonical_int():
    # decodes as fail but is not the canonical fail image: keep the raw word
    seg = {0: 10**15}
    text = disassemble(seg)
    assert ".word 1000000000000000" in text
    assert assemble(text).segment == seg
