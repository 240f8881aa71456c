import gc
import re

import pytest
from conftest import ex, tcfg, with_cell
from hypothesis import given, settings, strategies as st

from capmach.core import (
    EXEC_PERMS, FAIL, INF, READ_PERMS, REGISTERS, WRITE_PERMS, Instr, Lin,
    Memory, MemCap, Perm, Ranges, RetPtrCode, RetPtrData, SealCap, Sealed,
    StkPtr, TYPE_INT, TYPE_MEMCAP, TYPE_SEAL, TYPE_SEALED,
    dec_instr, dec_perm, enc_instr, enc_lin, enc_perm, enc_type, is_linear,
    lin_cons, linear_range, mk_instr, non_exec, perm_leq, OPCODES,
    IMM_RANGE, LITERALS, EncodingError, parse_word,
)
from capmach.machine import FAILED, NULL_EXTENSION
from capmach.source import SOURCE_EXTENSION, SourceConfig, StackFrame

PERMS = list(Perm)


def test_perm_leq_examples():
    assert perm_leq(Perm.R, Perm.RWX)
    assert perm_leq(Perm.RWX, Perm.RWX)
    assert not perm_leq(Perm.RW, Perm.RX)
    assert not perm_leq(Perm.RX, Perm.RW)


def test_perm_leq_partial_order():
    for p in PERMS:
        assert perm_leq(p, p)
        assert perm_leq(Perm.P0, p)
        assert perm_leq(p, Perm.RWX)
    for p in PERMS:
        for q in PERMS:
            if perm_leq(p, q) and perm_leq(q, p):
                assert p == q
            for r in PERMS:
                if perm_leq(p, q) and perm_leq(q, r):
                    assert perm_leq(p, r)


def test_allowed_sets():
    assert Perm.R in READ_PERMS
    assert Perm.P0 not in READ_PERMS
    assert Perm.RX not in WRITE_PERMS
    assert Perm.RW in WRITE_PERMS
    # the sets the machine tests: what each permission's letters grant
    for perms, letter in ((READ_PERMS, "r"), (WRITE_PERMS, "w"),
                          (EXEC_PERMS, "x")):
        assert type(perms) is tuple
        assert set(perms) == {p for p in PERMS if letter in p.value}
    # upward closure
    for p in PERMS:
        for q in PERMS:
            if perm_leq(p, q):
                if p in WRITE_PERMS:
                    assert q in WRITE_PERMS
                if p in READ_PERMS:
                    assert q in READ_PERMS


def test_non_exec_shapes():
    assert not non_exec(MemCap(Perm.RX, Lin.NORMAL, 0, 9, 0))
    assert not non_exec(MemCap(Perm.RWX, Lin.LINEAR, 0, 9, 0))
    assert non_exec(MemCap(Perm.RW, Lin.NORMAL, 0, 9, 0))
    assert non_exec(StkPtr(Perm.RWX, 0, 9, 0))
    assert non_exec(RetPtrCode(0, 9, 4))
    assert non_exec(7)


def test_is_linear():
    assert not is_linear(7)
    assert is_linear(StkPtr(Perm.RW, 0, 9, 3))
    assert is_linear(RetPtrData(0, 9))
    assert not is_linear(RetPtrCode(0, 9, 4))
    assert not is_linear(Sealed(5, RetPtrCode(0, 9, 4)))
    assert is_linear(Sealed(5, MemCap(Perm.RW, Lin.LINEAR, 0, 5, 0)))
    assert not is_linear(SealCap(0, 5, 0))
    # every record kind of LITERALS, bare and under one and two seals,
    # against the paper's verdict written out: a linear memory
    # capability, a stack pointer and a return-data token own their
    # base..end, a seal owns what it seals, and nothing else owns
    owns = {
        "cap(rw,linear,3,8,4)": (3, 8),
        "cap(rx,linear,0,inf,0)": (0, INF),
        "cap(rwx,normal,3,8,4)": None,
        "seal(3,8,4)": None,
        "stkptr(rw,100,199,150)": (100, 199),
        "stkptr(r,7,6,7)": (7, 6),
        "retptrcode(3,8,4)": None,
        "retptrdata(150,199)": (150, 199),
        "sealed(5,cap(r,linear,10,12,10))": (10, 12),
        "sealed(5,cap(rw,normal,10,12,10))": None,
        "sealed(5,seal(1,2,1))": None,
        "sealed(5,stkptr(rw,1,2,1))": (1, 2),
        "sealed(5,retptrcode(1,2,1))": None,
        "sealed(5,retptrdata(1,2))": (1, 2),
    }
    assert {text.partition("(")[0] for text in owns} == set(LITERALS)
    for text, want in owns.items():
        w = parse_word(text)
        for v in (w, Sealed(7, w), Sealed(9, Sealed(7, w))):
            assert linear_range(v) == want, v
            assert is_linear(v) is (want is not None), v
            assert lin_cons(v) is (v if want is None else 0), v


def test_lin_cons():
    assert lin_cons(42) == 42
    assert lin_cons(MemCap(Perm.RW, Lin.LINEAR, 0, 5, 0)) == 0
    norm = MemCap(Perm.RW, Lin.NORMAL, 0, 5, 0)
    assert lin_cons(norm) is norm
    # every kind of word, bare and under one or two seals: told in place
    # or through linear_range, the verdict is linear_range's
    bare = [0, 7, norm, norm._replace(lin=Lin.LINEAR),
            StkPtr(Perm.RW, 0, 9, 3), RetPtrData(0, 9),
            RetPtrCode(0, 9, 4), SealCap(0, 5, 0)]
    for w in bare + [Sealed(2, v) for v in bare] + \
            [Sealed(3, Sealed(2, v)) for v in bare]:
        assert lin_cons(w) is (w if linear_range(w) is None else 0), w


def test_lin_cons_perm():
    # the paper's linConsPerm premise, as the load applies it: a linear
    # word loads only through a pointer that may write its cell empty
    def load(perm, w, ext=SOURCE_EXTENSION):
        cfg = tcfg({5: w}, pc=MemCap(Perm.RX, Lin.NORMAL, 0, 0, 0),
                   r2=MemCap(perm, Lin.NORMAL, 5, 5, 5))
        return ex(cfg, "load", "r1", "r2", ext=ext)

    assert load(Perm.R, 3).cfg.reg["r1"] == 3
    assert load(Perm.R, MemCap(Perm.RW, Lin.LINEAR, 0, 1, 0)) is FAILED
    assert load(Perm.RX, Sealed(2, RetPtrData(0, 1))) is FAILED
    out = load(Perm.RW, StkPtr(Perm.RW, 0, 1, 0), NULL_EXTENSION)
    assert out.cfg.reg["r1"] == StkPtr(Perm.RW, 0, 1, 0)
    assert out.cfg.mem[5] == 0


def test_within_bounds():
    # cseal seals only with a seal capability whose cursor lies within
    # its bounds: not above, not below
    pc = MemCap(Perm.RX, Lin.NORMAL, 0, 9, 0)
    c = MemCap(Perm.RW, Lin.NORMAL, 0, 5, 0)

    def sealed(seal):
        out = ex(tcfg(pc=pc, r1=c, r2=seal), "cseal", "r1", "r2")
        return None if out is FAILED else out.cfg.reg["r1"]

    assert sealed(SealCap(2, 8, 2)) == Sealed(2, c)
    assert sealed(SealCap(3, 3, 3)) == Sealed(3, c)
    assert sealed(SealCap(0, INF, 10 ** 12)) == Sealed(10 ** 12, c)
    for seal in (SealCap(0, 9, 10), SealCap(3, 3, 4), SealCap(5, 9, 4),
                 RetPtrData(0, 5), MemCap(Perm.RW, Lin.NORMAL, 2, 8, 2)):
        assert sealed(seal) is None, seal


def test_records():
    cap = MemCap(Perm.RW, Lin.NORMAL, 1, 9, 3)
    # type-strict equality, whichever side is on the left
    assert RetPtrCode(1, 2, 3) != SealCap(1, 2, 3)
    assert not RetPtrCode(1, 2, 3) == SealCap(1, 2, 3)
    assert SealCap(1, 2, 3) != RetPtrCode(1, 2, 3)
    fields = (Perm.RW, Lin.NORMAL, 1, 9, 3)
    assert cap != fields and fields != cap
    assert not (cap == fields or fields == cap)
    assert Sealed(5, cap) != Sealed(5, StkPtr(Perm.RW, 1, 9, 3))
    assert cap != 0 and 0 != cap
    # equal words are equal and hash equally
    twin = MemCap(Perm.RW, Lin.NORMAL, 1, 9, 3)
    assert cap == twin and not cap != twin and hash(cap) == hash(twin)
    assert hash(Sealed(5, cap)) == hash(Sealed(5, twin))
    assert len({cap, twin, Sealed(5, cap), Sealed(5, twin)}) == 2
    # field names, reprs and constructors are kept
    assert (cap.perm, cap.lin, cap.base, cap.end, cap.addr) == fields
    assert repr(Sealed(5, cap)) == "sealed(5,cap(rw,normal,1,9,3))"
    assert repr(RetPtrData(4, 6)) == "retptrdata(4,6)"
    assert StkPtr(perm=Perm.RW, base=1, end=INF, addr=2).end == INF
    # immutable: no field can be assigned and no attribute added
    cfg = SourceConfig(Memory(), {})
    assert cfg.stk == () and cfg.ms_stk == Memory()
    frame = StackFrame(3, Memory())
    for rec in (cap, SealCap(1, 2, 3), StkPtr(Perm.RW, 1, 9, 3),
                RetPtrData(4, 6), RetPtrCode(1, 2, 3), Sealed(5, cap), cfg,
                frame):
        for attr in (*rec._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, attr, 0)


def test_perm_encoding():
    for p in PERMS:
        assert dec_perm(enc_perm(p)) is p
        assert enc_perm(p) != -1
    assert dec_perm(-17) is Perm.P0
    assert dec_perm(99) is Perm.P0


def test_lin_encoding():
    assert enc_lin(Lin.NORMAL) != enc_lin(Lin.LINEAR)
    assert enc_lin(Lin.NORMAL) != -1


def test_type_codes():
    assert enc_type(5) == TYPE_INT
    assert enc_type(MemCap(Perm.R, Lin.NORMAL, 0, 1, 0)) == TYPE_MEMCAP
    assert enc_type(StkPtr(Perm.RW, 0, 1, 0)) == TYPE_MEMCAP
    assert enc_type(RetPtrCode(0, 1, 0)) == TYPE_MEMCAP
    assert enc_type(SealCap(0, 1, 0)) == TYPE_SEAL
    assert enc_type(Sealed(3, SealCap(0, 1, 0))) == TYPE_SEALED
    assert len({TYPE_INT, TYPE_MEMCAP, TYPE_SEAL, TYPE_SEALED}) == 4


regs = st.sampled_from(REGISTERS)
imms = st.integers(min_value=-IMM_RANGE, max_value=IMM_RANGE - 1)


@st.composite
def instrs(draw):
    op = draw(st.sampled_from(sorted(OPCODES)))
    args = tuple(draw(regs) if k != "n" else draw(st.one_of(regs, imms))
                 for k in OPCODES[op])
    return Instr(op, args)


@settings(derandomize=True, deadline=None)
@given(instrs())
def test_instr_roundtrip(i):
    assert dec_instr(enc_instr(i)) == i


def test_instr_decode_examples():
    i = mk_instr("move", "r3", -7)
    assert dec_instr(enc_instr(i)) == i
    assert dec_instr(SealCap(0, 5, 0)) == FAIL
    assert dec_instr(MemCap(Perm.RWX, Lin.LINEAR, 0, 5, 0)) == FAIL
    assert dec_instr(-3) == FAIL


def test_instr_encode_errors():
    with pytest.raises(EncodingError):
        enc_instr(Instr("move", ("r1", 2 ** 40)))
    with pytest.raises(EncodingError):
        mk_instr("store", "r1", 5)   # second operand must be a register
    with pytest.raises(EncodingError):
        mk_instr("nosuch")
    # an "n" operand that is neither a register nor an int
    with pytest.raises(EncodingError,
                       match=r"^move: '5' is not a register or immediate$"):
        mk_instr("move", "r1", "5")
    # an instruction whose operands do not fit its opcode's signature,
    # or whose opcode is unknown
    for bad in (Instr("move", ("r1",)), Instr("nosuch")):
        with pytest.raises(EncodingError, match="^malformed instruction "
                           + re.escape(repr(bad)) + "$"):
            enc_instr(bad)


def test_type_code_of_a_non_word():
    for bad in (None, "r1", 1.5, (1, 2)):
        with pytest.raises(TypeError,
                           match="^not a word: " + re.escape(repr(bad)) + "$"):
            enc_type(bad)


# ---------------------------------------------------------------------------
# Ranges, against a Python set as the model

RUNS = st.lists(st.tuples(st.integers(-20, 60), st.integers(-20, 60)),
                max_size=6)


def _ints(runs) -> set:
    return {a for lo, hi in runs for a in range(lo, hi + 1)}


@settings(derandomize=True, deadline=None)
@given(RUNS, RUNS, st.sets(st.integers(-25, 65), max_size=12))
def test_ranges_model(runs, other_runs, ints):
    r, o = Ranges(runs), Ranges(other_runs)
    model, other = _ints(runs), _ints(other_runs)
    assert list(r) == sorted(model) and len(r) == len(model)
    assert bool(r) == bool(model)
    for a in range(-25, 66):
        assert (a in r) == (a in model)
    for lo, hi in other_runs:
        assert r.covers(lo, hi) == (set(range(lo, hi + 1)) <= model)
        assert r.meets(lo, hi) == bool(set(range(lo, hi + 1)) & model)
    assert not r.covers(0, INF)
    for got, want in ((r & o, model & other), (r | o, model | other),
                      (r - o, model - other)):
        assert got == Ranges.of(want) and list(got) == sorted(want)
    assert r.isdisjoint(o) == model.isdisjoint(other)
    assert Ranges.of(ints) == Ranges((a, a) for a in ints)
    assert hash(Ranges.of(model)) == hash(Ranges(runs))
    assert list(Ranges.of(ints)) == sorted(ints)
    # runs are maximal: no two touch, so equal sets are equal Ranges
    assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(r.runs, r.runs[1:]))
    assert Ranges.parse(str(r)) == r


def test_ranges_text():
    r = Ranges([(4, 6), (1, 1), (-3, -2), (7, 7)])
    assert str(r) == "-3..-2,1,4..7" and str(Ranges()) == ""
    assert repr(r) == "Ranges.parse('-3..-2,1,4..7')"
    assert Ranges.parse(" 1, ,4..6,5..2") == Ranges([(1, 1), (4, 6)])
    for bad in ("1..2..3", ".", "1..", "x", "1.5", "+1", "1_0", "1..+2",
                "1 ..2"):
        with pytest.raises(ValueError) as e:
            Ranges.parse(f"0,{bad}")
        assert str(e.value) == f"bad run {bad!r}"


# ---------------------------------------------------------------------------
# Memory, against a plain dict that holds the zeros as the model

ADDRS = st.integers(0, 40)
WORDS = st.one_of(st.integers(-3, 3), st.just(SealCap(0, 5, 0)))
SPANS = st.tuples(ADDRS, st.one_of(st.integers(-1, 60), st.just(INF)))
MEM_OPS = st.one_of(
    st.tuples(st.just("set"), ADDRS, WORDS),
    st.tuples(st.just("update"), st.dictionaries(ADDRS, WORDS, max_size=6)),
    st.tuples(st.just("split"), SPANS),
    # a part split off a version, written into another
    st.tuples(st.just("move"), SPANS, st.integers(0, 10 ** 6)),
)


def _same(m, model):
    assert len(m) == len(model)
    assert list(m) == sorted(model) == sorted(m.keys())
    assert dict(m.items()) == model
    assert sorted(m.values(), key=repr) == sorted(model.values(), key=repr)
    assert m == Memory(model) and m != model
    assert m == Memory(m.written, m.domain)
    for a in range(-1, 42):
        assert (a in m) == (a in model)
        assert m.get(a, "none") == model.get(a, "none")
        if a in model:
            assert m[a] == model[a]
        else:
            with pytest.raises(KeyError):
                m[a]


def _split(model, lo, hi):
    return ({a: w for a, w in model.items() if lo <= a <= hi},
            {a: w for a, w in model.items() if not lo <= a <= hi})


@settings(derandomize=True, deadline=None)
@given(st.dictionaries(ADDRS, WORDS), RUNS,
       st.lists(st.tuples(st.integers(0, 10 ** 6), MEM_OPS), max_size=40))
def test_memory_model(init, zeros, ops):
    """Every operation, applied to any earlier version, agrees with a
    dict that holds the zeros, and leaves every earlier version as it
    was."""
    zeros = Ranges(zeros)
    versions = [(Memory(init, zeros | Ranges.of(init)),
                 {**dict.fromkeys(zeros, 0), **init})]
    for pick, op in ops:
        m, model = versions[pick % len(versions)]
        if op[0] == "set":
            _, a, w = op
            versions.append((with_cell(m, a, w), {**model, a: w}))
        elif op[0] == "update":
            versions.append((m.update(Memory(op[1])), {**model, **op[1]}))
        elif op[0] == "split":
            (lo, hi), = op[1:]
            part, rest = m.split(lo, hi)
            want_part, want_rest = _split(model, lo, hi)
            assert isinstance(part, Memory)
            _same(part, want_part)
            versions.append((rest, want_rest))
        else:
            (lo, hi), other = op[1:]
            donor = versions[other % len(versions)][0]
            part, _ = donor.split(lo, hi)
            # written cells win; unwritten ones keep what is held, or read 0
            versions.append((m.update(part), {**dict.fromkeys(part, 0),
                                              **model, **part.written}))
    for m, model in versions:
        _same(m, model)


def test_memory_update_joins_a_split_part():
    m = Memory({5: 7, 6: 8, 20: 9}, Ranges.span(0, 30))
    moved, rest = m.split(4, 7)
    assert rest.update(moved) == m      # a frame comes back as it went
    assert with_cell(rest, 20, 1).update(moved) == with_cell(m, 20, 1)
    # a written cell wins; an unwritten one keeps what is held, or reads 0
    part = Memory({6: 1}, Ranges.span(4, 7))
    assert m.update(part) == Memory({5: 7, 6: 1, 20: 9}, Ranges.span(0, 30))
    assert rest.update(part) == Memory({6: 1, 20: 9}, Ranges.span(0, 30))


def test_memory_zero_run_walks_no_address():
    # a memory 2^40 addresses wide costs what was written: repr, ==,
    # len, reads, writes and splits never walk the zero run
    wide = Ranges.span(5, 4 + 2 ** 40)
    m = Memory({5: 1}, wide)
    with pytest.MonkeyPatch.context() as mp:
        def walk(self):
            raise AssertionError("walked a zero run")
        mp.setattr(Ranges, "__iter__", walk)
        assert repr(m) == f"Memory({{5: 1}}, {Memory({5: 1}, wide).domain!r})"
        assert m == Memory({5: 1}, wide) and m != Memory({5: 1})
        assert m != Memory({5: 1}, Ranges.span(5, 3 + 2 ** 40))
        assert m != {5: 1} and len(m) == 2 ** 40
        n = with_cell(m, 2 ** 39, 7)
        assert (n[2 ** 39], n[2 ** 39 + 1], m[2 ** 39]) == (7, 0, 0)
        part, rest = n.split(2 ** 38, INF)
        assert part.written == {2 ** 39: 7} and rest.written == {5: 1}
        assert rest.update(part) == n


def test_memory_split_beyond_the_memory():
    m = with_cell(Memory({a: a for a in range(10, 20)}), 15, "x")
    part, rest = m.split(18, INF)
    assert part == Memory({18: 18, 19: 19})
    assert sorted(rest) == list(range(10, 18))
    part, rest = m.split(12, 10 ** 12)
    assert sorted(part) == list(range(12, 20)) and part[15] == "x"
    assert sorted(rest) == [10, 11]


def test_memory_keeps_no_earlier_memory():
    # a version references dicts and words, never an earlier Memory, so
    # a run that drops its old versions frees them
    m = Memory({a: a for a in range(10)}, Ranges.span(0, 30))
    for _ in range(3):
        part, rest = with_cell(m, 20, 1).split(2, 5)
        m = rest.update(part)
    seen, todo = set(), [gc.get_referents(m)]
    while todo:
        for r in todo.pop():
            if id(r) not in seen and isinstance(r, (dict, tuple, Ranges)):
                seen.add(id(r))
                todo.append(gc.get_referents(r))
            assert not isinstance(r, Memory), r
