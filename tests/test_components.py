import re
from dataclasses import replace

import pytest

from capmach.asm import assemble
from capmach.components import (
    Component, ConfigError, LinkError, _verdict, diagnostics,
    format_component, initial_config, link, parse_component,
    validate_component,
)
from capmach.core import (
    INF, GlobalConstants, Lin, Memory, MemCap, Perm, Ranges, SealCap, Sealed,
    StkPtr, enc_instr, mk_instr, parse_word,
)
from capmach.fixtures import (
    C_CODE, C_DATA, SCENARIOS, STK_BASE, STK_END, component, context_cb,
    corpus, trusted_one_call,
)
from capmach.harness import ValidationFailure, diff_start
from capmach.source import SourceConfig
from conftest import HALT, std_gc


def gc_for(code, stk_base=STK_BASE):
    return GlobalConstants(frozenset(code), stk_base)


def simple_trusted(**over):
    code = {99: 0, 100: HALT, 101: SealCap(5, 5, 5), 102: 0}
    clo = Sealed(5, MemCap(Perm.RX, Lin.NORMAL, 100, 101, 100))
    kw = dict(ms_code=code, ms_data={}, exports=(("clo", clo),),
              sig_clos=frozenset({5}))
    kw.update(over)
    return Component(**kw)


def diags(c, gc=None):
    return validate_component(c, gc if gc is not None else gc_for(c.ms_code))


def rules(ds):
    return {d.split("\t")[0] for d in ds}


def test_global_constants_keep_ta_as_ranges():
    # any int iterable becomes one Ranges, so equal trusted sets give
    # equal, equally hashed global constants
    t = trusted_one_call()
    gcs = [GlobalConstants(ta, STK_BASE) for ta in
           (frozenset(t.ms_code), t.ms_code, Ranges.of(t.ms_code))]
    assert all(type(gc.ta) is Ranges for gc in gcs)
    assert gcs[0] == gcs[1] == gcs[2] == std_gc(t)
    assert len({hash(gc) for gc in gcs}) == 1
    assert gcs[0].ta == Ranges.span(min(t.ms_code), max(t.ms_code))


def test_simple_trusted_is_clean():
    assert diags(simple_trusted()) == []


def test_broken_bad_pad():
    c = simple_trusted()
    code = {**c.ms_code, 99: 7}
    ds = diags(Component(code, {}, exports=c.exports, sig_clos=c.sig_clos))
    assert ds and "pads must be 0" in ds[0]


def test_broken_noncontiguous_code():
    c = simple_trusted()
    code = dict(c.ms_code)
    code[110] = 0
    ds = diags(Component(code, {}, exports=c.exports, sig_clos=c.sig_clos))
    assert ds and "not contiguous" in ds[0]


def test_broken_no_seal_word():
    code = {99: 0, 100: HALT, 101: HALT, 102: 0}
    ds = diags(Component(code, {}, sig_clos=frozenset({5})))
    assert any("no seal word" in d for d in ds)


def test_broken_hidden_call():
    # the tail of a call macro right after the leading pad: the rest of
    # the window overhangs the segment (the pad itself reads as part 22)
    frag = assemble("call 30 0 r3 r4", STK_BASE).segment
    code = {99: 0, 100: frag[23], 101: frag[24], 102: frag[25], 103: 0}
    ds = diags(Component(code, {}, sig_clos=frozenset({5})))
    assert any("hidden call" in d for d in ds)


def test_truncated_macro_is_not_hidden():
    # a prefix cut off by the zero pad is contradicted inside the
    # segment (the pad cannot read as part 10), so it is inert
    frag = assemble("call 30 0 r3 r4", STK_BASE).segment
    code = {99: 0}
    for i in range(10):
        code[100 + i] = frag[i]
    code[110] = 0
    ds = diags(Component(code, {}, sig_clos=frozenset({5})))
    assert not any("hidden call" in d for d in ds)


def test_broken_seal_double_claim():
    res = assemble("""
    .org 100
    call sealw 0 r3 r4
    call sealw 0 r3 r4
    halt
    sealw: .seal 5 6 5
    """, STK_BASE)
    code = {99: 0, **res.segment, max(res.segment) + 1: 0}
    ds = diags(Component(code, {}, sig_ret=frozenset({5}),
                         sig_clos=frozenset({6})))
    assert any("claimed twice" in d for d in ds)


def test_broken_unclaimed_return_seal():
    c = simple_trusted(sig_ret=frozenset({4}), sig_clos=frozenset({5}))
    code = {**c.ms_code, 101: SealCap(4, 5, 4)}
    ds = diags(Component(code, {}, exports=(), sig_ret=frozenset({4}),
                         sig_clos=frozenset({5})))
    assert any("claimed by no call" in d for d in ds)
    # a line per run of unclaimed seals
    for ret, lines in (({2, 4}, ["seal 2", "seal 4"]),
                       (range(-99, 5), ["seals -99..4"])):
        ds = diags(Component(code, {}, sig_ret=ret, sig_clos=frozenset({5})))
        assert [d.split("\t")[2] for d in ds if "claimed" in d] == \
            [f"return {x} claimed by no call" for x in lines]


def test_broken_linear_overlap():
    data = {700: MemCap(Perm.RW, Lin.LINEAR, 710, 712, 710),
            701: MemCap(Perm.RW, Lin.LINEAR, 712, 714, 712)}
    data.update({a: 0 for a in range(710, 715)})
    c = simple_trusted(ms_data=data, a_linear=frozenset(range(710, 715)))
    ds = diags(c)
    assert any("owned twice" in d for d in ds)


def test_broken_rx_data_cap():
    c = simple_trusted(ms_data={700: MemCap(Perm.RX, Lin.NORMAL, 700, 700, 700)})
    ds = diags(c)
    assert any("perm" in d for d in ds) and "comp-value" in rules(ds)


def test_broken_linear_outside_own():
    c = simple_trusted(
        ms_data={700: MemCap(Perm.RW, Lin.LINEAR, 710, 712, 710)})
    ds = diags(c)
    assert any("outside a_linear" in d for d in ds)


@pytest.mark.parametrize("literal", [
    "sealed(5,cap(rwx,normal,0,1000000,0))",   # escapes the component
    "sealed(5,cap(rw,linear,5000,inf,5000))",  # unbounded
    "sealed(5,retptrcode(0,10,3))",            # not a memory capability
    "sealed(5,seal(0,100,0))",
])
def test_broken_sealed_data_word(literal):
    # a sealed word in data gets the range tests of the capability it
    # wraps, which must be a memory capability
    ds = diags(simple_trusted(ms_data={700: parse_word(literal)}))
    assert any("\taddr 700\t" in d for d in ds), ds


def test_validation_cost_bounded_by_component():
    # spans of 2**40 cells: each containment test compares lengths before
    # probing addresses, so no per-address set or dict is built
    far = 2 ** 40
    c = simple_trusted(ms_data={
        700: MemCap(Perm.RW, Lin.NORMAL, 0, far, 0),
        701: MemCap(Perm.RW, Lin.LINEAR, 0, far, 0)})
    assert diags(c) == [
        "comp-value\taddr 700\trange escapes the component's nonlinear "
        "addresses",
        "comp-value\taddr 701\tlinear range outside a_linear"]


def test_broken_unbounded_closure():
    clo = Sealed(5, MemCap(Perm.RX, Lin.NORMAL, 100, INF, 100))
    ds = diags(simple_trusted(exports=(("clo", clo),)))
    assert any("closure range escapes the component" in d for d in ds)


def test_broken_import_into_code():
    c = simple_trusted(imports=((100, "x"),))
    ds = diags(c)
    assert any("resolves into code" in d for d in ds)


def test_broken_untrusted_with_return_seals():
    c = simple_trusted(sig_ret=frozenset({4}), sig_clos=frozenset({5}))
    ds = validate_component(c, GlobalConstants(frozenset(), STK_BASE))
    assert any("untrusted" in d for d in ds)


def test_broken_export_under_foreign_seal():
    c = simple_trusted(exports=(
        ("clo", Sealed(9, MemCap(Perm.RX, Lin.NORMAL, 100, 101, 100))),))
    ds = diags(c)
    assert any("not among the closure seals" in d for d in ds)


def _calling(*sigmas, seal, **over):
    """A component whose code makes one call per offset in ``sigmas``
    under the seal word ``.seal <seal>``, then halts."""
    body = "".join(f"  call sealw {s} r3 r4\n" for s in sigmas)
    res = assemble(f".org 100\n{body}  halt\nsealw: .seal {seal}\n",
                   STK_BASE)
    return Component({99: 0, **res.segment, max(res.segment) + 1: 0}, {},
                     **over)


def test_each_diagnostic_alone():
    # one small component per premise, each breaking only that one:
    # validation gives exactly the line shown
    clo = simple_trusted().exports[0][1]
    lin = MemCap(Perm.RW, Lin.LINEAR, 200, 200, 200)
    rw = MemCap(Perm.RW, Lin.NORMAL, 200, 200, 200)
    trust_none = GlobalConstants(frozenset(), STK_BASE)
    trust_data = GlobalConstants(frozenset({*range(99, 103), 200}), STK_BASE)
    call = _calling(0, seal="5 5 5", sig_ret={5})   # its xjmp at 114
    through = replace(call, ms_code={**call.ms_code, 114: enc_instr(
        mk_instr("xjmp", "rstk", "rretdata"))})
    table = [
        (simple_trusted(ms_data={101: 0}), trust_none,
         "comp\tcode/data\tcode and data domains overlap"),
        (simple_trusted(ms_data={200: 0}), trust_data,
         "comp\tdata\tdata overlaps trusted addresses"),
        (_calling(0, seal="5 5 5", sig_ret={5}, sig_clos={5}), None,
         "comp-code\tseals\treturn/closure seal overlap: 5"),
        (simple_trusted(exports=(), sig_clos=()), None,
         "comp-code\tseals\tcomponent owns no seals"),
        (_calling(0, 1, seal="5 6 5", sig_ret={5}, sig_clos={6}), None,
         "comp-code\taddr 126\tcall claims seal 6 outside the return seals"),
        (through, None, "comp-code\taddr 100\tcall jumps through rretdata, "
         "rstk, which it writes before its xjmp"),
        (simple_trusted(ms_data={200: SealCap(5, 5, 5)}), None,
         "comp-value\taddr 200\tdisallowed word: seal(5,5,5)"),
        (simple_trusted(ms_data={200: lin._replace(base=201)}), None,
         "comp-value\taddr 200\tempty linear capability"),
        (simple_trusted(ms_data={200: 0}, a_linear={200},
                        exports=(("clo", clo), ("lin", lin))), None,
         "comp-export\texport lin\tlinear export"),
        (simple_trusted(exports=(("clo", clo), ("clo", clo))), None,
         "comp\texports\tduplicate export symbol"),
        (simple_trusted(imports=((300, "x"),)), None,
         "comp\timport x\timport address 300 not in data"),
        (simple_trusted(ms_data={200: 0}, imports=((200, "clo"),)), None,
         "comp\timport clo\tsymbol both imported and exported"),
        (simple_trusted(ms_data={200: 0}, mains=(clo, rw)), None,
         "comp\tmain data\tmain word not exported"),
    ]
    for c, gc, line in table:
        assert diags(c, gc) == [line], line


def test_link_errors():
    a = simple_trusted()
    mains = (Sealed(5, MemCap(Perm.RX, Lin.NORMAL, 100, 101, 100)),
             Sealed(5, MemCap(Perm.RW, Lin.NORMAL, 300, 300, 300)))
    full = simple_trusted(ms_data={300: 0}, a_linear={300}, mains=mains)

    def other(seal=6, **over):   # code at 199..202, closure seal ``seal``
        return Component(**{"ms_code": {199: 0, 200: HALT, 202: 0,
                                         201: SealCap(seal, seal, seal)},
                            "ms_data": {}, "sig_clos": {seal}, **over})

    for left, right, message in (
            (a, simple_trusted(sig_clos={6}, exports=()),
             "code domains overlap"),
            (a, other(5), "seal sets overlap"),
            (a, other(5, sig_clos=(), sig_ret={5}),
             "return and closure seals clash"),
            (a, other(exports=(("clo", 1),)), "duplicate exports: ['clo']"),
            (full, other(ms_data={300: 0}), "data domains overlap"),
            (a, simple_trusted(ms_code={}, ms_data={101: 0}, exports=()),
             "linked code and data overlap"),
            (full, other(a_linear={300}), "linear address sets overlap"),
            (full, other(mains=mains), "both sides carry mains")):
        with pytest.raises(LinkError, match=f"^{re.escape(message)}$"):
            link(left, right)


def test_link_resolves_imports():
    t = simple_trusted(ms_data={300: 0}, imports=((300, "cb"),))
    ctx = Component({199: 0, 200: HALT, 201: SealCap(6, 6, 6), 202: 0}, {},
                    sig_clos=frozenset({6}), exports=(("cb", 41),))
    p = link(t, ctx)
    assert p.ms_data[300] == 41
    assert p.imports == ()
    # unresolved symbols survive the link
    t2 = simple_trusted(ms_data={300: 0}, imports=((300, "missing"),))
    assert link(t2, ctx).imports == ((300, "missing"),)


def test_link_commutes_on_fixtures():
    t, ctx = trusted_one_call(), context_cb("  halt")
    p, q = link(t, ctx), link(ctx, t)
    assert p.ms_code == q.ms_code and p.ms_data == q.ms_data
    assert dict(p.exports) == dict(q.exports)
    assert (p.sig_ret, p.sig_clos, p.a_linear, p.mains) == \
        (q.sig_ret, q.sig_clos, q.a_linear, q.mains)
    # a program: every import resolved, and the mains present
    assert p.imports == () and p.mains is not None


def test_corpus_validates_clean():
    for name, t, ctx in corpus():
        gc = std_gc(t)
        assert validate_component(t, gc) == [], name
        assert validate_component(ctx, gc) == [], name


def test_diagnostics_match_validation():
    # the memo's verdict is validate_component's, for every corpus and
    # scenario component under the constants its diff runs with, read
    # cold or warm; and a returned list is the caller's own
    pairs = [(t, ctx, std_gc(t)) for _, t, ctx in corpus()]
    for name, fn in SCENARIOS.items():
        t, ctx = fn().components
        pairs.append((t, ctx, std_gc(t, name != "second-stack-nocheck")))
    _verdict.cache_clear()
    for t, ctx, gc in pairs:
        bad = replace(ctx, ms_code={**ctx.ms_code, min(ctx.ms_code): 7})
        for c in (t, ctx, bad):
            want = validate_component(c, gc)
            assert bool(want) == (c is bad)
            got = diagnostics(c, gc)
            got.append("x")
            assert diagnostics(c, gc) == want, format_component(c)
        diff_start(t, ctx, STK_BASE, STK_END, gc.check_stk_base)


def _diff_diagnostics(t, ctx, *args):
    """The diagnostics ``diff_start`` raises, and the memo's misses."""
    misses = _verdict.cache_info().misses
    try:
        diff_start(t, ctx, *args)
        diags = []
    except ValidationFailure as e:
        diags = e.diagnostics
    return diags, _verdict.cache_info().misses - misses


def test_diagnostics_memo_misses_new_content():
    t, ctx = trusted_one_call(), context_cb("  halt")
    _verdict.cache_clear()
    assert _diff_diagnostics(t, ctx, STK_BASE, STK_END) == ([], 2)
    assert _diff_diagnostics(t, ctx, STK_BASE, STK_END) == ([], 0)
    # the same components under other constants: validated anew
    for gc in (std_gc(t, False), GlobalConstants(t.ms_code, STK_BASE + 64)):
        want = validate_component(t, gc) + validate_component(ctx, gc)
        assert _diff_diagnostics(t, ctx, gc.stk_base, gc.stk_base + 63,
                                 gc.check_stk_base) == (want, 2)
    assert want   # no call macro matches at the other stack base
    # a cell changed in place after a validated diff: the context alone
    # is validated anew, and its diagnostics follow the trusted side's
    pad = min(ctx.ms_code)
    ctx.ms_code[pad] = 7
    want = validate_component(ctx, std_gc(t))
    assert any("guard pads must be 0" in d for d in want)
    assert _diff_diagnostics(t, ctx, STK_BASE, STK_END) == (want, 1)
    with pytest.raises(ValidationFailure) as e:
        diff_start(t, ctx, STK_BASE, STK_END)
    e.value.diagnostics.append("x")
    assert _diff_diagnostics(t, ctx, STK_BASE, STK_END) == (want, 0)
    t.ms_code[min(t.ms_code)] = 7
    bad_t = validate_component(t, std_gc(t))
    assert _diff_diagnostics(t, ctx, STK_BASE, STK_END) == (bad_t + want, 1)
    ctx.ms_code[pad] = 0   # the context as first validated: a hit
    assert _diff_diagnostics(t, ctx, STK_BASE, STK_END) == (bad_t, 0)


def test_diagnostics_memo_is_bounded():
    bound = _verdict.cache_info().maxsize
    gc = gc_for(simple_trusted().ms_code)
    for i in range(bound + 44):
        assert diagnostics(simple_trusted(ms_data={300: i}), gc) == []
    assert _verdict.cache_info().currsize == bound == 256


def test_component_closure_specs():
    # Only a plain tuple is a closure-half spec: capabilities are tuples
    # too, and a 2- or 3-field one passes through as the word it is.
    seal = SealCap(1, 5, 1)
    clo = Sealed(9, MemCap(Perm.RX, Lin.NORMAL, 500, 501, 500))
    c = component(C_CODE, "entry:\n  halt", {C_DATA: seal, C_DATA + 1: clo,
                                           C_DATA + 2: (9, C_DATA, C_DATA + 2)},
                  exports={"code": (9, "entry"), "clo": clo})
    assert c.ms_data == {
        C_DATA: seal, C_DATA + 1: clo,
        C_DATA + 2: Sealed(9, MemCap(Perm.RW, Lin.NORMAL, C_DATA, C_DATA + 2,
                                     C_DATA))}
    code = Sealed(9, MemCap(Perm.RX, Lin.NORMAL, C_CODE, C_CODE, C_CODE))
    assert c.exports == (("code", code), ("clo", clo))


def test_initial_config_target():
    p = link(*corpus()[0][1:])
    cfg = initial_config(p, "target", STK_BASE, STK_END)
    assert isinstance(cfg, SourceConfig)
    assert cfg.stk == () and cfg.ms_stk == Memory()
    assert cfg.reg["rstk"] == MemCap(Perm.RW, Lin.LINEAR,
                                     STK_BASE, STK_END, STK_END)
    assert all(cfg.mem[x] == 0 for x in range(STK_BASE, STK_END + 1))
    assert cfg.mem[STK_BASE - 1] == 0 and cfg.mem[STK_END + 1] == 0
    assert cfg.reg["pc"] == p.mains[0].inner
    assert cfg.reg["rdata"] == p.mains[1].inner


def test_initial_config_source():
    p = link(*corpus()[0][1:])
    cfg = initial_config(p, "source", STK_BASE, STK_END)
    assert isinstance(cfg, SourceConfig)
    assert cfg.reg["rstk"] == StkPtr(Perm.RW, STK_BASE, STK_END, STK_END)
    assert set(cfg.ms_stk) == set(range(STK_BASE, STK_END + 1))
    assert not (set(cfg.ms_stk) & set(cfg.mem))
    assert cfg.stk == ()


def test_initial_config_errors():
    p = link(*corpus()[0][1:])
    with pytest.raises(ConfigError, match="empty stack"):
        initial_config(p, "target", 10, 9)
    with pytest.raises(ConfigError, match="overlaps"):
        initial_config(p, "target", 100, 120)  # lands on trusted code
    # a guard cell on the last static cell overlaps, one beyond it does not
    top = max((*p.ms_code, *p.ms_data))
    for kind in ("source", "target"):
        with pytest.raises(ConfigError, match="overlaps"):
            initial_config(p, kind, top + 1, top + 10)
        assert initial_config(p, kind, top + 2, top + 10).mem[top + 1] == 0
        # the overlap test does not walk the stack range
        with pytest.raises(ConfigError, match="overlaps"):
            initial_config(p, kind, 0, 2 ** 40)
        # a stack of 2^40 cells is one zero run: it builds no cell
        cfg = initial_config(p, kind, top + 2, top + 1 + 2 ** 40)
        stack = cfg.mem if kind == "target" else cfg.ms_stk
        assert stack.domain.covers(top + 2, top + 1 + 2 ** 40)
        assert stack[top + 2 ** 40] == 0 and stack.written == (
            {} if kind == "source" else {**p.ms_code, **p.ms_data,
                                         top + 1: 0, top + 2 + 2 ** 40: 0})
    wc, wd = p.mains
    for over, message in (
            ({"mains": (wc, Sealed(wd.sigma + 1, wd.inner))},
             "main seals differ"),
            ({"imports": ((300, "x"),)}, "program has unresolved imports"),
            ({"mains": None}, "program has no mains"),
            ({"mains": (wc.inner, wd)}, "mains must be a sealed pair"),
            ({"mains": (wc, Sealed(wd.sigma, wc.inner))},
             "main data half is executable")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            initial_config(replace(p, **over), "target", STK_BASE, STK_END)
    with pytest.raises(ConfigError, match="machine kind"):
        initial_config(p, "middle", STK_BASE, STK_END)


def test_container_roundtrip():
    pairs = [(name, (t, ctx)) for name, t, ctx in corpus()]
    pairs += [(name, fn().components) for name, fn in SCENARIOS.items()]
    for name, comps in pairs:
        for c in comps:
            assert parse_component(format_component(c)) == c, name
    # seal and linear sets are written as runs
    ctx = SCENARIOS["second-stack"]().components[1]
    text = format_component(ctx)
    assert "[seals ret= clos=9]\n[linear]\n710..768\n[main]\n" in text


def test_container_roundtrip_linked():
    # a linked program has one code block per component, each with its
    # own pads; the container keeps each block at its own address
    for name, t, ctx in corpus():
        p = link(t, ctx)
        assert parse_component(format_component(p)) == p, name


def test_container_parse_details():
    text = """\
[code base=100]
0
{halt}
seal(5,5,5)
0
[data]
300\t7
[exports]
clo\tsealed(5,cap(rx,normal,100,101,100))
[seals ret= clos=5]
[linear]
[main]
""".format(halt=HALT)
    c = parse_component(text.replace("[main]\n", ""))
    assert c.ms_code[99] == 0 and c.ms_code[100] == HALT
    assert c.ms_code[101] == SealCap(5, 5, 5)
    assert c.ms_data == {300: 7}
    assert c.sig_clos == Ranges.span(5, 5) and c.sig_ret == Ranges()
    assert c.mains is None
    assert diags(c) == []


def test_container_comments():
    # a content line loses its comment, and a line left empty is skipped
    c = parse_component("; top\n  [data]  \n  300\t7 ; seven\n  ;\n"
                        "301\t8;\n[main]\n0 ;a\n  1\n")
    assert c.ms_data == {300: 7, 301: 8} and c.mains == (0, 1)


def test_bad_literal_raises_at_every_line():
    # the word memo stores no error: a malformed literal raises at each
    # parse, and at each line that holds it
    bad = "cap(rw,normal,1,2,3"
    message = f"bad word literal: {bad!r}"
    for _ in range(2):
        with pytest.raises(ValueError) as e:
            parse_component(f"[code base=100]\n0\n{bad}\n")
        assert str(e.value) == f"line 3: {message}"
    with pytest.raises(ValueError) as e:
        parse_component(f"[data]\n300\t7\n[main]\n0\n{bad}\n")
    assert str(e.value) == f"line 5: {message}"


def test_header_and_int_memos_store_no_error():
    # section headers come from a memo, which stores no error, and ints
    # are read anew: a malformed header or address raises at every parse
    for text, message in (("[data]\n[code base=5x]\n", "bad int '5x'"),
                          ("[data]\n30x\t7\n", "bad int '30x'")):
        for _ in range(2):
            with pytest.raises(ValueError) as e:
                parse_component(text)
            assert str(e.value) == f"line 2: {message}"


# (section, bad line) pairs: ``bad_container`` makes each a container
# that is malformed at its line 5
BAD_CONTAINER_LINES = [
    ("[code base=100]", "cap(rw,normal,1,2)"),
    ("[data]", "300\tint:0"),
    ("[data]", "x300\t0"),
    ("[imports]", "cb\t30o"),
    ("[exports]", "clo\tsealed(5,"),
    ("[linear]", "10..1x"),
    ("[main]", "cap:rw"),
    ("[data]", "[seals ret=1..2..3 clos=]"),
    ("[data]", "[seals ret=. clos=]"),
    ("[linear]", "1..2..3"),
    # a header is read whole: a known name, only its own keys, once each
    ("[data]", "[seals ret=1,x clos=2]"),
    ("[data]", "[seals ret=1 clos=x]"),
    ("[data]", "[code base=5x]"),
    ("[data]", "[code base=5 base=9]"),
    ("[data]", "[seals ret=1..2 foo=3]"),
    ("[data]", "[data extra]"),
    ("[data]", "[main extra]"),
    ("[data]", "[bogus]"),
    ("[data]", "[data] ; x"),
    # an int is digits with an optional minus
    ("[data]", "[code base=+100]"),
    ("[data]", "+301\t7"),
    ("[data]", "1_000\t7"),
    ("[imports]", "cb\t+30"),
    ("[code base=100]", "seal(+1,1,1)"),
    ("[linear]", "1_0..20"),
    ("[data]", "[code]"),
]


def bad_container(section, bad):
    return f"[data]\n300\t7\n[seals ret= clos=5]\n{section}\n{bad}\n"


@pytest.mark.parametrize("section, bad", BAD_CONTAINER_LINES)
def test_container_errors_name_the_line(section, bad):
    # a malformed word, address, field, header or list names its line
    with pytest.raises(ValueError, match=r"^line 5: ") as e:
        parse_component(bad_container(section, bad))
    if bad == "[code]":
        assert str(e.value) == "line 5: [code] needs base="
    # a list names its first bad run, in a [seals] header as on a
    # [linear] line
    lists = re.findall(r"(?:ret|clos)=([^\s\]]*)", bad) or \
        ([bad] if section == "[linear]" else [])
    runs = [run for lst in lists for run in lst.split(",")
            if run and not re.fullmatch(r"-?[0-9]+(\.\.-?[0-9]+)?", run)]
    if runs:
        assert str(e.value) == f"line 5: bad run {runs[0]!r}"


@pytest.mark.parametrize("section, line, what", [
    ("[data]", "300", "address word"),
    ("[imports]", "cb", "symbol address"),
    ("[exports]", "clo", "symbol word"),
])
def test_container_line_with_too_few_fields(section, line, what):
    # a line with one field says what its section's lines hold
    with pytest.raises(ValueError, match=re.escape(
            f"line 2: expected {what}, got {line!r}") + "$"):
        parse_component(f"{section}\n{line}\n")


def test_container_address_given_twice(tmp_path, capsys):
    # a second word for one address is refused, not kept silently: in
    # [data], and where a [code] block's pad lands on an earlier block
    from capmach import cli
    code = f"[code base=100]\n0\n{HALT}\n0\n"
    for text, line, addr in (
            ("[data]\n300 5\n300 7\n", 3, 300),
            (code + "[code base=101]\n0\n0\n", 6, 100)):
        message = f"line {line}: address {addr} given twice"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_component(text)
        path = tmp_path / "twice.comp"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_container_seal_ranges():
    c = parse_component("[data]\n[seals ret=1..3 clos=4,6]\n")
    assert list(c.sig_ret) == [1, 2, 3] and list(c.sig_clos) == [4, 6]
    assert format_component(c).endswith("[seals ret=1..3 clos=4,6]\n")
    # a second [seals] header is refused, naming its line; a key left
    # out is the empty set
    with pytest.raises(ValueError, match=r"^line 3: \[seals\] given twice$"):
        parse_component("[data]\n[seals ret=1..3 clos=4]\n[seals clos=7]\n")
    c = parse_component("[data]\n[seals clos=7]\n")
    assert c.sig_ret == Ranges() and list(c.sig_clos) == [7]
    # [linear] takes runs, lists and one address per line alike
    c = parse_component("[data]\n[linear]\n10..12\n14,20..21\n30\n31\n")
    assert list(c.a_linear) == [10, 11, 12, 14, 20, 21, 30, 31]
    assert format_component(c).endswith("[linear]\n10..12,14,20..21,30..31\n")
