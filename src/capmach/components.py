"""Components: well-formedness checking, linking, initial configurations.

A component owns a contiguous code block (with one zero guard pad on
each side), a data segment, import/export symbol lists, two seal-id
sets (return seals and closure seals) and the set of addresses it may
hand out linear capabilities over; the three sets are ``Ranges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap
from typing import Optional

from .asm import CALL_HEAD, CALL_WRITES, call_cond, find_hidden_calls
from .core import (
    _NO_INTS, INF, PC, RDATA, RSTK, GlobalConstants, Lin, Memory, MemCap,
    Perm, Ranges, SealCap, Sealed, StkPtr, _new, fresh_registers,
    is_linear, linear_overlaps, linear_range, non_exec, parse_int,
    parse_word, perm_leq,
)
from .source import SourceConfig


@dataclass(frozen=True)
class Component:
    ms_code: dict
    ms_data: dict
    imports: tuple = ()        # (addr, symbol) pairs
    exports: tuple = ()        # (symbol, word) pairs
    sig_ret: Ranges = ()     # any int iterable; kept as a Ranges
    sig_clos: Ranges = ()
    a_linear: Ranges = ()
    mains: Optional[tuple] = None   # (main code word, main data word)

    def __post_init__(self):
        if not type(self.sig_ret) is type(self.sig_clos) \
                is type(self.a_linear) is Ranges:
            for name in ("sig_ret", "sig_clos", "a_linear"):
                v = getattr(self, name)
                object.__setattr__(self, name, Ranges.of(v) if v else _NO_INTS)

    @cached_property
    def domain(self) -> Ranges:
        """The addresses of the code and the data, found once."""
        return Ranges.of({**self.ms_code, **self.ms_data})


# ---------------------------------------------------------------------------
# Validation

def _diag(out, rule, loc, msg):
    out.append(f"{rule}\t{loc}\t{msg}")


def validate_component(c: Component, gc: GlobalConstants) -> list:
    """All well-formedness premises, in order; empty list means ok."""
    out: list = []

    code, data = Ranges.of(c.ms_code), Ranges.of(c.ms_data)
    runs = code.runs
    if len(runs) != 1 or runs[0][1] - runs[0][0] < 2:   # pad, code, pad
        _diag(out, "comp", "code", "code domain is not contiguous with pads")
        return out
    (pad_lo, pad_hi), = runs
    b, e = pad_lo + 1, pad_hi - 1
    if c.ms_code[pad_lo] != 0 or c.ms_code[pad_hi] != 0:
        _diag(out, "comp", f"addr {pad_lo},{pad_hi}", "guard pads must be 0")
    if code & data:
        _diag(out, "comp", "code/data", "code and data domains overlap")
    if data & gc.ta:
        _diag(out, "comp", "data", "data overlaps trusted addresses")
    if not code & gc.ta:
        if c.sig_ret:
            _diag(out, "comp", "seals",
                  "untrusted component owns return seals")
    elif not gc.ta.covers(pad_lo, pad_hi):
        _diag(out, "comp", "code", "code partially trusted")

    if overlap := c.sig_ret & c.sig_clos:
        _diag(out, "comp-code", "seals",
              f"return/closure seal overlap: {overlap}")
    runs = (c.sig_ret | c.sig_clos).runs
    if not runs:
        _diag(out, "comp-code", "seals", "component owns no seals")
        return out
    sig_b, sig_e = runs[0][0], runs[-1][1]
    if len(runs) > 1:
        _diag(out, "comp-code", "seals", "owned seals are not contiguous")

    # rule A: code cells are integers or the component's own seal word
    seal_word = SealCap(sig_b, sig_e, sig_b)
    seal_addrs = []
    for a in range(b, e + 1):
        w = c.ms_code[a]
        if isinstance(w, int):
            continue
        if w == seal_word:
            seal_addrs.append(a)
        else:
            _diag(out, "comp-code", f"addr {a}",
                  f"code holds a non-seal capability: {w!r}")
    if not seal_addrs:
        _diag(out, "comp-code", "code", "no seal word in code")

    for v in find_hidden_calls(c.ms_code, gc.stk_base, gc.check_stk_base):
        _diag(out, "comp-code", f"addr {v.addr}",
              f"hidden call fragment (part {v.index} of a call at {v.start})")

    # rule B / d_sigma: every trusted call (``call_cond``) claims one
    # return seal and jumps through none of ``CALL_WRITES``; a call
    # starts at a cell that holds its first word
    claimed: dict = {}
    for a in sorted(a for a, w in c.ms_code.items() if w == CALL_HEAD):
        p = call_cond(c.ms_code, a, gc)
        if p is None:
            continue
        if bad := sorted({p.r1, p.r2} & CALL_WRITES):
            _diag(out, "comp-code", f"addr {a}", f"call jumps through "
                  f"{', '.join(bad)}, which it writes before its xjmp")
        sw = c.ms_code.get(a + p.off_pc)
        if not isinstance(sw, SealCap):
            _diag(out, "comp-code", f"addr {a}",
                  "call's pc-offset does not name a seal word")
            continue
        sigma = sw.cur + p.off_sigma
        if sigma not in c.sig_ret:
            _diag(out, "comp-code", f"addr {a}",
                  f"call claims seal {sigma} outside the return seals")
            continue
        if sigma in claimed:
            _diag(out, "comp-code", f"addr {a}",
                  f"seal {sigma} claimed twice (also by call at {claimed[sigma]})")
        else:
            claimed[sigma] = a
    if len(claimed) < len(c.sig_ret):   # a line per unclaimed run
        for lo, hi in (c.sig_ret - Ranges.of(claimed)).runs:
            seals = f"seal {lo}" if lo == hi else f"seals {lo}..{hi}"
            _diag(out, "comp-code", "seals",
                  f"return {seals} claimed by no call")

    # comp-value over data; the linear data words own disjoint ranges
    own = code | data
    nonlinear = own - c.a_linear

    def sealed_cap(w, rule, loc):
        """The memory capability a sealed word wraps, or None."""
        if isinstance(w.inner, MemCap):
            return w.inner
        _diag(out, rule, loc, f"sealed word wraps {w.inner!r}")
        return None

    def comp_value(w, loc):
        if isinstance(w, int):
            return
        if isinstance(w, Sealed):
            # a sealed closure half may be code, so perm ⊑ rw is not asked
            w = sealed_cap(w, "comp-value", loc)
            if w is None:
                return
        elif not isinstance(w, MemCap):
            _diag(out, "comp-value", loc, f"disallowed word: {w!r}")
            return
        elif not perm_leq(w.perm, Perm.RW):
            _diag(out, "comp-value", loc,
                  f"perm ⊑ rw violated: {w.perm.value}")
        if w.end == INF:
            _diag(out, "comp-value", loc, "unbounded capability")
        elif w.lin is Lin.LINEAR:
            if w.base > w.end:
                _diag(out, "comp-value", loc, "empty linear capability")
            elif not c.a_linear.covers(w.base, w.end):
                _diag(out, "comp-value", loc, "linear range outside a_linear")
        elif not nonlinear.covers(w.base, w.end):
            _diag(out, "comp-value", loc,
                  "range escapes the component's nonlinear addresses")

    owners = []
    for a in sorted(c.ms_data):
        w = c.ms_data[a]
        comp_value(w, f"addr {a}")
        r = linear_range(w)
        if r is not None:
            owners.append((r[0], r[1], f"addr {a}"))
    for x, first, loc in linear_overlaps(owners):
        _diag(out, "comp-value", loc,
              f"linear address {x} owned twice (also at {first})")

    # comp-export: sealed closures under an owned closure seal, or plain
    # nonlinear values
    for sym, w in c.exports:
        loc = f"export {sym}"
        if isinstance(w, Sealed):
            if w.sigma not in c.sig_clos:
                _diag(out, "comp-export", loc,
                      f"seal {w.sigma} not among the closure seals")
            w = sealed_cap(w, "comp-export", loc)
            if w is None:
                continue
            if not own.covers(w.base, w.end):
                _diag(out, "comp-export", loc,
                      "closure range escapes the component")
        else:
            comp_value(w, loc)
        if is_linear(w):
            _diag(out, "comp-export", loc, "linear export")

    # imports target data addresses; symbol sanity
    export_syms = {sym for sym, _ in c.exports}
    if len(export_syms) != len(c.exports):
        _diag(out, "comp", "exports", "duplicate export symbol")
    for addr, sym in c.imports:
        if addr in c.ms_code:
            _diag(out, "comp", f"import {sym}",
                  f"import resolves into code (addr {addr})")
        elif addr not in c.ms_data:
            _diag(out, "comp", f"import {sym}",
                  f"import address {addr} not in data")
        if sym in export_syms:
            _diag(out, "comp", f"import {sym}", "symbol both imported and exported")

    if c.mains is not None:
        export_words = [w for _, w in c.exports]
        for which, w in zip(("code", "data"), c.mains):
            if w not in export_words:
                _diag(out, "comp", f"main {which}", "main word not exported")

    return out


@lru_cache(maxsize=256)
def _verdict(key: tuple) -> tuple:
    """``validate_component``'s diagnostics for the component and the
    global constants that ``key`` spells out, rebuilt from it, so
    nothing outside the key reaches validation.  No exception is kept."""
    (code_at, code, data_at, data, imports, exports, mains, stk_base, check,
     *bounds) = key
    sig_ret, sig_clos, a_linear, ta = map(Ranges._new, bounds[::2],
                                          bounds[1::2])
    return tuple(validate_component(
        Component(dict(zip(code_at, code)), dict(zip(data_at, data)),
                  imports, exports, sig_ret, sig_clos, a_linear, mains),
        GlobalConstants(ta, stk_base, check)))


def diagnostics(c: Component, gc: GlobalConstants) -> list:
    """``validate_component(c, gc)`` as a new list, run once per
    distinct content: the memo's key, built at every call, holds every
    cell, field and constant that validation reads, so a cell changed
    in place misses it.  The key is made of flat tuples, which hash and
    compare in C: a memory's addresses and its words in the dict's
    order, and a ``Ranges`` as the two tuples that bound its runs."""
    code, data, ret, clos, lin, ta = (c.ms_code, c.ms_data, c.sig_ret,
                                      c.sig_clos, c.a_linear, gc.ta)
    return list(_verdict((
        tuple(code), tuple(code.values()), tuple(data), tuple(data.values()),
        c.imports, c.exports, c.mains, gc.stk_base, gc.check_stk_base,
        ret._lo, ret._hi, clos._lo, clos._hi, lin._lo, lin._hi,
        ta._lo, ta._hi)))


# ---------------------------------------------------------------------------
# Linking

class LinkError(ValueError):
    pass


def link(c1: Component, c2: Component) -> Component:
    """⋈: disjoint unions plus import resolution."""
    if not c1.ms_code.keys().isdisjoint(c2.ms_code):
        raise LinkError("code domains overlap")
    if not c1.ms_data.keys().isdisjoint(c2.ms_data):
        raise LinkError("data domains overlap")
    code = {**c1.ms_code, **c2.ms_code}
    data = {**c1.ms_data, **c2.ms_data}
    if not code.keys().isdisjoint(data):
        raise LinkError("linked code and data overlap")
    if not (c1.sig_ret.isdisjoint(c2.sig_ret)
            and c1.sig_clos.isdisjoint(c2.sig_clos)):
        raise LinkError("seal sets overlap")
    sig_ret = c1.sig_ret | c2.sig_ret
    sig_clos = c1.sig_clos | c2.sig_clos
    if not sig_ret.isdisjoint(sig_clos):
        raise LinkError("return and closure seals clash")
    if not c1.a_linear.isdisjoint(c2.a_linear):
        raise LinkError("linear address sets overlap")
    exports, exports2 = dict(c1.exports), dict(c2.exports)
    if not exports.keys().isdisjoint(exports2):
        raise LinkError("duplicate exports: "
                        f"{sorted(exports.keys() & exports2.keys())}")
    if c1.mains is not None and c2.mains is not None:
        raise LinkError("both sides carry mains")
    exports.update(exports2)
    imports = []
    for addr, sym in (*c1.imports, *c2.imports):
        if sym in exports:
            data[addr] = exports[sym]
        else:
            imports.append((addr, sym))
    return Component(code, data, tuple(imports), tuple(exports.items()),
                     sig_ret, sig_clos, c1.a_linear | c2.a_linear,
                     c1.mains if c1.mains is not None else c2.mains)


# ---------------------------------------------------------------------------
# Initial configurations

class ConfigError(ValueError):
    pass


def initial_config(p: Component, machine_kind: str,
                   b_stk: int, e_stk: int):
    """⇝: the starting configuration of a program.

    On the target the stack is ordinary memory reached through a linear
    RW capability; on the source it is the separate stack segment
    reached through a stack-pointer token.  Either way it is one zero
    run, so a configuration costs O(program) at any stack width.
    """
    if p.imports:
        raise ConfigError("program has unresolved imports")
    if p.mains is None:
        raise ConfigError("program has no mains")
    wc, wd = p.mains
    if not (isinstance(wc, Sealed) and isinstance(wd, Sealed)):
        raise ConfigError("mains must be a sealed pair")
    if wc.sigma != wd.sigma:
        raise ConfigError("main seals differ")
    if not non_exec(wd.inner):
        raise ConfigError("main data half is executable")
    if b_stk > e_stk:
        raise ConfigError("empty stack range")
    domain = p.domain
    if domain.meets(b_stk - 1, e_stk + 1):
        raise ConfigError("stack (with guards) overlaps code or data")

    reg = fresh_registers()
    reg[PC] = wc.inner
    reg[RDATA] = wd.inner
    # the cells are merged once; the memory takes the dict as it is
    mem = {**p.ms_code, **p.ms_data, b_stk - 1: 0, e_stk + 1: 0}
    if machine_kind == "target":
        reg[RSTK] = _new(MemCap, (Perm.RW, Lin.LINEAR, b_stk, e_stk, e_stk))
        return SourceConfig(Memory._of(
            mem, domain | Ranges.span(b_stk - 1, e_stk + 1)), reg)
    if machine_kind == "source":
        reg[RSTK] = _new(StkPtr, (Perm.RW, b_stk, e_stk, e_stk))
        # the two guards, apart: b_stk <= e_stk
        guards = Ranges._new((b_stk - 1, e_stk + 1), (b_stk - 1, e_stk + 1))
        return SourceConfig(Memory._of(mem, domain | guards), reg, (),
                            Memory._of({}, Ranges.span(b_stk, e_stk)))
    raise ConfigError(f"unknown machine kind {machine_kind!r}")


# ---------------------------------------------------------------------------
# Container format

# each section's name and the keys its header takes
_SECTIONS = {"code": ("base",), "data": (), "imports": (), "exports": (),
             "seals": ("ret", "clos"), "linear": (), "main": ()}


# what a line of each two-field section holds: its first token, then
# the rest
_PAIRS = {"data": "address word", "imports": "symbol address",
          "exports": "symbol word"}


@lru_cache(maxsize=256)
def _header(line):
    """The name of a section header ``[name key=value ...]`` and what its
    keys give: a ``[code]`` block's first address (its pad's), the
    ``(ret, clos)`` seal sets of ``[seals]``, None for any other.
    Memoized by the line, as ``parse_word`` is: no error is stored."""
    words = line[1:-1].split() if line.endswith("]") else []
    if not words or words[0] not in _SECTIONS:
        raise ValueError(f"bad section header {line!r}")
    name, keys = words[0], {}
    for field in words[1:]:
        key, eq, value = field.partition("=")
        if not eq or key not in _SECTIONS[name]:
            raise ValueError(f"[{name}] takes no field {field!r}")
        if key in keys:
            raise ValueError(f"[{name}] repeats {key}=")
        keys[key] = value
    if name == "code":
        if "base" not in keys:
            raise ValueError("[code] needs base=")
        return name, parse_int(keys["base"]) - 1   # the pad precedes it
    if name == "seals":
        return name, (Ranges.parse(keys.get("ret", "")),
                      Ranges.parse(keys.get("clos", "")))
    return name, None


def parse_component(text: str) -> Component:
    code: dict = {}
    data: dict = {}
    imports: list = []
    exports: list = []
    seals = None          # (ret, clos) of the [seals] header
    linear = _NO_INTS     # the union of every [linear] line
    mains: list = []
    section = None
    code_next = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if ";" in line and line[0] != "[":   # a header is read whole
            line = line.partition(";")[0].rstrip()
        if not line:
            continue
        try:
            if line[0] == "[":
                section, value = _header(line)
                if section == "code":
                    code_next = value
                elif section == "seals":
                    if seals is not None:
                        raise ValueError("[seals] given twice")
                    seals = value
            elif section == "code":
                if code_next in code:
                    raise ValueError(f"address {code_next} given twice")
                code[code_next] = parse_word(line)
                code_next += 1
            elif section in _PAIRS:
                fields = line.split(None, 1)
                if len(fields) != 2:
                    raise ValueError(
                        f"expected {_PAIRS[section]}, got {line!r}")
                first, rest = fields
                if section == "data":
                    if (a := parse_int(first)) in data:
                        raise ValueError(f"address {a} given twice")
                    data[a] = parse_word(rest)
                elif section == "imports":
                    imports.append((parse_int(rest), first))
                else:
                    exports.append((first, parse_word(rest)))
            elif section == "linear":
                linear |= Ranges.parse(line)
            elif section == "main":
                mains.append(parse_word(line))
            else:
                raise ValueError("content outside a section")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None

    if mains and len(mains) != 2:
        raise ValueError("[main] needs exactly two words")
    return Component(code, data, tuple(imports), tuple(exports),
                     *(seals or (_NO_INTS, _NO_INTS)), linear,
                     tuple(mains) if mains else None)


def format_component(c: Component) -> str:
    """The container text of ``c``: each line is joined in C, with no
    Python-level call but a record's ``repr``; the sets are read through
    ``Ranges._lo`` and ``_hi``."""
    code, data, lines = c.ms_code, c.ms_data, []
    blocks = Ranges.of(code)   # one section per block
    for lo, hi in zip(blocks._lo, blocks._hi):
        lines.append(f"[code base={lo + 1}]")
        lines += map(repr, map(code.__getitem__, range(lo, hi + 1)))
    lines.append("[data]")
    lines += starmap("{}\t{!r}".format, sorted(data.items()))
    if c.imports:
        lines.append("[imports]")
        lines += starmap("{1}\t{0}".format, c.imports)
    texts = {}   # id of each exported word -> its text
    if c.exports:
        lines.append("[exports]")
        names, words = zip(*c.exports)
        reprs = [*map(repr, words)]
        lines += map("{}\t{}".format, names, reprs)
        texts = dict(zip(map(id, words), reprs))
    if c.sig_ret._lo or c.sig_clos._lo:
        lines.append(f"[seals ret={c.sig_ret} clos={c.sig_clos}]")
    if c.a_linear._lo:
        lines += ["[linear]", str(c.a_linear)]
    if c.mains is not None:
        # a main word is most often an exported one, the same object,
        # whose text is reused
        lines.append("[main]")
        for w in c.mains:
            lines.append(texts.get(id(w)) or repr(w))
    return "\n".join(lines) + "\n"
