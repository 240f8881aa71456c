"""Components: well-formedness checking, linking, initial configurations.

A component owns a contiguous code block (with one zero guard pad on
each side), a data segment, import/export symbol lists, two seal-id
sets (return seals and closure seals) and the set of addresses it may
hand out linear capabilities over; the three sets are ``Ranges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .asm import CALL_HEAD, call_cond, find_hidden_calls
from .core import (
    INF, PC, RDATA, RSTK, GlobalConstants, Lin, Memory, MemCap,
    Perm, Ranges, SealCap, Sealed, StkPtr, fresh_registers, is_linear,
    linear_overlaps, linear_range, non_exec, parse_int, parse_word, perm_leq,
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
        for name in ("sig_ret", "sig_clos", "a_linear"):
            v = getattr(self, name)
            if type(v) is not Ranges:
                object.__setattr__(self, name, Ranges.of(v))

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
    # return seal; a call starts at a cell that holds its first word
    claimed: dict = {}
    for a in sorted(a for a, w in c.ms_code.items() if w == CALL_HEAD):
        p = call_cond(c.ms_code, a, gc)
        if p is None:
            continue
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
    code, data, *fields, gc = key
    return tuple(validate_component(
        Component(dict(code), dict(data), *fields), gc))


def diagnostics(c: Component, gc: GlobalConstants) -> list:
    """``validate_component(c, gc)`` as a new list, run once per
    distinct content: the memo's key, built at every call, holds every
    cell, field and constant that validation reads, so a cell changed
    in place misses it."""
    return list(_verdict((tuple(c.ms_code.items()), tuple(c.ms_data.items()),
                          c.imports, c.exports, c.sig_ret, c.sig_clos,
                          c.a_linear, c.mains, gc)))


# ---------------------------------------------------------------------------
# Linking

class LinkError(ValueError):
    pass


def link(c1: Component, c2: Component) -> Component:
    """⋈: disjoint unions plus import resolution."""
    if c1.ms_code.keys() & c2.ms_code.keys():
        raise LinkError("code domains overlap")
    if c1.ms_data.keys() & c2.ms_data.keys():
        raise LinkError("data domains overlap")
    code = {**c1.ms_code, **c2.ms_code}
    data = {**c1.ms_data, **c2.ms_data}
    if code.keys() & data.keys():
        raise LinkError("linked code and data overlap")
    if c1.sig_ret & c2.sig_ret or c1.sig_clos & c2.sig_clos:
        raise LinkError("seal sets overlap")
    sig_ret = c1.sig_ret | c2.sig_ret
    sig_clos = c1.sig_clos | c2.sig_clos
    if sig_ret & sig_clos:
        raise LinkError("return and closure seals clash")
    if c1.a_linear & c2.a_linear:
        raise LinkError("linear address sets overlap")
    syms1 = {s for s, _ in c1.exports}
    syms2 = {s for s, _ in c2.exports}
    if syms1 & syms2:
        raise LinkError(f"duplicate exports: {sorted(syms1 & syms2)}")
    if c1.mains is not None and c2.mains is not None:
        raise LinkError("both sides carry mains")
    exports = dict(c1.exports)
    exports.update(c2.exports)
    imports = []
    for addr, sym in tuple(c1.imports) + tuple(c2.imports):
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
    if p.domain & Ranges.span(b_stk - 1, e_stk + 1):
        raise ConfigError("stack (with guards) overlaps code or data")

    reg = fresh_registers()
    reg[PC] = wc.inner
    reg[RDATA] = wd.inner
    mem = {**p.ms_code, **p.ms_data, b_stk - 1: 0, e_stk + 1: 0}
    if machine_kind == "target":
        reg[RSTK] = MemCap(Perm.RW, Lin.LINEAR, b_stk, e_stk, e_stk)
        domain = p.domain | Ranges.span(b_stk - 1, e_stk + 1)
        return SourceConfig(Memory(mem, domain), reg)
    if machine_kind == "source":
        reg[RSTK] = StkPtr(Perm.RW, b_stk, e_stk, e_stk)
        domain = p.domain | Ranges([(b_stk - 1, b_stk - 1),
                                    (e_stk + 1, e_stk + 1)])
        return SourceConfig(Memory(mem, domain), reg, (),
                            Memory((), Ranges.span(b_stk, e_stk)))
    raise ConfigError(f"unknown machine kind {machine_kind!r}")


# ---------------------------------------------------------------------------
# Container format

# each section's name and the keys its header takes
_SECTIONS = {"code": ("base",), "data": (), "imports": (), "exports": (),
             "seals": ("ret", "clos"), "linear": (), "main": ()}


def _header(line):
    """The name and keys of a section header ``[name key=value ...]``."""
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
    return name, keys


def _fields(line: str, what: str):
    """The two fields of a line that holds ``what``: its first token and
    the rest."""
    fields = line.split(None, 1)
    if len(fields) != 2:
        raise ValueError(f"expected {what}, got {line!r}")
    return fields


def parse_component(text: str) -> Component:
    code: dict = {}
    data: dict = {}
    imports: list = []
    exports: list = []
    seals = None          # (ret, clos) of the [seals] header
    linear: list = []     # the runs of every [linear] line
    mains: list = []
    section = None
    code_next = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line[:1] != "[":   # a header is read whole, ``;`` and all
            line = line.partition(";")[0].rstrip()
        if not line:
            continue
        try:
            if line[0] == "[":
                section, keys = _header(line)
                if section == "code":
                    if "base" not in keys:
                        raise ValueError("[code] needs base=")
                    # the pad precedes the base
                    code_next = parse_int(keys["base"]) - 1
                elif section == "seals":
                    sigs = (Ranges.parse(keys.get("ret", "")),
                            Ranges.parse(keys.get("clos", "")))
                    if seals is not None:
                        raise ValueError("[seals] given twice")
                    seals = sigs
            elif section == "code":
                if code_next in code:
                    raise ValueError(f"address {code_next} given twice")
                code[code_next] = parse_word(line)
                code_next += 1
            elif section == "data":
                addr, lit = _fields(line, "address word")
                if (a := parse_int(addr)) in data:
                    raise ValueError(f"address {a} given twice")
                data[a] = parse_word(lit)
            elif section == "imports":
                sym, addr = _fields(line, "symbol address")
                imports.append((parse_int(addr), sym))
            elif section == "exports":
                sym, lit = _fields(line, "symbol word")
                exports.append((sym, parse_word(lit)))
            elif section == "linear":
                linear += Ranges.parse(line).runs
            elif section == "main":
                mains.append(parse_word(line))
            else:
                raise ValueError("content outside a section")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None

    if mains and len(mains) != 2:
        raise ValueError("[main] needs exactly two words")
    return Component(code, data, tuple(imports), tuple(exports),
                     *(seals or (Ranges(), Ranges())), Ranges(linear),
                     tuple(mains) if mains else None)


def format_component(c: Component) -> str:
    lines = []
    prev = None
    for a in sorted(c.ms_code):   # one section per contiguous block
        if a - 1 != prev:
            lines.append(f"[code base={a + 1}]")
        lines.append(repr(c.ms_code[a]))
        prev = a
    lines.append("[data]")
    for a in sorted(c.ms_data):
        lines.append(f"{a}\t{c.ms_data[a]!r}")
    if c.imports:
        lines.append("[imports]")
        for addr, sym in c.imports:
            lines.append(f"{sym}\t{addr}")
    if c.exports:
        lines.append("[exports]")
        for sym, w in c.exports:
            lines.append(f"{sym}\t{w!r}")
    if c.sig_ret or c.sig_clos:
        lines.append(f"[seals ret={c.sig_ret} clos={c.sig_clos}]")
    if c.a_linear:
        lines += ["[linear]", str(c.a_linear)]
    if c.mains is not None:
        lines.append("[main]")
        lines.append(repr(c.mains[0]))
        lines.append(repr(c.mains[1]))
    return "\n".join(lines) + "\n"
