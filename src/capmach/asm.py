"""Assembler, the secure-call macro, hidden-call detection.

The call macro expands to a fixed 26-instruction sequence; the source
machine recognizes that exact sequence at trusted addresses (see
``call_cond``) and reinterprets it as one atomic step.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import contains
from typing import Optional

from .core import (
    OPCODES, PC, RDATA, RRETCODE, RRETDATA, RSTK, RTMP1, RTMP2,
    GlobalConstants, Instr, SealCap, _bound, _is_int, _new, dec_instr,
    enc_instr, is_register, mk_instr, parse_int, parse_word,
)

CALL_LEN = 26
CANARY = 42         # the word a call leaves at the caller's a_stk
_PC_READ_INDEX = 5  # ``move rtmp1 pc``: the pc-offset counts from here
_OFF_PC_INDEX = 6
_OFF_SIGMA_INDEX = 8
_XJMP_INDEX = 14
_FAIL_INDEX = 22
RET_PT_OFFSET = _XJMP_INDEX + 1  # first instruction of the return code


@dataclass(frozen=True)
class CallParams:
    off_pc: int
    off_sigma: int
    r1: str
    r2: str


def _call_instrs(off_pc, off_sigma, r1, r2, stk_base, check_stk_base=True):
    # The raw listing, no operand validation (recognition needs to match
    # sequences with arbitrary registers; the call rule rejects
    # ``CALL_WRITES``).
    base_check = (
        Instr("minus", (RTMP1, RTMP1, stk_base)) if check_stk_base
        else Instr("minus", (RTMP1, RTMP1, RTMP1))
    )
    return [
        Instr("move", (RTMP1, CANARY)),
        Instr("store", (RSTK, RTMP1)),
        Instr("cca", (RSTK, -1)),
        Instr("geta", (RTMP1, RSTK)),
        Instr("split", (RSTK, RRETDATA, RSTK, RTMP1)),
        Instr("move", (RTMP1, PC)),
        Instr("cca", (RTMP1, off_pc - _PC_READ_INDEX)),
        Instr("load", (RTMP1, RTMP1)),
        Instr("cca", (RTMP1, off_sigma)),
        Instr("cseal", (RRETDATA, RTMP1)),
        Instr("move", (RRETCODE, PC)),
        Instr("cca", (RRETCODE, 5)),
        Instr("cseal", (RRETCODE, RTMP1)),
        Instr("move", (RTMP1, 0)),
        Instr("xjmp", (r1, r2)),
        # return code
        Instr("getb", (RTMP1, RSTK)),
        base_check,
        Instr("move", (RTMP2, PC)),
        Instr("cca", (RTMP2, 5)),
        Instr("jnz", (RTMP2, RTMP1)),
        Instr("cca", (RTMP2, 1)),
        Instr("jmp", (RTMP2,)),
        Instr("fail", ()),
        Instr("splice", (RSTK, RSTK, RDATA)),
        Instr("cca", (RSTK, 1)),
        Instr("move", (RTMP2, 0)),
    ]


# The first cell of every call expansion.  Decoding is injective on
# instruction images, so a cell decodes to it exactly when it holds this.
CALL_HEAD = enc_instr(_call_instrs(0, 0, "r0", "r0", 0)[0])

# The registers the sequence writes before its xjmp.  The atomic call
# reads r1 and r2 as they were before the call, so the assembler, rule B
# (``components``) and ``source.exec_call`` refuse them as operands.
CALL_WRITES = frozenset(
    a for i in _call_instrs(0, 0, "r0", "r0", 0)[:_XJMP_INDEX]
    for kind, a in zip(OPCODES[i.op], i.args) if kind == "w")


def expand_scall(params: CallParams, stk_base: int,
                 check_stk_base: bool = True) -> list:
    """The 26-instruction expansion of call_{off_pc,off_sigma}(r1,r2)."""
    for r in (params.r1, params.r2):
        if not is_register(r):
            raise ValueError(f"call: {r!r} is not a register")
        if r in CALL_WRITES or r == PC:
            raise ValueError("call operands may not be pc or a register the "
                             "call writes: " + ", ".join(sorted(CALL_WRITES)))
    if params.off_pc < 0 or params.off_sigma < 0:
        raise ValueError("call offsets must be natural numbers")
    return _call_instrs(params.off_pc, params.off_sigma,
                        params.r1, params.r2, stk_base, check_stk_base)


@functools.lru_cache(maxsize=256)
def _call_images(off_pc, off_sigma, r1, r2, stk_base: int,
                 check_stk_base: bool) -> tuple:
    """The 26 images of ``expand_scall``, memoized by its arguments: a
    flat key, which hashes and compares in C."""
    return tuple(map(enc_instr, expand_scall(
        CallParams(off_pc, off_sigma, r1, r2), stk_base, check_stk_base)))


def _fixed_parts(stk_base, check_stk_base=True):
    """Each instruction of the call expansion that no parameter changes,
    mapped to the indexes it sits at."""
    fixed = {}
    expansion = _call_instrs(0, 0, "r0", "r0", stk_base, check_stk_base)
    for i, instr in enumerate(expansion):
        if i not in (_OFF_PC_INDEX, _OFF_SIGMA_INDEX, _XJMP_INDEX):
            fixed.setdefault(instr, []).append(i)
    return fixed


def _parts_of(instr, fixed):
    """The call-part indexes ``instr`` can stand at, in ascending order.

    Each parameter is read from one part only (pc-offset from 6, seal
    offset from 8, the register pair from 14), so the parts of one
    window never bind a parameter two ways.
    """
    parts = list(fixed.get(instr, ()))
    if instr.op == "cca" and instr.args[0] == RTMP1 \
            and isinstance(instr.args[1], int):
        if instr.args[1] + _PC_READ_INDEX >= 0:
            parts.append(_OFF_PC_INDEX)
        if instr.args[1] >= 0:
            parts.append(_OFF_SIGMA_INDEX)
    elif instr.op == "xjmp":
        parts.append(_XJMP_INDEX)
    return sorted(parts)


@functools.lru_cache(maxsize=4)
def _word_parts(stk_base, check_stk_base=True):
    """The function from a word to the ``_parts_of`` it decodes to,
    memoized by the word alone: an int key hashes in C, with no tuple
    built for it, and no ``Instr`` hashed and compared in Python."""
    fixed = _fixed_parts(stk_base, check_stk_base)
    return functools.lru_cache(maxsize=4096)(
        lambda w: tuple(_parts_of(dec_instr(w), fixed)))


def call_cond(mem, a: int, gc: GlobalConstants) -> Optional[CallParams]:
    """The parameters of the trusted call at ``a``, or None: the call
    expansion for ``gc``'s stack base and check, all 26 cells in
    ``gc.ta``.  Call recognition and validation's rule B both ask here.

    A window whose first cell is not the expansion's first instruction,
    or that is not all trusted, is rejected before anything is decoded.
    Otherwise the window's 26 words are read once, as a tuple, and
    ``_window_params`` decides them; a window it refuses that holds an
    unwritten cell is read again through the memory's domain.
    """
    # read in C: a Memory's written cells, or the plain dict itself, and
    # ``gc.ta.covers``'s bisect
    get = getattr(mem, "written", mem).get
    ta = gc.ta
    i = bisect_right(ta._lo, a)
    if get(a) != CALL_HEAD or not (i and a + CALL_LEN - 1 <= ta._hi[i - 1]):
        return None
    window = tuple(map(get, range(a, a + CALL_LEN)))
    params = _window_params(window, gc.stk_base, gc.check_stk_base)
    if params is None and None in window:   # 0 in a Memory's domain
        window = tuple(map(mem.get, range(a, a + CALL_LEN)))
        params = _window_params(window, gc.stk_base, gc.check_stk_base)
    return params


@functools.lru_cache(maxsize=4096)
def _window_params(window, stk_base, check_stk_base) -> Optional[CallParams]:
    """``call_cond``'s verdict on the words ``window``, memoized by them,
    never by an address: a store into a window is a new key.  4096
    entries of about 470 bytes (a 26-word key) bound the memo below
    2 MB; the benchmark's call-stack and corpus-diff need 1 and 8.

    Each word ``window[j]`` must be an integer that can stand at part
    ``j`` (see ``_parts_of``); the parameters are then read from parts
    6, 8 and 14.  The ``fail`` at part 22 is matched decoded, since
    every integer that is not an instruction image decodes to it, and
    so does a non-integer word: only that part tests for one."""
    parts = map(_word_parts(stk_base, check_stk_base), window)
    if not all(map(contains, parts, range(CALL_LEN))) \
            or not isinstance(window[_FAIL_INDEX], int):
        return None
    off_pc, off_sigma, xjmp = (dec_instr(window[j]) for j in (
        _OFF_PC_INDEX, _OFF_SIGMA_INDEX, _XJMP_INDEX))
    return CallParams(off_pc.args[1] + _PC_READ_INDEX, off_sigma.args[1],
                      *xjmp.args)


# ---------------------------------------------------------------------------
# Hidden-call detection

@dataclass(frozen=True)
class HiddenCallViolation:
    start: int       # first address of the would-be call sequence
    index: int       # the part index that triggered the match
    addr: int        # address of the triggering cell


def find_hidden_calls(code, stk_base: int,
                      check_stk_base: bool = True) -> list:
    """Report partial or overhanging call fragments in a code segment.

    Each start a cell's part points to is walked once: its window is a
    violation when each cell of it that the segment holds can stand at
    its part, but the segment does not hold all 26.  Each held cell of
    it is reported, by address and then by part.
    """
    # A non-integer cell can stand at no part.
    word_parts = _word_parts(stk_base, check_stk_base)
    parts = {a: word_parts(w) if isinstance(w, int) else ()
             for a, w in code.items()}
    violations = []
    for start in {a - i for a, ps in parts.items() for i in ps}:
        held = []
        for j in range(CALL_LEN):
            p = parts.get(start + j)
            if p is not None:
                if j not in p:
                    break
                held.append(j)
        else:
            if len(held) < CALL_LEN:
                violations += [HiddenCallViolation(start, j, start + j)
                               for j in held]
    violations.sort(key=lambda v: (v.addr, v.index))
    return violations


# ---------------------------------------------------------------------------
# Textual assembler

class AsmError(ValueError):
    """A malformed assembly; the message starts with ``line N: ``."""


@dataclass
class AsmResult:
    segment: dict
    labels: dict


_LABEL_RE = re.compile(r"([A-Za-z_][\w.]*):\s*")
_IMM_RE = re.compile(r"(@?)([A-Za-z_][\w.]*)([+-][0-9]+)?")


def _operands(parts, names: str):
    if len(parts) != 1 + len(names.split()):
        raise ValueError(f"{parts[0]} needs {names}")
    return parts[1:]


@functools.lru_cache(maxsize=4096)
def _operand(tok: str):
    """The register ``tok`` names, the int it spells (``parse_int``'s
    spelling), or None for any other token: a label, with an optional
    offset, or a malformed one.  Memoized by the token; it raises
    nothing, so it stores no error."""
    return tok if is_register(tok) else int(tok) if _is_int(tok) else None


@functools.lru_cache(maxsize=4096)
def _image(op: str, args: tuple) -> int:
    """The image of instruction ``op args``, memoized by its opcode and
    resolved operands: never by an address or a line of text."""
    return enc_instr(mk_instr(op, *args))


def assemble(src: str, stk_base: int = 0,
             check_stk_base: bool = True) -> AsmResult:
    """Assemble the textual format into a memory segment.

    One instruction per line; ``;`` comments; ``name:`` labels;
    directives .org/.word/.seal; the ``call`` macro occupies 26 cells
    and may name its seal by label (pc-offset is then computed relative
    to the macro's first address).  Any other head must be an
    instruction.  The first malformed line raises ``AsmError``.
    """
    labels, stmts, seg, addr = {}, [], {}, 0

    def resolve(tok, at):
        # an int, or a label with an optional offset; ``@`` makes it
        # relative to the statement's address ``at``
        if type(v := _operand(tok)) is int:
            return v
        m = _IMM_RE.fullmatch(tok)
        if m is None:
            return parse_int(tok)   # raises: neither an int nor a label
        rel, name, off = m.groups()
        if name not in labels:
            raise ValueError(f"unresolved label {name!r}")
        return labels[name] + int(off or 0) - (at if rel else 0)

    try:
        # pass 1: labels and addresses
        for n, raw in enumerate(src.splitlines(), 1):
            text = raw.split(";", 1)[0].strip() if ";" in raw else raw.strip()
            while ":" in text and (m := _LABEL_RE.match(text)):
                if m[1] in labels:
                    raise ValueError(f"duplicate label {m[1]!r}")
                labels[m[1]] = addr
                text = text[m.end():]
            parts = text.split()
            if parts and parts[0] == ".org":
                addr = parse_int(*_operands(parts, "addr"))
            elif parts:
                stmts.append((n, addr, parts, text))
                addr += CALL_LEN if parts[0] == "call" else 1
        # pass 2: each statement's words
        for n, addr, parts, text in stmts:
            head = parts[0]
            if head in OPCODES:
                args = tuple(map(_operand, parts[1:]))
                if None in args:   # a label, or a malformed token
                    args = tuple([resolve(t, addr) if a is None else a
                                  for t, a in zip(parts[1:], args)])
                words = [_image(head, args)]
            elif head == ".word":
                words = [parse_word(text[len(head):])]
            elif head == ".seal":
                base, end, cur = _operands(parts, "base end cur")
                words = [_new(SealCap, (resolve(base, addr), _bound(end),
                                        resolve(cur, addr)))]
            elif head == "call":
                seal, off_sigma, r1, r2 = _operands(
                    parts, "seal off_sigma r1 r2")
                off_pc = labels[seal] - addr if seal in labels \
                    else resolve(seal, addr)
                if off_pc < 0:
                    raise ValueError(
                        "call seal must sit at or after the macro")
                words = _call_images(off_pc, resolve(off_sigma, addr), r1,
                                     r2, stk_base, check_stk_base)
            else:
                raise ValueError(f"unknown instruction {head!r}")
            for a, w in enumerate(words, addr):
                if a in seg:
                    raise ValueError(f"address {a} assembled twice")
                seg[a] = w
    except ValueError as e:
        raise AsmError(f"line {n}: {e}") from None
    return AsmResult(seg, labels)
