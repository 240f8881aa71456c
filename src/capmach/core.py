"""Shared domain types for both capability machines.

Words are either plain Python ints or one of the capability records
below, immutable tuples with named fields (see ``Record``).  A word's
repr is its literal, and ``parse_word`` reads it back (see ``LITERALS``).
Stack-pointer and return-pointer tokens are source-machine-only shapes;
nothing here enforces that (the source configuration owns that
distinction), but the target machine can never fabricate them.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Mapping
from itertools import chain
from dataclasses import dataclass
from enum import Enum
from typing import Union

INF = math.inf

Addr = int


class Perm(Enum):
    P0 = "0"
    R = "r"
    RW = "rw"
    RX = "rx"
    RWX = "rwx"

    # members are singletons, equal only to themselves: a C-level hash
    # (``Enum.__hash__`` is Python-level) agrees with ``==``
    __hash__ = object.__hash__

    def __repr__(self):
        return self.value


class Lin(Enum):
    LINEAR = "linear"
    NORMAL = "normal"

    __hash__ = object.__hash__   # as ``Perm``'s

    def __repr__(self):
        return self.value


# A permission is below another when it grants a subset of its rights
# (``0`` grants none): 0 < r < rw, rx < rwx, with rw and rx unordered.
_PERM_LEQ = frozenset((p, q) for p in Perm for q in Perm
                      if set(p.value) - {"0"} <= set(q.value))


def perm_leq(p: Perm, q: Perm) -> bool:
    return (p, q) in _PERM_LEQ


# tuples, not sets: ``in`` compares identity first, hashing nothing
READ_PERMS = (Perm.RWX, Perm.RW, Perm.RX, Perm.R)
WRITE_PERMS = (Perm.RWX, Perm.RW)
EXEC_PERMS = (Perm.RWX, Perm.RX)


class Record(tuple):
    """Base of the immutable records below: a tuple whose fields are
    named through ``namedtuple``.  A record equals only a record of its
    own type with equal fields, so ``RetPtrCode(1, 2, 3) != SealCap(1,
    2, 3)`` and no record equals a plain tuple; equal records hash
    equally.  Assigning an attribute raises ``AttributeError``."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    # tuple's own __ne__ would compare fields alone
    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class _WordRecord(Record):
    """Base of the word records.  A word's repr is its literal: the name
    ``LITERALS`` gives its class, then its fields' reprs in parentheses
    (``inf`` for an unbounded end).  ``parse_word`` reads it back."""

    __slots__ = ()

    def __repr__(self):
        return f"{_LITERAL_NAMES[type(self)]}({','.join(map(repr, self))})"


# Addresses and seal ids are ints; a capability's ``end`` may be INF.

class MemCap(_WordRecord, namedtuple("MemCap", "perm lin base end addr")):
    __slots__ = ()


class SealCap(_WordRecord, namedtuple("SealCap", "base end cur")):
    __slots__ = ()


class StkPtr(_WordRecord, namedtuple("StkPtr", "perm base end addr")):
    __slots__ = ()


class RetPtrData(_WordRecord, namedtuple("RetPtrData", "base end")):
    __slots__ = ()


class RetPtrCode(_WordRecord, namedtuple("RetPtrCode", "base end addr")):
    __slots__ = ()


SealableCap = Union[MemCap, SealCap, StkPtr, RetPtrData, RetPtrCode]


class Sealed(_WordRecord, namedtuple("Sealed", "sigma inner")):
    __slots__ = ()


Cap = Union[SealableCap, Sealed]
Word = Union[int, Cap]

_SEALABLE = (MemCap, SealCap, StkPtr, RetPtrData, RetPtrCode)


# ---------------------------------------------------------------------------
# Word literals: ``N`` for an int, ``kind(f1,...,fn)`` for a record

def _is_int(text: str) -> bool:
    # ASCII digits with an optional minus: the one spelling of an int in
    # a word, a container and an assembly
    return text.isascii() and text.removeprefix("-").isdigit()


def parse_int(text: str) -> int:
    """The int ``text`` spells; any other spelling raises ValueError."""
    if not _is_int(text):
        raise ValueError(f"bad int {text!r}")
    return int(text)


def _bound(text: str):
    return INF if text == "inf" else parse_int(text)


def _perm(text: str) -> Perm:
    return Perm(text.lower())


def _sealable(text: str):
    # refused before the recursion: a sealed word nests no other, so
    # nesting depth cannot exhaust the stack
    kind = text.partition("(")[0]
    if kind == "sealed" or kind not in LITERALS:
        raise ValueError(f"sealed wraps a sealable capability: {text!r}")
    return parse_word(text)


# literal name -> (record class, one parser per field)
LITERALS = {
    "cap": (MemCap, (_perm, Lin, int, _bound, int)),
    "seal": (SealCap, (int, _bound, int)),
    "stkptr": (StkPtr, (_perm, int, _bound, int)),
    "retptrcode": (RetPtrCode, (int, _bound, int)),
    "retptrdata": (RetPtrData, (int, _bound)),
    "sealed": (Sealed, (int, _sealable)),
}
# a record literal's body, checked once: on these characters ``int``
# reads ASCII digits with an optional minus and nothing else
_BODY_RE = re.compile(r"[-A-Za-z0-9,()]*\)")
_LITERAL_NAMES = {cls: name for name, (cls, _) in LITERALS.items()}


@functools.lru_cache(maxsize=4096)
def parse_word(text: str) -> Word:
    """The word whose repr is ``text``, surrounding blanks aside.

    A bounded memo keyed by the text: words are ints and immutable
    records, so one can be shared, and a literal that raises is stored
    nowhere and raises again."""
    text = text.strip()
    if _is_int(text):
        return int(text)
    kind, _, body = text.partition("(")
    entry = LITERALS.get(kind)
    if entry is None or _BODY_RE.fullmatch(body) is None:
        raise ValueError(f"bad word literal: {text!r}")
    cls, parsers = entry
    # only the last field, a sealed word's inner word, may hold commas
    fields = body[:-1].split(",", len(parsers) - 1)
    if len(fields) != len(parsers):
        raise ValueError(f"{kind} takes {len(parsers)} fields: {text!r}")
    return cls(*[parse(f) for parse, f in zip(parsers, fields)])


def is_sealable(w: Word) -> bool:
    return isinstance(w, _SEALABLE)


# module constants: ``Lin.LINEAR`` is a slow class-attribute lookup
_NORMAL, _LINEAR = Lin.NORMAL, Lin.LINEAR


def linear_range(w: Word):
    """The ``(base, end)`` a linear word owns, bare or under a seal, or
    None for a word that owns nothing."""
    while isinstance(w, Sealed):
        w = w.inner
    if isinstance(w, MemCap):
        return (w.base, w.end) if w.lin is _LINEAR else None
    if isinstance(w, (StkPtr, RetPtrData)):
        return (w.base, w.end)
    return None


def is_linear(w: Word) -> bool:
    return linear_range(w) is not None


def linear_overlaps(owners) -> list:
    """``(addr, earlier, later)`` for each ``(base, end, where)`` owner
    that starts inside an earlier one (by base): ``addr`` is the later
    owner's base, and both owners own it.  An empty range (base > end)
    owns nothing.  Empty exactly when no address has two owners."""
    out = []
    reach, holder = -INF, None   # the furthest end so far, and its owner
    for base, end, where in sorted(owners):
        if base > end:
            continue
        if base <= reach:
            out.append((base, holder, where))
        if end > reach:
            reach, holder = end, where
    return out


def lin_cons(w: Word) -> Word:
    """``w``, or 0 when it is linear: ``lin_cons(w) is w`` when ``w`` owns
    nothing.  Ints, and memory capabilities, stack pointers and return
    data pointers bare or under one seal (an atomic call's and a
    return's halves), are told in place, as ``harness._scan`` tells
    them; any other word goes through ``linear_range``."""
    t = type(w)
    if t is int or t is MemCap and w.lin is _NORMAL:
        return w
    v = w
    if t is Sealed:
        v = w[1]
        t = type(v)
    if t is MemCap:
        return 0 if v.lin is _LINEAR else w
    if t is StkPtr or t is RetPtrData:
        return 0
    return w if linear_range(v) is None else 0


def non_exec(w: Word) -> bool:
    return not (isinstance(w, MemCap) and w.perm in EXEC_PERMS)


# ---------------------------------------------------------------------------
# Register names

PC = "pc"
RRETDATA = "rretdata"
RRETCODE = "rretcode"
RSTK = "rstk"
RDATA = "rdata"
RTMP1 = "rtmp1"
RTMP2 = "rtmp2"

GEN_REGS = 16

REGISTERS = (
    PC, RRETDATA, RRETCODE, RSTK, RDATA, RTMP1, RTMP2,
) + tuple(f"r{i}" for i in range(GEN_REGS))

_REG_INDEX = {r: i for i, r in enumerate(REGISTERS)}


def is_register(name) -> bool:
    return name in _REG_INDEX


def fresh_registers() -> dict:
    return dict.fromkeys(REGISTERS, 0)


# ---------------------------------------------------------------------------
# Address sets

class Ranges:
    """An immutable set of ints as sorted runs ``lo..hi``, a gap between
    any two.  ``in``, ``covers`` and ``meets`` cost a bisect; ``len``,
    ``split`` and ``str`` (``1..3,5``) O(runs); ``&`` and ``-`` a bisect
    per run of the side with fewer; ``|`` and ``parse`` a sort of the
    runs, however many ints the runs hold.  Iteration ascends."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, runs=()):
        """The ints of the ``(lo, hi)`` pairs ``runs``, in any order."""
        los, his = [], []
        for lo, hi in sorted(r for r in runs if r[0] <= r[1]):
            if his and lo <= his[-1] + 1:
                his[-1] = max(his[-1], hi)
            else:
                los.append(lo)
                his.append(hi)
        self._lo, self._hi = tuple(los), tuple(his)

    @staticmethod
    def _new(los: tuple, his: tuple) -> "Ranges":
        r = object.__new__(Ranges)
        r._lo, r._hi = los, his
        return r

    @staticmethod
    def span(lo, hi) -> "Ranges":
        return Ranges._new((lo,), (hi,)) if lo <= hi else _NO_INTS

    @staticmethod
    def of(ints) -> "Ranges":
        """The ints of ``ints``: one sort, no Python loop per int."""
        if type(ints) is Ranges:
            return ints
        s = sorted(ints if isinstance(ints, (dict, frozenset, set))
                   else set(ints))
        if not s or s[-1] - s[0] == len(s) - 1:   # no run, or one
            return Ranges.span(s[0], s[-1]) if s else _NO_INTS
        gaps = [(a, b) for a, b in zip(s, s[1:]) if b - a > 1]
        return Ranges._new((s[0], *[b for _, b in gaps]),
                           (*[a for a, _ in gaps], s[-1]))

    @staticmethod
    def parse(text: str) -> "Ranges":
        """The set ``str`` wrote; a malformed run raises ValueError."""
        runs = []
        for part in filter(None, map(str.strip, text.split(","))):
            lo, dots, hi = part.partition("..")
            try:
                runs.append((parse_int(lo), parse_int(hi if dots else lo)))
            except ValueError:
                raise ValueError(f"bad run {part!r}") from None
        return Ranges(runs) if runs else _NO_INTS

    @property
    def runs(self) -> tuple:
        return tuple(zip(self._lo, self._hi))

    def bounds(self):
        """``(lowest, highest)`` of the set, or None when it is empty."""
        return (self._lo[0], self._hi[-1]) if self._lo else None

    def __contains__(self, a):
        i = bisect_right(self._lo, a)
        return i > 0 and a <= self._hi[i - 1]

    def covers(self, lo, hi) -> bool:
        """Whether all of ``lo..hi`` is in the set (``hi`` may be INF)."""
        i = bisect_right(self._lo, lo)
        return lo > hi or i > 0 and hi <= self._hi[i - 1]

    def meets(self, lo, hi) -> bool:
        """Whether some int of ``lo..hi`` is in the set: the first run
        that ends at ``lo`` or above, found by a bisect, starts at ``hi``
        or below."""
        i = bisect_left(self._hi, lo)
        return lo <= hi and i < len(self._lo) and self._lo[i] <= hi

    def __len__(self):
        return sum(self._hi) - sum(self._lo) + len(self._lo)

    def __bool__(self):
        return bool(self._lo)

    def __iter__(self):
        return chain(*map(range, self._lo, [hi + 1 for hi in self._hi]))

    def __eq__(self, other):
        if type(other) is not Ranges:
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self):
        return hash((self._lo, self._hi))

    def split(self, lo, hi):
        """(the ints ``lo..hi`` in the set, the others); ``hi`` may be INF."""
        los, his = self._lo, self._hi
        i, j = bisect_left(his, lo), bisect_right(los, hi)  # i..j-1 meet it
        if i >= j or lo > hi:
            return _NO_INTS, self
        first, last = los[i], his[j - 1]
        a = lo if lo > first else first   # the ends taken, with no call
        b = hi if hi < last else last
        below = ((first,), (a - 1,)) if first < a else ((), ())  # run i's
        above = ((b + 1,), (last,)) if b < last else ((), ())
        return (Ranges._new((a,) + los[i + 1:j], his[i:j - 1] + (b,)),
                Ranges._new(los[:i] + below[0] + above[0] + los[j:],
                            his[:i] + below[1] + above[1] + his[j:]))

    def __or__(self, other: "Ranges") -> "Ranges":
        a, b = (self, other) if self._lo < other._lo else (other, self)
        if not a._lo:
            return b
        gap = b._lo[0] - a._hi[-1]   # > 0: all of a lies below b
        if gap > 1:
            return Ranges._new(a._lo + b._lo, a._hi + b._hi)
        if gap == 1:                 # a's last run and b's first touch
            return Ranges._new(a._lo + b._lo[1:], a._hi[:-1] + b._hi)
        return Ranges(zip(a._lo + b._lo, a._hi + b._hi))

    def __and__(self, other: "Ranges") -> "Ranges":
        """Each run of the side with fewer clips the runs of the other
        that it meets, found by a bisect."""
        if len(self._lo) > len(other._lo):
            self, other = other, self
        o_lo, o_hi = other._lo, other._hi
        los, his = [], []
        for lo, hi in zip(self._lo, self._hi):
            i, j = bisect_left(o_hi, lo), bisect_right(o_lo, hi)
            if i < j:
                los += (max(lo, o_lo[i]), *o_lo[i + 1:j])
                his += (*o_hi[i:j - 1], min(hi, o_hi[j - 1]))
        return Ranges._new(tuple(los), tuple(his)) if los else _NO_INTS

    def __sub__(self, other: "Ranges") -> "Ranges":
        """The ints of ``self`` in the gaps of ``other``."""
        if not other._lo:
            return self
        return self & Ranges._new((-INF, *[hi + 1 for hi in other._hi]),
                                  (*[lo - 1 for lo in other._lo], INF))

    def __str__(self):
        return ",".join(f"{lo}..{hi}" if lo < hi else str(lo)
                        for lo, hi in zip(self._lo, self._hi))

    def __repr__(self):
        return f"Ranges.parse({str(self)!r})"


_NO_INTS = Ranges()


# ---------------------------------------------------------------------------
# Memory

class Memory(Mapping):
    """A map from the addresses of ``domain``, a ``Ranges``, to words:
    every address that holds no written word reads 0.

    The written words sit in one dict, ``written``, which ``update`` and
    ``split`` copy: O(written cells) per change.  Only ``harness.run``
    writes ``written`` in place, in the memories it copied for itself,
    and ``source.exec_call``, in the part a ``split`` just made, each
    only at addresses already in the memory; every other caller treats
    a memory as immutable.  A read probes the
    dict, then the domain.  Iteration walks the domain, ascending."""

    __slots__ = ("written", "domain")

    def __init__(self, cells=(), domain: Ranges = None):
        """The cells of ``cells`` over ``domain`` (by default their
        addresses), which must hold them."""
        self.written = dict(cells)
        self.domain = Ranges.of(self.written) if domain is None else domain

    @staticmethod
    def _of(cells: dict, domain: Ranges) -> "Memory":
        m = Memory.__new__(Memory)
        m.written, m.domain = cells, domain
        return m

    def __getitem__(self, a):
        w = self.get(a)
        if w is None:
            raise KeyError(a)
        return w

    def get(self, a, default=None):
        w = self.written.get(a)
        if w is None:   # unwritten: 0 in the domain
            return 0 if a in self.domain else default
        return w

    def __contains__(self, a):
        return a in self.written or a in self.domain

    def __len__(self):
        return len(self.domain)

    def __iter__(self):
        return iter(self.domain)

    def __eq__(self, other):
        if not isinstance(other, Memory):
            return NotImplemented
        return self.domain == other.domain and all(
            x.get(a) == w for x, y in ((self, other), (other, self))
            for a, w in y.written.items())

    def __repr__(self):
        return f"Memory({self.written!r}, {self.domain!r})"

    def update(self, cells: "Memory") -> "Memory":
        """This memory joined with the memory ``cells``: its domain added
        and its written cells written.  An unwritten address of ``cells``
        keeps the word this memory holds there, and reads 0 when it
        holds none (a frame that comes back to the stack)."""
        return Memory._of({**self.written, **cells.written},
                          self.domain | cells.domain)

    def split(self, lo, hi):
        """(the cells ``lo..hi``, the rest) as memories; ``hi`` may be INF."""
        inside, outside = self.domain.split(lo, hi)
        rest = self.written.copy()
        part = {a: rest.pop(a) for a in self.written if lo <= a <= hi}
        return Memory._of(part, inside), Memory._of(rest, outside)


# ---------------------------------------------------------------------------
# Global constants threaded through the source semantics

@dataclass(frozen=True)
class GlobalConstants:
    ta: Ranges      # trusted addresses: any int iterable, kept as a Ranges
    stk_base: Addr
    # Harness knob: when False, call recognition and expansion use the
    # variant macro whose stack-base check is neutralized.
    check_stk_base: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ta", Ranges.of(self.ta))


# ---------------------------------------------------------------------------
# Field encodings

_PERM_ENC = {Perm.P0: 0, Perm.R: 1, Perm.RW: 2, Perm.RX: 3, Perm.RWX: 4}
_PERM_DEC = {v: k for k, v in _PERM_ENC.items()}
_P0 = Perm.P0


def enc_perm(p: Perm) -> int:
    return _PERM_ENC[p]


def dec_perm(n: int) -> Perm:
    # Total: anything outside the table decodes to the bottom permission.
    return _PERM_DEC.get(n, _P0)


def enc_lin(l: Lin) -> int:
    return 1 if l is _LINEAR else 0


TYPE_INT = 0
TYPE_MEMCAP = 1
TYPE_SEAL = 2
TYPE_SEALED = 3


def enc_type(w: Word) -> int:
    """Type code of a word.

    Stack tokens and return-pointer tokens report the memory-capability
    code: they stand in for the capabilities they represent.  The same
    function serves both machines (they agree on all shared words).
    """
    if isinstance(w, int):
        return TYPE_INT
    if isinstance(w, (MemCap, StkPtr, RetPtrData, RetPtrCode)):
        return TYPE_MEMCAP
    if isinstance(w, SealCap):
        return TYPE_SEAL
    if isinstance(w, Sealed):
        return TYPE_SEALED
    raise TypeError(f"not a word: {w!r}")


# ---------------------------------------------------------------------------
# Instructions

@dataclass(frozen=True)
class Instr:
    op: str
    args: tuple = ()

    def __repr__(self):
        if not self.args:
            return self.op
        return self.op + " " + " ".join(str(a) for a in self.args)


# op name -> operand signature: "n" a register or an immediate, "w" a
# register it writes, "r" any other register.  Only a jump sets pc: a
# jump's are "r", and any other that names pc at a "w" decodes to fail.
OPCODES = {
    "fail": "",
    "halt": "",
    "jmp": "r",
    "jnz": "rn",
    "gettype": "wr",
    "geta": "wr",
    "getb": "wr",
    "gete": "wr",
    "getp": "wr",
    "getlin": "wr",
    "move": "wn",
    "store": "rw",
    "load": "wr",
    "cca": "wn",
    "restrict": "wn",
    "lt": "wnn",
    "plus": "wnn",
    "minus": "wnn",
    "seta2b": "w",
    "xjmp": "rr",
    "cseal": "wr",
    "split": "wwwn",
    "splice": "www",
}

_OPLIST = tuple(OPCODES)
_OPIDX = {op: i for i, op in enumerate(_OPLIST)}
_NOPS = len(_OPLIST)

IMM_RANGE = 2 ** 31
_NREG = len(REGISTERS)
# Operand field radix: register indexes first, then zigzagged immediates.
_FIELD_RADIX = _NREG + 2 * IMM_RANGE

FAIL = Instr("fail")


class EncodingError(ValueError):
    pass


def mk_instr(op: str, *args) -> Instr:
    sig = OPCODES.get(op)
    if sig is None:
        raise EncodingError(f"unknown instruction {op!r}")
    if len(args) != len(sig):
        raise EncodingError(f"{op} expects {len(sig)} operands, got {len(args)}")
    for kind, a in zip(sig, args):
        if kind != "n":
            if not is_register(a):
                raise EncodingError(f"{op}: {a!r} is not a register")
        else:
            if not (is_register(a) or isinstance(a, int)):
                raise EncodingError(f"{op}: {a!r} is not a register or immediate")
    return Instr(op, tuple(args))


def _enc_field(a) -> int:
    if is_register(a):
        return _REG_INDEX[a]
    z = 2 * a if a >= 0 else -2 * a - 1
    if z >= 2 * IMM_RANGE:
        raise EncodingError(f"immediate {a} out of range")
    return _NREG + z


def enc_instr(i: Instr) -> int:
    sig = OPCODES.get(i.op)
    if sig is None or len(sig) != len(i.args):
        raise EncodingError(f"malformed instruction {i!r}")
    val = 0
    for a in reversed(i.args):
        val = val * _FIELD_RADIX + _enc_field(a)
    return val * _NOPS + _OPIDX[i.op]


def dec_instr(w: Word) -> Instr:
    """Total decoder: capabilities and non-image integers decode to fail."""
    if not isinstance(w, int):
        return FAIL
    return _dec_int(w)


@functools.lru_cache(maxsize=4096)
def _dec_int(w: int) -> Instr:
    if w < 0:
        return FAIL
    op = _OPLIST[w % _NOPS]
    rest = w // _NOPS
    sig = OPCODES[op]
    args = []
    for kind in sig:
        f = rest % _FIELD_RADIX
        rest //= _FIELD_RADIX
        if f < _NREG:
            args.append(REGISTERS[f])
        else:
            if kind != "n":
                return FAIL
            z = f - _NREG
            args.append(z // 2 if z % 2 == 0 else -(z + 1) // 2)
    if rest != 0:
        return FAIL
    return Instr(op, tuple(args))
