from itertools import product

from conftest import (
    HALT, NOWHERE, enc, ex, rw, rx, scfg, step, tcfg, with_cell,
)
from hypothesis import given, settings, strategies as st

from capmach import machine
from capmach.core import (
    OPCODES, REGISTERS, Instr, Lin, Memory, MemCap, Perm, Ranges, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, dec_instr, enc_instr, enc_lin,
    enc_perm, enc_type, linear_range, mk_instr,
)
from capmach.harness import run_report
from capmach.machine import FAILED, HALTED, NULL_EXTENSION, Running
from capmach.source import SOURCE_EXTENSION, SourceConfig


def regs_after(out):
    assert isinstance(out, Running)
    return out.cfg.reg


def test_pc_moves_to_the_next_cell():
    # the pc rule: after a register write or a store, pc moves to the
    # next cell, and a pc that is no memory capability fails.
    # Only a jump sets pc: the machine-level tests below pin what writing
    # pc does (a written operand named pc, a jump's target, move from pc).
    out = ex(tcfg(pc=rx(0, 9, 3)), "move", "r1", 7)
    assert regs_after(out)["pc"].addr == 4 and regs_after(out)["r1"] == 7
    out = ex(tcfg({5: 0}, pc=rx(0, 9, 3), r1=rw(5, 5, 5), r2=7),
             "store", "r1", "r2")
    assert regs_after(out)["pc"].addr == 4 and out.cfg.mem[5] == 7
    for pc in (0, Sealed(1, rx(0, 9, 3))):
        assert ex(tcfg(pc=pc), "move", "r1", 7) is FAILED
        assert ex(tcfg({5: 0}, pc=pc, r1=rw(5, 5, 5), r2=7),
                  "store", "r1", "r2") is FAILED


# (op, operands under which it runs on, the positions of the register
# operands it writes) for every instruction but a jump that writes a
# register.
_WRITERS = [
    (op, ("r3", "r1"), (0,))
    for op in ("gettype", "geta", "getb", "gete", "getp", "getlin", "move",
               "load")]
_WRITERS += [(op, ("r3", 1, 2), (0,)) for op in ("lt", "plus", "minus")]
_WRITERS += [
    ("cseal", ("r1", "r2"), (0,)), ("cca", ("r1", 1), (0,)),
    ("restrict", ("r1", enc_perm(Perm.R)), (0,)), ("seta2b", ("r1",), (0,)),
    ("store", ("r1", "r2"), (1,)), ("split", ("r3", "r4", "r1", 5), (0, 1, 2)),
    ("splice", ("r3", "r4", "r5"), (0, 1, 2))]


def test_handler_writing_pc_fails():
    # Only a jump sets pc.  Every other instruction whose written register
    # operand is pc fails at step 1 on both machines (a halt follows it);
    # with that operand not pc, the same instruction runs on.
    pc = rx(0, 9, 0)
    regs = dict(r1=rw(2, 8, 4), r2=SealCap(0, 9, 4), r4=rw(2, 4, 2),
                r5=rw(5, 8, 5))
    for op, args, written in _WRITERS:
        for at in (None,) + written:
            instr = mk_instr(op, *("pc" if i == at else a
                                   for i, a in enumerate(args)))
            cfg = scfg({0: enc_instr(instr), 1: HALT,
                        **{a: a for a in range(2, 9)}}, pc=pc, **regs)
            want = ("halted", 2) if at is None else ("failed", 1)
            for kind in ("source", "target"):
                r = run_report(cfg, kind, NOWHERE, 5)
                assert (r.outcome, r.steps) == want, (instr, kind)


def test_jump_target_is_checked_at_the_next_step():
    # A jump sets pc to its target as it is: a target that is no
    # executable capability fails at the next step, and a linear RX one
    # runs on.
    cases = [(5, "failed"), (SealCap(0, 9, 2), "failed"),
             (rw(0, 9, 2), "failed"),
             (MemCap(Perm.RX, Lin.LINEAR, 0, 9, 2), "halted")]
    for jump in (mk_instr("jmp", "r1"), mk_instr("jnz", "r1", "r2")):
        for target, outcome in cases:
            cfg = scfg({0: enc_instr(jump), 1: enc("fail"),
                        2: HALT}, pc=rx(0, 9, 0), r1=target, r2=1)
            for kind in ("source", "target"):
                r = run_report(cfg, kind, NOWHERE, 5)
                assert (r.outcome, r.steps) == (outcome, 2), (
                    jump, target, kind)


def test_store_through_pc():
    # pc is store's pointer operand, which is read, not written: an RWX
    # pc writes its own cell and runs on
    rwx = MemCap(Perm.RWX, Lin.NORMAL, 0, 9, 0)
    cfg = scfg({0: enc("store", "pc", "r2"), 1: HALT}, pc=rwx, r2=7)
    for kind in ("source", "target"):
        r = run_report(cfg, kind, NOWHERE, 5)
        assert (r.outcome, r.steps) == ("halted", 2), kind
        assert r.final_cfg.mem[0] == 7, kind
        assert r.final_cfg.reg["pc"] == rwx._replace(addr=1), kind


def test_move_from_pc():
    # move r5 pc copies a normal pc, which then moves on; a linear pc
    # cannot be both copied and kept, so the step fails
    mem = {0: enc("move", "r5", "pc"), 1: HALT}
    pc = rx(0, 9, 0)
    for kind in ("source", "target"):
        r = run_report(scfg(mem, pc=pc), kind, NOWHERE, 5)
        assert (r.outcome, r.steps) == ("halted", 2), kind
        assert r.final_cfg.reg["r5"] == pc, kind
        assert r.final_cfg.reg["pc"] == pc._replace(addr=1), kind
        linear = scfg(mem, pc=pc._replace(lin=Lin.LINEAR))
        r = run_report(linear, kind, NOWHERE, 5)
        assert (r.outcome, r.steps) == ("failed", 1), kind


def test_jmp_and_jnz():
    cap = rx(10, 20, 10)
    r = regs_after(ex(tcfg(pc=rx(0, 9, 0), r1=cap), "jmp", "r1"))
    assert r["pc"] == cap and r["r1"] == cap  # normal cap stays

    r = regs_after(ex(tcfg(pc=rx(0, 9, 0), r1=cap, r2=0), "jnz", "r1", "r2"))
    assert r["pc"].addr == 1  # fall through
    r = regs_after(ex(tcfg(pc=rx(0, 9, 0), r1=cap, r2=cap), "jnz", "r1", "r2"))
    assert r["pc"] == cap  # caps count as nonzero


def test_getters():
    pc = rx(0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc, r2=SealCap(2, 9, 5)), "geta", "r1", "r2"))
    assert r["r1"] == 5
    r = regs_after(ex(tcfg(pc=pc, r2=3), "getp", "r1", "r2"))
    assert r["r1"] == -1
    r = regs_after(ex(tcfg(pc=pc, r2=rw(2, 8, 4)), "getb", "r1", "r2"))
    assert r["r1"] == 2
    r = regs_after(ex(tcfg(pc=pc, r2=rw(2, 8, 4)), "gete", "r1", "r2"))
    assert r["r1"] == 8
    r = regs_after(ex(tcfg(pc=pc, r2=rw(2, 8, 4)), "getp", "r1", "r2"))
    assert r["r1"] == enc_perm(Perm.RW)
    lin = rw(0, 5, 0, Lin.LINEAR)
    r = regs_after(ex(tcfg(pc=pc, r2=Sealed(7, lin)), "getlin", "r1", "r2"))
    assert r["r1"] == enc_lin(Lin.LINEAR)
    r = regs_after(ex(tcfg(pc=pc, r2=Sealed(7, lin)), "gettype", "r1", "r2"))
    assert r["r1"] == enc_type(Sealed(7, lin))


def test_move():
    pc = rx(0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc), "move", "r1", 42))
    assert r["r1"] == 42
    lin = rw(0, 5, 0, Lin.LINEAR)
    r = regs_after(ex(tcfg(pc=pc, r2=lin), "move", "r1", "r2"))
    assert r["r1"] == lin and r["r2"] == 0
    # self-move of a linear cap keeps it (order of updates)
    r = regs_after(ex(tcfg(pc=pc, r1=lin), "move", "r1", "r1"))
    assert r["r1"] == lin
    assert ex(tcfg(pc=pc), "move", "pc", 1) is FAILED


def test_store():
    pc = rx(0, 9, 0)
    out = ex(tcfg({5: 0}, pc=pc, r1=rw(5, 5, 5), r2=7), "store", "r1", "r2")
    assert out.cfg.mem[5] == 7
    assert ex(tcfg({5: 0}, pc=pc, r1=rx(5, 5, 5), r2=7),
              "store", "r1", "r2") is FAILED
    assert ex(tcfg({}, pc=pc, r1=rw(5, 5, 5), r2=7),
              "store", "r1", "r2") is FAILED  # outside memory domain
    assert ex(tcfg({5: 0}, pc=pc, r1=rw(5, 6, 7), r2=7),
              "store", "r1", "r2") is FAILED  # out of bounds
    lin = rw(0, 1, 0, Lin.LINEAR)
    out = ex(tcfg({5: 0}, pc=pc, r1=rw(5, 5, 5), r2=lin), "store", "r1", "r2")
    assert out.cfg.mem[5] == lin and out.cfg.reg["r2"] == 0


def test_load():
    pc = rx(0, 9, 0)
    ro = MemCap(Perm.R, Lin.NORMAL, 5, 5, 5)
    load = enc("load", "r1", "r2")
    cfg = tcfg({0: load, 5: 9}, pc=pc, r2=ro)
    out = step(cfg)
    assert out.cfg.reg["r1"] == 9 and out.cfg.mem[5] == 9
    # a non-linear word stays in its cell: the load writes no memory
    assert out.cell is None
    seal = SealCap(0, 5, 0)
    cfg = tcfg({0: load, 5: seal}, pc=pc, r2=ro)
    out = step(cfg)
    assert out.cfg.reg["r1"] == seal and out.cell is None
    lin = rw(0, 1, 0, Lin.LINEAR)
    assert ex(tcfg({5: lin}, pc=pc, r2=ro), "load", "r1", "r2") is FAILED
    out = ex(tcfg({5: lin}, pc=pc, r2=rw(5, 5, 5)), "load", "r1", "r2")
    assert out.cfg.reg["r1"] == lin and out.cfg.mem[5] == 0
    # every kind of word, bare and under one or two seals: told in place
    # or through linear_range, a load clears the cell, and needs a
    # pointer that writes, exactly when linear_range finds it linear
    bare = [seal, rw(0, 1, 0), lin, StkPtr(Perm.RW, 0, 9, 3),
            RetPtrData(0, 9), RetPtrCode(0, 9, 4)]
    for w in [9] + bare + [Sealed(2, v) for v in bare] + \
            [Sealed(3, Sealed(2, v)) for v in bare]:
        linear = linear_range(w) is not None
        out = ex(tcfg({5: w}, pc=pc, r2=rw(5, 5, 5)), "load", "r1", "r2")
        assert (out.cfg.reg["r1"], out.cfg.mem[5]) == \
            (w, 0 if linear else w), w
        assert (ex(tcfg({5: w}, pc=pc, r2=ro), "load", "r1", "r2")
                is FAILED) == linear, w


def test_cca():
    pc = rx(0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc, r1=rw(0, 9, 5)), "cca", "r1", -1))
    assert r["r1"].addr == 4
    r = regs_after(ex(tcfg(pc=pc, r1=SealCap(0, 9, 2)), "cca", "r1", 3))
    assert r["r1"].cur == 5
    assert ex(tcfg(pc=pc, r1=7), "cca", "r1", 1) is FAILED
    assert ex(tcfg(pc=pc, r1=rw(0, 9, 0)), "cca", "r1", -1) is FAILED
    assert ex(tcfg(pc=pc, r1=SealCap(0, 9, 2)), "cca", "r1", -3) is FAILED
    assert ex(tcfg(pc=pc, r1=rw(0, 9, 5), r2=rw(0, 9, 5)),
              "cca", "r1", "r2") is FAILED  # operand not an integer


def test_restrict():
    pc = rx(0, 9, 0)
    c = MemCap(Perm.RWX, Lin.NORMAL, 0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc, r1=c), "restrict", "r1", enc_perm(Perm.R)))
    assert r["r1"].perm is Perm.R
    weak = MemCap(Perm.R, Lin.NORMAL, 0, 9, 0)
    assert ex(tcfg(pc=pc, r1=weak),
              "restrict", "r1", enc_perm(Perm.RW)) is FAILED
    p0 = MemCap(Perm.P0, Lin.NORMAL, 0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc, r1=p0), "restrict", "r1", enc_perm(Perm.P0)))
    assert r["r1"] == p0


def test_arith():
    pc = rx(0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc), "plus", "r0", 2, 3))
    assert r["r0"] == 5
    r = regs_after(ex(tcfg(pc=pc), "lt", "r0", 4, 4))
    assert r["r0"] == 0
    r = regs_after(ex(tcfg(pc=pc), "minus", "r0", 4, 6))
    assert r["r0"] == -2
    assert ex(tcfg(pc=pc, r1=rw(0, 1, 0)), "minus", "r0", "r1", 1) is FAILED


def test_seta2b():
    pc = rx(0, 9, 0)
    r = regs_after(ex(tcfg(pc=pc, r1=rw(2, 9, 7)), "seta2b", "r1"))
    assert r["r1"].addr == 2
    r = regs_after(ex(tcfg(pc=pc, r1=SealCap(3, 9, 8)), "seta2b", "r1"))
    assert r["r1"].cur == 3
    assert ex(tcfg(pc=pc, r1=Sealed(1, rw(0, 1, 0))), "seta2b", "r1") is FAILED


def test_cseal():
    pc = rx(0, 9, 0)
    c = rw(0, 5, 0)
    r = regs_after(ex(tcfg(pc=pc, r1=c, r2=SealCap(0, 9, 4)),
                      "cseal", "r1", "r2"))
    assert r["r1"] == Sealed(4, c)
    assert ex(tcfg(pc=pc, r1=c, r2=SealCap(0, 9, 10)),
              "cseal", "r1", "r2") is FAILED
    assert ex(tcfg(pc=pc, r1=Sealed(1, c), r2=SealCap(0, 9, 4)),
              "cseal", "r1", "r2") is FAILED
    assert ex(tcfg(pc=pc, r1=7, r2=SealCap(0, 9, 4)),
              "cseal", "r1", "r2") is FAILED


def test_split():
    pc = rx(0, 9, 0)
    c = rw(0, 10, 3, Lin.LINEAR)
    r = regs_after(ex(tcfg(pc=pc, r3=c), "split", "r1", "r2", "r3", 5))
    assert r["r1"] == rw(0, 5, 3, Lin.LINEAR)
    assert r["r2"] == rw(6, 10, 3, Lin.LINEAR)
    assert r["r3"] == 0
    assert ex(tcfg(pc=pc, r3=c), "split", "r1", "r2", "r3", 10) is FAILED
    s = SealCap(0, 9, 2)
    r = regs_after(ex(tcfg(pc=pc, r3=s), "split", "r1", "r2", "r3", 4))
    assert r["r1"] == SealCap(0, 4, 2) and r["r2"] == SealCap(5, 9, 2)
    assert r["r3"] == s  # seals are normal, not cleared


def test_splice():
    pc = rx(0, 9, 0)
    lo = rw(0, 5, 1, Lin.LINEAR)
    hi = rw(6, 10, 8, Lin.LINEAR)
    r = regs_after(ex(tcfg(pc=pc, r2=lo, r3=hi), "splice", "r1", "r2", "r3"))
    assert r["r1"] == rw(0, 10, 8, Lin.LINEAR)
    assert r["r2"] == 0 and r["r3"] == 0
    gap = rw(7, 10, 8, Lin.LINEAR)
    assert ex(tcfg(pc=pc, r2=lo, r3=gap), "splice", "r1", "r2", "r3") is FAILED
    other = MemCap(Perm.RX, Lin.LINEAR, 6, 10, 8)
    assert ex(tcfg(pc=pc, r2=lo, r3=other),
              "splice", "r1", "r2", "r3") is FAILED


def test_pointer_rules_keep_every_other_field():
    # cca, seta2b, restrict, split and splice each change one field of
    # each pointer they make, named here through ``_replace``, and keep
    # every other (a record equals only one of its own type); a stack
    # pointer is taken on the source and refused on the target, and a
    # seal capability by every rule but restrict
    seal = SealCap(2, 9, 5)
    kinds = [rw(2, 9, 5), rw(2, 9, 5, Lin.LINEAR),
             MemCap(Perm.RX, Lin.NORMAL, 2, 9, 5), StkPtr(Perm.RW, 2, 9, 5),
             seal]
    taken = 0
    for c, ext in product(kinds, (NULL_EXTENSION, SOURCE_EXTENSION)):
        last = c._fields[-1]     # addr, or a seal's cur
        lo = c._replace(base=0, end=1)   # spliced below c
        cases = [
            ("cca", ("r1", 2), {"r1": c._replace(**{last: 7})}),
            ("seta2b", ("r1",), {"r1": c._replace(**{last: 2})}),
            ("split", ("r2", "r3", "r1", 4), {
                "r1": machine.lin_cons(c), "r2": c._replace(end=4),
                "r3": c._replace(base=5)}),
            ("splice", ("r3", "r2", "r1"), {
                "r1": machine.lin_cons(c), "r2": machine.lin_cons(lo),
                "r3": c._replace(base=0)})]
        if c is not seal:
            cases.append(("restrict", ("r1", enc_perm(Perm.R)),
                          {"r1": c._replace(perm=Perm.R)}))
        for op, ops, want in cases:
            out = getattr(machine, f"exec_{op}")(
                scfg(r1=c, r2=lo), ext, NOWHERE, ops)
            if type(c) is StkPtr and ext is NULL_EXTENSION:
                assert out is FAILED, op
            else:
                assert out == want, (op, c, ext)
                taken += 1
        if c is seal:
            assert machine.exec_restrict(scfg(r1=c), ext, NOWHERE, (
                "r1", enc_perm(Perm.R))) is FAILED
    assert taken == 43   # 5 rules on 9 kinds and machines, less 2


def test_xjmp():
    pc = rx(0, 9, 0)
    code = rx(20, 30, 20)
    data = rw(40, 50, 40)
    r = regs_after(ex(tcfg(pc=pc, r1=Sealed(3, code), r2=Sealed(3, data)),
                      "xjmp", "r1", "r2"))
    assert r["pc"] == code and r["rdata"] == data
    assert ex(tcfg(pc=pc, r1=Sealed(3, code), r2=Sealed(4, data)),
              "xjmp", "r1", "r2") is FAILED
    assert ex(tcfg(pc=pc, r1=Sealed(3, code), r2=Sealed(3, code)),
              "xjmp", "r1", "r2") is FAILED  # executable data half
    assert ex(tcfg(pc=pc, r1=code, r2=data), "xjmp", "r1", "r2") is FAILED
    # one register for both halves: a normal word may be both, but a
    # linear one would be written into pc and rdata at once
    r = regs_after(ex(tcfg(pc=pc, r1=Sealed(3, data)), "xjmp", "r1", "r1"))
    assert r["pc"] == r["rdata"] == data and r["r1"] == Sealed(3, data)
    lin = rw(40, 50, 40, Lin.LINEAR)
    for ext, w in ((NULL_EXTENSION, lin), (SOURCE_EXTENSION, lin),
                   (SOURCE_EXTENSION, StkPtr(Perm.RW, 40, 50, 40))):
        assert ex(tcfg(pc=pc, r1=Sealed(3, w)), "xjmp", "r1", "r1",
                  ext=ext) is FAILED


def test_target_refuses_stack_pointers():
    # The same cell is mapped in both segments, so only the pointer kind
    # decides: the source accepts each case, the target refuses it.
    sp = StkPtr(Perm.RW, 0, 9, 5)
    cfg = scfg({5: 0}, ms_stk={5: 0}, pc=rx(0, 9, 0), r1=sp, r2=7,
               r7=StkPtr(Perm.RW, 0, 4, 2), r8=StkPtr(Perm.RW, 5, 9, 7))
    cases = [("store", "r1", "r2"), ("load", "r3", "r1"), ("cca", "r1", 1),
             ("restrict", "r1", enc_perm(Perm.R)), ("seta2b", "r1"),
             ("split", "r4", "r5", "r1", 6), ("splice", "r6", "r7", "r8")]
    for op, *args in cases:
        assert ex(cfg, op, *args) is FAILED, op
        assert isinstance(ex(cfg, op, *args, ext=SOURCE_EXTENSION),
                          Running), op


def _paper_access(op, ext, c, mem, w):
    """The load's or the store's writes, ``(registers, cells)``, from the
    paper's premises, or None when one fails: the pointer kind, the
    permission (readAllowed or writeAllowed), withinBounds, the address
    in the memory's domain, and for a load of a linear word
    linConsPerm.  ``r1`` holds the pointer ``c``, which indexes
    ``mem``; a load writes ``r3``, a store stores ``w`` from ``r2``."""
    kinds = (MemCap, StkPtr) if ext is SOURCE_EXTENSION else (MemCap,)
    if not (type(c) in kinds and c.base <= c.addr <= c.end
            and c.addr in mem.domain):
        return None
    may_read, may_write = "r" in c.perm.value, "w" in c.perm.value
    if op == "store":
        if not may_write:
            return None
        return {"r2": 0 if _linear(w) else w}, {c.addr: w}
    w = mem.written.get(c.addr, 0)
    if not may_read or _linear(w) and not may_write:
        return None
    return {"r3": w}, ({c.addr: 0} if _linear(w) else {})


def _linear(w):
    # the words the test loads and stores: ints and memory capabilities
    return isinstance(w, MemCap) and w.lin is Lin.LINEAR


def test_load_and_store_guards_against_the_paper():
    # every pointer kind, permission, address about the bounds 4..6 and
    # cell state (written, unwritten in the domain, outside it), with an
    # int, a normal and a linear word in the cell or in r2; the memory
    # under test sits in the segment the pointer indexes, an empty one in
    # the other
    pc = rx(40, 60, 50)
    domain = Ranges.span(0, 9)
    runs = 0
    for perm, a, w in product(Perm, (3, 4, 6, 7),
                              (7, rw(0, 3, 1), rw(0, 3, 1, Lin.LINEAR))):
        for c in (MemCap(perm, Lin.NORMAL, 4, 6, a),
                  MemCap(perm, Lin.LINEAR, 4, 6, a), StkPtr(perm, 4, 6, a),
                  SealCap(4, 6, a), a):
            seg = "ms_stk" if type(c) is StkPtr else "mem"
            for mem in (Memory({a: w}, domain), Memory({}, domain),
                        Memory({}, domain - Ranges.span(a, a))):
                reg = tcfg(pc=pc, r1=c, r2=w).reg
                cfg = SourceConfig(Memory(), reg)._replace(**{seg: mem})
                for op, args in (("load", ("r3", "r1")),
                                 ("store", ("r1", "r2"))):
                    for ext in (NULL_EXTENSION, SOURCE_EXTENSION):
                        out = ex(cfg, op, *args, ext=ext)
                        want = _paper_access(op, ext, c, mem, w)
                        case = (op, ext, c, w, mem)
                        runs += 1
                        if want is None:
                            assert out is FAILED, case
                            continue
                        regs, cells = want
                        assert out.wrote == {**regs, "pc": rx(40, 60, 51)}, \
                            case
                        assert out.cfg.reg == {**reg, **out.wrote}, case
                        # ``ex`` put the instruction in pc's cell, 50
                        written = mem if seg == "ms_stk" else \
                            with_cell(mem, 50, enc(op, *args))
                        for x, v in cells.items():
                            written = with_cell(written, x, v)
                        assert getattr(out.cfg, seg) == written, case
    assert runs == 5 * 4 * 3 * 5 * 3 * 2 * 2


def test_operands_read_in_place():
    # an immediate, a register holding an int and one holding a
    # capability, for cca, plus and jnz (any word but the int 0 jumps)
    pc = rx(0, 9, 0)
    cap = rw(0, 9, 5)
    cfg = tcfg(pc=pc, r1=cap, r2=2, r3=cap, r4=0, r5=rx(0, 9, 7))
    operands = ((2, 2), ("r2", 2), ("r3", None))
    for rn, n in operands:
        out = ex(cfg, "cca", "r1", rn)
        assert (out is FAILED) if n is None else \
            regs_after(out)["r1"] == rw(0, 9, 5 + n), rn
        for rm, m in operands:
            out = ex(cfg, "plus", "r0", rn, rm)
            assert (out is FAILED) if None in (n, m) else \
                regs_after(out)["r0"] == n + m, (rn, rm)
    for rn, jumps in ((0, False), (3, True), ("r4", False), ("r2", True),
                      ("r3", True)):
        r = regs_after(ex(cfg, "jnz", "r5", rn))
        assert r["pc"] == (rx(0, 9, 7) if jumps else rx(0, 9, 1)), rn


def test_step_guards():
    assert step(tcfg({0: HALT}, pc=rx(0, 0, 1))) is FAILED  # out of bounds
    assert step(tcfg({0: HALT}, pc=rw(0, 0, 0))) is FAILED  # not executable
    assert step(tcfg({0: HALT}, pc=rx(0, 0, 0))) is HALTED
    assert step(tcfg({}, pc=rx(0, 0, 0))) is FAILED  # unmapped cell


def test_run():
    def outcome(mem, fuel):
        r = run_report(tcfg(mem, pc=rx(0, 0, 0)), "target", NOWHERE, fuel)
        return r.outcome, r.steps

    assert outcome({0: HALT}, 10) == ("halted", 1)
    assert outcome({0: enc("fail")}, 10) == ("failed", 1)
    assert outcome({0: HALT}, 0) == ("fuel-exhausted", 0)


def test_step_determinism():
    cfg = tcfg({0: enc("plus", "r0", 1, 2), 1: HALT}, pc=rx(0, 1, 0))
    assert step(cfg) == step(cfg)


# ``step`` decodes through a memo keyed by the word; these pin what the
# memo must not change.

def test_self_modifying_code():
    # an rwx pc stores a new word into cell 3 and runs it, twice over
    # with different words: 10 is added, then 100
    add10, add100 = enc("plus", "r0", "r0", 10), enc("plus", "r0", "r0", 100)
    code = {0: enc("store", "r1", "r2"),
            1: enc("move", "r2", "r7"),
            2: enc("minus", "r5", "r5", 1),
            3: HALT,
            4: enc("jnz", "r6", "r5"),
            5: HALT}
    rwx = MemCap(Perm.RWX, Lin.NORMAL, 0, 9, 0)
    cfg = scfg(code, pc=rwx, r1=rwx._replace(addr=3), r2=add10, r5=2,
               r6=rwx, r7=add100)
    for kind in ("source", "target", "source"):
        r = run_report(cfg, kind, NOWHERE, 50)
        assert (r.outcome, r.steps) == ("halted", 11), kind
        assert r.final_cfg.reg["r0"] == 110, kind
        assert r.final_cfg.mem[3] == add100, kind


def test_decode_memo_is_bounded():
    # more distinct images than the memo holds: it is emptied when full,
    # and each step, before and after that, runs its own word; a word
    # whose operands name pc says so
    machine._DECODED.clear()
    for n in range(5000):
        out = ex(tcfg(pc=rx(0, 9, 0), r1=3), "plus", "r0", "r1", n)
        assert regs_after(out)["r0"] == 3 + n
        assert len(machine._DECODED) <= 4096
    assert 0 < len(machine._DECODED) < 4096   # emptied once, refilled
    for args in (("r0", "pc", 1), ("r0", 1, "pc")):
        ex(tcfg(pc=rx(0, 9, 0)), "plus", *args)
    for w, (name, ops, reads_pc) in machine._DECODED.items():
        instr = dec_instr(w)
        assert (name, ops) == ("exec_" + instr.op, instr.args)
        assert reads_pc == ("pc" in instr.args)
    assert sum(reads_pc for _, _, reads_pc in machine._DECODED.values()) \
        == 2


# every kind of word; and a few that pair up (an xjmp pair, adjacent
# capabilities to splice)
_POOLS = ([0, 1, 3, -1, 7, rx(0, 15, 2), rw(0, 15, 4),
           rw(20, 30, 25, Lin.LINEAR), MemCap(Perm.RWX, Lin.NORMAL, 0, 15, 6),
           StkPtr(Perm.RW, 20, 30, 22), SealCap(0, 9, 3), Sealed(3, rx(0, 15, 1)),
           Sealed(3, rw(0, 15, 2)), RetPtrData(20, 30), RetPtrCode(0, 15, 5)],
          [Sealed(3, rx(0, 15, 1)), Sealed(3, rw(0, 15, 2)), rw(0, 4, 2),
           rw(5, 15, 6)])


def _paper_pc(op, args, reg):
    """pc after a step of ``op args`` over the registers ``reg`` that
    runs on and pushes or pops no frame, by the paper's rule."""
    if op == "jmp":
        return reg[args[0]]
    if op == "jnz":
        x = args[1] if type(args[1]) is int else reg[args[1]]
        if type(x) is not int or x != 0:   # taken
            return reg[args[0]]
    if op == "xjmp":   # a plain pair: its code half, unsealed
        return reg[args[0]].inner
    return reg["pc"]._replace(addr=reg["pc"].addr + 1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.randoms(use_true_random=True))
def test_step_follows_the_paper_pc_rule(rng):
    # for each opcode, a step over its encoded word at pc that runs on
    # and pushes or pops no frame leaves pc where the paper's rule does
    for op, sig in OPCODES.items():
        args = tuple(rng.choice(REGISTERS) if k != "n" or rng.random() < 0.5
                     else rng.randint(-3, 12) for k in sig)
        w = enc_instr(Instr(op, args))
        at = rng.randint(0, 15)
        pool = rng.choice(_POOLS)
        mem = {a: rng.choice(pool) for a in range(16)}
        mem[at] = w
        reg = {r: rng.choice(pool) for r in REGISTERS}
        reg["pc"] = MemCap(rng.choice([Perm.RX, Perm.RWX]),
                           rng.choice([Lin.NORMAL, Lin.LINEAR]), 0, 15, at)
        cfg = scfg(mem, ms_stk={a: rng.choice(pool) for a in range(20, 31)},
                   **reg)
        for ext in (NULL_EXTENSION, SOURCE_EXTENSION):
            out = step(cfg, ext, NOWHERE)
            if isinstance(out, Running) and out.cfg.stk == cfg.stk:
                assert out.cfg.reg["pc"] == _paper_pc(op, args, cfg.reg), \
                    (op, args)


def test_non_instruction_cells_fail():
    # a capability, a negative int and an int that is no instruction's
    # image (fail's image plus a stray field) fail in one step
    for w in (rw(0, 9, 0), SealCap(0, 9, 0), -1, enc("fail") + 23 * 5):
        cfg = scfg({0: w, 1: HALT}, pc=rx(0, 9, 0))
        for kind in ("source", "target"):
            r = run_report(cfg, kind, NOWHERE, 5)
            assert (r.outcome, r.steps) == ("failed", 1), (w, kind)


def test_more_distinct_words_than_the_memo_holds():
    # 5000 distinct words (plus r0 r0 k, k = 1..5000), run twice
    n = 5000
    code = {k: enc("plus", "r0", "r0", k + 1) for k in range(n)}
    code[n] = HALT
    cfg = tcfg(code, pc=rx(0, n, 0))
    for kind in ("source", "target", "source"):
        r = run_report(cfg, kind, NOWHERE, n + 5)
        assert (r.outcome, r.steps) == ("halted", n + 1), kind
        assert r.final_cfg.reg["r0"] == n * (n + 1) // 2, kind
