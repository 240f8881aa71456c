"""Command-line front end.

Exit codes: 0 halted/agreement, 1 failed, 2 disagreement, 3 usage,
parse or file error, 4 invalid input.  ``main`` alone maps errors to the
last two.
"""

from __future__ import annotations

import argparse
import os
import sys

from .asm import CALL_HEAD, assemble
from .components import (
    Component, ConfigError, LinkError, format_component, initial_config,
    link, parse_component, validate_component,
)
from .core import GlobalConstants, Ranges, parse_int
from .fixtures import SCENARIOS, STK_BASE, STK_END
from .harness import DEFAULT_FUEL, ValidationFailure, diff_start, \
    format_trace, run_diff, run_report

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_DISAGREE = 2
EXIT_USAGE = 3
EXIT_INVALID = 4

DEFAULT_STACK = (STK_BASE, STK_END)


def _int(s):
    """An int as every input spells it (``core.parse_int``)."""
    try:
        return parse_int(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_range(s, what):
    try:
        lo, hi = s.split("..")
        lo, hi = parse_int(lo), parse_int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range lo..hi, got {s!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty {what} range {s!r}")
    return lo, hi


def _stack(s):
    return _parse_range(s, "stack")


def _ta(s):
    """``auto`` (the component's own code) or a range ``lo..hi``."""
    if s == "auto":
        return s
    return Ranges.span(*_parse_range(s, "trusted"))


def _fuel(s):
    n = _int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"fuel must be non-negative, got {n}")
    return n


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load(path):
    return parse_component(_read(path))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _gc(comp, args, stk_base):
    ta = comp.ms_code if args.ta == "auto" else args.ta
    return GlobalConstants(ta, stk_base, not args.no_check_stk_base)


def cmd_asm(args):
    res = assemble(_read(args.input), args.stk_base,
                   not args.no_check_stk_base)
    if not res.segment:
        raise ValueError("nothing to assemble")
    lo, hi = min(res.segment), max(res.segment)
    code = Component({lo - 1: 0, **res.segment, hi + 1: 0}, {})
    labels = "".join(f"; {name}\t{addr}\n" for name, addr in
                     sorted(res.labels.items(), key=lambda kv: kv[1]))
    _write(args.output, labels + format_component(code))
    return EXIT_OK


def cmd_validate(args):
    comp = _load(args.component)
    diags = validate_component(comp, _gc(comp, args, args.stk_base))
    for d in diags:
        print(d)
    return EXIT_INVALID if diags else EXIT_OK


def cmd_link(args):
    _write(args.output, format_component(link(_load(args.left),
                                              _load(args.right))))
    return EXIT_OK


def _print_report(report, prefix=""):
    print(f"{prefix}{report.outcome} after {report.steps} steps")
    for v in report.violations:
        print(f"{prefix}violation: {v}")


def _call_blocks(comp) -> int:
    """How many of ``comp``'s code blocks hold a call's first word."""
    return sum(any(comp.ms_code[a] == CALL_HEAD for a in range(lo, hi + 1))
               for lo, hi in Ranges.of(comp.ms_code).runs)


def cmd_run(args):
    prog = _load(args.program)
    # a linked container records no boundary between the trusted code
    # and the context's, and ``auto`` trusts every block: so when more
    # than one block makes calls, it would trust a context's calls too
    if args.ta == "auto" and _call_blocks(prog) > 1:
        raise ValueError("--ta auto would trust the calls of every code "
                         "block; give the trusted code as --ta lo..hi")
    b_stk, e_stk = args.stack
    gc = _gc(prog, args, b_stk)
    if not args.no_validate:
        diags = validate_component(prog, gc)
        if diags:
            raise ValidationFailure(diags)
    cfg = initial_config(prog, args.machine, b_stk, e_stk)
    report = run_report(cfg, args.machine, gc, args.fuel, args.paranoid)
    if args.trace:   # a second run: runs never write their input
        _write(args.trace, format_trace(cfg, args.machine, gc, args.fuel))
    _print_report(report)
    return EXIT_OK if report.outcome == "halted" else EXIT_FAILED


def cmd_diff(args):
    trusted, context = _load(args.trusted), _load(args.context)
    check = not args.no_check_stk_base
    v = run_diff(trusted, context, *args.stack, args.fuel, check,
                 args.paranoid, validate=not args.no_validate)
    if args.trace_dir:   # second runs, over run_diff's own inputs
        os.makedirs(args.trace_dir, exist_ok=True)
        gc, cfgs = diff_start(trusted, context, *args.stack, check,
                              validate=False)
        for kind, cfg in cfgs.items():   # as far as each diff run went
            _write(os.path.join(args.trace_dir, f"{kind}.trace"),
                   format_trace(cfg, kind, gc, getattr(v, kind).steps))
    _print_report(v.source, "source: ")
    _print_report(v.target, "target: ")
    if v.agreement:
        print("agreement")
        return EXIT_OK
    print(f"disagreement: {v.detail}")
    return EXIT_DISAGREE


def cmd_scenarios(args):
    if args.run is None:
        for name in SCENARIOS:
            print(name)
        return EXIT_OK
    if args.run not in SCENARIOS:
        raise ValueError(f"unknown scenario {args.run!r}")
    result = SCENARIOS[args.run]()
    v = result.verdict
    print(f"{result.name}: source {v.source.outcome} "
          f"({v.source.steps} steps), target {v.target.outcome} "
          f"({v.target.steps} steps)")
    print(f"expected {result.expected} "
          + ("observed" if result.as_expected else "NOT observed"))
    if not result.as_expected:
        return EXIT_FAILED
    return EXIT_DISAGREE if result.expected == "disagreement" else EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="capmach")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, stack=False):
        sp.add_argument("--no-check-stk-base", action="store_true")
        if stack:  # the low end of the stack is also its base
            sp.add_argument("--stack", type=_stack,
                            default=DEFAULT_STACK)
            sp.add_argument("--fuel", type=_fuel, default=DEFAULT_FUEL)
        else:
            sp.add_argument("--stk-base", type=_int, default=DEFAULT_STACK[0])

    sp = sub.add_parser("asm")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_asm)

    sp = sub.add_parser("validate")
    sp.add_argument("component")
    sp.add_argument("--ta", type=_ta, default="auto")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("link")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_link)

    sp = sub.add_parser("run")
    sp.add_argument("program")
    sp.add_argument("--machine", choices=("source", "target"),
                    required=True)
    sp.add_argument("--ta", type=_ta, default="auto")
    sp.add_argument("--trace")
    sp.add_argument("--paranoid", action="store_true")
    sp.add_argument("--no-validate", action="store_true")
    common(sp, stack=True)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("diff")
    sp.add_argument("trusted")
    sp.add_argument("context")
    sp.add_argument("--trace-dir")
    sp.add_argument("--paranoid", action="store_true")
    sp.add_argument("--no-validate", action="store_true")
    common(sp, stack=True)
    sp.set_defaults(fn=cmd_diff)

    sp = sub.add_parser("scenarios")
    sp.add_argument("--run")
    sp.set_defaults(fn=cmd_scenarios)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    # LinkError and ConfigError are ValueErrors, so they go first; a
    # defect anywhere else still shows its traceback
    try:
        return args.fn(args)
    except (LinkError, ConfigError, ValidationFailure) as e:
        for line in str(e).splitlines():
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
