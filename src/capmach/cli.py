"""Command-line front end.

Exit codes: 0 halted/agreement, 1 failed, 2 disagreement, 3 usage or
parse error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .asm import assemble, format_symbols, format_word
from .components import (
    ConfigError, LinkError, format_component, initial_config, is_program,
    link, parse_component,
)
from .core import GlobalConstants
from .fixtures import SCENARIOS
from .harness import (
    DEFAULT_FUEL, ValidationFailure, run_report, validate_component,
    write_trace,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_DISAGREE = 2
EXIT_USAGE = 3
EXIT_INVALID = 4

DEFAULT_STACK = (1000, 1063)


def _parse_range(s):
    try:
        lo, hi = s.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range lo..hi, got {s!r}") from None


def _stack(s):
    lo, hi = _parse_range(s)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty stack range {s!r}")
    return lo, hi


def _ta(s):
    """``auto`` (the component's own code) or a range ``lo..hi``."""
    return s if s == "auto" else _parse_range(s)


def _fuel(s):
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"fuel must be non-negative, got {n}")
    return n


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    """Write ``text`` to ``path``; exit code 0, or 3 with a message."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _gc(comp, args, stk_base):
    if args.ta == "auto":
        ta = frozenset(comp.ms_code)
    else:
        lo, hi = args.ta
        ta = frozenset(range(lo, hi + 1))
    return GlobalConstants(ta, stk_base, not args.no_check_stk_base)


def cmd_asm(args):
    try:
        res = assemble(_read(args.input), args.stk_base,
                       not args.no_check_stk_base)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    lines = ["[mem]"]
    for a in sorted(res.segment):
        lines.append(f"{a}\t{format_word(res.segment[a])}")
    text = "\n".join(lines) + "\n"
    if res.labels:
        text += "[symbols]\n" + format_symbols(res.labels)
    return _write(args.output, text)


def cmd_validate(args):
    try:
        comp = parse_component(_read(args.component))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    diags = validate_component(comp, _gc(comp, args, args.stk_base))
    for d in diags:
        print(d)
    return EXIT_INVALID if diags else EXIT_OK


def cmd_link(args):
    try:
        c1 = parse_component(_read(args.left))
        c2 = parse_component(_read(args.right))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        c3 = link(c1, c2)
    except LinkError as e:
        print(f"link error: {e}", file=sys.stderr)
        return EXIT_INVALID
    return _write(args.output, format_component(c3))


def _report_exit(report):
    print(f"{report.outcome} after {report.steps} steps")
    for v in report.violations:
        print(f"violation: {v}")
    return EXIT_OK if report.outcome == "halted" else EXIT_FAILED


def cmd_run(args):
    try:
        prog = parse_component(_read(args.program))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    b_stk, e_stk = args.stack
    gc = _gc(prog, args, b_stk)
    if not args.no_validate:
        diags = validate_component(prog, gc)
        if diags:
            for d in diags:
                print(d)
            return EXIT_INVALID
    try:
        cfg = initial_config(prog, args.machine, b_stk, e_stk)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    report = run_report(cfg, args.machine, gc, args.fuel, args.paranoid,
                        want_trace=args.trace is not None)
    if args.trace:
        write_trace(args.trace, args.machine, report.trace)
    return _report_exit(report)


def cmd_diff(args):
    from .harness import run_diff
    try:
        trusted = parse_component(_read(args.trusted))
        context = parse_component(_read(args.context))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        v = run_diff(trusted, context, *args.stack, args.fuel,
                     not args.no_check_stk_base, args.paranoid,
                     want_trace=args.trace_dir is not None,
                     validate=not args.no_validate)
    except (ValidationFailure, LinkError, ConfigError) as e:
        print(f"validation failure:\n{e}", file=sys.stderr)
        return EXIT_INVALID
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        write_trace(os.path.join(args.trace_dir, "source.trace"),
                    "source", v.source.trace)
        write_trace(os.path.join(args.trace_dir, "target.trace"),
                    "target", v.target.trace)
    print(f"source: {v.source.outcome} after {v.source.steps} steps")
    print(f"target: {v.target.outcome} after {v.target.steps} steps")
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
    fn = SCENARIOS.get(args.run)
    if fn is None:
        print(f"unknown scenario {args.run!r}", file=sys.stderr)
        return EXIT_USAGE
    result = fn()
    v = result.verdict
    print(f"{result.name}: source {v.source.outcome} "
          f"({v.source.steps} steps), target {v.target.outcome} "
          f"({v.target.steps} steps)")
    if result.expected == "disagreement":
        print("expected disagreement "
              + ("observed" if result.as_expected else "NOT observed"))
        return EXIT_DISAGREE if result.as_expected else EXIT_FAILED
    print("expected both-failed "
          + ("observed" if result.as_expected else "NOT observed"))
    return EXIT_OK if result.as_expected else EXIT_FAILED


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
            sp.add_argument("--stk-base", type=int, default=DEFAULT_STACK[0])

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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
