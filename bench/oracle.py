"""Expected verdicts and step counts, kept apart from the run under test.

Step counts are simulated statistics: they depend on the programs, not
on the host or on how fast the simulator is, so any change that only
speeds up the simulator must leave every number here unchanged.
"""

from __future__ import annotations

# Extra target steps per source call: the 15-step call prologue replaces
# the atomic call step and the 11-step return code follows the return
# xjmp (gate criterion 6: call-return runs in 8 source, 32 target steps).
TARGET_STEPS_PER_CALL = 24

# name -> (calls, source steps, target steps).  Every program halts on
# both machines, agrees, and has no paranoid violation.
CORPUS = {
    "halt": (0, 1, 1),
    "arith-loop": (0, 37, 37),
    "call-return": (1, 8, 32),
    "sequential-calls": (2, 15, 63),
    "nested-mixed": (1, 40, 64),
    "stack-locals": (1, 15, 39),
    "data-passing": (1, 12, 36),
    "deep-trusted": (2, 16, 64),
    "stack-smash": (0, 72, 72),
    "multi-seal": (1, 13, 37),
}

# name -> (source outcome, source steps, target outcome, target steps);
# each scenario must also report ``as_expected``.
SCENARIOS = {
    "partial-stack-return": ("failed", 7, "failed", 29),
    "second-stack": ("failed", 12, "failed", 33),
    "second-stack-nocheck": ("failed", 12, "halted", 38),
    "double-return": ("failed", 12, "failed", 36),
}


def check_corpus(name, verdict) -> bool:
    _, src_steps, trg_steps = CORPUS[name]
    s, t = verdict.source, verdict.target
    return (verdict.agreement and s.outcome == "halted" == t.outcome
            and (s.steps, t.steps) == (src_steps, trg_steps)
            and not s.violations and not t.violations)


def check_scenario(name, result) -> bool:
    s, t = result.verdict.source, result.verdict.target
    return (result.as_expected
            and (s.outcome, s.steps, t.outcome, t.steps) == SCENARIOS[name])


def check_spin(src, trg, fuel) -> bool:
    return all(r.outcome == "fuel-exhausted" and r.steps == fuel
               for r in (src, trg))


def call_stack_steps(plan):
    """Closed-form step counts (source, target) of the call-stack loop
    over ``plan``, a list of (cells, value) pairs, one per call.

    Source: 6 set-up steps and the final halt; per call 8 reload steps,
    the atomic call, 3 + 4w + 3 + 5w callback steps for w cells, the
    return xjmp and 2 loop steps.
    """
    calls = len(plan)
    swept = sum(w for w, _ in plan)
    source = 7 + 18 * calls + 9 * swept
    return source, source + TARGET_STEPS_PER_CALL * calls


def check_call_stack(src, trg, plan) -> bool:
    total = sum(w * v for w, v in plan)
    return (src.outcome == "halted" == trg.outcome
            and (src.steps, trg.steps) == call_stack_steps(plan)
            and src.final_cfg.reg["r6"] == total == trg.final_cfg.reg["r6"])
