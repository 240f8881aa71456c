"""Two capability machines, a secure calling convention, and a
differential harness for comparing them."""

from .core import (
    INF, GlobalConstants, Instr, Lin, Memory, MemCap, Perm, RetPtrCode,
    RetPtrData, SealCap, Sealed, StkPtr, dec_instr, dec_perm, enc_instr,
    enc_perm,
)
from .machine import step
from .source import SourceConfig, StackFrame
from .asm import (
    CALL_LEN, RET_PT_OFFSET, CallParams, assemble, call_cond, disassemble,
    expand_scall, find_hidden_calls,
)
from .components import (
    Component, format_component, initial_config, link, parse_component,
    validate_component,
)
from .harness import (
    DiffVerdict, RunReport, check_linearity, run_diff, run_report,
)

__all__ = [n for n in dir() if not n.startswith("_")]
