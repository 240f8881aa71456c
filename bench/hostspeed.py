"""Host speed, measured by a fixed calibration kernel run between
operations.

On a shared VM the same interpreter runs the same code at very
different speeds from one second to the next (on a 2-vCPU host:
60 and 110 kstep/s a second apart, with no steal time), and a whole
run can fall in a slow stretch.  The kernel below is plain Python of
the kind the simulator runs (calls, small and large dict copies, frozen
dataclass updates, isinstance tests); it does not touch capmach, so a
change to capmach cannot change its time.  Dividing an operation's host
time by the kernel's current time, and multiplying by the kernel's
reference time, gives the operation's time at the reference host speed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

# Kernel time on the reference host: about its time on a 2-vCPU Intel
# Xeon VM at 2.0 GHz running Python 3.11, in that host's faster state.
# Only ratios against it matter; it is a constant, never fitted to a run.
REFERENCE_S = 0.0012
INTERVAL_S = 0.05    # calibrate at most this often
WINDOW = 3           # kernel samples in the running median


@dataclass(frozen=True)
class _Cap:
    base: int
    end: int
    addr: int


_BIG = {a: a for a in range(16 * 1024)}


def kernel():
    """About 1 ms of interpreter work and 0.4 ms of copying a large dict
    on the reference host: the blend that tracked the speed of all three
    workloads there best."""
    regs = {f"r{i}": i for i in range(23)}
    mem = {a: a for a in range(512)}
    cap = _Cap(0, 100, 0)
    acc = 0
    for i in range(400):
        r = dict(regs)
        r["r1"] = cap
        cap = replace(cap, addr=i % 100)
        if isinstance(r["r1"], _Cap) and cap.base <= cap.addr <= cap.end:
            acc += cap.addr
        if i % 8 == 0:
            m = dict(mem)
            m[i] = acc
    big = dict(_BIG)
    big[0] = acc
    return acc


class HostSpeed:
    """Running estimate of the host's speed against the reference."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")
        for _ in range(WINDOW):
            self.calibrate()

    def calibrate(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def tick(self):
        """Calibrate when ``INTERVAL_S`` has gone since the last time."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.calibrate()

    def factor(self):
        """Reference seconds per host second, right now."""
        return REFERENCE_S / statistics.median(self.samples[-WINDOW:])
