"""Host-speed calibration: a fixed kernel timed beside every op.

On a shared virtual machine the speed of a vCPU drifts with what the host's
other tenants do: a fixed pure-Python loop was seen to take anywhere from 17
to 30 ms within one minute, and to sit at either end for tens of seconds, so
two runs of the same code a few minutes apart differ by far more than any
bound worth setting.  CPU time drifts the same way (the vCPU is not
descheduled, it runs slower), so only a clock that runs on the same CPU at
the same time can take the drift out.

The benchmark runs ``Calibration`` right after every op, for a tenth of the
op's time and at least once, and keeps the mean time of one kernel run.  The
kernel is fixed work that does not touch shorsim: an integer loop in the
interpreter (the cost of shorsim's Python dispatch and of classical order
finding) and, when the workload simulates a state, one rotation of amplitude
pairs through int64 index arrays over a complex array of the workload's
largest state size (how shorsim's kernels gather and scatter, at the same
cache footprint).  An op's *host factor* is the median of the kernel times
after it and its neighbours, divided by the kernel's reference time;
dividing the op's wall time by the factor gives its time in reference
seconds.  A change to shorsim moves op times and not the kernel,
so it shows in full; drift of the host moves both and cancels.
"""

import statistics
import time

import numpy as np

PY_STEPS = 20_000
NEIGHBOURS = 5      # calibrations on each side of an op that set its factor
SHARE = 0.1         # kernel time after an op, as a share of the op's time

# Reference time of each kernel part, by workload state size: about its
# median time between the ops of that workload on an Intel Xeon (family 6,
# model 143) KVM guest with 2 vCPUs, CPython 3.11, numpy with OpenBLAS and
# one BLAS thread.  Any fixed value would do; these make op times in
# reference seconds read close to that host's wall seconds.  Run back to
# back, as after a set-up, the kernel is faster than between ops, so set-up
# times read up to twice their wall time.  The 16 MiB entry (full-20q, not
# gated) is scaled from the 4 MiB one.
REF_PY_S = 2.0e-3
REF_NP_S = {0: 0.0, 1 << 20: 3.7e-3, 2 << 20: 6.8e-3, 4 << 20: 12.5e-3, 16 << 20: 50e-3}


def _interpreter(steps: int = PY_STEPS) -> int:
    x, m = 12345, 1_000_003
    for i in range(steps):
        x = (x * 7 + i) % m
    return x


def _gather_scatter(amps: np.ndarray) -> None:
    """Rotate the amplitude pairs of qubit 2 through index arrays, as shorsim's kernels do."""
    bit = 1 << 2
    base = np.arange(amps.size // 2, dtype=np.int64)
    lo = ((base & ~(bit - 1)) << 1) | (base & (bit - 1))
    hi = lo | bit
    c, s = np.cos(1e-3), np.sin(1e-3)
    a0, a1 = amps[lo], amps[hi]
    amps[lo] = c * a0 - s * a1
    amps[hi] = s * a0 + c * a1


class Calibration:
    """The fixed kernel for a workload whose largest state is ``state_bytes``."""

    def __init__(self, state_bytes: int):
        if state_bytes not in REF_NP_S:
            raise ValueError(f"no reference time for a {state_bytes}-byte state")
        self.ref_s = REF_PY_S + REF_NP_S[state_bytes]
        self.amps = np.ones(state_bytes // 16, dtype=complex) if state_bytes else None

    def __call__(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        _interpreter()
        if self.amps is not None:
            _gather_scatter(self.amps)
        return time.perf_counter() - t0

    def after(self, op_s: float) -> float:
        """Mean kernel time over runs that together last ``SHARE`` of ``op_s``."""
        runs, spent = 0, 0.0
        while runs == 0 or spent < SHARE * op_s:
            spent += self()
            runs += 1
        return spent / runs

    def factor(self, samples) -> float:
        """Host factor of a set of kernel times: their median over ``ref_s``."""
        return statistics.median(samples) / self.ref_s


def host_factors(cal_s: list[float], calibration: Calibration) -> list[float]:
    """Per-op host factors from the kernel times taken after each op.

    Op i is set by the calibrations after ops i-NEIGHBOURS .. i+NEIGHBOURS
    (fewer at the ends of the run), so one disturbed calibration does not
    move an op and drift over a few seconds is followed.
    """
    n = len(cal_s)
    return [
        calibration.factor(cal_s[max(0, i - NEIGHBOURS):min(n, i + NEIGHBOURS + 1)])
        for i in range(n)
    ]
