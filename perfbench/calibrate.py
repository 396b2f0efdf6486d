"""Machine-speed calibration.

On a shared two-core host the speed of the same command drifts by 20-60%
over seconds to minutes.  The benchmark times a fixed kernel just before and
just after every timed process and divides the process's wall time by the
mean kernel time over REF_KERNEL_S: the result is the time the process would
have taken on a machine on which the kernel takes REF_KERNEL_S.  The kernel
is numpy and scipy work of the kinds the program does (banded solves and
stencils on 4001-node arrays, float formatting) and uses no chemoshock code,
so a change to the program cannot move it.

Over ten runs per workload this cut the spread of the median wall time from
6-31% to 3-14%.  Kernels with more formatting or file writing tracked the
program worse: they speed up and slow down more than it does.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

# Kernel time that defines a calibrated second (about the kernel's time on
# the machine perfbench/baseline.json was recorded on).
REF_KERNEL_S = 0.080

_N = 4001
_SOLVES = 500
_FORMAT_ROWS = 6000


class Kernel:
    def __init__(self) -> None:
        self.ab = np.zeros((3, _N))
        self.ab[0, 2:] = -0.3
        self.ab[1, :] = 1.6
        self.ab[2, :-2] = -0.3
        self.rhs = np.linspace(1.0, 2.0, _N)

    def seconds(self) -> float:
        """Run the kernel once and return its wall time."""
        t0 = time.perf_counter()
        x = self.rhs
        for _ in range(_SOLVES):
            x = solve_banded((1, 1), self.ab, self.rhs + 1e-3 * np.gradient(x),
                             check_finite=False)
        rows = np.column_stack([x, x, x])[:_FORMAT_ROWS]
        text = "\n".join(" ".join("%.17g" % v for v in row) for row in rows)
        if len(text) < _FORMAT_ROWS:
            raise RuntimeError("calibration kernel produced no output")
        return time.perf_counter() - t0
