"""Host-speed references: fixed kernels timed beside every measurement.

The cores this benchmark runs on may be shared with other machines. For
seconds to minutes at a time everything then runs up to 2x slower. The
process stays on the CPU the whole time, only slower: its CPU time tracks
its wall time to within 1 %, so a CPU-time clock does not remove the
slowdown. What does is timing a fixed kernel, which no change to rssikit
touches, next to each measurement and rescaling the measurement to a host
that runs the kernel in its nominal time.

Different work slows down by different amounts, so each kind of
measurement has a kernel that does the same kind of work:

* ``INTERPRETER`` for the closed loop: per-item Python (dicts, float
  formatting and parsing) and numpy calls on 512-sample windows, all in a
  small working set, as the controller and its refits do;
* ``RECORDS`` for the offline pipeline: 80 000 small records built,
  scanned and partly formatted as CSV lines, a working set like that of
  the pipeline's 50 000-packet traces;
* ``STARTUP`` for set-up: a fresh interpreter that imports numpy.

The nominal times are about each kernel's time on a quiet host (2 vCPUs
of an Intel Xeon at 2.0 GHz), so rescaled times read as if measured there.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

_WINDOW = np.linspace(-3.0, 3.0, 512)
_Record = namedtuple("_Record", "seq t rssi tx")


def _interpreter_kernel() -> None:
    acc = 0.0
    table = {}
    for i in range(3000):
        x = i * 0.37 - 41.0
        s = f"{x:.2f}"
        acc += float(s)
        table[i & 255] = (s, x)
    w = _WINDOW
    for _ in range(150):
        d = w[1:] - w[:-1]
        acc += float(d @ d) + float(w.mean())


def _records_kernel() -> None:
    recs = [_Record(i, i * 0.005, -60.0 - (i % 17) * 0.5, None) for i in range(80_000)]
    sum(r.rssi for r in recs)
    [f"{r.seq},{r.t:.6f},{r.rssi:.2f}," for r in recs[::4]]


def _startup_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


@dataclass(frozen=True)
class Reference:
    kernel: Callable[[], None]
    # Calls per timing; their median damps a burst of interference.
    repeats: int
    nominal_ns: int

    def time_ns(self) -> int:
        """Median time of ``repeats`` kernel calls, in ns.

        The garbage collector is off meanwhile: otherwise the kernel's time
        would depend on how many objects the workload keeps alive.
        """
        clock = time.perf_counter_ns
        samples = []
        gc.disable()
        try:
            for _ in range(self.repeats):
                t0 = clock()
                self.kernel()
                samples.append(clock() - t0)
        finally:
            gc.enable()
        return int(statistics.median(samples))

    def scale(self, before_ns: int, after_ns: int) -> float:
        """Factor that rescales a time measured between two kernel timings."""
        return self.nominal_ns / ((before_ns + after_ns) / 2)


INTERPRETER = Reference(_interpreter_kernel, repeats=7, nominal_ns=2_500_000)
RECORDS = Reference(_records_kernel, repeats=1, nominal_ns=65_000_000)
STARTUP = Reference(_startup_kernel, repeats=1, nominal_ns=150_000_000)
