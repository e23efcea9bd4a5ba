"""Host-speed calibration: a fixed pure-Python loop timed while work runs.

The benchmark runs on shared virtual CPUs whose speed moves in steps of up
to a third within seconds.  The program slows down with the host, so the time
of a fixed loop, measured again and again while the program runs, tells how
fast the host ran it.  Which loop follows the program best changed from one
stretch of minutes to the next: a loop allocating small Python objects did
in some, a loop of NumPy calls on tiny arrays in others.  This loop does
both, half and half, as the program does, and followed both engines'
workloads as closely as the better of the two in the stretches compared.
One 6 ms loop every 67 ms also followed the program closer than the
fastest of three 2 ms loops every 200 ms.

The benchmark reports the time of a pass in *reference seconds*: measured
seconds times ``CAL_REF_S`` times the mean of 1 / (calibration seconds) over
the calibrations taken during the pass, which is the time the pass would take
on a host that runs this loop in ``CAL_REF_S``.
"""
from __future__ import annotations

import time

import numpy as np

#: calibration seconds of the reference host (about those of the 2-vCPU
#: cloud VM running CPython 3.11 and NumPy 2.4 the benchmark was built on)
CAL_REF_S = 0.006
#: loop length of one calibration
CAL_ITERS = 220


def _loop(n: int) -> int:
    kept = []
    for i in range(n):
        a = np.asarray([i, i + 1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.cumsum(np.abs(a - 2.5))
        c = np.minimum(b, np.zeros(6) + i)
        kept.append({"k": (i, str(i)), "v": [bool(np.any(c > 3.0)), float(c[-1])], "s": np.stack([a, c])})
    return len(kept)


def calibrate() -> tuple[float, float]:
    """(wall, CPU) seconds of the fixed loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    _loop(CAL_ITERS)
    return time.perf_counter() - w0, time.process_time() - c0
