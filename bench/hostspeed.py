"""A fixed calibration workload that measures how fast the host runs right now.

The host this benchmark runs on is shared: its speed drifts by 20-30% over
minutes, and every timing of a run moves with it.  ``calibrate()`` times a
fixed mix of work that does not touch ``horbits`` (Fraction and dict churn
in the interpreter, int64 array passes in numpy, ``json.dumps`` with
indentation), so the ratio of a run's timings to its calibration time does
not depend on the host's momentary speed.  Its data are small (a few MiB),
so it does not raise the peak resident set of a run.
"""
from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

# median calibrate() time on the reference host (2 cores, Python 3.11.7,
# numpy 2.4.6); timings are reported as if the host ran at this speed
REFERENCE_S = 0.19

_ARRAY = np.arange(100_000, dtype=np.int64)
_WORK = np.empty_like(_ARRAY)
_RECORDS = [{"k": i, "v": [str(i) * 3, i * 0.5, [i, i + 1]]} for i in range(400)]


def _interpreter():
    acc = Fraction(0)
    table = {}
    for i in range(1, 9000):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, i % 7 + 1)
        table[(i, i * 7 % 13)] = (acc.numerator & 1023, str(i))
    return len(table)


def _numpy():
    work = _WORK
    np.copyto(work, _ARRAY)
    for _ in range(150):
        np.multiply(work, 3, out=work)
        work += 1
        np.remainder(work, 1_000_003, out=work)
    work.sort()
    return int(work[-1])


def _json():
    return sum(len(json.dumps(_RECORDS, indent=2)) for _ in range(20))


def calibrate() -> float:
    """Wall time of one run of the fixed calibration mix, in seconds."""
    start = time.perf_counter()
    _interpreter()
    _numpy()
    _json()
    return time.perf_counter() - start
