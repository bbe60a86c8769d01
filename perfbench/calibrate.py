"""Machine-speed probe used to steady the benchmark's timings.

On a shared machine the speed available to one process drifts by 20% or
more over tens of seconds, and the drift is largely common to all code.
``probe_s`` times a fixed piece of work shaped like fairvec's own (parse
floats from text, format floats, hash bytes, small BLAS products, dict
lookups in a Python loop). The benchmark runs it right before and right
after each timed operation and reports

    wall time * REFERENCE_S / mean(probe before, probe after)

that is, the operation's wall time at the speed the machine had when
REFERENCE_S was fixed. A program change moves this number exactly as it
moves the wall time; drift of the machine moves the probe as well and
cancels. Raw wall times are printed alongside.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Median probe_s on the 2-core machine the reference values were taken on.
REFERENCE_S = 0.034

_ROW = np.linspace(-1.0, 1.0, 300) * np.pi
_LINE = " ".join(format(v, ".6f") for v in _ROW)
_BYTES = bytes(range(256)) * 4096
_MATRIX = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
_INDEX = {f"w{i}": i for i in range(5000)}


def probe_s() -> float:
    """Seconds taken by the fixed probe work, about REFERENCE_S."""
    start = time.perf_counter()
    for _ in range(300):
        np.asarray(_LINE.split(" "), dtype=np.float64)
    for _ in range(40):
        " ".join(format(v, ".17g") for v in _ROW.tolist())
    for _ in range(4):
        hashlib.sha256(_BYTES).digest()
    product = _MATRIX
    for _ in range(12):
        product = _MATRIX @ product / 160.0
    total = 0
    for i in range(40000):
        total += _INDEX[f"w{i % 5000}"]
    return time.perf_counter() - start


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time at the reference machine speed."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
