"""Machine-speed calibration for shared, noisy hosts.

On a shared 2-vCPU host the same Python code runs up to 2x slower for
stretches of seconds to minutes, with no faults, system time or preemption to
show for it: the CPU itself is slower while a neighbour loads it.  A 20 s
run's median then depends on which stretch it landed in.

``measure()`` times a fixed kernel that touches what the cohwit workloads
touch (integer mixing in Python, float formatting, JSON encoding, small
complex numpy linear algebra), and that no change to ``src/`` can alter.  The
benchmark runs it between timed operations and reports each operation's
``wall time * REFERENCE_S / kernel time``, with the median kernel time around
the operation: wall time scaled to the speed of the reference machine.  A
program change moves the scaled time exactly as it moves wall time; a slow
stretch of the host moves both the operation and the kernel, and cancels.
Set-up times are scaled the same way by ``measure_startup()``, a reference
start-up process.  Raw wall times are kept in the run record."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

# Typical kernel time on the reference machine: 2-vCPU Intel Xeon virtual
# machine, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 0.0045
# Typical ``measure_startup()`` time on the same machine.
REFERENCE_STARTUP_S = 0.22

# A fresh interpreter that imports numpy and runs the kernel ten times: start-up
# is mostly loading shared libraries, whose speed does not follow the kernel's,
# so set-up times are scaled by this instead.
_STARTUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import calibrate; [calibrate.measure() for _ in range(10)]"

_rng = np.random.default_rng(20241026)
_MATS = [g @ g.conj().T for g in _rng.standard_normal((48, 4, 4)) + 1j * _rng.standard_normal((48, 4, 4))]
_FLOATS = [float(x) for x in _rng.standard_normal(1200)]
_DOC = {"entries": [[x, -x] for x in _FLOATS[:300]]}


def _kernel() -> int:
    z = 0
    for i in range(6000):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
    text = ",".join(repr(x) for x in _FLOATS)
    text += json.dumps(_DOC, indent=2)
    for m in _MATS:
        np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        float(np.max(np.abs(m - m.conj().T)))
        np.einsum("ij,ji->", m, m)
    return z + len(text)


def measure() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def measure_startup() -> float:
    """Wall time of the reference start-up process, in seconds."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _STARTUP_CODE, os.path.dirname(os.path.abspath(__file__))],
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - t0
