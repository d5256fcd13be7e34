"""Deterministic 64-bit PRNG behind every sampler in this package.

The generator is splitmix64 (Steele/Lea/Vigna): the state advances by the
golden-ratio increment ``0x9E3779B97F4A7C15`` modulo 2**64 and each output is
finalized with two xor-shift-multiply rounds.  The recurrence is tiny and
fully specified here, so seeded ensembles can be reproduced bit-for-bit from
any language, not just Python.

Stream conventions:

- ``uniform()`` maps one 64-bit output to a double in (0, 1] via
  ``((z >> 11) + 1) * 2**-53`` (never 0, so ``log`` is always safe).
- ``normal_pair()`` consumes two uniforms ``u1, u2`` and applies Box-Muller:
  ``r = sqrt(-2 ln u1)``, ``theta = 2 pi u2``, returning
  ``(r cos theta, r sin theta)`` in that order.

Samplers are pure functions of an explicit seed; there is no hidden global
stream, so parallel sweeps can partition seed ranges freely.

Array stream.  After k steps the state is ``s + k * golden`` (mod 2**64) in
closed form, so draw k of every stream in a batch of seeds is one ``uint64``
broadcast with no sequential loop.  ``uniforms(seeds, m)`` is the
(len(seeds), m) table of each seed's first m ``uniform()`` draws;
``normal_pairs(seeds, m)`` is the pair of tables (r cos theta, r sin theta)
of their first m ``normal_pair()`` draws, and ``exponentials(seeds, m)`` is
the ``-ln u`` table of their first m ``uniform()`` draws.  Row i of each
table equals the scalar draws of ``SplitMix64(seeds[i])`` bit for
bit.  The integer stages, ``sqrt``, ``*`` and ``/`` (correctly rounded in
IEEE 754) and ``cos``, ``sin`` and ``log`` run in numpy.  numpy's float64
``cos`` and ``sin`` return libm's bits at each x86-64 dispatch level
(X86_V4, X86_V3 and baseline).  Its SIMD ``log`` loops do not: the AVX-512
one differs from libm in the last bit on some inputs, and so would change
seeded ensembles from one CPU to another.  ``_log`` therefore hands numpy
partially overlapping operands, which its SIMD loops refuse, so numpy runs
its scalar loop, which calls libm's ``log``, the function that
:class:`SplitMix64` reaches through ``math``.  ``tests/test_rng.py`` checks
all three functions against ``math``, and CI reruns it with the two wider
levels disabled.  :class:`SplitMix64` stays the scalar recurrence the tables
are tested against.

Seeds are integers: anything ``operator.index`` refuses, such as ``1.5`` or
``np.float64(2.0)``, raises :class:`~cohwit.errors.InvalidParameterError`
rather than being truncated to another seed's stream.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Seeds are plain integers, interpreted modulo 2**64.
Seed = int


def _seed(seed: Seed) -> int:
    """``seed`` as a Python int; a seed that is not an integer is refused."""
    try:
        return operator.index(seed)
    except TypeError:
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}") from None


class SplitMix64:
    """splitmix64 stream seeded by a 64-bit integer."""

    def __init__(self, seed: Seed):
        self._state = _seed(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in (0, 1]."""
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normals (Box-Muller)."""
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)

    def normals(self, n: int) -> list[float]:
        """n standard normals; the unpaired tail draw is discarded for odd n."""
        out: list[float] = []
        while len(out) < n:
            out.extend(self.normal_pair())
        return out[:n]


def uniforms(seeds: Sequence[Seed], m: int) -> np.ndarray:
    """(len(seeds), m) table; row i is the first m ``SplitMix64(seeds[i]).uniform()`` draws."""
    s = np.array([_seed(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    k = np.arange(1, m + 1, dtype=np.uint64)
    z = s[:, None] + k * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


def _log(a: np.ndarray) -> np.ndarray:
    # libm's log of every element, in C.  The output sits one element behind
    # the input in one buffer.  numpy's SIMD log loops refuse such partially
    # overlapping operands, so it runs its scalar loop, which calls libm's log
    # as SplitMix64 does through math; and since forward iteration reads each
    # element before it is overwritten, numpy does not copy the input first.
    buf = np.empty(a.size + 1)
    buf[1:] = a.ravel()
    return np.log(buf[1:], out=buf[:-1]).reshape(a.shape)


def normal_pairs(seeds: Sequence[Seed], m: int) -> tuple[np.ndarray, np.ndarray]:
    """(r cos theta, r sin theta): two (len(seeds), m) tables; column k holds
    the k-th ``normal_pair()`` of every seed's stream."""
    u = uniforms(seeds, 2 * m)
    r = np.sqrt(-2.0 * _log(u[:, 0::2]))
    theta = 2.0 * math.pi * u[:, 1::2]
    return r * np.cos(theta), r * np.sin(theta)


def exponentials(seeds: Sequence[Seed], m: int) -> np.ndarray:
    """(len(seeds), m) table of ``-ln u`` over ``uniforms(seeds, m)``."""
    return -_log(uniforms(seeds, m))
