"""Deterministic 64-bit PRNG behind every sampler in this package.

The generator is splitmix64 (Steele/Lea/Vigna): the state advances by the
golden-ratio increment ``0x9E3779B97F4A7C15`` modulo 2**64 and each output is
finalized with two xor-shift-multiply rounds.  The recurrence is tiny and
fully specified here, so seeded ensembles can be reproduced bit-for-bit from
any language, not just Python.

Stream conventions, for the stream of one seed:

- a uniform maps one 64-bit output to a double in (0, 1] via
  ``((z >> 11) + 1) * 2**-53`` (never 0, so ``log`` is always safe);
- a normal pair consumes two uniforms ``u1, u2`` and applies Box-Muller:
  ``r = sqrt(-2 ln u1)``, ``theta = 2 pi u2``, returning
  ``(r cos theta, r sin theta)`` in that order.

Samplers are pure functions of an explicit seed; there is no hidden global
stream, so parallel sweeps can partition seed ranges freely.

After k steps the state is ``s + k * golden`` (mod 2**64) in closed form, so
draw k of every stream in a batch of seeds is one ``uint64`` broadcast with
no sequential loop.  ``uniforms(seeds, m)`` is the (len(seeds), m) table of
each seed's first m uniforms; ``normal_pairs(seeds, m)`` is the pair of
tables (r cos theta, r sin theta) of their first m normal pairs, and
``exponentials(seeds, m)`` is the ``-ln u`` table of their first m uniforms.
The integer stages, ``sqrt``, ``*`` and ``/`` (correctly rounded in IEEE 754)
and ``cos``, ``sin`` and ``log`` run in numpy.  numpy's float64 ``cos`` and
``sin`` return libm's bits at each x86-64 dispatch level (X86_V4, X86_V3 and
baseline).  Its SIMD ``log`` loops do not: the AVX-512 one differs from libm
in the last bit on some inputs, and so would change seeded ensembles from
one CPU to another.  ``_log`` therefore hands numpy partially overlapping
operands, which its SIMD loops refuse, so numpy runs its scalar loop, which
calls libm's ``log``, the function ``math.log`` calls.  The scalar oracle of
these tables, one seed and one draw at a time through ``math``, is
``tests/splitmix64.py``; ``tests/test_rng.py`` checks every table against it
bit for bit, and CI reruns that with the two wider levels disabled.

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


def _seed(seed: int) -> int:
    """``seed`` as a Python int; a seed that is not an integer is refused."""
    try:
        return operator.index(seed)
    except TypeError:
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}") from None


def uniforms(seeds: Sequence[int], m: int) -> np.ndarray:
    """(len(seeds), m) table; row i is the first m uniforms of ``seeds[i]``'s stream."""
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
    # as math.log does; and since forward iteration reads each element before
    # it is overwritten, numpy does not copy the input first.
    buf = np.empty(a.size + 1)
    buf[1:] = a.ravel()
    return np.log(buf[1:], out=buf[:-1]).reshape(a.shape)


def normal_pairs(seeds: Sequence[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """(r cos theta, r sin theta): two (len(seeds), m) tables; column k holds
    the k-th normal pair of every seed's stream."""
    u = uniforms(seeds, 2 * m)
    r = np.sqrt(-2.0 * _log(u[:, 0::2]))
    theta = 2.0 * math.pi * u[:, 1::2]
    return r * np.cos(theta), r * np.sin(theta)


def exponentials(seeds: Sequence[int], m: int) -> np.ndarray:
    """(len(seeds), m) table of ``-ln u`` over ``uniforms(seeds, m)``."""
    return -_log(uniforms(seeds, m))
