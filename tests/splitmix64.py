"""The scalar oracle of ``cohwit.rng``: one splitmix64 stream, one draw at a time.

``cohwit.rng`` computes whole tables of draws for many seeds at once; this
class is the recurrence and the stream conventions of that module's
docstring written out for one seed, with ``math``'s ``log``, ``sqrt``,
``cos`` and ``sin``.  The tests hold every table and every seeded sampler to
it bit for bit.  Seeds go through ``cohwit.rng._seed``, so a seed that is
not an integer is refused as the samplers refuse it.
"""

import math

from cohwit.rng import _seed

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream seeded by a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = _seed(seed) & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
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
