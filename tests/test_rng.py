import math

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from cohwit.rng import SplitMix64, _log, exponentials, normal_pairs, uniforms


def reference_stream(seed, n):
    """Straight transcription of the published splitmix64 recurrence."""
    mask = 2**64 - 1
    s = seed % 2**64
    out = []
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) % 2**64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_matches_published_seed_zero_vector():
    # First output from seed 0 is the widely circulated reference value.
    r = SplitMix64(0)
    assert r.next_uint64() == 0xE220A8397B1DCDAF
    assert r.next_uint64() == 0x6E789E6AA1B965F4
    assert r.next_uint64() == 0x06C45D188009454F


def test_matches_reference_transcription():
    for seed in (0, 1, 42, 123456789, 2**63):
        r = SplitMix64(seed)
        assert [r.next_uint64() for _ in range(50)] == reference_stream(seed, 50)


def test_seed_wraps_modulo_2_64():
    a = SplitMix64(5)
    b = SplitMix64(2**64 + 5)
    assert [a.next_uint64() for _ in range(5)] == [b.next_uint64() for _ in range(5)]


def test_uniform_range_and_determinism():
    r = SplitMix64(9)
    values = [r.uniform() for _ in range(10_000)]
    assert all(0.0 < v <= 1.0 for v in values)
    r2 = SplitMix64(9)
    assert values[:100] == [r2.uniform() for _ in range(100)]
    assert math.log(min(values)) < 0  # log is always finite on this range


def test_normals_look_standard():
    z = np.array(SplitMix64(7).normals(200_000))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs(np.mean(z**3)) < 0.03  # symmetric


def test_normals_odd_count_prefix_of_even():
    a = SplitMix64(3).normals(5)
    b = SplitMix64(3).normals(6)
    assert a == b[:5]


# Found by inverting the splitmix64 finalizer: the first uniform of UNIT_FIRST
# is exactly 1.0, so Box-Muller's r is 0; the second uniform of UNIT_SECOND is
# 1.0, so its first angle is 2 pi.
UNIT_FIRST, UNIT_SECOND = 0xF56E309E96A04737, 0x5736B6E51755CB22
ARRAY_SEEDS = [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -5, UNIT_FIRST, UNIT_SECOND]


def bits(values) -> list[int]:
    """The float64 bit patterns of values: unlike ==, tells -0.0 from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def dispatch(f) -> str:
    """numpy's version and the SIMD target its float64 ``f`` loop runs."""
    info = opt_func_info(func_name=f"^{f}$", signature="float64")[f]
    return f"numpy {np.__version__}, float64 {f} dispatch {info['dd']['current']}"


@pytest.mark.parametrize("m", [1, 2, 7, 8, 33])
def test_uniform_table_matches_scalar_stream(m):
    table = uniforms(ARRAY_SEEDS, m)
    assert table.shape == (len(ARRAY_SEEDS), m)
    for row, seed in zip(table, ARRAY_SEEDS):
        r = SplitMix64(seed)
        assert bits(row) == bits([r.uniform() for _ in range(m)])


@pytest.mark.parametrize("m", [0, 1, 7, 33, 2**13])  # 2**13 * 8 seeds: 2**16 pairs
def test_normal_pair_tables_match_scalar_stream(m):
    cos, sin = normal_pairs(ARRAY_SEEDS, m)
    assert cos.shape == sin.shape == (len(ARRAY_SEEDS), m)
    for c, s, seed in zip(cos, sin, ARRAY_SEEDS):
        r = SplitMix64(seed)
        pairs = [r.normal_pair() for _ in range(m)]
        assert bits(c) == bits([p[0] for p in pairs]), dispatch("cos")
        assert bits(s) == bits([p[1] for p in pairs]), dispatch("sin")


@pytest.mark.parametrize("m", [1, 6, 9])
def test_exponential_table_matches_scalar_stream(m):
    for row, seed in zip(exponentials(ARRAY_SEEDS, m), ARRAY_SEEDS):
        r = SplitMix64(seed)
        assert bits(row) == bits([-math.log(r.uniform()) for _ in range(m)])


def test_edge_seeds_reach_a_unit_uniform():
    assert uniforms([UNIT_FIRST], 1)[0, 0] == 1.0
    assert uniforms([UNIT_SECOND], 2)[0, 1] == 1.0
    cos, sin = normal_pairs([UNIT_FIRST, UNIT_SECOND], 1)
    assert bits([cos[0, 0], sin[0, 0]]) == bits([-0.0, -0.0])
    assert bits([cos[1, 0], sin[1, 0]]) == bits([1.998514358296115, -4.894948423874727e-16])
    assert bits(exponentials([UNIT_FIRST], 1)[0]) == bits([-0.0])


# The smallest and largest uniforms and the quarter turns.
EDGE_UNIFORMS = [2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 1.0]


@pytest.mark.parametrize("f", ["cos", "sin"])
def test_numpy_trig_gives_libm_bits(f):
    # normal_pairs runs numpy's cos and sin where SplitMix64 runs math's.
    u = np.concatenate([uniforms(range(16), 2**16).ravel(), EDGE_UNIFORMS])  # 2**20 stream draws
    angles = 2.0 * math.pi * u
    got = getattr(np, f)(angles)
    want = np.fromiter(map(getattr(math, f), angles.tolist()), np.float64, angles.size)
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (
        f"np.{f} differs from math.{f} on {bad.size} of {angles.size} angles "
        f"(first: {float(angles[bad[0]])!r}) under {dispatch(f)}; every seeded "
        "ensemble moves on this platform"
    )


def test_numpy_log_gives_libm_bits():
    # normal_pairs and exponentials run rng._log where SplitMix64 runs math.log;
    # normal_pairs passes a strided 2-D view, u[:, 0::2].
    u = np.concatenate([uniforms(range(16), 2**16).ravel(), EDGE_UNIFORMS])  # 2**20 stream draws
    kept = u.copy()
    for a in (u, u[: 2**20].reshape(16, 2**16)[:, 0::2], u[:0]):
        got = _log(a)
        want = np.fromiter(map(math.log, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)
        assert got.shape == a.shape
        bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert bad.size == 0, (
            f"rng._log differs from math.log on {bad.size} of the {a.shape} table's {a.size} "
            f"draws (first: {float(a.ravel()[bad[0]])!r}) under {dispatch('log')}; every "
            "seeded ensemble moves on this platform"
        )
    assert np.array_equal(u.view(np.uint64), kept.view(np.uint64))  # the input is left unchanged


def test_empty_tables():
    assert uniforms([], 4).shape == (0, 4)
    assert [t.shape for t in normal_pairs([], 3)] == [(0, 3), (0, 3)]
