"""Golden bits: SHA-256 of outputs whose last bits depend on summation order.

The values were recorded before the dense generator basis left the evaluation
paths.  Reordering a sum (a BLAS product, one einsum over a whole family, a
pairwise reduction) changes exactly these bytes while every tolerance-based
test still passes, so these pin the arithmetic, not just the numbers.
"""

import hashlib

import numpy as np
import pytest
from splitmix64 import SplitMix64
from test_acceptance import containment_sweep

from cohwit import (
    bloch_vector,
    sample_ensemble,
    sample_ginibre,
    sample_hermitian,
    state_from_bloch,
)
from cohwit import witness
from cohwit.cli import run

# 35 generator coefficients for d = 6, with zeros and both signs.
ETA_6 = ",".join(str(((i + 3) % 7 - 3) / 4) for i in range(35))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "d,samples,K,digest",
    [
        (4, 200, "1", "817e43a21d0f2d9d44585d65456800659f9d68f2f73bb5ff5e19c3c72f16a5e8"),
        (4, 200, "37", "fb673191b00295081fb6e795fd93a3a6bc17e2d6fcd19feb2a7c8b2847f576ba"),
        (12, 40, "1", "b77d28defab6fcf97a58ccbb48f79dda96de3d05d554a91e539766213da024a5"),
        (12, 40, "37", "5a91c4b52dea93a42785d01f2fbb08b76453c435405e9c3bc50c328f5c499896"),
    ],
)
def test_verify_stdout(capsys, d, samples, K, digest):
    # The d = 4 cases at K != 0 were re-pinned when the built-in family moved
    # to its closed form, which sums the diagonal terms in another order: only
    # min_margin_detected moved, in its last bits.
    argv = ["verify", "--d", str(d), "--samples", str(samples), "--seed", "2024", "--K", K]
    assert run(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


def test_verify_stdout_with_the_error_budget(capsys):
    # With K = 1e6 every member's interval is the point 2.5e5, and a state
    # whose trace is off by up to 1e-9 moves its value by up to 2.5e-4: the
    # slack in the verdict rule.  Margins below it no longer count as hits,
    # so per_witness_hits and min_margin_detected differ from the output
    # before the slack (digest 4bdddf47...8603); the verdict is still PASS.
    # The closed-form kernel moved min_margin_detected in its last bits
    # (digest 436a49c6...3870 before it); the hits did not move.
    argv = ["verify", "--d", "4", "--samples", "200", "--seed", "2024", "--K", "1e6"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == "31696f62f1c60bf68d47e4191d79d1faf5e7db6d3140972b40e6bfb9d6367890"
    assert '"per_witness_hits": [100, 99, 100, 100, 100, 100, 100, 98, 100, 100, 99, 100]' in out


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["gen", "--kind", "eta", "--d", "6", "--K", "-1.5", "--eta", ETA_6],
            "23610e69fc24c6e3b46c2d4281d7aa00407248e4328d21c80162afd64d51f829",
        ),
        (
            ["gen", "--kind", "family", "--d", "5", "--K", "-2.5"],
            "2dcf714d660e5365c459587613844b7fe5317b12b5f86ae2c707547a1fd20ef7",
        ),
    ],
)
def test_gen_document(tmp_path, argv, digest):
    out = tmp_path / "doc.json"
    assert run([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


def test_bloch_csv_file(tmp_path):
    out = tmp_path / "cloud.csv"
    argv = ["bloch", "--K", "0.3", "--a", "1", "--b", "-0.5", "--c", "0.2", "--grid", "11"]
    assert run([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == "a11d7616b62cd92c11dc6d062fe04b21f15af6c7456161ac8d726a081df9544b"


def test_bloch_maps_d9():
    r = bloch_vector(sample_ginibre(9, 2024))
    assert sha256(r.tobytes()) == "50190af6df097d51b2b9d9ae97bc772f8dc0f36e7996ed332a6244a4a6a93b35"
    back = state_from_bloch(9, r)
    assert sha256(back.tobytes()) == "ccb72b339e852391b51e24190995c447c581be894b0b38e9974aa2ac6f353fed"


# The Box-Muller floats and whole seeded ensembles.  cos and sin run in numpy,
# whose float64 loops give libm's bits (tests/test_rng.py); log runs in math,
# because numpy's AVX-512 log differs from libm in the last bit on some
# inputs.  A vectorized log or a reordered trace or sum changes these bytes.


@pytest.mark.parametrize(
    "seed,n,digest",
    [
        (0, 1000, "50edf2559606317ef51bacbc1d4ac671717dfb81f7f3c28a91fa4eb197b33add"),
        (7, 999, "bc6ec7d8daec96d24d78fe399cba6e7ee78eb9d3e8c90da2b2a55109c76f1ef4"),
        (2**64 - 1, 64, "69e8418bb447291f9125549784f72b34e0be94b2a3b6a42cd7efde31b2a8b53a"),
        (-5, 64, "b820b2d35f30ae9db35ec096398407bff9d1b12dc34d99d401132935e6091698"),
    ],
)
def test_normals(seed, n, digest):
    assert sha256(np.array(SplitMix64(seed).normals(n)).tobytes()) == digest


@pytest.mark.parametrize(
    "d,n,seed,digest",
    [
        (2, 301, 1, "45db22c82ec1b2c20fc21cb8bb3697bdb011c80c1e1f41a4375c6746e5643242"),
        (3, 40, -7, "02f61d02619305dc159eca77c88b271167f028dd502122515baee5fe830f92d4"),
        (4, 1000, 5, "9dacb837ad30f11b6d877a13a53a297a8351450e69c05bcd43c7650c510b98c5"),
        (7, 33, 2**64 - 3, "8f59c99a7ced16ba4a5f3a05a413af1a3361d0d9a4e9f8108be29ac69d019976"),
        (18, 40, 2024, "5dc8716acda734f5fe942e07c0f72ba3ccbe5aec0bf203e15021a1a0f54c92fd"),
    ],
)
def test_mixed_ensemble(d, n, seed, digest):
    assert sha256(sample_ensemble(d, n, seed).tobytes()) == digest


def test_hermitian_samples():
    stack = np.array([sample_hermitian(5, 100 + t) for t in range(10)])
    assert sha256(stack.tobytes()) == "b2336ef61a1093aa43fbaadc45b606125911116dc92707a80fdc7819b0583869"


def test_containment_worst_violation():
    # The largest margin of 20 sampled Hermitian witnesses on 200 diagonal states.
    margins = containment_sweep(4, 20, 200, 11)[1][0]
    assert margins.max().hex() == "-0x1.4f4fbd7e20f30p-6"


def test_verify_builds_no_member_witness(monkeypatch, tmp_path, capsys):
    # The built-in family evaluates from (d, K, coefficients); only documents
    # and `members` build Witness objects.
    def refuse(*args, **kwargs):
        raise AssertionError("a Witness was built")

    with monkeypatch.context() as patch:
        patch.setattr(witness.Witness, "__init__", refuse)
        assert run(["verify", "--d", "18", "--samples", "40", "--seed", "1"]) == 0
    assert '"verdict": "PASS"' in capsys.readouterr().out
    # gen builds the members on demand; the digest is test_gen_document's pin.
    out = tmp_path / "doc.json"
    assert run(["gen", "--kind", "family", "--d", "5", "--K", "-2.5", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == "2dcf714d660e5365c459587613844b7fe5317b12b5f86ae2c707547a1fd20ef7"
