"""Golden bits: SHA-256 of outputs whose last bits depend on summation order.

The values were recorded before the dense generator basis left the evaluation
paths.  Reordering a sum (a BLAS product, one einsum over a whole family, a
pairwise reduction) changes exactly these bytes while every tolerance-based
test still passes, so these pin the arithmetic, not just the numbers.
"""

import hashlib

import pytest

from cohwit import bloch_vector, sample_ginibre, state_from_bloch
from cohwit.cli import run

# 35 generator coefficients for d = 6, with zeros and both signs.
ETA_6 = ",".join(str(((i + 3) % 7 - 3) / 4) for i in range(35))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "d,samples,K,digest",
    [
        (4, 200, "1", "d17da951b0bf7cee848513db2f6eb785e3a6c57727c05ee431de2bbf6c71d44e"),
        (4, 200, "37", "413de39d13b9bc0104d6646a8b127563bdcc3afb6efe01da680fef58f03e780b"),
        (12, 40, "1", "b77d28defab6fcf97a58ccbb48f79dda96de3d05d554a91e539766213da024a5"),
        (12, 40, "37", "5a91c4b52dea93a42785d01f2fbb08b76453c435405e9c3bc50c328f5c499896"),
    ],
)
def test_verify_stdout(capsys, d, samples, K, digest):
    argv = ["verify", "--d", str(d), "--samples", str(samples), "--seed", "2024", "--K", K]
    assert run(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


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
