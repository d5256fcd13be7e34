import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import canonical_coherent, canonical_witness, finite_family, generator_witness
from cohwit.cli import (
    bloch_cloud,
    family_from_document,
    family_to_document,
    matrix_from_document,
    matrix_to_document,
    run,
    witness_from_document,
    witness_to_document,
)


def write_state(path, rho):
    path.write_text(json.dumps(matrix_to_document(rho.matrix)))


def read_rows(text):
    lines = text.splitlines()
    assert lines[0] == "x,y,z,value,verdict"
    rows = []
    for line in lines[1:]:
        x, y, z, value, verdict = line.split(",")
        rows.append((float(x), float(y), float(z), float(value), verdict))
    return rows


class TestDocuments:
    def test_matrix_roundtrip_is_exact(self):
        M = np.array([[0.1 + 0.2j, 1 / 3], [1 / 3, -0.7j + 0.9]], dtype=complex)
        M = (M + M.conj().T) / 2
        doc = json.loads(json.dumps(matrix_to_document(M)))
        assert np.array_equal(matrix_from_document(doc), M)

    def test_witness_roundtrip_is_exact(self):
        w = generator_witness(3, 1.7, np.linspace(-1, 1, 8))
        doc = json.loads(json.dumps(witness_to_document(w, "eta", {"d": 3})))
        back = witness_from_document(doc)
        assert np.array_equal(back.matrix, w.matrix)
        assert back.detect_eps == w.detect_eps
        assert back.interval == w.interval

    def test_family_roundtrip(self):
        fam = finite_family(2, 0.5)
        doc = family_to_document(fam, [witness_to_document(w, "family-member") for w in fam.members])
        back = family_from_document(json.loads(json.dumps(doc)))
        assert back.label == fam.label
        for a, b in zip(back.members, fam.members):
            assert np.array_equal(a.matrix, b.matrix)

    def test_inconsistent_interval_rejected(self):
        doc = witness_to_document(canonical_witness(2, 0.0, 1.0))
        doc["interval"] = [0.1, 1.0]
        with pytest.raises(Exception, match="interval"):
            witness_from_document(doc)

    def test_non_hermitian_entries_rejected(self):
        doc = witness_to_document(canonical_witness(2, 0.0, 1.0))
        doc["entries"][1] = [1.5, 0.3]  # breaks conjugate symmetry
        with pytest.raises(Exception, match="Hermitian"):
            witness_from_document(doc)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(Exception, match="entries"):
            matrix_from_document({"dim": 2, "entries": [[1.0, 0.0]]})


class TestGen:
    def test_gen_lemma2(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 2
        assert doc["entries"] == [[1.0, 0.0], [1.5, 0.0], [1.5, 0.0], [0.0, 0.0]]
        assert doc["interval"] == [0.0, 1.0]
        assert doc["kind"] == "lemma2"

    def test_gen_qubit(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen", "--kind", "qubit", "--K", "0", "--a", "1", "--b", "1", "--c", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["interval"] == [-0.5, 0.5]

    def test_gen_eta(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen", "--kind", "eta", "--d", "2", "--K", "0", "--eta", "0,1,0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["entries"] == [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]

    def test_gen_file_reloads_bit_for_bit(self, tmp_path):
        out = tmp_path / "w.json"
        run(["gen", "--kind", "eta", "--d", "3", "--K", "0.7", "--eta",
             "0.1,-0.2,0.3,0.4,-0.5,0.6,0.7,-0.8", "--out", str(out)])
        w = generator_witness(3, 0.7, [0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8])
        back = witness_from_document(json.loads(out.read_text()))
        assert np.array_equal(back.matrix, w.matrix)
        assert back.interval == w.interval

    def test_gen_family(self, tmp_path):
        out = tmp_path / "fam.json"
        assert run(["gen", "--kind", "family", "--d", "3", "--K", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["members"]) == 6
        assert all(m["kind"] == "family-member" for m in doc["members"])

    def test_gen_missing_flags_exit_2(self, tmp_path):
        assert run(["gen", "--kind", "lemma2", "--d", "2", "--out", str(tmp_path / "w.json")]) == 2

    def test_gen_reversed_interval_exit_2(self, tmp_path):
        rc = run(["gen", "--kind", "lemma2", "--d", "2", "--m", "3", "--M", "1", "--out", str(tmp_path / "w.json")])
        assert rc == 2

    def test_gen_bad_eta_exit_2(self, tmp_path):
        rc = run(["gen", "--kind", "eta", "--d", "2", "--K", "0", "--eta", "0,x,0", "--out", str(tmp_path / "w.json")])
        assert rc == 2


class TestDetect:
    def test_detect_canonical_pipeline(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        sfile = tmp_path / "rho.json"
        run(["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "1", "--out", str(wfile)])
        write_state(sfile, canonical_coherent(2))
        capsys.readouterr()
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == 2.0
        assert report["verdict"] == "Detected"

    def test_detect_eps_override(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        sfile = tmp_path / "rho.json"
        run(["gen", "--kind", "qubit", "--K", "0", "--a", "1", "--b", "0", "--c", "0", "--out", str(wfile)])
        write_state(sfile, canonical_coherent(2))
        capsys.readouterr()
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile), "--eps", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "NotDetected"
        assert report["detect_eps"] == 2.0

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exit_2(self, tmp_path, capsys, eps):
        wfile = tmp_path / "w.json"
        sfile = tmp_path / "rho.json"
        run(["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "1", "--out", str(wfile)])
        write_state(sfile, canonical_coherent(2))
        capsys.readouterr()
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile), "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_missing_file_exit_2(self, tmp_path):
        sfile = tmp_path / "rho.json"
        write_state(sfile, canonical_coherent(2))
        assert run(["detect", "--witness", str(tmp_path / "nope.json"), "--state", str(sfile)]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        sfile = tmp_path / "rho.json"
        write_state(sfile, canonical_coherent(2))
        assert run(["detect", "--witness", str(bad), "--state", str(sfile)]) == 2

    def test_corrupt_interval_exit_2(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        sfile = tmp_path / "rho.json"
        run(["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "1", "--out", str(wfile)])
        doc = json.loads(wfile.read_text())
        doc["interval"] = [0.5, 1.0]
        wfile.write_text(json.dumps(doc))
        write_state(sfile, canonical_coherent(2))
        capsys.readouterr()
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile)]) == 2
        assert "interval" in capsys.readouterr().err

    def test_invalid_state_exit_2(self, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        run(["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "1", "--out", str(wfile)])
        sfile = tmp_path / "rho.json"
        sfile.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]] * 4}))  # trace 2
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile)]) == 2


class TestOracle:
    def test_oracle_value(self, tmp_path, capsys):
        sfile = tmp_path / "rho.json"
        write_state(sfile, canonical_coherent(2))
        assert run(["oracle", "--state", str(sfile)]) == 0
        assert json.loads(capsys.readouterr().out)["l1_coherence"] == 1.0


class TestVerify:
    def test_default_family_passes(self, capsys):
        assert run(["verify", "--d", "2", "--samples", "200", "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "PASS"
        assert report["n_false_alarm"] == 0

    def test_bad_family_file_exit_3(self, tmp_path, capsys):
        # A witness with only a diagonal-generator coefficient never detects
        # anything, so the sampled coherent states go unseen.
        w = generator_witness(2, 0.0, [1.0, 0.0, 0.0])
        fam_doc = {"label": "bad", "members": [witness_to_document(w, "custom")]}
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps(fam_doc))
        rc = run(["verify", "--d", "2", "--samples", "100", "--seed", "3", "--family", str(fpath)])
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "FAIL"

    def test_family_dim_mismatch_exit_2(self, tmp_path):
        w = generator_witness(2, 0.0, [0.0, 1.0, 0.0])
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"label": "f", "members": [witness_to_document(w)]}))
        assert run(["verify", "--d", "3", "--samples", "10", "--seed", "0", "--family", str(fpath)]) == 2

    def test_mixed_margins_reported_per_member(self, tmp_path, capsys):
        u, v = finite_family(2).members
        docs = [witness_to_document(u), witness_to_document(v.with_eps(1e-3))]
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"label": "mixed", "members": docs}))
        rc = run(["verify", "--d", "2", "--samples", "20", "--seed", "5", "--family", str(fpath)])
        assert rc in (0, 3)
        assert json.loads(capsys.readouterr().out)["detect_eps"] == [1e-9, 1e-3]

    def test_byte_identical_reports(self, capsys):
        argv = ["verify", "--d", "3", "--samples", "100", "--seed", "11"]
        assert run(argv) == 0
        first = capsys.readouterr().out.encode()
        assert run(argv) == 0
        second = capsys.readouterr().out.encode()
        assert first == second


class TestBloch:
    def test_detected_rows_lie_beyond_planes(self, capsys):
        assert run(["bloch", "--K", "0", "--a", "1", "--b", "1", "--c", "1", "--grid", "20"]) == 0
        rows = read_rows(capsys.readouterr().out)
        assert rows  # ball lattice is nonempty
        for x, y, z, value, verdict in rows:
            assert (verdict == "Detected") == (abs(x + y + z) > 1.0 + 2e-9)
            assert value == pytest.approx((x + y + z) / 2, abs=1e-12)

    def test_plane_pair_covers_every_off_axis_point(self, capsys):
        run(["bloch", "--K", "0", "--a", "1", "--b", "1", "--c", "0", "--grid", "20"])
        rows_a = read_rows(capsys.readouterr().out)
        run(["bloch", "--K", "0", "--a", "1", "--b", "-1", "--c", "0", "--grid", "20"])
        rows_b = read_rows(capsys.readouterr().out)
        for (x, y, z, _, va), (_, _, _, _, vb) in zip(rows_a, rows_b):
            if x * x + y * y != 0.0:
                assert va == "Detected" or vb == "Detected"

    def test_pure_z_detects_nothing(self, capsys):
        run(["bloch", "--K", "0", "--a", "0", "--b", "0", "--c", "1", "--grid", "20"])
        rows = read_rows(capsys.readouterr().out)
        assert all(verdict == "NotDetected" for *_, verdict in rows)

    def test_output_file_bytes_deterministic(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["bloch", "--K", "0.3", "--a", "1", "--b", "-0.5", "--c", "0.2", "--grid", "12", "--out", str(f1)])
        run(["bloch", "--K", "0.3", "--a", "1", "--b", "-0.5", "--c", "0.2", "--grid", "12", "--out", str(f2)])
        data = f1.read_bytes()
        assert data == f2.read_bytes()
        assert data.startswith(b"x,y,z,value,verdict\n")
        assert b"\r" not in data  # LF only

    def test_cloud_order_matches_grid_helper(self):
        rows = list(bloch_cloud(0.0, 1.0, 0.0, 0.0, 5))
        from cohwit.verify import bloch_grid

        x, y, z = bloch_grid(5)
        assert len(rows) == x.size
        assert [r[0] for r in rows] == [float(v) for v in x]

    def test_zero_operator_exit_2(self):
        assert run(["bloch", "--K", "1", "--a", "0", "--b", "0", "--c", "0", "--grid", "5"]) == 2


class TestArgparse:
    def test_unknown_command_exit_2(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag_exit_2(self):
        assert run(["verify", "--d", "2"]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "1", "--samples", "10", "--seed", "0"],
        ["gen", "--kind", "family", "--d", "1", "--out", "{out}"],
        ["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "nan", "--out", "{out}"],
        ["bloch", "--K", "0", "--a", "1", "--b", "1", "--c", "1", "--grid", "-2"],
        ["verify", "--d", "2", "--samples", "0", "--seed", "0"],
        ["verify", "--d", "2", "--samples", "-4", "--seed", "0"],
        ["verify", "--d", "2", "--samples", "10", "--seed", "0", "--threshold", "nan"],
        ["verify", "--d", "2", "--samples", "10", "--seed", "0", "--threshold", "inf"],
        ["verify", "--d", "2", "--samples", "10", "--seed", "0", "--threshold=-1"],
        ["gen", "--kind", "qubit", "--K", "1e308", "--a", "1e308", "--b", "1e308", "--c", "1e308",
         "--out", "{out}"],
        ["gen", "--kind", "eta", "--d", "2", "--K", "1e308", "--eta", "1e308,1e308,1e308",
         "--out", "{out}"],
        ["gen", "--kind", "eta", "--d", "-1", "--eta", "1", "--out", "{out}"],
    ],
)
def test_invalid_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no CSV header, no vacuous PASS report
    assert not out.exists()


# Reals for the contract property: ordinary values plus the ones that break
# naive numerics.
REALS = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0]),
)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_contract_holds_for_bounded_argv(data):
    """Exit 0, 2 or 3 without warnings; exit 2 means one error line and no
    output; every report and document is strict JSON."""
    draw = data.draw

    def reals(flag, n=1):
        values = draw(st.lists(REALS, min_size=n, max_size=n))
        return f"--{flag}=" + ",".join(repr(v) for v in values)

    cmd = draw(st.sampled_from(["gen", "verify", "bloch"]))
    d = draw(st.sampled_from(range(-1, 7)))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        if cmd == "gen":
            kind = draw(st.sampled_from(["lemma2", "qubit", "eta", "family"]))
            argv = ["gen", f"--kind={kind}", f"--d={d}", f"--out={out}", reals("K")]
            if kind == "lemma2":
                argv += [reals("m"), reals("M")]
            elif kind == "qubit":
                argv += [reals("a"), reals("b"), reals("c")]
            elif kind == "eta":
                argv.append(reals("eta", draw(st.sampled_from([max(d * d - 1, 1), 3, 8]))))
            elif draw(st.booleans()):
                argv.append(reals("s", draw(st.sampled_from([max(d * (d - 1), 1), 2, 6]))))
        elif cmd == "verify":
            argv = ["verify", f"--d={d}", f"--samples={draw(st.integers(-2, 30))}",
                    f"--seed={draw(st.integers(0, 2**32))}", reals("K")]
            if draw(st.booleans()):
                argv.append(reals("threshold"))
        else:
            argv = ["bloch", reals("K"), reals("a"), reals("b"), reals("c"),
                    f"--grid={draw(st.integers(-2, 9))}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = run(argv)
        out_text, err_text = stdout.getvalue(), stderr.getvalue()
        assert rc in (0, 2, 3), (argv, err_text)
        if rc == 2:
            assert out_text == ""
            assert err_text.startswith("error:") and err_text.count("\n") == 1, err_text
            assert not os.path.exists(out)
        elif cmd == "verify":
            assert _strict_json(out_text)["verdict"] == ("PASS" if rc == 0 else "FAIL")
        elif cmd == "gen":
            assert rc == 0
            with open(out, encoding="utf-8") as fh:
                _strict_json(fh.read())
        else:
            assert rc == 0 and out_text.startswith("x,y,z,value,verdict\n")
