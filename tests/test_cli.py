import contextlib
import gc
import io
import json
import math
import os
import tempfile
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import (
    Witness,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator_witness,
    qubit_witness,
    sample_ginibre,
    sample_hermitian,
)
from cohwit import cli, linalg
from cohwit.cli import _read_stack, family_from_document, run, witness_from_document
from cohwit.verify import sweep_bytes
from cohwit.witness import finite_family_bytes


def document(obj, kind: str = "custom", params: dict | None = None) -> dict:
    """The JSON document of a matrix (a state document) or of a Witness: dim
    and row-major [re, im] entries, and for a witness its interval, margin,
    kind and params, as ``gen`` writes them."""
    M = np.asarray(obj.matrix if isinstance(obj, Witness) else obj, dtype=np.complex128)
    doc = {"dim": len(M), "entries": M.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}
    if isinstance(obj, Witness):
        doc.update(interval=list(obj.interval), detect_eps=obj.detect_eps, kind=kind, params=params or {})
    return doc


def write_state(path, rho):
    path.write_text(json.dumps(document(rho.matrix)))


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
        doc = json.loads(json.dumps(document(M)))
        assert np.array_equal(_read_stack([doc], "matrix")[0], M)

    def test_witness_roundtrip_is_exact(self):
        w = generator_witness(3, 1.7, np.linspace(-1, 1, 8))
        doc = json.loads(json.dumps(document(w, "eta", {"d": 3})))
        back = witness_from_document(doc)
        assert np.array_equal(back.matrix, w.matrix)
        assert back.detect_eps == w.detect_eps
        assert back.interval == w.interval

    def test_family_roundtrip(self):
        fam = finite_family(2, 0.5)
        doc = {"label": fam.label, "members": [document(w, "family-member") for w in fam.members]}
        back = family_from_document(json.loads(json.dumps(doc)))
        assert back.label == fam.label
        for a, b in zip(back.members, fam.members):
            assert np.array_equal(a.matrix, b.matrix)

    def test_inconsistent_interval_rejected(self):
        doc = document(canonical_witness(2, 0.0, 1.0))
        doc["interval"] = [0.1, 1.0]
        with pytest.raises(Exception, match="interval"):
            witness_from_document(doc)

    def test_non_hermitian_entries_rejected(self):
        doc = document(canonical_witness(2, 0.0, 1.0))
        doc["entries"][1] = [1.5, 0.3]  # breaks conjugate symmetry
        with pytest.raises(Exception, match="Hermitian"):
            witness_from_document(doc)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(Exception, match="entries"):
            _read_stack([{"dim": 2, "entries": [[1.0, 0.0]]}], "matrix")


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

    def test_imaginary_diagonals_within_tolerance_are_not_detected(self, tmp_path, capsys):
        # Validation accepts imaginary diagonal parts up to HERMITICITY_TOL / 2
        # on both documents; their cross term moves the value of this diagonal
        # state off [-0, -0] by 5e-21, which the slack covers.
        wfile = tmp_path / "w.json"
        sfile = tmp_path / "rho.json"
        wfile.write_text(json.dumps(document(Witness(np.diag([5e-11j, -5e-11j]), 0.0))))
        sfile.write_text(json.dumps(document(np.diag([0.5 + 5e-11j, 0.5 - 5e-11j]))))
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile), "--eps", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["margin"] > report["detect_eps"] == 0.0
        assert report["verdict"] == "NotDetected"
        assert run(["oracle", "--state", str(sfile)]) == 0
        assert json.loads(capsys.readouterr().out)["l1_coherence"] == 0.0

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

    def test_overflowing_value_exit_2(self, tmp_path, capsys):
        # Finite entries whose expectation overflows: Tr(W rho) = 4 * 0.85e308.
        wfile = tmp_path / "w.json"
        sfile = tmp_path / "rho.json"
        big = {"dim": 2, "entries": [[1.7e308, 0.0]] * 4, "interval": [1.7e308, 1.7e308]}
        wfile.write_text(json.dumps(big))
        write_state(sfile, canonical_coherent(2))
        assert run(["detect", "--witness", str(wfile), "--state", str(sfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows" in captured.err

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
        fam_doc = {"label": "bad", "members": [document(w, "custom")]}
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps(fam_doc))
        rc = run(["verify", "--d", "2", "--samples", "100", "--seed", "3", "--family", str(fpath)])
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "FAIL"

    def test_family_dim_mismatch_exit_2(self, tmp_path):
        w = generator_witness(2, 0.0, [0.0, 1.0, 0.0])
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"label": "f", "members": [document(w)]}))
        assert run(["verify", "--d", "3", "--samples", "10", "--seed", "0", "--family", str(fpath)]) == 2

    def test_mixed_margins_reported_per_member(self, tmp_path, capsys):
        u, v = finite_family(2).members
        docs = [document(u), document(Witness(v.matrix, 1e-3))]
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps({"label": "mixed", "members": docs}))
        rc = run(["verify", "--d", "2", "--samples", "20", "--seed", "5", "--family", str(fpath)])
        assert rc in (0, 3)
        assert json.loads(capsys.readouterr().out)["detect_eps"] == [1e-9, 1e-3]

    def test_threshold_zero_counts_only_the_coherent_states(self, capsys):
        # Half the ensemble is diagonal; its l1 coherence is exactly 0, so at
        # threshold 0 the coherent states are the 200 Ginibre ones.
        assert run(["verify", "--d", "5", "--samples", "400", "--seed", "9", "--threshold", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["n_coherent"], report["n_detected"], report["n_false_alarm"]) == (200, 200, 0)
        assert report["verdict"] == "PASS"

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

    def test_cloud_order_matches_grid_helper(self, capsys):
        assert run(["bloch", "--K", "0", "--a", "1", "--b", "0", "--c", "0", "--grid", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        from cohwit.generators import _qubit_matrices
        from test_verify import ball_points

        # The rows from a path the command does not share: the meshgrid
        # coordinates, one evaluation of them all, and per-row f-strings.
        x, y, z = ball_points(5)
        values, _, detected = qubit_witness(0.0, 1.0, 0.0, 0.0).evaluate_batch(_qubit_matrices(1.0, x, y, z))
        verdicts = ["Detected" if hit else "NotDetected" for hit in detected.tolist()]
        rows = zip(x.tolist(), y.tolist(), z.tolist(), values.tolist(), verdicts)
        assert lines == [f"{p!r},{q!r},{r!r},{v!r},{verdict}" for p, q, r, v, verdict in rows]

    def test_zero_operator_exit_2(self):
        assert run(["bloch", "--K", "1", "--a", "0", "--b", "0", "--c", "0", "--grid", "5"]) == 2


class TestReaderPausesTheCollector:
    """Every document is read with the cyclic collector paused until its
    parse tree is freed, and the collector is left as the caller had it."""

    @staticmethod
    def documents(tmp_path):
        wfile, sfile, ffile = tmp_path / "w.json", tmp_path / "rho.json", tmp_path / "fam.json"
        run(["gen", "--kind", "lemma2", "--d", "2", "--m", "0", "--M", "1", "--out", str(wfile)])
        run(["gen", "--kind", "family", "--d", "2", "--out", str(ffile)])
        write_state(sfile, canonical_coherent(2))
        return str(wfile), str(sfile), str(ffile)

    @staticmethod
    def argvs(wfile, sfile, ffile):
        return [
            ["detect", "--witness", wfile, "--state", sfile],
            ["oracle", "--state", sfile],
            ["verify", "--d", "2", "--samples", "5", "--seed", "1", "--family", ffile],
        ]

    def test_conversion_runs_with_the_collector_off(self, tmp_path, monkeypatch, capsys):
        seen = []
        for name in ("witness_from_document", "state_from_document", "family_from_document"):
            def spy(doc, convert=getattr(cli, name)):
                seen.append((convert.__name__, gc.isenabled()))
                return convert(doc)

            monkeypatch.setattr(cli, name, spy)
        for argv in self.argvs(*self.documents(tmp_path)):
            assert run(argv) == 0
            assert gc.isenabled()
        assert seen == [
            ("witness_from_document", False),
            ("state_from_document", False),
            ("state_from_document", False),
            ("family_from_document", False),
        ]

    def test_parse_tree_is_freed_before_the_collector_is_enabled(self, tmp_path, monkeypatch, capsys):
        class Tree(dict):  # a parsed document that a weak reference can watch
            pass

        trees, enabled_with_live_trees = [], []

        def load(fh, load=json.load):
            tree = Tree(load(fh))
            trees.append(weakref.ref(tree))
            return tree

        def enable():
            enabled_with_live_trees.append(sum(ref() is not None for ref in trees))
            gc.enable()

        monkeypatch.setattr(cli.json, "load", load)
        monkeypatch.setattr(cli, "gc", SimpleNamespace(isenabled=gc.isenabled, disable=gc.disable, enable=enable))
        for argv in self.argvs(*self.documents(tmp_path)):
            assert run(argv) == 0
        assert len(trees) == 4 and enabled_with_live_trees == [0, 0, 0, 0]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case", ["success", "malformed-json", "bad-entry", "dim-mismatch", "mixed-dims", "unreadable"]
    )
    def test_collector_is_left_as_the_caller_had_it(self, tmp_path, capsys, case, enabled):
        wfile, sfile, ffile = self.documents(tmp_path)
        bad = tmp_path / "bad.json"
        verify = ["verify", "--d", "2", "--samples", "5", "--seed", "1", "--family"]
        if case == "malformed-json":
            bad.write_text("{not json")
        elif case == "bad-entry":
            bad.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0], "x", [0.0, 0.0], [0.0, 0.0]]}))
        elif case == "mixed-dims":
            members = [document(canonical_witness(d, 0.0, 1.0)) for d in (2, 3)]
            bad.write_text(json.dumps({"label": "mixed", "members": members}))
        elif case == "unreadable":
            bad.write_bytes(b"\xff\xfe{}")
        argvs = {
            "success": self.argvs(wfile, sfile, ffile),
            "dim-mismatch": [["verify", "--d", "3", "--samples", "5", "--seed", "1", "--family", ffile]],
            "mixed-dims": [verify + [str(bad)]],
        }.get(case, [
            ["detect", "--witness", str(bad), "--state", sfile],
            ["detect", "--witness", wfile, "--state", str(bad)],
            ["oracle", "--state", str(bad)],
            verify + [str(bad)],
        ])
        if case == "unreadable":
            argvs.append(["oracle", "--state", str(tmp_path / "missing.json")])
        if not enabled:
            gc.disable()
        try:
            for argv in argvs:
                assert run(argv) == (0 if case == "success" else 2)
                assert gc.isenabled() == enabled
        finally:
            gc.enable()


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
        ["bloch", "--K", "0", "--a", "1", "--b", "1", "--c", "1", "--grid", "1", "--out", "{out}"],
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


@pytest.mark.parametrize(
    "argv",
    [
        # Refused by d, not by the state count: a sweep's charge takes none.
        ["verify", "--d", "4000", "--samples", "1000000000", "--seed", "0"],
        ["verify", "--d", "100000", "--samples", "1", "--seed", "0"],
        ["verify", "--d", "2443", "--samples", "100000", "--seed", "0"],  # the family's own charge, 1.07 GB
        ["verify", "--d", "2443", "--samples", "40", "--seed", "0", "--K", "37"],
        ["verify", "--d", "1000000000000", "--samples", "1", "--seed", "0"],
    ],
)
def test_oversized_sweep_rejected_before_building(monkeypatch, tmp_path, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the family was built before the size check")

    monkeypatch.setattr("cohwit.witness._GeneratorFamily.__init__", refuse)
    monkeypatch.setattr("cohwit.verify._ensemble_chunks", refuse)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "bytes" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def refused_before_sampling(monkeypatch, capsys, argv, cap):
    """Run argv with the cap lowered to ``cap`` and sampling refused: exit 2
    with one error line that names the bytes, and no report."""
    def refuse(*args, **kwargs):
        raise AssertionError("states were sampled before the size check")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MAX_COVERAGE_BYTES", cap)
        patch.setattr("cohwit.verify._ensemble_chunks", refuse)
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "needs about" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_family_document_is_charged_for_its_own_members(monkeypatch, tmp_path, capsys):
    # Two member matrices at d = 91: charged as 8190 they make 1.15 GB.
    path = tmp_path / "two.json"
    members = [document(canonical_witness(91, lo, 1.0)) for lo in (0.0, -1.0)]
    path.write_text(json.dumps({"label": "two", "members": members}))
    argv = ["verify", "--d", "91", "--samples", "40", "--seed", "0", "--family", str(path)]
    need = sweep_bytes(91, 2, True)
    assert need < 0.1 * sweep_bytes(91, 91 * 90, True)
    monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", need)
    assert run(argv) == 3  # two members cannot cover d = 91
    assert json.loads(capsys.readouterr().out)["verdict"] == "FAIL"
    refused_before_sampling(monkeypatch, capsys, argv, need - 1)


def test_builtin_family_is_charged_before_sampling(monkeypatch, capsys):
    # The family is built within its own charge, then its sweep is refused.
    argv = ["verify", "--d", "91", "--samples", "40", "--seed", "1"]
    need = sweep_bytes(91, 91 * 90, False)
    assert finite_family_bytes(91) < need
    refused_before_sampling(monkeypatch, capsys, argv, need - 1)


def test_builtin_family_sweep_above_d90_runs(capsys):
    # The built-in family holds no member matrix, so its sweep is charged
    # without one: about 69 MB here, where 16 B per member entry make 1.15 GB.
    assert run(["verify", "--d", "91", "--samples", "40", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "lemma2", "--d", "100000", "--m", "0", "--M", "1", "--out", "{out}"],
        ["gen", "--kind", "lemma2", "--d", "2273", "--m", "0", "--M", "1", "--out", "{out}"],
        ["gen", "--kind", "family", "--d", "2000", "--out", "{out}"],
        ["gen", "--kind", "family", "--d", "53", "--out", "{out}"],
        ["bloch", "--K", "0", "--a", "1", "--b", "1", "--c", "1", "--grid", "2000"],
        ["bloch", "--K", "0", "--a", "1", "--b", "1", "--c", "1", "--grid", "204"],
    ],
)
def test_oversized_document_or_lattice_rejected_before_building(monkeypatch, tmp_path, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the size check")

    monkeypatch.setattr("cohwit.cli.canonical_witness", refuse)
    monkeypatch.setattr("cohwit.cli.finite_family", refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    out = tmp_path / "out.json"
    assert run([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "bytes" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
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


# JSON values a document may carry where a real number belongs.
ODD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, True, False, None, "0.5", [0.5], [[0.5, 0.0]], {}]
)


def _defect(draw, *defects):
    # None (no defect) two times in three, else one of the named defects.
    return draw(st.sampled_from([None] * (2 * len(defects)) + list(defects)))


@st.composite
def matrix_documents(draw, dim, hermitian):
    """A document of a dim x dim matrix, a random Hermitian one or a state,
    carrying at most one defect."""
    if dim >= 2:
        seed = draw(st.integers(0, 2**16))
        M = sample_hermitian(dim, seed) if hermitian else draw(
            st.sampled_from([sample_ginibre(dim, seed).matrix, np.diag(np.full(dim, 1.0 / dim))])
        )
        with np.errstate(over="ignore"):  # an overflow to inf is one more defect
            M = M * draw(st.sampled_from([1.0, 1.0, 1.0, 1e300, 1e308]))
    else:
        M = np.ones((1, 1))
    doc = {"dim": dim, "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)]}
    entries = doc["entries"]
    defect = _defect(draw, "dim", "length", "pair", "value", "asymmetric")
    if defect == "dim":
        doc["dim"] = draw(st.sampled_from([0, 1, 5, True, 2.0, "2", None]))
    elif defect == "length":
        doc["entries"] = entries[:-1] if draw(st.booleans()) else entries + entries[:1]
    elif defect == "pair":
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.one_of(ODD_VALUES, st.just([1.0, 0.0, 0.0])))
    elif defect == "value":
        entries[draw(st.integers(0, len(entries) - 1))][draw(st.integers(0, 1))] = draw(ODD_VALUES)
    elif defect == "asymmetric" and dim >= 2:
        entries[1] = [draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))]
    return doc


@st.composite
def witness_documents(draw, dim):
    """A witness document with its own margin; its interval, margin or kind
    may be malformed."""
    doc = draw(matrix_documents(dim, hermitian=True))
    try:
        diag = [doc["entries"][i * (dim + 1)][0] for i in range(dim)]
        doc["interval"] = [min(diag), max(diag)]
    except (LookupError, TypeError, ValueError):  # a defect hit the diagonal
        doc["interval"] = [0.0, 0.0]
    eps = draw(st.sampled_from([None, 0.0, 1e-9, 1e-3, 0.5]))
    if eps is not None:
        doc["detect_eps"] = eps
    doc["kind"] = draw(st.sampled_from(["custom", "family-member", "lemma2"]))
    defect = _defect(draw, "interval", "eps", "kind")
    if defect == "interval":
        doc["interval"] = draw(st.sampled_from([[0.0, 1.0], [1.0], "x", None, [math.nan, 0.0]]))
    elif defect == "eps":
        doc["detect_eps"] = draw(st.sampled_from([-1.0, math.nan, math.inf, True, "x", None]))
    elif defect == "kind":
        doc["kind"] = draw(st.sampled_from(["bogus", 3, None]))
    return doc


@st.composite
def family_documents(draw, dim):
    """A family document of 1 to 3 members with mixed margins, a bare witness
    document, or a malformed family."""
    shape = _defect(draw, "bare", "label", "members", "not an object")
    if shape == "bare":
        return draw(witness_documents(dim))
    if shape == "not an object":
        return draw(st.sampled_from([[1, 2], "family", 3, None]))
    doc = {"label": "f", "members": draw(st.lists(witness_documents(dim), min_size=1, max_size=3))}
    if shape == "label":
        doc["label"] = draw(st.sampled_from([3, None, ["f"]]))
    elif shape == "members":
        doc["members"] = draw(st.sampled_from([[], {}, "m", [1]]))
    return doc


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_cli_contract_holds_for_json_documents(data):
    """detect, oracle and verify --family exit 0, 2 or 3 without warnings or
    tracebacks on any document; exit 2 means one error line and no output;
    every report is strict JSON."""
    draw = data.draw
    cmd = draw(st.sampled_from(["detect", "oracle", "verify"]))
    dim = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)  # NaN and Infinity become bare literals
            return path

        if cmd == "detect":
            state_dim = draw(st.sampled_from([dim, dim, 2]))
            argv = ["detect", "--witness", write("w.json", draw(witness_documents(dim))),
                    "--state", write("s.json", draw(matrix_documents(state_dim, hermitian=False)))]
            if draw(st.booleans()):
                argv.append(f"--eps={draw(REALS)!r}")
        elif cmd == "oracle":
            argv = ["oracle", "--state", write("s.json", draw(matrix_documents(dim, hermitian=False)))]
        else:
            argv = ["verify", f"--d={draw(st.sampled_from([dim, dim, 2]))}",
                    f"--samples={draw(st.integers(1, 12))}", f"--seed={draw(st.integers(0, 2**32))}",
                    "--family", write("f.json", draw(family_documents(dim)))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = run(argv)
    out_text, err_text = stdout.getvalue(), stderr.getvalue()
    assert rc in (0, 2, 3), (argv, err_text)
    assert "Traceback" not in err_text
    if rc == 2:
        assert out_text == ""
        assert err_text.startswith("error:") and err_text.count("\n") == 1, err_text
    else:
        assert err_text == ""
        report = _strict_json(out_text)
        if cmd == "verify":
            assert report["verdict"] == ("PASS" if rc == 0 else "FAIL")
        else:
            assert rc == 0
