"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All sweeps are seeded and deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
from splitmix64 import SplitMix64
from test_cli import document

from cohwit import (
    DETECT_EPS,
    Witness,
    WitnessFamily,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator,
    incoherent_with_value,
    l1_coherence_batch,
    qubit_geometry_check,
    qubit_pair_family,
    sample_ensemble,
    sample_ginibre,
    sample_hermitian,
    tailored_witness,
    verify_coverage,
)
from cohwit.cli import run
from cohwit.states import _sample_incoherent_batch
from cohwit.witness import _slack

SEED_C2 = 874_001
SEED_C4 = 874_002
SEED_C5 = 874_003
SEED_C6 = 874_004
SEED_C7 = 874_005
SEED_C9 = 874_006


def _finish(cid, desc, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] {cid}: {desc}{extra}")
    assert not failures, f"{cid}: " + "; ".join(failures[:10])


def _chosen_component(mat):
    """Independent re-derivation of the component a tailored witness reads:
    largest-modulus off-diagonal entry (lowest pair on ties), then whichever
    of its real/imaginary parts has larger magnitude."""
    d = mat.shape[0]
    best_mod, best = -1.0, None
    for k in range(d):
        for l in range(k + 1, d):
            if abs(mat[k, l]) > best_mod:
                best_mod, best = abs(mat[k, l]), mat[k, l]
    return best.real if abs(best.real) >= abs(best.imag) else best.imag


def test_c1_generators():
    failures = []
    start = time.perf_counter()
    for d in (2, 3, 4, 5, 6):
        basis = [generator(d, i) for i in range(1, d * d)]
        n_pairs = d * (d - 1) // 2
        for i, gi in enumerate(basis):
            if np.max(np.abs(gi - gi.conj().T)) > 1e-12:
                failures.append(f"d={d} i={i + 1}: not Hermitian")
            if abs(np.trace(gi)) > 1e-12:
                failures.append(f"d={d} i={i + 1}: not traceless")
            for j, gj in enumerate(basis):
                want = 2.0 if i == j else 0.0
                if abs(np.trace(gi @ gj) - want) > 1e-12:
                    failures.append(f"d={d}: Tr(g_{i + 1} g_{j + 1}) != {want}")
        diag = [g for g in basis if np.count_nonzero(g - np.diag(np.diagonal(g))) == 0]
        sym = [g for g in basis[d - 1 :] if np.max(np.abs(g.imag)) == 0]
        anti = [g for g in basis[d - 1 :] if np.max(np.abs(g.real)) == 0]
        if (len(diag), len(sym), len(anti)) != (d - 1, n_pairs, n_pairs):
            failures.append(f"d={d}: block counts {(len(diag), len(sym), len(anti))}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _finish("C1", "generator basis orthonormal/traceless/Hermitian, d=2..6", failures,
            f"{elapsed:.2f}s")


def containment_sweep(d, n_witnesses, n_states, seed):
    """The family of n_witnesses sampled Hermitian witnesses (sub-seeds
    seed + j) and its (margins, verdicts) on n_states diagonal states drawn
    from the simplex (sub-seeds seed + n_witnesses + t), from one kernel call."""
    matrices = np.stack([sample_hermitian(d, s) for s in range(seed, seed + n_witnesses)])
    family = WitnessFamily._from_stack("random-hermitian", matrices, [DETECT_EPS] * n_witnesses)
    states = np.zeros((n_states, d, d), dtype=np.complex128)
    probs = _sample_incoherent_batch(d, range(seed + n_witnesses, seed + n_witnesses + n_states))
    states[:, range(d), range(d)] = probs
    return family, family.evaluate_batch(states)[1:]


def test_c2_incoherent_containment_sweep():
    # Containment is proved by the slack; this checks the kernel against it.
    failures = []
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        family, (margins, detected) = containment_sweep(d, 100, 1000, SEED_C2 + d)
        if detected.any():
            failures.append(f"d={d}: {np.count_nonzero(detected)} diagonal states detected")
        over = margins - _slack(family._bounds, d)[:, None]
        if (over > 0.0).any():
            failures.append(f"d={d}: a margin exceeds its slack by {over.max()}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _finish("C2", "100x1000 incoherent containment sweep per d=2..5", failures, f"{elapsed:.2f}s")


def test_c3_canonical_witness_identity():
    failures = []
    grid = np.linspace(-3.0, 3.0, 5)
    for d in range(2, 17):
        rho = canonical_coherent(d)
        for lo in grid:
            for hi in grid:
                if lo > hi:
                    continue
                value = canonical_witness(d, lo, hi).evaluate(rho).value
                if abs(value - (hi + 1.0)) > 1e-12:
                    failures.append(f"d={d} [{lo},{hi}]: value {value}")
    _finish("C3", "canonical witness value is hi+1 for d=2..16 over [-3,3] grid", failures)


def test_c4_tailored_witness_exactness():
    failures = []
    rng = SplitMix64(SEED_C4)
    for d in (2, 3, 4, 5):
        for t in range(1000):
            rho = sample_ginibre(d, SEED_C4 + 10_000 * d + t)
            lo = -10.0 + 20.0 * rng.uniform()
            hi = lo + 0.1 + 10.0 * rng.uniform()
            w = tailored_witness(rho, lo, hi)
            report = w.evaluate(rho)
            if w.interval != (lo, hi):
                failures.append(f"d={d} t={t}: interval {w.interval} != ({lo},{hi})")
            if abs(report.value - (hi + 1.0)) > 1e-9 or not report.detected:
                failures.append(f"d={d} t={t}: value {report.value} vs {hi + 1.0}")
            point = -10.0 + 20.0 * rng.uniform()
            w2 = tailored_witness(rho, point, point)
            report2 = w2.evaluate(rho)
            comp = _chosen_component(rho.matrix)
            if report2.value == point:
                failures.append(f"d={d} t={t}: point-interval value not moved")
            if report2.margin < abs(comp) - 1e-9:
                failures.append(f"d={d} t={t}: margin {report2.margin} < |comp| {abs(comp)}")
            if failures:
                break
        if failures:
            break
    _finish("C4", "tailored witness: exact interval, value hi+1, 1000 states per d=2..5", failures)


@pytest.fixture(scope="module")
def coverage_runs():
    """Ensembles, margin/value matrices, and coverage reports for d=2..5 and
    K in {0, 1, 37}; shared by C5 and C8."""
    runs = {}
    for d in (2, 3, 4, 5):
        start = time.perf_counter()
        stack = sample_ensemble(d, 1000, SEED_C5 + d)
        l1s = l1_coherence_batch(stack)
        per_k = {}
        for K in (0.0, 1.0, 37.0):
            family = finite_family(d, K)
            n = len(family.members)
            values = np.empty((n, len(stack)))
            margins = np.empty((n, len(stack)))
            detected = np.zeros((n, len(stack)), dtype=bool)
            for idx, w in enumerate(family.members):
                values[idx], margins[idx], detected[idx] = w.evaluate_batch(stack)
            report = verify_coverage(family, 1000, SEED_C5 + d)
            per_k[K] = {"values": values, "margins": margins, "detected": detected,
                        "report": report}
        runs[d] = {"l1": l1s, "per_k": per_k, "elapsed": time.perf_counter() - start}
    return runs


def test_c5_finite_family_coverage(coverage_runs):
    failures = []
    for d, data in coverage_runs.items():
        if data["elapsed"] >= 10.0:
            failures.append(f"d={d}: runtime {data['elapsed']:.2f}s >= 10s")
        reports = [data["per_k"][K]["report"] for K in (0.0, 1.0, 37.0)]
        for K, report in zip((0.0, 1.0, 37.0), reports):
            if not report.passed or report.n_false_alarm != 0:
                failures.append(f"d={d} K={K}: coverage failed ({report})")
            if len(report.per_witness_hits) != d * (d - 1):
                failures.append(f"d={d} K={K}: {len(report.per_witness_hits)} members")
        base = reports[0]
        for report in reports[1:]:
            if (report.n_detected, report.n_coherent, report.per_witness_hits) != (
                base.n_detected, base.n_coherent, base.per_witness_hits,
            ):
                failures.append(f"d={d}: counts differ across K")
        m0 = data["per_k"][0.0]["margins"]
        for K in (1.0, 37.0):
            if np.max(np.abs(data["per_k"][K]["margins"] - m0)) > 1e-12:
                failures.append(f"d={d}: margins shift with K={K}")
            if not np.array_equal(data["per_k"][K]["detected"], data["per_k"][0.0]["detected"]):
                failures.append(f"d={d}: verdicts shift with K={K}")
    detail = ", ".join(f"d={d}: {v['elapsed']:.2f}s" for d, v in coverage_runs.items())
    _finish("C5", "finite family detects all coherent, no false alarms, K-invariant", failures,
            detail)


def test_c6_qubit_geometry():
    failures = []
    start = time.perf_counter()
    rng = SplitMix64(SEED_C6)
    params = []
    for _ in range(20):
        K = -5.0 + 10.0 * rng.uniform()
        a, b = rng.normal_pair()
        c, _ = rng.normal_pair()
        params.append((K, a, b, c, True))
    params.append((0.0, 0.0, 0.0, 1.0, False))
    params.append((3.0, 0.0, 0.0, -2.0, False))
    for K, a, b, c, effective in params:
        report = qubit_geometry_check(K, a, b, c, 50)
        if report.n_mismatch != 0:
            failures.append(f"{(K, a, b, c)}: {report.n_mismatch} mismatches")
        if (report.n_detected > 0) != effective or report.effective != effective:
            failures.append(f"{(K, a, b, c)}: detections {report.n_detected}, "
                            f"expected effective={effective}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    _finish("C6", "qubit verdicts match plane predicate on 50^3 ball grid", failures,
            f"{elapsed:.2f}s")


def test_c7_target_value_states():
    failures = []
    for t in range(100):
        d = 2 + t % 4
        w = Witness(sample_hermitian(d, SEED_C7 + t))
        lo, hi = w.interval
        for f in np.linspace(0.0, 1.0, 10):
            target = min(lo + f * (hi - lo), hi)
            delta = incoherent_with_value(w, target)
            value = w.evaluate(delta).value
            if abs(value - target) > 1e-12:
                failures.append(f"t={t} target={target}: value {value}")
    # degenerate-interval branch: every family member has a point interval
    for d in (2, 3, 4, 5):
        for w in finite_family(d, 2.0).members:
            target = w.interval[0]
            delta = incoherent_with_value(w, target)
            if not np.allclose(delta.matrix.diagonal().real, 1.0 / d, atol=0):
                failures.append(f"d={d}: point-interval branch not uniform")
            value = w.evaluate(delta).value
            if abs(value - target) > 1e-12:
                failures.append(f"d={d}: point-interval value {value} vs {target}")
    _finish("C7", "target-value diagonal states hit Tr within 1e-12 (incl. uniform branch)",
            failures)


def test_c8_closing_interval_bound(coverage_runs):
    failures = []
    n_checked = 0
    for d, data in coverage_runs.items():
        half_width = math.sqrt(2.0 * d * (d - 1)) / d**2  # all coefficients are 1
        for K in (0.0, 1.0, 37.0):
            center = K / d
            values = data["per_k"][K]["values"]
            detected = data["per_k"][K]["detected"]
            for v in values[detected]:
                n_checked += 1
                if not (center - half_width < v < center + half_width):
                    failures.append(f"d={d} K={K}: value {v} outside open bound")
                if abs(v - center) <= 1e-12:
                    failures.append(f"d={d} K={K}: value {v} equals K/d")
    if n_checked == 0:
        failures.append("no detected pairs to check")
    _finish("C8", "detected values stay strictly inside the coefficient-norm bound", failures,
            f"{n_checked} pairs")


def test_c9_detector_set_equivalence():
    failures = []
    rng = SplitMix64(SEED_C9)
    stack = sample_ensemble(2, 10_000, SEED_C9)
    for trial in range(5):
        K = -2.0 + 4.0 * rng.uniform()
        s2 = -1.0 + 2.0 * rng.uniform()
        s3 = -1.0 + 2.0 * rng.uniform()
        fam_a = qubit_pair_family(K, s2, 0.0, 0.0, s3)
        fam_b = finite_family(2, K, [s2, s3])
        for wa, wb in zip(fam_a.members, fam_b.members):
            _, _, da = wa.evaluate_batch(stack)
            _, _, db = wb.evaluate_batch(stack)
            if not np.array_equal(da, db):
                failures.append(f"trial {trial} (K={K}, s2={s2}, s3={s3}): verdicts differ")
    _finish("C9", "qubit pair family and finite family agree on 10k states x 5 draws", failures)


def test_c10_cli_roundtrip_and_determinism(tmp_path, capsys):
    failures = []
    for d, lo, hi in [(2, 0.0, 1.0), (3, -3.0, 3.0), (4, -1.5, 3.0), (5, 1.5, 1.5)]:
        value_mem = canonical_witness(d, lo, hi).evaluate(canonical_coherent(d)).value
        wfile = tmp_path / f"w{d}.json"
        sfile = tmp_path / f"rho{d}.json"
        rc = run(["gen", "--kind", "lemma2", "--d", str(d), "--m", str(lo), "--M", str(hi),
                  "--out", str(wfile)])
        sfile.write_text(json.dumps(document(canonical_coherent(d).matrix)))
        capsys.readouterr()
        rc2 = run(["detect", "--witness", str(wfile), "--state", str(sfile)])
        out = capsys.readouterr().out
        if rc != 0 or rc2 != 0:
            failures.append(f"d={d}: exit codes {rc}, {rc2}")
            continue
        value_cli = json.loads(out)["value"]
        if value_cli != value_mem:
            failures.append(f"d={d}: pipeline value {value_cli!r} != in-memory {value_mem!r}")
        if abs(value_cli - (hi + 1.0)) > 1e-12:
            failures.append(f"d={d}: pipeline value {value_cli} vs {hi + 1.0}")
    verify_argv = ["verify", "--d", "3", "--samples", "200", "--seed", "42"]
    run(verify_argv)
    first = capsys.readouterr().out.encode()
    run(verify_argv)
    if first != capsys.readouterr().out.encode():
        failures.append("verify reports not byte-identical")
    bloch_argv = ["bloch", "--K", "0.5", "--a", "1", "--b", "-1", "--c", "0.25", "--grid", "15"]
    run(bloch_argv)
    first = capsys.readouterr().out.encode()
    run(bloch_argv)
    if first != capsys.readouterr().out.encode():
        failures.append("bloch clouds not byte-identical")
    _finish("C10", "gen->detect reproduces in-memory values exactly; byte-identical reports",
            failures)
