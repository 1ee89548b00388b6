"""Quick self-check of the benchmark: every oracle against an independent
computation, and every workload at tiny shot counts, traced and untraced.

Runs in a few seconds; the full-size workloads run only through run.py.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetbench import harness, oracles, tracing
from hetbench.workloads import WORKLOADS, FullRunSuperposition

ROOT = Path(__file__).resolve().parent.parent
SUPERPOSITION = {"kind": "superposition", "beta": 0.7071, "phase": 0.0}


def displaced_parity_series(alpha: complex, truncation: int, order: int,
                            terms: int = 80) -> np.ndarray:
    """Wigner weights w[n, m] by direct summation of the normally ordered
    displaced parity, (2/pi) sum_k (-2)^k / k! C(k,n) C(k,m)
    (-conj(alpha))^(k-n) (-alpha)^(k-m); stable for small |alpha| only."""
    w = np.zeros((order + 1, order + 1), dtype=complex)
    for n in range(truncation + 1):
        for m in range(truncation + 1 - n):
            w[n, m] = (2.0 / math.pi) * sum(
                (-2.0) ** k / math.factorial(k) * math.comb(k, n) * math.comb(k, m)
                * (-np.conj(alpha)) ** (k - n) * (-alpha) ** (k - m)
                for k in range(max(n, m), terms))
    return w


@pytest.fixture(scope="module")
def cli():
    return harness.import_hettomo(ROOT / "src")


def test_closed_forms_match_hettomo_oracles(cli):
    from hettomo.fock import (FockState, analytic_moments, prepare_superposition,
                              wigner_oracle)
    amps = oracles.amplitudes(SUPERPOSITION)
    state = prepare_superposition(amps[1])
    assert np.allclose(oracles.normal_moments(amps, 4),
                       analytic_moments(state, 8).values[:5, :5], atol=1e-12)
    assert np.allclose(oracles.normal_moments(oracles.amplitudes({"kind": "fock"}), 4),
                       analytic_moments(FockState.fock(1), 8).values[:5, :5], atol=1e-12)
    for alpha in (0.3 + 0.1j, -0.35, 1.2 - 0.7j):
        assert oracles.superposition_wigner(amps, alpha) == pytest.approx(
            float(wigner_oracle(state, alpha)), abs=1e-9)
        # closed-form kernel weights against the raw displaced-parity series
        assert np.allclose(oracles.wigner_weights(alpha, 4, 4),
                           displaced_parity_series(alpha, 4, 4), atol=1e-12)
        # at truncation 2 the weighted moment sum is the exact W
        w = oracles.wigner_weights(alpha, 2, 4)
        truth = oracles.truncated(oracles.normal_moments(amps, 4), 4)
        assert float(np.sum(w * truth).real) == pytest.approx(
            oracles.superposition_wigner(amps, alpha), abs=1e-12)
    assert oracles.superposition_wigner(np.array([0.0, 1.0]), 0.0) == pytest.approx(
        -2.0 / math.pi)


def test_shot_noise_model_matches_repeated_experiments():
    """Spread of recovered moments over 300 simulated Fock-|1> experiments
    against the closed-form standard error (within 20%, about 5 standard
    errors of a 300-sample spread)."""
    rng = np.random.default_rng(2024)
    nbar, shots, reps, order = 2.0, 1000, 300, 4
    r = np.sqrt(rng.gamma(2.0, size=(reps, shots)))
    z = r * np.exp(2j * np.pi * rng.random((reps, shots))) + math.sqrt(nbar / 2) * (
        rng.standard_normal((reps, shots)) + 1j * rng.standard_normal((reps, shots)))
    v = math.sqrt((1 + nbar) / 2) * (rng.standard_normal((reps, shots))
                                     + 1j * rng.standard_normal((reps, shots)))
    idx = [(a, b) for a in range(order + 1) for b in range(order + 1) if a + b <= order]

    def sample_moments(x):
        s = np.zeros((order + 1, order + 1), dtype=complex)
        for a, b in idx:
            s[a, b] = np.mean(np.conj(x) ** a * x ** b)
        return s
    recovered = np.array([oracles.invert(sample_moments(z[i]), sample_moments(v[i]), order)
                          for i in range(reps)])
    model = oracles.MomentModel(oracles.amplitudes({"kind": "fock"}), nbar, order,
                                shots, shots)
    for n, m, imag in [(1, 1, False), (0, 1, True), (2, 2, False), (1, 2, False)]:
        got = recovered[:, n, m].imag if imag else recovered[:, n, m].real
        predicted = model.sigma(oracles.entry_weights(order, n, m, imag))
        assert np.std(got, ddof=1) == pytest.approx(predicted, rel=0.2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_traced_at_tiny_scale(cli, name, tmp_path):
    workload = WORKLOADS[name](7, tiny=True)
    result = harness.measure(workload, cli, tmp_path / "w", seconds=0, trace=True,
                             import_s=0.0)
    assert result["correct"]
    assert result["attempted"] == 2 * len(workload.ops(tmp_path))
    assert set(result["metrics"]) == set(tracing.PER_LAYER) | {"trace.overhead_s"}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert not (tmp_path / "w" / "pass0").exists()


def test_untraced_metrics_and_checks_catch_bad_output(cli, tmp_path):
    workload = FullRunSuperposition(3, tiny=True)
    result = harness.measure(workload, cli, tmp_path / "w", seconds=0, trace=False,
                             import_s=0.0)
    assert result == {**result, "correct": True, "attempted": 1, "failed": 0}
    assert set(result["metrics"]) == {"setup_s", "pipeline_s", "mshot_per_s",
                                      "peak_rss_mb", "run_dir_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    # a run directory made by the same pass, then altered, fails its checks
    run = tmp_path / "again" / "run"
    (op,) = workload.ops(run.parent)
    assert cli.run(op.argv()) == 0 and op.check() == []
    report = json.loads((run / "report.json").read_text())
    report["moments"][1][1][0] += 0.3
    (run / "report.json").write_text(json.dumps(report))
    problems = op.check()
    assert any("report.json: checksum" in p for p in problems)
    assert any("Re m(1,1)" in p for p in problems)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reanalyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
