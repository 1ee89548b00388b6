import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hettomo.acquire import RawMomentMatrix
from hettomo.cli import (ConfigError, build_state, cmd_wigner, load_config,
                         parse_config, run)
from hettomo.fock import FockState, NoiseModel, analytic_moments, noise_moments
from hettomo.serialize import (load_batch_moments, load_report, save_batch_moments,
                               save_report)
from hettomo.tomo import InversionReport


def write_config(tmp_path, **extra):
    doc = {
        "seed": 99,
        "shots": 20_000,
        "batches": 20,
        "order": 4,
        "state": {"kind": "fock", "k": 1},
        "amplifier": {"gain": 100.0, "nbar": 1.0},
        "histogram": {"bins": 128},
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config({"seed": 1, "shots": 100,
                            "state": {"kind": "vacuum"}})
        assert cfg.gain == 1.0 and cfg.nbar == 0.0 and cfg.order == 4

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"shots": 100, "state": {"kind": "vacuum"}})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": "abc", "shots": 100,
                          "state": {"kind": "vacuum"}})

    def test_unknown_state_kind(self):
        with pytest.raises(ConfigError, match="state.kind"):
            parse_config({"seed": 1, "shots": 100, "state": {"kind": "cat"}})

    def test_batches_bounded_by_shots(self):
        with pytest.raises(ConfigError, match="batches"):
            parse_config({"seed": 1, "shots": 10, "batches": 20,
                          "state": {"kind": "vacuum"}})

    def test_negative_gain(self):
        with pytest.raises(ConfigError, match="amplifier.gain"):
            parse_config({"seed": 1, "shots": 100,
                          "state": {"kind": "vacuum"},
                          "amplifier": {"gain": -1.0}})

    def test_nbar_from_temperature(self):
        cfg = parse_config({"seed": 1, "shots": 100,
                            "state": {"kind": "vacuum"},
                            "amplifier": {"gain": 1.0, "temperature_K": 21.0,
                                          "frequency_Hz": 6.77e9}})
        assert cfg.nbar == pytest.approx(64.1, abs=0.5)

    def test_overrides_take_precedence(self):
        cfg = parse_config({"seed": 1, "shots": 100,
                            "state": {"kind": "vacuum"}},
                           overrides={"seed": 7, "shots": None})
        assert cfg.seed == 7 and cfg.shots == 100

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)


class TestBuildState:
    def test_fock(self):
        state = build_state({"kind": "fock", "k": 1})
        assert state.rho[1, 1].real == pytest.approx(1.0)

    def test_coherent_complex_alpha(self):
        state = build_state({"kind": "coherent", "alpha": [0.3, 0.4]})
        assert state.profile == ("coherent", 0.3 + 0.4j)

    def test_superposition_with_loss(self):
        state = build_state({"kind": "superposition", "beta": 1.0,
                             "loss_eta": 0.5})
        assert state.rho[1, 1].real == pytest.approx(0.5)

    def test_invalid_parameters_become_config_errors(self):
        with pytest.raises(ConfigError):
            build_state({"kind": "superposition", "beta": 2.0})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "out")]) == 2
        assert "error [simulate]" in capsys.readouterr().err

    def test_data_error_is_3(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run(["analyze", "--signal", str(tmp_path / "empty"),
                    "--gain", "1.0", "--out", str(tmp_path / "r.json")]) == 3

    def test_numeric_error_is_4(self, tmp_path, capsys):
        # calibrating on a vacuum run has no phase reference at all
        cfg = write_config(tmp_path, shots=2000, batches=4,
                           state={"kind": "vacuum"})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["calibrate", "--signal", str(out),
                    "--out", str(tmp_path / "cal.json")]) == 4

    def test_full_run_requires_calibration_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["full-run", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2


class TestSimulateCommand:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=5000, batches=5)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("hist_signal.json", "hist_signal.u64",
                     "moments_signal.json", "hist_vacuum.json",
                     "moments_vacuum.json", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["gain_true"] == 100.0
        assert set(manifest["files"]) >= {"hist_signal.u64",
                                          "moments_signal.json"}
        sigma = manifest["derived"]["sigma_vac"]
        assert sigma == pytest.approx(math.sqrt(100.0 * 2.0 / 2.0), rel=0.05)

    def test_reproducible_and_seed_sensitive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=2000, batches=2)
        for name, seed in (("a", None), ("b", None), ("c", "123")):
            args = ["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / name)]
            if seed:
                args += ["--seed", seed]
            assert run(args) == 0
        a = load_batch_moments(tmp_path / "a" / "moments_signal.json")
        b = load_batch_moments(tmp_path / "b" / "moments_signal.json")
        c = load_batch_moments(tmp_path / "c" / "moments_signal.json")
        assert np.array_equal(a[0].values, b[0].values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_time_domain_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=2000, batches=2,
                           time_domain={"enabled": True, "kappa": 0.05,
                                        "dt": 1.0, "bins": 200})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "moments_signal.json").exists()

    def test_store_shots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=1000, batches=2, store_shots=True)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "shots_signal.bin").exists()


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fullrun")
    cfg = write_config(
        tmp_path, shots=50_000, batches=25,
        state={"kind": "superposition", "beta": 0.70710678, "phase": 0.0},
        calibration={"beta": 0.70710678, "phase": 3.14159265})
    out = tmp_path / "run"
    code = run(["full-run", "--config", str(cfg), "--out", str(out)])
    return code, out


class TestPipelineCommands:
    def test_exit_code_and_artifacts(self, full_run):
        code, out = full_run
        assert code == 0
        for name in ("summary.json", "report.json", "report.txt",
                     "calibration.json", "wigner.csv", "wigner.json",
                     "manifest.json"):
            assert (out / name).exists(), name

    def test_gain_recovered(self, full_run):
        _, out = full_run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gain_estimate"] == pytest.approx(100.0, rel=0.2)

    def test_moments_recovered(self, full_run):
        _, out = full_run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["m11"] == pytest.approx(0.5, abs=0.1)
        assert summary["m01_abs"] == pytest.approx(0.5, abs=0.1)

    def test_report_loads_with_errors(self, full_run):
        _, out = full_run
        report = load_report(out / "report.json")
        assert report.errors is not None
        assert float(np.min(report.errors)) >= 0.0

    def test_analyze_with_explicit_gain(self, full_run, tmp_path, capsys):
        _, out = full_run
        code = run(["analyze", "--signal", str(out), "--gain", "100.0",
                    "--order", "4", "--out", str(tmp_path / "r2.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "recovered" in text

    def test_analyze_order_below_stored(self, tmp_path, capsys):
        cfg = write_config(tmp_path, order=8, shots=4000, batches=4)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["analyze", "--signal", str(out), "--order", "4",
                    "--out", str(tmp_path / "r4.json")]) == 0
        doc = json.loads((tmp_path / "r4.json").read_text())
        assert doc["order"] == 4
        assert np.array(doc["moments"]).shape[:2] == (5, 5)
        assert np.array(doc["errors"]).shape == (5, 5)

    def test_wigner_from_report(self, full_run, tmp_path, capsys):
        _, out = full_run
        code = run(["wigner", "--report", str(out / "report.json"),
                    "--extent", "2.0", "--resolution", "41",
                    "--out", str(tmp_path / "w")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "min_w" in doc and "truncation_order" in doc


def _order2_batch(s01: complex, s11: float) -> RawMomentMatrix:
    values = np.zeros((3, 3), dtype=complex)
    values[0, 0], values[1, 1] = 1.0, s11
    values[0, 1], values[1, 0] = s01, np.conj(s01)
    return RawMomentMatrix(values, count=1000)


@pytest.mark.parametrize("poison, code", [(-3.0, 0), (-16.0, 4)])
def test_calibrate_counts_failed_replicas(tmp_path, capsys, poison, code):
    # 19 calibration batches sit 1 above the vacuum's s(1,1) = 2 and one sits
    # at `poison`: a replica's noise-subtracted s(1,1) is <= 0, and its gain
    # estimate fails, once it draws the poisoned batch k times with
    # 20 - k (3 - poison) <= 0, i.e. k >= 4 at -3 and k >= 2 at -16; the
    # combined run keeps a positive (17 + poison) / 20 either way
    save_batch_moments(tmp_path / "moments_calibration.json",
                       [_order2_batch(1.0, 3.0)] * 19 + [_order2_batch(1.0, poison)])
    save_batch_moments(tmp_path / "moments_vacuum.json", [_order2_batch(0.0, 2.0)] * 20)
    rng = np.random.default_rng(np.random.SeedSequence([0, 0xCA1]))
    expected = 0
    for _ in range(200):   # the documented draw order: calibration, then vacuum
        k = np.count_nonzero(rng.integers(0, 20, 20) == 19)
        rng.integers(0, 20, 20)
        expected += 20 - k * (3.0 - poison) <= 0
    assert 0 < expected
    assert (expected > 20) == (code == 4)

    out = tmp_path / "calibration.json"
    assert run(["calibrate", "--signal", str(tmp_path), "--out", str(out)]) == code
    if code == 4:
        assert f"failed on {expected} of 200" in capsys.readouterr().err
        assert not out.exists()
    else:
        doc = json.loads(out.read_text())
        assert doc["n_bootstrap_failed"] == expected
        assert doc["n_bootstrap"] == 200 - expected
        assert doc["gain"] == pytest.approx(((17.0 + poison) / 20.0) ** 2)


def test_wigner_truncation_tests_each_diagonal_against_its_own_error(tmp_path):
    # order-8 |1> moments whose high diagonals carry large errors, as at a
    # few 1e6 shots: m(1, 1) = 1 is far above its own error, so m(2, 2) = 0
    # ends the sum at order 2 and W(0) = -2/pi
    errors = np.full((9, 9), 0.01)
    errors[3, 3], errors[4, 4] = 0.4, 2.08
    report = InversionReport(moments=analytic_moments(FockState.fock(1), 8),
                             gain=1.0, noise=noise_moments(NoiseModel(0.0), 8),
                             errors=errors)
    save_report(tmp_path / "report.json", report)
    result = cmd_wigner(tmp_path / "report.json", tmp_path / "w", extent=1.0,
                        resolution=21)
    assert result["truncation_order"] == 2
    assert result["min_w"] == pytest.approx(-2.0 / math.pi, abs=1e-12)
    assert result["at"] == [0.0, 0.0]


REPO = Path(__file__).resolve().parents[1]


def _console_script_target() -> str:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hettomo"]


def _assert_help(cmd, env=None):
    proc = subprocess.run([*cmd, "--help"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "usage: hettomo" in proc.stdout
    assert "simulate" in proc.stdout and "full-run" in proc.stdout


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def test_console_entry_point_help():
    # start the declared [project.scripts] target the way an installed
    # console script does, so a bare checkout checks the same thing
    launcher = ("import sys; from importlib.metadata import EntryPoint; "
                "sys.argv[0] = 'hettomo'; "
                f"sys.exit(EntryPoint('hettomo', {_console_script_target()!r}, "
                "'console_scripts').load()())")
    _assert_help([sys.executable, "-c", launcher], _src_env())
    installed = shutil.which("hettomo")
    if installed:
        _assert_help([installed])


def test_python_dash_m_help():
    for module in ("hettomo", "hettomo.cli"):
        _assert_help([sys.executable, "-m", module], _src_env())
