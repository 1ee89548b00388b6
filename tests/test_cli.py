import functools
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from hettomo import cli, serialize
from hettomo.acquire import (QuadratureHistogram, StreamingMoments, combine_batches,
                             leaf_slices)
from hettomo.cli import (ConfigError, build_state, cmd_wigner, load_config,
                         parse_config, run)
from hettomo.fock import FockState, analytic_moments, coherent_state
from hettomo.moments import BatchMoments
from hettomo.serialize import (load_batch_moments, load_report, save_batch_moments,
                               save_report)
from hettomo.simulate import (AmplifierChain, TemporalEnvelope, detector_blocks,
                              matched_filter, sample_detector, simulate_time_trace,
                              thermal_nbar)
from hettomo.tomo import InversionReport, estimate_gain

from conftest import noise_moments


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
        assert cfg.chain.gain == 1.0 and cfg.chain.nbar == 0.0
        assert cfg.order == 4 and cfg.envelope is None and cfg.calibration is None

    def test_largest_batch_numpy_can_index_parses(self):
        # a batch draws 2 normals per shot; one more shot cannot be indexed
        largest = np.iinfo(np.intp).max // 2
        doc = {"seed": 1, "shots": largest, "batches": 1, "state": {"kind": "vacuum"}}
        assert parse_config(doc).shots == largest
        with pytest.raises(ConfigError, match="config: shots"):
            parse_config({**doc, "shots": largest + 1})

    def test_largest_histogram_parses(self):
        # 4096^2 dense uint32 counts are 64 MiB, the most a run may allocate
        doc = {"seed": 1, "shots": 100, "state": {"kind": "vacuum"}}
        assert parse_config({**doc, "histogram": {"bins": 4096}}).bins == 4096

    def test_batches_default_to_at_most_one_per_shot(self):
        doc = {"seed": 1, "shots": 50, "state": {"kind": "vacuum"}}
        assert parse_config(doc).batches == 50
        assert parse_config({**doc, "shots": 20_000}, {"shots": 50}).batches == 50
        assert parse_config({**doc, "shots": 101}).batches == 100

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"shots": 100, "state": {"kind": "vacuum"}})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": "abc", "shots": 100,
                          "state": {"kind": "vacuum"}})

    @pytest.mark.parametrize("seed", [-1, True, 2.0])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": seed, "shots": 100,
                          "state": {"kind": "vacuum"}})

    def test_unknown_state_kind(self):
        with pytest.raises(ConfigError, match="state: kind must be one of"):
            parse_config({"seed": 1, "shots": 100, "state": {"kind": "cat"}})

    def test_batches_bounded_by_shots(self):
        with pytest.raises(ConfigError, match="batches"):
            parse_config({"seed": 1, "shots": 10, "batches": 20,
                          "state": {"kind": "vacuum"}})

    def test_negative_gain(self):
        with pytest.raises(ConfigError, match="amplifier: gain must be > 0"):
            parse_config({"seed": 1, "shots": 100,
                          "state": {"kind": "vacuum"},
                          "amplifier": {"gain": -1.0, "nbar": 0.0}})

    @pytest.mark.parametrize("block, value, expected", [
        ("amplifier", {"gain": 100, "nbar": 0}, (100.0, 0.0)),
        ("histogram", {"range": 5}, 5.0),
        ("histogram", {"range": None}, None),
    ])
    def test_integers_serve_as_numbers_and_null_range_means_auto(self, block, value,
                                                                 expected):
        cfg = parse_config({"seed": 1, "shots": 100, "state": {"kind": "vacuum"},
                            block: value})
        read = (cfg.chain.gain, cfg.chain.nbar) if block == "amplifier" \
            else cfg.extent
        assert repr(read) == repr(expected)     # numbers come back as floats

    @pytest.mark.parametrize("rayleigh_jeans, nbar", [(False, 64.13481983080844),
                                                      (True, 64.63353051549174)])
    def test_nbar_from_temperature(self, rayleigh_jeans, nbar):
        # the occupation thermal_nbar gives at (T, nu), bit for bit
        amp = {"gain": 1.0, "temperature_K": 21.0, "frequency_Hz": 6.77e9,
               "rayleigh_jeans": rayleigh_jeans}
        cfg = parse_config({"seed": 1, "shots": 100, "state": {"kind": "vacuum"},
                            "amplifier": amp})
        assert cfg.chain.nbar == thermal_nbar(21.0, 6.77e9, rayleigh_jeans) == nbar

    def test_occupation_past_float_range_simulates_as_zero(self, tmp_path):
        # h nu / kT = 28 795: e^x overflows a float, where the occupation is 0.0
        amp = {"gain": 100.0, "temperature_K": 1e-5, "frequency_Hz": 6e9}
        path = write_config(tmp_path, amplifier=amp)
        assert load_config(path).chain.nbar == 0.0
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

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
        with pytest.raises(ConfigError, match="state"):
            parse_config({"seed": 1, "shots": 100,
                          "state": {"kind": "superposition", "beta": 2.0}})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "out")]) == 2
        assert "error [simulate]" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, True])
    def test_bad_config_seed_is_2(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, seed=seed)
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("seed", ["-1", "true"])
    def test_bad_seed_flag_is_2(self, tmp_path, capsys, seed):
        argv = ["simulate", "--config", str(write_config(tmp_path)),
                "--seed", seed, "--out", str(tmp_path / "out")]
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse rejects a non-integer itself
            code = exc.code
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value", [
        ("time_domain", {"enabled": True, "kappa": 0.5}),
        ("amplifier", {"temperature_K": -1, "frequency_Hz": 6e9}),
        ("time_domain", {"enabled": True, "bins": "abc"}),
        ("calibration", {"phase": "x"}),
        ("state", {"kind": "coherent", "alpha": [1]}),
        ("histogram", []),
        ("time_domain", []),
        ("state", {"kind": "fock", "k": 99}),
        # wrong JSON types: a bool is not a number, a float not an integer,
        # a string not a number or a switch, and numbers must be finite
        ("config", {"shots": True}),
        ("config", {"order": True}),
        ("config", {"batches": True}),
        ("config", {"shots": 50, "batches": 100}),  # the default is min(100, shots)
        ("histogram", {"bins": True}),
        ("histogram", {"range": True}),
        ("amplifier", {"gain": True, "nbar": 1.0}),
        ("amplifier", {"gain": 100.0, "nbar": True}),
        ("time_domain", {"enabled": "false"}),
        ("config", {"store_shots": "false"}),
        ("state", {"kind": "fock", "k": 1.7}),
        ("time_domain", {"enabled": True, "bins": 400.7}),
        ("time_domain", {"enabled": True, "kappa": "0.025"}),
        ("state", {"kind": "superposition", "beta": "0.5"}),
        ("calibration", {"beta": "0.5"}),
        ("calibration", {"admixture": "0.1"}),
        ("state", {"kind": "thermal", "nbar": "0.5"}),
        ("histogram", {"range": math.inf}),
        ("time_domain", {"enabled": True, "kappa": math.nan}),
        # a batch's noise draw that numpy cannot index; at 2**54 shots only the
        # time-domain record's 2 x 400 normals per shot are too many
        ("config", {"shots": 10 ** 30, "batches": 1}),
        ("config", {"shots": 2 ** 54, "batches": 1, "time_domain": {"enabled": True}}),
        # h nu / kT underflows to 0: no finite occupation, either way
        ("amplifier", {"temperature_K": 1e300, "frequency_Hz": 1e-300}),
        ("amplifier", {"temperature_K": 1e300, "frequency_Hz": 1e-300,
                       "rayleigh_jeans": True}),
        # |alpha|^2 past float range: too large, not an OverflowError
        ("state", {"kind": "coherent", "alpha": 1e300}),
        ("state", {"kind": "coherent", "alpha": [1e308, 1e308]}),
    ])
    def test_bad_config_block_is_2(self, tmp_path, capsys, block, value):
        # "config" names the top level: its keys are set directly
        cfg = write_config(tmp_path, **(value if block == "config" else {block: value}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{block}: " in capsys.readouterr().err
        assert not out.exists()     # refused before the pilot run

    @pytest.mark.parametrize("key, value, flags, named", [
        ("state", 3, [], "state: "),
        ("amplifier", "x", [], "amplifier: "),
        ("histogram", 3, [], "histogram: "),
        ("time_domain", [True], [], "time_domain: "),
        ("calibration", 0.5, [], "calibration: "),
        ("histogram", 3, ["--bins", "8"], "histogram: "),   # the flag merges into no object
        ("state", None, [], "state: "),     # None: the key is left out
        ("seed", None, [], "seed"),
        ("config", None, [], "config: "),   # the top level is a list
    ])
    def test_non_object_or_missing_block_is_2_and_named(self, tmp_path, capsys, key,
                                                        value, flags, named):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        if key == "config":
            doc = [doc]
        elif value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(path), *flags, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "full-run"])
    @pytest.mark.parametrize("flag", [False, True])
    def test_bins_above_4096_are_2(self, tmp_path, capsys, command, flag):
        # refused at parse time, before a dense 4097^2 histogram is allocated
        cfg = write_config(tmp_path, calibration={},
                           histogram={"bins": 128 if flag else 4097})
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert run(argv + (["--bins", "4097"] if flag else [])) == 2
        assert "histogram: bins must be an integer in [1, 4096], got 4097" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, value, message", [
        ("state", {"kind": "thermal", "nbar": 1e12},
         f"nbar must be a finite number in [0, {cli.MAX_THERMAL_NBAR}], got 1000000000000.0"),
        ("time_domain", {"enabled": True, "bins": 10 ** 12},
         f"bins must be an integer in [1, {cli.MAX_TIME_BINS}], got 1000000000000"),
    ])
    def test_sizes_above_their_cap_are_2_before_allocating(self, tmp_path, capsys, block,
                                                           value, message):
        # 1e12 photons need a dense rho of 1.4e13 levels; 1e12 time bins a 16 TB envelope
        cfg = write_config(tmp_path, **{block: value})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run(["simulate", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"{block}: {message}" in capsys.readouterr().err
        assert peak < 1e6
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["analyze", "--gain", "-1", "--order", "2"], "gain"),
        (["wigner", "--resolution", "0"], "resolution"),
        (["wigner", "--extent", "-1"], "extent"),
    ])
    def test_bad_flag_is_2(self, tmp_path, capsys, argv, flag):
        # valid inputs, so only the flag is at fault
        for name, s01, s11 in (("signal", 1.0, 3.0), ("vacuum", 0.0, 2.0)):
            save_batch_moments(tmp_path / f"moments_{name}.json",
                               _order2_run([_order2_batch(s01, s11)] * 4))
        save_report(tmp_path / "report.json", InversionReport(
            moments=analytic_moments(FockState.fock(1), 4), gain=1.0,
            noise=noise_moments(0.0, 4), errors=np.zeros((5, 5))))
        inputs = {"analyze": ["--signal", str(tmp_path)],
                  "wigner": ["--report", str(tmp_path / "report.json")]}
        out = tmp_path / "out"
        assert run([*argv, *inputs[argv[0]], "--out", str(out)]) == 2
        assert f"{flag}: " in capsys.readouterr().err
        assert not any(tmp_path.glob("out*"))

    def test_resolution_above_the_cap_is_2(self, tmp_path, capsys):
        # refused before the report is read or any grid point allocated
        save_report(tmp_path / "report.json", InversionReport(
            moments=analytic_moments(FockState.fock(1), 4), gain=1.0,
            noise=noise_moments(0.0, 4), errors=np.zeros((5, 5))))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run(["wigner", "--report", str(tmp_path / "report.json"), "--resolution",
                        str(cli.MAX_RESOLUTION + 1), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"--resolution: value must be an integer in [1, {cli.MAX_RESOLUTION}], " \
            f"got {cli.MAX_RESOLUTION + 1}" in capsys.readouterr().err
        assert peak < 1e6    # the refused grid would take 2049^2 x 88 B, about 370 MB
        assert not any(tmp_path.glob("out*"))

    @pytest.mark.parametrize("unreadable", ["directory", "not UTF-8"])
    @pytest.mark.parametrize("argv, code", [(["simulate", "--config"], 2),
                                            (["wigner", "--report"], 3)],
                             ids=["config", "report"])
    def test_unreadable_input_file_is_2_or_3(self, tmp_path, capsys, argv, code,
                                             unreadable):
        # a config file that cannot be read is a config error, a stored file a data error
        path = tmp_path / "input.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": "\xff"}')
        out = tmp_path / "out"
        assert run([*argv, str(path), "--out", str(out)]) == code
        assert f"{path}: " in capsys.readouterr().err
        assert not any(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv, name, corrupt", [
        (["calibrate", "--signal", "."], "moments_calibration.json",
         lambda doc: doc[3]["values"][1].__setitem__(1, [math.nan, 0.0])),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_vacuum.json",
         lambda doc: doc[0]["values"][0].__setitem__(1, [0.5, 0.0])),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc["moments"][1].__setitem__(1, [math.nan, 0.0])),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc["errors"][1].__setitem__(1, -0.1)),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.pop("noise_moments")),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.__setitem__("errors", doc["errors"][:3])),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.__setitem__("gain", "1.0")),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_signal.json", lambda doc: doc[2].__setitem__("count", 0)),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_signal.json", lambda doc: doc.clear()),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_signal.json", lambda doc: doc[2].__setitem__("count", True)),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_signal.json", lambda doc: doc[2].__setitem__("count", 999.5)),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_signal.json",   # an order-1 batch among order-2 ones
         lambda doc: doc[4].__setitem__("values", [r[:2] for r in doc[4]["values"][:2]])),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_vacuum.json", lambda doc: doc[1].pop("values")),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.__setitem__("errors", None)),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.pop("errors")),
        # values of the wrong JSON type whose Python value would pass every other check
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.__setitem__("gain", True)),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc["errors"][1].__setitem__(1, True)),
        (["analyze", "--signal", ".", "--gain", "1.0", "--order", "2"],
         "moments_signal.json",   # m(0, 0) = 1 as [true, false]
         lambda doc: doc[0]["values"][0].__setitem__(0, [True, False])),
        (["calibrate", "--signal", "."], "moments_vacuum.json",
         lambda doc: doc[0]["values"][0].__setitem__(0, [1.0, 0.0, 7.0])),
        # the parts of a report must agree in order
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.__setitem__("noise_moments",
                                     [r[:3] for r in doc["noise_moments"][:3]])),
        (["wigner", "--report", "report.json"], "report.json",
         lambda doc: doc.__setitem__("order", 3)),
    ])
    def test_corrupt_stored_file_is_3(self, tmp_path, capsys, monkeypatch, argv, name,
                                      corrupt):
        for run_name, s01, s11 in (("signal", 1.0, 3.0), ("calibration", 1.0, 3.0),
                                   ("vacuum", 0.0, 2.0)):
            save_batch_moments(tmp_path / f"moments_{run_name}.json",
                               _order2_run([_order2_batch(s01, s11)] * 20))
        save_report(tmp_path / "report.json", InversionReport(
            moments=analytic_moments(FockState.fock(1), 4), gain=1.0,
            noise=noise_moments(0.0, 4), errors=np.full((5, 5), 0.01)))
        doc = json.loads((tmp_path / name).read_text())
        corrupt(doc)
        (tmp_path / name).write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--out", "out"]) == 3
        err = capsys.readouterr().err
        assert f"{name}: " in err
        if not doc:
            assert "holds no batches" in err
        assert not any(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command, out", [
        ("simulate", "a_file"), ("full-run", "a_file/run"),
        ("analyze", "missing/report.json"), ("analyze", "report.txt"), ("calibrate", "a_dir"),
        ("wigner", "missing/w"), ("wigner", "w.1")])
    def test_unwritable_out_is_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                 command, out):
        # a run directory on or below a file, an output file in a missing directory or
        # on a directory (wigner --out w.1 writes w.1.csv), or analyze's table on its
        # own report: refused before any input is read, leaving nothing behind
        (tmp_path / "a_file").write_text("kept")
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "w.1.csv").mkdir()
        for run_name, s01, s11 in (("signal", 1.0, 3.0), ("calibration", 1.0, 3.0),
                                   ("vacuum", 0.0, 2.0)):
            save_batch_moments(tmp_path / f"moments_{run_name}.json",
                               _order2_run([_order2_batch(s01, s11)] * 20))
        save_report(tmp_path / "report.json", InversionReport(
            moments=analytic_moments(FockState.fock(1), 4), gain=1.0,
            noise=noise_moments(0.0, 4), errors=np.full((5, 5), 0.01)))
        cfg = write_config(tmp_path, shots=2000, batches=4, calibration={})
        inputs = {"simulate": ["--config", str(cfg)], "full-run": ["--config", str(cfg)],
                  "analyze": ["--signal", ".", "--gain", "1.0", "--order", "2"],
                  "calibrate": ["--signal", "."], "wigner": ["--report", "report.json"]}
        before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_read", lambda *args: pytest.fail("input read first"))
        assert run([command, *inputs[command], "--out", out]) == 2
        assert f"error [{command}]: --out {out}: " in capsys.readouterr().err
        assert {path: path.is_file() and path.read_bytes()
                for path in tmp_path.rglob("*")} == before

    @pytest.mark.parametrize("gain", [0.0, -100.0])
    def test_non_positive_manifest_gain_is_3(self, tmp_path, capsys, gain):
        # the gain comes from the stored run, so no flag is at fault
        for name, s01, s11 in (("signal", 1.0, 3.0), ("vacuum", 0.0, 2.0)):
            save_batch_moments(tmp_path / f"moments_{name}.json",
                               _order2_run([_order2_batch(s01, s11)] * 4))
        (tmp_path / "manifest.json").write_text(json.dumps({"derived": {"gain_true": gain}}))
        out = tmp_path / "out.json"
        assert run(["analyze", "--signal", str(tmp_path), "--order", "2",
                    "--out", str(out)]) == 3
        assert "manifest.json: gain_true must be a finite number > 0" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_is_3(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run(["analyze", "--signal", str(tmp_path / "empty"),
                    "--gain", "1.0", "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("command", [["calibrate"], ["analyze", "--gain", "1.0"]])
    def test_runs_of_different_orders_are_3(self, tmp_path, capsys, command):
        for name, order in (("signal", 4), ("vacuum", 2)):
            cfg = write_config(tmp_path, shots=2000, batches=4, order=order,
                               calibration={})
            assert run(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / name)]) == 0
        out = tmp_path / "out.json"
        assert run([*command, "--signal", str(tmp_path / "signal"), "--vacuum",
                    str(tmp_path / "vacuum"), "--out", str(out)]) == 3
        assert "different moment orders" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_error_is_4(self, tmp_path, capsys):
        # calibrating on a vacuum run has no phase reference at all
        cfg = write_config(tmp_path, shots=2000, batches=4,
                           state={"kind": "vacuum"})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["calibrate", "--signal", str(out),
                    "--out", str(tmp_path / "cal.json")]) == 4

    @pytest.mark.parametrize("command", ["simulate", "full-run"])
    def test_vacuum_histogram_without_shots_is_4(self, tmp_path, capsys, command):
        # a range of 1e-12 catches no shot, so the vacuum histogram would be empty
        cfg = write_config(tmp_path, seed=1, shots=2000, batches=2, order=2,
                           state={"kind": "vacuum"}, amplifier={"gain": 1.0, "nbar": 0.0},
                           histogram={"bins": 4, "range": 1e-12}, calibration={})
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="overflow fraction"):
            code = run([command, "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert "histogram.range: no vacuum shot within +/-1e-12" in capsys.readouterr().err
        # the manifest still lists and hashes what the failed run wrote
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert files == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        assert {"hist_signal.occ", "hist_vacuum.occ", "moments_vacuum.json"} <= set(files)
        # 16 empty bins
        assert zlib.decompress((out / "hist_vacuum.occ").read_bytes()) == bytes(2)
        assert serialize.load_histogram(out / "hist_vacuum").overflow == 2000

    @pytest.mark.parametrize("command", ["simulate", "full-run"])
    @pytest.mark.parametrize("amplifier, message", [
        ({"gain": 1e300, "nbar": 1.0}, "signal run: moment matrix contains non-finite"),
        ({"gain": 1e308, "nbar": 1e308}, "histogram.range: pilot vacuum width nan is "
                                         "not finite")], ids=["moments", "pilot"])
    def test_detector_data_overflowing_float64_is_4(self, tmp_path, capsys, command,
                                                    amplifier, message):
        # finite shots whose order-4 moments overflow, and shots that overflow
        cfg = write_config(tmp_path, shots=2000, batches=2, amplifier=amplifier,
                           calibration={})
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert message in capsys.readouterr().err
        # the manifest is strict JSON (no NaN) and lists what the failed run wrote
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=lambda c: pytest.fail(f"manifest holds {c}"))
        assert manifest["files"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                     for p in sorted(out.iterdir())
                                     if p.name != "manifest.json"}

    def test_overflowing_moments_are_refused_on_the_first_batch(self, tmp_path, capsys,
                                                                 monkeypatch):
        calls = []

        def counted(draw):
            def wrapper(*args, **kwargs):
                calls.append(draw.__name__)
                return draw(*args, **kwargs)
            return wrapper

        # the pilot draws one whole batch; a run's batches are drawn leaf by leaf
        monkeypatch.setattr(cli, "sample_detector", counted(sample_detector))
        monkeypatch.setattr(cli, "detector_blocks", counted(detector_blocks))
        cfg = write_config(tmp_path, shots=200_000, batches=20,
                           amplifier={"gain": 1e300, "nbar": 1.0})
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "signal run: moment matrix contains non-finite" in capsys.readouterr().err
        # the pilot, the signal run's first batch, and the second batch, which the
        # draw thread starts while the first is summed: at most one leaf beyond the
        # refused batch is drawn
        assert calls == ["sample_detector", "detector_blocks", "detector_blocks"]

    def test_report_above_the_wigner_cap_is_3(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        save_report(path, InversionReport(
            moments=analytic_moments(coherent_state(1.5, cutoff=30), 10), gain=1.0,
            noise=noise_moments(0.0, 10), errors=np.zeros((11, 11))))
        assert run(["wigner", "--report", str(path), "--out", str(tmp_path / "w")]) == 3
        assert f"{path}: order must be an integer in [0, 8], got 10" \
            in capsys.readouterr().err
        assert not any(tmp_path.glob("w*"))

    def test_full_run_requires_calibration_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["full-run", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2

    def test_full_run_needs_two_batches(self, tmp_path, capsys):
        # one batch gives every bootstrap replica the same value
        cfg = write_config(tmp_path, batches=1, calibration={})
        out = tmp_path / "out"
        assert run(["full-run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config: batches" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "full-run"])
    def test_full_run_needs_order_two(self, tmp_path, capsys, command):
        # sigma_vac and the gain calibration read s(1,1), which order 1 does not hold
        cfg = write_config(tmp_path, order=1, calibration={})
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config: order must be an integer in [2, 8], got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_on_order_one_is_3(self, tmp_path, capsys):
        # a stored order-1 run, which simulate no longer makes
        out = tmp_path / "run"
        out.mkdir()
        for name, s01, s11 in (("calibration", 1.0, 3.0), ("vacuum", 0.0, 2.0)):
            save_batch_moments(out / f"moments_{name}.json", BatchMoments(
                np.array([_order2_batch(s01, s11)[:2, :2]] * 2), [1000] * 2))
        assert run(["calibrate", "--signal", str(out),
                    "--out", str(tmp_path / "cal.json")]) == 3
        assert "stored moments only go to order 1" in capsys.readouterr().err
        assert not (tmp_path / "cal.json").exists()

    def test_calibrate_on_one_batch_is_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=2000, batches=1, calibration={})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["calibrate", "--signal", str(out),
                    "--out", str(tmp_path / "cal.json")]) == 4
        assert "at least two batches" in capsys.readouterr().err
        assert not (tmp_path / "cal.json").exists()


class TestSimulateCommand:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=5000, batches=5)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("hist_signal.json", "hist_signal.occ",
                     "moments_signal.json", "hist_vacuum.json",
                     "moments_vacuum.json", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["gain_true"] == 100.0
        assert set(manifest["files"]) >= {"hist_signal.occ",
                                          "moments_signal.json"}
        sigma = manifest["derived"]["sigma_vac"]
        assert sigma == pytest.approx(math.sqrt(100.0 * 2.0 / 2.0), rel=0.05)

    def test_sigma_vac_is_the_vacuum_moments_width(self, tmp_path, capsys):
        # 8 bins over +-6 sigma would widen a width read from the histogram by 9%
        cfg = write_config(tmp_path, shots=5000, batches=5, histogram={"bins": 8})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        s = combine_batches(load_batch_moments(out / "moments_vacuum.json")).values
        sigma = math.sqrt((s[1, 1].real - abs(s[0, 1]) ** 2) / 2.0)
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        assert derived["sigma_vac"] == sigma
        assert derived["sigma_vac_stderr"] == sigma / math.sqrt(4.0 * 5000)

    def test_one_shot_vacuum_run_has_zero_width(self, tmp_path, capsys):
        # at this seed the one shot's s(1,1) - |s(0,1)|^2 rounds to -1.4e-14
        cfg = write_config(tmp_path, seed=7, shots=1, batches=1)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["sigma_vac"] == 0.0

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
        assert np.array_equal(a.values[0], b.values[0])
        assert not np.array_equal(a.values[0], c.values[0])

    def test_time_domain_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=2000, batches=2,
                           time_domain={"enabled": True, "kappa": 0.05,
                                        "dt": 1.0, "bins": 200})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "moments_signal.json").exists()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_time_domain_output_independent_of_cpu_count(self, tmp_path, capsys,
                                                         monkeypatch, workers):
        cfg = write_config(tmp_path, shots=6000, batches=7, store_shots=True,
                           time_domain={"enabled": True, "kappa": 0.05,
                                        "dt": 1.0, "bins": 200})
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "default")]) == 0
        monkeypatch.setattr(cli, "_available_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads often to expose races
        try:
            assert run(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "forced")]) == 0
        finally:
            sys.setswitchinterval(interval)
        names = [f"{kind}_{run_}.{ext}" for run_ in ("signal", "vacuum")
                 for kind, ext in (("hist", "occ"), ("hist", "json"), ("moments", "json"),
                                   ("shots", "bin"), ("shots", "json"))]
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "forced" / name).read_bytes(), name
        # every stored shot must be its own batch's, as drawn one batch after
        # another on [seed, stage] and filtered as one records array
        config = load_config(cfg)
        env, sizes = config.envelope, [858] + [857] * 6
        for name, state, stage in (("signal", config.state, cli.STAGE_SIGNAL),
                                   ("vacuum", FockState.vacuum(), cli.STAGE_VACUUM)):
            redrawn = np.concatenate([
                matched_filter(np.concatenate(list(simulate_time_trace(
                    state, env, config.chain, size, seed=[config.seed, stage], stream=b))), env)
                for b, size in enumerate(sizes)])
            stored = serialize.load_shots(tmp_path / "forced" / f"shots_{name}")
            assert stored.tobytes() == redrawn.tobytes(), name

    def test_time_domain_batch_holds_records_one_row_block_at_a_time(self, monkeypatch):
        # one 2000 x 400 batch: its whole records would take 12.8 MB
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        env = TemporalEnvelope(kappa=0.025, dt=1.0, n_bins=400)
        chain = AmplifierChain(gain=1.0e4, nbar=2.0)
        tracemalloc.start()
        try:
            shots, = cli._time_domain_leaves(FockState.fock(1), env, chain, [2000], [7, 0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shots.shape == (2000,)
        assert peak < 2000 * 400 * 16 / 2

    def test_direct_batch_holds_one_leaf_at_a_time(self):
        # one 400 000-shot Fock |1> batch at order 8, as fock-order8 makes them:
        # drawn, binned and summed whole it allocated 23.5 MB beyond its histogram
        cfg = parse_config({"seed": 7, "shots": 400_000, "batches": 1, "order": 8,
                            "state": {"kind": "fock", "k": 1},
                            "amplifier": {"gain": 1.0e4, "nbar": 2.0}})
        tracemalloc.start()
        try:
            cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 600.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - cfg.bins ** 2 * 4 < 22.8e6 / 2, peak     # 4 B a uint32 bin

    def test_draw_thread_keeps_the_sequential_bytes_under_fast_switching(self):
        # three Fock |2> batches of four leaves each: the draw thread crosses batch
        # edges a leaf ahead, and a 1 us switch interval interleaves it with the sums
        cfg = parse_config({"seed": 29, "shots": 300_007, "batches": 3, "order": 6,
                            "state": {"kind": "fock", "k": 2}, "store_shots": True,
                            "amplifier": {"gain": 4.0, "nbar": 1.5}})
        sizes = cli._batch_sizes(cfg.shots, cfg.batches)
        batches = [sample_detector(cfg.state, cfg.chain, size, [29, cli.STAGE_SIGNAL], b)
                   for b, size in enumerate(sizes)]
        sums = StreamingMoments(6)
        for batch in batches:
            sums.update(batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 30.0)
        finally:
            sys.setswitchinterval(interval)
        assert got["shots"].tobytes() == np.concatenate(batches).tobytes()
        assert got["batch_moments"].values.tobytes() == sums.result().values.tobytes()

    def test_no_thread_outlives_a_simulate(self, tmp_path, capsys):
        before = threading.active_count()
        cfg = write_config(tmp_path, shots=100_000, batches=3)
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert threading.active_count() == before

    def test_no_thread_outlives_a_refused_simulate(self, tmp_path, capsys):
        before = threading.active_count()
        cfg = write_config(tmp_path, shots=200_000, batches=20,
                           amplifier={"gain": 1e300, "nbar": 1.0})
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert threading.active_count() == before

    @np.errstate(over="ignore", invalid="ignore")
    def test_no_thread_outlives_a_refused_run_whose_error_is_kept(self):
        # the kept traceback holds the run's frames, so closing its leaves must not
        # wait for them to be collected; shots of about 1e150 fit the axes, their
        # moment sums overflow
        cfg = parse_config({"seed": 3, "shots": 200_000, "batches": 20,
                            "state": {"kind": "fock", "k": 1},
                            "amplifier": {"gain": 1e300, "nbar": 1.0}})
        before = threading.active_count()
        with pytest.raises(ValueError, match="non-finite") as refused:
            cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 1e200)
        assert threading.active_count() == before, refused.traceback

    def test_no_thread_outlives_a_sampler_error(self, monkeypatch):
        drawn = []

        def failing(state, chain, cuts, seed, stream=0):
            for leaf in detector_blocks(state, chain, cuts, seed, stream):
                drawn.append(leaf.size)
                if len(drawn) == 2:
                    raise RuntimeError("sampler failed on the run's second leaf")
                yield leaf

        monkeypatch.setattr(cli, "detector_blocks", failing)
        cfg = parse_config({"seed": 3, "shots": 200_000, "batches": 2,
                            "state": {"kind": "fock", "k": 1}})
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second leaf"):
            cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 60.0)
        assert threading.active_count() == before

    @staticmethod
    def _leaves_overflowing(first: int):
        # stands in for detector_blocks: `first` shots of the first leaf off-axis
        def blocks(state, chain, cuts, seed, stream=0):
            for cut in cuts:
                leaf = np.zeros(cut.stop - cut.start, dtype=complex)
                leaf[:first if cut.start == 0 else 0] = 1e9
                yield leaf
        return blocks

    def test_overflow_is_checked_at_the_end_of_a_batch(self, monkeypatch):
        # 20 of the first leaf's 16 384 shots overflow (1.2e-3), 20 of the batch's
        # 32 769 do not (6.1e-4): a check after each leaf would warn
        assert [c.stop - c.start for c in leaf_slices(32_769)] == [16_384, 16_385]
        monkeypatch.setattr(cli, "detector_blocks", self._leaves_overflowing(20))
        cfg = parse_config({"seed": 1, "shots": 32_769, "batches": 1,
                            "state": {"kind": "vacuum"}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 1.0)["hist"]
        assert hist.overflow == 20

    def test_overflowing_batches_warn_once(self, monkeypatch):
        monkeypatch.setattr(cli, "detector_blocks", self._leaves_overflowing(40))
        cfg = parse_config({"seed": 1, "shots": 65_538, "batches": 2,
                            "state": {"kind": "vacuum"}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hist = cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 1.0)["hist"]
        assert hist.overflow == 80
        assert [str(w.message) for w in caught] == \
            ["histogram overflow fraction 1.22e-03 exceeds 1e-03"]

    @np.errstate(over="ignore", invalid="ignore")
    def test_no_thread_outlives_a_refused_time_domain_run(self):
        # the first batch's moment sums overflow while the pool makes the next
        # batches; the kept traceback holds the run's frames, as above
        cfg = parse_config({"seed": 3, "shots": 2000, "batches": 4,
                            "state": {"kind": "fock", "k": 1},
                            "time_domain": {"enabled": True, "kappa": 0.1, "bins": 64},
                            "amplifier": {"gain": 1e300, "nbar": 1.0}})
        before = threading.active_count()
        with pytest.raises(ValueError, match="non-finite") as refused:
            cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 1e200)
        assert threading.active_count() == before, refused.traceback

    def test_a_leaf_beyond_the_last_batch_is_refused(self, monkeypatch):
        def surplus(state, chain, cuts, seed, stream=0):
            yield from detector_blocks(state, chain, cuts, seed, stream)
            if stream == 1:
                yield np.zeros(5, dtype=complex)

        monkeypatch.setattr(cli, "detector_blocks", surplus)
        cfg = parse_config({"seed": 3, "shots": 2000, "batches": 2,
                            "state": {"kind": "vacuum"}})
        before = threading.active_count()
        with pytest.raises(ValueError, match="more leaves than leaf_slices cuts"):
            cli.run_acquisition(cfg.state, cfg, cli.STAGE_SIGNAL, 10.0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_keeps_workers_calls_beyond_the_awaited_one(self, workers):
        submitted = []

        def calls():
            for i in range(6):
                submitted.append(i)
                yield functools.partial(int, i)

        for k, got in enumerate(cli._in_order(calls(), workers)):
            assert got == k
            assert len(submitted) == min(k + 1 + workers, 6)

    def test_pool_calls_run_under_the_callers_error_state(self):
        def overflow():
            return np.full(3, 1e300) * 1e300

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            list(cli._in_order([overflow], 1))
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got, = cli._in_order([overflow], 1)
        assert np.isposinf(got).all()

    @pytest.mark.parametrize("size", [32_768, 32_769, 65_540, 65_541, 400_000])
    @pytest.mark.parametrize("state", [
        {"kind": "fock", "k": 0}, {"kind": "fock", "k": 1}, {"kind": "fock", "k": 2},
        {"kind": "coherent", "alpha": [1.0, -0.5]}, {"kind": "thermal", "nbar": 0.7},
        {"kind": "superposition", "beta": 0.70710678}],
        ids=["fock0", "fock1", "fock2", "coherent", "thermal", "superposition"])
    def test_leaf_by_leaf_acquisition_keeps_whole_batch_bytes(self, state, size):
        # the batch binned and summed leaf by leaf must give the whole batch's
        # sums, counts and shots: the same draw, and each sum one np.sum
        cfg = parse_config({"seed": 23, "shots": size, "batches": 1, "order": 8,
                            "amplifier": {"gain": 4.0, "nbar": 1.5}, "state": state})
        state = cfg.state
        whole = sample_detector(state, cfg.chain, size, seed=[23, cli.STAGE_SIGNAL])
        sums = StreamingMoments(8).update(whole).result().values
        counts = QuadratureHistogram(cfg.bins, 12.0).add(whole).counts
        for store_shots in (False, True):
            cfg.store_shots = store_shots
            got = cli.run_acquisition(state, cfg, cli.STAGE_SIGNAL, 12.0)
            assert got["batch_moments"].values.tobytes() == sums.tobytes()
            assert np.array_equal(got["hist"].counts, counts)
            assert ("shots" in got) == store_shots
        assert got["shots"].tobytes() == whole.tobytes()

    def test_bins_flag_keeps_histogram_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=1000, batches=1,
                           histogram={"bins": 128, "range": 75.0})
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--bins", "8",
                    "--out", str(out)]) == 0
        header = json.loads((out / "hist_signal.json").read_text())
        assert header["bins"] == 8 and header["extent"] == 75.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["histogram"] == {"bins": 8, "range": 75.0}

    def test_time_domain_flag_keeps_block_settings(self, tmp_path, capsys):
        block = {"kappa": 0.05, "bins": 200}
        flagged = write_config(tmp_path, shots=1000, batches=1, time_domain=block)
        assert run(["simulate", "--config", str(flagged), "--time-domain",
                    "--out", str(tmp_path / "flag")]) == 0
        enabled = {**block, "enabled": True}
        manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
        assert manifest["config"]["time_domain"] == enabled
        (tmp_path / "enabled").mkdir()
        cfg = write_config(tmp_path / "enabled", shots=1000, batches=1,
                           time_domain=enabled)
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "enabled" / "run")]) == 0
        assert (tmp_path / "flag" / "moments_signal.json").read_bytes() == \
            (tmp_path / "enabled" / "run" / "moments_signal.json").read_bytes()

    def test_store_shots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shots=1000, batches=2, store_shots=True)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "shots_signal.bin").exists()

    def test_stored_histogram_equals_stored_shots_binned(self, tmp_path, capsys):
        # the shots file and the histogram file are written apart: binning the
        # stored shots afresh must give the loaded histogram exactly
        cfg = write_config(tmp_path, shots=3001, batches=3, store_shots=True)
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("signal", "vacuum"):
            header = json.loads((out / f"hist_{name}.json").read_text())
            fresh = QuadratureHistogram(header["bins"], header["extent"]).add(
                serialize.load_shots(out / f"shots_{name}"))
            stored = serialize.load_histogram(out / f"hist_{name}")
            assert stored.counts.dtype == fresh.counts.dtype
            assert np.array_equal(stored.counts, fresh.counts)
            assert (stored.in_range, stored.overflow) == (fresh.in_range, fresh.overflow)
            assert header["occupied"] == np.count_nonzero(fresh.counts)


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

    def test_wigner_prefixes_differing_after_a_dot_keep_their_files(self, full_run,
                                                                    tmp_path, capsys):
        _, out = full_run
        resolutions = {"maps.1": 21, "maps.2": 31}
        for prefix, resolution in resolutions.items():
            assert run(["wigner", "--report", str(out / "report.json"), "--resolution",
                        str(resolution), "--out", str(tmp_path / prefix)]) == 0
        for prefix, resolution in resolutions.items():
            header = json.loads((tmp_path / f"{prefix}.json").read_text())
            assert header["resolution"] == resolution
            assert header["csv_file"] == f"{prefix}.csv"
            lines = (tmp_path / f"{prefix}.csv").read_text().splitlines()
            assert len(lines) == 1 + resolution ** 2
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "maps.1.csv", "maps.1.json", "maps.2.csv", "maps.2.json"]

    def test_outputs_keep_their_bytes(self, full_run):
        _, out = full_run
        for name, digest in FULL_RUN_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_full_run_equals_file_level_chain(self, full_run, tmp_path, capsys):
        _, out = full_run
        chain = tmp_path / "chain"
        assert run(["simulate", "--config", str(out.parent / "config.json"),
                    "--out", str(chain)]) == 0
        cal = chain / "calibration.json"
        assert run(["calibrate", "--signal", str(chain), "--out", str(cal)]) == 0
        gain = json.loads(cal.read_text())["gain"]
        assert run(["analyze", "--signal", str(chain), "--gain", repr(gain),
                    "--order", "4", "--out", str(chain / "report.json")]) == 0
        assert run(["wigner", "--report", str(chain / "report.json"),
                    "--out", str(chain / "wigner")]) == 0
        names = {p.name for p in out.iterdir()} - {"manifest.json", "summary.json"}
        assert names == {p.name for p in chain.iterdir()} - {"manifest.json"}
        for name in names:
            assert (out / name).read_bytes() == (chain / name).read_bytes(), name

    def test_full_run_reads_nothing_back(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full-run read back a file it wrote")
        monkeypatch.setattr(serialize, "load_batch_moments", refuse)
        monkeypatch.setattr(serialize, "load_report", refuse)
        manifests = []
        write_manifest = cli.write_manifest
        monkeypatch.setattr(cli, "write_manifest",
                            lambda *a: manifests.append(write_manifest(*a)))
        cfg = write_config(tmp_path, shots=4000, batches=4, state=SUPERPOSITION,
                           calibration={"beta": 0.70710678, "phase": 3.14159265})
        assert run(["full-run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert manifests == [tmp_path / "run" / "manifest.json"]

    def test_failed_full_run_leaves_manifest(self, tmp_path, capsys):
        # a calibration state with beta 0 is vacuum: no phase reference
        cfg = write_config(tmp_path, shots=4000, batches=4, state=SUPERPOSITION,
                           calibration={"beta": 0.0})
        out = tmp_path / "run"
        assert run(["full-run", "--config", str(cfg), "--out", str(out)]) == 4
        assert "phase reference too weak" in capsys.readouterr().err
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert files == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        assert len(files) == 9      # histogram header, counts and moments of 3 runs


SUPERPOSITION = {"kind": "superposition", "beta": 0.70710678, "phase": 0.0}

# outputs of the module's full-run, taken while full-run chained the file-level
# commands through the run directory; summary.json since sigma_vac comes from
# the vacuum run's moments, not its histogram (no other value changed)
FULL_RUN_SHA256 = {
    "report.json": "56703878c8925f316908650b17c58f52994d5799027b1e042647842532e1fb9c",
    "report.txt": "55587fb7d84df6e558f77d0f097f466caefce47a86b9952baa68d725162c1c31",
    "calibration.json": "be4abb35a84bffd624e73a17345cafdbe8b6b36df8516f355227240d83df2a52",
    "wigner.csv": "8bd852e7791853095169c17a05935e57bebd2fb395694e4aba0397ba2188264a",
    "wigner.json": "0b5fd2070bdcff937273e06a74ae3459224a37c6650e3187d37be1504692896d",
    "summary.json": "91a524365ea479f73b25e76ea1170263cb07dd43c8097efa9d6874fba614ae45",
}


def _order2_batch(s01: complex, s11: float) -> np.ndarray:
    values = np.zeros((3, 3), dtype=complex)
    values[0, 0], values[1, 1] = 1.0, s11
    values[0, 1], values[1, 0] = s01, np.conj(s01)
    return values


def _order2_run(batches: list[np.ndarray]) -> BatchMoments:
    """A run of order-2 batches of 1000 shots each."""
    return BatchMoments(np.array(batches), [1000] * len(batches))


@pytest.mark.parametrize("poison, code", [(-3.0, 0), (-16.0, 4)])
def test_calibrate_counts_failed_replicas(tmp_path, capsys, poison, code):
    # 19 calibration batches sit 1 above the vacuum's s(1,1) = 2 and one sits
    # at `poison`: a replica's noise-subtracted s(1,1) is <= 0, and its gain
    # estimate fails, once it draws the poisoned batch k times with
    # 20 - k (3 - poison) <= 0, i.e. k >= 4 at -3 and k >= 2 at -16; the
    # combined run keeps a positive (17 + poison) / 20 either way
    save_batch_moments(tmp_path / "moments_calibration.json",
                       _order2_run([_order2_batch(1.0, 3.0)] * 19
                                   + [_order2_batch(1.0, poison)]))
    save_batch_moments(tmp_path / "moments_vacuum.json",
                       _order2_run([_order2_batch(0.0, 2.0)] * 20))
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


def _refuse_constant(name: str):
    raise ValueError(f"{name} in a written JSON file")


def test_calibrate_refuses_a_gain_that_is_not_finite(tmp_path, capsys):
    # s(1,1) = 1e300 in every calibration batch: M2 / M1 is finite, its square is not
    save_batch_moments(tmp_path / "moments_calibration.json",
                       _order2_run([_order2_batch(1.0, 1e300)] * 20))
    save_batch_moments(tmp_path / "moments_vacuum.json",
                       _order2_run([_order2_batch(0.0, 2.0)] * 20))
    out = tmp_path / "calibration.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["calibrate", "--signal", str(tmp_path), "--out", str(out)]) == 4
    assert "gain estimate is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k_fail", [4, 2])
def test_calibrate_counts_replicas_whose_gain_overflows(tmp_path, capsys, k_fail):
    # as above, with the poisoned batch at s(1,1) = 2 + y: a replica that draws it k
    # times has M1 = 1 and M2 = (20 - k + k y) / 20, so its gain M2^2 overflows from
    # k = k_fail on, while the combined run's (19 + y)^2 / 400 stays finite; the
    # finite gains then lie near the float maximum, so their spread overflows
    y = 20.0 * math.sqrt(np.finfo(float).max) / (k_fail - 0.5)
    pair = (_order2_run([_order2_batch(1.0, 3.0)] * 19 + [_order2_batch(1.0, 2.0 + y)]),
            _order2_run([_order2_batch(0.0, 2.0)] * 20))
    for name, batches in zip(("calibration", "vacuum"), pair):
        save_batch_moments(tmp_path / f"moments_{name}.json", batches)
    rng = np.random.default_rng(np.random.SeedSequence([0, 0xCA1]))
    expected = 0
    for _ in range(200):   # the documented draw order: calibration, then vacuum
        expected += np.count_nonzero(rng.integers(0, 20, 20) == 19) >= k_fail
        rng.integers(0, 20, 20)
    assert 0 < expected
    assert (expected > 20) == (k_fail == 2)

    out = tmp_path / "calibration.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["calibrate", "--signal", str(tmp_path), "--out", str(out)]) == 4
    assert not out.exists()
    if k_fail == 2:
        assert f"failed on {expected} of 200" in capsys.readouterr().err
    else:
        with np.errstate(all="ignore"):
            result = estimate_gain(*pair)
        assert (result["n_bootstrap_failed"], result["n_bootstrap"]) == (expected,
                                                                         200 - expected)
        assert result["gain"] == pytest.approx(((19.0 + y) / 20.0) ** 2, rel=1e-12)
        assert math.isinf(result["gain_stderr"])


# gain_stderr and m1_stderr of calibrate on the run below, taken while every
# replica gain came from its own estimate_gain call
CALIBRATION_SHA256 = "e89c7e800f8d687edda8aff1b9f0d8a4e54dd4679a06dcdae643c8785b53cc7b"


# moments_signal.json of the simulate below, taken while each batch's moments
# were a validated matrix object of their own
MOMENTS_SIGNAL_SHA256 = "adf85d0eebfbc77d0bd841cc8f45075a0eba43ae82781ba797140f163a310ae4"

# hist_signal.occ of the same simulate, inflated: built in pure Python (a bit per bin,
# then one byte per count) from the records of the hist_signal.coo pinned before it
# (sha256 8bd2cd84e49f...), which was packed with struct from the occupied bins
# of the dense uint64 counts file that histograms were stored as before that
HIST_SIGNAL_SHA256 = "ed11ea44810a9a8a15eb222fe5014ecd1e3881d7deb4de0fad9a5ce43678c63c"

# hist_signal.coo of the same simulate with --bins 5, as stored before the
# bitmap: packed (index <u4, count <u8) records of the occupied bins; its
# header said total 2003 and overflow 0
OLD_HIST_SIGNAL_5_BINS = bytes.fromhex(
    "010000000100000000000000020000000100000000000000030000000100000000000000"
    "05000000010000000000000006000000320000000000000007000000ef00000000000000"
    "0800000030000000000000000900000002000000000000000a0000000200000000000000"
    "0b000000f6000000000000000c00000019030000000000000d000000fc00000000000000"
    "100000003c0000000000000011000000f900000000000000120000003900000000000000"
    "150000000100000000000000")


def test_stored_moments_keep_their_bytes(tmp_path):
    # unequal batches: 2003 shots in 4 batches of 501, 501, 501 and 500
    cfg = write_config(tmp_path, shots=2003, batches=4)
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    stored = (tmp_path / "run" / "moments_signal.json").read_bytes()
    assert hashlib.sha256(stored).hexdigest() == MOMENTS_SIGNAL_SHA256


def test_stored_histogram_keeps_its_bytes(tmp_path):
    cfg = write_config(tmp_path, shots=2003, batches=4)
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    stored = zlib.decompress((tmp_path / "run" / "hist_signal.occ").read_bytes())
    assert hashlib.sha256(stored).hexdigest() == HIST_SIGNAL_SHA256


def test_stored_histogram_decodes_to_the_old_records(tmp_path):
    cfg = write_config(tmp_path, shots=2003, batches=4)
    assert run(["simulate", "--config", str(cfg), "--bins", "5",
                "--out", str(tmp_path / "run")]) == 0
    raw = OLD_HIST_SIGNAL_5_BINS
    old = {int.from_bytes(raw[k:k + 4], "little"): int.from_bytes(raw[k + 4:k + 12], "little")
           for k in range(0, len(raw), 12)}
    stored = serialize.load_histogram(tmp_path / "run" / "hist_signal")
    flat = stored.counts.reshape(-1)
    assert {int(i): int(flat[i]) for i in np.flatnonzero(flat)} == old
    assert (stored.total, stored.overflow) == (2003, 0)


def _save_calibration_pair(run_dir: Path) -> tuple[BatchMoments, BatchMoments]:
    """20 noisy calibration batches and 20 noisy vacuum batches, saved as a run."""
    rng = np.random.default_rng(20)
    pair = (_order2_run([_order2_batch(complex(*rng.normal(0.5, 0.05, 2)),
                                       3.0 + 0.1 * rng.normal()) for _ in range(20)]),
            _order2_run([_order2_batch(complex(*rng.normal(0.0, 0.01, 2)),
                                       2.0 + 0.1 * rng.normal()) for _ in range(20)]))
    for name, batches in zip(("calibration", "vacuum"), pair):
        save_batch_moments(run_dir / f"moments_{name}.json", batches)
    return pair


def test_calibrate_keeps_its_bytes(tmp_path):
    _save_calibration_pair(tmp_path)
    out = tmp_path / "calibration.json"
    assert run(["calibrate", "--signal", str(tmp_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    pinned = np.array([doc["gain_stderr"], doc["m1_stderr"]])
    assert hashlib.sha256(pinned.tobytes()).hexdigest() == CALIBRATION_SHA256


def test_estimate_gain_returns_what_calibrate_writes(tmp_path):
    pair = _save_calibration_pair(tmp_path)
    out = tmp_path / "calibration.json"
    assert run(["calibrate", "--signal", str(tmp_path), "--out", str(out)]) == 0
    result = estimate_gain(*pair)
    assert json.loads(out.read_text()) == result
    assert out.read_text() == json.dumps(result, indent=2)


def test_wigner_truncation_tests_each_diagonal_against_its_own_error(tmp_path):
    # order-8 |1> moments whose high diagonals carry large errors, as at a
    # few 1e6 shots: m(1, 1) = 1 is far above its own error, so m(2, 2) = 0
    # ends the sum at order 2 and W(0) = -2/pi
    errors = np.full((9, 9), 0.01)
    errors[3, 3], errors[4, 4] = 0.4, 2.08
    report = InversionReport(moments=analytic_moments(FockState.fock(1), 8),
                             gain=1.0, noise=noise_moments(0.0, 8),
                             errors=errors)
    result = cmd_wigner(report, tmp_path / "w", extent=1.0, resolution=21)
    assert result["truncation_order"] == 2
    assert result["min_w"] == pytest.approx(-2.0 / math.pi, abs=1e-12)
    assert result["at"] == [0.0, 0.0]


REPO = Path(__file__).resolve().parents[1]


def _readme_cli_section() -> tuple[str, dict]:
    section = (REPO / "README.md").read_text().split("\n## CLI\n", 1)[1]
    return section, json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_readme_config_and_state_kinds_parse():
    # the README's example config and every state.kind it lists must pass the
    # config reader, so a README edit that the reader would refuse fails here
    section, example = _readme_cli_section()
    assert parse_config(example).calibration is not None
    kinds = re.search(r"`state\.kind` is one of `([^`]*)`", section).group(1)
    kinds = re.split(r"[\s|]+", kinds.strip())
    assert "superposition" in kinds
    for kind in kinds:
        assert parse_config({**example, "state": {"kind": kind}}).state is not None


def test_pilot_warns_nothing():
    # the pilot is a vacuum draw the program makes itself; at this seed its X and
    # P variances happen to differ by more than 3 standard errors
    cfg = parse_config({**_readme_cli_section()[1], "seed": 95, "shots": 100_000})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.auto_extent(cfg) > 0


def _project() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


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
                f"sys.exit(EntryPoint('hettomo', {_project()['scripts']['hettomo']!r}, "
                "'console_scripts').load()())")
    _assert_help([sys.executable, "-c", launcher], _src_env())
    installed = shutil.which("hettomo")
    if installed:
        _assert_help([installed])


def test_cli_import_leaves_out_scipy_optimize_and_constants():
    # the package needs numpy alone: no scipy module at all, and every module
    # the import adds from outside the standard library is a declared dependency
    probe = ("import json, sys; before = set(sys.modules); "
             "import hettomo, hettomo.cli; "
             "print(json.dumps([sorted(m for m in sys.modules if m.startswith('scipy')), "
             "sorted({m.split('.')[0] for m in set(sys.modules) - before})]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    scipy_modules, imported = json.loads(proc.stdout)
    assert scipy_modules == []
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in _project()["dependencies"]}
    outside = set(imported) - set(sys.stdlib_module_names) - {"hettomo"}
    assert outside <= declared, outside - declared


def test_package_import_loads_no_submodule():
    # each caller imports the module it needs; the package itself re-exports nothing
    probe = ("import json, sys; import hettomo; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hettomo.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_python_dash_m_help():
    for module in ("hettomo", "hettomo.cli"):
        _assert_help([sys.executable, "-m", module], _src_env())


# the README config at 2000 shots; each fuzz case sets one of its fields, other than
# shots and batches, to one of FUZZ_VALUES
README_CONFIG = {"seed": 12345, "shots": 2000, "batches": 100, "order": 4,
                 "state": {"kind": "superposition", "beta": 0.7071, "phase": 0.0},
                 "amplifier": {"gain": 10000.0, "nbar": 2.0},
                 "histogram": {"bins": 1024, "range": None},
                 "calibration": {"beta": 0.7071, "phase": 3.14159}}
FUZZ_VALUES = [0, -1, 1e300, -1e300, 1e-300, "x", True, None, [], {}, [1e308, 1e308]]
FUZZ_FIELDS = [(key,) for key in README_CONFIG if key not in ("shots", "batches")] + [
    (key, sub) for key, block in README_CONFIG.items() if isinstance(block, dict)
    for sub in block]


@pytest.mark.parametrize("path", FUZZ_FIELDS, ids=".".join)
@pytest.mark.parametrize("value", FUZZ_VALUES, ids=json.dumps)
def test_config_fuzz_exits_with_a_documented_code(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(README_CONFIG))
    *blocks, key = path
    (doc[blocks[0]] if blocks else doc)[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # the overflow-fraction warning
        code = run(["full-run", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code in (0, 2, 3, 4)


# five more base configs for the config fuzz, each through simulate: every field but
# shots and batches set to each of FUZZ_VALUES
FUZZ_BASES = {
    "fock": {"seed": 3, "shots": 2000, "batches": 20, "order": 4,
             "state": {"kind": "fock", "k": 1}, "amplifier": {"gain": 100.0, "nbar": 1.0},
             "histogram": {"bins": 64}},
    "coherent": {"seed": 3, "shots": 2000, "batches": 20, "order": 4,
                 "state": {"kind": "coherent", "alpha": [0.5, 0.3]},
                 "amplifier": {"gain": 100.0, "nbar": 1.0}, "histogram": {"bins": 64}},
    "thermal": {"seed": 3, "shots": 2000, "batches": 20, "order": 4,
                "state": {"kind": "thermal", "nbar": 1.0},
                "amplifier": {"gain": 100.0, "nbar": 1.0}, "histogram": {"bins": 64}},
    "lossy-superposition": {
        "seed": 3, "shots": 2000, "batches": 20, "order": 4,
        "state": {"kind": "superposition", "beta": 0.7071, "phase": 0.5,
                  "admixture": 0.1, "loss_eta": 0.8},
        "amplifier": {"gain": 100.0, "temperature_K": 0.2, "frequency_Hz": 6e9},
        "histogram": {"bins": 64}},
    "time-domain": {"seed": 3, "shots": 400, "batches": 4, "order": 4,
                    "state": {"kind": "fock", "k": 1},
                    "amplifier": {"gain": 100.0, "nbar": 1.0}, "histogram": {"bins": 64},
                    "time_domain": {"enabled": True, "kappa": 0.1, "bins": 64}},
}
BASE_FUZZ_CASES = [
    pytest.param(base, path, value, id=f"{base}-{'.'.join(path)}-{json.dumps(value)}")
    for base, doc in FUZZ_BASES.items()
    for path in [(key,) for key in doc if key not in ("shots", "batches")] + [
        (key, sub) for key, block in doc.items() if isinstance(block, dict) for sub in block]
    for value in FUZZ_VALUES]


@pytest.mark.parametrize("base, path, value", BASE_FUZZ_CASES)
def test_config_fuzz_on_more_bases_exits_with_a_documented_code(tmp_path, capsys, base,
                                                                 path, value):
    doc = json.loads(json.dumps(FUZZ_BASES[base]))
    *blocks, key = path
    (doc[blocks[0]] if blocks else doc)[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # the overflow-fraction warning
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """A small README full-run: 20 000 shots in 4 batches."""
    base = tmp_path_factory.mktemp("stored")
    cfg = base / "config.json"
    cfg.write_text(json.dumps({**README_CONFIG, "shots": 20_000, "batches": 4,
                               "histogram": {"bins": 64}}))
    assert run(["full-run", "--config", str(cfg), "--out", str(base / "run")]) == 0
    return base / "run"


FUZZ_NUMBERS = ["0", "-1", "1e300", "-1e300", "1e-300", "5e-324", "1.7e308", "nan", "inf",
                "x"]
COMMAND_FUZZ_CASES = (
    [pytest.param(None, "analyze", ["--gain", v], id=f"analyze-gain-{v}") for v in FUZZ_NUMBERS]
    + [pytest.param(None, "wigner", ["--extent", v], id=f"wigner-extent-{v}")
       for v in FUZZ_NUMBERS]
    + [pytest.param(None, "analyze", ["--order", v], id=f"analyze-order-{v}")
       for v in ["-1", "0", "1", "2", "4", "5", "9", "1e3", "x"]]
    + [pytest.param(None, "wigner", ["--resolution", v], id=f"wigner-resolution-{v}")
       for v in ["-1", "0", "1", "2", "2049", "1e3", "x"]]
    # stored s(1,1) of every batch of one run, for each command that reads that run
    + [pytest.param((run_name, s11), command, [], id=f"{command}-{run_name}-s11-{s11:g}")
       for command, runs in (("calibrate", ("calibration", "vacuum")),
                             ("analyze", ("signal", "vacuum")))
       for run_name in runs for s11 in (1e308, -1e308, 1e300, 1e-300)])


@pytest.mark.parametrize("stored_s11, command, flags", COMMAND_FUZZ_CASES)
def test_command_fuzz_exits_with_a_documented_code(stored_run, tmp_path, capsys,
                                                   stored_s11, command, flags):
    run_dir = stored_run
    if stored_s11 is not None:
        run_name, s11 = stored_s11
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("manifest.json", "moments_calibration.json", "moments_signal.json",
                     "moments_vacuum.json"):
            shutil.copy(stored_run / name, run_dir)
        path = run_dir / f"moments_{run_name}.json"
        batches = json.loads(path.read_text())
        for batch in batches:
            batch["values"][1][1] = [s11, 0.0]
        path.write_text(json.dumps(batches))
    out = tmp_path / "out"
    out.mkdir()
    source = (["--report", str(run_dir / "report.json")] if command == "wigner"
              else ["--signal", str(run_dir)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = run([command, *source, *flags, "--out", str(out / f"{command}.json")])
        except SystemExit as exc:   # argparse refusing a flag it cannot convert
            code = exc.code
    assert code in (0, 2, 3, 4)
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_run_keeps_its_error_state_under_a_raising_caller(stored_run, tmp_path, capsys):
    # W's Gaussian underflows at extent 30, and its polynomial overflows at 1e300
    report = str(stored_run / "report.json")
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["wigner", "--report", report, "--extent", "30",
                    "--out", str(tmp_path / "w30")]) == 0
        assert run(["wigner", "--report", report, "--extent", "1e300",
                    "--out", str(tmp_path / "w1e300")]) == 4
        assert set(np.geterr().values()) == {"raise"}
    assert "Wigner grid contains non-finite values" in capsys.readouterr().err
