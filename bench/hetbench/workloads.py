"""The four workloads (BENCHMARK.json lists the first three): the configs
they generate from the seed, the `hettomo` subcommands one pass runs, and
the checks on each output.

An operation is one subcommand called through `hettomo.cli.run(argv)`. Its
`argv` is built just before the call, so a step can read what the step
before it wrote, and its `check` runs after the timed pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

from . import checks, oracles

GAIN = 1.0e4
NBAR = 2.0
SUPERPOSITION = {"kind": "superposition", "beta": 0.7071, "phase": 0.0}
CALIBRATION = {"beta": 0.7071, "phase": 3.14159}
FOCK1 = {"kind": "fock", "k": 1}

# The order-8 workload keeps its data seed fixed: its wigner step fails on
# every input through cmd_wigner's truncation threshold, and a fixed input
# keeps that failure, and so the failed share, independent of --seed.
FOCK8_SEED = 12345


@dataclass
class Op:
    name: str
    argv: Callable[[], list[str]]
    check: Callable[[], list[str]]


@dataclass
class Workload:
    """Base: one run directory per pass, fresh under `pass_dir`."""

    seed: int
    tiny: bool = False
    cfg: dict = field(init=False)
    # operations that fail on every input because of a known fault
    known_failures: ClassVar[frozenset] = frozenset()

    def __post_init__(self):
        self.cfg = self.config()

    @property
    def shots_per_pass(self) -> int:
        runs = 3 if "calibration" in self.cfg else 2
        return runs * self.cfg["shots"]

    def setup(self, work: Path, cli) -> None:
        """Timed set-up: write the config and parse it with hettomo's parser."""
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2))
        cli.load_config(self.config_path)

    @property
    def nbar(self) -> float:
        return self.cfg["amplifier"]["nbar"]

    def _simulate_checks(self, run: Path) -> list[str]:
        runs = ["signal", "vacuum"] + (["calibration"] if "calibration" in self.cfg else [])
        return (checks.manifest(run)
                + checks.shots_recorded(run, runs, self.cfg["shots"])
                + checks.sigma_vac(run, GAIN, self.nbar, self.cfg["shots"]))

    def _model(self, spec: dict) -> oracles.MomentModel:
        shots = self.cfg["shots"]
        return oracles.MomentModel(oracles.amplitudes(spec), self.nbar, self.cfg["order"],
                                   shots, shots)


class FullRunSuperposition(Workload):
    """`full-run` on the README config: the paper's pipeline end to end."""

    name = "full-run-superposition"

    def config(self) -> dict:
        shots, batches, bins = (40_000, 8, 64) if self.tiny else (2_000_000, 100, 1024)
        return {"seed": self.seed, "shots": shots, "batches": batches, "order": 4,
                "state": SUPERPOSITION,
                "amplifier": {"gain": GAIN, "nbar": NBAR if not self.tiny else 0.5},
                "histogram": {"bins": bins, "range": None},
                "calibration": CALIBRATION}

    def prepare(self):
        shots = self.cfg["shots"]
        self.amps = oracles.amplitudes(SUPERPOSITION)
        self.cal_amps = oracles.amplitudes({"kind": "superposition", **CALIBRATION})
        self.gain_sigma = oracles.gain_rel_sigma(self.cal_amps, self.nbar, shots, shots)
        self.moments = checks.MomentCheck(self._model(SUPERPOSITION), self.gain_sigma)

    def ops(self, pass_dir: Path) -> list[Op]:
        run = pass_dir / "run"

        def check():
            return (self._simulate_checks(run)
                    + checks.gain(run / "calibration.json", GAIN, self.cal_amps,
                                  self.gain_sigma)
                    + self.moments.report(run / "report.json")
                    + self.moments.wigner(run / "wigner", self.amps, at_origin=False))
        return [Op("full-run", lambda: ["full-run", "--config", str(self.config_path),
                                        "--out", str(run)], check)]


class FockOrder8(Workload):
    """simulate -> analyze -> wigner for Fock |1> at order 8, few large batches."""

    name = "fock-order8"

    known_failures = frozenset({"wigner"})

    def config(self) -> dict:
        shots, batches, bins = (20_000, 4, 64) if self.tiny else (4_000_000, 10, 1024)
        return {"seed": FOCK8_SEED, "shots": shots, "batches": batches, "order": 8,
                "state": FOCK1, "amplifier": {"gain": GAIN, "nbar": NBAR},
                "histogram": {"bins": bins, "range": None}}

    def prepare(self):
        self.amps = oracles.amplitudes(FOCK1)
        self.moments = checks.MomentCheck(self._model(FOCK1))

    def ops(self, pass_dir: Path) -> list[Op]:
        run, report, wigner = pass_dir / "run", pass_dir / "report.json", pass_dir / "wigner"
        return [
            Op("simulate", lambda: ["simulate", "--config", str(self.config_path),
                                    "--out", str(run)],
               lambda: self._simulate_checks(run)),
            Op("analyze", lambda: ["analyze", "--signal", str(run), "--order", "8",
                                   "--out", str(report)],
               lambda: self.moments.report(report)),
            Op("wigner", lambda: ["wigner", "--report", str(report), "--out", str(wigner)],
               lambda: self.moments.wigner(wigner, self.amps, at_origin=True)),
        ]


class TimeDomain(Workload):
    """simulate -> analyze for Fock |1> through time traces and the matched filter."""

    name = "time-domain"

    def config(self) -> dict:
        shots, batches, bins = (2_000, 4, 64) if self.tiny else (100_000, 50, 1024)
        return {"seed": self.seed, "shots": shots, "batches": batches, "order": 4,
                "state": FOCK1, "amplifier": {"gain": GAIN, "nbar": NBAR},
                "histogram": {"bins": bins, "range": None},
                "time_domain": {"enabled": True, "kappa": 0.025, "dt": 1.0, "bins": 400}}

    def prepare(self):
        self.moments = checks.MomentCheck(self._model(FOCK1))

    def ops(self, pass_dir: Path) -> list[Op]:
        run, report = pass_dir / "run", pass_dir / "report.json"
        return [
            Op("simulate", lambda: ["simulate", "--config", str(self.config_path),
                                    "--out", str(run)],
               lambda: self._simulate_checks(run)),
            Op("analyze", lambda: ["analyze", "--signal", str(run), "--order", "4",
                                   "--out", str(report)],
               lambda: self.moments.report(report)),
        ]


class Reanalyze(Workload):
    """calibrate -> analyze -> wigner, again and again, on one stored run of
    about 1000 batches made during set-up."""

    name = "reanalyze"
    resolution = 301

    def config(self) -> dict:
        shots, batches = (20_000, 20) if self.tiny else (500_000, 1000)
        return {"seed": self.seed, "shots": shots, "batches": batches, "order": 4,
                "state": SUPERPOSITION,
                "amplifier": {"gain": GAIN, "nbar": NBAR if not self.tiny else 0.5},
                "histogram": {"bins": 16, "range": None}}

    def setup(self, work, cli):
        super().setup(work, cli)
        self.stored = work / "stored"
        if cli.run(["simulate", "--config", str(self.config_path),
                    "--out", str(self.stored)]) != 0:
            raise RuntimeError("hettomo simulate failed while making the stored run")

    def prepare(self):
        failures = self._simulate_checks(self.stored)
        if failures:
            raise RuntimeError("stored run fails its checks: " + "; ".join(failures))
        shots = self.cfg["shots"]
        self.amps = oracles.amplitudes(SUPERPOSITION)
        self.gain_sigma = oracles.gain_rel_sigma(self.amps, self.nbar, shots, shots)
        self.moments = checks.MomentCheck(self._model(SUPERPOSITION), self.gain_sigma)
        self.first_pass: dict = {}

    def ops(self, pass_dir: Path) -> list[Op]:
        cal, report, wigner = (pass_dir / "calibration.json", pass_dir / "report.json",
                               pass_dir / "wigner")
        stored = str(self.stored)
        same = self.first_pass

        def analyze_argv():
            gain = json.loads(cal.read_text())["gain"]
            return ["analyze", "--signal", stored, "--gain", repr(gain), "--order", "4",
                    "--out", str(report)]
        return [
            Op("calibrate", lambda: ["calibrate", "--signal", stored, "--out", str(cal)],
               lambda: (checks.manifest(self.stored)
                        + checks.gain(cal, GAIN, self.amps, self.gain_sigma)
                        + checks.same_files([cal], same))),
            Op("analyze", analyze_argv,
               lambda: (self.moments.report(report)
                        + checks.same_files([report, report.with_suffix(".txt")], same))),
            Op("wigner", lambda: ["wigner", "--report", str(report), "--resolution",
                                  str(41 if self.tiny else self.resolution),
                                  "--out", str(wigner)],
               lambda: (self.moments.wigner(wigner, self.amps, at_origin=False)
                        + checks.same_files([wigner.with_suffix(".csv"),
                                             wigner.with_suffix(".json")], same))),
        ]

    @property
    def shots_per_pass(self) -> int:
        return 2 * self.cfg["shots"]


WORKLOADS = {w.name: w for w in (FullRunSuperposition, FockOrder8, TimeDomain, Reanalyze)}
