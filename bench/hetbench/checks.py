"""Output checks: each returns a list of failure messages (empty when the
output agrees with the closed forms in `oracles`)."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import oracles
from .oracles import SIGMAS


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest(run_dir: Path) -> list[str]:
    """Every checksum in manifest.json re-hashed; every file listed."""
    path = run_dir / "manifest.json"
    if not path.is_file():
        return [f"{run_dir.name}: no manifest.json"]
    files = json.loads(path.read_text())["files"]
    present = {p.name for p in run_dir.iterdir() if p.is_file()} - {"manifest.json"}
    out = [f"{run_dir.name}/{name}: checksum differs from manifest"
           for name, digest in files.items()
           if not (run_dir / name).is_file() or sha256(run_dir / name) != digest]
    if present != set(files):
        out.append(f"{run_dir.name}: files {sorted(present ^ set(files))} "
                   f"not matched between directory and manifest")
    return out


def shots_recorded(run_dir: Path, runs: list[str], shots: int) -> list[str]:
    """Every histogram holds exactly the configured shots (in range + overflow)."""
    out = []
    for name in runs:
        header = json.loads((run_dir / f"hist_{name}.json").read_text())
        if header["total"] != shots:
            out.append(f"hist_{name}: {header['total']} shots, configured {shots}")
    return out


def sigma_vac(run_dir: Path, gain: float, nbar: float, shots: int) -> list[str]:
    """sigma_vac = sqrt(G (1 + nbar) / 2) within SIGMAS standard errors of a
    width pooled from 2 * shots Gaussian quadratures, plus the bin-width
    (Sheppard) excess w^2 / (24 sigma)."""
    derived = json.loads((run_dir / "manifest.json").read_text())["derived"]
    header = json.loads((run_dir / "hist_vacuum.json").read_text())
    expected = oracles.vacuum_sigma(gain, nbar)
    width = 2.0 * header["extent"] / header["bins"]
    tol = SIGMAS * expected / (2.0 * math.sqrt(shots)) + width ** 2 / (24.0 * expected)
    got = derived["sigma_vac"]
    if abs(got - expected) > tol:
        return [f"sigma_vac {got:.6g}, closed form {expected:.6g} +/- {tol:.2g}"]
    return []


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class MomentCheck:
    """Recovered moments of one report against the closed-form state, with
    windows of SIGMAS shot-noise errors plus the shift a gain error of up to
    SIGMAS * rel_gain_sigma can cause."""

    def __init__(self, model: oracles.MomentModel, rel_gain_sigma: float = 0.0):
        self.model = model
        self.gain_range = SIGMAS * rel_gain_sigma
        k = model.order
        self.windows = []
        for n in range(k + 1):
            for m in range(n, k + 1 - n):
                if (n, m) == (0, 0):
                    continue
                for imag in ((False,) if n == m else (False, True)):
                    w = oracles.entry_weights(k, n, m, imag)
                    tol = SIGMAS * model.sigma(w) + model.gain_allowance(w, self.gain_range)
                    self.windows.append((n, m, imag, model.expected(w), tol))

    def report(self, path: Path) -> list[str]:
        doc = json.loads(Path(path).read_text())
        values = _matrix(doc["moments"])
        out = []
        for n, m, imag, expected, tol in self.windows:
            got = values[n, m].imag if imag else values[n, m].real
            if not abs(got - expected) <= tol:
                part = "Im" if imag else "Re"
                out.append(f"{part} m({n},{m}) = {got:.6g}, closed form "
                           f"{expected:.6g} +/- {tol:.3g}")
        return out

    def wigner(self, prefix: Path, amps: np.ndarray, at_origin: bool) -> list[str]:
        """W at the grid minimum (or at the origin) against the closed-form W
        of c0|0> + c1|1>, with the shot noise of the truncated moment sum."""
        prefix = Path(prefix)
        header = json.loads(prefix.with_suffix(".json").read_text())
        grid = np.loadtxt(prefix.with_suffix(".csv"), delimiter=",", skiprows=1)
        x, p, w = grid[:, 0], grid[:, 1], grid[:, 2]
        i = int(np.argmin(np.hypot(x, p))) if at_origin else int(np.argmin(w))
        alpha = complex(x[i], p[i])
        trunc = int(header["truncation_order"])
        weights = oracles.wigner_weights(alpha, min(trunc, self.model.order),
                                         self.model.order)
        expected = oracles.superposition_wigner(amps, alpha)
        tol = SIGMAS * self.model.sigma(weights) \
            + self.model.gain_allowance(weights, self.gain_range) + 1e-9
        if not abs(w[i] - expected) <= tol:
            return [f"W({alpha.real:.3g}{alpha.imag:+.3g}i) = {w[i]:.6g} at "
                    f"truncation {trunc}, closed form {expected:.6g} +/- {tol:.3g}"]
        return []


def gain(path: Path, true_gain: float, amps: np.ndarray, rel_sigma: float) -> list[str]:
    """Self-calibrated gain against G (m(1,1) / |m(0,1)|)^2 of the
    calibration state, within SIGMAS delta-method errors."""
    got = json.loads(Path(path).read_text())["gain"]
    expected = true_gain * oracles.gain_ratio(amps)
    tol = SIGMAS * rel_sigma * expected
    if not abs(got - expected) <= tol:
        return [f"gain {got:.6g}, configured {expected:.6g} +/- {tol:.3g}"]
    return []


def same_files(paths: list[Path], reference: dict) -> list[str]:
    """Byte-identical outputs across passes; the first pass fills `reference`."""
    out = []
    for path in paths:
        digest = sha256(path)
        if reference.setdefault(path.name, digest) != digest:
            out.append(f"{path.name} differs from the first pass's")
    return out
