"""Acceptance suite: end-to-end statistical and numerical checks.

Each test prints one PASS/FAIL line.  All randomness derives from one
pre-registered seed; tolerances are fixed and are not tuned to the seed.
"""

import math
import time

import numpy as np
import pytest

from hettomo.acquire import StreamingMoments, combine_batches, vacuum_sigma
from hettomo.fock import (FockState, analytic_moments, coherent_state,
                          loss_channel, prepare_superposition, wigner_oracle)
from hettomo.moments import MomentMatrix, moment_indices
from hettomo.simulate import (AmplifierChain, TemporalEnvelope,
                              matched_filter, overlap, sample_detector,
                              simulate_time_trace, thermal_nbar)
from hettomo.tomo import (estimate_gain, forward_moments, invert_moments,
                          reconstruct_wigner, truncation_order,
                          wigner_from_moments)

from conftest import fock_power_moments, noise_moments, random_moment_matrix

SEED = 12345
TWO_OVER_PI = 2.0 / math.pi


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def batched_moments(state, chain, total, stage, n_batches=100, order=4):
    """Per-batch raw moment estimates with the documented stream layout."""
    size = total // n_batches
    acc = StreamingMoments(order)
    for b in range(n_batches):
        acc.update(sample_detector(state, chain, size, seed=[SEED, stage], stream=b))
    return acc.result()


def test_a1_vacuum_noise_floor():
    t0 = time.monotonic()
    chain = AmplifierChain(gain=1.0, nbar=thermal_nbar(21.0, 6.77e9))
    batch = sample_detector(FockState.vacuum(), chain, 1_000_000,
                            seed=[SEED, 10])
    sigma = vacuum_sigma(batch)
    elapsed = time.monotonic() - t0
    ok = abs(sigma - 5.70) <= 0.05 and elapsed < 10.0
    assert report("A1", ok, f"sigma = {sigma:.4f} (target 5.70 +/- 0.05), "
                            f"{elapsed:.1f} s"), sigma


def test_a2_moment_recovery():
    t0 = time.monotonic()
    chain = AmplifierChain(gain=1.0e4, nbar=2.0)
    shots = 10_000_000
    vac = combine_batches(batched_moments(FockState.vacuum(), chain, shots, 20))

    def recover(state, stage):
        raw = combine_batches(batched_moments(state, chain, shots, stage))
        return invert_moments(raw, vac, chain.gain, np.zeros((5, 5))).moments

    failures = []

    m = recover(FockState.fock(1), 21)
    if abs(m[1, 1].real - 1.0) > 0.02:
        failures.append(f"fock m(1,1) = {m[1, 1].real:.4f}")
    if abs(m[2, 2]) > 0.05:
        failures.append(f"fock |m(2,2)| = {abs(m[2, 2]):.4f}")
    for n, mm in moment_indices(4):
        if n != mm and abs(m[n, mm]) > 0.02:
            failures.append(f"fock |m({n},{mm})| = {abs(m[n, mm]):.4f}")

    m = recover(prepare_superposition(1.0 / math.sqrt(2.0)), 22)
    if abs(abs(m[0, 1]) - 0.5) > 0.02:
        failures.append(f"super |m(0,1)| = {abs(m[0, 1]):.4f}")
    if abs(m[1, 1].real - 0.5) > 0.02:
        failures.append(f"super m(1,1) = {m[1, 1].real:.4f}")

    m = recover(coherent_state(1.0, cutoff=20), 23)
    for n, mm in moment_indices(4):
        if (n, mm) != (0, 0) and abs(abs(m[n, mm]) - 1.0) > 0.05:
            failures.append(f"coh1 |m({n},{mm})| = {abs(m[n, mm]):.4f}")

    m = recover(coherent_state(0.5, cutoff=20), 24)
    for n, mm in moment_indices(4):
        if (n, mm) != (0, 0) and abs(m[n, mm] - 0.5 ** (n + mm)) > 0.05:
            failures.append(f"coh05 m({n},{mm}) = {m[n, mm]:.4f}")

    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f} s >= 300 s")
    ok = not failures
    assert report("A2", ok, "all four states within tolerance, "
                  f"{elapsed:.0f} s" if ok else "; ".join(failures)), failures


def test_a3_error_scaling():
    nbar = 64.0
    chain = AmplifierChain(gain=1.0e4, nbar=nbar)
    shots = 100_000_000
    n_batches = 100
    sig = batched_moments(FockState.fock(1), chain, shots, 30, n_batches)
    vac = batched_moments(FockState.vacuum(), chain, shots, 31, n_batches)
    # paired per-batch inversions capture signal and reference fluctuations
    recovered = np.array([
        invert_moments(MomentMatrix(s), MomentMatrix(v),
                       chain.gain, np.zeros((5, 5))).moments.values
        for s, v in zip(sig.values, vac.values)])
    spread = np.sqrt(np.mean(np.abs(recovered - recovered.mean(axis=0)) ** 2,
                             axis=0))
    se = spread / math.sqrt(n_batches - 1)
    full_scale = 5.4e10
    scale = math.sqrt(shots / full_scale)   # extrapolate 1/sqrt(N)
    targets = {1: 1.5e-3, 2: 4.5e-3, 3: 1.5e-2, 4: 0.1}
    # The targets are the experiment's error budget, which drift dominates
    # at low order; the simulator is i.i.d. shot noise by design. At orders
    # 1-2 the worst entry is m(0,p), whose shot noise is closed-form:
    # sigma_p^2 = (E|z|^2p_signal + E|z|^2p_vacuum) / N.
    sig_pow = fock_power_moments(1, nbar)
    vac_pow = fock_power_moments(0, nbar)
    shot_noise = {p: math.sqrt((sig_pow[p - 1] + vac_pow[p - 1]) / full_scale)
                  for p in (1, 2)}
    # four standard errors of an RMS spread over n_batches batch means
    ratio_tol = 4.0 / math.sqrt(2.0 * (n_batches - 1))
    failures = []
    details = []
    for p, target in targets.items():
        worst = max(se[n, m] for n, m in moment_indices(4) if n + m == p)
        extrapolated = worst * scale
        if p in shot_noise:
            ratio = extrapolated / shot_noise[p]
            inside = (abs(ratio - 1.0) <= ratio_tol
                      and extrapolated <= target * 3.0)
            detail = (f"order {p}: {extrapolated:.2e} vs shot noise "
                      f"{shot_noise[p]:.2e} (ratio {ratio:.2f}), "
                      f"target {target:.1e}")
        else:
            inside = target / 3.0 <= extrapolated <= target * 3.0
            detail = f"order {p}: {extrapolated:.2e} vs {target:.1e}"
        details.append(detail + ("" if inside else " (outside window)"))
        if not inside:
            failures.append(details[-1])
    ok = not failures
    assert report("A3", ok, "; ".join(details)), failures


def test_a4_inversion_exactness():
    # noise level matches the moment-recovery criterion; at nbar = 64 the
    # float64 cancellation floor of the subtraction is ~4e-12 and a looser
    # 1e-10 round trip is checked in the unit tests instead
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    noise = noise_moments(2.0, 4)
    vac = forward_moments(analytic_moments(FockState.vacuum(), 4), noise, 1.0e4)
    worst = 0.0
    for _ in range(100):
        signal = MomentMatrix(random_moment_matrix(rng, 4))
        raw = forward_moments(signal, noise, 1.0e4)
        back = invert_moments(raw, vac, 1.0e4, np.zeros((5, 5))).moments.values
        scale = np.maximum(1.0, np.abs(signal.values))
        worst = max(worst, float(np.max(np.abs(back - signal.values) / scale)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert report("A4", ok, f"worst relative error {worst:.2e} "
                            f"(target < 1e-12), {elapsed:.2f} s"), worst


def test_a5_wigner_correctness():
    states = {
        "fock1": FockState.fock(1),
        "super": prepare_superposition(-1.0 / math.sqrt(2.0)),
        "mixture": prepare_superposition(1.0, admixture_error=0.09),
    }
    xs = np.linspace(-3.0, 3.0, 25)
    grid = xs[:, None] + 1j * xs[None, :]
    mask = np.abs(grid) <= 3.0
    failures = []
    for name, state in states.items():
        moments = analytic_moments(state, 4)
        w = wigner_from_moments(moments, grid,
                                truncation=truncation_order(moments, np.zeros((5, 5))))
        oracle = wigner_oracle(state, grid)
        sup = float(np.max(np.abs((w - oracle)[mask])))
        if sup > 1e-9:
            failures.append(f"{name} sup-norm {sup:.2e}")

    g1 = reconstruct_wigner(analytic_moments(FockState.fock(1), 4), np.zeros((5, 5)),
                            extent=3.0, resolution=121)
    wmin, at = g1.minimum()
    if abs(wmin + TWO_OVER_PI) > 1e-9 or abs(at) > 1e-9:
        failures.append(f"fock1 min {wmin:.6f} at {at}")

    gm = reconstruct_wigner(analytic_moments(states["mixture"], 4), np.zeros((5, 5)),
                            extent=3.0, resolution=121)
    target = TWO_OVER_PI * (1.0 - 2.0 * 0.91)   # -0.522 to three decimals
    if abs(gm.minimum()[0] - target) > 1e-9:
        failures.append(f"mixture min {gm.minimum()[0]:.6f}")

    # phase covariance: rotating the moments rotates the function
    phi = 0.7
    m0 = analytic_moments(states["super"], 4)
    n, m = np.indices(m0.values.shape)
    mr = MomentMatrix(m0.values * np.exp(1j * (m - n) * phi))
    pts = grid[mask]
    w_rot = wigner_from_moments(mr, pts, truncation=4)
    w_ref = wigner_from_moments(m0, pts * np.exp(-1j * phi), truncation=4)
    cov = float(np.max(np.abs(w_rot - w_ref)))
    if cov > 1e-9:
        failures.append(f"phase covariance residual {cov:.2e}")

    ok = not failures
    assert report("A5", ok, "oracle match, minima and covariance within 1e-9"
                  if ok else "; ".join(failures)), failures


def test_a6_gain_calibration_pipeline():
    chain = AmplifierChain(gain=1.0e4, nbar=64.0)
    shots = 10_000_000
    cal_batches = batched_moments(
        prepare_superposition(1.0 / math.sqrt(2.0)), chain, shots, 60)
    vac_batches = batched_moments(FockState.vacuum(), chain, shots, 61)
    vac = combine_batches(vac_batches)
    gain = estimate_gain(cal_batches, vac_batches)["gain"]
    gain_err = abs(gain - chain.gain) / chain.gain

    degraded = prepare_superposition(1.0, admixture_error=0.09)
    sig = combine_batches(batched_moments(degraded, chain, shots, 62))
    m11 = invert_moments(sig, vac, gain, np.zeros((5, 5))).moments[1, 1].real

    failures = []
    if gain_err > 0.02:
        failures.append(f"gain {gain:.0f} off by {100 * gain_err:.1f}% (> 2%)")
    if abs(m11 - 0.91) > 0.05:
        failures.append(f"m(1,1) = {m11:.3f} (target 0.91 +/- 0.05)")
    ok = not failures
    assert report("A6", ok, f"gain {gain:.0f} ({100 * gain_err:.2f}% off), "
                            f"m(1,1) = {m11:.3f}"
                  if ok else "; ".join(failures)), failures


def test_a7_mode_matching():
    chain = AmplifierChain(gain=1.0e4, nbar=2.0)
    env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
    state = prepare_superposition(1.0 / math.sqrt(2.0))
    shots, n_chunks = 1_000_000, 50
    size = shots // n_chunks

    direct, filtered = StreamingMoments(4), StreamingMoments(4)
    for b in range(n_chunks):
        direct.update(sample_detector(state, chain, size, seed=[SEED, 70], stream=b))
        rec = np.concatenate(list(simulate_time_trace(state, env, chain, size,
                                                      seed=[SEED, 71], stream=b)))
        filtered.update(matched_filter(rec, env))
    sd, sf = direct.result().values, filtered.result().values
    md = combine_batches(direct.result())
    mf = combine_batches(filtered.result())
    se = np.sqrt((np.mean(np.abs(sd - sd.mean(0)) ** 2, 0)
                  + np.mean(np.abs(sf - sf.mean(0)) ** 2, 0))
                 / (n_chunks - 1))

    failures = []
    for n, m in moment_indices(4):
        if (n, m) == (0, 0):
            continue
        diff = abs(md[n, m] - mf[n, m])
        if diff > 3.0 * se[n, m]:
            failures.append(f"s({n},{m}) differs by {diff / se[n, m]:.1f} sigma")

    # temporal-mode mismatch kappa' = 2 kappa modeled as a loss channel
    env2 = TemporalEnvelope(kappa=0.10, dt=1.0, n_bins=400)
    eta = overlap(env, env2) ** 2
    mismatched = loss_channel(FockState.fock(1), eta)
    sig = combine_batches(batched_moments(mismatched, chain, shots, 72, 50))
    vac = combine_batches(batched_moments(FockState.vacuum(), chain, shots,
                                          73, 50))
    m11 = invert_moments(sig, vac, chain.gain, np.zeros((5, 5))).moments[1, 1].real
    if abs(m11 - 8.0 / 9.0) > 0.02:
        failures.append(f"mismatch m(1,1) = {m11:.4f} (target 8/9 +/- 0.02)")

    ok = not failures
    assert report("A7", ok, f"paths agree within 3 sigma; mismatch m(1,1) = "
                            f"{m11:.4f} (8/9 = {8 / 9:.4f})"
                  if ok else "; ".join(failures)), failures
