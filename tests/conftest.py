"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: moments by
brute-force operator traces in (padded) Fock bases, kernels by numerical
quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from hettomo import cli
from hettomo.acquire import combine_batches
from hettomo.fock import FockState, destroy
from hettomo.moments import MomentMatrix, hermitize, moment_indices
from hettomo.tomo import bootstrap_errors, estimate_gain, invert_moments


def random_density_matrix(rng: np.random.Generator, dim: int) -> FockState:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return FockState(rho / np.trace(rho).real)


def padded(state: FockState, extra: int) -> FockState:
    """Same state embedded in a Fock space with `extra` more levels."""
    dim = state.dim + extra
    rho = np.zeros((dim, dim), dtype=complex)
    rho[: state.dim, : state.dim] = state.rho
    return FockState(rho, profile=state.profile)


def antinormal_moments(state: FockState, order: int = 4) -> MomentMatrix:
    """Antinormally ordered moments m(n, m) = Tr[rho a^n (a^dag)^m].

    These are the moments of the state's own Q function:
    integral of alpha^n conj(alpha)^m Q(alpha).  Computed in a padded basis
    so intermediate raising never truncates.
    """
    wide = padded(state, order)
    a = destroy(wide.dim)
    ad = a.conj().T
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):
        op = np.linalg.matrix_power(a, n) @ np.linalg.matrix_power(ad, m)
        values[n, m] = np.trace(wide.rho @ op)
    return MomentMatrix(hermitize(values))


def noise_moments(nbar: float, order: int = 4) -> MomentMatrix:
    """Antinormal thermal-noise moments <h^n (h^dag)^m> = delta_nm n! (nbar+1)^n."""
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n in range(order // 2 + 1):
        values[n, n] = math.factorial(n) * (nbar + 1.0) ** n
    return MomentMatrix(values)


def husimi_q_einsum(state: FockState, alpha):
    """Husimi Q as one complex einsum, sum_jk conj(v_j) rho_jk v_k e^{-|alpha|^2} / pi
    with v_k = alpha^k / sqrt(k!): the form fock.husimi_q replaced."""
    alpha_arr = np.atleast_1d(np.asarray(alpha, dtype=complex))
    flat = alpha_arr.ravel()
    v = np.empty((state.dim, flat.size), dtype=complex)
    v[0] = 1.0
    for k in range(1, state.dim):
        v[k] = v[k - 1] * flat / np.sqrt(k)
    q = np.einsum("in,ij,jn->n", v.conj(), state.rho, v).real
    q *= np.exp(-np.abs(flat) ** 2) / np.pi
    q = np.maximum(q, 0.0).reshape(alpha_arr.shape)
    return float(q.reshape(-1)[0]) if np.ndim(alpha) == 0 else q


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


def random_moment_matrix(rng: np.random.Generator, order: int) -> np.ndarray:
    v = rng.normal(size=(order + 1, order + 1)) \
        + 1j * rng.normal(size=(order + 1, order + 1))
    v = hermitize(v)
    v[0, 0] = 1.0
    return v


def thermal_rho(nbar: float, dim: int) -> np.ndarray:
    if nbar == 0:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    p = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return np.diag((p / p.sum()).astype(complex))


def thermal_antinormal_oracle(nbar: float, n: int, m: int,
                              cutoff: int = 80) -> complex:
    """<h^n (h^dag)^m> by direct trace over a big truncated thermal state."""
    dim = cutoff + 1 + max(n, m)
    rho = thermal_rho(nbar, dim)
    h = destroy(dim)
    op = np.linalg.matrix_power(h, n) @ np.linalg.matrix_power(h.conj().T, m)
    return complex(np.trace(rho @ op))


def two_mode_raw_oracle(rho_a: np.ndarray, nbar_h: float, gain: float,
                        n: int, m: int, cutoff_h: int = 60) -> complex:
    """Brute-force <(S^dag)^n S^m> = G^{(n+m)/2} <(a^dag+h)^n (a+h^dag)^m>
    on the product state rho_a (x) thermal(nbar_h)."""
    dim_a = rho_a.shape[0] + max(n, m)   # pad so raising never truncates
    dim_h = cutoff_h + 1 + max(n, m)
    rho_a_pad = np.zeros((dim_a, dim_a), dtype=complex)
    rho_a_pad[: rho_a.shape[0], : rho_a.shape[0]] = rho_a
    a = np.kron(destroy(dim_a), np.eye(dim_h))
    h = np.kron(np.eye(dim_a), destroy(dim_h))
    rho = np.kron(rho_a_pad, thermal_rho(nbar_h, dim_h))
    s_dag = a.conj().T + h
    s = a + h.conj().T
    op = np.linalg.matrix_power(s_dag, n) @ np.linalg.matrix_power(s, m)
    return complex(gain ** ((n + m) / 2.0) * np.trace(rho @ op))


def fock_power_moments(k: int, nbar_h: float) -> tuple[float, float]:
    """Closed-form E|z|^2 and E|z|^4 of one unit-gain detector sample
    z = alpha + nu for Fock |k> behind an amplifier with noise nbar_h.

    alpha follows the Husimi Q function of |k>, so |alpha|^2 ~ Gamma(k+1)
    with E|alpha|^2 = k+1 and E|alpha|^4 = (k+1)(k+2); nu ~ CN(0, nbar_h)
    has E|nu|^2 = nbar_h and E|nu|^4 = 2 nbar_h^2. Both phases are uniform,
    so E|z|^4 = E|alpha|^4 + 4 E|alpha|^2 E|nu|^2 + E|nu|^4.
    """
    a2, a4 = k + 1.0, (k + 1.0) * (k + 2.0)
    return a2 + nbar_h, a4 + 4.0 * a2 * nbar_h + 2.0 * nbar_h ** 2


def wigner_kernel_quadrature(n: int, m: int, alpha: complex,
                             radius: float = 8.0, points: int = 481) -> complex:
    """Numerical 2D quadrature of the Wigner lambda-integral, convention
    pinned to moments pairing with lambda^n (-conj(lambda))^m."""
    x = np.linspace(-radius, radius, points)
    d = x[1] - x[0]
    lam = x[:, None] + 1j * x[None, :]
    integrand = (lam ** n * (-np.conj(lam)) ** m
                 * np.exp(-0.5 * np.abs(lam) ** 2
                          + alpha * np.conj(lam) - np.conj(alpha) * lam))
    return complex(np.sum(integrand) * d * d / np.pi ** 2)


def pipeline_over_seeds(config: dict, seeds) -> dict[str, np.ndarray]:
    """The pipeline's own stage functions, in memory, once per seed of `config`: the
    signal, vacuum and calibration runs (`cli.run_acquisition`), the calibrated gain
    (`estimate_gain`), and the moments inverted with the true gain against their
    bootstrap errors (`bootstrap_errors`, `invert_moments`). Returns per-seed stacks
    `moments`, `errors`, `gain` and `gain_stderr`."""
    out: dict[str, list] = {"moments": [], "errors": [], "gain": [], "gain_stderr": []}
    extent = None
    for seed in seeds:
        cfg = cli.parse_config({**config, "seed": seed})
        extent = extent or cli.auto_extent(cfg)     # the histogram axes move no moment
        sig, vac, cal = (cli.run_acquisition(state, cfg, stage, extent)["batch_moments"]
                         for state, stage in ((cfg.state, cli.STAGE_SIGNAL),
                                              (FockState.vacuum(), cli.STAGE_VACUUM),
                                              (cfg.calibration, cli.STAGE_CALIBRATION)))
        calibration = estimate_gain(cal, vac)
        gain = cfg.chain.gain
        report = invert_moments(combine_batches(sig), combine_batches(vac), gain,
                                bootstrap_errors(sig, vac, gain))
        out["moments"].append(report.moments.values)
        out["errors"].append(report.errors)
        out["gain"].append(calibration["gain"])
        out["gain_stderr"].append(calibration["gain_stderr"])
    return {key: np.array(value) for key, value in out.items()}
