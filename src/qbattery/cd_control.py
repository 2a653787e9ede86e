"""Counterdiabatic control fields.

Two constructions live here: the displaced-frame drive correction for the
damped driven oscillator (an analytic formula), and the generic closed-system
transitionless Hamiltonian built by finite-differencing gauge-fixed
eigenvectors on a sampled time grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, GridTooCoarse, SingularDenominator
from .model import DriveKind, DriveProfile, envelope

__all__ = [
    "CdDriveSample",
    "HermitianTrajectorySample",
    "cd_field",
    "cd_from_eigensystem",
    "cd_hamiltonian_closed",
    "drive_field",
    "drive_harmonics",
    "eigensystem_trajectory",
    "propagate_unitary",
    "steady_displacement",
]

HERMITICITY_TOL = 1e-12
GAUGE_OVERLAP_MIN = 0.9


def _cd_denominator(delta_r: float, gamma: float) -> complex:
    den = delta_r - 0.5j * gamma
    if abs(den) == 0.0:
        raise SingularDenominator(
            "counterdiabatic correction undefined for delta_r = 0 and gamma = 0"
        )
    return den


@dataclass(frozen=True)
class CdDriveSample:
    """Drive value at one instant, split into bare envelope and correction.

    ``correction`` is the displaced-frame generator coefficient
    -i*Fdot/(delta_r - i*gamma/2); ``f_cd = f_bare + correction`` exactly.
    """

    t: float
    f_cd: complex
    f_bare: float
    correction: complex


def cd_field(t, profile: DriveProfile, delta_r: float, gamma: float) -> CdDriveSample:
    """Counterdiabatically corrected drive field at time ``t``.

    For a CD_SIN_SQ profile returns F(t) - i*Fdot(t)/(delta_r - i*gamma/2)
    with F(t) = f0*sin^2(omega_env*t) and the derivative taken analytically.
    For the bare profile kinds the correction is zero by definition. ``t``
    may be an array.

    Raises
    ------
    SingularDenominator
        If the profile is CD-corrected and delta_r = gamma = 0.
    """
    f_bare = envelope(t, profile)
    if profile.kind is not DriveKind.CD_SIN_SQ:
        return CdDriveSample(t=t, f_cd=f_bare + 0j, f_bare=f_bare, correction=0j)
    den = _cd_denominator(delta_r, gamma)
    f_dot = profile.f0 * profile.omega_env * np.sin(2.0 * profile.omega_env * t)
    correction = f_dot * (-1j / den)
    return CdDriveSample(t=t, f_cd=f_bare + correction, f_bare=f_bare, correction=correction)


def drive_field(t, profile: DriveProfile, delta_r: float, gamma: float):
    """The drive amplitude entering the master equation for any profile kind; ``t`` may be an array."""
    if profile.kind is DriveKind.CD_SIN_SQ:
        return cd_field(t, profile, delta_r, gamma).f_cd
    return envelope(t, profile) + 0j


def drive_harmonics(profile: DriveProfile, delta_r: float, gamma: float) -> tuple[complex, complex, complex]:
    """Coefficients (c0, c+, c-) of F(t) = c0 + c+ e^{2i w t} + c- e^{-2i w t}, w = omega_env.

    Every profile kind is such a sum: sin^2(w t) = 1/2 - (e^{2iwt} + e^{-2iwt})/4,
    and the CD correction -i Fdot/(delta_r - i gamma/2) adds -+ f0 w/(2 (delta_r - i gamma/2)).
    """
    if profile.kind is DriveKind.OFF:
        return 0j, 0j, 0j
    if profile.kind is DriveKind.STATIC:
        return complex(profile.f0), 0j, 0j
    c0, c = 0.5 * profile.f0 + 0j, -0.25 * profile.f0 + 0j
    if profile.kind is DriveKind.SIN_SQ:
        return c0, c, c
    corr = profile.f0 * profile.omega_env / (2.0 * _cd_denominator(delta_r, gamma))
    return c0, c - corr, c + corr


def steady_displacement(t: float, profile: DriveProfile, delta_r: float, gamma: float) -> complex:
    """Instantaneous steady-state displacement i*F(t)/(delta_r - i*gamma/2).

    This is the displacement-frame amplitude the CD correction keeps the
    damped mode locked onto.
    """
    den = _cd_denominator(delta_r, gamma)
    return 1j * envelope(t, profile) / den


@dataclass(frozen=True)
class HermitianTrajectorySample:
    """One time sample of a Hermitian operator trajectory."""

    t: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_TOL * max(1.0, np.max(np.abs(m))):
            raise ValueError(f"matrix not Hermitian (deviation {dev:.3e})")
        object.__setattr__(self, "matrix", m)


def eigensystem_trajectory(
    samples: list[HermitianTrajectorySample], min_gap: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose a sampled Hermitian trajectory on a uniform grid.

    Returns ``(ts, vals, vecs)`` with eigenvalues ascending and eigenvectors
    in columns, raw phases as produced by the solver (no gauge fixing).

    Raises
    ------
    DegenerateSpectrum
        If any sample has adjacent eigenvalues closer than ``min_gap``.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples for finite differences")
    ts = np.array([s.t for s in samples], dtype=float)
    steps = np.diff(ts)
    if np.any(steps <= 0):
        raise ValueError("sample times must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("samples must lie on a uniform time grid")
    dim = samples[0].matrix.shape[0]
    vals = np.empty((len(samples), dim))
    vecs = np.empty((len(samples), dim, dim), dtype=complex)
    for k, s in enumerate(samples):
        w, v = np.linalg.eigh(s.matrix)
        gap = np.min(np.diff(w)) if dim > 1 else np.inf
        if gap < min_gap:
            raise DegenerateSpectrum(
                f"spectral gap {gap:.3e} below tolerance {min_gap:.3e} at t={s.t}"
            )
        vals[k], vecs[k] = w, v
    return ts, vals, vecs


def cd_from_eigensystem(
    ts: np.ndarray, vecs: np.ndarray, gauge_fix: bool = True
) -> list[np.ndarray]:
    """Assemble the transitionless-driving term from sampled eigenvectors.

    Computes i * sum_{m != n} |m><m|d_t n><n| using central differences at
    interior points and one-sided differences at the ends. With gauge fixing,
    each eigenvector's phase is chosen to maximize the real part of its
    overlap with the previous sample, which makes the finite differences
    meaningful; the result is independent of any constant per-level phase.

    Raises
    ------
    GridTooCoarse
        If adjacent same-level eigenvectors overlap below 0.9 in magnitude.
    """
    vecs = np.array(vecs, dtype=complex)
    n_samples, dim = vecs.shape[0], vecs.shape[1]
    if gauge_fix:
        for k in range(1, n_samples):
            for j in range(dim):
                ov = np.vdot(vecs[k - 1][:, j], vecs[k][:, j])
                if abs(ov) < GAUGE_OVERLAP_MIN:
                    raise GridTooCoarse(
                        f"eigenvector overlap {abs(ov):.3f} < {GAUGE_OVERLAP_MIN} "
                        f"between samples {k - 1} and {k} (level {j})"
                    )
                vecs[k][:, j] *= np.exp(-1j * np.angle(ov))
    dt = ts[1] - ts[0]
    out = []
    for k in range(n_samples):
        if k == 0:
            vdot = (vecs[1] - vecs[0]) / dt
        elif k == n_samples - 1:
            vdot = (vecs[-1] - vecs[-2]) / dt
        else:
            vdot = (vecs[k + 1] - vecs[k - 1]) / (2.0 * dt)
        coupling = vecs[k].conj().T @ vdot
        np.fill_diagonal(coupling, 0.0)
        # antihermitian part only: keeps the output exactly Hermitian/traceless
        coupling = 0.5 * (coupling - coupling.conj().T)
        out.append(1j * vecs[k] @ coupling @ vecs[k].conj().T)
    return out


def cd_hamiltonian_closed(
    samples: list[HermitianTrajectorySample], min_gap: float = 1e-8
) -> list[HermitianTrajectorySample]:
    """Transitionless-driving Hamiltonian for a sampled trajectory H0(t).

    Input samples must lie on a uniform grid with a non-degenerate spectrum
    throughout. The output is Hermitian and traceless by construction.
    """
    ts, _, vecs = eigensystem_trajectory(samples, min_gap=min_gap)
    mats = cd_from_eigensystem(ts, vecs, gauge_fix=True)
    return [HermitianTrajectorySample(t=t, matrix=m) for t, m in zip(ts, mats)]


def propagate_unitary(ts: np.ndarray, hams: list[np.ndarray], psi0: np.ndarray) -> np.ndarray:
    """Dense unitary propagation of a state under a sampled Hamiltonian.

    Steps with exp(-i*H_mid*dt) where H_mid is the average of adjacent
    samples. Returns the state at every sample time, shape (n_samples, dim).
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    out = np.empty((len(ts), psi.size), dtype=complex)
    out[0] = psi
    for k in range(len(ts) - 1):
        dt = ts[k + 1] - ts[k]
        h_mid = 0.5 * (hams[k] + hams[k + 1])
        w, v = np.linalg.eigh(h_mid)
        psi = v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))
        out[k + 1] = psi
    return out
