"""Counterdiabatic control fields.

Two constructions live here: the displaced-frame drive correction for the
damped driven oscillator (an analytic formula, and its harmonics), and the
closed-system transitionless Hamiltonian of a sampled H0(t). That one works on
an (n, d, d) stack of samples: one batched eigendecomposition, a cumulative
phase sum as the gauge fix, and finite differences along the time axis.
"""

import numpy as np

from .errors import DegenerateSpectrum, GridTooCoarse, SingularDenominator
from .model import DriveKind, DriveProfile, envelope

__all__ = ["cd_hamiltonian_closed", "drive_field", "drive_harmonics", "propagate_unitary"]

HERMITICITY_TOL = 1e-12
GAUGE_OVERLAP_MIN = 0.9
MIN_GAP = 1e-8


def _cd_denominator(delta_r: float, gamma: float) -> complex:
    den = delta_r - 0.5j * gamma
    if abs(den) == 0.0:
        raise SingularDenominator(
            "counterdiabatic correction undefined for delta_r = 0 and gamma = 0"
        )
    return den


def drive_field(t, profile: DriveProfile, delta_r: float, gamma: float):
    """The drive amplitude entering the master equation; ``t`` may be an array.

    For a CD_SIN_SQ profile this is the counterdiabatically corrected field
    F(t) - i*Fdot(t)/(delta_r - i*gamma/2), with F(t) = f0*sin^2(omega_env*t)
    and the derivative taken analytically. The bare kinds return F(t).

    Raises
    ------
    SingularDenominator
        If the profile is CD-corrected and delta_r = gamma = 0.
    """
    if profile.kind is not DriveKind.CD_SIN_SQ:
        return envelope(t, profile) + 0j
    den = _cd_denominator(delta_r, gamma)
    f_dot = profile.f0 * profile.omega_env * np.sin(2.0 * profile.omega_env * t)
    return envelope(t, profile) + f_dot * (-1j / den)


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


def cd_hamiltonian_closed(ts, h) -> np.ndarray:
    """Transitionless-driving Hamiltonian i sum_{m != n} |m><m|d_t n><n| of a sampled H0(t).

    ``h`` holds one Hermitian matrix per time of the uniform grid ``ts``, shape
    (n, d, d); so does the result, which is Hermitian and traceless by construction.

    Raises
    ------
    ValueError
        Naming the time of the first sample that is not Hermitian, has no time
        or no matrix, or breaks a strictly increasing uniform grid of at least 3 points.
    DegenerateSpectrum
        If adjacent eigenvalues of a sample are closer than ``MIN_GAP``.
    GridTooCoarse
        See ``_transitionless``.
    """
    ts, h = np.asarray(ts, dtype=float), np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"samples must be an (n, d, d) stack of square matrices, got shape {h.shape}")
    if ts.shape != h.shape[:1]:
        n = min(ts.size, len(h))
        after = f" after t={ts.flat[n - 1]}" if n else ""
        raise ValueError(f"{ts.size} times for {len(h)} matrices: not one time per matrix{after}")
    dev = np.max(np.abs(h - h.conj().swapaxes(1, 2)), axis=(1, 2))
    bad = np.flatnonzero(~(dev <= HERMITICITY_TOL * np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))))
    if bad.size:
        k = bad[0]
        raise ValueError(f"matrix not Hermitian (deviation {dev[k]:.3e}) at t={ts[k]}")
    if len(ts) < 3:
        raise ValueError("need at least 3 samples for finite differences")
    steps = np.diff(ts)
    bad = np.flatnonzero((steps <= 0) | ~(np.abs(steps - steps[0]) <= 1e-9 * steps[0]))
    if bad.size:
        raise ValueError(f"sample times must be strictly increasing and uniform, not at t={ts[bad[0] + 1]}")
    w, vecs = np.linalg.eigh(h)
    gaps = np.diff(w, axis=1).min(axis=1, initial=np.inf)
    bad = np.flatnonzero(gaps < MIN_GAP)
    if bad.size:
        k = bad[0]
        raise DegenerateSpectrum(f"spectral gap {gaps[k]:.3e} below tolerance {MIN_GAP:.3e} at t={ts[k]}")
    return _transitionless(ts[1] - ts[0], vecs)


def _transitionless(dt: float, vecs: np.ndarray) -> np.ndarray:
    """H_CD from an (n, d, d) stack of eigenvector columns sampled every ``dt``.

    The gauge fix theta_k = theta_{k-1} + arg <v_{k-1}|v_k> makes each level's
    overlap with the previous sample real and positive, so the result does not
    depend on the solver's phases. The derivative is central inside the grid
    and one-sided at its ends.

    Raises
    ------
    GridTooCoarse
        If adjacent same-level eigenvectors overlap below ``GAUGE_OVERLAP_MIN`` in magnitude.
    """
    ov = np.sum(vecs[:-1].conj() * vecs[1:], axis=1)  # (n - 1, d): <v_{k-1}|v_k> per level
    low = np.argwhere(np.abs(ov) < GAUGE_OVERLAP_MIN)
    if low.size:
        k, j = low[0]
        raise GridTooCoarse(
            f"eigenvector overlap {abs(ov[k, j]):.3f} < {GAUGE_OVERLAP_MIN} "
            f"between samples {k} and {k + 1} (level {j})"
        )
    theta = np.concatenate([np.zeros((1, vecs.shape[2])), np.cumsum(np.angle(ov), axis=0)])
    vecs = vecs * np.exp(-1j * theta)[:, None, :]
    vecs_h = vecs.conj().swapaxes(1, 2)
    coupling = vecs_h @ np.gradient(vecs, dt, axis=0)
    diag = np.arange(vecs.shape[2])
    coupling[:, diag, diag] = 0.0
    # antihermitian part only: keeps the output exactly Hermitian/traceless
    coupling = 0.5 * (coupling - coupling.conj().swapaxes(1, 2))
    return 1j * vecs @ coupling @ vecs_h


def propagate_unitary(ts, h, psi0) -> np.ndarray:
    """Dense unitary propagation of a state under an (n, d, d) stack of Hamiltonian samples.

    Steps with exp(-i*H_mid*dt) where H_mid is the average of adjacent
    samples. Returns the state at every sample time, shape (n, d).
    """
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (h[:-1] + h[1:]))
    phases = np.exp(-1j * w * np.diff(ts)[:, None])
    v_h = v.conj().swapaxes(1, 2)
    out = np.empty((len(h), np.size(psi0)), dtype=complex)
    out[0] = psi0
    for k in range(len(h) - 1):
        out[k + 1] = v[k] @ (phases[k] * (v_h[k] @ out[k]))
    return out
