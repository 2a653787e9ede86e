"""Stored energy, ergotropy, and the thermal/coherent decomposition.

For a single-mode Gaussian state the passive-state minimization reduces to a
closed form in the moments: with

    M = (1 + 2<b'b> - 2|<b>|^2)^2 - 4|<b^2> - <b>^2|^2

the extractable work is omega0 * (<b'b> - (sqrt(M) - 1)/2). Physical Gaussian
states have M >= 1. :func:`energy_columns` evaluates this on every row of an
(n, 8) moment array at once; :func:`ergotropy_b` is a one-row call of it,
so a series and its samples share one formula and one set of checks.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import MomentState, Trajectory, propagate, raise_first_failure
from .errors import DecompositionMismatch, UnphysicalState
from .model import DriveProfile, ModelParams

__all__ = [
    "DecompositionResult",
    "EnergyReport",
    "decompose",
    "energy_columns",
    "ergotropy_b",
    "report_series",
]

#: floating-point noise floor for clamping tiny negative ergotropy
NEGATIVE_CLAMP = 1e-9
M_PHYSICALITY_TOL = 1e-6


class EnergyReport(NamedTuple):
    """Battery energetics of one moment sample, all in units of omega0."""

    e_b: float
    ergotropy_b: float
    passive_b: float
    m_value: float
    e_a: float


@np.errstate(invalid="ignore", over="ignore")  # rows with inf or nan fail the first check
def energy_columns(moments: np.ndarray, omega0: float, times: np.ndarray | None = None) -> tuple:
    """Columns (e_b, ergotropy_b, passive_b, M, e_a) for the rows of ``moments``.

    ``moments`` is an (n, 8) array in :class:`Trajectory` order; energies are
    in units of omega0. M within the tolerance below 1 counts as 1, so the
    ergotropy never exceeds e_b; a negative ergotropy within the noise floor
    is clamped to 0.

    Raises
    ------
    UnphysicalState
        At the first row with a non-finite moment, M < 1 - 1e-6 (the moments
        do not describe a Gaussian state) or ergotropy below -1e-9, named with
        its sample index and time when ``times`` is given.
    """
    # real products and libm hypot: numpy's complex multiply and abs run SIMD
    # kernels chosen per CPU that round differently, and artifact bytes must not
    a, b, nb, b_sq = moments[:, 0], moments[:, 1], moments[:, 3].real, moments[:, 6]
    e_b = omega0 * nb
    centered_n = 1.0 + 2.0 * nb - 2.0 * np.hypot(b.real, b.imag) ** 2
    centered_sq = np.hypot(b_sq.real - (b.real**2 - b.imag**2), b_sq.imag - 2.0 * b.real * b.imag)
    m = centered_n**2 - 4.0 * centered_sq**2
    erg = e_b - omega0 * (np.sqrt(np.maximum(m, 1.0)) - 1.0) / 2.0
    checks = {
        "non-finite moment": ~np.isfinite(moments).all(axis=1),
        "Gaussian discriminant M below 1": m < 1.0 - M_PHYSICALITY_TOL,
        "ergotropy below clamp threshold": erg < -NEGATIVE_CLAMP,
    }
    raise_first_failure(checks, times, UnphysicalState, lambda i: f"M={m[i]}, ergotropy={erg[i]}")
    erg = np.where(erg < 0.0, 0.0, erg)
    return e_b, erg, e_b - erg, m, omega0 * np.hypot(a.real, a.imag) ** 2


def _reports(columns: tuple[np.ndarray, ...]) -> list[EnergyReport]:
    return list(map(EnergyReport._make, zip(*(c.tolist() for c in columns))))


def ergotropy_b(state: MomentState, omega0: float) -> EnergyReport:
    """Extractable work and companions for the battery mode.

    Raises
    ------
    UnphysicalState
        As :func:`energy_columns`, for this one state.
    """
    return _reports(energy_columns(state.as_array()[None, :], omega0))[0]


def report_series(traj: Trajectory) -> list[EnergyReport]:
    """Energetics of every retained sample of a trajectory."""
    return _reports(energy_columns(traj.moments, traj.params.omega0, traj.times))


@dataclass
class DecompositionResult:
    """Aligned energy series of the full, thermal-only, and coherent-only runs."""

    times: np.ndarray
    total: list
    thermal: list
    coherent: list
    max_energy_residual: float
    max_ergotropy_residual: float


def decompose(
    params: ModelParams,
    profile: DriveProfile,
    step: float,
    t_end: float,
    sample_stride: int = 1,
    tolerance: float = 1e-6,
) -> DecompositionResult:
    """Split the stored energy into thermal and coherent contributions.

    Runs three trajectories: the configured one, the same bath with the drive
    off, and the same drive at zero temperature. Linearity of the moment
    equations makes the battery energy exactly additive and makes the
    ergotropy of the full run equal that of the coherent part; both
    identities are asserted pointwise.

    Raises
    ------
    DecompositionMismatch
        Carrying the largest pointwise residual if either identity fails
        beyond ``tolerance``.
    """
    runs = [
        propagate(params, profile, step, t_end, sample_stride),
        propagate(params, DriveProfile.off(), step, t_end, sample_stride),
        propagate(replace(params, nbar=0.0), profile, step, t_end, sample_stride),
    ]
    total, thermal, coherent = (energy_columns(r.moments, params.omega0, r.times) for r in runs)
    e_res = float(np.max(np.abs(total[0] - (thermal[0] + coherent[0]))))  # e_b columns
    if e_res > tolerance:
        raise DecompositionMismatch(
            f"energy additivity residual {e_res:.3e} exceeds {tolerance}", e_res
        )
    erg_res = float(np.max(np.abs(total[1] - coherent[1])))  # ergotropy columns
    if erg_res > tolerance:
        raise DecompositionMismatch(
            f"ergotropy/coherent-part residual {erg_res:.3e} exceeds {tolerance}", erg_res
        )
    return DecompositionResult(
        times=runs[0].times,
        total=_reports(total),
        thermal=_reports(thermal),
        coherent=_reports(coherent),
        max_energy_residual=e_res,
        max_ergotropy_residual=erg_res,
    )
