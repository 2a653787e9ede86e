"""Stored energy, ergotropy, and the thermal/coherent decomposition.

For a single-mode Gaussian state the passive-state minimization reduces to a
closed form in the battery block sigma_B = Sigma_B + I/4 (vacuum I/4) of the
covariance the engine propagates, :attr:`Trajectory.sigma`, with no centering:

    M = 16 det sigma_B = (1 + 4 Sigma22)(1 + 4 Sigma33) - 16 Sigma23^2,

the extractable work is omega0 * (<b'b> - (sqrt(M) - 1)/2), <b'b> = Sigma22 + Sigma33 + |<b>|^2.
As (1 + 2 tr Sigma_B)^2 - M = 4 (Sigma22 - Sigma33)^2 + 16 Sigma23^2, it is computed without
cancellation as omega0 * (|<b>|^2 + (4 (Sigma22 - Sigma33)^2 + 16 Sigma23^2) / (2 (sqrt(M) + 1 + 2 tr Sigma_B))).
:func:`energy_columns` evaluates this on every sample of mu and Sigma at once and reads nothing else;
:func:`ergotropy_b` is a one-row call of it, so a series and its samples share one formula and checks, and
:func:`batch_columns` reads all the samples of a batch in one pass and judges each member alone.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import _SHIFT, MomentState, Trajectory, _gaussian, _positive_2x2, _unwrap, _verdicts, propagate
from .errors import ConfigError, UnphysicalState
from .model import DriveProfile, ModelParams

__all__ = [
    "DecompositionResult",
    "EnergyReport",
    "batch_columns",
    "decompose",
    "energy_columns",
    "ergotropy_b",
    "report_series",
]


class EnergyReport(NamedTuple):
    """Battery energetics of one moment sample: energies scaled by omega0, and M."""

    e_b: float
    ergotropy_b: float
    passive_b: float
    m_value: float
    e_a: float


def energy_columns(mu: np.ndarray, sigma: np.ndarray, omega0: float, times: np.ndarray | None = None) -> tuple:
    """Columns (e_b, ergotropy_b, passive_b, M, e_a) for the samples of means ``mu`` and packed Sigma ``sigma``.

    ``mu`` and ``sigma`` are laid out as in :class:`Trajectory`. Energies are checked in units
    of omega0 and scaled by ``omega0`` once, on return. The battery block is judged by the
    engines' rule (:func:`dynamics._bona_fide` on a 2x2 block), so the ergotropy is >= 0 and
    exceeds e_b by at most omega0 (1 - sqrt(max(M, 0)))/2 <= 2 omega0 PHYSICALITY_TOL (1 + 2 tr Sigma_B).

    Raises
    ------
    ConfigError
        If ``omega0`` is not finite and > 0, as :class:`ModelParams` requires.
    UnphysicalState
        At the first row with a non-finite mean or Sigma entry, a battery covariance that
        breaks the uncertainty principle, or a column (e_b, ergotropy, M, e_a) that overflows,
        named with its sample index and time when ``times`` is given.
    """
    columns, (failure,) = _judged_columns(mu, sigma, omega0, 1, times)
    _unwrap(failure)
    return columns


@np.errstate(invalid="ignore", over="ignore", divide="ignore")  # rows that give inf or nan fail a check
def _judged_columns(mu: np.ndarray, sigma: np.ndarray, omega0: float, k: int, times) -> tuple[tuple, list]:
    """:func:`energy_columns` of k equal-length members, laid one after another, and one outcome per member: None,
    or the UnphysicalState its lone call raises, ``times`` being a member's. Raises ConfigError as that does."""
    if not 0.0 < omega0 < np.inf:
        raise ConfigError(f"omega0 must be finite and > 0, got {omega0}")
    # real products and libm hypot: numpy's complex multiply and abs run SIMD
    # kernels chosen per CPU that round differently, and artifact bytes must not
    s22, s23, s33 = sigma[7:]
    nb = (s22 + mu[2] * mu[2]) + (s33 + mu[3] * mu[3])
    m = (1.0 + 4.0 * s22) * (1.0 + 4.0 * s33) - 16.0 * (s23 * s23)
    squeeze = 4.0 * ((s22 - s33) * (s22 - s33)) + 16.0 * (s23 * s23)  # (1 + 2 tr Sigma_B)^2 - M
    # the rule passes M > 1 - 8 tol (1/2 + tr Sigma_B), below 0 past tr Sigma_B ~ 1/(8 tol): sqrt of max(M, 0)
    erg = (mu[2] * mu[2] + mu[3] * mu[3]) + squeeze / (2.0 * (np.sqrt(np.maximum(m, 0.0)) + 1.0 + 2.0 * (s22 + s33)))
    e_b, erg, e_a = omega0 * nb, omega0 * erg, omega0 * np.hypot(mu[0], mu[1]) ** 2
    checks = {  # masks in C order: Trajectory's strided views would make all(axis=0) reduce 4 or 10 at a time
        "non-finite moment": ~(np.isfinite(mu, order="C").all(axis=0) & np.isfinite(sigma, order="C").all(axis=0)),
        "battery covariance breaks the uncertainty principle": ~_positive_2x2(s22 + _SHIFT, s23, s33 + _SHIFT),
        "energy overflows": ~np.isfinite([e_b, erg, m, e_a]).all(axis=0),
    }
    failures = _verdicts(checks, k, times, UnphysicalState, lambda i: f"M={m[i]}, centered nb={s22[i] + s33[i]}")
    return (e_b, erg, e_b - erg, m, e_a), failures


def batch_columns(outcomes: list, omega0: float) -> list:
    """One outcome per outcome of a batch (``dynamics.propagate_batch``), from one pass over all its samples: an error
    passes through; a trajectory gives its :func:`energy_columns`, bit for bit its lone value as the columns work sample
    by sample, or the UnphysicalState its lone call raises. Trajectories off one shared time grid raise ValueError."""
    trajs = [t for t in outcomes if isinstance(t, Trajectory)]
    if not trajs:
        return list(outcomes)
    if any(not np.array_equal(t.times, trajs[0].times) for t in trajs[1:]):
        raise ValueError("a batch's trajectories share one time grid")
    columns, failures = _judged_columns(np.hstack([t.mu for t in trajs]), np.hstack([t.sigma for t in trajs]),
                                        omega0, len(trajs), trajs[0].times)
    n = len(trajs[0])
    read = iter(failure or tuple(c[j * n:(j + 1) * n] for c in columns) for j, failure in enumerate(failures))
    return [next(read) if isinstance(t, Trajectory) else t for t in outcomes]


def _reports(columns: tuple[np.ndarray, ...]) -> list[EnergyReport]:
    return list(map(EnergyReport._make, zip(*(c.tolist() for c in columns))))


def ergotropy_b(state: MomentState, omega0: float) -> EnergyReport:
    """Extractable work and companions for the battery mode.

    Raises
    ------
    ConfigError, UnphysicalState
        As :func:`energy_columns`, for this one state.
    """
    return _reports(energy_columns(*_gaussian(state.as_array()[None, :]), omega0))[0]


def report_series(traj: Trajectory) -> list[EnergyReport]:
    """Energetics of every retained sample of a trajectory."""
    return _reports(energy_columns(traj.mu, traj.sigma, traj.params.omega0, traj.times))


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
) -> DecompositionResult:
    """Split the stored energy into thermal and coherent contributions.

    Runs three trajectories: the configured one, the same bath with the drive
    off, and the same drive at zero temperature. Linearity of the moment
    equations makes the battery energy exactly additive and makes the
    ergotropy of the full run equal that of the coherent part; the result
    carries the largest pointwise residual of each identity, in units of
    omega0, for the caller to judge.
    """
    runs = [
        propagate(params, profile, step, t_end, sample_stride),
        propagate(params, DriveProfile.off(), step, t_end, sample_stride),
        propagate(replace(params, nbar=0.0), profile, step, t_end, sample_stride),
    ]
    total, thermal, coherent = (energy_columns(r.mu, r.sigma, params.omega0, r.times) for r in runs)
    e_res = float(np.max(np.abs(total[0] - (thermal[0] + coherent[0]))))  # e_b columns
    erg_res = float(np.max(np.abs(total[1] - coherent[1])))  # ergotropy columns
    return DecompositionResult(
        times=runs[0].times,
        total=_reports(total),
        thermal=_reports(thermal),
        coherent=_reports(coherent),
        max_energy_residual=e_res,
        max_ergotropy_residual=erg_res,
    )
