"""The moment equations written out term by term: the tests' independent reference.

``dynamics`` defines the model once, as the drift, diffusion and drive column
(A, D, b) of the means and covariance. These are the same equations, derived
on their own from the adjoint master equation with drive Hamiltonian
F(t) a^dag + F*(t) a and single-mode damping/pumping on the charger, in the
complex moments (a_mean, b_mean, na, nb, ab_dag, a_sq, b_sq, ab).
"""

import numpy as np

from qbattery.cd_control import drive_field
from qbattery.dynamics import MomentState
from qbattery.model import DriveProfile, ModelParams

_A, _B, _NA, _NB, _ABD, _A2, _B2, _AB = range(8)


def rhs(y: np.ndarray, g: float, f, params: ModelParams) -> np.ndarray:
    """Moment derivatives of the rows ``y[..., :8]`` at coupling ``g`` and complex field ``f``.

    ``f`` may be an array of fields that broadcasts against the rows.
    """
    gamma = params.gamma
    a, b = y[..., _A], y[..., _B]
    na, nb = y[..., _NA].real, y[..., _NB].real
    abd, a2, b2, ab = y[..., _ABD], y[..., _A2], y[..., _B2], y[..., _AB]
    dy = np.empty(y.shape, dtype=complex)
    dy[..., _A] = -1j * (g * b + f) - 0.5 * gamma * a
    dy[..., _B] = -1j * g * a
    dy[..., _NA] = -2.0 * g * abd.imag - 2.0 * (np.conjugate(f) * a).imag - gamma * (na - params.nbar)
    dy[..., _NB] = 2.0 * g * abd.imag
    dy[..., _ABD] = 1j * (g * (na - nb) - f * b.conjugate()) - 0.5 * gamma * abd
    dy[..., _A2] = -2j * (g * ab + f * a) - gamma * a2
    dy[..., _B2] = -2j * g * ab
    dy[..., _AB] = -1j * (g * (a2 + b2) + f * b) - 0.5 * gamma * ab
    return dy


def split(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, packed R) of the moments ``y``, R = Sigma + mu mu^T packed as (00, 01, 02, 03, 11, 12, 13, 22, 23, 33).

    Inverts <a^dag a> = R00 + R11, <a^2> = R00 - R11 + 2i R01, <a b^dag> = R02 + R13 + i (R12 - R03),
    <ab> = R02 - R13 + i (R03 + R12), and alike for b, with mu = (Re <a>, Im <a>, Re <b>, Im <b>).
    """
    a, b, na, nb, abd, a2, b2, ab = y
    mu = np.array([a.real, a.imag, b.real, b.imag])
    r = [na.real + a2.real, a2.imag, abd.real + ab.real, ab.imag - abd.imag, na.real - a2.real,
         abd.imag + ab.imag, abd.real - ab.real, nb.real + b2.real, b2.imag, nb.real - b2.real]
    return mu, 0.5 * np.array(r)


def moment_rhs(t: float, state: MomentState, params: ModelParams, profile: DriveProfile) -> MomentState:
    """Time derivative of every moment at time ``t``.

    The exchange coupling is on for t in [0, tau] only; the drive field is
    the (possibly counterdiabatically corrected) amplitude for ``profile``.
    """
    g = params.g if 0.0 <= t <= params.tau else 0.0
    f = complex(drive_field(t, profile, params.delta_r, params.gamma))
    return MomentState.from_array(rhs(state.as_array(), g, f, params))
