"""Closed moment equations of the driven, damped two-oscillator system.

The Gaussian dynamics is captured exactly by two first moments and six
second moments. Their equations of motion follow from the adjoint master
equation with drive Hamiltonian F(t) a^dag + F*(t) a and single-mode
damping/pumping on the charger; the three quadrature moments <a^2>, <b^2>,
<ab> close the set needed by the ergotropy formula. With a complex
counterdiabatic field the drive term in d<a^dag a>/dt carries the conjugate
field, -2 Im[F* <a>]; the brute-force density-matrix oracle pins this
convention down.

The equations are real-affine: on x = [Re y, Im y, 1], dx/dt = A(t) x with
the 17x17 generator A = A_g + Re F A_re + Im F A_im (sources in the last
column). So a classical RK4 step is the affine map P = I + h/6 (A1 + 2 K2 +
2 K3 + K4), K2 = A2 (I + h/2 A1), K3 = A2 (I + h/2 K2), K4 = A4 (I + h K3),
with A1, A2, A4 taken at t, t + h/2, t + h. :func:`integrate` builds the maps
of a block of steps with array operations, then applies them step by step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cd_control import drive_field
from .errors import InvariantViolation, StepTooLarge
from .model import DriveKind, DriveProfile, ModelParams, coupling_window

__all__ = ["MomentState", "Trajectory", "default_step", "integrate", "max_step", "moment_rhs"]

#: absolute tolerance for physicality checks on stored samples
PHYSICALITY_TOL = 1e-9

#: RK4 steps whose maps are built together. It bounds the (block, 17, 17) work
#: arrays: at 64 each passes 128 KiB and map building slows by about half.
BLOCK_STEPS = 32

# layout of the internal state vector
_A, _B, _NA, _NB, _ABD, _A2, _B2, _AB = range(8)
_DIM = 17  # real state [Re y, Im y, 1]


def _check_physical(m: np.ndarray, tol: float, times: np.ndarray | None = None) -> None:
    """Raise :class:`InvariantViolation` at the first non-finite or unphysical row of ``m``.

    The message names the row's sample index and time when ``times`` is given.
    """
    na, nb = m[:, _NA].real, m[:, _NB].real
    with np.errstate(invalid="ignore"):  # rows with inf or nan fail the first check
        checks = {
            "non-finite moment": ~np.isfinite(m).all(axis=1),
            "negative occupation": (na < -tol) | (nb < -tol),
            "centered charger occupation negative": na < np.abs(m[:, _A]) ** 2 - tol,
            "centered battery occupation negative": nb < np.abs(m[:, _B]) ** 2 - tol,
            "cross moment violates Cauchy-Schwarz": np.abs(m[:, _ABD]) ** 2 > na * (nb + 1.0) + tol,
        }
    raise_first_failure(checks, times, InvariantViolation, lambda i: f"na={na[i]}, nb={nb[i]}")


def raise_first_failure(checks: dict, times, error: type, detail) -> None:
    """Raise ``error`` at the first row that any boolean mask in ``checks`` flags.

    The message gives the first flagged reason for that row, prefixed with its
    sample index and time when ``times`` is given, and ends with ``detail(i)``.
    """
    bad = np.flatnonzero(np.any(list(checks.values()), axis=0))
    if bad.size:
        i = int(bad[0])
        reason = next(msg for msg, mask in checks.items() if mask[i])
        where = "" if times is None else f"sample {i} at t={times[i]:.6g}: "
        raise error(f"{where}{reason}: {detail(i)}")


@dataclass(frozen=True)
class MomentState:
    """First and second moments of the joint charger/battery Gaussian state."""

    a_mean: complex = 0j
    b_mean: complex = 0j
    na: float = 0.0
    nb: float = 0.0
    ab_dag: complex = 0j
    a_sq: complex = 0j
    b_sq: complex = 0j
    ab: complex = 0j

    @classmethod
    def vacuum(cls) -> "MomentState":
        return cls()

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.a_mean, self.b_mean, self.na, self.nb, self.ab_dag, self.a_sq, self.b_sq, self.ab],
            dtype=complex,
        )

    @classmethod
    def from_array(cls, y: np.ndarray) -> "MomentState":
        return cls(
            a_mean=complex(y[_A]),
            b_mean=complex(y[_B]),
            na=float(y[_NA].real),
            nb=float(y[_NB].real),
            ab_dag=complex(y[_ABD]),
            a_sq=complex(y[_A2]),
            b_sq=complex(y[_B2]),
            ab=complex(y[_AB]),
        )

    def validate(self, tol: float = PHYSICALITY_TOL) -> None:
        """Raise :class:`InvariantViolation` if physicality fails beyond ``tol``."""
        _check_physical(self.as_array()[None, :], tol)


def _rhs(y: np.ndarray, s, g: float, f: complex, params: ModelParams) -> np.ndarray:
    """Moment derivatives of the rows ``y[..., :8]``, with the sources scaled by ``s``.

    ``s = 1`` gives the equations of motion. Every term is real-linear in
    (Re y, Im y, s) and, separately, in f.
    """
    gamma = params.gamma
    a, b = y[..., _A], y[..., _B]
    na, nb = y[..., _NA].real, y[..., _NB].real
    abd, a2, b2, ab = y[..., _ABD], y[..., _A2], y[..., _B2], y[..., _AB]
    dy = np.empty(y.shape, dtype=complex)
    dy[..., _A] = -1j * (g * b + f * s) - 0.5 * gamma * a
    dy[..., _B] = -1j * g * a
    dy[..., _NA] = -2.0 * g * abd.imag - 2.0 * (f.conjugate() * a).imag - gamma * (na - params.nbar * s)
    dy[..., _NB] = 2.0 * g * abd.imag
    dy[..., _ABD] = 1j * (g * (na - nb) - f * b.conjugate()) - 0.5 * gamma * abd
    dy[..., _A2] = -2j * (g * ab + f * a) - gamma * a2
    dy[..., _B2] = -2j * g * ab
    dy[..., _AB] = -1j * (g * (a2 + b2) + f * b) - 0.5 * gamma * ab
    return dy


def _generator(g: float, params: ModelParams) -> np.ndarray:
    """Flattened rows (A_g, A_re, A_im) of dx/dt = (A_g + Re f A_re + Im f A_im) x.

    Column k of each 17x17 map is :func:`_rhs` at the k-th unit vector of x;
    no entry mixes f and f-free terms, so the columns are exact.
    """
    unit = np.eye(_DIM)

    def at(f: complex) -> np.ndarray:
        dy = _rhs(unit[:, :8] + 1j * unit[:, 8:16], unit[:, 16], g, f, params)
        return np.vstack([dy.real.T, dy.imag.T, np.zeros(_DIM)]).ravel()

    a_g = at(0j)
    return np.stack([a_g, at(1.0 + 0j) - a_g, at(1j) - a_g])


def moment_rhs(
    t: float, state: MomentState, params: ModelParams, profile: DriveProfile
) -> MomentState:
    """Time derivative of every moment at time ``t``.

    The exchange coupling is gated by the charging window; the drive field is
    the (possibly counterdiabatically corrected) amplitude for ``profile``.
    """
    g = params.g * coupling_window(t, params.tau)
    f = complex(drive_field(t, profile, params.delta_r, params.gamma))
    return MomentState.from_array(_rhs(state.as_array(), 1.0, g, f, params))


def integration_legs(t_end: float, tau: float) -> list[tuple[float, float, float]]:
    """Split [0, t_end] at the coupling switch-off into smooth pieces.

    Returns (t_start, t_stop, window) triples. Stepping each leg separately
    keeps the integrator at full order; a stage straddling the window jump
    would otherwise degrade physicality at the invariant-tolerance level.
    """
    if tau >= t_end:
        return [(0.0, t_end, 1.0)]
    return [(0.0, tau, 1.0), (tau, t_end, 0.0)]


def max_step(params: ModelParams, profile: DriveProfile) -> float:
    """Largest integrator step the accuracy precondition allows."""
    omega_env = profile.omega_env if profile.kind in (DriveKind.SIN_SQ, DriveKind.CD_SIN_SQ) else 0.0
    return 0.05 / max(omega_env, params.g, params.gamma, params.omega0)


def default_step(params: ModelParams, profile: DriveProfile) -> float:
    """Integrator step used when a run does not set one."""
    return min(0.01, 0.5 * 0.05 / max(profile.omega_env, params.g, params.gamma, params.omega0))


@dataclass
class Trajectory:
    """Sampled moment history of one run; immutable once produced.

    ``moments`` has one row per retained sample in the order
    (a_mean, b_mean, na, nb, ab_dag, a_sq, b_sq, ab).
    """

    times: np.ndarray
    moments: np.ndarray
    params: ModelParams
    profile: DriveProfile
    step: float

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, i: int) -> MomentState:
        return MomentState.from_array(self.moments[i])


def integrate(
    params: ModelParams,
    profile: DriveProfile,
    step: float,
    t_end: float,
    sample_stride: int = 1,
    initial: MomentState | None = None,
    check_invariants: bool = True,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta integration of the moment equations.

    Each leg takes ceil(span/step) equal steps, applied as affine maps.
    Starts from the vacuum (all moments zero) unless ``initial`` is supplied,
    which is meant for validation runs that inject a prepared state. Every
    ``sample_stride``-th step is retained, plus the final one.

    Raises
    ------
    StepTooLarge
        If ``step`` exceeds 0.05/max(omega_env, g, gamma, omega0).
    InvariantViolation
        If a retained sample is non-finite or breaks physicality beyond
        tolerance (named with its index and time), which signals integrator
        misconfiguration rather than physics.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    cap = max_step(params, profile)
    if step > cap * (1.0 + 1e-12):
        raise StepTooLarge(f"step {step} exceeds cap {cap:.6g} for these parameters")

    y0 = (initial or MomentState.vacuum()).as_array()
    x = np.concatenate([y0.real, y0.imag, [1.0]])
    eye = np.eye(_DIM)
    times = [0.0]
    states = [x]
    global_step = 0
    for t_start, t_stop, window in integration_legs(t_end, params.tau):
        span = t_stop - t_start
        if span <= 0:
            continue
        n_steps = max(1, math.ceil(span / step - 1e-12))
        h = span / n_steps
        gen = _generator(params.g * window, params)
        for k0 in range(0, n_steps, BLOCK_STEPS):
            t = t_start + np.arange(k0, min(k0 + BLOCK_STEPS, n_steps)) * h
            f = drive_field(np.stack([t, t + 0.5 * h, t + h]), profile, params.delta_r, params.gamma)
            coef = np.stack([np.ones(f.shape), f.real, f.imag], axis=-1)
            a1, a2, a4 = (coef @ gen).reshape(3, len(t), _DIM, _DIM)
            k2 = a2 @ (eye + (0.5 * h) * a1)
            k3 = a2 @ (eye + (0.5 * h) * k2)
            k4 = a4 @ (eye + h * k3)
            maps = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
            for k, p in enumerate(maps, start=k0):
                x = p @ x
                global_step += 1
                if global_step % sample_stride == 0:
                    # pin the leg endpoint exactly; accumulated k*h rounds off
                    times.append(t_stop if k == n_steps - 1 else t_start + (k + 1) * h)
                    states.append(x)
    if times[-1] != t_end:
        times.append(t_end)
        states.append(x)

    xs = np.array(states)
    traj = Trajectory(
        times=np.array(times),
        moments=xs[:, :8] + 1j * xs[:, 8:16],
        params=params,
        profile=profile,
        step=step,
    )
    if check_invariants:
        _check_physical(traj.moments, PHYSICALITY_TOL, traj.times)
    return traj
