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
column). Two engines solve them on one sample grid (:func:`sample_grid`):

* :func:`propagate`, the engine of the CLI, is exact. Within a leg every
  drive is a sum of the harmonics {0, +-2i omega_env}, so the means plus those
  harmonics form a constant-coefficient system, and the centered second
  moments, which the drive never enters, form another. One matrix
  exponential per leg carries both to every retained sample.
* :func:`integrate` is classical RK4, kept as the independent cross-check. A
  step is the affine map P = I + h/6 (A1 + 2 K2 + 2 K3 + K4), K2 = A2 (I +
  h/2 A1), K3 = A2 (I + h/2 K2), K4 = A4 (I + h K3), with A1, A2, A4 taken at
  t, t + h/2, t + h; the maps of a block of steps are built with array
  operations, then applied step by step.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cd_control import drive_field, drive_harmonics
from .errors import InvariantViolation, StepTooLarge
from .model import DriveKind, DriveProfile, ModelParams

__all__ = [
    "MomentState",
    "Trajectory",
    "default_step",
    "integrate",
    "max_step",
    "moment_rhs",
    "propagate",
]

#: absolute tolerance for physicality checks on stored samples
PHYSICALITY_TOL = 1e-9

#: RK4 steps whose maps are built together. It bounds the (block, 17, 17) work
#: arrays: at 64 each passes 128 KiB and map building slows by about half.
BLOCK_STEPS = 32

# layout of the internal state vector
_A, _B, _NA, _NB, _ABD, _A2, _B2, _AB = range(8)
_DIM = 17  # real state [Re y, Im y, 1]


@np.errstate(invalid="ignore", over="ignore")  # rows with inf or nan fail the first check
def _check_physical(m: np.ndarray, tol: float, times: np.ndarray | None = None) -> None:
    """Raise :class:`InvariantViolation` at the first non-finite or unphysical row of ``m``.

    The message names the row's sample index and time when ``times`` is given.
    """
    na, nb = m[:, _NA].real, m[:, _NB].real
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
    bad = np.flatnonzero(functools.reduce(np.logical_or, checks.values()))
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


def _rhs(y: np.ndarray, s, g: float, f, params: ModelParams) -> np.ndarray:
    """Moment derivatives of the rows ``y[..., :8]``, with the sources scaled by ``s``.

    ``f`` is a complex field, or an array of fields that broadcasts against the rows.

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


def _rhs_maps(g: float, params: ModelParams) -> np.ndarray:
    """Flattened rows (A_g, A_re, A_im) of dx/dt = (A_g + Re f A_re + Im f A_im) x.

    Column k of the map A at a constant field f is :func:`_rhs` at the k-th
    unit vector of x; the maps at f = 0, 1 and i come from one call. No term
    of :func:`_rhs` mixes f and f-free parts, so the differences are exact.
    """
    unit = np.eye(_DIM)
    y = np.broadcast_to(unit[:, :8] + 1j * unit[:, 8:16], (3, _DIM, 8))
    dy = _rhs(y, unit[:, 16], g, np.array([0.0, 1.0, 1j])[:, None], params)
    maps = np.zeros((3, _DIM, _DIM))
    maps[:, :8] = dy.real.transpose(0, 2, 1)
    maps[:, 8:16] = dy.imag.transpose(0, 2, 1)
    maps[1:] -= maps[0]
    return maps.reshape(3, -1)


@functools.cache
def _unit_maps(signs: tuple) -> np.ndarray:
    """Read-only :func:`_rhs_maps` at g, gamma, nbar in {+-0, +-1}, each given as (x != 0, copysign(1, x))."""
    g, gamma, nbar = (math.copysign(float(nonzero), sign) for nonzero, sign in signs)
    maps = _rhs_maps(g, ModelParams(omega0=1.0, g=0.0, gamma=gamma, nbar=nbar, delta_r=0.0, tau=1.0))
    maps.flags.writeable = False
    return maps


@functools.cache
def _monomial_index() -> np.ndarray:
    """Per map entry, the index in (g, gamma, gamma nbar, 1) of the one product it is linear in."""
    on = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 1))  # which of g, gamma, nbar are 1 rather than 0
    base, g, gamma, nbar = (_unit_maps(tuple((x, 1.0) for x in xs)) for xs in on)
    return np.select([g != base, gamma != base, nbar != gamma], [0, 1, 2], 3)


def _generator(g: float, params: ModelParams) -> np.ndarray:
    """:func:`_rhs_maps` bit for bit, as the unit maps of the parameters' signs scaled entry by entry.

    Each entry is a power of two times one of g, gamma, gamma nbar or 1, and
    the sign of each zero follows from the parameters' signs and zeros alone.
    Exceptions: an infinite gamma nbar, and gamma = 5e-324, where 0.5 gamma
    rounds to a zero of its own sign.
    """
    signs = tuple((x != 0.0, math.copysign(1.0, x)) for x in (g, params.gamma, params.nbar))
    scale = np.array([abs(g), abs(params.gamma), abs(params.gamma * params.nbar), 1.0])
    return _unit_maps(signs) * scale[_monomial_index()]


def moment_rhs(
    t: float, state: MomentState, params: ModelParams, profile: DriveProfile
) -> MomentState:
    """Time derivative of every moment at time ``t``.

    The exchange coupling is on for t in [0, tau] only; the drive field is
    the (possibly counterdiabatically corrected) amplitude for ``profile``.
    """
    g = params.g if 0.0 <= t <= params.tau else 0.0
    f = complex(drive_field(t, profile, params.delta_r, params.gamma))
    return MomentState.from_array(_rhs(state.as_array(), 1.0, g, f, params))


class Leg(NamedTuple):
    """One leg of the fixed-step grid and the steps into it whose states are kept."""

    t_start: float
    t_stop: float
    window: float
    n_steps: int
    h: float
    kept: np.ndarray  # step counts j in 1..n_steps, increasing

    def time(self, j):
        """Time after ``j`` steps; the leg end is pinned, as accumulated j*h rounds off."""
        return np.where(j == self.n_steps, self.t_stop, self.t_start + j * self.h)


def sample_grid(step: float, t_end: float, tau: float, sample_stride: int) -> list[Leg]:
    """The time grid every engine runs on, leg by leg.

    [0, t_end] is split at the coupling switch-off tau into the legs [0, tau]
    (window 1) and [tau, t_end] (window 0); stepping each separately keeps
    the integrators at full order, where a stage straddling the window jump
    would degrade physicality at the invariant-tolerance level. Each leg
    takes ceil(span/step) equal steps of h = span/n_steps. Every
    ``sample_stride``-th step of the whole run is kept, counting on across
    the leg boundary, and so is the final step; with t = 0 these are the
    sample times.
    """
    legs, done = [], 0
    for t_start, t_stop, window in ((0.0, min(tau, t_end), 1.0), (tau, t_end, 0.0)):
        span = t_stop - t_start
        if span <= 0:
            continue
        n_steps = max(1, math.ceil(span / step - 1e-12))
        kept = np.arange(sample_stride - done % sample_stride, n_steps + 1, sample_stride)
        legs.append(Leg(t_start, t_stop, window, n_steps, span / n_steps, kept))
        done += n_steps
    if legs and legs[-1].n_steps not in legs[-1].kept:
        legs[-1] = legs[-1]._replace(kept=np.append(legs[-1].kept, legs[-1].n_steps))
    return legs


def grid_times(legs: list[Leg]) -> np.ndarray:
    """Sample times of a :func:`sample_grid`: t = 0, then each leg's kept steps."""
    return np.concatenate([[0.0]] + [leg.time(leg.kept) for leg in legs])


def max_step(params: ModelParams, profile: DriveProfile) -> float:
    """Largest RK4 step the accuracy precondition of :func:`integrate` allows."""
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


def check_run(step: float, t_end: float, sample_stride: int):
    """Reject a grid :func:`sample_grid` cannot build, naming the argument."""
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")


def _trajectory(times, moments, params, profile, step) -> Trajectory:
    _check_physical(moments, PHYSICALITY_TOL, times)
    return Trajectory(times=times, moments=moments, params=params, profile=profile, step=step)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result fails _check_physical
def integrate(
    params: ModelParams,
    profile: DriveProfile,
    step: float,
    t_end: float,
    sample_stride: int = 1,
    initial: MomentState | None = None,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta integration of the moment equations.

    Runs on :func:`sample_grid`, applying each step as an affine map. Starts
    from the vacuum (all moments zero) unless ``initial`` is supplied, which
    is meant for validation runs that inject a prepared state. Every
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
    check_run(step, t_end, sample_stride)
    cap = max_step(params, profile)
    if step > cap * (1.0 + 1e-12):
        raise StepTooLarge(f"step {step} exceeds cap {cap:.6g} for these parameters")
    legs = sample_grid(step, t_end, params.tau, sample_stride)
    y0 = (initial or MomentState()).as_array()
    x = np.concatenate([y0.real, y0.imag, [1.0]])
    eye = np.eye(_DIM)
    states = [x]
    for leg in legs:
        h = leg.h
        keep = np.zeros(leg.n_steps + 1, dtype=bool)
        keep[leg.kept] = True
        gen = _generator(params.g * leg.window, params)
        for k0 in range(0, leg.n_steps, BLOCK_STEPS):
            t = leg.t_start + np.arange(k0, min(k0 + BLOCK_STEPS, leg.n_steps)) * h
            f = drive_field(np.stack([t, t + 0.5 * h, t + h]), profile, params.delta_r, params.gamma)
            coef = np.stack([np.ones(f.shape), f.real, f.imag], axis=-1)
            a1, a2, a4 = (coef @ gen).reshape(3, len(t), _DIM, _DIM)
            k2 = a2 @ (eye + (0.5 * h) * a1)
            k3 = a2 @ (eye + (0.5 * h) * k2)
            k4 = a4 @ (eye + h * k3)
            maps = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
            for k, p in enumerate(maps, start=k0 + 1):
                x = p @ x
                if keep[k]:
                    states.append(x)

    xs = np.array(states)
    moments = xs[:, :8] + 1j * xs[:, 8:16]
    return _trajectory(grid_times(legs), moments, params, profile, step)


#: coefficients c_k of the [6/6] Pade approximant to exp, sum c_k x^k / sum c_k (-x)^k
_PADE6 = (1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [6/6] Pade approximant.

    ``a`` is scaled by 2^-s to infinity norm at most 1/2, where the
    approximant's relative backward error is below 3.4e-16 (Golub & Van Loan,
    Matrix Computations, alg. 11.3.1), and the result is squared s times. No
    eigendecomposition is taken, so defective matrices need no special case.
    """
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    s = max(0, math.frexp(norm)[1] + 1) if norm > 0.5 else 0
    x = a / 2.0**s
    eye = np.eye(len(a), dtype=x.dtype)
    c = _PADE6
    x2 = x @ x
    x4 = x2 @ x2
    odd = x @ (c[1] * eye + c[3] * x2 + c[5] * x4)
    even = c[0] * eye + c[2] * x2 + c[4] * x4 + c[6] * (x4 @ x2)
    e = np.linalg.solve(even - odd, even + odd)
    for _ in range(s):
        e = e @ e
    return e


def _orbit(m: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """Rows v, m v, .., m^(count-1) v, built by doubling in O(log count) products."""
    out, power = v[None], m
    while len(out) < count:
        out = np.concatenate([out, out @ power.T])  # power = m^len(out)
        if len(out) < count:
            power = power @ power
    return out[:count]


def _leg_states(e: np.ndarray, v: np.ndarray, leg: Leg, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """(states e^j v at the kept steps j, state at the leg end) for one leg's step map ``e``."""
    j = leg.kept
    if j.size == 0:
        return np.empty((0, len(v)), dtype=v.dtype), np.linalg.matrix_power(e, leg.n_steps) @ v
    # kept steps run j[0], j[0] + stride, ...; only the pinned final step may break the pattern
    regular = int(np.count_nonzero((j - j[0]) % stride == 0))
    power = np.linalg.matrix_power(e, stride)
    first = (power if j[0] == stride else np.linalg.matrix_power(e, int(j[0]))) @ v
    states = _orbit(power, first, regular)
    last = states[-1]
    if regular < j.size:
        last = np.linalg.matrix_power(e, int(j[-1] - j[regular - 1])) @ last
        states = np.vstack([states, last])
    return states, np.linalg.matrix_power(e, leg.n_steps - int(j[-1])) @ last


def _mean_part(a, b) -> np.ndarray:
    """Moments of the coherent state with means ``a``, ``b``: raw minus centered moments."""
    na, nb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    return np.stack([a, b, na, nb, a * b.conj(), a * a, b * b, a * b], axis=-1)


# Re <a>, Re <b>, Im <a>, Im <b>: their block in x; in v, their rows with the columns
# of the means and of the real and imaginary parts of the harmonics
_X_MEANS = np.ix_([_A, _B, 8 + _A, 8 + _B], [_A, _B, 8 + _A, 8 + _B])
_V_MEANS, _V_RE_HARMONICS, _V_IM_HARMONICS = (
    np.ix_([0, 1, 5, 6], cols) for cols in ([0, 1, 5, 6], [2, 3, 4], [7, 8, 9])
)


def _exact_generator(g: float, params: ModelParams, profile: DriveProfile) -> np.ndarray:
    """27x27 real generator of v = [Re z, Im z, x_c] within one leg.

    z = [<a>, <b>, 1, e^{2iwt}, e^{-2iwt}] carries the means, driven by the
    harmonics of F; x_c is the real state of the centered second moments,
    which obey the undriven equations with the n_bar source. Every coupling
    is read off :func:`_generator`, so :func:`_rhs` stays the one definition
    of the equations. Real arithmetic throughout keeps to the BLAS and LAPACK
    routines the rest of the package already loads.
    """
    a_g, a_re, a_im = _generator(g, params).reshape(3, _DIM, _DIM)
    # F = sum_k c_k h_k over the harmonics h = [1, e^{2iwt}, e^{-2iwt}]
    c = np.array(drive_harmonics(profile, params.delta_r, params.gamma))
    r_re, r_im = a_re[_X_MEANS[0], -1], a_im[_X_MEANS[0], -1]  # responses to Re F = 1 and to Im F = 1
    w2 = 2.0 * profile.omega_env
    out = np.zeros((10 + _DIM, 10 + _DIM))
    out[_V_MEANS] = a_g[_X_MEANS]
    out[_V_RE_HARMONICS] = r_re * c.real + r_im * c.imag
    out[_V_IM_HARMONICS] = r_im * c.real - r_re * c.imag
    out[3, 8], out[8, 3] = -w2, w2  # d/dt e^{2iwt} = 2iw e^{2iwt}
    out[4, 9], out[9, 4] = w2, -w2
    out[10:, 10:] = a_g
    return out


@np.errstate(over="ignore", invalid="ignore")  # as integrate
def propagate(
    params: ModelParams,
    profile: DriveProfile,
    step: float,
    t_end: float,
    sample_stride: int = 1,
    initial: MomentState | None = None,
) -> Trajectory:
    """Exact solution of the moment equations on the grid of :func:`integrate`.

    Takes no RK4 steps: each leg's generator (:func:`_exact_generator`) is
    exponentiated once over one step h, and the retained samples are reached
    through powers of that map. Means and centered second moments are
    propagated; the raw moments are rebuilt per sample, e.g. <a^dag a> =
    n_c + |<a>|^2. Sample times and the checks on the result are those of
    :func:`integrate`; being exact, it has no step cap.

    Raises
    ------
    InvariantViolation
        As :func:`integrate`.
    """
    check_run(step, t_end, sample_stride)
    legs = sample_grid(step, t_end, params.tau, sample_stride)
    y0 = (initial or MomentState()).as_array()
    yc = y0 if initial is None else y0 - _mean_part(y0[_A], y0[_B])  # the vacuum's mean part is +0
    z = np.array([y0[_A], y0[_B], 1.0, 1.0, 1.0])  # the harmonics are 1 at t = 0
    v = np.concatenate([z.real, z.imag, yc.real, yc.imag, [1.0]])
    blocks = []
    for leg in legs:
        e = expm(_exact_generator(params.g * leg.window, params, profile) * leg.h)
        states, v = _leg_states(e, v, leg, sample_stride)
        blocks.append(states)

    vs = np.concatenate(blocks) if blocks else np.empty((0, 10 + _DIM))
    a, b, xc = vs[:, 0] + 1j * vs[:, 5], vs[:, 1] + 1j * vs[:, 6], vs[:, 10:]
    # the mean entries of x_c stay zero
    moments = np.vstack([y0, xc[:, :8] + 1j * xc[:, 8:16] + _mean_part(a, b)])
    return _trajectory(grid_times(legs), moments, params, profile, step)
