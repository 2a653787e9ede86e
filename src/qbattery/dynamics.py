"""Gaussian dynamics of the driven, damped two-oscillator system.

In the real basis r = (Re a, Im a, Re b, Im b), with x = (a + a^dag)/2 and
p = (a - a^dag)/2i for each mode, the means mu and the normal-ordered
covariance Sigma = sigma - I/4, sigma_ij = <{dr_i, dr_j}>/2, obey

    dmu/dt = A mu + b(F),    dSigma/dt = A Sigma + Sigma A^T + D.

:func:`drift`, :func:`diffusion` and :func:`drive_column` are the one
definition of the model. A :class:`Trajectory` stores mu and Sigma, which energetics
reads; its moments, entries of R = Sigma + mu mu^T, e.g. <a^dag a> = R00 + R11, are
derived on first read. Symmetric 4x4 matrices are packed as their 10 upper-triangle entries.
Every drive is a sum of the harmonics {0, +-2i omega_env}, so within a leg of
:func:`sample_grid` the 17 entries [mu, cos 2 omega_env t, sin 2 omega_env t,
Sigma, 1] obey a constant linear system of generator G + W, where W rotates the
harmonics (the drive clock) and G holds the rest, and one step is a constant map.
Two engines run the same leg loop (:func:`_evolve`) and differ only in that map:

* :func:`propagate`, the engine of the CLI, is exact: the map is e^{(G + W)h}.
* :func:`integrate` is classical RK4 on (mu, Sigma), the clock advanced
  exactly by e^{W c h} to the stage times, kept as the cross-check of the step rule.

The loop steps a batch of k runs that share one grid (:func:`propagate_batch`; a lone run is the batch
of one). Each member is judged before the stack (:func:`_refusal`), a refused one being its lone run's
error, and nothing inside the stack raises: the leg maps of the accepted members form one (k, 17, 17)
stack, :func:`expm` gives each member its own squaring count, and numpy's ``@``, ``solve`` and
``matrix_power`` work one member at a time, so every member is bit for bit its lone run. One pass over
the batch's samples then judges each member alone (:func:`_verdicts`), a failing one being the error its
lone run raises. ``energetics.batch_columns`` reads a batch in one pass too. The CLI's ``simulate`` is a
batch of one, ``compare`` its three drives and ``sweep`` each stretch of consecutive points on one grid.

Every retained sample must be finite and bona fide: 2 sigma + i Omega/2 >= -tol I
in these units, where the vacuum has sigma = I/4 (Serafini, Quantum Continuous
Variables, 2017, ch. 3).
"""

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cd_control import drive_harmonics
from .errors import InvariantViolation, QBatteryError, SingularDenominator, StepTooLarge
from .model import DriveProfile, ModelParams

__all__ = [
    "MomentState", "Run", "Trajectory", "default_step", "integrate", "max_step", "propagate", "propagate_batch",
    "run_size",
]

#: most steps a run may take: sample_grid's step indices, up to n_steps + 1, are int64
MAX_STEPS = 2**63 - 2

#: samples one run may keep, in an engine (sample_grid) and in a CLI artifact, and one CLI batch in all. Artifacts
#: are written at 1.7e5-2.3e5 rows/s, 510 bytes a row, and a stride-1 run peaks at about 0.65 kB of memory a row; at this
#: budget a file takes about 5 s, 0.5 GB on disk and 0.7 GB of memory, where an unbounded grid would fail
#: mid-run on allocation
MAX_ROWS = 1_000_000

#: absolute tolerance on the smallest eigenvalue of 2 sigma + i Omega/2 (vacuum sigma = I/4)
PHYSICALITY_TOL = 1e-9
_SHIFT = 0.25 + 0.5 * PHYSICALITY_TOL  # Sigma + _SHIFT I = sigma + tol/2 I, the real part of _bona_fide's H

#: packed symmetric 4x4 matrix: entry k is (_ROW[k], _COL[k]) of the upper triangle. Packed
#: matrices and means are passed component first, one array of samples per entry.
_ROW, _COL = np.triu_indices(4)
_UNIT = np.zeros((10, 4, 4))  # the symmetric matrix of each packed entry
_UNIT[range(10), _ROW, _COL] = _UNIT[range(10), _COL, _ROW] = 1.0


def drift(g: float, gamma: float) -> np.ndarray:
    """Drift A of d<r>/dt = A <r>: d<a>/dt = -i g <b> - gamma/2 <a>, d<b>/dt = -i g <a>."""
    k = -0.5 * gamma
    return np.array([[k, 0.0, 0.0, g], [0.0, k, -g, 0.0], [0.0, g, 0.0, 0.0], [-g, 0.0, 0.0, 0.0]])


def diffusion(params: ModelParams) -> np.ndarray:
    """Packed D of dSigma/dt: the bath feeds gamma nbar/2 into each charger quadrature."""
    return 0.5 * params.gamma * params.nbar * np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0])


def drive_column(f) -> np.ndarray:
    """b(F), one row per field: d<a>/dt gains -i F, so Re <a> gains Im F and Im <a> gains -Re F.

    The dense oracle pins this sign down, also for a complex counterdiabatic field.
    """
    f = np.asarray(f, dtype=complex)
    b = np.zeros(f.shape + (4,))
    b[..., 0], b[..., 1] = f.imag, -f.real
    return b


def _lyapunov(a: np.ndarray) -> np.ndarray:
    """(10, 10) map of packed X to packed A X + X A^T."""
    au = a @ _UNIT  # U A^T = (A U)^T for each symmetric unit matrix U
    return (au + au.transpose(0, 2, 1))[:, _ROW, _COL].T


@np.errstate(invalid="ignore", over="ignore")  # a non-finite state fails the caller's check
def _gaussian(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, packed Sigma = R - mu mu^T) of the moments ``y`` (8 or (n, 8)); :func:`_raw_moments` is its inverse."""
    a, b, na, nb, c, a2, b2, ab = y.T
    na, nb = na.real, nb.real
    mu = np.array([a.real, a.imag, b.real, b.imag])
    r = 0.5 * np.array([na + a2.real, a2.imag, c.real + ab.real, ab.imag - c.imag, na - a2.real,
                        ab.imag + c.imag, c.real - ab.real, nb + b2.real, b2.imag, nb - b2.real])
    return mu, np.array([x - mu[i] * mu[j] for x, i, j in zip(r, _ROW, _COL)])


def _raw_moments(mu, sigma) -> np.ndarray:
    """(n, 8) complex moments of n samples of mu and packed Sigma, in real arithmetic: the one place R is formed."""
    out = np.empty((len(mu[0]), 8), dtype=complex)
    re, im = out.real, out.imag
    r00, r01, r02, r03, r11, r12, r13, r22, r23, r33 = (x + mu[i] * mu[j] for x, i, j in zip(sigma, _ROW, _COL))
    re[:, 0], im[:, 0], re[:, 1], im[:, 1] = mu
    re[:, 2], re[:, 3], im[:, 2:4] = r00 + r11, r22 + r33, 0.0
    re[:, 4], im[:, 4] = r02 + r13, r12 - r03
    re[:, 5], im[:, 5] = r00 - r11, 2.0 * r01
    re[:, 6], im[:, 6] = r22 - r33, 2.0 * r23
    re[:, 7], im[:, 7] = r02 - r13, r03 + r12
    return out


def _positive_2x2(s00, s01, s11, y=0.25) -> np.ndarray:
    """Samples where S + i y J, S = [[s00, s01], [s01, s11]], is positive definite; y = 1/4 for one mode's block."""
    return (s00 > 0.0) & (s00 * s11 - s01 * s01 > y * y)


def _bona_fide(sigma) -> np.ndarray:
    """Samples of packed Sigma where H = sigma + i Omega/4 + tol/2 I is positive definite, tol = PHYSICALITY_TOL.

    H is half of 2 sigma + i Omega/2 + tol I. With its charger block P, battery
    block T and real cross block Q, H > 0 iff P > 0 and the Schur complement
    T - Q^T P^-1 Q > 0. Each is a 2x2 block S + i y J, J = [[0, 1], [-1, 0]],
    which is positive definite iff S00 > 0 and det S > y^2; as Q^T J Q = det Q J,
    the complement is det P^-1 (det P T_re - Q^T adj(P_re) Q) + i (det P + det Q)/(4 det P) J.
    Elementwise, with no eigensolver.
    """
    s00, s01, u0, w0, s11, u1, w1, t00, t01, t11 = sigma
    s00, s11, t00, t11 = s00 + _SHIFT, s11 + _SHIFT, t00 + _SHIFT, t11 + _SHIFT
    det_p = s00 * s11 - s01 * s01 - 0.0625
    ku0, ku1 = s11 * u0 - s01 * u1, s00 * u1 - s01 * u0  # adj(P_re) times the columns u, w of Q
    kw0, kw1 = s11 * w0 - s01 * w1, s00 * w1 - s01 * w0
    x00 = det_p * t00 - (u0 * ku0 + u1 * ku1)
    x11 = det_p * t11 - (w0 * kw0 + w1 * kw1)
    x01 = det_p * t01 - (w0 * ku0 + w1 * ku1)
    y = 0.25 * (det_p + u0 * w1 - u1 * w0)
    return _positive_2x2(s00, s01, s11) & _positive_2x2(x00, x01, x11, y)


@np.errstate(invalid="ignore", over="ignore")  # non-finite rows fail the first check
def _physicality(m: np.ndarray, sigma, k: int = 1, times: np.ndarray | None = None) -> list:
    """One outcome per member of the rows of moments ``m`` and packed Sigma ``sigma`` (:func:`_verdicts`): None, or
    :class:`InvariantViolation` at its first row that is non-finite or not bona fide (:func:`_bona_fide`)."""
    checks = {
        "non-finite moment": ~np.isfinite(m.view(float)).all(axis=1),
        "covariance breaks the uncertainty principle": ~_bona_fide(sigma),
    }
    return _verdicts(checks, k, times, InvariantViolation,
                     lambda i: f"centered na={sigma[0][i] + sigma[4][i]}, nb={sigma[7][i] + sigma[9][i]}")


def _verdicts(checks: dict, k: int, times, error: type, detail) -> list:
    """One outcome per member of the boolean masks in ``checks``, each over k equal-length members one after
    another: None, or ``error`` at the member's first row that any mask flags.

    The message gives the first flagged reason for that row, prefixed with its index in the member and its time
    when ``times``, one member's, is given, and ends with ``detail(i)``, i the row's index in the masks.
    """
    bad = functools.reduce(np.logical_or, checks.values()).reshape(k, -1)
    out = [None] * k
    for j in np.flatnonzero(bad.any(axis=1)).tolist():
        row = int(bad[j].argmax())
        i = j * bad.shape[1] + row
        reason = next(msg for msg, mask in checks.items() if mask[i])
        where = "" if times is None else f"sample {row} at t={times[row]:.6g}: "
        out[j] = error(f"{where}{reason}: {detail(i)}")
    return out


def _unwrap(outcome):
    """``outcome``, one member's of a batch, unless it is an error, which is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
        a, b, na, nb, ab_dag, a_sq, b_sq, ab = y
        return cls(complex(a), complex(b), float(na.real), float(nb.real), complex(ab_dag),
                   complex(a_sq), complex(b_sq), complex(ab))

    def validate(self) -> None:
        """Raise :class:`InvariantViolation` if the state is non-finite or not bona fide beyond PHYSICALITY_TOL."""
        y = self.as_array()[None, :]
        _unwrap(*_physicality(y, _gaussian(y)[1]))


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
    sample times. :func:`run_size` judges the arguments first, so a grid it
    refuses raises its ValueError before any array exists.
    """
    run_size(step, t_end, tau, sample_stride)
    legs, done = [], 0
    for t_start, t_stop, window, n_steps in _leg_steps(step, t_end, tau):
        kept = np.arange(sample_stride - done % sample_stride, n_steps + 1, sample_stride)
        legs.append(Leg(t_start, t_stop, window, n_steps, (t_stop - t_start) / n_steps, kept))
        done += n_steps
    if legs and legs[-1].n_steps not in legs[-1].kept:
        legs[-1] = legs[-1]._replace(kept=np.append(legs[-1].kept, legs[-1].n_steps))
    return legs


def _leg_steps(step: float, t_end: float, tau: float):
    """(t_start, t_stop, window, n_steps) of each leg of :func:`sample_grid`; n_steps stops at MAX_STEPS + 1."""
    for t_start, t_stop, window in ((0.0, min(tau, t_end), 1.0), (tau, t_end, 0.0)):
        span = t_stop - t_start
        if span > 0:
            yield t_start, t_stop, window, max(1, math.ceil(min(span / step - 1e-12, MAX_STEPS + 1)))


def run_size(step: float, t_end: float, tau: float, sample_stride: int) -> tuple[int, int]:
    """(steps, samples) of :func:`sample_grid`'s grid, counted without building it: the one judge of a grid.

    The kept steps are the multiples of ``sample_stride`` and the final step; t = 0 adds one sample.
    Raises ValueError naming the argument for a step, t_end or stride no grid has, a run of more
    than MAX_STEPS steps in all, or one that keeps more than MAX_ROWS samples.
    """
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    if (steps := sum(n for *_, n in _leg_steps(step, t_end, tau))) > MAX_STEPS:
        raise ValueError(f"step = {step} takes more than {MAX_STEPS} steps to t_end = {t_end}")
    if (rows := 1 + -(-steps // sample_stride)) > MAX_ROWS:
        raise ValueError(f"sample_stride = {sample_stride} keeps {rows} samples, past {MAX_ROWS}")
    return steps, rows


def grid_times(legs: list[Leg]) -> np.ndarray:
    """Sample times of a :func:`sample_grid`: t = 0, then each leg's kept steps."""
    return np.concatenate([[0.0]] + [leg.time(leg.kept) for leg in legs])


def max_step(params: ModelParams, profile: DriveProfile) -> float:
    """Largest RK4 step :func:`integrate` allows: 0.05 over the fastest rate its equations read (not omega0)."""
    rate = max(profile.omega_env, params.g, params.gamma)
    return 0.05 / rate if rate > 0.0 else math.inf


def default_step(params: ModelParams, profile: DriveProfile) -> float:
    """Integrator step used when a run does not set one."""
    return min(0.01, 0.5 * max_step(params, profile))


@dataclass
class Trajectory:
    """Sampled Gaussian state of one run; immutable once produced.

    ``mu`` (4, n) and ``sigma`` (10, n) are the means and the packed Sigma of
    the retained samples, component first, as the engine computed them; row 0
    is the initial state. ``moments`` is derived from them on first read; the engines fill it
    from the one pass their check makes over a batch.
    """

    times: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    params: ModelParams

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """(n, 8) raw moments, one row per sample: (a_mean, b_mean, na, nb, ab_dag, a_sq, b_sq, ab)."""
        return _raw_moments(self.mu, self.sigma)

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, i: int) -> MomentState:
        return MomentState.from_array(self.moments[i])


#: coefficients c_k of the [6/6] Pade approximant to exp, sum c_k x^k / sum c_k (-x)^k
_PADE6 = (1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result fails the caller's check
def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or a stack (..., n, n) by scaling and squaring with the [6/6] Pade approximant.

    Each matrix is scaled by its own 2^-s to infinity norm at most 1/2, where the
    approximant's relative backward error is below 3.4e-16 (Golub & Van Loan,
    Matrix Computations, alg. 11.3.1), and the result is squared s times. numpy's
    ``@`` and ``solve`` work one matrix of a stack at a time, so each member gets
    the bits it gets alone. No eigendecomposition is taken, so defective
    matrices need no special case. The scale 2^-s is exact down to 2^-1025, so no
    norm overflows it and nothing raises: a matrix holding inf or nan, or one whose
    exponential is past the largest double, gives a non-finite result.
    """
    norms = np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    s = np.where(norms > 0.5, np.frexp(norms)[1] + 1, 0)
    x = a * np.ldexp(1.0, -s)[..., None, None]  # not a / 2.0**s, which overflows past s = 1023
    eye = np.eye(a.shape[-1], dtype=x.dtype)
    c = _PADE6
    x2 = x @ x
    x4 = x2 @ x2
    odd = x @ (c[1] * eye + c[3] * x2 + c[5] * x4)
    even = c[0] * eye + c[2] * x2 + c[4] * x4 + c[6] * (x4 @ x2)
    e = np.linalg.solve(even - odd, even + odd)
    for k in range(s.max()):
        more = s > k  # the members still squaring
        e[more] = e[more] @ e[more]
    return e


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m v for each member: maps (..., 17, 17) on states (..., 17), one matrix-vector product each."""
    return (m @ v[..., None])[..., 0]


def _orbit(m: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of ``out`` (..., count, 17) with m^i times row 0, doubling in O(log count) products."""
    count, done, power = out.shape[-2], 1, m  # power = m^done
    while done < count:
        take = min(done, count - done)
        if take == 1 < done:  # one row takes gemv, which rounds unlike the gemm rows of a longer block
            out[..., done, :] = (out[..., :2, :] @ power.swapaxes(-1, -2))[..., 0, :]
        else:
            np.matmul(out[..., :take, :], power.swapaxes(-1, -2), out=out[..., done:done + take, :])
        done += take
        if done < count:
            power = power @ power


def _leg_states(e: np.ndarray, v: np.ndarray, leg: Leg, stride: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (..., kept, 17) with each member's states e^j v at the kept steps j; return the leg-end states."""
    j = leg.kept
    if j.size == 0:
        return _apply(np.linalg.matrix_power(e, leg.n_steps), v)
    # kept steps run j[0], j[0] + stride, ...; only the pinned final step, j = n_steps, may break the pattern
    regular = int(np.count_nonzero((j - j[0]) % stride == 0))
    power = np.linalg.matrix_power(e, stride)
    out[..., 0, :] = _apply(power if j[0] == stride else np.linalg.matrix_power(e, int(j[0])), v)
    _orbit(power, out[..., :regular, :])
    end = _apply(np.linalg.matrix_power(e, leg.n_steps - int(j[regular - 1])), out[..., regular - 1, :])
    if regular < j.size:
        out[..., regular, :] = end
    return end


def _exact_generator(g: float, params: ModelParams, profile: DriveProfile) -> tuple[np.ndarray, np.ndarray]:
    """17x17 generator G + W of v = [mu, cos 2wt, sin 2wt, Sigma, 1] within one leg, w = omega_env, as (G, W).

    F = c0 + c+ e^{2iwt} + c- e^{-2iwt} = c0 + (c+ + c-) cos 2wt + i (c+ - c-) sin 2wt, so b(F) is a fixed
    combination of the harmonics and the constant entry. W, the drive clock, rotates the harmonics at 2w; G is the rest.
    """
    a = drift(g, params.gamma)
    c0, cp, cm = drive_harmonics(profile, params.delta_r, params.gamma)
    w2 = 2.0 * profile.omega_env
    gen, clock = np.zeros((17, 17)), np.full((17, 17), -0.0)  # x + -0.0 is x, so G + W keeps G's signed zeros
    gen[:4, :4] = a
    gen[:4, [16, 4, 5]] = drive_column([c0, cp + cm, 1j * (cp - cm)]).T
    gen[6:16, 6:16] = _lyapunov(a)
    gen[6:16, 16] = diffusion(params)
    clock[4, 5], clock[5, 4] = -w2, w2
    return gen, clock


def _rk4_map(gen: np.ndarray, clock: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dv/dt = (G + W) v, the drive taken exactly at t, t + h/2 and t + h.

    G is ``gen`` and W is ``clock``; U_c = e^{W c h} advances the clock exactly, U_1 = U_1/2 U_1/2. The step is
    P = U_1 + h/6 (G + 2 K2 + 2 K3 + K4) with K2 = G U_1/2 (I + h/2 G),
    K3 = G U_1/2 (I + h/2 K2) and K4 = G U_1 (I + h K3): classical RK4 on
    (mu, Sigma), as G's harmonic rows, and so the K rows, are zero.
    """
    half = expm((0.5 * h) * clock)
    full = half @ half
    eye = np.eye(gen.shape[-1])
    g_half = gen @ half
    k2 = g_half @ (eye + (0.5 * h) * gen)
    k3 = g_half @ (eye + (0.5 * h) * k2)
    k4 = (gen @ full) @ (eye + h * k3)
    return full + (h / 6.0) * (gen + 2.0 * k2 + 2.0 * k3 + k4)


def _exact_map(gen: np.ndarray, clock: np.ndarray, h: float) -> np.ndarray:
    """The exact step map e^{(G + W) h} of :func:`propagate`."""
    return expm((gen + clock) * h)


def _start(initial: MomentState) -> np.ndarray:
    """The state v = [mu, cos 2wt, sin 2wt, Sigma, 1] of ``initial`` at t = 0, where cos = 1 and sin = 0."""
    mu, sigma = _gaussian(initial.as_array())
    return np.concatenate([mu, [1.0, 0.0], sigma, [1.0]])


_VACUUM = _start(MomentState())  # the start of every run that injects no state


class Run(NamedTuple):
    """One member of a batch (:func:`propagate_batch`), judged before the stack: what a run takes besides its grid."""

    params: ModelParams
    profile: DriveProfile
    initial: MomentState | None = None


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result fails _physicality
def _evolve(leg_map, runs: list[Run], legs: list[Leg], sample_stride: int) -> list:
    """Checked trajectories of ``runs`` on their shared :func:`sample_grid` ``legs``, each leg stepped by
    ``leg_map(G, W, h)`` on the (k, 17, 17) stack of the members' generators; a member that fails its check
    is its InvariantViolation.

    The state is v = [mu, cos 2wt, sin 2wt, Sigma, 1]; powers of the leg's maps fill one (k, samples, 17) block
    with the kept samples, whose mu and Sigma are sliced from it, row 0 the initial state's.
    """
    times = grid_times(legs)
    vs = np.empty((len(runs), len(times), 17))
    for row, run in zip(vs, runs):
        row[0] = _VACUUM if run.initial is None else _start(run.initial)
    # a lone run steps without the batch axis: numpy's 2-D calls cost less, and give the same bits
    block, stack = (vs[0], operator.itemgetter(0)) if len(runs) == 1 else (vs, np.array)
    v, done = block[..., 0, :], 1
    for leg in legs:
        gens, clocks = zip(*(_exact_generator(run.params.g * leg.window, run.params, run.profile) for run in runs))
        e = leg_map(stack(gens), stack(clocks), leg.h)
        v = _leg_states(e, v, leg, sample_stride, block[..., done:done + leg.kept.size, :])
        done += leg.kept.size

    flat = vs.reshape(-1, 17).T
    moments = _raw_moments(flat[:4], flat[6:16])  # every member's samples in one pass, as each would alone
    out = []
    for i, (run, failure) in enumerate(zip(runs, _physicality(moments, flat[6:16], len(runs), times))):
        traj = Trajectory(times=times, mu=vs[i].T[:4], sigma=vs[i].T[6:16], params=run.params)
        traj.__dict__["moments"] = moments[i * len(times):(i + 1) * len(times)]  # the cached_property's value
        out.append(failure or traj)
    return out


def _refusal(run: Run, legs: list[Leg], step: float, rk4: bool) -> QBatteryError | None:
    """The error a lone run of ``run`` raises before it steps, else None: a ``step`` past the run's
    :func:`max_step` if ``rk4``, then a drive :func:`drive_harmonics` refuses, once ``legs`` has a leg to drive."""
    if rk4 and step > (cap := max_step(run.params, run.profile)) * (1.0 + 1e-12):
        return StepTooLarge(f"step {step} exceeds cap {cap:.6g} for these parameters")
    if legs:
        try:
            drive_harmonics(run.profile, run.params.delta_r, run.params.gamma)
        except SingularDenominator as exc:
            return exc
    return None


def _batch(runs: list[Run], step: float, t_end: float, sample_stride: int, rk4: bool = False) -> list:
    """One outcome per run, in order: :func:`integrate`'s if ``rk4``, else :func:`propagate`'s.

    The members share one :func:`sample_grid`, so one tau, the leg boundary; a grid no run has raises its
    ValueError. Every member is judged first (:func:`_refusal`); the accepted ones are stepped as one stack,
    once, and a refused one is its error.
    """
    taus = {run.params.tau for run in runs}
    if len(taus) != 1:
        raise ValueError(f"a batch shares one grid, so one tau; got {sorted(taus)}")
    legs = sample_grid(step, t_end, taus.pop(), sample_stride)
    refused = [_refusal(run, legs, step, rk4) for run in runs]
    accepted = [run for run, no in zip(runs, refused) if no is None]
    done = iter(_evolve(_rk4_map if rk4 else _exact_map, accepted, legs, sample_stride) if accepted else ())
    return [no or next(done) for no in refused]


def propagate_batch(runs: list[Run], step: float, t_end: float, sample_stride: int = 1) -> list:
    """:func:`propagate` of each of ``runs``, which share one grid (one tau), as one stacked batch.

    Returns one outcome per run, in order: its Trajectory, bit for bit that of a lone :func:`propagate`, or the
    error the lone run raises. Members are judged before the stack, so a drive :func:`drive_harmonics` refuses
    takes no part in it; nothing inside the stack raises, and a member whose numbers overflow is its
    InvariantViolation. The batch's arrays grow with its samples in all, so a caller that bounds memory bounds those.
    """
    return _batch(runs, step, t_end, sample_stride)


def integrate(
    params: ModelParams,
    profile: DriveProfile,
    step: float,
    t_end: float,
    sample_stride: int = 1,
    initial: MomentState | None = None,
) -> Trajectory:
    """Fixed-step classical fourth-order Runge-Kutta integration of the moment equations.

    Runs :func:`propagate`'s state and legs with one RK4 step map per leg
    (:func:`_rk4_map`) in place of the exact one: a batch of one, judged
    before it steps (:func:`_refusal`). Starts from the vacuum (all moments zero)
    unless ``initial`` is supplied, which is meant for validation runs that
    inject a prepared state. Every ``sample_stride``-th step is retained,
    plus the final one.

    Raises
    ------
    StepTooLarge
        If ``step`` exceeds :func:`max_step`, 0.05/max(omega_env, g, gamma).
    InvariantViolation
        If a retained sample is non-finite or not bona fide beyond tolerance
        (named with its index and time), which signals integrator
        misconfiguration rather than physics.
    """
    return _unwrap(*_batch([Run(params, profile, initial)], step, t_end, sample_stride, rk4=True))


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
    exponentiated once over one step h. Sample times and the checks on the
    result are those of :func:`integrate`; being exact, it has no step cap.
    A batch of one, judged before it steps (:func:`_refusal`).

    Raises
    ------
    InvariantViolation
        As :func:`integrate`.
    """
    return _unwrap(*_batch([Run(params, profile, initial)], step, t_end, sample_stride))
