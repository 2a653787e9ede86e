"""Brute-force validator: full density-matrix propagation in truncated Fock space.

Everything here is a cross-check path, never a performance path. The joint
density matrix of charger and battery is stored dense, as a (D, D) matrix
over the row-major joint index r = m n_b + n (D = n_a n_b), and propagated
with the same fixed-step fourth-order scheme, on the same sample grid, as the
moment RK4 integrator. Mode operators carry the standard sqrt(n) matrix
elements with a hard cutoff; note the truncated product a a^dag has 0 (not N)
in its top diagonal entry, which the dissipator terms must respect to stay
consistent with truncated-operator algebra.
"""

from dataclasses import dataclass

import numpy as np

from .cd_control import drive_field
from .dynamics import MomentState, grid_times, sample_grid
from .errors import InvariantViolation, TruncationLeak
from .model import DriveProfile, ModelParams

__all__ = ["DenseState", "DenseTrajectory", "dense_evolve", "extract_moments", "mode_operators"]

LEAK_TOL = 1e-6
TRACE_TOL = 1e-8


@dataclass(frozen=True)
class DenseState:
    """Joint truncated-Fock density matrix with its cutoffs."""

    rho: np.ndarray  # shape (n_a * n_b, n_a * n_b), row-major over (m, n)
    n_a: int
    n_b: int

    def tensor(self) -> np.ndarray:
        return self.rho.reshape(self.n_a, self.n_b, self.n_a, self.n_b)

    def reduced_battery(self) -> np.ndarray:
        """Partial trace over the charger, shape (n_b, n_b)."""
        return np.einsum("mnml->nl", self.tensor())


@dataclass
class DenseTrajectory:
    times: np.ndarray
    states: list
    max_leak: float  # largest top-two-level population of either mode, over every step
    max_trace_drift: float  # largest |trace - 1| over every step

    def __len__(self) -> int:
        return len(self.times)


def mode_operators(n_a: int, n_b: int) -> dict:
    """Dense annihilation/number operators on the joint truncated space."""
    low_a = np.diag(np.sqrt(np.arange(1, n_a)), 1)
    low_b = np.diag(np.sqrt(np.arange(1, n_b)), 1)
    a = np.kron(low_a, np.eye(n_b))
    b = np.kron(np.eye(n_a), low_b)
    return {"a": a, "b": b, "ad": a.conj().T, "bd": b.conj().T}


class _LindbladAction:
    """Right-hand side of the truncated master equation on the (D, D) matrix rho.

    The dissipator's anticommutator folds into H_eff = H - iK with K diagonal,
    so the action is h + h^dag plus the two jump terms, where h = -i H_eff rho.
    K and the drive act on the charger index alone, one (n_a, n_a) product on
    the (n_a, n_b D) view of rho. The coupling shifts rows by n_b - 1, and
    a rho a^dag and a^dag rho a shift the flattened rho by n_b (D + 1); each
    is one weighted pass into a preallocated buffer. The result matches
    truncated-matrix algebra to rounding.
    """

    def __init__(self, n_a: int, n_b: int, gamma: float, nbar: float):
        d = n_a * n_b
        level = np.arange(n_a, dtype=float)
        aad = level + 1.0
        aad[-1] = 0.0  # hard cutoff: top diagonal of truncated a a^dag vanishes
        self._k = np.diag(-0.5 * gamma * ((nbar + 1.0) * level + nbar * aad)) + 0j  # -K
        self._up = np.diag(np.sqrt(level[1:]), -1)  # charger a^dag
        m, n = np.divmod(np.arange(d), n_b)  # charger and battery level of each row
        # a b^dag into row r from r + n_b - 1, and a^dag b back, share these elements
        self._w_g = np.sqrt((m + 1.0) * n)[: 1 - n_b]
        self._shape, self._s, self._shift = (n_a, n_b * d), n_b - 1, n_b * (d + 1)
        root = np.sqrt(np.outer(m, m)).ravel()[self._shift:] + 0j
        self._jumps = [(gamma * rate) * root for rate in (nbar + 1.0, nbar) if gamma * rate]
        self._h, self._tmp = np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)

    def __call__(self, rho: np.ndarray, g: float, f: complex, out: np.ndarray) -> None:
        """Write the action on Hermitian, C-contiguous ``rho`` into ``out``."""
        h, tmp, s, j = self._h, self._tmp, self._s, self._shift
        m_a = self._k - 1j * (f * self._up + f.conjugate() * self._up.T)
        np.matmul(m_a, rho.reshape(self._shape), out=h.reshape(self._shape))
        if g:
            w = (-1j * g * self._w_g)[:, None]
            for dst, src in ((slice(None, -s), slice(s, None)), (slice(s, None), slice(None, -s))):
                np.multiply(w, rho[src], out=tmp[src])
                h[dst] += tmp[src]
        # rho stays Hermitian through every stage, so h^dag = i rho H_eff^dag
        np.conjugate(h.T, out=out)
        out += h
        flat, rho_flat, part = out.reshape(-1), rho.reshape(-1), tmp.reshape(-1)[:-j]
        for w, dst, src in zip(self._jumps, (slice(None, -j), slice(j, None)), (slice(j, None), slice(None, -j))):
            np.multiply(w, rho_flat[src], out=part)
            flat[dst] += part


def dense_evolve(
    params: ModelParams,
    profile: DriveProfile,
    cutoffs: tuple[int, int] = (14, 14),
    step: float = 0.01,
    t_end: float = 10.0,
    sample_stride: int = 10,
) -> DenseTrajectory:
    """Propagate the joint density matrix from the two-mode vacuum.

    The returned trajectory records the largest top-two-level population of
    either mode (``max_leak``) and the largest trace drift (``max_trace_drift``)
    the guard saw after any step.

    Raises
    ------
    TruncationLeak
        If the top two Fock levels of either mode ever hold more than 1e-6
        population (results would silently depend on the cutoff).
    InvariantViolation
        If the trace drifts beyond 1e-8, which signals too large a step.
    """
    n_a, n_b = cutoffs
    if n_a < 4 or n_b < 4:
        raise ValueError(f"cutoffs must be >= 4, got {cutoffs}")
    if step <= 0 or t_end < 0:
        raise ValueError("step must be > 0 and t_end >= 0")

    action = _LindbladAction(n_a, n_b, params.gamma, params.nbar)
    rho = np.zeros((n_a * n_b, n_a * n_b), dtype=complex)
    rho[0, 0] = 1.0
    stage, k, acc = np.empty_like(rho), np.empty_like(rho), np.empty_like(rho)
    worst = [0.0, 0.0]  # largest leak and trace drift seen

    def guard(t: float) -> None:
        pops = rho.diagonal().real.reshape(n_a, n_b)
        leak_a, leak_b = pops[-2:, :].sum(), pops[:, -2:].sum()
        if leak_a > LEAK_TOL or leak_b > LEAK_TOL:
            raise TruncationLeak(
                f"top-level population a={leak_a:.2e}, b={leak_b:.2e} at t={t:.4g} "
                f"exceeds {LEAK_TOL}; raise the cutoffs"
            )
        drift = abs(pops.sum() - 1.0)
        if not drift <= TRACE_TOL:  # a non-finite state fails here too
            raise InvariantViolation(f"trace drift {drift:.3e} at t={t:.4g}")
        worst[:] = max(worst[0], leak_a, leak_b), max(worst[1], drift)

    def snapshot() -> DenseState:
        return DenseState(rho=rho.copy(), n_a=n_a, n_b=n_b)

    guard(0.0)
    states = [snapshot()]
    # legs split at the coupling switch-off so no stage straddles the jump
    legs = sample_grid(step, t_end, params.tau, sample_stride)
    for leg in legs:
        h, g, kept = leg.h, params.g * leg.window, set(leg.kept.tolist())
        t = leg.t_start + np.arange(leg.n_steps) * h
        f0, f1, f2 = (drive_field(t + c * h, profile, params.delta_r, params.gamma) for c in (0.0, 0.5, 1.0))
        ends = leg.time(np.arange(1, leg.n_steps + 1)).tolist()
        for i in range(leg.n_steps):
            # classical RK4 in place: acc gathers k1 + 2 k2 + 2 k3 + k4, stage is rho + c k
            action(rho, g, f0[i], acc)
            np.multiply(acc, 0.5 * h, out=stage)
            stage += rho
            for c in (0.5 * h, h):
                action(stage, g, f1[i], k)
                np.multiply(k, c, out=stage)
                stage += rho
                k *= 2.0
                acc += k
            action(stage, g, f2[i], k)
            acc += k
            acc *= h / 6.0
            rho += acc
            guard(ends[i])  # leak/trace check runs every step
            if i + 1 in kept:
                states.append(snapshot())
    return DenseTrajectory(times=grid_times(legs), states=states, max_leak=worst[0], max_trace_drift=worst[1])


def extract_moments(state: DenseState) -> MomentState:
    """All eight tracked moments of a dense state, as trace(rho X).

    Each truncated product X of :func:`mode_operators` shifts the Fock indices
    by fixed amounts, so trace(rho X) is a weighted sum over one shifted
    diagonal of a reduced or of the joint density matrix.
    """
    r = state.tensor()
    sa, sb = np.sqrt(np.arange(1, state.n_a)), np.sqrt(np.arange(1, state.n_b))

    def single(rho1: np.ndarray, s: np.ndarray) -> tuple[complex, float, complex]:
        """<x>, <x^dag x> and <x^2> of one mode, from its reduced density matrix."""
        occupation = np.arange(len(rho1)) @ np.diagonal(rho1).real
        return s @ np.diagonal(rho1, -1), occupation, (s[1:] * s[:-1]) @ np.diagonal(rho1, -2)

    a, na, a_sq = single(np.einsum("mnkn->mk", r), sa)
    b, nb, b_sq = single(state.reduced_battery(), sb)
    # sums of rho[m, n, m-1, n+1] sqrt(m (n+1)) and of rho[m, n, m-1, n-1] sqrt(m n)
    ab_dag = sa @ np.einsum("mnmn->mn", r[1:, :-1, :-1, 1:]) @ sb
    ab = sa @ np.einsum("mnmn->mn", r[1:, 1:, :-1, :-1]) @ sb
    moments = (a, b, na, nb, ab_dag, a_sq, b_sq, ab)
    return MomentState.from_array(np.array(moments, dtype=complex))
