"""Brute-force validator: full density-matrix propagation in truncated Fock space.

Everything here is a cross-check path, never a performance path. The joint
density matrix of charger and battery is stored dense (row-major, as a
4-index tensor rho[m, n, k, l] = <m,n|rho|k,l>) and propagated with the same
fixed-step fourth-order scheme, on the same sample grid, as the moment RK4
integrator. Mode operators carry the standard sqrt(n) matrix elements with a
hard cutoff; note the truncated product a a^dag has 0 (not N) in its top
diagonal entry, which the dissipator terms must respect to stay consistent
with truncated-operator algebra.
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

    def validate(self) -> None:
        tr = np.trace(self.rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        herm = np.max(np.abs(self.rho - self.rho.conj().T))
        if herm > 1e-10:
            raise InvariantViolation(f"Hermiticity deviation {herm:.3e}")
        eigs = np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))
        if eigs[0] < -1e-8:
            raise InvariantViolation(f"negative eigenvalue {eigs[0]:.3e}")


@dataclass
class DenseTrajectory:
    times: np.ndarray
    states: list

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
    """Right-hand side of the truncated master equation via structured slicing.

    Applying the shifted-diagonal mode operators by slice arithmetic keeps
    one evaluation at O(dim^2) instead of O(dim^3) matrix products; the
    result is identical to truncated-matrix algebra to rounding.
    """

    def __init__(self, n_a: int, n_b: int, g: float, gamma: float, nbar: float):
        self.g, self.gamma, self.nbar = g, gamma, nbar
        w_a = np.sqrt(np.arange(1, n_a))
        w_b = np.sqrt(np.arange(1, n_b))
        self._wa = w_a[:, None, None, None]
        self._wab = w_a[:, None, None, None] * w_b[None, :, None, None]
        self._waa = w_a[:, None, None, None] * w_a[None, None, :, None]
        n = np.arange(n_a, dtype=float)
        aad_diag = np.arange(1, n_a + 1, dtype=float)
        aad_diag[-1] = 0.0  # hard cutoff: top diagonal of truncated a a^dag vanishes
        row = -0.5 * gamma * (nbar + 1.0) * n - 0.5 * gamma * nbar * aad_diag
        self._decay = (
            row[:, None, None, None] + row[None, None, :, None]
        ) * np.ones((n_a, n_b, n_a, n_b))

    def _h_left(self, rho: np.ndarray, g: float, f: complex) -> np.ndarray:
        out = np.zeros_like(rho)
        if g:
            out[:-1, 1:] += g * self._wab * rho[1:, :-1]
            out[1:, :-1] += g * self._wab * rho[:-1, 1:]
        if f:
            out[1:] += f * self._wa * rho[:-1]
            out[:-1] += f.conjugate() * self._wa * rho[1:]
        return out

    def __call__(self, rho: np.ndarray, g: float, f: complex) -> np.ndarray:
        h_rho = self._h_left(rho, g, f)
        # rho stays Hermitian through every stage, so rho H = (H rho)^dag
        out = -1j * (h_rho - h_rho.conj().transpose(2, 3, 0, 1))
        out += self._decay * rho
        out[:-1, :, :-1, :] += (self.gamma * (self.nbar + 1.0)) * self._waa * rho[1:, :, 1:, :]
        if self.nbar:
            out[1:, :, 1:, :] += (self.gamma * self.nbar) * self._waa * rho[:-1, :, :-1, :]
        return out


def dense_evolve(
    params: ModelParams,
    profile: DriveProfile,
    cutoffs: tuple[int, int] = (14, 14),
    step: float = 0.01,
    t_end: float = 10.0,
    sample_stride: int = 10,
) -> DenseTrajectory:
    """Propagate the joint density matrix from the two-mode vacuum.

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

    action = _LindbladAction(n_a, n_b, params.g, params.gamma, params.nbar)
    rho = np.zeros((n_a, n_b, n_a, n_b), dtype=complex)
    rho[0, 0, 0, 0] = 1.0

    def field(t: float) -> complex:
        return drive_field(t, profile, params.delta_r, params.gamma)

    def guard(r4: np.ndarray, t: float) -> None:
        pops = np.einsum("mnmn->mn", r4).real
        leak_a = pops[-2:, :].sum()
        leak_b = pops[:, -2:].sum()
        if leak_a > LEAK_TOL or leak_b > LEAK_TOL:
            raise TruncationLeak(
                f"top-level population a={leak_a:.2e}, b={leak_b:.2e} at t={t:.4g} "
                f"exceeds {LEAK_TOL}; raise the cutoffs"
            )
        if abs(pops.sum() - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"trace drift {abs(pops.sum() - 1.0):.3e} at t={t:.4g}")

    def snapshot(r4: np.ndarray) -> DenseState:
        return DenseState(rho=r4.reshape(n_a * n_b, n_a * n_b).copy(), n_a=n_a, n_b=n_b)

    guard(rho, 0.0)
    states = [snapshot(rho)]
    # legs split at the coupling switch-off so no stage straddles the jump
    legs = sample_grid(step, t_end, params.tau, sample_stride)
    for leg in legs:
        h, g, kept = leg.h, params.g * leg.window, set(leg.kept.tolist())
        for k in range(leg.n_steps):
            t = leg.t_start + k * h
            f0, f1, f2 = field(t), field(t + 0.5 * h), field(t + h)
            k1 = action(rho, g, f0)
            k2 = action(rho + (0.5 * h) * k1, g, f1)
            k3 = action(rho + (0.5 * h) * k2, g, f1)
            k4 = action(rho + h * k3, g, f2)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            guard(rho, float(leg.time(k + 1)))  # leak/trace check runs every step
            if k + 1 in kept:
                states.append(snapshot(rho))
    return DenseTrajectory(times=grid_times(legs), states=states)


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
