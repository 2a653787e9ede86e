"""Brute-force validator: full density-matrix propagation in truncated Fock space.

Everything here is a cross-check path, never a performance path. The joint
density matrix of charger and battery, over the row-major joint index
r = m n_b + n (D = n_a n_b), is held as the real (D, D) matrix
Q = Re rho + Im rho, exact for Hermitian rho, and propagated with the same
fixed-step fourth-order scheme, on the same sample grid, as the moment RK4
integrator; kept samples stay in this encoding, half the bytes of a complex
rho, and rho is decoded only on request. Mode operators carry the standard
sqrt(n) matrix elements with a hard cutoff; the truncated product a a^dag has
0 (not N) in its top diagonal entry, which the dissipator terms respect, as
truncated-operator algebra does.
"""

from dataclasses import dataclass

import numpy as np

from .cd_control import drive_field
from .dynamics import MomentState, grid_times, sample_grid
from .errors import InvariantViolation, TruncationLeak
from .model import DriveProfile, ModelParams

__all__ = ["DenseState", "DenseTrajectory", "dense_evolve", "extract_moments"]

LEAK_TOL = 1e-6
TRACE_TOL = 1e-8


@dataclass(frozen=True)
class DenseState:
    """Joint truncated-Fock density matrix with its cutoffs, held as its real encoding Q = Re rho + Im rho."""

    q: np.ndarray  # float64, shape (n_a * n_b, n_a * n_b), row-major over (m, n)
    n_a: int
    n_b: int

    @property
    def rho(self) -> np.ndarray:  # the complex density matrix, decoded from q on each access
        return _decode(self.q)

    def reduced_battery(self) -> np.ndarray:
        """Partial trace over the charger, shape (n_b, n_b): that of Q is the reduced Q, decoded here."""
        return _decode(np.einsum("mnml->nl", self.q.reshape(self.n_a, self.n_b, self.n_a, self.n_b)))


@dataclass
class DenseTrajectory:
    times: np.ndarray
    states: list
    max_leak: float  # largest top-two-level population of either mode, over every step
    max_trace_drift: float  # largest |trace - 1| over every step

    def __len__(self) -> int:
        return len(self.times)


def _decode(q: np.ndarray) -> np.ndarray:
    """The Hermitian rho held by ``q``: Re rho = (Q + Q^T)/2, Im rho = (Q - Q^T)/2."""
    rho = np.empty(q.shape, dtype=complex)
    np.add(q, q.T, out=rho.real)
    rho.real *= 0.5
    np.subtract(q, q.T, out=rho.imag)
    rho.imag *= 0.5
    return rho


class _LindbladAction:
    """Right-hand side of the truncated master equation on Q = Re rho + Im rho.

    The dissipator's anticommutator folds into H_eff = H - iK, K diagonal.
    With -i H_eff = A_r + i A_i, A_r = -K + Im f (a^dag - a) and
    A_i = -Re f (a^dag + a) - g (a b^dag + a^dag b) real, rho' = -i H_eff rho
    + h.c. + J(rho) reads

        Q' = U + V^T + J(Q),   U = A_r Q + A_i Q^T,   V = A_r Q^T - A_i Q.

    One real (2 n_a, 2 n_a) product [[A_r, A_i], [-A_i, A_r]] on the
    (2 n_a, n_b D) view of Q stacked over Q^T forms the charger part of U and
    V. The coupling is four row shifts by +-(n_b - 1), and the jumps J shift
    the flattened Q by +-n_b (D + 1).
    """

    def __init__(self, n_a: int, n_b: int, gamma: float, nbar: float):
        d = n_a * n_b
        level = np.arange(n_a, dtype=float)
        aad = level + 1.0
        aad[-1] = 0.0  # hard cutoff: top diagonal of truncated a a^dag vanishes
        up = np.diag(np.sqrt(level[1:]), -1)  # charger a^dag
        self._k = np.kron(np.eye(2), np.diag(-0.5 * gamma * ((nbar + 1.0) * level + nbar * aad)))  # -K
        self._anti, self._sym = np.kron(np.eye(2), up - up.T), np.kron([[0.0, 1.0], [-1.0, 0.0]], up + up.T)
        m, n = np.divmod(np.arange(d), n_b)  # charger and battery level of each row
        # a b^dag into row r from r + n_b - 1, and a^dag b back, share these elements
        self._w_g, self._g, self._w = np.sqrt((m + 1.0) * n)[: 1 - n_b, None], None, None
        self._shape, self._s, self._shift = (2 * n_a, n_b * d), n_b - 1, n_b * (d + 1)
        root = np.sqrt(np.outer(m, m)).ravel()[self._shift:]
        self._jumps = [(gamma * rate) * root for rate in (nbar + 1.0, nbar) if gamma * rate]
        self._uv = np.empty((2, d, d))

    def __call__(self, q: np.ndarray, g: float, f: complex, out: np.ndarray) -> None:
        """Write Q' into ``out``, apart from ``q``, for the (2, D, D) buffer ``q`` holding Q; fills q[1] with Q^T."""
        uv, tmp, s, j = self._uv, out[self._s:], self._s, self._shift  # out is scratch until the combine writes it
        np.copyto(q[1], q[0].T)
        m_a = self._k + f.imag * self._anti - f.real * self._sym
        np.matmul(m_a, q.reshape(self._shape), out=uv.reshape(self._shape))
        if g:
            if g != self._g:  # U takes -g C Q^T and V takes g C Q, C = a b^dag + a^dag b
                self._g, self._w = g, np.repeat(g * self._w_g, q.shape[2], axis=1)
            for dst, src in ((slice(None, -s), slice(s, None)), (slice(s, None), slice(None, -s))):
                uv[0, dst] -= np.multiply(self._w, q[1, src], out=tmp)
                uv[1, dst] += np.multiply(self._w, q[0, src], out=tmp)
        np.copyto(out, uv[1].T)  # then add in place: faster than one add with a transposed operand
        out += uv[0]
        flat, q_flat, part = out.reshape(-1), q[0].reshape(-1), uv.reshape(-1)[: out.size - j]  # uv is free now
        for w, dst, src in zip(self._jumps, (slice(None, -j), slice(j, None)), (slice(j, None), slice(None, -j))):
            flat[dst] += np.multiply(w, q_flat[src], out=part)


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
    ValueError
        If a cutoff is below 4 or ``sample_grid`` cannot build the grid.
    """
    n_a, n_b = cutoffs
    if n_a < 4 or n_b < 4:
        raise ValueError(f"cutoffs must be >= 4, got {cutoffs}")
    # legs split at the coupling switch-off so no stage straddles the jump
    legs = sample_grid(step, t_end, params.tau, sample_stride)

    d = n_a * n_b
    action = _LindbladAction(n_a, n_b, params.gamma, params.nbar)
    # pair[0] is Q = Re rho + Im rho; each action call fills pair[1] (stage[1]) with the transpose,
    # which only a step's first action reads, so the later stages' k reuse pair[1]
    pair, stage = np.zeros((2, d, d)), np.empty((2, d, d))
    q, k, acc = pair[0], pair[1], np.empty((d, d))
    q[0, 0] = 1.0
    worst = [0.0, 0.0]  # largest leak and trace drift seen

    def guard(t: float) -> None:
        pops = q.diagonal().reshape(n_a, n_b)
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
        return DenseState(q=q.copy(), n_a=n_a, n_b=n_b)

    guard(0.0)
    states = [snapshot()]
    for leg in legs:
        h, g, kept = leg.h, params.g * leg.window, set(leg.kept.tolist())
        t = leg.t_start + np.arange(leg.n_steps) * h
        f0, f1, f2 = (drive_field(t + c * h, profile, params.delta_r, params.gamma) for c in (0.0, 0.5, 1.0))
        ends = leg.time(np.arange(1, leg.n_steps + 1)).tolist()
        for i in range(leg.n_steps):
            # classical RK4 in place: acc gathers k1 + 2 k2 + 2 k3 + k4, stage[0] is Q + c k
            action(pair, g, f0[i], acc)
            np.multiply(acc, 0.5 * h, out=stage[0])
            stage[0] += q
            for c in (0.5 * h, h):
                action(stage, g, f1[i], k)
                np.multiply(k, c, out=stage[0])
                stage[0] += q
                k *= 2.0
                acc += k
            action(stage, g, f2[i], k)
            acc += k
            acc *= h / 6.0
            q += acc
            guard(ends[i])  # leak/trace check runs every step
            if i + 1 in kept:
                states.append(snapshot())
    return DenseTrajectory(times=grid_times(legs), states=states, max_leak=worst[0], max_trace_drift=worst[1])


def extract_moments(state: DenseState) -> MomentState:
    """All eight tracked moments of a dense state, as trace(rho X), read from its Q.

    Each truncated product X of the mode operators shifts the Fock indices
    by fixed amounts, so trace(rho X) is a weighted sum over one shifted
    diagonal of a reduced or of the joint density matrix. A reduced rho is
    decoded from the partial trace of Q, and a joint sum reads Q_ij and Q_ji.
    """
    r = state.q.reshape(state.n_a, state.n_b, state.n_a, state.n_b)
    sa, sb = np.sqrt(np.arange(1, state.n_a)), np.sqrt(np.arange(1, state.n_b))

    def single(rho1: np.ndarray, s: np.ndarray) -> tuple[complex, float, complex]:
        """<x>, <x^dag x> and <x^2> of one mode, from its reduced density matrix."""
        occupation = np.arange(len(rho1)) @ np.diagonal(rho1).real
        return s @ np.diagonal(rho1, -1), occupation, (s[1:] * s[:-1]) @ np.diagonal(rho1, -2)

    a, na, a_sq = single(_decode(np.einsum("mnkn->mk", r)), sa)
    b, nb, b_sq = single(state.reduced_battery(), sb)
    # sums of rho[m, n, m-1, n+1] sqrt(m (n+1)) and of rho[m, n, m-1, n-1] sqrt(m n): ij sums Q_ij
    # over each diagonal and ji the transposed entries Q_ji, as rho_ij = (Q_ij + Q_ji + i (Q_ij - Q_ji))/2
    ij, ji = np.array([[sa @ np.einsum("mnmn->mn", w) @ sb for w in ws] for ws in (
        (r[1:, :-1, :-1, 1:], r[1:, 1:, :-1, :-1]), (r[:-1, 1:, 1:, :-1], r[:-1, :-1, 1:, 1:]))])
    ab_dag, ab = 0.5 * (ij + ji) + 0.5j * (ij - ji)
    moments = (a, b, na, nb, ab_dag, a_sq, b_sq, ab)
    return MomentState.from_array(np.array(moments, dtype=complex))
