import math
import tracemalloc

import numpy as np
import pytest

from qbattery import oracle
from qbattery.cd_control import drive_field
from qbattery.dynamics import MomentState, grid_times, integrate, sample_grid
from qbattery.errors import InvariantViolation, TruncationLeak
from qbattery.model import DriveProfile, ModelParams
from qbattery.oracle import (
    DenseState,
    _decode,
    _LindbladAction,
    dense_evolve,
    extract_moments,
)


def mode_operators(n_a, n_b):
    """Dense annihilation operators and their adjoints on the joint truncated space."""
    low_a = np.diag(np.sqrt(np.arange(1, n_a)), 1)
    low_b = np.diag(np.sqrt(np.arange(1, n_b)), 1)
    a = np.kron(low_a, np.eye(n_b))
    b = np.kron(np.eye(n_a), low_b)
    return {"a": a, "b": b, "ad": a.conj().T, "bd": b.conj().T}


def coherent_vector(alpha, n):
    amps = np.zeros(n, dtype=complex)
    amps[0] = 1.0
    for k in range(1, n):
        amps[k] = amps[k - 1] * alpha / np.sqrt(k)
    return amps * np.exp(-0.5 * abs(alpha) ** 2)


def product_state(vec_a, vec_b):
    psi = np.kron(vec_a, vec_b)
    return np.outer(psi, psi.conj())


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    rho = 0.5 * (rho + rho.conj().T)  # Hermitian to the last bit, as the action assumes
    return rho / np.trace(rho).real


def encode(rho):
    """The oracle's real state Q = Re rho + Im rho of a Hermitian rho."""
    return rho.real + rho.imag


def assert_valid_density(state):
    """Unit trace, Hermitian and positive semidefinite, to the oracle's tolerances."""
    rho = state.rho
    assert abs(np.trace(rho) - 1.0) <= oracle.TRACE_TOL
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] >= -1e-8


def operator_action(rho, n_a, n_b, g, gamma, nbar, f):
    """-i[H, rho] + gamma (nbar+1) D[a] rho + gamma nbar D[a^dag] rho from the truncated matrices."""
    ops = mode_operators(n_a, n_b)
    a, b, ad, bd = ops["a"], ops["b"], ops["ad"], ops["bd"]
    hamiltonian = g * (ad @ b + a @ bd) + f * ad + np.conj(f) * a

    def dissipator(x, xd):
        return x @ rho @ xd - 0.5 * (xd @ x @ rho + rho @ xd @ x)

    return (
        -1j * (hamiltonian @ rho - rho @ hamiltonian)
        + gamma * (nbar + 1.0) * dissipator(a, ad)
        + gamma * nbar * dissipator(ad, a)
    )


class SliceAction:
    """The 4-index slice-arithmetic action the oracle used before its row-shift form: the reference."""

    def __init__(self, n_a, n_b, gamma, nbar):
        self.gamma, self.nbar = gamma, nbar
        w_a = np.sqrt(np.arange(1, n_a))
        w_b = np.sqrt(np.arange(1, n_b))
        self._wa = w_a[:, None, None, None]
        self._wab = w_a[:, None, None, None] * w_b[None, :, None, None]
        self._waa = w_a[:, None, None, None] * w_a[None, None, :, None]
        n = np.arange(n_a, dtype=float)
        aad_diag = np.arange(1, n_a + 1, dtype=float)
        aad_diag[-1] = 0.0
        row = -0.5 * gamma * (nbar + 1.0) * n - 0.5 * gamma * nbar * aad_diag
        self._decay = (row[:, None, None, None] + row[None, None, :, None]) * np.ones((n_a, n_b, n_a, n_b))

    def __call__(self, rho, g, f):
        h_rho = np.zeros_like(rho)
        if g:
            h_rho[:-1, 1:] += g * self._wab * rho[1:, :-1]
            h_rho[1:, :-1] += g * self._wab * rho[:-1, 1:]
        if f:
            h_rho[1:] += f * self._wa * rho[:-1]
            h_rho[:-1] += f.conjugate() * self._wa * rho[1:]
        out = -1j * (h_rho - h_rho.conj().transpose(2, 3, 0, 1))
        out += self._decay * rho
        out[:-1, :, :-1, :] += (self.gamma * (self.nbar + 1.0)) * self._waa * rho[1:, :, 1:, :]
        if self.nbar:
            out[1:, :, 1:, :] += (self.gamma * self.nbar) * self._waa * rho[:-1, :, :-1, :]
        return out


def slice_reference_evolve(params, profile, cutoffs, step, t_end, stride):
    """Step-by-step RK4 over SliceAction on the shared sample grid, one scalar drive call per stage."""
    n_a, n_b = cutoffs
    action = SliceAction(n_a, n_b, params.gamma, params.nbar)
    rho = np.zeros((n_a, n_b, n_a, n_b), dtype=complex)
    rho[0, 0, 0, 0] = 1.0
    states = [rho.reshape(n_a * n_b, -1).copy()]
    legs = sample_grid(step, t_end, params.tau, stride)
    for leg in legs:
        h, g, kept = leg.h, params.g * leg.window, set(leg.kept.tolist())
        for k in range(leg.n_steps):
            t = leg.t_start + k * h
            f0, f1, f2 = (drive_field(x, profile, params.delta_r, params.gamma) for x in (t, t + 0.5 * h, t + h))
            k1 = action(rho, g, f0)
            k2 = action(rho + (0.5 * h) * k1, g, f1)
            k3 = action(rho + (0.5 * h) * k2, g, f1)
            k4 = action(rho + h * k3, g, f2)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k + 1 in kept:
                states.append(rho.reshape(n_a * n_b, -1).copy())
    return grid_times(legs), states


class TestLindbladAction:
    @pytest.mark.parametrize("cutoffs", [(4, 4), (5, 7), (7, 5), (14, 14)])
    @pytest.mark.parametrize("g,f", [(0.3, 0.2 - 0.15j), (0.0, 0.2 - 0.15j), (0.3, 0j), (0.0, 0j)])
    @pytest.mark.parametrize("nbar", [0.0, 0.4])
    def test_matches_operator_form(self, cutoffs, g, f, nbar):
        n_a, n_b = cutoffs
        gamma = 0.7
        d = n_a * n_b
        rho = random_density(d, seed=n_a * 100 + n_b)
        q, out = np.empty((2, d, d)), np.empty((d, d))
        q[0] = encode(rho)
        _LindbladAction(n_a, n_b, gamma, nbar)(q, g, np.complex128(f), out)
        assert np.array_equal(q[1], q[0].T)
        expected = operator_action(rho, n_a, n_b, g, gamma, nbar, f)
        assert np.max(np.abs(_decode(out) - expected)) < 1e-14

    def test_encoding_round_trip_is_exact(self):
        # entries on a 2^-20 grid keep Re rho +- Im rho exact, so decode(encode(rho)) is rho bit for bit
        rng = np.random.default_rng(3)
        z = np.ldexp(rng.integers(-(2**20), 2**20, (2, 30, 30)).astype(float), -20)
        rho = (z[0] + z[0].T) + 1j * (z[1] - z[1].T)
        q = encode(rho)
        assert np.array_equal(np.diagonal(q), np.diagonal(rho).real)  # diag Q holds the populations
        back = _decode(q)
        assert np.array_equal(back.view(np.uint64), rho.view(np.uint64))
        # in general the encoding rounds Re rho + Im rho once: the round trip is exact to a few ulps
        rho = random_density(30, seed=4)
        assert np.max(np.abs(_decode(encode(rho)) - rho)) <= 4 * np.finfo(float).eps * np.max(np.abs(rho))

    def test_dense_evolve_matches_slice_reference(self):
        # two legs (tau inside the run), thermal bath, CD drive
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.4, nbar=0.2, delta_r=0.5, tau=0.63)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        run = dense_evolve(params, prof, cutoffs=(9, 8), step=0.01, t_end=1.1, sample_stride=20)
        times, states = slice_reference_evolve(params, prof, (9, 8), 0.01, 1.1, 20)
        assert np.array_equal(run.times, times)
        assert len(run.states) == len(states)
        worst = max(float(np.max(np.abs(s.rho - r))) for s, r in zip(run.states, states))
        assert worst < 1e-13


class TestDenseEvolve:
    def test_vacuum_stationary(self):
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.0, nbar=0.0, delta_r=0.0, tau=5.0)
        run = dense_evolve(params, DriveProfile.off(), cutoffs=(5, 5), step=0.01, t_end=2.0)
        rho = run.states[-1].rho
        expected = np.zeros_like(rho)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_single_mode_thermalization(self):
        # decoupled charger relaxes to nbar(1 - e^{-gamma t}); cutoff high
        # enough that the geometric tail stays under the leak guard
        gamma, nbar, t_end = 1.0, 1.0, 5.0
        params = ModelParams(omega0=1.0, g=0.0, gamma=gamma, nbar=nbar, delta_r=0.0, tau=t_end)
        run = dense_evolve(params, DriveProfile.off(), cutoffs=(24, 4), step=0.005, t_end=t_end, sample_stride=200)
        na = extract_moments(run.states[-1]).na
        expected = nbar * (1.0 - math.exp(-gamma * t_end))
        assert na == pytest.approx(expected, abs=2e-5)  # truncation bias at cutoff 24

    def test_trace_and_validity_every_sample(self):
        # gamma = 0.5 quadruples the CD correction, so <a> swings near 1 and
        # the displaced-thermal tail needs the full cutoff
        params = ModelParams(omega0=1.0, g=0.2, gamma=0.5, nbar=0.2, delta_r=0.0, tau=3.0)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        run = dense_evolve(params, prof, cutoffs=(14, 14), step=0.01, t_end=3.0, sample_stride=50)
        for state in run.states:
            assert_valid_density(state)
            assert abs(np.trace(state.rho) - 1.0) < 1e-8

    def test_diagnostics_bound_every_kept_state(self):
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.4, nbar=0.1, delta_r=0.5, tau=2.0)
        run = dense_evolve(params, DriveProfile.cd_sin_sq(0.2, 0.5), cutoffs=(8, 8), step=0.01, t_end=2.0)
        for state in run.states:
            pops = np.diagonal(state.rho).real.reshape(8, 8)
            assert max(pops[-2:].sum(), pops[:, -2:].sum()) <= run.max_leak
            assert abs(pops.sum() - 1.0) <= run.max_trace_drift
        assert 0.0 < run.max_leak < oracle.LEAK_TOL
        assert run.max_trace_drift < oracle.TRACE_TOL

    def test_vacuum_run_reports_no_leak(self):
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.0, nbar=0.0, delta_r=0.0, tau=1.0)
        run = dense_evolve(params, DriveProfile.off(), cutoffs=(4, 4), step=0.01, t_end=1.0)
        assert run.max_leak == 0.0
        assert run.max_trace_drift == 0.0

    @pytest.mark.parametrize(
        "index,gain,error,message",
        [
            (0, 1e-3, InvariantViolation, r"trace drift .* at t=0\.01"),
            (0, np.nan, InvariantViolation, r"trace drift nan at t=0\.01"),
            (-1, 1e-3, TruncationLeak, r"at t=0\.01 exceeds"),
        ],
    )
    def test_guard_runs_after_every_step(self, monkeypatch, index, gain, error, message):
        # a corrupted action (trace gain in the vacuum, a non-finite entry or
        # top-level gain) must be caught after the first step, not at the next
        # kept sample
        real_call = _LindbladAction.__call__

        def corrupted(self, q, g, f, out):
            real_call(self, q, g, f, out)
            out[index, index] += gain  # the diagonal of Q' is the population change

        monkeypatch.setattr(_LindbladAction, "__call__", corrupted)
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.2, nbar=0.0, delta_r=0.0, tau=1.0)
        with pytest.raises(error, match=message):
            dense_evolve(params, DriveProfile.off(), cutoffs=(5, 5), step=0.01, t_end=1.0, sample_stride=50)

    def test_kept_states_are_hermitian(self):
        # decoded snapshots: Re rho symmetric bit for bit, Im rho antisymmetric
        # exactly (a zero and its negation compare equal)
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.4, nbar=0.1, delta_r=0.5, tau=0.6)
        run = dense_evolve(params, DriveProfile.cd_sin_sq(0.2, 0.5), cutoffs=(8, 7), step=0.01, t_end=1.0)
        assert len(run.states) == 11
        for state in run.states:
            rho = state.rho
            assert np.array_equal(rho, rho.conj().T)
            assert np.array_equal(rho.real.view(np.uint64), rho.real.T.view(np.uint64))

    def test_traced_peak_holds_q_snapshots_and_working_set(self):
        # kept states hold Q, 8 bytes per entry: the run may trace its 11 snapshots
        # plus 14 working D x D float64 matrices, 25 in all
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.2, delta_r=0.0, tau=4.0)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        d = 14 * 14
        tracemalloc.start()
        try:
            run = dense_evolve(params, prof, cutoffs=(14, 14), step=0.01, t_end=1.0, sample_stride=10)
            for state in run.states:
                extract_moments(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * d * d * 8, f"traced peak {peak / (d * d * 8):.1f} D x D float64 matrices"
        assert len(run.states) == 11
        for state in run.states:
            assert state.q.dtype == np.float64 and state.q.shape == (d, d) and state.q.flags.c_contiguous

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"step": math.nan}, r"step must be finite and > 0, got nan"),
            ({"step": -0.01}, r"step must be finite and > 0"),
            ({"t_end": math.inf}, r"t_end must be finite and >= 0, got inf"),
            ({"t_end": math.nan}, r"t_end must be finite and >= 0"),
            ({"sample_stride": 0}, r"sample_stride must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.2, nbar=0.0, delta_r=0.0, tau=1.0)
        args = {"cutoffs": (4, 4), "step": 0.01, "t_end": 0.1, "sample_stride": 1, **kwargs}
        with pytest.raises(ValueError, match=message):
            dense_evolve(params, DriveProfile.off(), **args)

    def test_truncation_leak_raises(self):
        # strong drive into a tiny box must trip the guard, not silently reflect
        params = ModelParams(omega0=1.0, g=0.0, gamma=0.1, nbar=0.0, delta_r=0.0, tau=10.0)
        prof = DriveProfile.static(1.5)
        with pytest.raises(TruncationLeak):
            dense_evolve(params, prof, cutoffs=(4, 4), step=0.005, t_end=10.0)

    def test_moments_match_integrator(self):
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.4, nbar=0.1, delta_r=0.5, tau=4.0)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        dense = dense_evolve(params, prof, cutoffs=(10, 10), step=0.01, t_end=4.0, sample_stride=100)
        traj = integrate(params, prof, 0.004, 4.0, sample_stride=250)
        assert np.allclose(dense.times, traj.times)
        worst = 0.0
        for i in range(len(dense.times)):
            m = extract_moments(dense.states[i]).as_array()
            worst = max(worst, float(np.max(np.abs(m - traj.moments[i]))))
        assert worst < 1e-6

    def test_energy_decomposition_at_density_matrix_level(self):
        # reduced battery energy from (F, T) equals (F=0, T) plus (F, T=0)
        base = dict(omega0=1.0, g=0.25, gamma=0.6, delta_r=0.0, tau=3.0)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        runs = {}
        for tag, nbar, p in (
            ("full", 0.2, prof),
            ("thermal", 0.2, DriveProfile.off()),
            ("coherent", 0.0, prof),
        ):
            params = ModelParams(nbar=nbar, **base)
            runs[tag] = dense_evolve(params, p, cutoffs=(12, 12), step=0.01, t_end=3.0, sample_stride=60)
        for i in range(len(runs["full"].times)):
            nb = {t: extract_moments(r.states[i]).nb for t, r in runs.items()}
            assert nb["full"] == pytest.approx(nb["thermal"] + nb["coherent"], abs=1e-6)


class TestExtractMoments:
    def test_vacuum_gives_zero_moments(self):
        rho = np.zeros((16, 16), dtype=complex)
        rho[0, 0] = 1.0
        m = extract_moments(DenseState(q=encode(rho), n_a=4, n_b=4))
        assert m.as_array() == pytest.approx(np.zeros(8))

    def test_coherent_state_moments(self):
        alpha, n = 0.6 + 0.3j, 18
        rho = product_state(coherent_vector(alpha, n), coherent_vector(0, 4))
        m = extract_moments(DenseState(q=encode(rho), n_a=n, n_b=4))
        assert m.a_mean == pytest.approx(alpha, abs=1e-10)
        assert m.na == pytest.approx(abs(alpha) ** 2, abs=1e-10)
        assert m.a_sq == pytest.approx(alpha**2, abs=1e-10)
        assert m.b_mean == 0

    def test_thermal_state_moments(self):
        nbar, n = 0.3, 20
        probs = (nbar / (1 + nbar)) ** np.arange(n) / (1 + nbar)
        rho_a = np.diag(probs / probs.sum())
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        rho = np.kron(rho_a, vac).astype(complex)
        m = extract_moments(DenseState(q=encode(rho), n_a=n, n_b=4))
        assert m.a_mean == 0
        assert m.a_sq == 0
        assert m.na == pytest.approx(nbar, abs=1e-8)

    @pytest.mark.parametrize("cutoffs", [(4, 4), (5, 7), (14, 14)])
    def test_matches_operator_form(self, cutoffs):
        n_a, n_b = cutoffs
        rng = np.random.default_rng(11)
        z = rng.standard_normal((n_a * n_b,) * 2) + 1j * rng.standard_normal((n_a * n_b,) * 2)
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        ops = mode_operators(n_a, n_b)
        a, b, ad, bd = ops["a"], ops["b"], ops["ad"], ops["bd"]
        expected = [np.trace(rho @ op) for op in (a, b, ad @ a, bd @ b, a @ bd, a @ a, b @ b, a @ b)]
        m = extract_moments(DenseState(q=encode(rho), n_a=n_a, n_b=n_b))
        assert np.max(np.abs(m.as_array() - np.array(expected))) < 1e-14

    def test_mode_operators_commutator(self):
        ops = mode_operators(6, 5)
        comm = ops["a"] @ ops["ad"] - ops["ad"] @ ops["a"]
        # identity except the top charger level, where the hard cutoff bites
        diag = np.einsum("ii->i", comm).real.reshape(6, 5)
        assert np.allclose(diag[:-1, :], 1.0)
        assert np.allclose(diag[-1, :], 1.0 - 6.0)

    def test_reduced_battery_trace(self):
        params = ModelParams(omega0=1.0, g=0.3, gamma=0.2, nbar=0.1, delta_r=0.0, tau=2.0)
        run = dense_evolve(params, DriveProfile.static(0.05), cutoffs=(8, 8), step=0.01, t_end=2.0)
        red = run.states[-1].reduced_battery()
        assert red.shape == (8, 8)
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-8)
