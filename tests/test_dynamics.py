import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_reference import moment_rhs, rhs as reference_rhs, split
from qbattery import dynamics
from qbattery.cd_control import drive_field
from qbattery.dynamics import (
    PHYSICALITY_TOL,
    MomentState,
    Run,
    Trajectory,
    _batch,
    _exact_generator,
    _gaussian,
    _physicality,
    _orbit,
    _raw_moments,
    _unwrap,
    expm,
    grid_times,
    integrate,
    max_step,
    propagate,
    propagate_batch,
    run_size,
    sample_grid,
)
from qbattery.energetics import ergotropy_b
from qbattery.errors import InvariantViolation, QBatteryError, SingularDenominator, StepTooLarge
from qbattery.model import DriveKind, DriveProfile, ModelParams
from qbattery.oracle import dense_evolve


def params(g=0.0, gamma=0.0, nbar=0.0, delta_r=0.0, tau=100.0):
    return ModelParams(omega0=1.0, g=g, gamma=gamma, nbar=nbar, delta_r=delta_r, tau=tau)


def coherent_pair(alpha, beta):
    """Moment state of a product of coherent states |alpha> x |beta>."""
    return MomentState(
        a_mean=alpha,
        b_mean=beta,
        na=abs(alpha) ** 2,
        nb=abs(beta) ** 2,
        ab_dag=alpha * np.conj(beta),
        a_sq=alpha**2,
        b_sq=beta**2,
        ab=alpha * beta,
    )


def grid_of(p, profile, step, t_end, sample_stride=1):
    """sample_grid of an engine's arguments, so that it can stand in for an engine."""
    return sample_grid(step, t_end, p.tau, sample_stride)


def reference_legs(t_end, tau):
    """(t_start, t_stop, window) of [0, t_end] split at the coupling switch-off, built apart from sample_grid."""
    if tau >= t_end:
        return [(0.0, t_end, 1.0)]
    return [(0.0, tau, 1.0), (tau, t_end, 0.0)]


ROW, COL = np.triu_indices(4)


def sym_outer(u, mu):
    """Packed u mu^T + mu u^T."""
    outer = np.outer(u, mu)
    return (outer + outer.T)[ROW, COL]


def raw(x):
    """Raw moments of x = [mu, packed Sigma]."""
    return _raw_moments(x[:4, None], x[4:, None])[0]


def centered_rhs(t, x, p, prof):
    """d/dt of x = [mu, packed Sigma] from moment_rhs, by the chain rule dSigma = dR - dmu mu^T - mu dmu^T."""
    dmu, dr = split(moment_rhs(t, MomentState.from_array(raw(x)), p, prof).as_array())
    return np.concatenate([dmu, dr - sym_outer(dmu, x[:4])])


def textbook_rk4(p, prof, step, t_end, stride=1, initial=None):
    """Classical RK4 on (mu, Sigma) over moment_rhs, one vector step at a time: the reference."""
    y = (initial or MomentState()).as_array()
    x = np.concatenate(_gaussian(y))
    times, moments, done = [0.0], [y], 0
    for t0, t1, window in reference_legs(t_end, p.tau):
        if t1 <= t0:
            continue
        n = max(1, math.ceil((t1 - t0) / step - 1e-12))
        h = (t1 - t0) / n
        # moment_rhs gates g by t; a leg holds its window fixed, stage t + h included
        leg = replace(p, g=p.g * window, tau=2.0 * t_end + 1.0)

        def rhs(t, x):
            return centered_rhs(t, x, leg, prof)

        for k in range(n):
            t = t0 + k * h
            k1 = rhs(t, x)
            k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = rhs(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            done += 1
            if done % stride == 0:
                times.append(t1 if k == n - 1 else t0 + (k + 1) * h)
                moments.append(raw(x))
    if times[-1] != t_end:
        times.append(t_end)
        moments.append(raw(x))
    return np.array(times), np.array(moments)


def assert_matches_textbook(p, prof, step, t_end, stride=1, initial=None):
    traj = integrate(p, prof, step, t_end, stride, initial=initial)
    times, moments = textbook_rk4(p, prof, step, t_end, stride, initial)
    assert np.array_equal(traj.times, times)
    scale = np.max(np.abs(moments))
    assert np.max(np.abs(traj.moments - moments)) <= 1e-12 * scale


DRIVES = [
    DriveProfile.off(),
    DriveProfile.static(0.3),
    DriveProfile.sin_sq(0.3, 0.5),
    DriveProfile.cd_sin_sq(0.3, 0.5),
]


class TestBlockedStepping:
    """integrate's per-leg RK4 maps, applied through blocks of their powers, against the step-by-step loop."""

    @pytest.mark.parametrize("prof", DRIVES, ids=lambda d: d.kind.value)
    @pytest.mark.parametrize("stride", [1, 7])
    def test_two_legs_uneven_step(self, prof, stride):
        # tau < t_end splits the run; 0.013 divides neither leg
        p = params(g=0.2, gamma=0.3, nbar=0.2, delta_r=0.4, tau=2.0)
        assert_matches_textbook(p, prof, 0.013, 3.1, stride)

    @pytest.mark.parametrize("prof", DRIVES, ids=lambda d: d.kind.value)
    def test_non_vacuum_initial(self, prof):
        p = params(g=0.2, gamma=0.3, nbar=0.2, delta_r=0.4, tau=1.0)
        start = coherent_pair(0.4 - 0.2j, 0.1j)
        assert_matches_textbook(p, prof, 0.01, 1.7, 3, initial=start)

    @pytest.mark.parametrize("n_steps", [31, 32, 33, 63, 64, 65])
    def test_block_edges(self, n_steps):
        # doubling edges of _leg_states: the kept states are built in blocks of 1, 2, 4, .., 32
        p = params(g=0.2, gamma=0.3, nbar=0.2, delta_r=0.4, tau=10.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        traj = integrate(p, prof, 1.0 / n_steps, 1.0)
        assert len(traj) == n_steps + 1
        assert_matches_textbook(p, prof, 1.0 / n_steps, 1.0)


def box(*edges, hi):
    return st.sampled_from([0.0, -0.0, *edges]) | st.floats(0.0, hi, allow_subnormal=False)


unit = st.floats(-2.0, 2.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    g=box(0.5, hi=0.5),
    gamma=box(0.05, 1.0, hi=1.0),
    nbar=box(1.0, hi=1.0),
    window=st.sampled_from([0.0, 1.0]),
    parts=st.lists(unit, min_size=16, max_size=16),
    kind=st.sampled_from(list(DriveKind)),
    f0=st.floats(0.0, 2.0),
    omega_env=st.floats(0.01, 2.0),
    t=st.floats(0.0, 20.0),
)
def test_generator_matches_reference_rhs(g, gamma, nbar, window, parts, kind, f0, omega_env, t):
    # the (A, D, b) generator on v = [mu, cos 2wt, sin 2wt, Sigma, 1], read back as (mu, R),
    # is the term-by-term derivative at the field F = drive_field(t)
    p = params(g=g, gamma=gamma, nbar=nbar, delta_r=0.4)
    prof = DriveProfile(kind, f0=f0, omega_env=omega_env)
    y = np.array(parts[:8]) + 1j * np.array(parts[8:])
    y[2:4] = y[2:4].real  # occupations are real
    mu, r = split(y)
    phase = 2.0 * omega_env * t
    v = np.concatenate([mu, [math.cos(phase), math.sin(phase)], r - 0.5 * sym_outer(mu, mu), [1.0]])
    dv = sum(_exact_generator(g * window, p, prof)) @ v
    dmu = dv[:4]  # dR = dSigma + dmu mu^T + mu dmu^T
    got = np.concatenate([dmu, dv[6:16] + sym_outer(dmu, mu)])
    f = complex(drive_field(t, prof, p.delta_r, p.gamma))
    want = np.concatenate(split(reference_rhs(y, g * window, f, p)))
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(y))))


@pytest.mark.parametrize("window", [0.0, 1.0])
@pytest.mark.parametrize("kind", list(DriveKind))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    g=box(0.5, hi=0.5),
    gamma=box(0.05, 1.0, hi=1.0),
    nbar=box(1.0, hi=1.0),
    f0=st.floats(0.0, 2.0),
    omega_env=st.floats(0.01, 2.0),
)
def test_generator_states_its_clock(kind, window, g, gamma, nbar, f0, omega_env):
    # the pair (G, W): W is only the rotation of (cos, sin) at 2 omega_env, and G leaves those rows out
    gen, clock = _exact_generator(g * window, params(g=g, gamma=gamma, nbar=nbar, delta_r=0.4),
                                  DriveProfile(kind, f0=f0, omega_env=omega_env))
    assert not gen[4:6].any()
    want = np.zeros((17, 17))
    w = omega_env if kind in (DriveKind.SIN_SQ, DriveKind.CD_SIN_SQ) else 0.0  # off and static run no clock
    want[4, 5], want[5, 4] = -2.0 * w, 2.0 * w
    assert np.array_equal(clock, want)


@pytest.mark.parametrize("engine", [propagate, integrate])
@pytest.mark.parametrize("kind,f0", [(DriveKind.OFF, 0.0), (DriveKind.STATIC, 0.2)])
@pytest.mark.parametrize("omega_env", [0.5, 1e6, 1e12, 1e100, 1e300])
def test_drive_that_does_not_oscillate_ignores_omega_env(engine, kind, f0, omega_env):
    # the clock used to spin at 2 omega_env: moments moved by 1.4e-2 at 1e12, and 1e100 gave NaN
    assert DriveProfile(kind, f0, omega_env) == DriveProfile(kind, f0)
    p = params(g=0.2, gamma=0.05, nbar=0.3, tau=20.0)
    want = engine(p, DriveProfile(kind, f0), 0.01, 20.0, 10)
    got = engine(p, DriveProfile(kind, f0, omega_env), 0.01, 20.0, 10)
    assert got.moments.tobytes() == want.moments.tobytes()
    assert got.sigma.tobytes() == want.sigma.tobytes()


class TestMomentRhs:
    def test_vacuum_stationary_without_drive(self):
        d = moment_rhs(0.5, MomentState(), params(g=0.3, gamma=0.7), DriveProfile.off())
        assert d.as_array() == pytest.approx(np.zeros(8))

    def test_thermal_relaxation_term(self):
        # uncoupled, undriven: d<n_a>/dt = -gamma*n0 + gamma*nbar
        s = MomentState(na=2.0)
        d = moment_rhs(0.0, s, params(gamma=0.8, nbar=0.3), DriveProfile.off())
        assert d.na == pytest.approx(-0.8 * 2.0 + 0.8 * 0.3, abs=1e-14)

    def test_beamsplitter_feeds_battery(self):
        # undamped: d<b>/dt = -i g <a>, d<a>/dt = 0 when <b> = 0 and F = 0
        s = MomentState(a_mean=1.0 + 0j, na=1.0, a_sq=1.0 + 0j)
        d = moment_rhs(0.0, s, params(g=0.4), DriveProfile.off())
        assert d.a_mean == pytest.approx(0.0, abs=1e-14)
        assert d.b_mean == pytest.approx(-0.4j, abs=1e-14)


class TestIntegrate:
    def test_undriven_zero_temperature_stays_vacuum(self):
        traj = integrate(params(g=0.3, gamma=0.5), DriveProfile.off(), 0.01, 5.0)
        assert np.max(np.abs(traj.moments)) == 0.0

    def test_thermalization_closed_form(self):
        gamma, nbar = 1.0, 1.0
        traj = integrate(params(gamma=gamma, nbar=nbar), DriveProfile.off(), 0.005, 8.0, 100)
        expected = nbar * (1.0 - np.exp(-gamma * traj.times))
        na = traj.moments[:, 2].real
        assert na == pytest.approx(expected, abs=1e-10)

    def test_beamsplitter_full_swap(self):
        # injected coherent charger swaps into the battery at g*t = pi/2
        g = 0.25
        t_swap = 0.5 * math.pi / g
        traj = integrate(
            params(g=g),
            DriveProfile.off(),
            0.001,
            t_swap,
            sample_stride=10**9,  # keep first and last only
            initial=coherent_pair(1.0 + 0j, 0j),
        )
        final = traj.state_at(len(traj) - 1)
        assert abs(final.a_mean) == pytest.approx(0.0, abs=1e-9)
        assert abs(final.b_mean) == pytest.approx(1.0, abs=1e-9)
        assert final.b_mean == pytest.approx(-1j, abs=1e-9)

    def test_first_sample_is_vacuum_and_times_increase(self):
        traj = integrate(params(g=0.2, gamma=0.3, nbar=0.4), DriveProfile.off(), 0.01, 2.0, 7)
        assert np.max(np.abs(traj.moments[0])) == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(2.0)

    def test_step_cap_enforced(self):
        prof = DriveProfile.sin_sq(0.1, 4.0)
        assert max_step(params(), prof) == pytest.approx(0.05 / 4.0)
        with pytest.raises(StepTooLarge):
            integrate(params(), prof, 0.02, 1.0)

    def test_step_cap_reads_no_omega0(self):
        # omega0 enters neither engine: fig3's rates cap the step at 0.05 / omega_env at any omega0
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        for w0 in (1.0, 1e3):
            p = ModelParams(omega0=w0, g=0.2, gamma=0.05, nbar=0.3, delta_r=0.0, tau=20.0)
            assert max_step(p, prof) == 0.05 / 0.5
        assert integrate(p, prof, 0.01, 0.5).times[-1] == pytest.approx(0.5)
        assert max_step(params(), DriveProfile.off()) == math.inf  # no rate at all: no cap

    def test_number_conservation_closed_limit(self):
        traj = integrate(
            params(g=0.5),
            DriveProfile.off(),
            0.005,
            10.0,
            sample_stride=20,
            initial=coherent_pair(0.8 + 0.1j, 0.2 - 0.3j),
        )
        total = traj.moments[:, 2].real + traj.moments[:, 3].real
        assert np.max(np.abs(total - total[0])) < 1e-8 * traj.times[-1]

    def test_damping_contraction_of_first_moment(self):
        gamma = 0.9
        traj = integrate(
            params(gamma=gamma),
            DriveProfile.off(),
            0.005,
            6.0,
            sample_stride=40,
            initial=coherent_pair(1.0 + 0j, 0j),
        )
        expected = np.exp(-0.5 * gamma * traj.times)
        assert traj.moments[:, 0] == pytest.approx(expected, abs=1e-9)

    def test_gaussian_purity_under_coherent_drive(self):
        # at T = 0 the joint state stays an exact product of coherent states
        p = params(g=0.2, gamma=1.0, tau=100.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        traj = integrate(p, prof, 0.005, 12.0, sample_stride=20)
        a, b = traj.moments[:, 0], traj.moments[:, 1]
        na, nb = traj.moments[:, 2].real, traj.moments[:, 3].real
        assert np.max(np.abs(traj.moments[:, 5] - a**2)) < 1e-6
        assert np.max(np.abs(traj.moments[:, 6] - b**2)) < 1e-6
        assert np.max(np.abs(na - np.abs(a) ** 2)) < 1e-6
        assert np.max(np.abs(nb - np.abs(b) ** 2)) < 1e-6
        assert np.max(np.abs(traj.moments[:, 4] - a * np.conj(b))) < 1e-6
        assert np.max(np.abs(traj.moments[:, 7] - a * b)) < 1e-6

    def test_fourth_order_convergence(self):
        p = params(g=0.2, gamma=0.3, nbar=0.2, tau=100.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        ref = integrate(p, prof, 0.04 / 32.0, 4.0, 10**9).moments[-1]
        errs = []
        steps = [0.04, 0.02, 0.01]
        for h in steps:
            fin = integrate(p, prof, h, 4.0, 10**9).moments[-1]
            errs.append(np.max(np.abs(fin - ref)))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.5)

    def test_halving_step_shrinks_error_16x(self):
        p = params(g=0.2, gamma=0.3, nbar=0.2, tau=100.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        ref = integrate(p, prof, 0.04 / 32.0, 4.0, 10**9).moments[-1]
        e1 = np.max(np.abs(integrate(p, prof, 0.04, 4.0, 10**9).moments[-1] - ref))
        e2 = np.max(np.abs(integrate(p, prof, 0.02, 4.0, 10**9).moments[-1] - ref))
        assert e1 / e2 == pytest.approx(16.0, rel=0.5)

    def test_invariant_check_rejects_corrupt_initial(self):
        bad = MomentState(a_mean=1.0 + 0j, na=0.1)  # occupation below |<a>|^2
        with pytest.raises(InvariantViolation):
            integrate(params(), DriveProfile.off(), 0.01, 0.5, initial=bad)

    def test_invariant_violation_names_first_bad_sample(self):
        # rows 0 and 1 are physical; row 2 squeezes beyond the uncertainty bound, row 3 is worse
        states = [MomentState(), coherent_pair(0.3j, 0.5), MomentState(a_sq=0.5), MomentState(na=-1.0)]
        y = np.array([s.as_array() for s in states])
        with pytest.raises(InvariantViolation, match=r"sample 2 at t=0\.02: covariance breaks the uncertainty"):
            _unwrap(*_physicality(y, _gaussian(y)[1], 1, np.array([0.0, 0.01, 0.02, 0.03])))

    def test_invariant_check_rejects_non_finite_moments(self):
        with pytest.raises(InvariantViolation, match="sample 0 at t=0: non-finite"):
            integrate(params(), DriveProfile.off(), 0.01, 0.5, initial=MomentState(na=math.nan))

    def test_coupling_window_freezes_battery(self):
        p = params(g=0.4, gamma=0.5, tau=3.0)
        prof = DriveProfile.static(0.2)
        traj = integrate(p, prof, 0.002, 6.0, sample_stride=250)
        nb = traj.moments[:, 3].real
        idx_after = traj.times >= 3.0
        assert np.max(np.abs(nb[idx_after] - nb[idx_after][0])) < 1e-12


def reference_min_eigenvalue(y):
    """Smallest eigenvalue of sigma + i Omega/2 for the moments ``y``, by eigvalsh.

    sigma is the covariance of r = (x_a, p_a, x_b, p_b), x = (a + a^dag)/sqrt2, p = (a - a^dag)/(i sqrt2),
    so sigma + i Omega/2 = <dr_i dr_j> = L E L^T with E_kl = <d_k d_l> over d = (da, da^dag, db, db^dag).
    """
    a, b, na, nb, c, a2, b2, ab = y
    n_a, n_b = na.real - abs(a) ** 2, nb.real - abs(b) ** 2
    m_a, m_b, c, d = a2 - a * a, b2 - b * b, c - a * np.conj(b), ab - a * b
    e = np.array(
        [
            [m_a, n_a + 1, d, c],
            [n_a, np.conj(m_a), np.conj(c), np.conj(d)],
            [d, np.conj(c), m_b, n_b + 1],
            [c, np.conj(d), n_b, np.conj(m_b)],
        ]
    )
    quad = np.array([[1, 1], [-1j, 1j]]) / math.sqrt(2.0)
    lmat = np.kron(np.eye(2), quad)
    return float(np.linalg.eigvalsh(lmat @ e @ lmat.T)[0])


def squeezed(r, phi):
    """Squeezed vacuum S(r e^{i phi})|0>: <a^2> = -e^{i phi} sinh r cosh r, <a^dag a> = sinh^2 r."""
    return -np.exp(1j * phi) * math.sinh(r) * math.cosh(r), math.sinh(r) ** 2


PURE_STATES = {
    "vacuum": MomentState(),
    "coherent_pair": coherent_pair(0.8 - 0.3j, -0.2 + 1.1j),
    "single_mode_squeezed": MomentState(a_sq=squeezed(1.2, 0.7)[0], na=squeezed(1.2, 0.7)[1]),
    "two_mode_squeezed": MomentState(ab=squeezed(1.0, -0.4)[0], na=squeezed(1.0, -0.4)[1], nb=squeezed(1.0, -0.4)[1]),
}


class TestMomentStateValidate:
    def test_accepts_physical(self):
        coherent_pair(0.5 + 0.5j, 0.2j).validate()

    def test_rejects_negative_occupation(self):
        with pytest.raises(InvariantViolation):
            MomentState(na=-1e-3).validate()

    def test_rejects_cauchy_schwarz_violation(self):
        with pytest.raises(InvariantViolation):
            MomentState(na=0.1, nb=0.1, ab_dag=1.0 + 0j).validate()

    @pytest.mark.parametrize(
        "state",
        [MomentState(na=math.nan), MomentState(nb=math.inf), MomentState(a_sq=complex(0.0, math.nan))],
    )
    def test_rejects_non_finite(self, state):
        with pytest.raises(InvariantViolation, match="non-finite"):
            state.validate()

    @pytest.mark.parametrize(
        "state",
        [MomentState(a_sq=0.5 + 0j), MomentState(na=0.1, nb=0.1, ab=0.5 + 0j)],
        ids=["squeezed_beyond_bound", "entangled_beyond_bound"],
    )
    def test_rejects_states_that_break_the_uncertainty_principle(self, state):
        assert reference_min_eigenvalue(state.as_array()) < -0.1
        with pytest.raises(InvariantViolation, match="uncertainty principle"):
            state.validate()

    @pytest.mark.parametrize("state", sorted(PURE_STATES))
    def test_accepts_pure_states(self, state):
        y = PURE_STATES[state]
        assert abs(reference_min_eigenvalue(y.as_array())) < 1e-12  # on the boundary
        y.validate()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.floats(-1.0, 1.0), min_size=14, max_size=14),
        side=st.sampled_from([-1.0, 1.0]),
        excess=st.floats(0.01, 2.0),
    )
    def test_bona_fide_check_matches_eigenvalues(self, parts, side, excess):
        # shifting both occupations by s shifts sigma + i Omega/2 by s I: put its smallest
        # eigenvalue at -tol (1 -+ excess), on either side of the acceptance bound
        alpha, beta, c, m_a, m_b, d = (complex(parts[k], parts[k + 1]) for k in range(0, 12, 2))
        y = np.array([alpha, beta, parts[12] + abs(alpha) ** 2, parts[13] + abs(beta) ** 2,
                      c + alpha * beta.conjugate(), m_a + alpha**2, m_b + beta**2, d + alpha * beta])
        target = -PHYSICALITY_TOL * (1.0 - side * excess)
        y[2:4] += target - reference_min_eigenvalue(y)
        lowest = reference_min_eigenvalue(y)
        assert abs(lowest - target) < 1e-3 * PHYSICALITY_TOL
        state = MomentState.from_array(y)
        if lowest >= -PHYSICALITY_TOL:
            state.validate()
            # energetics judges the battery block by the same rule, so it takes every state validate takes
            rep = ergotropy_b(state, 1.0)
            sigma_b = _gaussian(y[None, :])[1][[7, 9]].sum()
            assert np.isfinite(rep).all()
            assert 0.0 <= rep.ergotropy_b <= rep.e_b + 2.0 * PHYSICALITY_TOL * (1.0 + 2.0 * sigma_b)
        else:
            with pytest.raises(InvariantViolation, match="uncertainty principle"):
                state.validate()


def reference_times(step, t_end, tau, stride):
    """Sample times as integrate's step-by-step loop produced them before the shared grid."""
    times, done = [0.0], 0
    for t0, t1, _ in reference_legs(t_end, tau):
        if t1 <= t0:
            continue
        n = max(1, math.ceil((t1 - t0) / step - 1e-12))
        h = (t1 - t0) / n
        for k in range(n):
            done += 1
            if done % stride == 0:
                times.append(t1 if k == n - 1 else t0 + (k + 1) * h)
    if times[-1] != t_end:
        times.append(t_end)
    return np.array(times)


GRID_CASES = {
    "one_leg": (0.01, 3.0, 100.0),
    "two_legs": (0.01, 3.0, 2.0),
    "uneven_step": (0.013, 3.1, 2.0),
    "phase_crosses_tau": (0.01, 2.0, 1.03),  # 103 steps before tau
}


class TestSampleGrid:
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_times_match_step_loop(self, case, stride):
        step, t_end, tau = GRID_CASES[case]
        want = reference_times(step, t_end, tau, stride)
        assert np.array_equal(grid_times(sample_grid(step, t_end, tau, stride)), want)
        p = params(g=0.2, gamma=0.3, tau=tau)
        for engine in (integrate, propagate):
            assert np.array_equal(engine(p, DriveProfile.off(), step, t_end, stride).times, want)

    def test_stride_phase_carries_across_legs(self):
        first, second = sample_grid(0.01, 2.0, 1.03, 10)
        assert (first.n_steps, second.n_steps) == (103, 97)
        assert first.kept[-1] == 100 and second.kept[0] == 7
        assert second.kept[-1] == second.n_steps  # the final step is always kept

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        step=st.floats(0.004, 0.5),
        t_end=st.floats(0.0, 12.0),
        tau=st.floats(0.0, 15.0),
        stride=st.integers(1, 40),
    )
    def test_run_size_counts_the_grid(self, step, t_end, tau, stride):
        legs = sample_grid(step, t_end, tau, stride)
        assert run_size(step, t_end, tau, stride) == (sum(leg.n_steps for leg in legs), len(grid_times(legs)))

    def test_empty_run_keeps_only_the_start(self):
        assert sample_grid(0.01, 0.0, 1.0, 3) == []
        traj = propagate(params(tau=1.0), DriveProfile.off(), 0.01, 0.0)
        assert traj.times.tolist() == [0.0] and len(traj.moments) == 1

    @pytest.mark.parametrize(
        "step,t_end,stride,message",
        [
            (math.nan, 1.0, 1, r"step must be finite and > 0, got nan"),
            (math.inf, 1.0, 1, r"step must be finite and > 0, got inf"),
            (0.01, math.inf, 1, r"t_end must be finite and >= 0, got inf"),
            (0.01, 1.0, 0, r"sample_stride must be >= 1, got 0"),
        ],
    )
    def test_engines_name_a_grid_they_cannot_build(self, step, t_end, stride, message):
        for engine in (integrate, propagate, grid_of):
            with pytest.raises(ValueError, match=message):
                engine(params(g=0.2, gamma=0.3, tau=1.0), DriveProfile.off(), step, t_end, stride)

    def test_engines_bound_a_run_before_building_its_grid(self):
        # 1e11 + 1 samples: sample_grid's np.arange alone would ask for about 745 GiB
        for engine in (integrate, propagate, dense_evolve, grid_of):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"sample_stride = 1 keeps 100000000001 samples, past 1000000$"):
                    engine(params(g=0.2, gamma=0.05, tau=20.0), DriveProfile.static(0.2),
                           step=0.01, t_end=1e9, sample_stride=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (engine.__name__, peak)

    def test_engines_reject_a_grid_past_int64_steps(self):
        # the step count is capped while counting, so no grid is built with a coarser step than asked
        for engine in (integrate, propagate, grid_of):
            with pytest.raises(ValueError, match=r"step = 1e-300 takes more than 9223372036854775806 steps to t_end"):
                engine(params(g=0.2, gamma=0.3, tau=1.0), DriveProfile.off(), 1e-300, 1.0, 10**21)


class TestExpm:
    @pytest.mark.parametrize("t", [0.01, 1.0, 7.5, 40.0])
    def test_jordan_block_closed_form(self, t):
        lam = -0.3 + 0.7j
        want = np.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        got = expm(np.array([[lam, 1.0], [0.0, lam]]) * t)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("theta", [1e-3, 0.4, 3.0, 50.0])
    def test_rotation_generator(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        got = expm(np.array([[0.0, -theta], [theta, 0.0]]))
        assert np.max(np.abs(got - np.array([[c, -s], [s, c]]))) <= 1e-13
        assert got.dtype == np.float64

    def test_zero_matrix_is_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("entry", [2.0**1023, 1.7e308, math.inf, -math.inf, math.nan])
    def test_oversized_or_non_finite_member_is_non_finite_and_leaves_the_others(self, dtype, entry):
        # from infinity norm 2^1023 on, the scale 2^-s is subnormal, where 1 / 2.0**s overflowed. Neither an oversized
        # member nor one holding inf or nan raises, and an ordinary member of the same stack keeps its lone bits.
        rng = np.random.default_rng(7)
        bad = (np.eye(4) + 0.1 * rng.standard_normal((4, 4))).astype(dtype)
        bad[0, 0] = entry
        ordinary = (1.5 * rng.standard_normal((4, 4))).astype(dtype)  # squared a few times
        assert not np.isfinite(expm(bad)).all()
        for i in (0, 1):  # the ordinary member's place in the stack
            got = expm(np.array([ordinary, bad] if i == 0 else [bad, ordinary]))
            assert not np.isfinite(got[1 - i]).all()
            assert got[i].tobytes() == expm(ordinary).tobytes()


def run_fresh(code):
    """What ``code`` prints in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds qbattery as this run does
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert run_fresh("import sys, qbattery.cli; print('scipy' in sys.modules)") == "False"


def test_cli_import_leaves_format_tables_unbuilt():
    # the CSV writer builds its tables on first use, so importing the CLI does not pay for them
    assert run_fresh("import qbattery.cli as cli; print(cli._format_tables.cache_info().currsize)") == "0"


def squeezed_displaced(alpha, beta):
    """A physical non-vacuum start: coherent means over centered thermal and anomalous moments."""
    centered = MomentState(na=0.3, nb=0.2, ab_dag=0.05 + 0.02j, a_sq=0.1 - 0.05j, b_sq=0.03j, ab=0.02 + 0j)
    return MomentState.from_array(centered.as_array() + coherent_pair(alpha, beta).as_array())


STARTS = {"vacuum": None, "injected": squeezed_displaced(0.4 - 0.2j, 0.1j)}


def assert_engines_agree(p, prof, step, t_end, stride, initial=None):
    rk4 = integrate(p, prof, step, t_end, stride, initial=initial)
    exact = propagate(p, prof, step, t_end, stride, initial=initial)
    assert np.array_equal(exact.times, rk4.times)
    scale = max(1.0, float(np.max(np.abs(rk4.moments))))
    assert np.max(np.abs(exact.moments - rk4.moments)) <= 1e-9 * scale
    return exact


class TestExactPropagator:
    """propagate against the RK4 integrate on the same grid."""

    @pytest.mark.parametrize("prof", DRIVES, ids=lambda d: d.kind.value)
    @pytest.mark.parametrize("nbar", [0.0, 0.3])
    @pytest.mark.parametrize("tau", [100.0, 2.3], ids=["one_leg", "two_legs"])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_matches_rk4(self, prof, nbar, tau, stride):
        p = params(g=0.2, gamma=0.3, nbar=nbar, delta_r=0.4, tau=tau)
        for start in STARTS.values():
            assert_engines_agree(p, prof, 0.01, 4.0, stride, initial=start)

    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_critical_damping(self, start):
        # gamma = 4g makes the 2x2 mean block defective
        p = params(g=0.25, gamma=1.0, nbar=0.3, delta_r=0.2, tau=3.0)
        assert_engines_agree(p, DriveProfile.cd_sin_sq(0.3, 0.5), 0.005, 5.0, 10, initial=STARTS[start])

    @pytest.mark.parametrize("prof", [DriveProfile.cd_sin_sq(1.0, 0.5), DriveProfile.static(10.0)],
                             ids=lambda d: d.kind.value)
    def test_large_means(self, prof):
        # RK4's h^4 error scales with the squared means on raw second moments, not on Sigma:
        # stepping Sigma keeps this T = 0 run's covariance at the vacuum's and the check passes
        p = params(g=0.2, gamma=0.05, tau=20.0)
        exact = assert_engines_agree(p, prof, 0.01, 20.0, 1)
        assert np.max(np.abs(exact.moments)) > 100.0

    def test_leg_without_kept_steps(self):
        # the stride keeps no step of the first leg, only the final one
        p = params(g=0.2, gamma=0.3, nbar=0.3, delta_r=0.4, tau=1.0)
        exact = assert_engines_agree(p, DRIVES[3], 0.01, 3.0, 10**9, initial=STARTS["injected"])
        assert exact.times.tolist() == [0.0, 3.0]

    def test_first_row_is_the_initial_state(self):
        # row 0 is the start's (mu, Sigma) bit for bit; its moments are rebuilt from them
        start = STARTS["injected"]
        mu, sigma = _gaussian(start.as_array())
        p = params(g=0.2, gamma=0.3, tau=1.0)
        for engine in (integrate, propagate):
            traj = engine(p, DriveProfile.static(0.2), 0.01, 2.0, 5, initial=start)
            assert traj.mu[:, 0].tobytes() == mu.tobytes()
            assert traj.sigma[:, 0].tobytes() == sigma.tobytes()
            vacuum = engine(p, DriveProfile.static(0.2), 0.01, 2.0, 5)  # every CLI run's start
            assert not vacuum.moments[0].view(np.uint64).any()  # +0.0 throughout

    def test_trajectory_stores_only_mu_and_sigma(self):
        traj = propagate(params(g=0.2, gamma=0.3, nbar=0.3), DriveProfile.static(0.2), 0.01, 1.0, 10)
        assert [f.name for f in fields(Trajectory)] == ["times", "mu", "sigma", "params"]
        assert traj.moments is traj.moments  # derived once, on first read

    def test_zero_temperature_stays_coherent(self):
        # the covariance of a T = 0 run from the vacuum stays exactly the vacuum's, so the
        # raw moments are the mean products (real products: numpy's complex multiply may fuse)
        p = params(g=0.2, gamma=0.05, tau=15.0)
        traj = propagate(p, DriveProfile.cd_sin_sq(0.2, 0.5), 0.01, 15.0, 5)
        (ar, br), (ai, bi) = traj.moments[:, :2].real.T, traj.moments[:, :2].imag.T
        assert np.array_equal(traj.moments[:, 2].real, ar * ar + ai * ai)
        assert np.array_equal(traj.moments[:, 5].real, ar * ar - ai * ai)
        assert np.array_equal(traj.moments[:, 5].imag, 2.0 * (ar * ai))
        assert np.array_equal(traj.moments[:, 4].real, ar * br + ai * bi)
        assert np.array_equal(traj.moments[:, 4].imag, ai * br - ar * bi)

    def test_steps_beyond_the_rk4_cap_stay_exact(self):
        # fig3's physics at step 0.2, 2x integrate's cap 0.1: the samples of step 0.01, stride 20
        p = params(g=0.2, gamma=0.05, tau=20.0)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        coarse = propagate(p, prof, 0.2, 20.0)
        fine = propagate(p, prof, 0.01, 20.0, 20)
        assert np.max(np.abs(coarse.times - fine.times)) <= 1e-12  # j*0.2 and 20j*0.01 round apart
        scale = np.max(np.abs(fine.moments))
        assert scale > 10.0
        assert np.max(np.abs(coarse.moments - fine.moments)) <= 1e-9 * scale
        with pytest.raises(StepTooLarge):
            integrate(p, prof, 0.2, 20.0)

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(
        g=st.floats(0.0, 0.5),
        gamma=st.floats(0.05, 1.0),
        nbar=st.floats(0.0, 1.0),
        delta_r=st.floats(0.0, 0.5),
        kind=st.sampled_from(list(DriveKind)),
        f0=st.floats(0.0, 0.5),
        omega_env=st.floats(0.1, 2.0),
        h=st.sampled_from([0.01, 0.02, 0.04, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5]),
        k=st.sampled_from([2, 4, 5]),
        cut=st.floats(0.0, 1.1),
    )
    def test_any_step_samples_a_finer_run(self, g, gamma, nbar, delta_r, kind, f0, omega_env, h, k, cut):
        # the exact engine takes any step: step h at stride 1 samples the run of step h/k at stride k
        tau = max(1, round(cut * 20.0 / h)) * h  # a multiple of h, past t_end for one leg
        p = params(g=g, gamma=gamma, nbar=nbar, delta_r=delta_r, tau=tau)
        prof = DriveProfile(kind, f0, omega_env)
        coarse = propagate(p, prof, h, 20.0)
        fine = propagate(p, prof, h / k, 20.0, k)
        assert np.max(np.abs(coarse.times - fine.times)) <= 1e-12
        scale = max(1.0, float(np.max(np.abs(fine.moments))))
        assert np.max(np.abs(coarse.moments - fine.moments)) <= 1e-10 * scale

    def test_invariant_check_rejects_corrupt_initial(self):
        bad = MomentState(a_mean=1.0 + 0j, na=0.1)  # occupation below |<a>|^2
        with pytest.raises(InvariantViolation, match="sample 0 at t=0"):
            propagate(params(), DriveProfile.off(), 0.01, 0.5, initial=bad)


def same_bits(a: Trajectory, b: Trajectory) -> bool:
    return all(getattr(a, f).shape == getattr(b, f).shape and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("times", "mu", "sigma"))


def lone_outcome(engine, run, step, t_end, stride):
    """What ``engine`` returns for ``run`` alone, or the error it raises."""
    try:
        return engine(run.params, run.profile, step, t_end, stride, initial=run.initial)
    except QBatteryError as exc:
        return exc


def integrate_batch(runs, step, t_end, stride):
    """integrate of each of ``runs`` as one stacked batch: the RK4 batch integrate is the lone member of."""
    return _batch(runs, step, t_end, stride, rk4=True)


def assert_batch_matches_lone_runs(runs, step, t_end, stride):
    """Each member of a propagate and of an integrate batch is its lone run bit for bit, or its lone error."""
    for engine, batch in ((propagate, propagate_batch), (integrate, integrate_batch)):
        for run, got in zip(runs, batch(runs, step, t_end, stride), strict=True):
            want = lone_outcome(engine, run, step, t_end, stride)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want), (engine.__name__, got, want)
            else:
                assert isinstance(got, Trajectory) and same_bits(got, want), engine.__name__
                assert got.moments.tobytes() == want.moments.tobytes()


batch_member = st.builds(
    lambda kind, f0, omega_env, g, gamma, nbar, delta_r, injected: (
        DriveProfile(kind, f0, omega_env),
        dict(g=g, gamma=gamma, nbar=nbar, delta_r=delta_r),
        STARTS["injected"] if injected else None,
    ),
    kind=st.sampled_from(list(DriveKind)),
    f0=st.floats(0.0, 0.5),
    omega_env=st.floats(0.1, 1.2),
    g=st.floats(0.0, 0.5),
    gamma=st.sampled_from([0.05, 0.3, 1.0]),
    nbar=st.sampled_from([0.0, 0.3]),
    delta_r=st.sampled_from([0.0, 0.4]),
    injected=st.booleans(),
)


def doubling_by_concatenation(m, v, count):
    """Rows v, m v, .., m^(count-1) v, each doubling a fresh array: the reference for _orbit's bits."""
    out, power = v[None], m
    while len(out) < count:
        out = np.concatenate([out, out @ power.T])
        if len(out) < count:
            power = power @ power
    return out[:count]


class TestBatch:
    """propagate_batch and integrate_batch: every member is its lone run, whatever the others do."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 16, 17, 33, 100, 257])
    def test_orbit_rounds_as_doubling_by_concatenation(self, count):
        # _orbit fills a preallocated block; a last doubling of one row must still take gemm's rounding
        rng = np.random.default_rng(count)
        m = np.eye(17) + 0.05 * rng.standard_normal((3, 17, 17))
        v = rng.standard_normal((3, 17))
        for lead in (0, slice(None)):  # _orbit on a 2-D block (one member) and a 3-D block
            out = np.empty((3, count, 17))[lead]
            out[..., 0, :] = v[lead]
            _orbit(m[lead], out)
            want = [doubling_by_concatenation(m[i], v[i], count) for i in range(3)]
            assert out.tobytes() == (want[0] if lead == 0 else np.array(want)).tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        members=st.lists(batch_member, min_size=1, max_size=4),
        step=st.sampled_from([0.01, 0.013, 0.05]),
        t_end=st.sampled_from([0.4, 1.3]),
        two_legs=st.booleans(),
        stride=st.sampled_from([1, 7, 10]),
    )
    def test_members_match_lone_runs(self, members, step, t_end, two_legs, stride):
        # omega_env up to 1.2 puts some RK4 members past their step cap at step 0.05: those are StepTooLarge
        tau = 0.37 * t_end if two_legs else t_end
        runs = [Run(params(tau=tau, **model), prof, start) for prof, model, start in members]
        assert_batch_matches_lone_runs(runs, step, t_end, stride)

    @pytest.mark.parametrize("stride", [1, 10])
    def test_failing_member_leaves_the_others(self, stride):
        # F0 = 1e300 overflows its means (InvariantViolation) inside the stack; a CD drive at gamma = delta_r = 0
        # is refused before the stack is built (SingularDenominator), and the others are stacked without it
        p = params(g=0.2, gamma=0.05, nbar=0.3, tau=1.0)
        runs = [Run(p, DriveProfile.cd_sin_sq(0.2, 0.5)), Run(p, DriveProfile.static(1e300)),
                Run(p, DriveProfile.sin_sq(0.3, 0.5), STARTS["injected"])]
        assert_batch_matches_lone_runs(runs, 0.01, 2.0, stride)
        assert isinstance(propagate_batch(runs, 0.01, 2.0, stride)[1], InvariantViolation)
        frozen = Run(replace(p, gamma=0.0), DriveProfile.cd_sin_sq(0.2, 0.5))
        assert_batch_matches_lone_runs([runs[0], frozen, runs[2]], 0.01, 2.0, stride)
        assert isinstance(propagate_batch([runs[0], frozen], 0.01, 2.0, stride)[1], SingularDenominator)

    @pytest.mark.parametrize("two_legs", [False, True])
    def test_stack_runs_once_whatever_a_member_is_refused_for(self, monkeypatch, two_legs):
        # one expm call per leg per batch: a refused member is judged before the stack and never reruns it
        calls = []
        monkeypatch.setattr(dynamics, "expm", lambda a: calls.append(a.shape) or expm(a))
        p = params(g=0.2, gamma=0.05, nbar=0.3, tau=1.0 if two_legs else 2.0)
        frozen = Run(replace(p, gamma=0.0), DriveProfile.cd_sin_sq(0.2, 0.5))
        runs = [Run(p, DriveProfile.sin_sq(0.3, 0.5)), frozen, Run(p, DriveProfile.static(1e300)),
                Run(p, DriveProfile.cd_sin_sq(0.2, 0.5))]
        outcomes = propagate_batch(runs, 0.01, 2.0, 10)
        assert [type(x) for x in outcomes] == [Trajectory, SingularDenominator, InvariantViolation, Trajectory]
        assert calls == [(3, 17, 17)] * (1 + two_legs)
        calls.clear()
        fast = Run(p, DriveProfile.sin_sq(0.3, 5.0))  # omega_env 5 caps RK4's step at 0.01
        outcomes = integrate_batch([runs[0], fast, runs[3]], 0.05, 2.0, 10)
        assert [type(x) for x in outcomes] == [Trajectory, StepTooLarge, Trajectory]
        assert calls == [(2, 17, 17)] * (1 + two_legs)

    def test_members_share_one_grid(self):
        runs = [Run(params(tau=1.0), DriveProfile.off()), Run(params(tau=2.0), DriveProfile.off())]
        with pytest.raises(ValueError, match=r"a batch shares one grid, so one tau; got \[1.0, 2.0\]"):
            propagate_batch(runs, 0.01, 3.0)
        with pytest.raises(ValueError, match="sample_stride must be >= 1, got 0"):
            propagate_batch(runs[:1], 0.01, 3.0, 0)
