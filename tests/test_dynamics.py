import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.dynamics import (
    BLOCK_STEPS,
    MomentState,
    _generator,
    _rhs_maps,
    expm,
    grid_times,
    integrate,
    max_step,
    moment_rhs,
    propagate,
    sample_grid,
)
from qbattery.errors import InvariantViolation, StepTooLarge
from qbattery.model import DriveProfile, ModelParams


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


def reference_legs(t_end, tau):
    """(t_start, t_stop, window) of [0, t_end] split at the coupling switch-off, built apart from sample_grid."""
    if tau >= t_end:
        return [(0.0, t_end, 1.0)]
    return [(0.0, tau, 1.0), (tau, t_end, 0.0)]


def textbook_rk4(p, prof, step, t_end, stride=1, initial=None):
    """Classical RK4 over moment_rhs, one vector step at a time: the reference."""
    y = (initial or MomentState()).as_array()
    times, moments, done = [0.0], [y], 0
    for t0, t1, window in reference_legs(t_end, p.tau):
        if t1 <= t0:
            continue
        n = max(1, math.ceil((t1 - t0) / step - 1e-12))
        h = (t1 - t0) / n
        # moment_rhs gates g by t; a leg holds its window fixed, stage t + h included
        leg = replace(p, g=p.g * window, tau=2.0 * t_end + 1.0)

        def rhs(t, y):
            return moment_rhs(t, MomentState.from_array(y), leg, prof).as_array()

        for k in range(n):
            t = t0 + k * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            done += 1
            if done % stride == 0:
                times.append(t1 if k == n - 1 else t0 + (k + 1) * h)
                moments.append(y)
    if times[-1] != t_end:
        times.append(t_end)
        moments.append(y)
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
    """integrate's blocked affine maps against the one-step-at-a-time loop."""

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

    @pytest.mark.parametrize(
        "n_steps", sorted({63, 64, 65, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1})
    )
    def test_block_edges(self, n_steps):
        p = params(g=0.2, gamma=0.3, nbar=0.2, delta_r=0.4, tau=10.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        traj = integrate(p, prof, 1.0 / n_steps, 1.0)
        assert len(traj) == n_steps + 1
        assert_matches_textbook(p, prof, 1.0 / n_steps, 1.0)


def box(*edges, hi):
    return st.sampled_from([0.0, -0.0, *edges]) | st.floats(0.0, hi, allow_subnormal=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=box(0.5, hi=0.5), gamma=box(0.05, 1.0, hi=1.0), nbar=box(1.0, hi=1.0), window=st.sampled_from([0.0, 1.0]))
def test_generator_is_rhs_maps_bit_for_bit(g, gamma, nbar, window):
    # raw bits: %.16e writes -0.0 and 0.0 differently, and np.array_equal calls them equal.
    # At gamma = 5e-324, 0.5 gamma rounds to a zero whose sign the product does not follow.
    p = params(g=g, gamma=gamma, nbar=nbar)
    direct = _rhs_maps(g * window, p)
    assert np.array_equal(_generator(g * window, p).view(np.uint64), direct.view(np.uint64))


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
        # |<a b^dag>|^2 <= na (nb + 1) holds at t = 0, but nb = 0 forbids any
        # cross moment, so the exchange drives nb negative within one step
        start = MomentState(na=1.0, ab_dag=-0.9j)
        with pytest.raises(InvariantViolation, match=r"sample 1 at t=0\.01: negative occupation"):
            integrate(params(g=0.5), DriveProfile.off(), 0.01, 1.0, initial=start)

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
        for engine in (integrate, propagate):
            with pytest.raises(ValueError, match=message):
                engine(params(g=0.2, gamma=0.3, tau=1.0), DriveProfile.off(), step, t_end, stride)


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


def test_cli_import_leaves_scipy_out():
    code = "import sys, qbattery.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds qbattery as this run does
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


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

    def test_leg_without_kept_steps(self):
        # the stride keeps no step of the first leg, only the final one
        p = params(g=0.2, gamma=0.3, nbar=0.3, delta_r=0.4, tau=1.0)
        exact = assert_engines_agree(p, DRIVES[3], 0.01, 3.0, 10**9, initial=STARTS["injected"])
        assert exact.times.tolist() == [0.0, 3.0]

    def test_first_row_is_the_initial_state(self):
        start = STARTS["injected"]
        p = params(g=0.2, gamma=0.3, tau=1.0)
        traj = propagate(p, DriveProfile.static(0.2), 0.01, 2.0, 5, initial=start)
        assert np.array_equal(traj.moments[0], start.as_array())

    def test_zero_temperature_stays_coherent(self):
        # the centered block of a T = 0 run from the vacuum stays exactly zero
        p = params(g=0.2, gamma=0.05, tau=15.0)
        traj = propagate(p, DriveProfile.cd_sin_sq(0.2, 0.5), 0.01, 15.0, 5)
        a, b = traj.moments[:, 0], traj.moments[:, 1]
        assert np.array_equal(traj.moments[:, 2].real, a.real**2 + a.imag**2)
        assert np.array_equal(traj.moments[:, 5], a * a)
        assert np.array_equal(traj.moments[:, 4], a * b.conj())

    def test_steps_beyond_the_rk4_cap_stay_exact(self):
        # fig3's physics at step 0.2, 4x integrate's cap 0.05: the samples of step 0.01, stride 20
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

    def test_invariant_check_rejects_corrupt_initial(self):
        bad = MomentState(a_mean=1.0 + 0j, na=0.1)  # occupation below |<a>|^2
        with pytest.raises(InvariantViolation, match="sample 0 at t=0"):
            propagate(params(), DriveProfile.off(), 0.01, 0.5, initial=bad)
