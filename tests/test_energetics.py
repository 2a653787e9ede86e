import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.cli import OUTPUT_COLUMNS, trajectory_rows
from qbattery.dynamics import PHYSICALITY_TOL, MomentState, _bona_fide, _gaussian, integrate, propagate
from qbattery.energetics import (
    decompose,
    energy_columns,
    ergotropy_b,
    report_series,
)
from qbattery.errors import ConfigError, UnphysicalState
from qbattery.model import DriveProfile, ModelParams
from qbattery.oracle import dense_evolve, extract_moments


def coherent(beta):
    return MomentState(b_mean=beta, nb=abs(beta) ** 2, b_sq=beta**2)


def thermal(n):
    return MomentState(nb=n)


def displaced_thermal(beta, n):
    return MomentState(b_mean=beta, nb=n + abs(beta) ** 2, b_sq=beta**2)


def columns(states, omega0):
    """energy_columns of one row per state, with the (mu, Sigma) the engines take from a start state."""
    return energy_columns(*_gaussian(np.array([s.as_array() for s in states])), omega0)


class TestEnergy:
    @pytest.mark.parametrize("nb,omega0,expected", [(0.0, 1.0, 0.0), (0.5, 1.0, 0.5), (2.0, 3.0, 6.0)])
    def test_energy_b(self, nb, omega0, expected):
        e_b = columns([MomentState(nb=nb)], omega0)[0]
        assert e_b[0] == pytest.approx(expected)

    @pytest.mark.parametrize("alpha,omega0,expected", [(0j, 1.0, 0.0), (1.0 + 0j, 1.0, 1.0), (3j, 2.0, 18.0)])
    def test_energy_a(self, alpha, omega0, expected):
        e_a = columns([MomentState(a_mean=alpha, na=abs(alpha) ** 2)], omega0)[4]
        assert e_a[0] == pytest.approx(expected)


class TestErgotropy:
    def test_coherent_state_fully_extractable(self):
        rep = ergotropy_b(coherent(0.7 - 0.2j), omega0=2.0)
        assert rep.m_value == pytest.approx(1.0, abs=1e-12)
        assert rep.ergotropy_b == pytest.approx(rep.e_b, abs=1e-12)
        assert rep.passive_b == pytest.approx(0.0, abs=1e-12)

    def test_thermal_state_passive(self):
        n = 0.8
        rep = ergotropy_b(thermal(n), omega0=1.0)
        assert rep.m_value == pytest.approx((1 + 2 * n) ** 2, rel=1e-12)
        assert rep.ergotropy_b == 0.0
        assert rep.passive_b == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("beta,n", [(0.5 + 0.5j, 0.3), (1.2j, 1.0), (0.1, 0.01)])
    def test_displaced_thermal(self, beta, n):
        rep = ergotropy_b(displaced_thermal(beta, n), omega0=1.0)
        assert rep.ergotropy_b == pytest.approx(abs(beta) ** 2, abs=1e-9)

    def test_energy_overflowing_at_omega0_rejected(self):
        # nb = 2 at omega0 = 1e308 used to return e_b = inf and a NaN ergotropy
        with pytest.raises(UnphysicalState, match="energy overflows"):
            ergotropy_b(MomentState(nb=2.0), 1e308)

    @pytest.mark.parametrize("state, m", [(MomentState(nb=1e200), "inf"), (MomentState(nb=2e160, b_sq=1e160j), "nan")],
                             ids=["m_inf", "m_inf_minus_inf"])
    def test_occupation_whose_m_overflows_rejected(self, state, m):
        # e_b is finite, but M = 16 det sigma_B overflows (to inf, or to inf - inf): no column may be inf or nan.
        # The battery block is bona fide, so the uncertainty rule passes it at any scale and names the overflow
        with pytest.raises(UnphysicalState, match=f"energy overflows: M={m}"):
            ergotropy_b(state, 1.0)

    def test_block_the_rule_passes_with_negative_m_is_finite(self):
        # Sigma22 = -1/4 - 1e-10 is inside the engines' tolerance, but with Sigma33 = 2e8 M is -0.32
        mu, sigma = np.zeros((4, 1)), np.zeros((10, 1))
        sigma[7], sigma[9] = -0.25 - 1e-10, 2e8
        assert _bona_fide(sigma).all()
        e_b, erg, _, m, _ = (c[0] for c in energy_columns(mu, sigma, 1.0))
        assert m < 0.0
        assert 0.0 <= erg <= e_b + 2.0 * PHYSICALITY_TOL * (1.0 + 2.0 * (sigma[7, 0] + sigma[9, 0]))

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_omega0_that_model_params_refuses_is_refused(self, omega0):
        # -1.0 used to return e_b = passive = -1.0, and 0.0 all zeros
        with pytest.raises(ConfigError, match="omega0 must be finite and > 0"):
            ergotropy_b(MomentState(nb=1.0), omega0)

    def test_negative_occupation_fails_the_floor(self):
        # Sigma22 = Sigma33 = -1 is no covariance, although its M = 9 is above 1
        reason = "battery covariance breaks the uncertainty principle: M=9.0, centered nb=-2.0"
        with pytest.raises(UnphysicalState, match=reason):
            ergotropy_b(MomentState(nb=-2.0), 1.0)

    def test_unphysical_moments_rejected(self):
        # squeezing claim beyond what the occupation allows: M < 1
        bad = MomentState(nb=0.1, b_sq=0.5 + 0j)
        with pytest.raises(UnphysicalState):
            ergotropy_b(bad, 1.0)

    def test_tiny_negative_ergotropy_clamped(self):
        # n = 0.01 rounded <b'b> - (sqrt(M) - 1)/2 to -8.7e-18; an isotropic Sigma_B adds exactly 0 to |<b>|^2
        rep = ergotropy_b(thermal(0.01), omega0=1.0)
        assert rep.ergotropy_b == 0.0
        assert rep.passive_b == rep.e_b

    @pytest.mark.parametrize(
        "state",
        [
            MomentState(nb=math.nan),
            MomentState(nb=math.inf),
            MomentState(b_mean=complex(0.0, -math.inf)),
            MomentState(a_mean=complex(math.nan, 0.0), nb=1.0),
        ],
    )
    def test_non_finite_state_rejected(self, state):
        with pytest.raises(UnphysicalState, match="non-finite moment"):
            ergotropy_b(state, 1.0)
        with pytest.raises(UnphysicalState, match="non-finite moment"):
            columns([state], 1.0)

    @pytest.mark.parametrize(
        "row,entry,value,message",
        [
            (5, 7, -0.5, "sample 5 at t=0.5: battery covariance breaks the uncertainty principle"),  # Sigma22 < -1/4
            (3, 9, math.nan, "sample 3 at t=0.3: non-finite moment"),
        ],
        ids=["sigma22_below_vacuum", "sigma33_nan"],
    )
    def test_series_names_first_bad_sample(self, row, entry, value, message):
        # ``entry`` is the packed Sigma entry energetics reads
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.4, delta_r=0.0, tau=50.0)
        traj = integrate(params, DriveProfile.cd_sin_sq(0.3, 0.5), 0.01, 1.0, sample_stride=10)
        sigma, mu = traj.sigma.copy(), traj.mu.copy()
        sigma[entry, row] = value
        mu[2, row + 2] = math.inf  # a later bad sample is not the one named
        with pytest.raises(UnphysicalState, match=message):
            report_series(dataclasses.replace(traj, mu=mu, sigma=sigma))

    def test_report_invariants_along_trajectory(self):
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.4, delta_r=0.0, tau=50.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        traj = integrate(params, prof, 0.01, 10.0, sample_stride=10)
        for rep in report_series(traj):
            assert rep.m_value >= 1.0 - 1e-9
            assert -1e-9 <= rep.ergotropy_b <= rep.e_b + 1e-9
            assert rep.passive_b >= -1e-9


class TestEngineCovariance:
    """The energy columns read the engine's Sigma, which does not depend on the drive's scale."""

    @staticmethod
    def artifact_columns(nbar, prof):
        """(e_b, ergotropy, M) artifact columns of a stride-1 run of gamma = 0.05, g = 0.2 to t = 20."""
        params = ModelParams(omega0=1.0, g=0.2, gamma=0.05, nbar=nbar, delta_r=0.0, tau=20.0)
        traj = propagate(params, prof, 0.01, 20.0, sample_stride=1)
        rows = trajectory_rows(traj)
        names = ("e_b_over_omega0", "ergotropy_b_over_omega0", "m_value")
        return tuple(rows[:, OUTPUT_COLUMNS.index(name)] for name in names)

    @pytest.mark.parametrize(
        "prof",
        [DriveProfile.static(0.2), DriveProfile.static(10.0), DriveProfile.cd_sin_sq(1.0, 0.5)],
        ids=lambda d: f"{d.kind.value}-{d.f0:g}",
    )
    def test_zero_temperature_vacuum_start_is_all_extractable(self, prof):
        # T = 0 from the vacuum keeps Sigma exactly zero, so M = 1 on every row however large the means
        e_b, erg, m = self.artifact_columns(0.0, prof)
        assert np.all(m == 1.0)
        assert np.array_equal(erg, e_b)

    def test_m_does_not_depend_on_the_drive_amplitude(self):
        # the model is linear: the drive moves the means only, not Sigma
        small, large = (self.artifact_columns(0.3, DriveProfile.static(f0))[2] for f0 in (0.2, 1e5))
        assert np.max(small) > 1.4
        assert np.all(np.abs(large - small) <= 1e-9 * np.maximum(1.0, small))


def exact_ergotropy(mu, sigma):
    """|<b>|^2 + (1 + 2 tr Sigma_B - sqrt(M))/2 of each row, in 80-digit decimals, rounded once to a double."""
    out = []
    with decimal.localcontext(decimal.Context(prec=80)):
        for row in zip(mu[2], mu[3], *sigma[7:]):
            m2, m3, s22, s23, s33 = (decimal.Decimal(float(x)) for x in row)
            m = (1 + 4 * s22) * (1 + 4 * s33) - 16 * s23 * s23
            out.append(float(m2 * m2 + m3 * m3 + (1 + 2 * (s22 + s33) - m.sqrt()) / 2))
    return np.array(out)


class TestHotBath:
    @pytest.mark.parametrize("nbar", [1e4, 1e8, 1e12, 1e20])
    def test_ergotropy_does_not_cancel(self, nbar):
        # <b'b> - (sqrt(M) - 1)/2 lost 5.7e-13 of |<b>|^2 at nbar = 1e4 and read 8,192 where it is 25.9 at 1e20
        params = ModelParams.build(omega0=1.0, g=0.2, gamma=0.05, nbar=nbar, kappa=1.0, tau=20.0)
        traj = propagate(params, DriveProfile.cd_sin_sq(0.2, 0.5), 0.01, 20.0, sample_stride=10)
        erg = energy_columns(traj.mu, traj.sigma, 1.0, traj.times)[1]
        exact = exact_ergotropy(traj.mu, traj.sigma)
        assert np.all(np.abs(erg - exact) <= 1e-15 * np.maximum(1.0, exact))


class TestDecompose:
    def test_thermal_only_run(self):
        params = ModelParams(omega0=1.0, g=0.2, gamma=0.8, nbar=0.6, delta_r=0.0, tau=50.0)
        res = decompose(params, DriveProfile.off(), step=0.01, t_end=5.0, sample_stride=10)
        assert max(r.e_b for r in res.coherent) == 0.0
        for tot, th in zip(res.total, res.thermal):
            assert tot.e_b == pytest.approx(th.e_b, abs=1e-12)

    def test_coherent_only_run(self):
        params = ModelParams(omega0=1.0, g=0.2, gamma=0.8, nbar=0.0, delta_r=0.0, tau=50.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        res = decompose(params, prof, step=0.01, t_end=5.0, sample_stride=10)
        assert max(r.e_b for r in res.thermal) == 0.0
        for tot, co in zip(res.total, res.coherent):
            assert tot.e_b == pytest.approx(co.e_b, abs=1e-12)

    def test_mixed_run_additivity_and_ergotropy(self):
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.5, delta_r=0.0, tau=50.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        res = decompose(params, prof, step=0.005, t_end=10.0, sample_stride=10)
        assert res.max_energy_residual < 1e-6
        assert res.max_ergotropy_residual < 1e-6
        assert max(r.ergotropy_b for r in res.thermal) <= 1e-9

    def test_large_omega0_scales_the_unit_run(self):
        # omega0 enters no moment; clamp and residuals are in its units, so 1e8 used to fail the clamp at t = 0.1
        unit, big = (
            decompose(ModelParams(omega0=w0, g=0.2, gamma=0.05, nbar=0.3, delta_r=0.0, tau=20.0),
                      DriveProfile.cd_sin_sq(0.2, 0.5), step=0.01, t_end=20.0, sample_stride=10)
            for w0 in (1.0, 1e8)
        )
        for part in ("total", "thermal", "coherent"):
            for r1, r8 in zip(getattr(unit, part), getattr(big, part)):
                assert (r8.e_b, r8.ergotropy_b) == (1e8 * r1.e_b, 1e8 * r1.ergotropy_b)


def passive_energy_dense(rho_b, omega0):
    """Passive energy of a battery density matrix: eigenvalues sorted decreasingly
    paired with the increasing Fock ladder."""
    eigs = np.linalg.eigvalsh(0.5 * (rho_b + rho_b.conj().T))
    return float(np.sort(eigs)[::-1] @ (omega0 * np.arange(len(eigs))))


class TestPassiveStateOracle:
    def test_gaussian_closed_form_matches_spectral_reordering(self):
        # brute-force passive energy of the reduced battery state against
        # omega0*(sqrt(M)-1)/2 from the moments of the same dense run
        params = ModelParams(omega0=1.0, g=0.25, gamma=0.8, nbar=0.2, delta_r=0.0, tau=6.0)
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        run = dense_evolve(params, prof, cutoffs=(14, 14), step=0.01, t_end=6.0, sample_stride=150)
        for state in run.states[1:]:
            m = extract_moments(state)
            closed_form = (np.sqrt(columns([m], 1.0)[3][0]) - 1.0) / 2.0
            brute = passive_energy_dense(state.reduced_battery(), omega0=1.0)
            assert brute == pytest.approx(closed_form, abs=1e-9)


def squeezed_thermal_row(alpha, beta, n, r, phi):
    """Moments of a coherent charger and a displaced squeezed thermal battery."""
    nb = (2 * n + 1) * math.cosh(2 * r) / 2 - 0.5 + abs(beta) ** 2
    b_sq = -(2 * n + 1) * complex(math.cos(phi), math.sin(phi)) * math.sinh(2 * r) / 2 + beta**2
    return MomentState(a_mean=alpha, b_mean=beta, na=abs(alpha) ** 2, nb=nb, b_sq=b_sq)


_amplitude = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
_states = st.builds(
    squeezed_thermal_row,
    alpha=_amplitude,
    beta=_amplitude,
    n=st.floats(0.0, 5.0),
    r=st.floats(0.0, 1.5),
    phi=st.floats(0.0, 2 * math.pi),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(states=st.lists(_states, min_size=1, max_size=6), omega0=st.floats(0.1, 5.0))
def test_batch_rows_match_single_state_calls(states, omega0):
    batch = np.column_stack(columns(states, omega0))
    bound = omega0 * (1.0 - math.sqrt(1.0 - 1e-6)) / 2.0
    for state, row in zip(states, batch):
        single = np.array(tuple(ergotropy_b(state, omega0)))
        assert single.tobytes() == row.tobytes()
        e_b, erg, _, m, _ = row
        assert m >= 1.0 - 1e-6
        assert 0.0 <= erg <= e_b + bound


_DRIVES = (
    DriveProfile.off(), DriveProfile.static(0.2), DriveProfile.sin_sq(0.2, 0.5), DriveProfile.cd_sin_sq(0.2, 0.5)
)


@pytest.mark.parametrize("profile", _DRIVES, ids=lambda p: p.kind.value)
@pytest.mark.parametrize("delta_r", [0.0, 0.4])
@pytest.mark.parametrize("nbar", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("g,gamma", [(0.2, 0.05), (0.2, 1.0), (0.5, 0.3)])
def test_passive_generator_keeps_battery_isotropic(g, gamma, nbar, delta_r, profile):
    # a beam splitter plus charger loss is passive: from the vacuum the battery covariance
    # stays isotropic (Sigma22 = Sigma33, Sigma23 = 0), so its ergotropy is omega0 |beta|^2
    params = ModelParams(omega0=1.0, g=g, gamma=gamma, nbar=nbar, delta_r=delta_r, tau=12.0)
    traj = propagate(params, profile, 0.01, 20.0, sample_stride=1)
    e_b, erg, *_ = energy_columns(traj.mu, traj.sigma, params.omega0, traj.times)
    beta = traj.moments[:, 1]
    tol = 1e-12 * max(1.0, float(np.max(e_b)))
    assert np.max(np.abs(traj.sigma[7] - traj.sigma[9])) <= tol
    assert np.max(np.abs(traj.sigma[8])) <= tol
    assert np.max(np.abs(erg - params.omega0 * (beta.real**2 + beta.imag**2))) <= tol
