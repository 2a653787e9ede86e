import numpy as np
import pytest

from qbattery.analytic import (
    B_INTERPRETATIONS,
    alpha_analytic,
    beta_analytic,
    coefficients,
    validate_against_numerics,
)
from qbattery.dynamics import integrate
from qbattery.errors import ResonantEnvelope, SingularDenominator
from qbattery.model import DriveProfile, ModelParams


def params(g=0.2, gamma=1.0, delta_r=0.0, nbar=0.0):
    return ModelParams(omega0=1.0, g=g, gamma=gamma, nbar=nbar, delta_r=delta_r, tau=100.0)


class TestCoefficients:
    def test_no_drive_gives_zero_response(self):
        prof = DriveProfile.cd_sin_sq(0.0, 0.5)
        for name in B_INTERPRETATIONS:
            c = coefficients(params(), prof, name)
            assert c.d == c.p == c.f == 0

    def test_underdamped_epsilon_purely_imaginary(self):
        c = coefficients(params(g=0.1, gamma=0.0, delta_r=0.3), DriveProfile.cd_sin_sq(0.1, 0.5))
        assert c.epsilon == pytest.approx(0.4j, abs=1e-14)

    def test_overdamped_epsilon_figure_value(self):
        # gamma = omega0, g = 0.2 omega0: epsilon = sqrt(1 - 0.64) = 0.6
        c = coefficients(params(g=0.2, gamma=1.0), DriveProfile.cd_sin_sq(0.2, 0.5))
        assert c.epsilon == pytest.approx(0.6, abs=1e-14)

    def test_f_construction_identity(self):
        prof = DriveProfile.cd_sin_sq(0.3, 0.7)
        for name in B_INTERPRETATIONS:
            c = coefficients(params(gamma=0.4, delta_r=0.2), prof, name)
            rebuilt = -(2.0 / c.epsilon) * (2.0 * prof.omega_env * c.d + 0.25 * (c.epsilon + c.gamma) * c.p)
            assert c.f == pytest.approx(rebuilt, rel=1e-12)

    def test_resonant_envelope_raises(self):
        prof = DriveProfile.cd_sin_sq(0.1, 0.1)  # 2w = g
        with pytest.raises(ResonantEnvelope):
            coefficients(params(g=0.2), prof)

    def test_requires_cd_profile(self):
        with pytest.raises(ValueError):
            coefficients(params(), DriveProfile.sin_sq(0.1, 0.5))

    def test_undefined_cd_drive_raises_as_the_drive_does(self):
        # delta_r = gamma = 0 used to raise a bare ZeroDivisionError
        with pytest.raises(SingularDenominator):
            coefficients(params(gamma=0.0), DriveProfile.cd_sin_sq(0.1, 0.5))


class TestClosedFormTrajectories:
    def test_alpha_vanishes_at_start(self):
        prof = DriveProfile.cd_sin_sq(0.2, 0.5)
        for name in B_INTERPRETATIONS:
            c = coefficients(params(), prof, name)
            assert abs(alpha_analytic(0.0, c, params())) < 1e-14
            assert abs(beta_analytic(0.0, c, params())) < 1e-14

    def test_zero_drive_is_zero_everywhere(self):
        prof = DriveProfile.cd_sin_sq(0.0, 0.5)
        c = coefficients(params(), prof)
        taus = np.linspace(0, 20, 50)
        assert np.max(np.abs(alpha_analytic(taus, c, params()))) == 0.0
        assert np.max(np.abs(beta_analytic(taus, c, params()))) == 0.0

    def test_branch_continuity_across_critical_damping(self):
        # principal square root keeps alpha, beta continuous through gamma = 4g.
        # alpha is exactly even in epsilon so its gap closes linearly in the
        # offset; the published beta bracket is not (its p-term exponential is
        # one-sided), leaving a sqrt(offset) approach that needs the tight 1e-12
        g, w, f0 = 0.2, 0.45, 0.3
        taus = np.linspace(0.0, 10.0, 60)
        alphas, betas = [], []
        for gamma in (4 * g * (1 - 1e-12), 4 * g * (1 + 1e-12)):
            p = params(g=g, gamma=gamma, delta_r=0.1)
            c = coefficients(p, DriveProfile.cd_sin_sq(f0, w))
            alphas.append(alpha_analytic(taus, c, p))
            betas.append(beta_analytic(taus, c, p))
        assert np.max(np.abs(alphas[0] - alphas[1])) < 1e-9
        assert np.max(np.abs(betas[0] - betas[1])) < 1e-6


class TestValidation:
    def test_zero_drive_trivially_verified(self):
        report = validate_against_numerics(params(), DriveProfile.cd_sin_sq(0.0, 0.5), t_end=5.0)
        assert report.status == "VERIFIED"
        assert all(f.max_dev_alpha == 0.0 for f in report.fits)

    def test_resonant_zero_detuning_alpha_machine_accurate(self):
        # at kappa = 1 the published p coefficient is consistent; reading the
        # undefined symbol as p reproduces alpha to integrator accuracy
        report = validate_against_numerics(
            params(g=0.2, gamma=1.0, delta_r=0.0), DriveProfile.cd_sin_sq(0.2, 0.5), t_end=15.0
        )
        assert report.status == "VERIFIED"
        assert report.best == "p"
        best = report.fits[0]
        assert best.max_dev_alpha < 1e-9

    def test_underdamped_branch_exercised(self):
        p = params(g=0.2, gamma=0.05, delta_r=0.0)
        report = validate_against_numerics(p, DriveProfile.cd_sin_sq(0.05, 0.5), t_end=15.0)
        assert report.status == "VERIFIED"
        assert report.best == "p"
        c = coefficients(p, DriveProfile.cd_sin_sq(0.05, 0.5), "p")
        assert abs(c.epsilon.real) < 1e-12 and c.epsilon.imag > 0

    def test_detuned_case_ranks_candidates(self):
        # away from kappa = 1 no reading reaches the threshold; the report
        # says so instead of guessing
        report = validate_against_numerics(
            params(g=0.2, gamma=1.0, delta_r=0.5), DriveProfile.cd_sin_sq(0.2, 0.5), t_end=15.0
        )
        assert report.status == "UNVERIFIED"
        devs = [f.max_dev_alpha for f in report.fits]
        assert devs == sorted(devs)

    def test_slow_envelope_underdamped_stays_physical(self):
        # RK4 drifted the raw <a^dag a> to -2.9e-10 at t = 6.9 here, below the
        # physicality tolerance; the exact centered block stays zero at T = 0
        p = ModelParams.build(g=0.23252805562981113, gamma=0.05, nbar=0.0, kappa=1.0, tau=15.0)
        prof = DriveProfile.cd_sin_sq(0.1663758466967652, 0.5678772110862784)
        report = validate_against_numerics(p, prof, t_end=15.0, sample_stride=5)
        assert report.status == "VERIFIED"
        assert report.best == "p"

    def test_uncoupled_point_rejected_by_name(self):
        # beta divides by g^2: g = 0 used to raise ZeroDivisionError inside beta_analytic
        with pytest.raises(ValueError, match="g = 0"):
            validate_against_numerics(params(g=0.0), DriveProfile.cd_sin_sq(0.1, 0.5), t_end=1.0)

    def test_requires_zero_temperature(self):
        with pytest.raises(ValueError):
            validate_against_numerics(params(nbar=0.5), DriveProfile.cd_sin_sq(0.1, 0.5))

    def test_report_serializes(self):
        report = validate_against_numerics(
            params(g=0.2, gamma=1.0), DriveProfile.cd_sin_sq(0.2, 0.5), t_end=5.0
        )
        d = report.to_dict()
        assert d["status"] in ("VERIFIED", "UNVERIFIED")
        assert len(d["fits"]) == len(B_INTERPRETATIONS)

    def test_energy_consistency_within_reported_residual(self):
        # omega0*|beta|^2 deviates from the numeric battery energy by no more
        # than the reported beta deviation allows
        p = params(g=0.2, gamma=1.0)
        report = validate_against_numerics(p, DriveProfile.cd_sin_sq(0.2, 0.5), t_end=15.0)
        for fit in report.fits:
            bound = (2.0 * report.beta_scale + fit.max_dev_beta) * fit.max_dev_beta + 1e-12
            assert fit.max_dev_energy <= bound
