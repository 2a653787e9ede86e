import math
import re

import numpy as np
import pytest

from moment_reference import moment_rhs
from qbattery.errors import ConfigError
from qbattery.dynamics import MomentState, propagate
from qbattery.model import DriveKind, DriveProfile, ModelParams, bose_occupation, envelope


class TestBoseOccupation:
    def test_zero_temperature_limit(self):
        assert bose_occupation(1.0, 0.0) == 0.0

    def test_log2_ratio_gives_one_quantum(self):
        # omega0/kT = ln 2  =>  1/(2 - 1) = 1
        assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_log_1p5_ratio_gives_two_quanta(self):
        assert bose_occupation(math.log(1.5), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_strictly_increasing_in_temperature(self):
        kts = np.linspace(0.05, 5.0, 40)
        occ = [bose_occupation(1.3, kt) for kt in kts]
        assert all(b > a for a, b in zip(occ, occ[1:]))

    def test_underflowed_ratio_is_infinite(self):
        # omega0/kT underflows to 0.0, where 1/expm1 would divide by zero; params reject the inf as for 5e-324/1
        assert bose_occupation(1e-308, 1e308) == math.inf
        for omega0, kt in ((1e-308, 1e308), (5e-324, 1.0)):
            with pytest.raises(ConfigError, match="nbar must be finite, got inf"):
                ModelParams.build(omega0=omega0, kT=kt)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, -0.1)


def coupling_seen(t, tau, g=0.3):
    """The coupling window moment_rhs applies at ``t``, read off d<b>/dt = -i g window <a> at <a> = 1."""
    p = ModelParams(omega0=1.0, g=g, gamma=0.0, nbar=0.0, delta_r=0.0, tau=tau)
    return moment_rhs(t, MomentState(a_mean=1.0 + 0j), p, DriveProfile.off()).b_mean * 1j / g


class TestCouplingWindow:
    @pytest.mark.parametrize(
        "t,tau,expected",
        [(-0.1, 1.0, 0.0), (0.5, 1.0, 1.0), (1.1, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)],
    )
    def test_window_values(self, t, tau, expected):
        assert coupling_seen(t, tau) == expected

    def test_binary_exactly(self):
        for t in np.linspace(-2, 4, 101):
            assert coupling_seen(float(t), 1.7) in (0.0, 1.0)


class TestEnvelope:
    def test_off_is_zero(self):
        prof = DriveProfile.off()
        assert envelope(12.3, prof) == 0.0

    def test_sin_sq_peak(self):
        prof = DriveProfile.sin_sq(2.0, 1.0)
        assert envelope(math.pi / 2.0, prof) == pytest.approx(2.0, abs=1e-12)

    def test_sin_sq_starts_at_zero(self):
        prof = DriveProfile.sin_sq(1.0, 0.7)
        assert envelope(0.0, prof) == 0.0

    def test_static_is_flat(self):
        prof = DriveProfile.static(0.4)
        assert envelope(0.0, prof) == envelope(33.0, prof) == 0.4

    @pytest.mark.parametrize("kind", [DriveKind.SIN_SQ, DriveKind.CD_SIN_SQ])
    def test_bounded_by_peak_amplitude(self, kind):
        prof = DriveProfile(kind, f0=0.8, omega_env=1.3)
        for t in np.linspace(0.0, 20.0, 400):
            v = envelope(float(t), prof)
            assert 0.0 <= v <= 0.8 + 1e-15


class TestParamsValidation:
    def test_profile_requires_positive_envelope_frequency(self):
        with pytest.raises(ConfigError):
            DriveProfile.sin_sq(1.0, 0.0)

    def test_profile_rejects_negative_amplitude(self):
        with pytest.raises(ConfigError):
            DriveProfile.static(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega0=0.0, g=0.1, gamma=0.1, nbar=0.0, delta_r=0.0, tau=1.0),
            dict(omega0=1.0, g=-0.1, gamma=0.1, nbar=0.0, delta_r=0.0, tau=1.0),
            dict(omega0=1.0, g=0.1, gamma=-0.1, nbar=0.0, delta_r=0.0, tau=1.0),
            dict(omega0=1.0, g=0.1, gamma=0.1, nbar=-0.5, delta_r=0.0, tau=1.0),
            dict(omega0=1.0, g=0.1, gamma=0.1, nbar=0.0, delta_r=0.0, tau=0.0),
        ],
    )
    def test_params_invariants(self, kwargs):
        with pytest.raises(ConfigError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("field", ["omega0", "g", "gamma", "nbar", "delta_r", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, field, value):
        kwargs = dict(omega0=1.0, g=0.1, gamma=0.1, nbar=0.0, delta_r=0.0, tau=1.0)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("field", ["f0", "omega_env"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_profile_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            DriveProfile(DriveKind.CD_SIN_SQ, **{"f0": 0.2, "omega_env": 0.5, field: value})

    @pytest.mark.parametrize("kind", list(DriveKind))
    def test_profile_kind_may_be_its_value(self, kind):
        # a plain string used to compare equal to the member yet fail the engines' identity tests:
        # "cd_sin_sq" ran as a bare field in drive_field but took the CD branch of drive_harmonics
        params = ModelParams(omega0=1.0, g=0.2, gamma=0.05, nbar=0.3, delta_r=0.5, tau=5.0)
        by_value, by_member = DriveProfile(kind.value, 0.2, 0.5), DriveProfile(kind, 0.2, 0.5)
        assert by_value.kind is kind
        a, b = (propagate(params, p, 0.05, 5.0, sample_stride=10) for p in (by_value, by_member))
        assert np.array_equal(a.mu.view(np.uint64), b.mu.view(np.uint64))
        assert np.array_equal(a.sigma.view(np.uint64), b.sigma.view(np.uint64))

    @pytest.mark.parametrize("kind", ["bogus", "SIN_SQ", None, True, [], math.nan])
    def test_profile_rejects_unknown_kind(self, kind):
        kinds = r"\['off', 'static', 'sin_sq', 'cd_sin_sq'\]"
        with pytest.raises(ConfigError, match=rf"^drive\.profile must be one of {kinds}, got {re.escape(repr(kind))}$"):
            DriveProfile(kind, 0.2, 0.5)

    def test_build_resolves_kappa(self):
        p = ModelParams.build(omega0=2.0, g=0.1, gamma=0.1, tau=1.0, kappa=0.5)
        assert p.delta_r == pytest.approx(1.0)
        assert p.kappa == pytest.approx(0.5)

    def test_build_resolves_temperature(self):
        p = ModelParams.build(omega0=math.log(2.0), g=0.0, gamma=0.1, tau=1.0, kT=1.0)
        assert p.nbar == pytest.approx(1.0, rel=1e-12)

    def test_build_rejects_double_specification(self):
        with pytest.raises(ConfigError):
            ModelParams.build(nbar=0.1, kT=0.1)
        with pytest.raises(ConfigError):
            ModelParams.build(delta_r=0.1, kappa=0.5)
