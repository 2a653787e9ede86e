import math

import numpy as np
import pytest

from qbattery.cd_control import _transitionless, cd_hamiltonian_closed, drive_field, drive_harmonics, propagate_unitary
from qbattery.errors import DegenerateSpectrum, GridTooCoarse, SingularDenominator
from qbattery.model import DriveProfile, envelope


def two_level_sweep(delta, lam0, t_total, n):
    """Avoided-crossing stack H0(t) = (delta*sx + lam(t)*sz)/2, lam = lam0*cos(pi t/T), shape (n, 2, 2)."""
    ts = np.linspace(0.0, t_total, n)
    lam, d = lam0 * np.cos(np.pi * ts / t_total), np.full(n, delta)
    return ts, 0.5 * np.moveaxis(np.array([[lam, d], [d, -lam]], dtype=complex), -1, 0)


def reference_cd_field(t, f0, w, delta_r, gamma):
    """F - i Fdot/(delta_r - i gamma/2) for F = f0 sin^2(w t), written out."""
    f = f0 * math.sin(w * t) ** 2
    f_dot = 2.0 * f0 * w * math.sin(w * t) * math.cos(w * t)
    return f - 1j * f_dot / complex(delta_r, -0.5 * gamma)


class TestCdField:
    def test_zero_at_start(self):
        prof = DriveProfile.cd_sin_sq(1.0, 0.7)
        assert drive_field(0.0, prof, delta_r=0.3, gamma=0.2) == 0.0

    def test_bare_at_envelope_peak(self):
        # Fdot vanishes at the peak, so the CD field reduces to F0 there
        prof = DriveProfile.cd_sin_sq(0.8, 1.0)
        assert drive_field(math.pi / 2.0, prof, delta_r=0.3, gamma=0.2) == pytest.approx(0.8, abs=1e-12)

    def test_symbolic_substitution_point(self):
        # F = 1/2, Fdot = 1, denominator -i: F_cd = 1/2 - i*1/(-i) = 3/2
        prof = DriveProfile.cd_sin_sq(1.0, 1.0)
        f_cd = drive_field(math.pi / 4.0, prof, delta_r=0.0, gamma=2.0)
        assert f_cd == pytest.approx(1.5, abs=1e-12)
        assert f_cd == pytest.approx(reference_cd_field(math.pi / 4.0, 1.0, 1.0, 0.0, 2.0), abs=1e-15)

    @pytest.mark.parametrize("delta_r,gamma", [(0.3, 0.2), (0.0, 1.0), (-3.0, 0.0)])
    def test_matches_written_out_formula(self, delta_r, gamma):
        prof = DriveProfile.cd_sin_sq(0.7, 1.3)
        for t in np.linspace(0.0, 10.0, 101):
            expected = reference_cd_field(float(t), 0.7, 1.3, delta_r, gamma)
            assert abs(drive_field(float(t), prof, delta_r, gamma) - expected) <= 1e-14 * max(1.0, abs(expected))

    def test_singular_denominator(self):
        prof = DriveProfile.cd_sin_sq(1.0, 1.0)
        with pytest.raises(SingularDenominator):
            drive_field(0.3, prof, delta_r=0.0, gamma=0.0)

    def test_correction_vanishes_for_bare_profiles(self):
        # no correction, so no singular denominator at delta_r = gamma = 0
        prof = DriveProfile.sin_sq(1.0, 1.0)
        assert drive_field(0.9, prof, delta_r=0.0, gamma=0.0) == envelope(0.9, prof)

    def test_large_gamma_correction_bound(self):
        # |F_cd - F| <= 2*F0*omega/gamma at zero detuning
        f0, w = 0.5, 1.2
        prof = DriveProfile.cd_sin_sq(f0, w)
        ts = np.linspace(0, 10, 500)
        for gamma in (10.0, 100.0, 1000.0):
            worst = np.max(np.abs(drive_field(ts, prof, 0.0, gamma) - envelope(ts, prof)))
            assert worst <= 2.0 * f0 * w / gamma + 1e-15

    def test_drive_field_dispatch(self):
        assert drive_field(1.0, DriveProfile.off(), 0.1, 0.1) == 0.0
        assert drive_field(1.0, DriveProfile.static(0.3), 0.1, 0.1) == 0.3
        cd_prof = DriveProfile.cd_sin_sq(1.0, 1.0)
        assert drive_field(math.pi / 4, cd_prof, 0.0, 2.0) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "prof",
        [
            DriveProfile.off(),
            DriveProfile.static(0.3),
            DriveProfile.sin_sq(0.3, 0.7),
            DriveProfile.cd_sin_sq(0.3, 0.7),
        ],
        ids=lambda d: d.kind.value,
    )
    def test_drive_field_on_array_matches_scalar_calls(self, prof):
        ts = np.linspace(0.0, 37.0, 1001)
        for delta_r, gamma in ((0.4, 0.3), (0.0, 1.0), (-3.0, 0.0)):
            field = drive_field(ts, prof, delta_r, gamma)
            scalars = [drive_field(float(t), prof, delta_r, gamma) for t in ts]
            assert field.shape == ts.shape
            assert np.array_equal(field, np.array(scalars))

    @pytest.mark.parametrize(
        "prof",
        [
            DriveProfile.off(),
            DriveProfile.static(0.3),
            DriveProfile.sin_sq(0.3, 0.7),
            DriveProfile.cd_sin_sq(0.3, 0.7),
        ],
        ids=lambda d: d.kind.value,
    )
    def test_harmonics_rebuild_the_field(self, prof):
        ts = np.linspace(0.0, 37.0, 1001)
        for delta_r, gamma in ((0.4, 0.3), (0.0, 1.0), (-3.0, 0.0)):
            c0, c_plus, c_minus = drive_harmonics(prof, delta_r, gamma)
            phase = np.exp(2j * prof.omega_env * ts)
            rebuilt = c0 + c_plus * phase + c_minus / phase
            assert np.max(np.abs(rebuilt - drive_field(ts, prof, delta_r, gamma))) <= 1e-14


class TestCdHamiltonianClosed:
    def test_constant_hamiltonian_gives_zero(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = m + m.conj().T
        cd = cd_hamiltonian_closed(0.1 * np.arange(5), np.broadcast_to(h, (5, 3, 3)))
        assert cd.shape == (5, 3, 3)
        assert np.max(np.abs(cd)) < 1e-10

    def test_identity_shift_invariance(self):
        ts, h = two_level_sweep(0.5, 4.0, 2.0, 201)
        shifted = h + (1.0 + 0.3 * ts)[:, None, None] * np.eye(2)
        dev = np.max(np.abs(cd_hamiltonian_closed(ts, h) - cd_hamiltonian_closed(ts, shifted)))
        assert dev < 1e-9

    def test_two_level_closed_form(self):
        # exact CD term for the avoided crossing: -(delta*lamdot / (2 E^2)) * sigma_y
        delta, lam0, t_total, n = 0.5, 8.0, 2.0, 4001
        ts, h = two_level_sweep(delta, lam0, t_total, n)
        cd = cd_hamiltonian_closed(ts, h)
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        worst = 0.0
        for k in range(1, n - 1, 100):
            t = ts[k]
            lam = lam0 * math.cos(math.pi * t / t_total)
            lamdot = -lam0 * math.pi / t_total * math.sin(math.pi * t / t_total)
            exact = -(delta * lamdot / (2.0 * (delta**2 + lam**2))) * sy
            worst = max(worst, float(np.max(np.abs(cd[k] - exact))))
        assert worst < 1e-3  # limited by the second-order finite differences

    def test_output_hermitian_traceless(self):
        ts, h = two_level_sweep(0.5, 8.0, 2.0, 801)
        for m in cd_hamiltonian_closed(ts, h)[::100]:
            assert np.max(np.abs(m - m.conj().T)) < 1e-14
            assert abs(np.trace(m)) < 1e-14

    def test_off_diagonal_imaginary_in_sz_basis(self):
        ts, h = two_level_sweep(0.5, 8.0, 2.0, 801)
        mid = cd_hamiltonian_closed(ts, h)[400]
        assert abs(mid[0, 0]) < 1e-12 and abs(mid[1, 1]) < 1e-12
        assert abs(mid[0, 1].real) < 1e-12
        assert abs(mid[0, 1].imag) > 1e-4

    def test_gauge_invariance_under_random_phases(self):
        ts, h = two_level_sweep(0.5, 4.0, 2.0, 401)
        vecs = np.linalg.eigh(h)[1]
        dt = ts[1] - ts[0]
        reference = _transitionless(dt, vecs)
        rng = np.random.default_rng(11)
        scrambled = vecs * np.exp(2j * np.pi * rng.random((len(ts), 2)))[:, None, :]
        dev = np.max(np.abs(reference - _transitionless(dt, scrambled)))
        assert dev < 1e-8

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum, match="at t=0.0"):
            cd_hamiltonian_closed(0.1 * np.arange(5), np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)))

    def test_grid_too_coarse_raises(self):
        # 5 samples across a sharp crossing: adjacent eigenvectors nearly orthogonal
        ts, h = two_level_sweep(0.01, 50.0, 2.0, 5)
        with pytest.raises(GridTooCoarse):
            cd_hamiltonian_closed(ts, h)

    def test_requires_uniform_grid(self):
        ts, h = two_level_sweep(0.5, 4.0, 2.0, 51)
        keep = np.arange(51) != 10
        with pytest.raises(ValueError, match=f"at t={ts[11]}"):
            cd_hamiltonian_closed(ts[keep], h[keep])

    @pytest.mark.parametrize("n_times", [50, 52])
    def test_one_time_per_matrix(self, n_times):
        ts, h = two_level_sweep(0.5, 4.0, 2.0, 51)
        ts = np.linspace(0.0, 2.0, n_times)
        with pytest.raises(ValueError, match=f"after t={ts[min(n_times, 51) - 1]}"):
            cd_hamiltonian_closed(ts, h)

    @pytest.mark.parametrize(
        "n,shape,message",
        [
            (3, (3, 2), r"\(n, d, d\) stack of square matrices, got shape \(3, 2\)"),
            (3, (3, 2, 3), r"\(n, d, d\) stack of square matrices, got shape \(3, 2, 3\)"),
            (2, (2, 2, 2), "need at least 3 samples for finite differences"),
        ],
    )
    def test_rejects_samples_that_are_no_grid_of_matrices(self, n, shape, message):
        with pytest.raises(ValueError, match=message):
            cd_hamiltonian_closed(0.1 * np.arange(n), np.zeros(shape, dtype=complex))

    def test_non_hermitian_sample_names_its_time(self):
        ts, h = two_level_sweep(0.5, 4.0, 2.0, 51)
        h[7, 0, 1] += 1e-6j
        with pytest.raises(ValueError, match=f"not Hermitian .* at t={ts[7]}"):
            cd_hamiltonian_closed(ts, h)


class TestTransitionless:
    def test_cd_keeps_instantaneous_ground_state(self):
        delta, lam0, t_total, n = 0.5, 8.0, 2.0, 2001
        ts, h = two_level_sweep(delta, lam0, t_total, n)
        grounds = np.linalg.eigh(h)[1][:, :, 0]
        psi_cd = propagate_unitary(ts, h + cd_hamiltonian_closed(ts, h), grounds[0])
        psi_bare = propagate_unitary(ts, h, grounds[0])
        ov_cd = min(abs(np.vdot(grounds[k], psi_cd[k])) ** 2 for k in range(0, n, 25))
        ov_bare = abs(np.vdot(grounds[-1], psi_bare[-1])) ** 2
        assert ov_cd >= 1.0 - 1e-4
        assert ov_bare < 0.9
