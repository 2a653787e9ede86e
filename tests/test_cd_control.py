import math

import numpy as np
import pytest

from qbattery.cd_control import (
    HermitianTrajectorySample,
    cd_field,
    cd_from_eigensystem,
    cd_hamiltonian_closed,
    drive_field,
    drive_harmonics,
    eigensystem_trajectory,
    propagate_unitary,
    steady_displacement,
)
from qbattery.errors import DegenerateSpectrum, GridTooCoarse, SingularDenominator
from qbattery.model import DriveProfile


def two_level_sweep(delta, lam0, t_total, n):
    """Avoided-crossing samples H0(t) = (delta*sx + lam(t)*sz)/2, lam = lam0*cos(pi t/T)."""
    ts = np.linspace(0.0, t_total, n)
    samples = []
    for t in ts:
        lam = lam0 * math.cos(math.pi * t / t_total)
        samples.append(
            HermitianTrajectorySample(t=t, matrix=0.5 * np.array([[lam, delta], [delta, -lam]], dtype=complex))
        )
    return ts, samples


class TestCdField:
    def test_zero_at_start(self):
        prof = DriveProfile.cd_sin_sq(1.0, 0.7)
        s = cd_field(0.0, prof, delta_r=0.3, gamma=0.2)
        assert s.f_cd == 0.0
        assert s.correction == 0.0

    def test_bare_at_envelope_peak(self):
        # Fdot vanishes at the peak, so the CD field reduces to F0 there
        prof = DriveProfile.cd_sin_sq(0.8, 1.0)
        s = cd_field(math.pi / 2.0, prof, delta_r=0.3, gamma=0.2)
        assert s.f_cd == pytest.approx(0.8, abs=1e-12)

    def test_symbolic_substitution_point(self):
        # F = 1/2, Fdot = 1, denominator -i: F_cd = 1/2 - i*1/(-i) = 3/2
        prof = DriveProfile.cd_sin_sq(1.0, 1.0)
        s = cd_field(math.pi / 4.0, prof, delta_r=0.0, gamma=2.0)
        assert s.f_cd == pytest.approx(1.5, abs=1e-12)
        assert s.f_bare == pytest.approx(0.5, abs=1e-12)
        assert s.f_cd == s.f_bare + s.correction

    def test_singular_denominator(self):
        prof = DriveProfile.cd_sin_sq(1.0, 1.0)
        with pytest.raises(SingularDenominator):
            cd_field(0.3, prof, delta_r=0.0, gamma=0.0)

    def test_correction_vanishes_for_bare_profiles(self):
        prof = DriveProfile.sin_sq(1.0, 1.0)
        s = cd_field(0.9, prof, delta_r=0.0, gamma=0.0)
        assert s.correction == 0.0

    def test_large_gamma_correction_bound(self):
        # |correction| <= 2*F0*omega/gamma at zero detuning
        f0, w = 0.5, 1.2
        prof = DriveProfile.cd_sin_sq(f0, w)
        for gamma in (10.0, 100.0, 1000.0):
            worst = max(
                abs(cd_field(t, prof, 0.0, gamma).correction) for t in np.linspace(0, 10, 500)
            )
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


class TestSteadyDisplacement:
    def test_zero_field(self):
        prof = DriveProfile.sin_sq(1.0, 1.0)
        assert steady_displacement(0.0, prof, 1.0, 0.5) == 0.0

    def test_pure_detuning(self):
        prof = DriveProfile.static(1.0)
        assert steady_displacement(0.0, prof, 1.0, 0.0) == pytest.approx(1j)

    def test_pure_damping(self):
        prof = DriveProfile.static(1.0)
        assert steady_displacement(0.0, prof, 0.0, 2.0) == pytest.approx(-1.0)


class TestCdHamiltonianClosed:
    def test_constant_hamiltonian_gives_zero(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = m + m.conj().T
        samples = [HermitianTrajectorySample(t=0.1 * k, matrix=h) for k in range(5)]
        for s in cd_hamiltonian_closed(samples):
            assert np.max(np.abs(s.matrix)) < 1e-10

    def test_identity_shift_invariance(self):
        ts, samples = two_level_sweep(0.5, 4.0, 2.0, 201)
        shifted = [
            HermitianTrajectorySample(t=s.t, matrix=s.matrix + (1.0 + 0.3 * s.t) * np.eye(2))
            for s in samples
        ]
        cd_a = cd_hamiltonian_closed(samples)
        cd_b = cd_hamiltonian_closed(shifted)
        dev = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(cd_a, cd_b))
        assert dev < 1e-9

    def test_two_level_closed_form(self):
        # exact CD term for the avoided crossing: -(delta*lamdot / (2 E^2)) * sigma_y
        delta, lam0, t_total, n = 0.5, 8.0, 2.0, 4001
        ts, samples = two_level_sweep(delta, lam0, t_total, n)
        cd = cd_hamiltonian_closed(samples)
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        worst = 0.0
        for k in range(1, n - 1, 100):
            t = ts[k]
            lam = lam0 * math.cos(math.pi * t / t_total)
            lamdot = -lam0 * math.pi / t_total * math.sin(math.pi * t / t_total)
            exact = -(delta * lamdot / (2.0 * (delta**2 + lam**2))) * sy
            worst = max(worst, float(np.max(np.abs(cd[k].matrix - exact))))
        assert worst < 1e-3  # limited by the second-order finite differences

    def test_output_hermitian_traceless(self):
        _, samples = two_level_sweep(0.5, 8.0, 2.0, 801)
        for s in cd_hamiltonian_closed(samples)[::100]:
            assert np.max(np.abs(s.matrix - s.matrix.conj().T)) < 1e-14
            assert abs(np.trace(s.matrix)) < 1e-14

    def test_off_diagonal_imaginary_in_sz_basis(self):
        _, samples = two_level_sweep(0.5, 8.0, 2.0, 801)
        mid = cd_hamiltonian_closed(samples)[400].matrix
        assert abs(mid[0, 0]) < 1e-12 and abs(mid[1, 1]) < 1e-12
        assert abs(mid[0, 1].real) < 1e-12
        assert abs(mid[0, 1].imag) > 1e-4

    def test_gauge_invariance_under_random_phases(self):
        ts, samples = two_level_sweep(0.5, 4.0, 2.0, 401)
        ts_e, _, vecs = eigensystem_trajectory(samples)
        reference = cd_from_eigensystem(ts_e, vecs, gauge_fix=True)
        rng = np.random.default_rng(11)
        scrambled = vecs.copy()
        for k in range(len(ts_e)):
            scrambled[k] = scrambled[k] * np.exp(2j * np.pi * rng.random(2))[None, :]
        redone = cd_from_eigensystem(ts_e, scrambled, gauge_fix=True)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(reference, redone))
        assert dev < 1e-8

    def test_degenerate_spectrum_raises(self):
        samples = [
            HermitianTrajectorySample(t=0.1 * k, matrix=np.eye(2, dtype=complex)) for k in range(5)
        ]
        with pytest.raises(DegenerateSpectrum):
            cd_hamiltonian_closed(samples)

    def test_grid_too_coarse_raises(self):
        # 5 samples across a sharp crossing: adjacent eigenvectors nearly orthogonal
        _, samples = two_level_sweep(0.01, 50.0, 2.0, 5)
        with pytest.raises(GridTooCoarse):
            cd_hamiltonian_closed(samples)

    def test_requires_uniform_grid(self):
        _, samples = two_level_sweep(0.5, 4.0, 2.0, 51)
        bad = samples[:10] + samples[11:]
        with pytest.raises(ValueError):
            cd_hamiltonian_closed(bad)


class TestTransitionless:
    def test_cd_keeps_instantaneous_ground_state(self):
        delta, lam0, t_total, n = 0.5, 8.0, 2.0, 2001
        ts, samples = two_level_sweep(delta, lam0, t_total, n)
        cd = cd_hamiltonian_closed(samples)
        grounds = [np.linalg.eigh(s.matrix)[1][:, 0] for s in samples]
        psi_cd = propagate_unitary(ts, [s.matrix + c.matrix for s, c in zip(samples, cd)], grounds[0])
        psi_bare = propagate_unitary(ts, [s.matrix for s in samples], grounds[0])
        ov_cd = min(abs(np.vdot(grounds[k], psi_cd[k])) ** 2 for k in range(0, n, 25))
        ov_bare = abs(np.vdot(grounds[-1], psi_bare[-1])) ** 2
        assert ov_cd >= 1.0 - 1e-4
        assert ov_bare < 0.9
