import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.dynamics import MomentState, integrate
from qbattery.energetics import (
    decompose,
    energy_columns,
    ergotropy_b,
    report_series,
)
from qbattery.errors import DecompositionMismatch, UnphysicalState
from qbattery.model import DriveProfile, ModelParams
from qbattery.oracle import dense_evolve, extract_moments


def coherent(beta):
    return MomentState(b_mean=beta, nb=abs(beta) ** 2, b_sq=beta**2)


def thermal(n):
    return MomentState(nb=n)


def displaced_thermal(beta, n):
    return MomentState(b_mean=beta, nb=n + abs(beta) ** 2, b_sq=beta**2)


class TestEnergy:
    @pytest.mark.parametrize("nb,omega0,expected", [(0.0, 1.0, 0.0), (0.5, 1.0, 0.5), (2.0, 3.0, 6.0)])
    def test_energy_b(self, nb, omega0, expected):
        e_b = energy_columns(MomentState(nb=nb).as_array()[None, :], omega0)[0]
        assert e_b[0] == pytest.approx(expected)

    @pytest.mark.parametrize("alpha,omega0,expected", [(0j, 1.0, 0.0), (1.0 + 0j, 1.0, 1.0), (3j, 2.0, 18.0)])
    def test_energy_a(self, alpha, omega0, expected):
        e_a = energy_columns(MomentState(a_mean=alpha, na=abs(alpha) ** 2).as_array()[None, :], omega0)[4]
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

    def test_unphysical_moments_rejected(self):
        # squeezing claim beyond what the occupation allows: M < 1
        bad = MomentState(nb=0.1, b_sq=0.5 + 0j)
        with pytest.raises(UnphysicalState):
            ergotropy_b(bad, 1.0)

    def test_tiny_negative_ergotropy_clamped(self):
        # n = 0.01 rounds sqrt((1+2n)^2) up by one ulp, landing at -8.7e-18
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
            energy_columns(state.as_array()[None, :], 1.0)

    @pytest.mark.parametrize(
        "row,column,value,message",
        [
            (5, 6, 10.0 + 0j, "sample 5 at t=0.5: Gaussian discriminant M below 1"),
            (3, 3, math.nan, "sample 3 at t=0.3: non-finite moment"),
        ],
    )
    def test_series_names_first_bad_sample(self, row, column, value, message):
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.4, delta_r=0.0, tau=50.0)
        traj = integrate(params, DriveProfile.cd_sin_sq(0.3, 0.5), 0.01, 1.0, sample_stride=10)
        moments = traj.moments.copy()
        moments[row, column] = value
        moments[row + 2, 3] = math.inf  # a later bad sample is not the one named
        with pytest.raises(UnphysicalState, match=message):
            report_series(dataclasses.replace(traj, moments=moments))

    def test_report_invariants_along_trajectory(self):
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.4, delta_r=0.0, tau=50.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        traj = integrate(params, prof, 0.01, 10.0, sample_stride=10)
        for rep in report_series(traj):
            assert rep.m_value >= 1.0 - 1e-9
            assert -1e-9 <= rep.ergotropy_b <= rep.e_b + 1e-9
            assert rep.passive_b >= -1e-9


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

    def test_mismatch_error_carries_residual(self):
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.5, delta_r=0.0, tau=50.0)
        prof = DriveProfile.cd_sin_sq(0.3, 0.5)
        with pytest.raises(DecompositionMismatch) as err:
            decompose(params, prof, step=0.01, t_end=5.0, tolerance=0.0)
        assert err.value.residual > 0.0


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
            closed_form = (np.sqrt(energy_columns(m.as_array()[None, :], 1.0)[3][0]) - 1.0) / 2.0
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
    moments = np.array([s.as_array() for s in states])
    columns = np.column_stack(energy_columns(moments, omega0))
    bound = omega0 * (1.0 - math.sqrt(1.0 - 1e-6)) / 2.0
    for state, row in zip(states, columns):
        single = np.array(tuple(ergotropy_b(state, omega0)))
        assert single.tobytes() == row.tobytes()
        e_b, erg, _, m, _ = row
        assert m >= 1.0 - 1e-6
        assert 0.0 <= erg <= e_b + bound
