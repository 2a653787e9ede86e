"""Open quantum battery charging with counterdiabatic drive shaping.

Three mutually validating computation paths: closed Gaussian moment
equations (the workhorse, solved exactly and by RK4), closed-form
zero-temperature amplitudes (a cross-check), and brute-force truncated-Fock
density-matrix propagation (the oracle). The names imported here are the
package's public interface; ``from qbattery import *`` exports them.
"""

from .analytic import (
    AnalyticCoefficients,
    ValidationReport,
    alpha_analytic,
    beta_analytic,
    coefficients,
    validate_against_numerics,
)
from .cd_control import (
    CdDriveSample,
    HermitianTrajectorySample,
    cd_field,
    cd_hamiltonian_closed,
    drive_field,
    propagate_unitary,
    steady_displacement,
)
from .dynamics import MomentState, Trajectory, integrate, max_step, moment_rhs, propagate
from .energetics import (
    DecompositionResult,
    EnergyReport,
    decompose,
    energy_a,
    energy_b,
    ergotropy_b,
    gaussian_m,
)
from .errors import (
    ConfigError,
    DecompositionMismatch,
    DegenerateSpectrum,
    GridTooCoarse,
    InvariantViolation,
    QBatteryError,
    ResonantEnvelope,
    SingularDenominator,
    StepTooLarge,
    TruncationLeak,
    UnphysicalState,
)
from .model import DriveKind, DriveProfile, ModelParams, bose_occupation, coupling_window, envelope
from .oracle import DenseState, DenseTrajectory, dense_evolve, extract_moments

__version__ = "0.1.0"
