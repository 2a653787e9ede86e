"""Exception types shared across the package."""


class QBatteryError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QBatteryError):
    """Configuration document is malformed or violates a model invariant."""


class SingularDenominator(QBatteryError):
    """Counterdiabatic denominator vanishes (zero detuning and zero decay)."""


class DegenerateSpectrum(QBatteryError):
    """Instantaneous spectrum has a gap below tolerance; eigenstate tracking undefined."""


class GridTooCoarse(QBatteryError):
    """Adjacent eigenvectors overlap too little for reliable gauge tracking."""


class StepTooLarge(QBatteryError):
    """Integrator step exceeds the stability/accuracy cap for these parameters."""


class InvariantViolation(QBatteryError):
    """A state sample broke a physicality invariant beyond tolerance."""


class TruncationLeak(QBatteryError):
    """Population reached the top Fock levels; truncated results untrustworthy."""


class UnphysicalState(QBatteryError):
    """Energetics refuses a sample: a mean or Sigma entry is non-finite, the battery block fails the engines' 2x2
    uncertainty rule at PHYSICALITY_TOL, or an energy column (e_b, ergotropy, M, e_a) overflows."""


class ResonantEnvelope(QBatteryError):
    """Envelope frequency hits the resonant denominator of the closed-form trajectory."""
