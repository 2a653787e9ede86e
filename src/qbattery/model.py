"""Physical parameterization: system constants, drive envelopes, bath occupation.

Unit convention: hbar = 1, energies and rates in units of the oscillator
frequency omega0, times in 1/omega0. All outputs downstream (CSV columns,
reports) are dimensionless in these units.
"""

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

__all__ = [
    "DriveKind",
    "DriveProfile",
    "ModelParams",
    "bose_occupation",
    "envelope",
]


def bose_occupation(omega0: float, kT: float) -> float:
    """Mean thermal quanta of a bath mode at frequency ``omega0``.

    Parameters
    ----------
    omega0 : float
        Mode frequency, > 0.
    kT : float
        Thermal energy (Boltzmann constant times temperature), >= 0.

    Returns
    -------
    float
        1/(exp(omega0/kT) - 1); the kT = 0 limit returns 0 exactly, and inf where omega0/kT underflows to 0.
    """
    if omega0 <= 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    if kT < 0:
        raise ValueError(f"kT must be nonnegative, got {kT}")
    if kT == 0:
        return 0.0
    x = omega0 / kT
    if x > 700:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    if x == 0.0:  # omega0/kT underflowed: the occupation is past every double
        return math.inf
    return 1.0 / math.expm1(x)


def _require_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


class DriveKind(str, enum.Enum):
    """Selector for the coherent-field family applied to the charger."""

    OFF = "off"
    STATIC = "static"
    SIN_SQ = "sin_sq"
    CD_SIN_SQ = "cd_sin_sq"


@dataclass(frozen=True)
class DriveProfile:
    """Declarative description of the drive field F(t).

    ``kind`` is a :class:`DriveKind` or its value; ``f0`` is the peak amplitude and
    ``omega_env`` the envelope angular frequency of F(t) = f0 * sin^2(omega_env * t). OFF and
    STATIC drives do not oscillate: their ``omega_env`` is stored as 0, whatever was given.
    """

    kind: DriveKind
    f0: float = 0.0
    omega_env: float = 0.0

    def __post_init__(self):
        try:  # the engines test the kind by identity, so a plain string must become its member
            object.__setattr__(self, "kind", DriveKind(self.kind))
        except ValueError:
            kinds = [k.value for k in DriveKind]
            raise ConfigError(f"drive.profile must be one of {kinds}, got {self.kind!r}") from None
        _require_finite(self, ("f0", "omega_env"))
        if self.f0 < 0:
            raise ConfigError(f"drive amplitude f0 must be >= 0, got {self.f0}")
        if self.kind in (DriveKind.OFF, DriveKind.STATIC):
            object.__setattr__(self, "omega_env", 0.0)  # so no engine runs a drive clock
        elif self.omega_env <= 0:
            raise ConfigError(
                f"omega_env must be > 0 for {self.kind.value} drives, got {self.omega_env}"
            )

    @classmethod
    def off(cls) -> "DriveProfile":
        return cls(DriveKind.OFF)

    @classmethod
    def static(cls, f0: float) -> "DriveProfile":
        return cls(DriveKind.STATIC, f0=f0)

    @classmethod
    def sin_sq(cls, f0: float, omega_env: float) -> "DriveProfile":
        return cls(DriveKind.SIN_SQ, f0=f0, omega_env=omega_env)

    @classmethod
    def cd_sin_sq(cls, f0: float, omega_env: float) -> "DriveProfile":
        return cls(DriveKind.CD_SIN_SQ, f0=f0, omega_env=omega_env)


@dataclass(frozen=True)
class ModelParams:
    """Constants of the damped, driven two-oscillator system.

    Attributes
    ----------
    omega0 : float
        Oscillator frequency of both modes; the energy unit.
    g : float
        Charger-battery exchange coupling.
    gamma : float
        Charger decay rate into the bath.
    nbar : float
        Mean bath occupation (canonical temperature representation).
    delta_r : float
        Drive detuning omega0 - omega_d entering the counterdiabatic field.
    tau : float
        Charging duration; the exchange coupling is active on [0, tau].
    """

    omega0: float
    g: float
    gamma: float
    nbar: float
    delta_r: float
    tau: float

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self)])
        if self.omega0 <= 0:
            raise ConfigError(f"omega0 must be > 0, got {self.omega0}")
        if self.g < 0:
            raise ConfigError(f"g must be >= 0, got {self.g}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.nbar < 0:
            raise ConfigError(f"nbar must be >= 0, got {self.nbar}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")

    @property
    def kappa(self) -> float:
        """Normalized drive frequency omega_d/omega0 implied by delta_r."""
        return 1.0 - self.delta_r / self.omega0

    @classmethod
    def build(
        cls,
        omega0: float = 1.0,
        g: float = 0.0,
        gamma: float = 0.0,
        tau: float = 1.0,
        nbar: float | None = None,
        kT: float | None = None,
        delta_r: float | None = None,
        kappa: float | None = None,
    ) -> "ModelParams":
        """Resolve the two optional representations and construct params.

        Temperature may be given as ``nbar`` directly or as ``kT`` (converted
        through :func:`bose_occupation`); the detuning as ``delta_r`` or as the
        normalized drive frequency ``kappa`` (delta_r = omega0 * (1 - kappa)).
        Supplying both members of a pair is an error.
        """
        if nbar is not None and kT is not None:
            raise ConfigError("give either nbar or kT, not both")
        if delta_r is not None and kappa is not None:
            raise ConfigError("give either delta_r or kappa, not both")
        if nbar is None:
            nbar = bose_occupation(omega0, kT) if kT is not None else 0.0
        if delta_r is None:
            delta_r = omega0 * (1.0 - kappa) if kappa is not None else 0.0
        return cls(omega0=omega0, g=g, gamma=gamma, nbar=nbar, delta_r=delta_r, tau=tau)


def envelope(t, profile: DriveProfile):
    """Bare (real) drive envelope F(t), before any counterdiabatic correction.

    OFF -> 0, STATIC -> f0, SIN_SQ and CD_SIN_SQ -> f0 * sin^2(omega_env * t).
    ``t`` may be a float or an array; the result has its shape.
    """
    if profile.kind is DriveKind.OFF:
        return np.zeros(np.shape(t))[()]
    if profile.kind is DriveKind.STATIC:
        return np.full(np.shape(t), profile.f0)[()]
    return profile.f0 * np.square(np.sin(profile.omega_env * t))
