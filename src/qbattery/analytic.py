"""Closed-form zero-temperature trajectory of the counterdiabatically driven pair.

At T = 0 the joint state stays a product of coherent states, so the whole
run is two complex amplitudes alpha(tau), beta(tau). The published closed
form for them contains one symbol (here ``B``, inside the coefficient ``d``)
that is never defined; this module ships the candidate readings and an
empirical validator that ranks them against the exact moment propagator. The
numerical engine stays the ground truth for all figures; this module is a
cross-check only.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .cd_control import _cd_denominator
from .dynamics import default_step, propagate
from .errors import ResonantEnvelope
from .model import DriveKind, DriveProfile, ModelParams

__all__ = [
    "AnalyticCoefficients",
    "B_INTERPRETATIONS",
    "InterpretationFit",
    "ValidationReport",
    "alpha_analytic",
    "beta_analytic",
    "coefficients",
    "validate_against_numerics",
]

B_INTERPRETATIONS = ("p", "zero", "self_consistent")
VALIDATION_THRESHOLD = 1e-3
RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class AnalyticCoefficients:
    """Coefficients of the closed-form alpha(tau), beta(tau).

    ``epsilon`` is the principal square root of gamma^2 - (4g)^2, purely
    imaginary in the underdamped regime. ``b_value`` records the value used
    for the undefined symbol under ``interpretation``.
    """

    d: complex
    p: complex
    f: complex
    epsilon: complex
    b_value: complex
    interpretation: str
    drive_omega: float
    gamma: float
    g: float

    def __post_init__(self):
        if abs(self.epsilon**2 - (self.gamma**2 - 16.0 * self.g**2)) > 1e-12 * max(
            1.0, abs(self.epsilon) ** 2
        ):
            raise ValueError("epsilon inconsistent with gamma and g")


def coefficients(
    params: ModelParams, profile: DriveProfile, b_interpretation: str = "p"
) -> AnalyticCoefficients:
    """Closed-form coefficients d, p, f, epsilon for a CD-corrected drive.

    ``b_interpretation`` selects the reading of the undefined symbol:
    ``"p"`` substitutes the coefficient p, ``"zero"`` drops the term, and
    ``"self_consistent"`` solves d = omega*(-i*F0 + gamma*d)/(g^2 - 4 omega^2)
    for d.

    Raises
    ------
    ResonantEnvelope
        When g^2 - (2*omega_env)^2 vanishes and the closed form is singular.
    SingularDenominator
        At delta_r = gamma = 0, where the CD drive itself is undefined.
    """
    if profile.kind is not DriveKind.CD_SIN_SQ:
        raise ValueError("closed-form trajectory is defined for the CD-corrected drive")
    if b_interpretation not in B_INTERPRETATIONS:
        raise ValueError(f"unknown interpretation {b_interpretation!r}")
    g, gamma, w, f0 = params.g, params.gamma, profile.omega_env, profile.f0
    _cd_denominator(params.delta_r, gamma)
    if g == 0.0:
        raise ValueError("uncoupled point g = 0 is excluded (beta divides by g^2)")
    den = g * g - 4.0 * w * w
    if abs(den) <= RESONANCE_TOL * max(g * g, 4.0 * w * w):
        raise ResonantEnvelope(f"g^2 - (2*omega_env)^2 = {den:.3e} is resonant")
    epsilon = np.sqrt(complex(gamma * gamma - 16.0 * g * g))
    if epsilon == 0:
        raise ValueError("critically damped point gamma = 4g is excluded (f diverges)")
    p = (
        f0
        * w
        * w
        * (2.0 / (params.delta_r + 0.5j * gamma) + 1j * gamma / den)
        / (den + (gamma * w) ** 2 / den)
    )
    if b_interpretation == "p":
        b_value = p
        d = w / den * (-1j * f0 + gamma * b_value)
    elif b_interpretation == "zero":
        b_value = 0j
        d = w / den * (-1j * f0)
    else:
        d = -1j * f0 * w / (den - gamma * w)
        b_value = d
    f = -(2.0 / epsilon) * (2.0 * w * d + 0.25 * (epsilon + gamma) * p)
    return AnalyticCoefficients(
        d=complex(d),
        p=complex(p),
        f=complex(f),
        epsilon=complex(epsilon),
        b_value=complex(b_value),
        interpretation=b_interpretation,
        drive_omega=w,
        gamma=gamma,
        g=g,
    )


def alpha_analytic(tau, coeffs: AnalyticCoefficients, params: ModelParams):
    """Closed-form charger amplitude alpha(tau); accepts scalars or arrays."""
    tau = np.asarray(tau, dtype=float)
    w, gamma, eps = coeffs.drive_omega, params.gamma, coeffs.epsilon
    out = (
        coeffs.d * np.sin(2.0 * w * tau)
        + coeffs.p * (np.cos(2.0 * w * tau) - np.exp(-(eps + gamma) * tau / 4.0))
        + 2.0 * coeffs.f * np.exp(-gamma * tau / 4.0) * np.sinh(eps * tau / 4.0)
    )
    return out if out.shape else complex(out)


def beta_analytic(tau, coeffs: AnalyticCoefficients, params: ModelParams):
    """Closed-form battery amplitude beta(tau) in its published three-bracket form."""
    tau = np.asarray(tau, dtype=float)
    w, gamma, g, eps = coeffs.drive_omega, params.gamma, params.g, coeffs.epsilon
    d_term = (coeffs.d * (np.cos(2.0 * w * tau) - 1.0)) / (2.0 * w)
    f_term = (coeffs.f / (2.0 * g * g)) * (
        -eps
        + np.exp(-gamma * tau / 4.0)
        * (eps * np.cosh(eps * tau / 4.0) + gamma * np.sinh(eps * tau / 4.0))
    )
    p_term = coeffs.p * (
        -np.sin(2.0 * w * tau) / (2.0 * w)
        + (4.0 / (gamma + eps)) * (np.exp(-(gamma + eps) * tau / 4.0) - 1.0)
    )
    out = 1j * g * (d_term + f_term + p_term)
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class InterpretationFit:
    """Deviation of one candidate reading from the numerical trajectory."""

    interpretation: str
    b_value: complex
    max_dev_alpha: float
    max_dev_beta: float
    max_dev_energy: float
    alpha_verified: bool
    beta_verified: bool


@dataclass(frozen=True)
class ValidationReport:
    """Empirical ranking of the candidate readings of the undefined symbol."""

    fits: tuple
    best: str
    status: str  # VERIFIED when some reading reproduces alpha, else UNVERIFIED
    alpha_scale: float
    beta_scale: float
    threshold: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fits"] = [{**f, "b_value": [f["b_value"].real, f["b_value"].imag]} for f in d["fits"]]
        return d


def validate_against_numerics(
    params: ModelParams,
    profile: DriveProfile,
    t_end: float = 15.0,
    sample_stride: int = 5,
) -> ValidationReport:
    """Rank every candidate reading against the exact moment propagator at the default step.

    Requires a zero-temperature configuration (the closed form exists only
    there). A reading is verified when its worst alpha deviation over the
    grid stays below ``1e-3 * max|alpha|``; with no drive everything is zero
    and the check passes trivially.
    """
    if params.nbar != 0.0:
        raise ValueError("closed-form trajectory exists only at zero temperature")
    traj = propagate(params, profile, default_step(params, profile), t_end, sample_stride=sample_stride)
    ts = traj.times
    a_num = traj.moments[:, 0]
    b_num = traj.moments[:, 1]
    nb_num = traj.moments[:, 3].real
    alpha_scale = float(np.max(np.abs(a_num)))
    beta_scale = float(np.max(np.abs(b_num)))

    fits = []
    for name in B_INTERPRETATIONS:
        coeffs = coefficients(params, profile, name)
        a_an = np.asarray(alpha_analytic(ts, coeffs, params))
        b_an = np.asarray(beta_analytic(ts, coeffs, params))
        dev_a = float(np.max(np.abs(a_an - a_num)))
        dev_b = float(np.max(np.abs(b_an - b_num)))
        dev_e = float(np.max(np.abs(params.omega0 * np.abs(b_an) ** 2 - params.omega0 * nb_num)))
        fits.append(
            InterpretationFit(
                interpretation=name,
                b_value=coeffs.b_value,
                max_dev_alpha=dev_a,
                max_dev_beta=dev_b,
                max_dev_energy=dev_e,
                alpha_verified=dev_a <= VALIDATION_THRESHOLD * alpha_scale + 1e-15,
                beta_verified=dev_b <= VALIDATION_THRESHOLD * beta_scale + 1e-15,
            )
        )
    fits.sort(key=lambda f: f.max_dev_alpha)
    status = "VERIFIED" if any(f.alpha_verified for f in fits) else "UNVERIFIED"
    return ValidationReport(
        fits=tuple(fits),
        best=fits[0].interpretation,
        status=status,
        alpha_scale=alpha_scale,
        beta_scale=beta_scale,
        threshold=VALIDATION_THRESHOLD,
    )
