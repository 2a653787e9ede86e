"""Open quantum battery charging with counterdiabatic drive shaping.

Three mutually validating computation paths: closed Gaussian moment
equations (the workhorse, solved exactly and by RK4), closed-form
zero-temperature amplitudes (a cross-check), and brute-force truncated-Fock
density-matrix propagation (the oracle). The names imported here are the
ones the README's library example uses; everything else is imported from
its module, e.g. ``qbattery.oracle.dense_evolve``.
"""

from .dynamics import integrate, propagate
from .energetics import decompose, ergotropy_b
from .model import DriveProfile, ModelParams

__version__ = "0.1.0"
