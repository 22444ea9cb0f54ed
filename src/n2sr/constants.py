"""Physical constants and the unit conversions worth a name of their own.

Everything downstream works in SI. The constant table lives here, with the
three converters that check their input and read the table (debye,
wavelength, pressure) and the plain factors with several callers (ps,
MW/cm^2, m^-3). A plain factor with one caller is written as a product
where it is used: the lab-unit keys in n2sr.config, mbar and W/cm^2 in
n2sr.pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "dipole_debye_to_si",
    "wavelength_to_angular_frequency",
    "pressure_to_number_density",
    "ps_to_s",
    "s_to_ps",
    "mw_per_cm2_to_w_per_m2",
    "per_m3_to_per_cm3",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 SI values. mu0*eps0*c^2 must stay within 1e-9 of 1."""

    hbar: float = 1.054571817e-34   # J s
    c: float = 2.99792458e8         # m/s
    eps0: float = 8.8541878128e-12  # F/m
    mu0: float = 1.25663706212e-6   # H/m
    kB: float = 1.380649e-23        # J/K
    debye: float = 3.33564e-30      # C m per debye

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "eps0", "mu0", "kB", "debye"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(self.mu0 * self.eps0 * self.c**2 - 1.0) > 1e-9:
            raise ValueError("mu0*eps0*c^2 deviates from 1 by more than 1e-9")


CONSTANTS = PhysicalConstants()


def dipole_debye_to_si(mu_debye: float) -> float:
    """Transition dipole moment, debye -> C m."""
    if mu_debye < 0.0:
        raise ValueError("dipole moment must be non-negative")
    return mu_debye * CONSTANTS.debye


def wavelength_to_angular_frequency(wavelength_m: float) -> float:
    """Vacuum wavelength -> angular frequency, 2*pi*c/lambda."""
    if not wavelength_m > 0.0:
        raise ValueError("wavelength must be positive")
    return 2.0 * math.pi * CONSTANTS.c / wavelength_m


def pressure_to_number_density(pressure_pa, temperature_k: float):
    """Ideal-gas number density n = p / (kB T) in m^-3; elementwise for an array p.

    A kB T that underflows to 0 raises NumericalError, naming T.
    """
    if not temperature_k > 0.0:
        raise ValueError("temperature must be positive")
    if np.less(pressure_pa, 0.0).any():
        raise ValueError("pressure must be non-negative")
    kt = CONSTANTS.kB * temperature_k
    if kt == 0.0:
        raise NumericalError(
            f"the number density p/(kB T) is not finite: kB T underflows to 0 at T = {temperature_k!r} K"
        )
    return pressure_pa / kt


def ps_to_s(t_ps: float) -> float:
    return t_ps * 1e-12


def s_to_ps(t_s: float) -> float:
    return t_s * 1e12


def mw_per_cm2_to_w_per_m2(i_mw_cm2: float) -> float:
    return i_mw_cm2 * 1e10


def per_m3_to_per_cm3(n_m3: float) -> float:
    return n_m3 * 1e-6
