"""Value types describing the emitting medium and the injected seed pulse."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    CONSTANTS,
    dipole_debye_to_si,
    mm_to_m,
    per_cm3_to_per_m3,
    wavelength_to_angular_frequency,
)

# Field envelope exp(-2 ln2 ((t - tau_s)/tau_s)^2): the squared (intensity)
# envelope then has FWHM equal to tau_s.
_GAUSS_COEFF = 2.0 * math.log(2.0)
# Its integral from 0 to t, a = _GAUSS_COEFF: tau_s sqrt(pi/(4a)) [erf(sqrt(a)(t/tau_s - 1)) + erf(sqrt(a))].
_ERF_SCALE = math.sqrt(_GAUSS_COEFF)
_AREA_SCALE = math.sqrt(math.pi / (4.0 * _GAUSS_COEFF))
_ERF_AT_ZERO = math.erf(_ERF_SCALE)


@dataclass(frozen=True)
class TwoLevelMedium:
    """Ensemble of two-level emitters treated as a pencil-shaped medium.

    The population inversion is parameterized by the probability difference
    w0 = rho22 - rho11 of a single emitter at the moment the medium is born,
    so w0 > 0 means net inversion and w0 < 0 a net absorber.
    """

    omega: float  # transition angular frequency, rad/s
    mu: float     # transition dipole moment, C m
    N: float      # emitter number density, m^-3
    L: float      # medium length along the emission axis, m
    w0: float     # initial population-probability difference, in [-1, 1]

    def __post_init__(self) -> None:
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if self.N < 0.0:
            raise ValueError("N must be non-negative")
        if not self.L > 0.0:
            raise ValueError("L must be positive")
        if not -1.0 <= self.w0 <= 1.0:
            raise ValueError("w0 must lie in [-1, 1]")

    @classmethod
    def from_lab_units(
        cls,
        wavelength_nm: float,
        dipole_debye: float,
        density_per_cm3: float,
        length_mm: float,
        w0: float,
    ) -> "TwoLevelMedium":
        return cls(
            omega=wavelength_to_angular_frequency(wavelength_nm * 1e-9),
            mu=dipole_debye_to_si(dipole_debye),
            N=per_cm3_to_per_m3(density_per_cm3),
            L=mm_to_m(length_mm),
            w0=w0,
        )


@dataclass(frozen=True)
class SeedPulse:
    """Weak resonant seed injected into the freshly prepared medium.

    tau_s is the FWHM of the *intensity* profile; the field envelope peaks
    at t = tau_s, so the pulse is essentially over by t = 2..3 tau_s.
    tau_r marks the end of the seeding stage, after which the medium
    radiates on its own.
    """

    E0: float      # peak field amplitude, V/m
    tau_s: float   # seed intensity FWHM, s
    tau_r: float   # end of the seed stage, s

    def __post_init__(self) -> None:
        if self.E0 < 0.0:
            raise ValueError("E0 must be non-negative")
        if not self.tau_s > 0.0:
            raise ValueError("tau_s must be positive")
        if not self.tau_r > 0.0:
            raise ValueError("tau_r must be positive")

    @classmethod
    def from_intensity(cls, intensity_w_m2: float, tau_s: float, tau_r: float) -> "SeedPulse":
        return cls(E0=peak_field_from_intensity(intensity_w_m2), tau_s=tau_s, tau_r=tau_r)

    def field_envelope(self, t):
        """Dimensionless field envelope f(t), equal to 1 at the peak t = tau_s.

        Accepts scalars or arrays. f(0) = exp(-2 ln2) = 0.25, so the envelope
        is already small but not zero when the medium is created at t = 0.
        """
        # Array temporaries are reused in place: the seed RK4 evaluates the
        # envelope on every node, and fresh arrays there cost page faults.
        x = np.asarray(t, dtype=float) - self.tau_s
        x /= self.tau_s
        y = -_GAUSS_COEFF * x
        y *= x
        return np.exp(y, out=y) if isinstance(y, np.ndarray) else np.exp(y)

    def envelope_area(self, t):
        """Integral of field_envelope from 0 to t, in s, by the erf closed form.

        Accepts scalars (giving a float) or arrays. math.erf is applied per
        element, so a time gives the same bits alone or inside an array.
        """
        x = _ERF_SCALE * (np.asarray(t, dtype=float) / self.tau_s - 1.0)
        erf = np.fromiter(map(math.erf, np.ravel(x).tolist()), float, np.size(x)).reshape(np.shape(x))
        area = self.tau_s * _AREA_SCALE * (erf + _ERF_AT_ZERO)
        return area if area.ndim else float(area)


def peak_field_from_intensity(intensity_w_m2: float) -> float:
    """Peak field E0 = sqrt(2 I / (eps0 c)) of a pulse with peak intensity I."""
    if intensity_w_m2 < 0.0:
        raise ValueError("intensity must be non-negative")
    return math.sqrt(2.0 * intensity_w_m2 / (CONSTANTS.eps0 * CONSTANTS.c))


def intensity_from_peak_field(e0_v_m: float) -> float:
    """Inverse of peak_field_from_intensity: I = eps0 c E0^2 / 2."""
    if e0_v_m < 0.0:
        raise ValueError("field amplitude must be non-negative")
    return 0.5 * CONSTANTS.eps0 * CONSTANTS.c * e0_v_m**2
