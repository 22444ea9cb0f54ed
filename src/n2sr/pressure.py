"""Pressure scaling of the burst: density calibration, scan predictions,
collisional dephasing, and the validity margin of the coherent treatment.

The emitter density is taken linear in gas pressure above a threshold,
N = k (p - p0). Rather than trusting any published slope, k is calibrated
from a single anchor measurement (p_anchor, tau_W_anchor) by inverting the
characteristic-duration formula. An independently published slope for the
same transition is kept only for comparison; this module asserts neither
value as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .bloch import bloch_angle
from .constants import (
    CONSTANTS,
    per_m3_to_per_cm3,
    pressure_to_number_density,
    s_to_ps,
)
from .csvio import finite_columns, write_columns
from .errors import NumericalError
from .superradiance import characteristic_duration, peak_intensity, time_delay
from .system import SeedPulse, TwoLevelMedium

__all__ = [
    "DensityCalibration",
    "DephasingParameters",
    "ScanTable",
    "REFERENCE_DENSITY_SLOPE_PER_CM3_MBAR",
    "calibrate_density_scale",
    "density_from_pressure",
    "medium_at_pressure",
    "total_emitted_energy",
    "emitted_energy_integral",
    "dephasing_time",
    "validity_margin",
    "pressure_scan",
    "write_scan_csv",
]

# Published linear-density slope for this transition (cm^-3 per mbar), kept
# for side-by-side comparison with the anchor-calibrated value.
REFERENCE_DENSITY_SLOPE_PER_CM3_MBAR = 0.228e16


@dataclass(frozen=True)
class DensityCalibration:
    """Linear emitter-density model N = k (p - p0), anchored to one measurement."""

    k: float             # density per pressure, m^-3 / mbar
    p0: float            # threshold pressure, mbar
    anchor_p: float      # anchor pressure, mbar
    anchor_tau_w: float  # measured burst width parameter at the anchor, s

    def __post_init__(self) -> None:
        if not self.k > 0.0:
            raise ValueError("k must be positive")
        if self.p0 < 0.0:
            raise ValueError("p0 must be non-negative")
        if not self.anchor_p > self.p0:
            raise ValueError("anchor pressure must exceed p0")
        if not self.anchor_tau_w > 0.0:
            raise ValueError("anchor tau_W must be positive")


@dataclass(frozen=True)
class DephasingParameters:
    """Electron-collision dephasing model 1/tau2 = sigma f_ion n(p, T) v_e."""

    sigma: float                # collision cross-section, m^2
    v_e: float                  # electron velocity, m/s
    ionization_fraction: float  # ionized share of the neutral density
    temperature: float          # gas temperature for p -> n, K

    def __post_init__(self) -> None:
        if not self.sigma > 0.0 or not self.v_e > 0.0:
            raise ValueError("sigma and v_e must be positive")
        if not 0.0 < self.ionization_fraction <= 1.0:
            raise ValueError("ionization fraction must lie in (0, 1]")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True, eq=False)
class ScanTable:
    """Predicted burst observables across a pressure scan, one column each.

    Every column is a read-only 1-D array with one entry per pressure, in
    scan order, in SI units: N in m^-3, times in s, I_peak in W/m^2 and
    energies in J. tau_D counts from the handover at tau_r, as in a
    SuperradianceSolution; the CSV and stdout give it in pump time tau_r + tau_D.
    The _norm columns are relative to the maximum-pressure row, and
    E_total_integral is the diagnostic from integrating the sech^2 burst.
    theta_r (rad) is shared by all rows, and len() is the number of pressures.
    """

    theta_r: float
    p_mbar: np.ndarray
    N: np.ndarray
    tau_W: np.ndarray
    tau_D: np.ndarray
    I_peak: np.ndarray
    I_peak_norm: np.ndarray
    E_total: np.ndarray
    E_total_norm: np.ndarray
    E_total_integral: np.ndarray
    dephasing: np.ndarray
    validity_margin: np.ndarray

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.name != "theta_r"):
            column = getattr(self, name)
            if column.shape != self.p_mbar.shape or column.ndim != 1:
                raise ValueError("scan columns must be 1-D and of equal length")
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.p_mbar)


def calibrate_density_scale(
    anchor_p: float,
    anchor_tau_w: float,
    p0: float,
    medium_template: TwoLevelMedium,
) -> DensityCalibration:
    """Invert tau_W(N) at the anchor pressure to fix the slope k.

    The anchor's column density n L = 4 hbar / (mu0 c omega mu^2 tau_W_anchor)
    gives n_anchor, and k = n_anchor / |w0| / (anchor_p - p0) is the slope of
    N. Only omega, mu, w0 and L of the template matter; its density is ignored.
    """
    if not anchor_tau_w > 0.0:
        raise ValueError("anchor tau_W must be positive")
    if not anchor_p > p0:
        raise ValueError("anchor pressure must exceed the threshold p0")
    if medium_template.w0 == 0.0:
        raise ValueError("w0 = 0 cannot be calibrated")
    k = CONSTANTS
    m = medium_template
    n_anchor = 4.0 * k.hbar / (k.mu0 * k.c * m.omega * m.mu**2 * anchor_tau_w) / m.L
    return DensityCalibration(
        k=n_anchor / abs(m.w0) / (anchor_p - p0), p0=p0, anchor_p=anchor_p, anchor_tau_w=anchor_tau_w
    )


def density_from_pressure(cal: DensityCalibration, p_mbar):
    """Emitter density N = k (p - p0) in m^-3, elementwise for an array p; a pressure
    below threshold is an error, and an N that overflows a NumericalError naming it."""
    if np.less(p_mbar, cal.p0).any():
        raise ValueError(
            f"pressure {np.min(p_mbar)} mbar is below the superradiance threshold {cal.p0} mbar"
        )
    with np.errstate(over="ignore"):
        density = cal.k * (p_mbar - cal.p0)
    if not np.isfinite(density).all():
        p = float(np.ravel(p_mbar)[np.argmin(np.isfinite(density))])
        raise NumericalError(f"the emitter density N = k (p - p0) is not finite at p = {p!r} mbar")
    return density


def medium_at_pressure(cal: DensityCalibration, medium_template: TwoLevelMedium, p_mbar) -> TwoLevelMedium:
    """The template at density N(p); an array p gives the scan column N."""
    return replace(medium_template, N=density_from_pressure(cal, p_mbar))


def total_emitted_energy(medium: TwoLevelMedium, theta_r: float, radius: float):
    """Released energy hbar omega n cos(theta_r) * pi r^2 L, linear in n = w0 N.

    This is the stored-energy bookkeeping estimate; see
    emitted_energy_integral for the value obtained by integrating the burst
    power from tau_r onward, which differs by the factor (1 + cos)/2 cos.
    Elementwise in a scan column N. The caller checks that theta_r lies in
    (0, pi) and that the radius is positive, as pressure_scan does once per
    scan.
    """
    volume = math.pi * radius**2 * medium.L
    return CONSTANTS.hbar * medium.omega * medium.n * math.cos(theta_r) * volume


def emitted_energy_integral(medium: TwoLevelMedium, theta_r: float, radius: float):
    """Burst energy from integrating P_s over t >= tau_r in closed form:

    (hbar omega n / 2) (1 + cos theta_r) * pi r^2 L.

    n and the argument checks are as in total_emitted_energy.
    """
    volume = math.pi * radius**2 * medium.L
    return 0.5 * CONSTANTS.hbar * medium.omega * medium.n * (1.0 + math.cos(theta_r)) * volume


def dephasing_time(p_mbar, params: DephasingParameters):
    """Collisional dephasing time 1 / (sigma f_ion n v_e) at gas pressure p,
    elementwise for an array p.

    A collision rate that underflows to 0 raises ZeroDivisionError, and one
    that overflows raises NumericalError, for an array as for a scalar,
    naming the lowest or the highest pressure.
    """
    if not np.greater(p_mbar, 0.0).all():
        raise ValueError("pressure must be positive")
    with np.errstate(over="ignore"):
        n = pressure_to_number_density(p_mbar * 100.0, params.temperature)
        rate = params.sigma * params.ionization_fraction * n * params.v_e
    if not np.all((rate > 0.0) & (rate < math.inf)):
        if not np.greater(rate, 0.0).all():
            raise ZeroDivisionError(
                "the collision rate sigma f_ion n v_e underflows to 0 "
                f"at p = {float(np.min(p_mbar))!r} mbar"
            )
        raise NumericalError(
            f"the collision rate sigma f_ion n v_e is not finite at p = {float(np.max(p_mbar))!r} mbar"
        )
    return 1.0 / rate


def validity_margin(tau_2, tau_w, tau_r, tau_d):
    """Margin tau_2 / sqrt(tau_W tau_peak) of the no-dephasing assumption.

    The coherent treatment needs the dephasing time to dominate the
    geometric mean of the burst width and the time from the pump to the
    burst peak. tau_d is the delay after the handover at tau_r, so the peak
    is tau_peak = tau_r + max(tau_d, 0) in pump time: a burst whose peak
    would come before the handover (w0 < 0, or a seed tipping past pi/2)
    peaks at the handover. Scalars give a float and arrays are taken
    elementwise; the caller compares the margin with its threshold.
    """
    tau_peak = tau_r + np.maximum(tau_d, 0.0)
    if not all(np.greater(x, 0.0).all() for x in (tau_2, tau_w, tau_peak)):
        raise ValueError("all time scales must be positive")
    # A tau_2 near the float maximum overflows the margin to inf, which clears any threshold.
    with np.errstate(over="ignore"):
        margin = tau_2 / np.sqrt(tau_w * tau_peak)
    return float(margin) if np.ndim(margin) == 0 else margin


def pressure_scan(
    cal: DensityCalibration,
    seed: SeedPulse,
    medium_template: TwoLevelMedium,
    pressures: Sequence[float],
    dephasing: DephasingParameters,
    # The sweep in benchmarks/worker.py relies on these two (dt is unused).
    radius: float = 50e-6,
    dt: Optional[float] = None,
) -> ScanTable:
    """Predict burst observables across a pressure grid (order preserved).

    Every column comes from the closed forms that the reference burst uses,
    on one medium whose N is the scan's density column, with no
    per-pressure loop. The seed-stage tipping angle does not depend on N,
    so a single theta_r is computed and checked once. Peak intensity and
    total energy are normalized to the maximum-pressure row; any of these
    four columns that is not finite raises NumericalError, naming it and
    its first such pressure.
    """
    if len(pressures) == 0:
        raise ValueError("at least one pressure is required")
    p = np.array(pressures, dtype=float)
    below = np.flatnonzero(~(p > cal.p0))
    if below.size:
        raise ValueError(
            f"pressure {pressures[below[0]]} mbar does not exceed the threshold {cal.p0} mbar"
        )
    if not radius > 0.0:
        raise ValueError("radius must be positive")

    m = medium_at_pressure(cal, medium_template, p)
    # A finite N times a huge L can still overflow; tau_W would read 0.
    with np.errstate(over="ignore"):
        column = np.abs(m.n) * m.L
    lost = np.flatnonzero(~np.isfinite(column))
    if lost.size:
        raise NumericalError(
            f"the column density n L = w0 N L is not finite at p = {p[lost[0]].item()!r} mbar"
        )
    theta_r = bloch_angle(seed, m, seed.tau_r)
    tau_w = characteristic_duration(m)
    # time_delay rejects a theta_r outside (0, pi), which the energies assume.
    tau_d = time_delay(m, theta_r)
    tau_2 = dephasing_time(p, dephasing)
    margin = validity_margin(tau_2, tau_w, seed.tau_r, tau_d)

    def row(i):
        return f"p = {p[i].item()!r} mbar"

    i_peak, e_total = finite_columns("scan", "I_peak,E_total", lambda: [
        peak_intensity(m), total_emitted_energy(m, theta_r, radius),
    ], row)
    i_ref = int(np.argmax(p))
    # A reference row that underflowed to 0 (a tiny radius, say) gives NaN.
    with np.errstate(divide="ignore"):
        i_norm, e_norm = finite_columns("scan", "I_peak_norm,E_total_norm", lambda: [
            i_peak / i_peak[i_ref], e_total / e_total[i_ref],
        ], row)
    return ScanTable(
        theta_r=theta_r, p_mbar=p, N=m.N, tau_W=tau_w, tau_D=tau_d,
        I_peak=i_peak, I_peak_norm=i_norm,
        E_total=e_total, E_total_norm=e_norm,
        E_total_integral=emitted_energy_integral(m, theta_r, radius),
        dephasing=tau_2, validity_margin=margin,
    )


SCAN_CSV_HEADER = (
    "p_mbar,N_per_cm3,tau_W_ps,tau_D_ps,theta_r_rad,I_peak_W_cm2,"
    "I_peak_norm,E_total_J,E_total_norm,E_total_integral_J,"
    "dephasing_ps,validity_margin"
)


def write_scan_csv(path, scan: ScanTable, tau_r: float) -> None:
    """Write the scan in its CSV units; tau_D_ps is pump time, tau_r + tau_D.

    A column that is not finite in those units raises NumericalError, naming
    the column and its first such pressure, before the file is opened.
    """
    write_columns(path, SCAN_CSV_HEADER, finite_columns("scan", SCAN_CSV_HEADER, lambda: [
        scan.p_mbar, per_m3_to_per_cm3(scan.N), s_to_ps(scan.tau_W), s_to_ps(tau_r + scan.tau_D),
        # theta_r is one value: format it once, not once per row.
        [repr(scan.theta_r)] * len(scan), scan.I_peak * 1e-4,
        scan.I_peak_norm, scan.E_total, scan.E_total_norm, scan.E_total_integral,
        s_to_ps(scan.dephasing), scan.validity_margin,
    ], lambda i: f"p = {scan.p_mbar[i].item()!r} mbar"))
