"""Closed-form superradiant burst that follows the seed stage.

Once the seed is gone, the tipped Bloch vector obeys the pendulum equation

    d theta / dt = sign(w0) * sin(theta) / tau_W,
    tau_W = 4 hbar / (mu0 c omega mu^2 |n| L),

whose solution through theta(0) = theta_r is

    theta(t) = 2 arctan( exp( sign(w0) * (t - tau_D) / tau_W ) ),
    tau_D    = -sign(w0) * tau_W * ln tan(theta_r / 2).

A SuperradianceSolution counts t from the seed's handover at tau_r: the
burst depends on time only through (t - tau_D)/tau_W, so times within a few
tau_W of 0 stay resolved however short tau_W is next to tau_r. Pump time,
tau_r + t, is formed only where a column is written in it.

The burst reads the medium through the inversion density n = w0 N
(TwoLevelMedium.n), its sign and the column density n L, which each closed
form takes before its constant prefactor; w0 alone sets only w = w0 cos theta.

Both signs of w0 give the same emitted burst shapes: a hyperbolic-secant
field, a sech^2 power peaking at tau_D with value P0, and a stored-energy
density that relaxes along -tanh. An independent fixed-step integrator for
the pendulum equation is provided so the closed forms can be checked rather
than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, s_to_ps
from .csvio import finite_columns, write_columns
from .errors import NumericalError
from .profiles import sech2_profile
from .system import TwoLevelMedium

__all__ = [
    "characteristic_duration",
    "spontaneous_decay_time",
    "time_delay",
    "SuperradianceSolution",
    "solve_after_seed",
    "peak_power_density",
    "peak_intensity",
    "energy_density",
    "emitted_power_density",
    "emitted_intensity",
    "emitted_field_envelope",
    "integrate_pendulum",
    "write_profile_csv",
]


def characteristic_duration(medium: TwoLevelMedium):
    """Collective emission time scale tau_W = 4 hbar / (mu0 c omega mu^2 |n| L), n = w0 N.

    Elementwise when medium.N is a scan column. A denominator that
    underflows to 0 raises NumericalError.
    """
    k = CONSTANTS
    denom = k.mu0 * k.c * medium.omega * medium.mu**2 * (abs(medium.n) * medium.L)
    if not np.greater(denom, 0.0).all():
        if not np.greater(medium.N, 0.0).all() or medium.w0 == 0.0:
            raise ValueError("collective emission requires N > 0 and w0 != 0")
        raise NumericalError(
            "tau_W is not finite: its denominator mu0 c omega mu^2 |w0| N L is 0 "
            f"at N = {float(np.min(medium.N))!r} m^-3"
        )
    return 4.0 * k.hbar / denom


def spontaneous_decay_time(medium: TwoLevelMedium) -> float:
    """Single-emitter radiative lifetime 3 pi eps0 hbar c^3 / (omega^3 mu^2)."""
    k = CONSTANTS
    return 3.0 * math.pi * k.eps0 * k.hbar * k.c**3 / (medium.omega**3 * medium.mu**2)


def _branch(w0: float) -> float:
    return math.copysign(1.0, w0)


def time_delay(medium: TwoLevelMedium, theta_r: float):
    """Burst delay after the handover, tau_D = -sign(w0) tau_W ln tan(theta_r / 2).

    For an inverted medium this is positive exactly when theta_r < pi/2
    (the smaller the tipping angle, the longer the lever arm of the unstable
    equilibrium); for an absorbing medium the sign flips. Diverges
    logarithmically as theta_r -> 0 or pi. Elementwise in a scan column N.
    The peak in pump time is tau_r + tau_D.
    """
    if not 0.0 < theta_r < math.pi:
        # Fixed point for any angle a seed of sane strength gives; a huge
        # angle in fixed point would print some 300 digits.
        shown = f"{theta_r:.4f}" if abs(theta_r) < 1e6 else f"{theta_r:.4e}"
        raise ValueError(
            f"the seed tips the Bloch vector to {shown} rad; "
            "theta_r must lie strictly inside (0, pi)"
        )
    tau_w = characteristic_duration(medium)
    # ln tan(pi/4) is 0; special-cased so the midpoint maps to +0.0 exactly.
    log_tan = 0.0 if theta_r == 0.5 * math.pi else math.log(math.tan(0.5 * theta_r))
    return 0.0 - _branch(medium.w0) * tau_w * log_tan


@dataclass(frozen=True)
class SuperradianceSolution:
    """Closed-form description of one burst, frozen after construction."""

    medium: TwoLevelMedium
    theta_r: float   # Bloch angle handed over by the seed stage, rad
    tau_W: float     # burst width parameter, s
    tau_D: float     # burst peak time after the handover, s
    P0: float        # peak emitted power density, W/m^3

    def __post_init__(self) -> None:
        if not self.tau_W > 0.0:
            raise ValueError("tau_W must be positive")

    def _x(self, t):
        return _branch(self.medium.w0) * (np.asarray(t, dtype=float) - self.tau_D) / self.tau_W

    def bloch_angle(self, t):
        """theta(t) on this solution's branch; pi/2 at tau_D."""
        # exp overflow far past tau_D saturates to arctan(inf) = pi/2, which is
        # exactly the limit we want, so the warning carries no information.
        with np.errstate(over="ignore"):
            return 2.0 * np.arctan(np.exp(self._x(t)))

    def population_difference(self, t):
        """w(t) = w0 cos theta(t) = -|w0| tanh((t - tau_D)/tau_W)."""
        return -abs(self.medium.w0) * np.tanh((np.asarray(t, dtype=float) - self.tau_D) / self.tau_W)

    def time_grid(self, window_tau_w: float, n: int) -> np.ndarray:
        """Uniform grid spanning tau_D +- window_tau_w * tau_W."""
        if not window_tau_w > 0.0 or n < 2:
            raise ValueError("window must be positive and n at least 2")
        return np.linspace(self.tau_D - window_tau_w * self.tau_W,
                           self.tau_D + window_tau_w * self.tau_W, n)


def peak_power_density(medium: TwoLevelMedium):
    """Burst peak power per volume P0 = mu0 c omega^2 mu^2 n n L / 8, elementwise in N."""
    k, n = CONSTANTS, medium.n
    return 0.125 * k.mu0 * k.c * medium.omega**2 * medium.mu**2 * (n * (n * medium.L))


def peak_intensity(medium: TwoLevelMedium):
    """Burst peak intensity, exactly peak_power_density * L (scales as n^2 L^2)."""
    return peak_power_density(medium) * medium.L


def solve_after_seed(medium: TwoLevelMedium, theta_r: float) -> SuperradianceSolution:
    """Build the burst solution from the handover state, theta_r at t = 0.

    time_delay checks theta_r and characteristic_duration checks w0 and N;
    theta_r = pi/2 peaks at the handover, tau_D = +0.0. P0 and I0 are
    positive for every medium that can superradiate, so a
    value of 0 or inf means the peak left the floating-point range: that
    raises NumericalError rather than hand on a burst with no signal.
    """
    tau_d = time_delay(medium, theta_r)
    tau_w = characteristic_duration(medium)
    p0 = peak_power_density(medium)
    i0 = p0 * medium.L
    if not (0.0 < p0 < math.inf and 0.0 < i0 < math.inf):
        raise NumericalError(
            f"burst peak P0 = {p0:.3e} W/m^3 (I0 = {i0:.3e} W/m^2) "
            "left the floating-point range"
        )
    return SuperradianceSolution(
        medium=medium,
        theta_r=theta_r,
        tau_W=tau_w,
        tau_D=tau_d,
        P0=p0,
    )


def energy_density(t, sol: SuperradianceSolution):
    """Stored excitation energy density, -(hbar omega |n| / 2) tanh((t - tau_D)/tau_W).

    Equals (hbar omega n / 2) cos theta(t) on either branch: it decreases
    through zero at tau_D as the medium radiates. J/m^3.
    """
    m = sol.medium
    x = (np.asarray(t, dtype=float) - sol.tau_D) / sol.tau_W
    return -0.5 * CONSTANTS.hbar * m.omega * abs(m.n) * np.tanh(x)


def emitted_power_density(t, sol: SuperradianceSolution):
    """Radiated power per volume, P0 sech^2((t - tau_D)/tau_W). W/m^3."""
    return sech2_profile(t, sol.P0, sol.tau_D, sol.tau_W)


def emitted_intensity(t, sol: SuperradianceSolution):
    """Intensity leaving the medium: emitted power density times L. W/m^2."""
    return emitted_power_density(t, sol) * sol.medium.L


def emitted_field_envelope(t, sol: SuperradianceSolution):
    """Emitted field amplitude (mu0 omega c mu |n| L / 2) sech((t - tau_D)/tau_W). V/m."""
    m = sol.medium
    k = CONSTANTS
    amp = 0.5 * k.mu0 * m.omega * k.c * m.mu * (abs(m.n) * m.L)
    x = (np.asarray(t, dtype=float) - sol.tau_D) / sol.tau_W
    # cosh overflow far from tau_D saturates the field to its limit 0.
    with np.errstate(over="ignore"):
        return amp / np.cosh(x)


def integrate_pendulum(
    theta_r: float,
    medium: TwoLevelMedium,
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of d theta/dt = sign(w0) sin(theta)/tau_W.

    Starts from the handover, theta(0) = theta_r, and returns (t, theta)
    arrays on a uniform grid that lands exactly on t_end. This deliberately
    shares no code with the closed forms above. Raises NumericalError, naming the first
    bad time, on non-finite states.
    """
    if not 0.0 < theta_r < math.pi:
        raise ValueError("theta_r must lie strictly inside (0, pi)")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    # Plain floats throughout: numpy scalars would slow the loop several-fold.
    rate = float(_branch(medium.w0) / characteristic_duration(medium))

    n = max(1, math.ceil(t_end / dt - 1e-12))
    h = t_end / n
    # Classical RK4 with k2 and k3 carried doubled. Scaling by 2 is exact, so
    # rate2 * s == 2 * (rate * s), quarter * (2 k2) == half * k2 and
    # half * (2 k3) == h * k3 hold bit for bit, and the angles equal those of
    # the textbook form k1 + 2 k2 + 2 k3 + k4 with two multiplications fewer.
    half, quarter, sixth, rate2, sin = 0.5 * h, 0.25 * h, h / 6.0, 2.0 * rate, math.sin
    th = float(theta_r)
    theta = [th] * (n + 1)
    # A NaN angle stays NaN and sin(inf) raises ValueError, so one check
    # after the loop finds the first bad step.
    try:
        for i in range(1, n + 1):
            k1 = rate * sin(th)
            k2x2 = rate2 * sin(th + half * k1)
            k3x2 = rate2 * sin(th + quarter * k2x2)
            k4 = rate * sin(th + half * k3x2)
            th += sixth * (k1 + k2x2 + k3x2 + k4)
            theta[i] = th
    except ValueError:
        theta[i] = math.nan
    out = np.fromiter(theta, float, n + 1)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NumericalError(f"pendulum angle became non-finite at t = {bad[0] * h:.6e} s")
    return np.linspace(0.0, t_end, n + 1), out


def write_profile_csv(path, sol: SuperradianceSolution, t: np.ndarray, tau_r: float) -> None:
    """Write burst profiles on grid t, counted from the handover; t_ps is tau_r + t."""
    t = np.asarray(t, dtype=float)
    header = "t_ps,theta_rad,energy_density_J_m3,power_W_m3,intensity_W_m2,field_V_m"
    write_columns(path, header, finite_columns("profile", header, lambda: [
        s_to_ps(tau_r + t), sol.bloch_angle(t), energy_density(t, sol),
        emitted_power_density(t, sol), emitted_intensity(t, sol), emitted_field_envelope(t, sol),
    ], lambda i: f"t = {(tau_r + t[i]).item()!r} s"))
