"""Seed-stage dynamics of the emitter Bloch vector (u, v, w).

On resonance and in the rotating-wave approximation the seed drives

    du/dt = 0,   dv/dt = Omega(t) w,   dw/dt = -Omega(t) v,

with instantaneous Rabi frequency Omega(t) = mu E0 f(t) / hbar. Starting
from (0, 0, w0) the solution is a pure rotation in the v-w plane through the
accumulated pulse area theta(t) = (mu E0 / hbar) * integral of f. For the
seed's Gaussian envelope that integral is an erf (SeedPulse.envelope_area),
which bloch_angle evaluates; integrate_bloch_rwa steps the equations with
RK4 instead, so each can serve as a check on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import CONSTANTS, s_to_ps
from .csvio import finite_columns, write_columns
from .errors import NumericalError
from .system import SeedPulse, TwoLevelMedium

__all__ = [
    "BlochTrajectory",
    "rabi_frequency_peak",
    "bloch_angle",
    "integrate_bloch_rwa",
]


@dataclass(frozen=True)
class BlochTrajectory:
    """Time-ordered Bloch vector history with the accumulated pulse area."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("u", "v", "w", "theta"):
            if len(getattr(self, name)) != n:
                raise ValueError("all trajectory columns must have equal length")
        if n < 2 or not np.all(np.diff(self.t) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        for name in ("t", "u", "v", "w", "theta"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        header = "t_ps,u,v,w,theta_rad"
        write_columns(path, header, finite_columns("trajectory", header, lambda: [
            s_to_ps(self.t), self.u, self.v, self.w, self.theta,
        ], lambda i: f"t = {self.t[i].item()!r} s"))


def rabi_frequency_peak(pulse: SeedPulse, medium: TwoLevelMedium) -> float:
    """Peak Rabi frequency mu E0 / hbar in rad/s."""
    return medium.mu * pulse.E0 / CONSTANTS.hbar


def bloch_angle(pulse: SeedPulse, medium: TwoLevelMedium, t):
    """Accumulated pulse area theta(t), in closed form, for t >= 0 a scalar or an array.

    theta(t) = Omega_0 tau_s sqrt(pi / (8 ln 2)) [erf(sqrt(2 ln 2) (t/tau_s - 1)) + erf(sqrt(2 ln 2))]
    with Omega_0 the peak Rabi frequency.
    """
    if np.less(t, 0.0).any():
        raise ValueError("t must be non-negative")
    return rabi_frequency_peak(pulse, medium) * pulse.envelope_area(t)


# A seed field near the float maximum overflows Omega, the RK4 factors or
# their product; the check at the end names the first bad time instead.
@np.errstate(over="ignore", invalid="ignore")
def integrate_bloch_rwa(
    pulse: SeedPulse,
    medium: TwoLevelMedium,
    t_end: float,
    dt: float,
    envelope: Optional[Callable] = None,
) -> BlochTrajectory:
    """Integrate the resonant RWA Bloch equations from t = 0 to t_end.

    Classical fixed-step fourth-order Runge-Kutta on (v, w), with the pulse
    area theta carried along (u stays identically at its initial value 0).
    The actual step is h = t_end / n with n chosen so the step does not
    exceed the requested dt and the grid lands exactly on t_end.

    With z = w + i v the system is dz/dt = i Omega(t) z, so one RK4 step is
    a multiplication by a complex factor built from the step's three Omega
    nodes (start, midpoint, end):

        k1 = i Omega_1,              k2 = i Omega_2 (1 + h/2 k1),
        k3 = i Omega_2 (1 + h/2 k2), k4 = i Omega_3 (1 + h k3),
        g  = 1 + h/6 (k1 + 2 k2 + 2 k3 + k4).

    The trajectory is z_n = w0 g_1 ... g_n, a cumulative product. Expanded
    with a_j = h Omega_j, the factor is

        Re g = 1 - a_2 (a_1 + a_2 + a_3) / 6 + a_1 a_2^2 a_3 / 24,
        Im g = dtheta - a_2^2 (a_1 + a_3) / 12,

    where dtheta = (a_1 + 4 a_2 + a_3) / 6 is the step's Simpson increment
    of the pulse area theta, whose cumulative sum is the theta column.
    Raises NumericalError, naming the first bad time, if the state stops
    being finite.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if dt >= t_end:
        raise ValueError("dt must be smaller than t_end")
    f = pulse.field_envelope if envelope is None else envelope
    n = max(1, math.ceil(t_end / dt - 1e-12))
    h = t_end / n

    # Envelope values at all full- and half-step nodes, evaluated in one shot.
    # Temporaries are kept few: at a few thousand steps, first-touch page
    # faults on fresh arrays cost more than the arithmetic.
    omega = rabi_frequency_peak(pulse, medium) * np.asarray(
        f(np.linspace(0.0, t_end, 2 * n + 1)), dtype=float
    )
    o1, o2, o3 = omega[0:-1:2], omega[1::2], omega[2::2]

    dtheta = (h / 6.0) * (o1 + 4.0 * o2 + o3)
    theta = np.empty(n + 1)
    theta[0] = 0.0
    np.cumsum(dtheta, out=theta[1:])

    # Omega is not needed again, so scale it in place to a_j = h Omega_j.
    a = np.multiply(omega, h, out=omega)
    a1, a2, a3 = a[0:-1:2], a[1::2], a[2::2]
    outer = a1 + a3
    a2_sq = a2 * a2
    # z[0] = 1 and z[i] = g_i, so w0 times the cumulative product is the trajectory.
    z = np.empty(n + 1, dtype=complex)
    z[0] = 1.0
    z.real[1:] = 1.0 - a2 * (outer + a2) / 6.0 + a1 * a3 * a2_sq / 24.0
    z.imag[1:] = dtheta - a2_sq * outer / 12.0
    np.cumprod(z, out=z)
    z *= medium.w0
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise NumericalError(f"Bloch state became non-finite at t = {bad[0] * h:.6e} s")

    return BlochTrajectory(
        t=np.linspace(0.0, t_end, n + 1),
        u=np.zeros(n + 1),
        v=z.imag.copy(),
        w=z.real.copy(),
        theta=theta,
    )

