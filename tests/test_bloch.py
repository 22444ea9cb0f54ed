"""Seed-stage dynamics: quadrature pulse area, RK4 integration, closed form."""

import math

import numpy as np
import pytest

from n2sr.bloch import (
    BlochTrajectory,
    bloch_angle,
    integrate_bloch_rwa,
    rabi_frequency_peak,
)
from n2sr.constants import CONSTANTS
from n2sr.errors import NumericalError
from n2sr.system import SeedPulse

# Pulse area at the end of the seed stage, frozen from the error-function
# closed form of the Gaussian integral (see test_angle_matches_erf_oracle).
THETA_R = 0.17392466546264773


def constant_envelope(t):
    return np.ones_like(np.asarray(t, dtype=float))


def test_angle_matches_erf_oracle(seed, template):
    """Simpson quadrature against the exact Gaussian integral.

    integral_0^{3.6 tau_s} exp(-a ((t - tau_s)/tau_s)^2) dt with a = 2 ln 2
    has the closed form tau_s sqrt(pi/a)/2 (erf(sqrt(a)) + erf(2.6 sqrt(a))).
    """
    a = 2.0 * math.log(2.0)
    area = seed.tau_s * math.sqrt(math.pi / a) / 2.0 * (
        math.erf(math.sqrt(a)) + math.erf(2.6 * math.sqrt(a))
    )
    expected = template.mu * seed.E0 / CONSTANTS.hbar * area
    got = bloch_angle(seed, template, seed.tau_r)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(THETA_R, rel=1e-14)


def test_angle_in_published_band(seed, template):
    theta = bloch_angle(seed, template, seed.tau_r)
    assert 0.054 * math.pi <= theta <= 0.060 * math.pi


def test_angle_edge_cases(seed, template):
    assert bloch_angle(seed, template, 0.0) == 0.0
    with pytest.raises(ValueError):
        bloch_angle(seed, template, -1e-13)
    with pytest.raises(ValueError):
        bloch_angle(seed, template, 1e-13, dt=0.0)


def closed_form(seed, medium, t):
    """Seed-stage state (v, w) = w0 (sin theta, cos theta), theta by quadrature."""
    theta = bloch_angle(seed, medium, t)
    return medium.w0 * math.sin(theta), medium.w0 * math.cos(theta)


def test_rabi_frequency(seed, template):
    assert rabi_frequency_peak(seed, template) == template.mu * seed.E0 / CONSTANTS.hbar


class TestIntegration:
    def test_matches_analytic_solution(self, seed, template):
        t_end = 4.0 * seed.tau_s
        traj = integrate_bloch_rwa(seed, template, t_end)
        # probe a handful of interior samples plus the endpoint
        for i in np.linspace(0, len(traj) - 1, 9, dtype=int):
            ref_v, ref_w = closed_form(seed, template, float(traj.t[i]))
            assert traj.v[i] == pytest.approx(ref_v, abs=1e-8)
            assert traj.w[i] == pytest.approx(ref_w, abs=1e-8)

    def test_conservation_per_step(self, seed, template):
        traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s)
        drift = np.abs(traj.v**2 + traj.w**2 - template.w0**2)
        assert drift.max() <= 1e-9

    def test_u_stays_zero(self, seed, template):
        traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s)
        assert np.all(traj.u == 0.0)

    def test_theta_column_matches_quadrature(self, seed, template):
        traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s)
        assert traj.theta[-1] == pytest.approx(
            bloch_angle(seed, template, 4.0 * seed.tau_s), rel=1e-9
        )

    def test_fourth_order_convergence(self, seed, template):
        """Halving the step shrinks the final-state error ~16x."""
        t_end = 4.0 * seed.tau_s
        ref_v, ref_w = closed_form(seed, template, t_end)

        def err(n):
            traj = integrate_bloch_rwa(seed, template, t_end, dt=t_end / n)
            return max(abs(traj.v[-1] - ref_v), abs(traj.w[-1] - ref_w))

        e20, e40, e80 = err(20), err(40), err(80)
        assert 12.8 <= e20 / e40 <= 19.2
        assert 12.8 <= e40 / e80 <= 19.2

    @pytest.mark.parametrize("e0", [1e8, 3e8])
    def test_matches_scalar_rk4(self, seed, template, e0):
        """The complex-factor kernel is the classical per-step RK4 on (v, w).

        A plain scalar RK4, fed the same Omega nodes, agrees to 1e-15 over
        200 steps while the Bloch vector turns through up to about 2 pi.
        """
        pulse = SeedPulse(E0=e0, tau_s=seed.tau_s, tau_r=seed.tau_r)
        n = 200
        t_end = pulse.tau_r
        h = t_end / n
        traj = integrate_bloch_rwa(pulse, template, t_end, dt=h)
        assert len(traj) == n + 1
        omega = rabi_frequency_peak(pulse, template) * pulse.field_envelope(
            np.linspace(0.0, t_end, 2 * n + 1)
        )
        v, w = 0.0, template.w0
        for i in range(n):
            o1, o2, o3 = omega[2 * i], omega[2 * i + 1], omega[2 * i + 2]
            k1v, k1w = o1 * w, -o1 * v
            k2v, k2w = o2 * (w + 0.5 * h * k1w), -o2 * (v + 0.5 * h * k1v)
            k3v, k3w = o2 * (w + 0.5 * h * k2w), -o2 * (v + 0.5 * h * k2v)
            k4v, k4w = o3 * (w + h * k3w), -o3 * (v + h * k3v)
            v += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            w += (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            assert abs(traj.v[i + 1] - v) <= 1e-15
            assert abs(traj.w[i + 1] - w) <= 1e-15

    def test_pi_pulse_inverts_population(self, template):
        """Constant envelope with area pi maps (0, 0, w0) to (0, 0, -w0)."""
        t_end = 1e-12
        e0 = math.pi * CONSTANTS.hbar / (template.mu * t_end)
        pulse = SeedPulse(E0=e0, tau_s=t_end, tau_r=t_end)
        traj = integrate_bloch_rwa(pulse, template, t_end, envelope=constant_envelope)
        assert traj.v[-1] == pytest.approx(0.0, abs=1e-6)
        assert traj.w[-1] == pytest.approx(-template.w0, abs=1e-6)

    def test_constant_envelope_is_pure_rotation(self, template):
        pulse = SeedPulse(E0=2e8, tau_s=1e-13, tau_r=3.6e-13)
        t_end = 5e-13
        omega = rabi_frequency_peak(pulse, template)
        traj = integrate_bloch_rwa(pulse, template, t_end, envelope=constant_envelope)
        for i in np.linspace(0, len(traj) - 1, 7, dtype=int):
            phase = omega * traj.t[i]
            assert traj.v[i] == pytest.approx(template.w0 * math.sin(phase), abs=1e-9)
            assert traj.w[i] == pytest.approx(template.w0 * math.cos(phase), abs=1e-9)

    def test_grid_lands_on_t_end(self, seed, template):
        traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 4.0 * seed.tau_s

    def test_bad_arguments(self, seed, template):
        with pytest.raises(ValueError):
            integrate_bloch_rwa(seed, template, 0.0)
        with pytest.raises(ValueError):
            integrate_bloch_rwa(seed, template, 1e-13, dt=2e-13)

    def test_blowup_raises_numerical_error(self, template):
        pulse = SeedPulse(E0=1e30, tau_s=0.26e-12, tau_r=3.6 * 0.26e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"non-finite at t = \d"):
                integrate_bloch_rwa(pulse, template, 4.0 * pulse.tau_s, dt=pulse.tau_s / 10)


def test_analytic_solution_at_zero(seed, template):
    assert closed_form(seed, template, 0.0) == (0.0, template.w0)


def test_trajectory_container(seed, template):
    traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s, dt=seed.tau_s / 50)
    assert len(traj) == len(traj.t) == 201
    assert (traj.u[0], traj.v[0], traj.w[0], traj.theta[0]) == (0.0, 0.0, template.w0, 0.0)
    assert traj.t[-1] == 4.0 * seed.tau_s


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 1.0])
    z = np.zeros(3)
    with pytest.raises(ValueError):
        BlochTrajectory(t=t, u=z, v=z, w=z, theta=z)  # t not strictly increasing
    with pytest.raises(ValueError):
        BlochTrajectory(t=np.array([0.0, 1.0]), u=z, v=z, w=z, theta=z)


def test_trajectory_arrays_locked(seed, template):
    traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s, dt=seed.tau_s / 50)
    with pytest.raises(ValueError):
        traj.v[0] = 1.0


def test_trajectory_csv(tmp_path, seed, template):
    traj = integrate_bloch_rwa(seed, template, 4.0 * seed.tau_s, dt=seed.tau_s / 50)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_ps,u,v,w,theta_rad"
    assert len(lines) == len(traj) + 1
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(traj.t[-1] * 1e12, rel=1e-15)
    assert float(last[3]) == pytest.approx(traj.w[-1], rel=1e-15)

