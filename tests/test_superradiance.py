"""Burst stage: closed-form pendulum solution, regimes, emission profiles."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from n2sr.config import reference_solution
from n2sr.constants import CONSTANTS, s_to_ps
from n2sr.errors import NumericalError
from n2sr.superradiance import (
    SuperradianceSolution,
    characteristic_duration,
    emitted_field_envelope,
    emitted_intensity,
    emitted_power_density,
    energy_density,
    integrate_pendulum,
    peak_intensity,
    peak_power_density,
    solve_after_seed,
    spontaneous_decay_time,
    time_delay,
    write_profile_csv,
)

# Frozen reference values for the default configuration at the 8 mbar anchor
# (theta_r from the quadrature of the seed stage, all SI).
THETA_R = 0.17392466546264773
TAU_R = 3.6 * 0.26e-12
TAU_SP = 6.595238361698918e-08
TAU_D8 = 5.000631726343635e-12
P0_8 = 66152394210410.35


@pytest.fixture(scope="module")
def sol8(anchor_medium):
    return solve_after_seed(anchor_medium, THETA_R)


class TestTimescales:
    def test_spontaneous_decay_value(self, anchor_medium):
        tau_sp = spontaneous_decay_time(anchor_medium)
        assert tau_sp == pytest.approx(TAU_SP, rel=1e-12)
        assert tau_sp == pytest.approx(6.6e-8, rel=0.02)

    def test_spontaneous_decay_scaling(self, anchor_medium):
        tau_sp = spontaneous_decay_time(anchor_medium)
        double_mu = dataclasses.replace(anchor_medium, mu=2.0 * anchor_medium.mu)
        assert spontaneous_decay_time(double_mu) == pytest.approx(tau_sp / 4.0, rel=1e-15)
        double_omega = dataclasses.replace(anchor_medium, omega=2.0 * anchor_medium.omega)
        assert spontaneous_decay_time(double_omega) == pytest.approx(tau_sp / 8.0, rel=1e-15)

    def test_duration_at_anchor(self, anchor_medium):
        # the density was calibrated from exactly this number
        assert characteristic_duration(anchor_medium) == pytest.approx(1.666e-12, rel=1e-12)

    def test_duration_formula_equivalence(self, anchor_medium):
        """4 hbar/(mu0 c omega mu^2 |w0| N L) == 16 pi tau_sp/(3 lambda^2 |w0| N L)."""
        m = anchor_medium
        lam = 2.0 * math.pi * CONSTANTS.c / m.omega
        alt = (
            16.0 * math.pi * spontaneous_decay_time(m)
            / (3.0 * lam**2 * abs(m.w0) * m.N * m.L)
        )
        assert characteristic_duration(m) == pytest.approx(alt, rel=1e-12)

    def test_duration_halves_when_density_doubles(self, anchor_medium):
        tau = characteristic_duration(anchor_medium)
        doubled = dataclasses.replace(anchor_medium, N=2.0 * anchor_medium.N)
        assert characteristic_duration(doubled) == 0.5 * tau

    def test_duration_halves_when_length_doubles(self, anchor_medium):
        tau = characteristic_duration(anchor_medium)
        doubled = dataclasses.replace(anchor_medium, L=2.0 * anchor_medium.L)
        assert characteristic_duration(doubled) == 0.5 * tau

    def test_duration_uses_magnitude_of_w0(self, anchor_medium):
        """Bit for bit: `sr regimes` writes one time grid for all four panels."""
        flipped = dataclasses.replace(anchor_medium, w0=-anchor_medium.w0)
        assert characteristic_duration(flipped) == characteristic_duration(anchor_medium)

    def test_no_emission_without_emitters(self, template, anchor_medium):
        message = r"^collective emission requires N > 0 and w0 != 0$"
        with pytest.raises(ValueError, match=message):
            characteristic_duration(template)  # N = 0
        with pytest.raises(ValueError, match=message):
            characteristic_duration(dataclasses.replace(anchor_medium, w0=0.0))


class TestTimeDelay:
    def test_midpoint_maps_to_handover_time(self, anchor_medium):
        tau_d = time_delay(anchor_medium, 0.5 * math.pi)
        assert tau_d == 0.0 and math.copysign(1.0, tau_d) == 1.0

    def test_anchor_value(self, anchor_medium):
        tau_d = time_delay(anchor_medium, THETA_R)
        assert TAU_R + tau_d == pytest.approx(TAU_D8, rel=1e-12)
        tau_w = characteristic_duration(anchor_medium)
        assert tau_d / tau_w == pytest.approx(2.439754937781293, rel=1e-12)

    def test_published_rounded_inputs(self, anchor_medium):
        # with the rounded angle 0.057 pi the delay lands near 4.95 ps,
        # about 2.41 widths past the handover time
        tau_d = time_delay(anchor_medium, 0.057 * math.pi)
        assert s_to_ps(TAU_R + tau_d) == pytest.approx(4.951799871819509, rel=1e-12)
        assert abs(s_to_ps(TAU_R + tau_d) - 4.96) < 0.02
        tau_w = characteristic_duration(anchor_medium)
        assert tau_d / tau_w == pytest.approx(2.41, abs=0.01)

    def test_weak_seed_delays_strong_seed_advances(self, anchor_medium):
        assert time_delay(anchor_medium, 0.3 * math.pi) > 0.0
        assert time_delay(anchor_medium, 0.7 * math.pi) < 0.0

    def test_sign_flip_mirrors_offset(self, anchor_medium):
        flipped = dataclasses.replace(anchor_medium, w0=-anchor_medium.w0)
        for theta_r in (0.2 * math.pi, 0.7 * math.pi):
            assert time_delay(flipped, theta_r) == -time_delay(anchor_medium, theta_r)

    def test_rejects_degenerate_angle(self, anchor_medium):
        for theta_r in (0.0, math.pi, -0.1, 3.5):
            with pytest.raises(ValueError):
                time_delay(anchor_medium, theta_r)


class TestRegimes:
    @pytest.mark.parametrize(
        "w0, theta_r",
        [(0.0, 0.3 * math.pi), (0.1, 0.0), (0.1, math.pi)],
    )
    def test_degenerate_rejected(self, anchor_medium, w0, theta_r):
        medium = dataclasses.replace(anchor_medium, w0=w0)
        message = (
            "collective emission requires N > 0 and w0 != 0" if w0 == 0.0 else
            f"the seed tips the Bloch vector to {theta_r:.4f} rad; theta_r must lie strictly inside (0, pi)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_after_seed(medium, theta_r)

    @pytest.mark.parametrize("w0_sign", [1.0, -1.0])
    def test_quarter_turn_peaks_at_handover(self, anchor_medium, w0_sign):
        """theta_r = pi/2 is accepted on either branch, as time_delay and the scan accept it."""
        medium = dataclasses.replace(anchor_medium, w0=w0_sign * anchor_medium.w0)
        tau_d = solve_after_seed(medium, 0.5 * math.pi).tau_D
        assert tau_d == time_delay(medium, 0.5 * math.pi) == 0.0
        assert math.copysign(1.0, tau_d) == 1.0

    def test_delayed_peak_flags(self, anchor_medium):
        """The burst peaks after the handover exactly when sign(w0) (pi/2 - theta_r) > 0:
        the inverted medium with a weak seed and the absorbing one with a strong seed."""
        for w0 in (anchor_medium.w0, -anchor_medium.w0):
            medium = dataclasses.replace(anchor_medium, w0=w0)
            for theta_r in (0.057 * math.pi, 0.6 * math.pi):
                sol = solve_after_seed(medium, theta_r)
                assert (sol.tau_D > 0.0) == (math.copysign(1.0, w0) * (0.5 * math.pi - theta_r) > 0.0)


class TestBlochAngleClosedForm:
    """SuperradianceSolution.bloch_angle is 2 arctan(exp((t - tau_D)/tau_W)) for w0 > 0."""

    @staticmethod
    def angle(sol8, t, tau_d, tau_w):
        return dataclasses.replace(sol8, tau_D=tau_d, tau_W=tau_w).bloch_angle(t)

    def test_midpoint_is_quarter_turn(self, sol8):
        assert self.angle(sol8, 5e-12, 5e-12, 1e-12) == 0.5 * math.pi

    def test_one_width_past_midpoint(self, sol8):
        # theta(tau_D + tau_W) = 2 arctan(e)
        got = self.angle(sol8, 6e-12, 5e-12, 1e-12)
        assert got == pytest.approx(2.0 * math.atan(math.e), rel=1e-15)
        assert got == pytest.approx(2.4365658100345553, rel=1e-15)

    def test_limits(self, sol8):
        assert self.angle(sol8, -1e-9, 0.0, 1e-12) == pytest.approx(0.0, abs=1e-12)
        assert self.angle(sol8, 1e-9, 0.0, 1e-12) == pytest.approx(math.pi, abs=1e-12)

    @given(st.floats(min_value=-15.0, max_value=15.0), st.floats(min_value=-15.0, max_value=15.0))
    def test_strictly_increasing(self, sol8, x1, x2):
        t1, t2 = sorted((x1, x2))
        # sech(15) ~ 6e-7, so a 1e-6 gap still moves theta by well over an ulp
        if t2 - t1 < 1e-6:
            return
        tau_w = 1e-12
        assert self.angle(sol8, t1 * tau_w, 0.0, tau_w) < self.angle(sol8, t2 * tau_w, 0.0, tau_w)


class TestSolution:
    def test_anchor_solution(self, sol8, anchor_medium):
        assert sol8.tau_W == pytest.approx(1.666e-12, rel=1e-12)
        assert TAU_R + sol8.tau_D == pytest.approx(TAU_D8, rel=1e-12)
        assert sol8.P0 == pytest.approx(P0_8, rel=1e-12)

    def test_reference_solution_matches_two_stage(self, cfg):
        sol = reference_solution(cfg)
        assert sol.theta_r == pytest.approx(THETA_R, rel=1e-14)
        assert TAU_R + sol.tau_D == pytest.approx(TAU_D8, rel=1e-12)

    def test_peak_power_and_intensity(self, anchor_medium):
        m = anchor_medium
        k = CONSTANTS
        expected = k.mu0 * k.c * m.omega**2 * m.mu**2 * m.w0**2 * m.N**2 * m.L / 8.0
        assert peak_power_density(m) == pytest.approx(expected, rel=1e-15)
        assert peak_intensity(m) == peak_power_density(m) * m.L

    def test_peak_scaling(self, anchor_medium):
        doubled_n = dataclasses.replace(anchor_medium, N=2.0 * anchor_medium.N)
        assert peak_power_density(doubled_n) == 4.0 * peak_power_density(anchor_medium)
        doubled_l = dataclasses.replace(anchor_medium, L=2.0 * anchor_medium.L)
        assert peak_intensity(doubled_l) == 4.0 * peak_intensity(anchor_medium)
        assert peak_intensity(doubled_n) == 4.0 * peak_intensity(anchor_medium)

    def test_population_difference_identity(self, sol8, anchor_medium):
        """w(t) = w0 cos theta(t) and the tanh form agree on both branches."""
        t = sol8.time_grid(window_tau_w=10.0, n=101)
        got = sol8.population_difference(t)
        want = anchor_medium.w0 * np.cos(sol8.bloch_angle(t))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_population_difference_negative_branch(self, anchor_medium):
        flipped = dataclasses.replace(anchor_medium, w0=-anchor_medium.w0)
        sol = solve_after_seed(flipped, 0.7 * math.pi)
        t = sol.time_grid(window_tau_w=10.0, n=101)
        got = sol.population_difference(t)
        want = flipped.w0 * np.cos(sol.bloch_angle(t))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("scale_n, scale_l", [(1e-200, 1.0), (1e150, 1.0), (1.0, 1e300)])
    def test_peak_out_of_float_range_raises(self, anchor_medium, scale_n, scale_l):
        """P0 ~ N^2 L underflowing to 0 or overflowing to inf is a NumericalError."""
        m = dataclasses.replace(anchor_medium, N=scale_n * anchor_medium.N, L=scale_l * anchor_medium.L)
        with pytest.raises(NumericalError, match="burst peak P0 = "):
            solve_after_seed(m, THETA_R)


class TestEmission:
    def test_peak_value_and_place(self, sol8):
        assert emitted_power_density(sol8.tau_D, sol8) == sol8.P0
        assert emitted_intensity(sol8.tau_D, sol8) == sol8.P0 * sol8.medium.L

    def test_half_maximum_at_half_width_points(self, sol8):
        """sech^2 falls to half its peak at tau_D +- arccosh(sqrt 2) tau_W."""
        x_half = math.acosh(math.sqrt(2.0))
        for sign in (-1.0, 1.0):
            p = emitted_power_density(sol8.tau_D + sign * x_half * sol8.tau_W, sol8)
            assert p == pytest.approx(0.5 * sol8.P0, rel=1e-6)

    def test_far_tails_saturate_quietly(self, sol8):
        """exp, cosh and the square overflow 1000 tau_W out; the limits come back, unwarned."""
        t = sol8.tau_D + np.array([-1000.0, 1000.0]) * sol8.tau_W
        assert sol8.bloch_angle(t).tolist() == [0.0, math.pi]
        assert emitted_power_density(t, sol8).tolist() == [0.0, 0.0]
        assert emitted_field_envelope(t, sol8).tolist() == [0.0, 0.0]

    def test_intensity_is_power_times_length(self, sol8, anchor_medium, cfg):
        t = sol8.time_grid(cfg.window_tau_w, 101)
        assert np.all(
            emitted_intensity(t, sol8) == emitted_power_density(t, sol8) * anchor_medium.L
        )

    def test_field_envelope_consistent_with_intensity(self, sol8):
        """I_s = (1/2) sqrt(eps0/mu0) E^2 pointwise."""
        t = sol8.time_grid(window_tau_w=5.0, n=41)
        field = emitted_field_envelope(t, sol8)
        reconstructed = 0.5 * math.sqrt(CONSTANTS.eps0 / CONSTANTS.mu0) * field**2
        assert np.allclose(reconstructed, emitted_intensity(t, sol8), rtol=1e-9)

    def test_total_energy_identity(self, sol8, anchor_medium):
        """Integrated sech^2 burst carries hbar omega |w0| N per unit volume."""
        m = anchor_medium
        released = 2.0 * sol8.P0 * sol8.tau_W
        assert released == pytest.approx(
            CONSTANTS.hbar * m.omega * abs(m.w0) * m.N, rel=1e-12
        )

    def test_energy_density_monotone_decreasing(self, sol8, anchor_medium, cfg):
        # Strict decrease only holds where tanh has not saturated in floats,
        # so check it on +-6 tau_W and settle for non-increasing on the wide grid.
        e_core = energy_density(sol8.time_grid(window_tau_w=6.0, n=201), sol8)
        assert np.all(np.diff(e_core) < 0.0)
        t = sol8.time_grid(cfg.window_tau_w, 201)
        e = energy_density(t, sol8)
        assert np.all(np.diff(e) <= 0.0)
        half = 0.5 * CONSTANTS.hbar * anchor_medium.omega * abs(anchor_medium.w0) * anchor_medium.N
        assert e[0] == pytest.approx(half, rel=1e-6)
        assert e[-1] == pytest.approx(-half, rel=1e-6)

    def test_delayed_peak_regimes_peak_at_tau_d(self, anchor_medium):
        for medium, theta_r in (
            (anchor_medium, 0.057 * math.pi),
            (dataclasses.replace(anchor_medium, w0=-anchor_medium.w0), 0.6 * math.pi),
        ):
            sol = solve_after_seed(medium, theta_r)
            assert sol.tau_D > 0.0
            t = np.linspace(0.0, sol.tau_D + 10.0 * sol.tau_W, 4001)
            p = emitted_power_density(t, sol)
            assert float(p.max()) <= sol.P0
            assert emitted_power_density(sol.tau_D, sol) == sol.P0

    def test_declining_regimes_peak_at_handover(self, anchor_medium):
        for medium, theta_r in (
            (anchor_medium, 0.6 * math.pi),
            (dataclasses.replace(anchor_medium, w0=-anchor_medium.w0), 0.057 * math.pi),
        ):
            sol = solve_after_seed(medium, theta_r)
            assert sol.tau_D < 0.0
            t = np.linspace(0.0, 10.0 * sol.tau_W, 2001)
            p = emitted_power_density(t, sol)
            assert int(np.argmax(p)) == 0
            assert np.all(np.diff(p) < 0.0)


class TestPendulum:
    @pytest.mark.parametrize("theta_r", [0.057 * math.pi, 0.3 * math.pi, 0.6 * math.pi])
    def test_matches_closed_form(self, anchor_medium, theta_r):
        sol = solve_after_seed(anchor_medium, theta_r)
        tau_w = sol.tau_W
        t, theta = integrate_pendulum(theta_r, anchor_medium, 10.0 * tau_w, dt=1e-3 * tau_w)
        assert np.abs(theta - sol.bloch_angle(t)).max() <= 1e-7

    def test_crosses_quarter_turn_at_tau_d(self, anchor_medium):
        """The integrated angle passes pi/2 within one step of time_delay."""
        tau_w = characteristic_duration(anchor_medium)
        dt = 1e-3 * tau_w
        tau_d = time_delay(anchor_medium, THETA_R)
        t, theta = integrate_pendulum(THETA_R, anchor_medium, 10.0 * tau_w, dt)
        idx = int(np.searchsorted(theta, 0.5 * math.pi))
        assert abs(t[idx] - tau_d) <= 2.0 * dt

    def test_negative_inversion_decays_to_zero(self, anchor_medium):
        """With w0 < 0 and a weak seed the angle relaxes monotonically to 0."""
        flipped = dataclasses.replace(anchor_medium, w0=-anchor_medium.w0)
        tau_w = characteristic_duration(flipped)
        t, theta = integrate_pendulum(0.3 * math.pi, flipped, 10.0 * tau_w, dt=1e-3 * tau_w)
        assert np.all(np.diff(theta) < 0.0)
        assert theta[-1] == pytest.approx(0.0, abs=1e-4)

    def test_negative_branch_closed_form(self, anchor_medium):
        flipped = dataclasses.replace(anchor_medium, w0=-anchor_medium.w0)
        sol = solve_after_seed(flipped, 0.7 * math.pi)
        t, theta = integrate_pendulum(0.7 * math.pi, flipped, 10.0 * sol.tau_W, dt=1e-3 * sol.tau_W)
        assert np.abs(theta - sol.bloch_angle(t)).max() <= 1e-7

    @pytest.mark.parametrize("theta_r", [0.057 * math.pi, 0.3 * math.pi, 0.6 * math.pi])
    def test_fourth_order_convergence(self, anchor_medium, theta_r):
        """Halving the step shrinks the worst error against the closed form ~16x."""
        sol = solve_after_seed(anchor_medium, theta_r)
        span = 10.0 * sol.tau_W

        def err(n):
            t, theta = integrate_pendulum(theta_r, anchor_medium, span, span / n)
            return np.abs(theta - sol.bloch_angle(t)).max()

        e40, e80, e160 = err(40), err(80), err(160)
        assert 12.8 <= e40 / e80 <= 19.2
        assert 12.8 <= e80 / e160 <= 19.2

    @pytest.mark.parametrize(
        "w0_sign, theta_r", [(1.0, 0.057 * math.pi), (1.0, 0.6 * math.pi), (-1.0, 0.7 * math.pi)]
    )
    def test_matches_textbook_rk4_bit_for_bit(self, anchor_medium, w0_sign, theta_r):
        """The integrator's angles equal a plain per-step RK4 exactly."""
        medium = dataclasses.replace(anchor_medium, w0=w0_sign * anchor_medium.w0)
        tau_w = characteristic_duration(medium)
        n = 500
        t, theta = integrate_pendulum(theta_r, medium, 10.0 * tau_w, 10.0 * tau_w / n)
        assert len(theta) == n + 1
        rate = w0_sign / tau_w
        h = 10.0 * tau_w / n
        th = theta_r
        expected = [th]
        for _ in range(n):
            k1 = rate * math.sin(th)
            k2 = rate * math.sin(th + 0.5 * h * k1)
            k3 = rate * math.sin(th + 0.5 * h * k2)
            k4 = rate * math.sin(th + h * k3)
            th += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(th)
        assert np.array_equal(theta, np.array(expected))

    def test_blowup_raises_numerical_error(self, anchor_medium):
        """A step so long the angle overflows ends in NumericalError, not ValueError."""
        h = 1e299
        with pytest.raises(NumericalError) as info:
            integrate_pendulum(0.3 * math.pi, anchor_medium, 10.0 * h, h)
        assert f"t = {h:.6e} s" in str(info.value)


def test_profile_csv(tmp_path, sol8, cfg):
    path = tmp_path / "profile.csv"
    write_profile_csv(path, sol8, sol8.time_grid(cfg.window_tau_w, cfg.profile_points), TAU_R)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_ps,theta_rad,energy_density_J_m3,power_W_m3,intensity_W_m2,field_V_m"
    assert len(lines) == 2002  # the configured grid plus header
    mid = lines[1001].split(",")
    assert float(mid[0]) == pytest.approx(s_to_ps(TAU_R + sol8.tau_D), rel=1e-12)
    assert float(mid[3]) == pytest.approx(sol8.P0, rel=1e-12)
