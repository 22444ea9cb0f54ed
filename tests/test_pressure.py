"""Density calibration, pressure scan predictions, dephasing window."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sr.constants import CONSTANTS, per_m3_to_per_cm3, ps_to_s, s_to_ps
from n2sr.errors import NumericalError
from n2sr.pressure import (
    REFERENCE_DENSITY_SLOPE_PER_CM3_MBAR,
    BelowThresholdError,
    DensityCalibration,
    calibrate_density_scale,
    dephasing_time,
    density_from_pressure,
    emitted_energy_integral,
    medium_at_pressure,
    pressure_scan,
    total_emitted_energy,
    validity_margin,
    write_scan_csv,
)
from n2sr.superradiance import (
    characteristic_duration,
    peak_intensity,
    peak_power_density,
    time_delay,
)

THETA_R = 0.17392466546264773
TABLE_PRESSURES = [6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]


class TestCalibration:
    def test_slope_value(self, cal):
        # frozen: inverting tau_W = 1.666 ps at 8 mbar with the default medium
        assert cal.k == pytest.approx(7.888381310743845e20, rel=1e-12)
        assert per_m3_to_per_cm3(cal.k) == pytest.approx(7.888e14, rel=1e-3)

    def test_differs_from_published_slope(self, cal):
        """The published density slope is ~3x larger than the anchor implies.

        Both numbers are carried; neither is asserted as truth. This test
        just pins the observed ratio so a silent change would be noticed.
        """
        ratio = REFERENCE_DENSITY_SLOPE_PER_CM3_MBAR / per_m3_to_per_cm3(cal.k)
        assert ratio == pytest.approx(2.89, abs=0.01)

    def test_anchor_roundtrip(self, cal, template):
        m = medium_at_pressure(cal, template, cal.anchor_p)
        assert characteristic_duration(m) == pytest.approx(cal.anchor_tau_w, rel=1e-10)

    def test_doubling_anchor_width_halves_slope(self, cal, template):
        wider = calibrate_density_scale(
            cal.anchor_p, 2.0 * cal.anchor_tau_w, cal.p0, template
        )
        assert wider.k == pytest.approx(0.5 * cal.k, rel=1e-15)

    def test_threshold_maps_to_zero_density(self, cal):
        assert density_from_pressure(cal, cal.p0) == 0.0

    def test_density_is_linear(self, cal):
        n6, n8, n10 = (density_from_pressure(cal, p) for p in (6.0, 8.0, 10.0))
        assert n8 - n6 == pytest.approx(n10 - n8, rel=1e-12)

    def test_below_threshold_rejected(self, cal):
        with pytest.raises(BelowThresholdError):
            density_from_pressure(cal, 2.0)

    def test_bad_calibration_inputs(self, template):
        with pytest.raises(ValueError):
            calibrate_density_scale(2.0, 1.666e-12, 2.5, template)  # anchor below p0
        with pytest.raises(ValueError):
            calibrate_density_scale(8.0, 0.0, 2.5, template)
        with pytest.raises(ValueError):
            DensityCalibration(k=-1.0, p0=2.5, anchor_p=8.0, anchor_tau_w=1.666e-12)

    @settings(max_examples=30)
    @given(
        p_anchor=st.floats(min_value=3.0, max_value=30.0),
        tau_w_ps=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_roundtrip_property(self, template, p_anchor, tau_w_ps):
        cal = calibrate_density_scale(p_anchor, ps_to_s(tau_w_ps), 2.5, template)
        m = medium_at_pressure(cal, template, p_anchor)
        assert characteristic_duration(m) == pytest.approx(ps_to_s(tau_w_ps), rel=1e-10)


class TestEmittedEnergy:
    def test_quarter_turn_releases_nothing(self, anchor_medium):
        e = total_emitted_energy(anchor_medium, 0.5 * math.pi, 50e-6)
        scale = total_emitted_energy(anchor_medium, 1e-6, 50e-6)
        assert abs(e) <= 1e-15 * scale

    def test_small_angle_limit(self, anchor_medium):
        m = anchor_medium
        r = 50e-6
        full = CONSTANTS.hbar * m.omega * m.N * m.w0 * math.pi * r**2 * m.L
        assert total_emitted_energy(m, 1e-9, r) == pytest.approx(full, rel=1e-12)

    def test_linear_in_density(self, anchor_medium):
        doubled = dataclasses.replace(anchor_medium, N=2.0 * anchor_medium.N)
        assert total_emitted_energy(doubled, THETA_R, 50e-6) == 2.0 * total_emitted_energy(
            anchor_medium, THETA_R, 50e-6
        )

    def test_bookkeeping_ratio_against_integral(self, anchor_medium):
        """The two energy formulas differ by exactly 2 cos/(1 + cos)."""
        for theta_r in (0.1, 0.4, 1.0):
            direct = total_emitted_energy(anchor_medium, theta_r, 50e-6)
            integral = emitted_energy_integral(anchor_medium, theta_r, 50e-6)
            expected = 2.0 * math.cos(theta_r) / (1.0 + math.cos(theta_r))
            assert direct / integral == pytest.approx(expected, rel=1e-12)


class TestDephasing:
    def test_published_estimate(self, dephasing):
        tau2 = dephasing_time(20.0, dephasing)
        assert tau2 == pytest.approx(2.0709734999999997e-10, rel=1e-12)
        # the ~200 ps figure sits inside the +-10% window
        assert abs(tau2 - 200e-12) / tau2 < 0.10

    def test_halving_pressure_doubles_time(self, dephasing):
        assert dephasing_time(10.0, dephasing) == 2.0 * dephasing_time(20.0, dephasing)

    def test_halving_ionization_doubles_time(self, dephasing):
        import dataclasses

        halved = dataclasses.replace(dephasing, ionization_fraction=0.05)
        assert dephasing_time(20.0, halved) == pytest.approx(
            2.0 * dephasing_time(20.0, dephasing), rel=1e-15
        )

    def test_underflowing_collision_rate_raises(self, dephasing):
        """A rate that underflows to 0 raises the same error for a scalar and an array."""
        tiny = dataclasses.replace(dephasing, sigma=1e-304, ionization_fraction=1e-300)
        message = r"collision rate sigma f_ion n v_e underflows to 0 at p = 6\.0 mbar"
        with pytest.raises(ZeroDivisionError, match=message):
            dephasing_time(6.0, tiny)
        with pytest.raises(ZeroDivisionError, match=message):
            dephasing_time(np.array([8.0, 6.0, 20.0]), tiny)

    @pytest.mark.parametrize("field, value, message", [
        ("sigma", 1e304, r"collision rate sigma f_ion n v_e is not finite at p = 20\.0 mbar"),
        ("temperature", 1e-300, r"collision rate sigma f_ion n v_e is not finite at p = 20\.0 mbar"),
        ("temperature", 5e-324, r"number density p/\(kB T\) is not finite: kB T underflows to 0"),
    ], ids=["huge-sigma", "tiny-temperature", "zero-kT"])
    def test_overflowing_collision_rate_raises(self, dephasing, field, value, message):
        """A rate that overflows raises NumericalError, unwarned, for a scalar and an array."""
        huge = dataclasses.replace(dephasing, **{field: value})
        with pytest.raises(NumericalError, match=message):
            dephasing_time(20.0, huge)
        with pytest.raises(NumericalError, match=message):
            dephasing_time(np.array([8.0, 6.0, 20.0]), huge)

    def test_validity_margin_definition(self, cfg):
        margin = validity_margin(200e-12, ps_to_s(1.666), ps_to_s(6.287), 0.0)
        assert margin == pytest.approx(61.7974801879895, rel=1e-12)
        assert margin >= cfg.validity_threshold

    def test_marginal_case_invalid(self, cfg):
        tau_w, tau_peak = 1e-12, 4e-12
        margin = validity_margin(math.sqrt(tau_w * tau_peak), tau_w, 3e-12, 1e-12)
        assert margin == pytest.approx(1.0, rel=1e-12)
        assert not margin >= cfg.validity_threshold

    def test_margin_linear_in_tau2(self):
        m1 = validity_margin(1e-10, 1e-12, 4e-12, 0.0)
        m2 = validity_margin(2e-10, 1e-12, 4e-12, 0.0)
        assert m2 == 2.0 * m1

    def test_bad_parameters_rejected(self, dephasing):
        with pytest.raises(ValueError):
            dataclasses.replace(dephasing, sigma=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(dephasing, ionization_fraction=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(dephasing, ionization_fraction=1.5)


@pytest.fixture(scope="module")
def rows(cal, seed, template, dephasing):
    return pressure_scan(cal, seed, template, TABLE_PRESSURES, dephasing)


I8 = TABLE_PRESSURES.index(8.0)


class TestScan:
    def test_row_count_and_order(self, rows):
        assert len(rows) == len(TABLE_PRESSURES)
        assert rows.p_mbar.tolist() == TABLE_PRESSURES

    def test_anchor_width_reproduced(self, rows, cal):
        assert abs(rows.tau_W[I8] / cal.anchor_tau_w - 1.0) < 0.005

    def test_widths_and_delays_decrease(self, rows):
        tau_w = rows.tau_W.tolist()
        tau_d = rows.tau_D.tolist()
        assert all(a > b for a, b in zip(tau_w, tau_w[1:]))
        assert all(a > b for a, b in zip(tau_d, tau_d[1:]))

    def test_outputs_increase(self, rows):
        i_peak = rows.I_peak.tolist()
        e_total = rows.E_total.tolist()
        assert all(a < b for a, b in zip(i_peak, i_peak[1:]))
        assert all(a < b for a, b in zip(e_total, e_total[1:]))

    def test_normalized_shapes_exact(self, rows, cal):
        """Quadratic peak intensity, linear energy, in (p - p0)."""
        span = TABLE_PRESSURES[-1] - cal.p0
        for p, i_norm, e_norm in zip(
            rows.p_mbar.tolist(), rows.I_peak_norm.tolist(), rows.E_total_norm.tolist()
        ):
            x = (p - cal.p0) / span
            assert i_norm == pytest.approx(x**2, rel=1e-12)
            assert e_norm == pytest.approx(x, rel=1e-12)

    def test_delay_exceeds_handover_for_weak_seed(self, rows, seed):
        assert rows.theta_r < 0.5 * math.pi
        assert all(tau_d > seed.tau_r for tau_d in rows.tau_D.tolist())

    def test_theta_r_pressure_independent(self, rows):
        # One angle for the whole scan, a Python float as the CSV writer needs.
        assert type(rows.theta_r) is float
        assert rows.theta_r == pytest.approx(THETA_R, rel=1e-14)

    def test_step_argument_is_ignored(self, rows, cal, seed, template, dephasing):
        """theta_r is the closed form at any dt; the benchmark's kernel sweep still passes one."""
        coarse = pressure_scan(cal, seed, template, TABLE_PRESSURES, dephasing, dt=seed.tau_s)
        assert coarse.theta_r == rows.theta_r
        assert coarse.tau_D.tolist() == rows.tau_D.tolist()

    def test_anchor_validity(self, rows, cfg):
        assert rows.validity_margin[I8] == pytest.approx(179.37611593046836, rel=1e-10)
        assert rows.validity_margin[I8] >= cfg.validity_threshold

    def test_intensity_ratio_between_densities(self, cal, seed, template, dephasing):
        """Doubling p - p0 quadruples the peak and doubles the energy."""
        p_lo = cal.p0 + 4.0
        p_hi = cal.p0 + 8.0
        scan = pressure_scan(cal, seed, template, [p_lo, p_hi], dephasing)
        for name, ratio in (("N", 2.0), ("I_peak", 4.0), ("E_total", 2.0), ("tau_W", 0.5)):
            lo, hi = getattr(scan, name)
            assert hi / lo == pytest.approx(ratio, rel=1e-12)

    def test_below_threshold_pressure_rejected(self, cal, seed, template, dephasing):
        with pytest.raises(BelowThresholdError):
            pressure_scan(cal, seed, template, [2.0, 8.0], dephasing)
        with pytest.raises(BelowThresholdError):
            pressure_scan(cal, seed, template, [cal.p0], dephasing)

    def test_single_pressure(self, cal, seed, template, dephasing):
        scan = pressure_scan(cal, seed, template, [8.0], dephasing)
        assert len(scan) == 1
        assert scan.I_peak_norm[0] == 1.0 and scan.E_total_norm[0] == 1.0

    def test_csv_format(self, tmp_path, rows, seed):
        path = tmp_path / "scan.csv"
        write_scan_csv(path, rows, seed.tau_r)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "p_mbar,N_per_cm3,tau_W_ps,tau_D_ps,theta_r_rad,I_peak_W_cm2,"
            "I_peak_norm,E_total_J,E_total_norm,E_total_integral_J,"
            "dephasing_ps,validity_margin"
        )
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 6.0
        assert float(first[2]) == pytest.approx(s_to_ps(rows.tau_W[0]), rel=1e-15)
        assert float(first[3]) == pytest.approx(s_to_ps(seed.tau_r + rows.tau_D[0]), rel=1e-15)


def ulps(a, b):
    """Distance between two doubles in units in the last place of the larger."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestColumnarScan:
    """The columnar scan against the scalar closed forms, pressure by pressure."""

    @pytest.fixture(scope="class")
    def pressures(self):
        rng = np.random.default_rng(7)
        return [*TABLE_PRESSURES, *rng.uniform(2.51, 60.0, 400).tolist()]

    @pytest.fixture(scope="class")
    def scan(self, cal, seed, template, dephasing, pressures):
        return pressure_scan(cal, seed, template, pressures, dephasing)

    def test_columns_equal_scalar_closed_forms(self, scan, pressures, cal, seed, template, dephasing):
        i_ref = int(np.argmax(pressures))
        m_ref = medium_at_pressure(cal, template, pressures[i_ref])
        i_peak_ref = peak_intensity(m_ref)
        e_ref = total_emitted_energy(m_ref, scan.theta_r, 50e-6)
        for i, p in enumerate(pressures):
            m = medium_at_pressure(cal, template, p)
            tau_w = characteristic_duration(m)
            tau_d = time_delay(m, scan.theta_r)
            tau_2 = dephasing_time(p, dephasing)
            margin = validity_margin(tau_2, tau_w, seed.tau_r, tau_d)
            e_total = total_emitted_energy(m, scan.theta_r, 50e-6)
            assert (scan.p_mbar[i], scan.N[i], scan.tau_W[i], scan.tau_D[i]) == (p, m.N, tau_w, tau_d)
            assert scan.E_total[i] == e_total
            assert scan.E_total_norm[i] == e_total / e_ref
            assert scan.E_total_integral[i] == emitted_energy_integral(m, scan.theta_r, 50e-6)
            assert (scan.dephasing[i], scan.validity_margin[i]) == (tau_2, margin)
            # numpy squares N as N * N, Python's N**2 calls libm pow.
            assert ulps(scan.I_peak[i], peak_intensity(m)) <= 1.0
            assert ulps(scan.I_peak_norm[i], peak_intensity(m) / i_peak_ref) <= 1.0

    def test_table_shape(self, scan, pressures):
        assert len(scan) == len(pressures)
        assert scan.validity_margin.dtype == float and scan.p_mbar[-1] == pressures[-1]
        assert scan.p_mbar.tolist() == pressures
        for name in ("p_mbar", "tau_W", "validity_margin"):
            column = getattr(scan, name)
            assert column.shape == (len(pressures),)
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_array_calls_equal_scalar_calls(self, anchor_medium, dephasing):
        n = anchor_medium.N * np.array([0.5, 1.0, 3.0])
        p = np.array([3.0, 8.0, 25.0])
        column = dataclasses.replace(anchor_medium, N=n)
        for j in range(3):
            m = dataclasses.replace(anchor_medium, N=float(n[j]))
            assert characteristic_duration(column)[j] == characteristic_duration(m)
            assert time_delay(column, THETA_R)[j] == time_delay(m, THETA_R)
            assert ulps(peak_power_density(column)[j], peak_power_density(m)) <= 1.0
            assert ulps(peak_intensity(column)[j], peak_intensity(m)) <= 1.0
            assert total_emitted_energy(column, THETA_R, 50e-6)[j] == total_emitted_energy(m, THETA_R, 50e-6)
            assert emitted_energy_integral(column, THETA_R, 50e-6)[j] == emitted_energy_integral(
                m, THETA_R, 50e-6
            )
            assert dephasing_time(p, dephasing)[j] == dephasing_time(float(p[j]), dephasing)

    def test_scalar_calls_return_python_types(self, anchor_medium, dephasing):
        assert type(validity_margin(200e-12, 1e-12, 4e-12, 1e-12)) is float
        assert type(characteristic_duration(anchor_medium)) is float
        assert type(dephasing_time(8.0, dephasing)) is float

    def test_margin_reads_the_peak_time(self):
        """The margin is tau_2/sqrt(tau_W tau_peak) with tau_peak = tau_r + max(tau_d, 0);
        a peak time that is not positive is rejected like the other time scales."""
        tau_d = np.array([3e-12, -1e-12, 0.0])
        margin = validity_margin(np.full(3, 1e-10), np.full(3, 1e-12), 1e-12, tau_d)
        assert margin.tolist() == (1e-10 / np.sqrt(1e-12 * np.array([4e-12, 1e-12, 1e-12]))).tolist()
        for bad in (0.0, -1e-12):
            with pytest.raises(ValueError, match="all time scales must be positive"):
                validity_margin(1e-10, 1e-12, bad, 0.0)
        with pytest.raises(ValueError, match="all time scales must be positive"):
            validity_margin(1e-10, 1e-12, 1e-12, math.nan)

    def test_absorbing_scan_reads_the_margin_at_the_handover(self, cal, seed, template, dephasing):
        """On w0 < 0 a weak seed's burst would peak before tau_r, at 100 mbar after the
        pump and at 6 and 8 mbar before it, so each peaks at the handover: the margin
        is tau_2/sqrt(tau_W tau_r), and tau_D, counted from tau_r, keeps its closed form."""
        absorbing = dataclasses.replace(template, w0=-template.w0)
        scan = pressure_scan(cal, seed, absorbing, [100.0, 6.0, 8.0], dephasing)
        assert -seed.tau_r < scan.tau_D[0] < 0.0 and np.all(scan.tau_D[1:] < -seed.tau_r)
        m = medium_at_pressure(cal, absorbing, scan.p_mbar)
        assert scan.tau_D.tolist() == time_delay(m, scan.theta_r).tolist()
        assert scan.validity_margin.tolist() == (scan.dephasing / np.sqrt(scan.tau_W * seed.tau_r)).tolist()

    def test_density_from_pressure_array(self, cal):
        p = np.array([3.0, 8.0])
        scalar = [density_from_pressure(cal, x) for x in (3.0, 8.0)]
        assert density_from_pressure(cal, p).tolist() == scalar
        with pytest.raises(BelowThresholdError, match="2.0 mbar"):
            density_from_pressure(cal, np.array([8.0, 2.0]))
