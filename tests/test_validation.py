import dataclasses
import sys

import numpy as np
import pytest

from n2sr import bloch, config, validation
from n2sr.cli import main
from n2sr.superradiance import characteristic_duration, solve_after_seed
from n2sr.validation import run_validation_checks

EXPECTED_CHECKS = [
    "constants-product",
    "seed-field-roundtrip",
    "bloch-conservation",
    "bloch-closed-form",
    "pendulum-closed-form",
    "intensity-power-identity",
    "energy-bookkeeping",
    "sech2-width-rule",
    "calibration-roundtrip",
    "scan-scaling",
    "dephasing-window",
]


def test_all_checks_pass_with_defaults(cfg):
    results = run_validation_checks(cfg)
    assert [r.name for r in results] == EXPECTED_CHECKS
    failed = [r for r in results if not r.passed]
    assert failed == []


@pytest.mark.parametrize("name", ["hbar", "c", "eps0", "mu0", "kB"])
def test_corrupting_any_constant_is_caught(cfg, name):
    results = run_validation_checks(cfg, corrupt=name)
    by_name = {r.name: r for r in results}
    assert not by_name["constants-product"].passed


def test_unknown_corrupt_target_rejected(cfg):
    with pytest.raises(ValueError):
        run_validation_checks(cfg, corrupt="planck")


def test_details_are_informative(cfg):
    results = run_validation_checks(cfg)
    for r in results:
        assert r.detail  # every check reports a number or a statement


@pytest.mark.parametrize(
    "seed, first_call",
    [
        ({"seed_intensity_mw_cm2": None, "seed_e0_v_m": 5e6}, ("intensity_from_peak_field", 5e6)),
        ({"seed_intensity_mw_cm2": 40.0}, ("peak_field_from_intensity", 4e11)),
    ],
)
def test_seed_roundtrip_uses_configured_seed(cfg, monkeypatch, seed, first_call):
    """The round trip starts from the seed as given, field or intensity."""
    calls = []
    for name in ("intensity_from_peak_field", "peak_field_from_intensity"):
        original = getattr(validation, name)

        def spy(x, name=name, original=original):
            calls.append((name, x))
            return original(x)

        monkeypatch.setattr(validation, name, spy)
    result = validation._check_seed_roundtrip(dataclasses.replace(cfg, **seed))
    assert result.passed
    assert calls[0][0] == first_call[0]
    assert calls[0][1] == pytest.approx(first_call[1], rel=1e-15)


def check_dephasing(cfg, scan=None):
    if scan is None:
        scan = config.scan_pressures(cfg, validation.DEFAULT_SCAN_PRESSURES)
    return validation._check_dephasing(cfg, scan, config.reference_solution(cfg))


class TestDephasingWindow:
    """The runtime check tests invariants, not the default 207 ps."""

    def test_passes_off_default(self, cfg):
        for sigma in (2e-15, 3e-16):
            result = check_dephasing(dataclasses.replace(cfg, sigma_cm2=sigma))
            assert result.passed, result.detail

    def test_detail_text(self, cfg):
        result = check_dephasing(cfg)
        assert result.detail == "tau_2(20 mbar) = 207.1 ps, anchor margin = 179.4"

    def test_scan_column_must_be_dephasing_time(self, cfg):
        scan = config.scan_pressures(cfg, validation.DEFAULT_SCAN_PRESSURES)
        off = dataclasses.replace(scan, dephasing=scan.dephasing * (1.0 + 2.0**-52))
        assert not check_dephasing(cfg, off).passed


def by_name(results):
    return {r.name: r for r in results}


def error_and_orders(detail):
    """The max error and the per-case orders from an order-reporting detail text."""
    error = float(detail.split("= ")[1].split(" ")[0].rstrip(","))
    orders = detail.split("observed order ")[1].split(" at ")[0].split(", ")
    return error, orders


# An accepted config with tau_W about 4e4 times shorter than tau_r.
NARROW_BURST = {"anchor_tau_w_ps": 2.56e-5, "w0": -1.0, "validity_threshold": 1.5e-4, "p0_mbar": 0.0}


class TestPendulumOrder:
    """The pendulum oracle runs at 2h and h and gates the observed order."""

    def test_runs_at_2h_and_h_bound_the_h_run(self, cfg, monkeypatch):
        """Eight runs of 6 000 steps in all; the reported error is the worst h-run error."""
        integrate = validation.integrate_pendulum
        runs = []

        def spy(theta_r, tau_r, medium, t_end, dt):
            t, theta = integrate(theta_r, tau_r, medium, t_end, dt)
            runs.append((theta_r, medium, dt, t, theta))
            return t, theta

        monkeypatch.setattr(validation, "integrate_pendulum", spy)
        sol = config.reference_solution(cfg)
        result = validation._check_pendulum(cfg, sol)
        assert len(runs) == 8
        assert sum(len(t) - 1 for *_, t, _ in runs) == 6000
        h_errors = []
        for coarse, (theta_r, medium, dt, t, theta) in zip(runs[::2], runs[1::2]):
            assert coarse[2] == 2.0 * dt
            case = solve_after_seed(medium, theta_r, sol.tau_r)
            h_errors.append(float(np.max(np.abs(theta - case.bloch_angle(t)))))
        error, _ = error_and_orders(result.detail)
        assert result.passed
        assert f"{error:.3e}" == f"{max(h_errors):.3e}"

    def test_coarse_run_is_not_bounded(self, cfg, monkeypatch):
        """At h = 0.05 tau_W the 2h error is about 1.5e-6 rad; only e_h meets the 1e-7 bound."""
        monkeypatch.setattr(validation, "PENDULUM_STEP_TAU_W", 0.05)
        result = validation._check_pendulum(cfg, config.reference_solution(cfg))
        error, orders = error_and_orders(result.detail)
        assert result.passed, result.detail
        assert 1e-8 < error <= 1e-7
        assert all(abs(float(order) - 4.0) <= 0.1 for order in orders), orders

    def test_default_orders_are_four(self, cfg):
        result = by_name(run_validation_checks(cfg))["pendulum-closed-form"]
        error, orders = error_and_orders(result.detail)
        assert result.passed and 1e-11 < error <= 1e-7
        assert len(orders) == 4
        assert all(abs(float(order) - 4.0) <= 0.05 for order in orders), orders

    def test_third_order_stepper_fails_under_the_error_bound(self, cfg, monkeypatch):
        """An h^3 defect below 1e-7 passes the error bound; only the order gate sees it."""
        integrate = validation.integrate_pendulum

        def third_order(theta_r, tau_r, medium, t_end, dt):
            t, theta = integrate(theta_r, tau_r, medium, t_end, dt)
            h = dt / characteristic_duration(medium)
            return t, theta + 1e-2 * h**3 * np.sin(theta)

        monkeypatch.setattr(validation, "integrate_pendulum", third_order)
        result = validation._check_pendulum(cfg, config.reference_solution(cfg))
        error, orders = error_and_orders(result.detail)
        assert error <= 1e-7
        assert not result.passed
        assert all(abs(float(order) - 3.0) <= 0.1 for order in orders), orders

    def test_order_near_roundoff_is_unresolved(self, cfg):
        """At theta_r = 0.999 pi one case sits on the roundoff floor (order 3.51 if read)."""
        strong = dataclasses.replace(cfg, theta_strong_over_pi=0.999)
        result = validation._check_pendulum(strong, config.reference_solution(strong))
        assert result.passed, result.detail
        _, orders = error_and_orders(result.detail)
        assert orders[2] == "unresolved"

    @pytest.mark.parametrize(
        "overrides",
        [
            # theta_r near pi with w0 < 0: the escape amplifies each rounding.
            {"theta_strong_over_pi": 0.99999},
            # tau_r / tau_W ~ 4e4: t and tau_D are rounded on the scale of tau_r.
            NARROW_BURST,
        ],
    )
    def test_ill_conditioned_cases_raise_the_floor(self, cfg, overrides):
        """Where roundoff alone exceeds 1e-12, the order is unresolved, not failed."""
        run = dataclasses.replace(cfg, **overrides)
        result = validation._check_pendulum(run, config.reference_solution(run))
        assert result.passed, result.detail
        assert "unresolved" in result.detail

    def test_observed_order_rule(self):
        assert validation._observed_order([16e-10, 1e-10], [1000, 2000]) == pytest.approx(4.0, rel=1e-15)
        assert validation._observed_order([16e-10, 1e-10], [34, 67]) == pytest.approx(4.0874, rel=1e-4)
        assert validation._observed_order([16e-13, 1e-13], [1000, 2000]) is None
        assert validation._observed_order([16e-10, 1e-10], [1000, 2000], floor=1e-9) is None
        assert validation._order_ok(None) and validation._order_ok(4.49)
        assert not validation._order_ok(3.49)


def check_bloch(cfg, scale=1.0):
    """bloch-conservation and bloch-closed-form, handed the reference burst's theta_r times scale."""
    return validation._check_bloch(cfg, [scale * config.reference_solution(cfg).theta_r])


class TestSeedOrder:
    """bloch-closed-form also reports the seed RK4's order, from two coarse runs."""

    def test_default_order_is_four(self, cfg):
        result = by_name(run_validation_checks(cfg))["bloch-closed-form"]
        assert result.passed
        _, orders = error_and_orders(result.detail)
        assert abs(float(orders[0]) - 4.0) <= 0.05
        assert result.detail.endswith(" at 58/116 steps")

    @pytest.mark.parametrize("intensity", [1.0, 100.0, 1000.0])
    def test_order_holds_across_seed_strengths(self, cfg, intensity):
        """At 100 MW/cm^2 the error at tau_r alone would read 4.86; the grid max reads 4."""
        result, = [r for r in check_bloch(
            dataclasses.replace(cfg, seed_intensity_mw_cm2=intensity)) if r.name == "bloch-closed-form"]
        assert result.passed, result.detail
        _, orders = error_and_orders(result.detail)
        assert abs(float(orders[0]) - 4.0) <= 0.05

    def test_every_node_of_the_configured_run_is_checked(self, cfg, monkeypatch):
        """A 1e-6 defect at node 7 alone, far from any of nine evenly spaced nodes, fails."""
        integrate = validation.integrate_bloch_rwa
        runs = []

        def perturbed(seed, medium, t_end, dt):
            traj = integrate(seed, medium, t_end=t_end, dt=dt)
            runs.append(dt)
            if len(runs) > 1:  # the order runs stay exact
                return traj
            v = traj.v.copy()
            v[7] += 1e-6
            return dataclasses.replace(traj, v=v)

        monkeypatch.setattr(validation, "integrate_bloch_rwa", perturbed)
        _, closed_form = check_bloch(cfg)
        error, orders = error_and_orders(closed_form.detail)
        assert runs[0] == config.dt_seconds(cfg)
        assert not closed_form.passed
        assert error == pytest.approx(1e-6, rel=1e-6)
        assert abs(float(orders[0]) - 4.0) <= 0.05

    def test_reference_sees_the_seed_quadrature_error(self, cfg):
        """At dt_over_tau_s = 0.32 and 1 MW/cm^2 the seed run is 7.35e-8 from the erf
        closed form; a Simpson reference on the kernel's own nodes would read about 2e-9."""
        coarse = dataclasses.replace(cfg, dt_over_tau_s=0.32, seed_intensity_mw_cm2=1.0)
        _, closed_form = check_bloch(coarse)
        error, _ = error_and_orders(closed_form.detail)
        assert not closed_form.passed
        assert 3e-8 < error < 2e-7

    def test_validate_calls_bloch_angle_five_times(self, tmp_path, monkeypatch):
        """Once each for the reference burst and the scan, and once on the whole
        grid of each of the seed check's three runs."""
        original = bloch.bloch_angle
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("n2sr") and getattr(module, "bloch_angle", None) is original:
                monkeypatch.setattr(module, "bloch_angle", spy)
        assert main(["validate", "--out", str(tmp_path)]) == 0
        assert len(calls) == 5

    def test_third_order_kernel_fails(self, cfg, monkeypatch):
        """An h^3 defect far below 1e-8 at the configured step fails on its order."""
        integrate = validation.integrate_bloch_rwa

        def third_order(seed, medium, t_end, dt):
            traj = integrate(seed, medium, t_end=t_end, dt=dt)
            return dataclasses.replace(traj, w=traj.w + 1e-3 * (dt / seed.tau_s) ** 3)

        monkeypatch.setattr(validation, "integrate_bloch_rwa", third_order)
        _, closed_form = check_bloch(cfg)
        error, orders = error_and_orders(closed_form.detail)
        assert error <= 1e-8
        assert not closed_form.passed
        assert abs(float(orders[0]) - 3.0) <= 0.1


class TestHandover:
    """bloch-closed-form checks the theta_r handed to the burst against the seed run."""

    def test_default_reading(self, cfg):
        result = by_name(run_validation_checks(cfg))["bloch-closed-form"]
        handover = float(result.detail.split("handover error at tau_r = ")[1].split(",")[0])
        assert result.passed and handover <= 1e-14

    def test_scaled_angle_fails(self, cfg):
        """theta_r x 1.001 moves v at tau_r by about 1.7e-5."""
        _, closed_form = check_bloch(cfg, scale=1.001)
        handover = float(closed_form.detail.split("handover error at tau_r = ")[1].split(",")[0])
        assert not closed_form.passed
        assert 1.5e-5 < handover < 2e-5

    @pytest.mark.parametrize("module", ["n2sr.superradiance", "n2sr.pressure"])
    def test_scaled_angle_fails_validate(self, tmp_path, monkeypatch, capsys, module):
        """The angle the burst or the scan is built from, not the seed check's own."""
        original = bloch.bloch_angle

        def scaled(*args):
            return 1.001 * original(*args)

        monkeypatch.setattr(sys.modules[module], "bloch_angle", scaled)
        assert main(["validate", "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "FAIL  bloch-closed-form" in captured.out
        assert captured.err == "1 check(s) failed: bloch-closed-form\n"


class TestScanScaling:
    """scan-scaling holds in every regime: the delay invariant, not a monotone tau_D."""

    def test_strong_seed_passes(self, cfg):
        strong = dataclasses.replace(cfg, dipole_debye=16.84)
        scan = config.scan_pressures(strong, validation.DEFAULT_SCAN_PRESSURES)
        assert scan.theta_r > 0.5 * np.pi
        assert np.all(np.diff(scan.tau_D) > 0.0)  # tau_D rises with p here
        result = validation._check_scan_scaling(strong, scan)
        assert result.passed, result.detail

    def test_delay_invariant_scales_with_tau_r(self, cfg):
        """tau_D - tau_r cancels digits when tau_r >> tau_W; the bound scales with it."""
        narrow = dataclasses.replace(cfg, **NARROW_BURST)
        scan = config.scan_pressures(narrow, validation.DEFAULT_SCAN_PRESSURES)
        result = validation._check_scan_scaling(narrow, scan)
        assert result.passed, result.detail

    @pytest.mark.parametrize("column", ["I_peak_norm", "E_total_norm"])
    def test_nan_column_fails(self, cfg, column):
        scan = config.scan_pressures(cfg, validation.DEFAULT_SCAN_PRESSURES)
        values = getattr(scan, column).copy()
        values[3] = np.nan
        result = validation._check_scan_scaling(cfg, dataclasses.replace(scan, **{column: values}))
        assert not result.passed
        assert "normalized-shape defect nan" in result.detail

    def test_shifted_delay_fails(self, cfg):
        scan = config.scan_pressures(cfg, validation.DEFAULT_SCAN_PRESSURES)
        tau_d = scan.tau_D.copy()
        tau_d[4] += 1e-9 * scan.tau_W[4]
        result = validation._check_scan_scaling(cfg, dataclasses.replace(scan, tau_D=tau_d))
        assert not result.passed
        assert "widths falling: True" in result.detail
