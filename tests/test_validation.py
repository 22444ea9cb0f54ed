import copy
import dataclasses
import math
import sys

import numpy as np
import pytest

from n2sr import bloch, config, constants, pressure, profiles, superradiance, system, validation
from n2sr.cli import main
from n2sr.superradiance import characteristic_duration, solve_after_seed
from n2sr.validation import run_validation_checks

EXPECTED_CHECKS = [
    "constants-product",
    "seed-field-roundtrip",
    "bloch-conservation",
    "bloch-closed-form",
    "pendulum-closed-form",
    "intensity-field-identity",
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


# The defect matrix: each row puts one real defect into the package, runs
# `sr validate` on the default config and asserts the exact set of checks
# that fail. Every check is the only failure of at least one row. README
# ("What each check guards") lists the same rows.


def rebind(monkeypatch, name, original, replacement, only=None):
    """Bind replacement in place of original in every n2sr module that binds
    it under name, or only in the modules named in `only`, each of which must
    bind it: a row must not quietly stop reaching the code it names."""
    if only is not None:
        missing = [m for m in only if getattr(sys.modules.get(m), name, None) is not original]
        assert missing == [], f"{name} is not bound in {missing}"
    for module in list(sys.modules.values()):
        if module.__name__.startswith("n2sr") and getattr(module, name, None) is original:
            if only is None or module.__name__ in only:
                monkeypatch.setattr(module, name, replacement)


def wrapped(function, wrap, only=None):
    """The defect that replaces function by wrap(function)."""
    def inject(monkeypatch):
        rebind(monkeypatch, function.__name__, function, wrap(function), only)
    return inject


def scaled(function, factor, only=None):
    return wrapped(function, lambda f: lambda *a, **kw: factor * f(*a, **kw), only)


def failing_checks(capsys, tmp_path):
    """The checks `sr validate` fails on the default config, from its exit
    code and its one stderr line."""
    code = main(["validate", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == (3 if err else 0), err
    if not err:
        return set()
    count, names = err.rstrip("\n").split(" check(s) failed: ")
    assert err.count("\n") == 1 and int(count) == len(names.split(", ")), err
    return set(names.split(", "))


CONSTANT_DEFECTS = {
    # A constant x (1 + 1e-6) wherever the package reads it. c, eps0 and mu0
    # also move mu0 eps0 c^2, which the intensity-field ratio equals.
    "hbar": {"constants-product"},
    "c": {"constants-product", "intensity-field-identity"},
    "eps0": {"constants-product", "intensity-field-identity"},
    "mu0": {"constants-product", "intensity-field-identity"},
    "kB": {"constants-product"},
}


@pytest.mark.parametrize("name", ["hbar", "c", "eps0", "mu0", "kB"])
def test_corrupting_any_constant_is_caught(monkeypatch, capsys, tmp_path, name):
    # Set on a copy: the constructor refuses c, eps0 or mu0 moved alone.
    edited = copy.copy(constants.CONSTANTS)
    object.__setattr__(edited, name, getattr(edited, name) * (1.0 + 1e-6))
    rebind(monkeypatch, "CONSTANTS", constants.CONSTANTS, edited)
    assert failing_checks(capsys, tmp_path) == CONSTANT_DEFECTS[name]


def with_u(integrate):
    def run(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        return dataclasses.replace(traj, u=np.full_like(traj.u, 1e-9))
    return run


def third_order_pendulum(integrate):
    def run(theta_r, medium, t_end, dt):
        t, theta = integrate(theta_r, medium, t_end, dt)
        return t, theta + 1e-3 * (dt / characteristic_duration(medium)) ** 3
    return run


def steeper_slope(calibrate):
    def run(*args, **kwargs):
        cal = calibrate(*args, **kwargs)
        return dataclasses.replace(cal, k=1.001 * cal.k)
    return run


def later_peak(time_delay):
    return lambda *args: time_delay(*args) + 1e-15


DEFECTS = [
    pytest.param(scaled(system.peak_field_from_intensity, 1.001), {"seed-field-roundtrip"}, id="seed-field"),
    pytest.param(wrapped(bloch.integrate_bloch_rwa, with_u), {"bloch-conservation"}, id="u"),
    # The angle the burst and the scan are built from, not the seed check's own.
    pytest.param(
        scaled(bloch.bloch_angle, 1.001, only=("n2sr.config", "n2sr.pressure")),
        {"bloch-closed-form"}, id="theta_r",
    ),
    pytest.param(
        wrapped(superradiance.integrate_pendulum, third_order_pendulum),
        {"pendulum-closed-form"}, id="pendulum-stepper",
    ),
    pytest.param(
        scaled(superradiance.emitted_field_envelope, 1.01), {"intensity-field-identity"}, id="field",
    ),
    pytest.param(scaled(superradiance.emitted_intensity, 1.01), {"intensity-field-identity"}, id="intensity"),
    pytest.param(
        scaled(superradiance.peak_power_density, 1.01),
        {"intensity-field-identity", "energy-bookkeeping"}, id="P0",
    ),
    pytest.param(scaled(superradiance.energy_density, 1.01), {"energy-bookkeeping"}, id="energy-density"),
    pytest.param(scaled(profiles.extract_fwhm, 1.001), {"sech2-width-rule"}, id="fwhm"),
    pytest.param(
        wrapped(pressure.calibrate_density_scale, steeper_slope), {"calibration-roundtrip"}, id="slope-k",
    ),
    pytest.param(
        scaled(superradiance.characteristic_duration, 1.0 + 1e-6),
        {"energy-bookkeeping", "calibration-roundtrip"}, id="tau_W",
    ),
    pytest.param(
        wrapped(superradiance.time_delay, later_peak, only=("n2sr.pressure",)),
        {"scan-scaling"}, id="tau_D-scan",
    ),
    pytest.param(
        wrapped(superradiance.time_delay, later_peak),
        {"pendulum-closed-form", "scan-scaling"}, id="tau_D",
    ),
    pytest.param(
        wrapped(pressure.dephasing_time, lambda f: lambda p, params: f(p, params) * np.power(p, -0.01)),
        {"dephasing-window"}, id="tau_2-power",
    ),
    pytest.param(
        wrapped(pressure.dephasing_time, lambda f: lambda p, params: f(p[::-1], params), only=("n2sr.pressure",)),
        {"dephasing-window"}, id="tau_2-column-reversed",
    ),
    # Out of scope: a scale of tau_2 keeps every invariant a check can test on
    # any config. The 207 ps at 20 mbar is pinned by test_acceptance.py.
    pytest.param(scaled(pressure.dephasing_time, 1.01), set(), id="tau_2-scale"),
]


@pytest.mark.parametrize("inject, expected", DEFECTS)
def test_defect_matrix(monkeypatch, capsys, tmp_path, inject, expected):
    inject(monkeypatch)
    assert failing_checks(capsys, tmp_path) == expected


def test_every_check_is_the_only_failure_of_some_defect():
    alone = [expected for expected in CONSTANT_DEFECTS.values() if len(expected) == 1]
    alone += [row.values[1] for row in DEFECTS if len(row.values[1]) == 1]
    assert set().union(*alone) == set(EXPECTED_CHECKS)


def test_details_are_informative(cfg):
    results = run_validation_checks(cfg)
    for r in results:
        assert r.detail  # every check reports a number or a statement


def test_seed_roundtrip_starts_from_the_configured_intensity(cfg, monkeypatch):
    """The round trip starts from the seed intensity as given, in W/m^2."""
    calls = []
    for name in ("intensity_from_peak_field", "peak_field_from_intensity"):
        original = getattr(validation, name)

        def spy(x, name=name, original=original):
            calls.append((name, x))
            return original(x)

        monkeypatch.setattr(validation, name, spy)
    result = validation._check_seed_roundtrip(dataclasses.replace(cfg, seed_intensity_mw_cm2=40.0))
    assert result.passed
    assert [name for name, _ in calls] == ["peak_field_from_intensity", "intensity_from_peak_field"]
    assert calls[0][1] == pytest.approx(4e11, rel=1e-15)


class TestIntensityField:
    """intensity-field-identity: I_s = (eps0 c / 2) E_s^2, relative to I0."""

    def test_default_reading_is_the_constants_defect(self, cfg):
        """The two closed forms differ by the factor mu0 eps0 c^2 alone."""
        result = by_name(run_validation_checks(cfg))["intensity-field-identity"]
        k = constants.CONSTANTS
        defect = float(result.detail.split("= ")[1])
        assert result.passed
        assert defect == pytest.approx(abs(k.mu0 * k.eps0 * k.c**2 - 1.0), abs=1e-15)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"anchor_tau_w_ps": 1e160},  # I0 = 1.8e-308
            {"anchor_tau_w_ps": 1e-147, "length_mm": 1e100},  # I0 = 1.8e306; E_s^2 overflows
        ],
        ids=["tiny-I0", "huge-I0"],
    )
    def test_holds_at_the_ends_of_the_float_range(self, cfg, overrides):
        sol = config.reference_solution(dataclasses.replace(cfg, **overrides))
        result = validation._check_intensity_field(sol)
        assert result.passed, result.detail


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
        """Eight runs of 2 316 steps in all, each case's span (max(sigma_D, 0) + 3) tau_W
        in whole 2h steps; the reported error is the worst h-run error."""
        integrate = validation.integrate_pendulum
        runs = []

        def spy(theta_r, medium, t_end, dt):
            t, theta = integrate(theta_r, medium, t_end, dt)
            runs.append((theta_r, medium, dt, t, theta))
            return t, theta

        monkeypatch.setattr(validation, "integrate_pendulum", spy)
        sol = config.reference_solution(cfg)
        result = validation._check_pendulum(cfg, sol)
        assert len(runs) == 8
        expected = 0
        h_errors = []
        for coarse, (theta_r, medium, dt, t, theta) in zip(runs[::2], runs[1::2]):
            assert coarse[2] == 2.0 * dt
            sigma_d = -np.sign(medium.w0) * np.log(np.tan(0.5 * theta_r))
            n = math.ceil((max(sigma_d, 0.0) + 3.0) / 0.02)
            assert (len(coarse[3]) - 1, len(t) - 1) == (n, 2 * n)
            expected += 3 * n
            case = solve_after_seed(medium, theta_r)
            h_errors.append(float(np.max(np.abs(theta - case.bloch_angle(t)))))
        error, _ = error_and_orders(result.detail)
        assert result.passed
        assert f"{error:.3e}" == f"{max(h_errors):.3e}"
        assert sum(len(t) - 1 for *_, t, _ in runs) == expected == 2316

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

        def third_order(theta_r, medium, t_end, dt):
            t, theta = integrate(theta_r, medium, t_end, dt)
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
        ],
    )
    def test_ill_conditioned_cases_raise_the_floor(self, cfg, overrides):
        """Where roundoff alone exceeds 1e-12, the order is unresolved, not failed."""
        run = dataclasses.replace(cfg, **overrides)
        result = validation._check_pendulum(run, config.reference_solution(run))
        assert result.passed, result.detail
        assert "unresolved" in result.detail

    def test_narrow_burst_orders_are_resolved(self, cfg):
        """At tau_r / tau_W ~ 4e4 each case still counts t from its handover, so t and
        tau_D are rounded on the scale of tau_W, not tau_r: every order reads 4."""
        run = dataclasses.replace(cfg, **NARROW_BURST)
        result = validation._check_pendulum(run, config.reference_solution(run))
        _, orders = error_and_orders(result.detail)
        assert result.passed, result.detail
        assert len(orders) == 4 and all(abs(float(order) - 4.0) <= 0.05 for order in orders), orders

    @pytest.mark.parametrize("theta_strong_over_pi", [1.0 - 1e-9, 0.9999999999999999])
    def test_start_the_floats_cannot_resolve_runs_the_tail_only(self, cfg, theta_strong_over_pi):
        """Within 2e-7 rad of pi on the absorbing branch, eps * theta_r / sin(theta_r)
        grown to the peak would read 4e-7 to 3 rad; that case is not followed to it."""
        run = dataclasses.replace(cfg, theta_strong_over_pi=theta_strong_over_pi)
        result = validation._check_pendulum(run, config.reference_solution(run))
        assert result.passed, result.detail

    def test_observed_order_rule(self):
        assert validation._observed_order([16e-10, 1e-10], [1000, 2000]) == pytest.approx(4.0, rel=1e-15)
        assert validation._observed_order([16e-10, 1e-10], [34, 67]) == pytest.approx(4.0874, rel=1e-4)
        assert validation._observed_order([16e-13, 1e-13], [1000, 2000]) is None
        assert validation._observed_order([16e-10, 1e-10], [1000, 2000], floor=1e-9) is None
        assert validation._order_ok(None) and validation._order_ok(4.49)
        assert not validation._order_ok(3.49)


# Start angles across (0, pi): 1e-8 to 1 rad geometrically, then 1.2 to 3.14 rad.
SPAN_ANGLES = [*np.geomspace(1e-8, 1.0, 12), *np.linspace(1.2, 3.14, 11)]


def pendulum_reading(cfg, monkeypatch, tail, w0_sign, theta_r):
    """One pendulum case's printed e_h and order, with the tail past the peak set to tail.

    An unresolved e_h is roundoff, which an ulp of the step moves; it reads
    as under the floor.
    """
    monkeypatch.setattr(validation, "PENDULUM_TAIL_TAU_W", tail)
    sol = config.reference_solution(cfg)
    medium = dataclasses.replace(sol.medium, w0=w0_sign * abs(sol.medium.w0))
    error, order = validation._pendulum_case(medium, theta_r)
    if order is None:
        return error < validation.ORDER_RESOLVED_ERROR, "unresolved"
    return f"{error:.3e}", validation._order_text(order)


class TestPendulumSpan:
    """Each pendulum case runs to PENDULUM_TAIL_TAU_W = 3 tau_W past its burst peak."""

    @pytest.mark.parametrize("w0_sign", [1.0, -1.0], ids=["inverted", "absorbing"])
    @pytest.mark.parametrize("theta_r", SPAN_ANGLES, ids=lambda theta: f"{theta:.3g}")
    def test_three_tau_w_tail_reads_as_twenty(self, cfg, monkeypatch, w0_sign, theta_r):
        assert validation.PENDULUM_TAIL_TAU_W == 3.0
        three = pendulum_reading(cfg, monkeypatch, 3.0, w0_sign, theta_r)
        assert three == pendulum_reading(cfg, monkeypatch, 20.0, w0_sign, theta_r)

    @pytest.mark.parametrize("w0_sign", [1.0, -1.0], ids=["inverted", "absorbing"])
    def test_one_tau_w_tail_misses_the_largest_error(self, cfg, monkeypatch, w0_sign):
        """Near theta_r = pi/2 the largest error lies about 1.6 tau_W past the peak."""
        missed = [theta_r for theta_r in SPAN_ANGLES
                  if pendulum_reading(cfg, monkeypatch, 1.0, w0_sign, theta_r)
                  != pendulum_reading(cfg, monkeypatch, 20.0, w0_sign, theta_r)]
        assert 1.588 in [round(theta_r, 3) for theta_r in missed], missed


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

    def test_every_node_of_an_oracle_run_is_checked(self, cfg, monkeypatch):
        """A 1e-6 defect at node 7 alone of either run, far from any of nine evenly
        spaced nodes, fails: on the fine run it is the reported error, on the coarse
        run it breaks the order."""
        integrate = validation.integrate_bloch_rwa
        for perturbed_run in (0, 1):
            runs = []

            def perturbed(seed, medium, t_end, dt):
                traj = integrate(seed, medium, t_end=t_end, dt=dt)
                runs.append(traj)
                if len(runs) - 1 != perturbed_run:
                    return traj
                v = traj.v.copy()
                v[7] += 1e-6
                return dataclasses.replace(traj, v=v)

            monkeypatch.setattr(validation, "integrate_bloch_rwa", perturbed)
            _, closed_form = check_bloch(cfg)
            error, orders = error_and_orders(closed_form.detail)
            assert len(runs) == 2
            assert not closed_form.passed, closed_form.detail
            if perturbed_run:
                # The fine run's own error at node 7 is about -1e-10.
                fine = runs[1]
                theta = bloch.bloch_angle(config.seed_pulse(cfg), config.medium_template(cfg), fine.t)
                v = fine.v.copy()
                v[7] += 1e-6
                expected = np.max(np.hypot(v - np.sin(theta), fine.w - np.cos(theta)))
                assert f"{error:.3e}" == f"{expected:.3e}"
                assert error == pytest.approx(1e-6, rel=1e-3)
            else:
                assert error < 1e-9 and float(orders[0]) > 10.0

    @pytest.mark.parametrize("overrides", [
        ["dt_over_tau_s=0.32", "seed_intensity_mw_cm2=1"],  # 7.35e-8 from the closed form as an RK4 step
        ["dt_over_tau_s=3.5675"],  # failed both Bloch checks as an RK4 step
    ], ids=["coarse-weak-seed", "near-tau_r"])
    def test_configured_step_cannot_fail_validate(self, tmp_path, capsys, overrides):
        """The configured step only samples the written closed form; the RK4 runs at its own steps."""
        args = [a for o in overrides for a in ("--set", o)]
        assert main(["validate", *args, "--out", str(tmp_path)]) == 0, capsys.readouterr().err

    def test_validate_runs_the_rk4_at_n_and_2n_steps_only(self, cfg, tmp_path, monkeypatch):
        original = bloch.integrate_bloch_rwa
        counts = []

        def spy(*args, **kwargs):
            traj = original(*args, **kwargs)
            counts.append(len(traj) - 1)
            return traj

        rebind(monkeypatch, "integrate_bloch_rwa", original, spy)
        assert main(["validate", "--out", str(tmp_path)]) == 0
        n = validation._seed_order_steps(config.seed_pulse(cfg), config.medium_template(cfg))
        assert counts == [n, 2 * n] == [58, 116]

    def test_validate_calls_bloch_angle_four_times(self, tmp_path, monkeypatch):
        """Once each for the reference burst and the scan, and once on the whole
        grid of each of the seed check's two runs."""
        original = bloch.bloch_angle
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        rebind(monkeypatch, "bloch_angle", original, spy)
        assert main(["validate", "--out", str(tmp_path)]) == 0
        assert len(calls) == 4

    def test_third_order_kernel_fails(self, cfg, monkeypatch):
        """An h^3 defect in the kernel fails on its order; the handover stays exact."""
        integrate = validation.integrate_bloch_rwa

        def third_order(seed, medium, t_end, dt):
            traj = integrate(seed, medium, t_end=t_end, dt=dt)
            return dataclasses.replace(traj, w=traj.w + 1e-3 * (dt / seed.tau_s) ** 3)

        monkeypatch.setattr(validation, "integrate_bloch_rwa", third_order)
        _, closed_form = check_bloch(cfg)
        _, orders = error_and_orders(closed_form.detail)
        assert "handover error at tau_r = 0.000e+00," in closed_form.detail
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

    @pytest.mark.parametrize("module", ["n2sr.config", "n2sr.pressure"])
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

    SHORT_BURSTS = pytest.mark.parametrize(
        "overrides", [NARROW_BURST, {"anchor_tau_w_ps": 1e-20}], ids=["narrow", "tau-w-1e-20-ps"]
    )

    @SHORT_BURSTS
    def test_delay_invariant_holds_to_1e12_at_any_width(self, cfg, overrides):
        """The scan's tau_D counts from the handover, so no digits cancel against
        tau_r >> tau_W and the invariant holds to 1e-12 unscaled."""
        short = dataclasses.replace(cfg, **overrides)
        scan = config.scan_pressures(short, validation.DEFAULT_SCAN_PRESSURES)
        result = validation._check_scan_scaling(short, scan)
        assert result.passed, result.detail
        assert float(result.detail.split("delay-invariant defect ")[1].split(",")[0]) <= 1e-12

    @SHORT_BURSTS
    def test_short_burst_shifted_delay_fails(self, cfg, overrides):
        """A delay off by 1e-9 tau_W fails however short the burst is next to tau_r."""
        short = dataclasses.replace(cfg, **overrides)
        scan = config.scan_pressures(short, validation.DEFAULT_SCAN_PRESSURES)
        tau_d = scan.tau_D.copy()
        tau_d[4] += 1e-9 * scan.tau_W[4]
        result = validation._check_scan_scaling(short, dataclasses.replace(scan, tau_D=tau_d))
        assert not result.passed
        assert "widths falling: True" in result.detail

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
