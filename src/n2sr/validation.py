"""Invariant checks behind the `sr validate` command.

Each check recomputes a physical identity two independent ways and compares
at a stated tolerance. A deliberately corrupted constant (the `corrupt`
hook) must make the constants check fail; nothing else consults it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional

import numpy as np

from . import config as cfgmod
from .bloch import analytic_seed_solution, integrate_bloch_rwa
from .constants import CONSTANTS, mw_per_cm2_to_w_per_m2, s_to_ps
from .pressure import dephasing_time, superradiance_valid
from .profiles import SECH2_FWHM_EXACT, TemporalTrace, extract_fwhm
from .superradiance import (
    SuperradianceSolution,
    emitted_intensity,
    emitted_power_density,
    energy_density,
    integrate_pendulum,
    solve_after_seed,
)
from .system import intensity_from_peak_field, peak_field_from_intensity

DEFAULT_SCAN_PRESSURES = (6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)

_CORRUPTIBLE = ("hbar", "c", "eps0", "mu0", "kB")

# CODATA 2018 values, restated here independently of the constants module so
# a corrupted working copy cannot hide behind its own reference.
_CODATA_2018 = {
    "hbar": 1.054571817e-34,
    "c": 2.99792458e8,
    "eps0": 8.8541878128e-12,
    "mu0": 1.25663706212e-6,
    "kB": 1.380649e-23,
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check_constants_product(corrupt: Optional[str]) -> CheckResult:
    factors = {name: 1.0 for name in _CORRUPTIBLE}
    if corrupt is not None:
        factors[corrupt] = 1.0 + 1e-6
    working = {name: getattr(CONSTANTS, name) * factors[name] for name in _CORRUPTIBLE}
    product = working["mu0"] * working["eps0"] * working["c"] ** 2
    defect = abs(product - 1.0)
    drift = max(
        abs(working[name] / reference - 1.0) for name, reference in _CODATA_2018.items()
    )
    passed = defect <= 1e-9 and drift <= 1e-9
    return CheckResult(
        "constants-product",
        passed,
        f"|mu0 eps0 c^2 - 1| = {defect:.3e}, max drift from reference table = {drift:.3e}",
    )


def _check_seed_roundtrip(cfg) -> CheckResult:
    """Round-trip the seed as configured: field -> intensity -> field, or the reverse."""
    if cfg.seed_e0_v_m is not None:
        given = cfg.seed_e0_v_m
        back = peak_field_from_intensity(intensity_from_peak_field(given))
    else:
        given = mw_per_cm2_to_w_per_m2(cfg.seed_intensity_mw_cm2)
        back = intensity_from_peak_field(peak_field_from_intensity(given))
    rel = abs(back - given) / given if given else abs(back)
    return CheckResult("seed-field-roundtrip", rel <= 1e-12, f"relative defect {rel:.3e}")


def _check_bloch(cfg) -> tuple[CheckResult, CheckResult]:
    seed = cfgmod.seed_pulse(cfg)
    medium = cfgmod.medium_template(cfg)
    traj = integrate_bloch_rwa(seed, medium, t_end=seed.tau_r, dt=cfgmod.dt_seconds(cfg))

    defect = np.max(np.abs(traj.v**2 + traj.w**2 - medium.w0**2))
    u_max = np.max(np.abs(traj.u))
    conservation = CheckResult(
        "bloch-conservation",
        defect <= 1e-9 and u_max <= 1e-12,
        f"max |v^2+w^2-w0^2| = {defect:.3e}, max |u| = {u_max:.3e}",
    )

    worst = 0.0
    for idx in np.linspace(1, len(traj) - 1, 9).astype(int):
        t = float(traj.t[idx])
        ref = analytic_seed_solution(seed, medium, t, dt=cfgmod.dt_seconds(cfg))
        worst = max(worst, abs(traj.v[idx] - ref.v), abs(traj.w[idx] - ref.w))
    closed_form = CheckResult(
        "bloch-closed-form", worst <= 1e-8, f"max |rk - closed form| = {worst:.3e}"
    )
    return conservation, closed_form


def _check_pendulum(cfg, sol: SuperradianceSolution) -> CheckResult:
    medium, tau_r = sol.medium, sol.tau_r
    worst = 0.0
    cases = [
        (medium, sol.theta_r),
        (medium, 0.3 * math.pi),
        (medium, cfg.theta_strong_over_pi * math.pi),
        (dataclasses.replace(medium, w0=-medium.w0), cfg.theta_strong_over_pi * math.pi),
    ]
    for m, theta_r in cases:
        case = solve_after_seed(m, theta_r, tau_r)
        dt = cfg.pendulum_dt_over_tau_w * case.tau_W
        t_end = tau_r + cfgmod.PENDULUM_SPAN_TAU_W * case.tau_W
        t, theta = integrate_pendulum(theta_r, tau_r, m, t_end, dt)
        worst = max(worst, float(np.max(np.abs(theta - case.bloch_angle(t)))))
    return CheckResult("pendulum-closed-form", worst <= 1e-7, f"max |ode - closed form| = {worst:.3e} rad")


def _check_intensity_identity(sol: SuperradianceSolution) -> CheckResult:
    t = sol.time_grid(window_tau_w=5.0, n=501)
    exact = np.all(emitted_intensity(t, sol) == emitted_power_density(t, sol) * sol.medium.L)
    return CheckResult("intensity-power-identity", bool(exact), "I_s == P_s * L on every sample")


def _check_energy_bookkeeping(sol: SuperradianceSolution) -> CheckResult:
    n = 20000
    t = sol.time_grid(window_tau_w=20.0, n=n + 1)
    p = emitted_power_density(t, sol)
    h = float(t[1] - t[0])
    integral = (h / 3.0) * (p[0] + p[-1] + 4.0 * p[1:-1:2].sum() + 2.0 * p[2:-1:2].sum())
    released = float(energy_density(t[0], sol) - energy_density(t[-1], sol))
    rel_int = abs(integral - released) / abs(released)

    probes = sol.tau_D + np.linspace(-3.0, 3.0, 20) * sol.tau_W
    fd_h = 1e-4 * sol.tau_W
    dEdt = (energy_density(probes + 0.5 * fd_h, sol) - energy_density(probes - 0.5 * fd_h, sol)) / fd_h
    rel_fd = float(np.max(np.abs(-dEdt - emitted_power_density(probes, sol)) / emitted_power_density(probes, sol)))
    ok = rel_int <= 1e-6 and rel_fd <= 1e-6
    return CheckResult(
        "energy-bookkeeping", ok,
        f"integral vs released {rel_int:.3e}, -dE/dt vs P_s {rel_fd:.3e}",
    )


def _check_width_rule(sol: SuperradianceSolution) -> CheckResult:
    t = sol.time_grid(window_tau_w=5.0, n=2001)  # spacing tau_W / 200
    trace = TemporalTrace(t=t, intensity=np.asarray(emitted_intensity(t, sol)))
    ratio = extract_fwhm(trace) / sol.tau_W
    rel = abs(ratio - SECH2_FWHM_EXACT) / SECH2_FWHM_EXACT
    return CheckResult("sech2-width-rule", rel <= 1e-3, f"FWHM/tau_W = {ratio:.6f}")


def _check_calibration_roundtrip(cfg, sol: SuperradianceSolution) -> CheckResult:
    """tau_W of the reference burst, at the calibrated anchor density, is the anchor's."""
    cal = cfgmod.calibration(cfg)
    rel = abs(sol.tau_W - cal.anchor_tau_w) / cal.anchor_tau_w
    return CheckResult("calibration-roundtrip", rel <= 1e-10, f"relative defect {rel:.3e}")


def _check_scan_scaling(cfg, scan) -> CheckResult:
    p0 = cfgmod.calibration(cfg).p0
    x = (scan.p_mbar - p0) / (scan.p_mbar[-1] - p0)
    worst = float(max(
        np.max(np.abs(scan.I_peak_norm - x**2)), np.max(np.abs(scan.E_total_norm - x))
    ))
    monotone = bool(np.all(np.diff(scan.tau_W) < 0.0) and np.all(np.diff(scan.tau_D) < 0.0))
    ok = worst <= 1e-12 and monotone
    return CheckResult(
        "scan-scaling", ok,
        f"normalized-shape defect {worst:.3e}, widths/delays monotone: {monotone}",
    )


def _check_dephasing(cfg, scan, sol: SuperradianceSolution) -> CheckResult:
    """tau_2 is 1/p and the scan's dephasing column is dephasing_time itself.

    Both hold for every valid config; the published 207 ps at 20 mbar is a
    property of the default config and is pinned by the acceptance tests.
    The margin at the anchor pressure must still clear the threshold.
    """
    params = cfgmod.dephasing_parameters(cfg)
    p = np.asarray(DEFAULT_SCAN_PRESSURES)
    product = dephasing_time(p, params) * p
    inverse_p = float(np.max(np.abs(product / product[0] - 1.0))) <= 1e-12
    column = all(
        tau_2 == dephasing_time(p_mbar, params)
        for p_mbar, tau_2 in zip(DEFAULT_SCAN_PRESSURES, scan.dephasing.tolist())
    )

    cal = cfgmod.calibration(cfg)
    check = superradiance_valid(
        dephasing_time(cal.anchor_p, params), sol.tau_W, sol.tau_D, threshold=cfg.validity_threshold
    )
    ok = inverse_p and column and check.valid
    return CheckResult(
        "dephasing-window", ok,
        f"tau_2(20 mbar) = {s_to_ps(dephasing_time(20.0, params)):.1f} ps, "
        f"anchor margin = {check.margin:.1f}",
    )


def run_validation_checks(cfg, corrupt: Optional[str] = None) -> list[CheckResult]:
    if corrupt is not None and corrupt not in _CORRUPTIBLE:
        raise ValueError(f"corruptible constants are {', '.join(_CORRUPTIBLE)}")
    conservation, closed_form = _check_bloch(cfg)
    scan = cfgmod.scan_pressures(cfg, DEFAULT_SCAN_PRESSURES)
    sol = cfgmod.reference_solution(cfg)
    return [
        _check_constants_product(corrupt),
        _check_seed_roundtrip(cfg),
        conservation,
        closed_form,
        _check_pendulum(cfg, sol),
        _check_intensity_identity(sol),
        _check_energy_bookkeeping(sol),
        _check_width_rule(sol),
        _check_calibration_roundtrip(cfg, sol),
        _check_scan_scaling(cfg, scan),
        _check_dephasing(cfg, scan, sol),
    ]
