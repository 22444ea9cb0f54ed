"""Invariant checks behind the `sr validate` command.

Each check recomputes a physical identity two independent ways and compares
at a stated tolerance. The defect matrix in tests/test_validation.py shows
which checks each injected defect fails.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import config as cfgmod
from .bloch import PHASE_TOLERANCE, integrate_bloch_rwa, rabi_frequency_peak, seed_trajectory
from .constants import CONSTANTS, mw_per_cm2_to_w_per_m2, s_to_ps
from .pressure import dephasing_time, validity_margin
from .profiles import SECH2_FWHM_EXACT, TemporalTrace, extract_fwhm
from .superradiance import (
    SuperradianceSolution,
    emitted_field_envelope,
    emitted_intensity,
    emitted_power_density,
    energy_density,
    integrate_pendulum,
    solve_after_seed,
)
from .system import intensity_from_peak_field, peak_field_from_intensity

DEFAULT_SCAN_PRESSURES = (6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)

# CODATA 2018 values, restated here independently of the constants module so
# an edited constant cannot hide behind its own reference.
_CODATA_2018 = {
    "hbar": 1.054571817e-34,
    "c": 2.99792458e8,
    "eps0": 8.8541878128e-12,
    "mu0": 1.25663706212e-6,
    "kB": 1.380649e-23,
}


# The RK4 oracles report their observed order ln(e_coarse / e_fine) /
# ln(n_fine / n_coarse), log2(e_coarse / e_fine) when the fine run has twice
# the steps. It counts as resolved when e_fine is at least
# ORDER_RESOLVED_ERROR, about 70 times the roundoff floor of the default
# pendulum cases (1.4e-14 rad); below that the check's other tests decide.
RK4_ORDER = 4.0
ORDER_TOLERANCE = 0.5
ORDER_RESOLVED_ERROR = 1e-12

# Largest step count of the seed RK4's fine run. The kernel holds about ten
# complex temporaries per step, so this bounds its memory.
MAX_RK4_STEPS = 10**6

# The pendulum oracle's step and how far it runs past each case's burst
# peak, in that case's tau_W: a case spans (max(sigma_D, 0) + 3) tau_W past
# its handover, about 100 steps per tau_W at h and half as many at 2h. The
# largest error of either run lies at most 1.64 tau_W past max(sigma_D, 0)
# for start angles from 1e-8 to 3.14 rad on both branches.
PENDULUM_STEP_TAU_W = 1e-2
PENDULUM_TAIL_TAU_W = 3.0
PENDULUM_ERROR_BOUND = 1e-7  # rad, on the h run


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check_constants_product() -> CheckResult:
    k = CONSTANTS
    defect = abs(k.mu0 * k.eps0 * k.c**2 - 1.0)
    drift = max(abs(getattr(k, name) / reference - 1.0) for name, reference in _CODATA_2018.items())
    passed = defect <= 1e-9 and drift <= 1e-9
    return CheckResult(
        "constants-product",
        passed,
        f"|mu0 eps0 c^2 - 1| = {defect:.3e}, max drift from reference table = {drift:.3e}",
    )


def _check_seed_roundtrip(cfg) -> CheckResult:
    """Round-trip the configured seed intensity: intensity -> field -> intensity."""
    given = mw_per_cm2_to_w_per_m2(cfg.seed_intensity_mw_cm2)
    back = intensity_from_peak_field(peak_field_from_intensity(given))
    rel = abs(back - given) / given if given else abs(back)
    return CheckResult("seed-field-roundtrip", rel <= 1e-12, f"relative defect {rel:.3e}")


def _observed_order(
    errors: list[float], steps: list[int], floor: float = ORDER_RESOLVED_ERROR
) -> Optional[float]:
    """Order from the errors of a coarse and a fine run and their step counts.

    None when the fine error is below floor, too close to roundoff to read.
    """
    (e_coarse, e_fine), (n_coarse, n_fine) = errors, steps
    if e_fine < floor:
        return None
    return math.log(e_coarse / e_fine) / math.log(n_fine / n_coarse)


def _order_ok(order: Optional[float]) -> bool:
    return order is None or abs(order - RK4_ORDER) <= ORDER_TOLERANCE


def _order_text(order: Optional[float]) -> str:
    return "unresolved" if order is None else f"{order:.2f}"


def _seed_order_steps(seed, medium) -> int:
    """Coarse step count over [0, tau_r] that is still in RK4's asymptotic range.

    The step is at most tau_s / 16, about a tenth of the field envelope's
    Gaussian sigma, and turns the Bloch vector by at most 1/4 rad at the
    peak Rabi frequency. The doubled count stays within MAX_RK4_STEPS.
    """
    per_tau_r = max(16.0 * seed.tau_r / seed.tau_s, 4.0 * rabi_frequency_peak(seed, medium) * seed.tau_r)
    return min(max(2, math.ceil(per_tau_r)), MAX_RK4_STEPS // 2)


def _check_bloch(cfg, handover: Sequence[float]) -> tuple[CheckResult, CheckResult]:
    """seed_trajectory, which `sr seed-phase` writes, against the seed RK4 and its own norm.

    bloch-closed-form runs the RK4 at coarse steps h and h/2 from w0 = 1 and
    compares every node with seed_trajectory on the same grid, using the grid
    max: the error at tau_r alone can lose its h^4 term to cancellation (order
    4.86 at seed_intensity_mw_cm2 = 100). No bound depends on a step: the
    errors must show order 4, and each theta_r in `handover` must give
    w0 (sin, cos) of theta(tau_r) to PHASE_TOLERANCE. bloch-conservation runs
    seed_trajectory on the configured medium over the fine grid and bounds
    |hypot(v, w) / |w0| - 1| by 4 eps: one rounding each of sin or cos, the
    product with w0, hypot and the division, and one spare. That form is
    bit-equal under w0 -> w0 2^-j and never divides by an underflowed w0^2.
    """
    seed, medium = cfgmod.seed_pulse(cfg), cfgmod.medium_template(cfg)
    unit = dataclasses.replace(medium, w0=1.0)
    n = _seed_order_steps(seed, unit)
    errors, counts = [], []
    for dt in (seed.tau_r / n, seed.tau_r / (2 * n)):
        run = integrate_bloch_rwa(seed, unit, t_end=seed.tau_r, dt=dt)
        # Both derive the grid from dt, which can round the count off by one
        # (for a subnormal tau_r, say), so the count is taken from the run.
        counts.append(len(run) - 1)
        exact = seed_trajectory(seed, unit, dt)
        errors.append(float(np.max(np.hypot(run.v - exact.v, run.w - exact.w))))
    steps_text = f"at {counts[0]}/{counts[1]} steps"
    # The fine grid ends exactly on tau_r, so its last angle is theta(tau_r).
    theta_r, theta_end = np.asarray(handover), exact.theta[-1]
    off = [np.sin(theta_r) - np.sin(theta_end), np.cos(theta_r) - np.cos(theta_end)]
    handover_error = abs(cfg.w0) * float(np.max(np.abs(off)))
    order = _observed_order(errors, counts)
    written = seed_trajectory(seed, medium, dt)
    norm_defect = float(np.max(np.abs(np.hypot(written.v, written.w) / abs(medium.w0) - 1.0)))
    conservation = CheckResult(
        "bloch-conservation", norm_defect <= 4.0 * sys.float_info.epsilon,
        f"max ||(v, w)| / |w0| - 1| = {norm_defect:.3e} at {len(written) - 1} steps",
    )
    closed_form = CheckResult(
        "bloch-closed-form",
        handover_error <= PHASE_TOLERANCE and _order_ok(order),
        f"max |rk - closed form| = {errors[1]:.3e}, handover error at tau_r = {handover_error:.3e}, "
        f"observed order {_order_text(order)} {steps_text}",
    )
    return conservation, closed_form


def _peak_delay_tau_w(w0: float, theta_r: float) -> float:
    """sigma_D = -sign(w0) ln tan(theta_r/2), the pendulum's delay from the
    handover to its burst peak in units of tau_W (Gross & Haroche 1982)."""
    return -math.copysign(1.0, w0) * math.log(math.tan(0.5 * theta_r))


def _pendulum_case(m, theta_r: float) -> tuple[float, Optional[float]]:
    """e_h and the observed order of one pendulum case, run at 2h and at h.

    The case is handed over at t = 0, and its span is max(sigma_D, 0) +
    PENDULUM_TAIL_TAU_W tau_W, rounded up to whole 2h steps, so both runs
    step at exactly 2h and h and a longer tail only adds nodes past the
    shorter one's. A start the floats resolve too coarsely to reach its
    peak within the bound runs the tail only.
    """
    case = solve_after_seed(m, theta_r)
    dt = PENDULUM_STEP_TAU_W * case.tau_W
    # Two roundings set the floor below which an error is roundoff: theta is
    # rounded by eps * theta each step, which the escape from the unstable end
    # grows by up to theta_r / sin(theta_r); and t, counted from the handover,
    # and tau_D are rounded by eps * t, which is eps * t / tau_W in units of
    # the burst. A start whose first term alone exceeds the bound (theta_r
    # near pi on the absorbing branch) would miss it at the peak: from
    # theta_strong_over_pi = 1 - 1e-9 on, that case read 4e-7 rad or more.
    roundoff, conditioning = 30.0 * sys.float_info.epsilon, theta_r / math.sin(theta_r)
    delay = _peak_delay_tau_w(m.w0, theta_r) if roundoff * conditioning <= PENDULUM_ERROR_BOUND else 0.0
    span_tau_w = max(delay, 0.0) + PENDULUM_TAIL_TAU_W
    coarse_steps = math.ceil(span_tau_w / (2.0 * PENDULUM_STEP_TAU_W))
    t_end = coarse_steps * 2.0 * dt
    errors, counts = [], []
    for h in (2.0 * dt, dt):
        t, theta = integrate_pendulum(theta_r, m, t_end, h)
        counts.append(len(t) - 1)
        errors.append(float(np.max(np.abs(theta - case.bloch_angle(t)))))
    scale = conditioning + (t_end + abs(case.tau_D)) / case.tau_W
    floor = max(ORDER_RESOLVED_ERROR, roundoff * scale)
    return errors[1], _observed_order(errors, counts, floor)


def _check_pendulum(cfg, sol: SuperradianceSolution) -> CheckResult:
    """RK4 against the closed form at h = PENDULUM_STEP_TAU_W tau_W and at 2h.

    Each case runs from its handover to PENDULUM_TAIL_TAU_W tau_W past its
    burst peak, or past the handover when the peak precedes it. sigma_D
    comes from the case's own theta_r and branch, so a defect in tau_D
    cannot move the window it is read on. The 2h run costs half the h run
    and gives the order by step doubling (Richardson's estimate). Its error
    is about 16 times e_h, so only the h run is bounded: the check passes
    when the worst h-run error is at most PENDULUM_ERROR_BOUND and every
    resolved order is within ORDER_TOLERANCE of 4.
    """
    medium = sol.medium
    theta_strong = cfg.theta_strong_over_pi * math.pi
    errors, orders = zip(*(_pendulum_case(m, theta_r) for m, theta_r in (
        (medium, sol.theta_r),
        (medium, 0.3 * math.pi),
        (medium, theta_strong),
        (dataclasses.replace(medium, w0=-medium.w0), theta_strong),
    )))
    worst = max(errors)
    return CheckResult(
        "pendulum-closed-form",
        worst <= PENDULUM_ERROR_BOUND and all(map(_order_ok, orders)),
        f"max |ode - closed form| = {worst:.3e} rad, "
        f"observed order {', '.join(map(_order_text, orders))}",
    )


def _check_intensity_field(sol: SuperradianceSolution) -> CheckResult:
    """The emitted intensity is that of the emitted field, I_s = (eps0 c / 2) E_s^2.

    The two closed forms share only the sech shape; their ratio is
    mu0 eps0 c^2. The defect is taken relative to I0 as (a - b)(a + b), with
    a = sqrt(I_s) / sqrt(I0) and b = sqrt(eps0 c / 2) E_s / sqrt(I0), since
    E_s^2 itself overflows where I0 is still finite.
    """
    t = sol.time_grid(window_tau_w=5.0, n=501)
    root_i0 = math.sqrt(sol.P0 * sol.medium.L)
    a = np.sqrt(emitted_intensity(t, sol)) / root_i0
    b = emitted_field_envelope(t, sol) * (math.sqrt(0.5 * CONSTANTS.eps0 * CONSTANTS.c) / root_i0)
    defect = float(np.max(np.abs((a - b) * (a + b))))
    return CheckResult(
        "intensity-field-identity", defect <= 1e-12, f"max |I_s - eps0 c E_s^2 / 2| / I0 = {defect:.3e}"
    )


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
    """Closed-form shape of the scan, for every valid config.

    I_peak and E_total, normalized at the last pressure, follow x^2 and x
    with x = (p - p0)/(p_last - p0), to 1e-12; tau_W falls with p; and
    tau_D/tau_W, the delay after the handover, equals -sign(w0) ln
    tan(theta_r/2) at every pressure to 1e-12, however short tau_W is.
    """
    p0 = cfgmod.calibration(cfg).p0
    x = (scan.p_mbar - p0) / (scan.p_mbar[-1] - p0)
    # One numpy max over both defects, so a NaN in either reads as a failure.
    worst = float(np.max([np.abs(scan.I_peak_norm - x**2), np.abs(scan.E_total_norm - x)]))
    widths_fall = bool(np.all(np.diff(scan.tau_W) < 0.0))
    lever = _peak_delay_tau_w(cfg.w0, scan.theta_r)
    delay = np.abs(scan.tau_D / scan.tau_W - lever)
    delay_ok = bool(np.all(delay <= 1e-12))
    ok = worst <= 1e-12 and widths_fall and delay_ok
    return CheckResult(
        "scan-scaling", ok,
        f"normalized-shape defect {worst:.3e}, delay-invariant defect {np.max(delay):.3e}, "
        f"widths falling: {widths_fall}",
    )


def _check_dephasing(cfg, scan, sol: SuperradianceSolution) -> CheckResult:
    """tau_2 is 1/p and the scan's dephasing column is dephasing_time itself.

    Both hold for every valid config; the published 207 ps at 20 mbar is a
    property of the default config and is pinned by the acceptance tests.
    The margin at the anchor pressure, read at the burst peak, must still
    clear the threshold.
    """
    params = cfgmod.dephasing_parameters(cfg)
    p = np.asarray(DEFAULT_SCAN_PRESSURES)
    tau_2 = dephasing_time(p, params)
    product = tau_2 * p
    inverse_p = float(np.max(np.abs(product / product[0] - 1.0))) <= 1e-12
    column = np.array_equal(scan.dephasing, tau_2)

    anchor_tau_2 = dephasing_time(cfg.anchor_p_mbar, params)
    margin = validity_margin(anchor_tau_2, sol.tau_W, cfgmod.seed_pulse(cfg).tau_r, sol.tau_D)
    ok = inverse_p and column and margin >= cfg.validity_threshold
    return CheckResult(
        "dephasing-window", ok,
        f"tau_2(20 mbar) = {s_to_ps(dephasing_time(20.0, params)):.1f} ps, "
        f"anchor margin = {margin:.1f}",
    )


def run_validation_checks(cfg) -> list[CheckResult]:
    # The solution first: a burst peak that leaves the float range raises
    # NumericalError there, before the scan divides by it.
    sol = cfgmod.reference_solution(cfg)
    scan = cfgmod.scan_pressures(cfg, DEFAULT_SCAN_PRESSURES)
    conservation, closed_form = _check_bloch(cfg, (sol.theta_r, scan.theta_r))
    return [
        _check_constants_product(),
        _check_seed_roundtrip(cfg),
        conservation,
        closed_form,
        _check_pendulum(cfg, sol),
        _check_intensity_field(sol),
        _check_energy_bookkeeping(sol),
        _check_width_rule(sol),
        _check_calibration_roundtrip(cfg, sol),
        _check_scan_scaling(cfg, scan),
        _check_dephasing(cfg, scan, sol),
    ]
