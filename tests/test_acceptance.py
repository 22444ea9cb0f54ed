"""Acceptance suite: ten headline checks, one printed PASS/FAIL line each.

Each test computes its criterion, prints a single summary line that survives
output capture, and then asserts. Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from n2sr.bloch import bloch_angle, integrate_bloch_rwa
from n2sr.constants import ps_to_s, s_to_ps
from n2sr.datasets import MEASURED_PULSE_WIDTH_DELAY_PS
from n2sr.pressure import dephasing_time, pressure_scan, superradiance_valid
from n2sr.profiles import (
    SECH2_FWHM_EXACT,
    TemporalTrace,
    extract_fwhm,
    fit_sech2,
    summarize_by_pressure,
    synthesize_sech2_trace,
    tau_w_from_fwhm,
)
from n2sr.superradiance import (
    characteristic_duration,
    emitted_intensity,
    emitted_power_density,
    energy_density,
    integrate_pendulum,
    solve_after_seed,
    time_delay,
)

TABLE_PRESSURES = [6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]


def report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_seed_tipping_angle(capsys, seed, template):
    start = time.perf_counter()
    theta = bloch_angle(seed, template, seed.tau_r)
    elapsed = time.perf_counter() - start
    ok = 0.054 * math.pi <= theta <= 0.060 * math.pi and elapsed < 1.0
    assert report(capsys, 1, "seed tipping angle in published band", ok), (
        f"theta(tau_r) = {theta / math.pi:.5f} pi, elapsed {elapsed:.2f} s"
    )


def test_criterion_02_seed_integration_oracle(capsys, seed, template):
    start = time.perf_counter()
    t_end = 4.0 * seed.tau_s
    traj = integrate_bloch_rwa(seed, template, t_end, dt=seed.tau_s / 2000)
    worst = 0.0
    for idx in np.linspace(1, len(traj) - 1, 33).astype(int):
        theta = bloch_angle(seed, template, float(traj.t[idx]))
        ref_v, ref_w = template.w0 * math.sin(theta), template.w0 * math.cos(theta)
        worst = max(worst, abs(traj.v[idx] - ref_v), abs(traj.w[idx] - ref_w))
    drift = float(np.max(np.abs(traj.v**2 + traj.w**2 - template.w0**2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and drift <= 1e-9 and elapsed < 1.0
    assert report(capsys, 2, "seed-stage integrator matches closed form", ok), (
        f"|rk - closed form| = {worst:.2e}, conservation drift = {drift:.2e}, "
        f"elapsed {elapsed:.2f} s"
    )


def test_criterion_03_pendulum_oracle(capsys, anchor_medium):
    start = time.perf_counter()
    tau_w = characteristic_duration(anchor_medium)
    worst = 0.0
    for theta_r in (0.057 * math.pi, 0.3 * math.pi, 0.6 * math.pi):
        sol = solve_after_seed(anchor_medium, theta_r)
        t, theta = integrate_pendulum(theta_r, anchor_medium, 10.0 * tau_w, dt=1e-3 * tau_w)
        worst = max(worst, float(np.abs(theta - sol.bloch_angle(t)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 1.0
    assert report(capsys, 3, "pendulum integrator matches closed form", ok), (
        f"max deviation = {worst:.2e} rad, elapsed {elapsed:.2f} s"
    )


def test_criterion_04_energy_bookkeeping(capsys, anchor_medium):
    sol = solve_after_seed(anchor_medium, 0.17392466546264773)
    t = np.linspace(sol.tau_D - 20.0 * sol.tau_W, sol.tau_D + 20.0 * sol.tau_W, 20001)
    p = emitted_power_density(t, sol)
    h = t[1] - t[0]
    integral = h / 3.0 * (p[0] + p[-1] + 4.0 * p[1:-1:2].sum() + 2.0 * p[2:-1:2].sum())
    released = float(energy_density(t[0], sol) - energy_density(t[-1], sol))
    rel_int = abs(integral - released) / released

    probes = sol.tau_D + np.linspace(-3.0, 3.0, 20) * sol.tau_W
    fd_h = 1e-4 * sol.tau_W
    rate = -(energy_density(probes + 0.5 * fd_h, sol) - energy_density(probes - 0.5 * fd_h, sol)) / fd_h
    rel_fd = float(np.max(np.abs(rate - emitted_power_density(probes, sol)) / emitted_power_density(probes, sol)))

    ok = rel_int <= 1e-6 and rel_fd <= 1e-6
    assert report(capsys, 4, "radiated energy balances stored energy", ok), (
        f"integral vs released = {rel_int:.2e}, -dE/dt vs P = {rel_fd:.2e}"
    )


def test_criterion_05_sech2_width_rule(capsys, anchor_medium):
    sol = solve_after_seed(anchor_medium, 0.17392466546264773)
    t = np.linspace(sol.tau_D - 6.0 * sol.tau_W, sol.tau_D + 6.0 * sol.tau_W, 12001)
    trace = TemporalTrace(t=t, intensity=np.asarray(emitted_intensity(t, sol)))
    ratio = extract_fwhm(trace) / sol.tau_W
    width_ok = abs(ratio - 1.7627) / 1.7627 <= 1e-3

    anchor = tau_w_from_fwhm(ps_to_s(2.937))
    anchor_ok = abs(anchor - ps_to_s(1.666)) <= ps_to_s(0.001)

    ok = width_ok and anchor_ok
    assert report(capsys, 5, "burst width follows the sech^2 rule", ok), (
        f"FWHM/tau_W = {ratio:.6f}, 2.937 ps -> {s_to_ps(anchor):.4f} ps"
    )


def test_criterion_06_calibration_roundtrip(capsys, cal, seed, template, dephasing):
    scan = pressure_scan(cal, seed, template, TABLE_PRESSURES, dephasing)
    tau_w8 = scan.tau_W[TABLE_PRESSURES.index(8.0)]
    anchor_ok = abs(tau_w8 / cal.anchor_tau_w - 1.0) <= 0.005
    tau_w = scan.tau_W.tolist()
    tau_d = scan.tau_D.tolist()
    monotone_ok = all(a > b for a, b in zip(tau_w, tau_w[1:])) and all(
        a > b for a, b in zip(tau_d, tau_d[1:])
    )
    ok = anchor_ok and monotone_ok
    assert report(capsys, 6, "density calibration round-trips through the scan", ok), (
        f"tau_W(8 mbar) = {s_to_ps(tau_w8):.4f} ps, monotone: {monotone_ok}"
    )


def test_criterion_07_scaling_laws(capsys, cal, seed, template, dephasing):
    scan = pressure_scan(cal, seed, template, TABLE_PRESSURES, dephasing)
    span = TABLE_PRESSURES[-1] - cal.p0
    worst = 0.0
    for p, i_norm, e_norm in zip(
        scan.p_mbar.tolist(), scan.I_peak_norm.tolist(), scan.E_total_norm.tolist()
    ):
        x = (p - cal.p0) / span
        worst = max(worst, abs(i_norm - x**2), abs(e_norm - x))
    ok = worst <= 1e-12
    assert report(capsys, 7, "quadratic peak and linear energy scaling", ok), (
        f"worst normalized-shape defect = {worst:.2e}"
    )


def test_criterion_08_dephasing_window(capsys, cfg, cal, seed, template, dephasing):
    tau_2 = dephasing_time(20.0, dephasing)
    band_ok = abs(tau_2 - 207e-12) <= 0.1 * 207e-12
    covers_ok = 0.9 * tau_2 <= 200e-12 <= 1.1 * tau_2

    from n2sr.pressure import medium_at_pressure

    medium = medium_at_pressure(cal, template, 8.0)
    theta_r = bloch_angle(seed, template, seed.tau_r)
    tau_w = characteristic_duration(medium)
    tau_d = time_delay(medium, theta_r)
    check = superradiance_valid(dephasing_time(8.0, dephasing), tau_w, seed.tau_r, tau_d, cfg.validity_threshold)
    ok = band_ok and covers_ok and check.margin >= 10.0
    assert report(capsys, 8, "dephasing time window and validity margin", ok), (
        f"tau_2(20 mbar) = {s_to_ps(tau_2):.1f} ps, margin(8 mbar) = {check.margin:.1f}"
    )


def test_criterion_09_fit_recovery(capsys):
    a, tau_d, tau_w = 1.0, ps_to_s(5.0), ps_to_s(1.666)
    half = 8.0 * SECH2_FWHM_EXACT * tau_w

    clean = synthesize_sech2_trace(a, tau_d, tau_w, tau_d - half, tau_d + half, 4001)
    fit = fit_sech2(clean)
    clean_err = max(
        abs(fit.amplitude / a - 1.0), abs(fit.tau_D / tau_d - 1.0), abs(fit.tau_W / tau_w - 1.0)
    )
    clean_ok = fit.converged and clean_err <= 1e-6

    rng = np.random.default_rng(1234)
    noisy = TemporalTrace(
        t=clean.t,
        intensity=np.clip(clean.intensity + 0.01 * rng.uniform(-1.0, 1.0, clean.t.size), 0.0, None),
    )
    nfit = fit_sech2(noisy)
    noisy_err = max(
        abs(nfit.amplitude / a - 1.0), abs(nfit.tau_D / tau_d - 1.0), abs(nfit.tau_W / tau_w - 1.0)
    )
    noisy_ok = nfit.converged and noisy_err <= 0.02

    traces = []
    for p, fw_ps, delay_ps in MEASURED_PULSE_WIDTH_DELAY_PS:
        width = ps_to_s(fw_ps) / 1.763
        delay = ps_to_s(delay_ps)
        window = 8.0 * ps_to_s(fw_ps)
        traces.append(
            synthesize_sech2_trace(
                1.0, delay, width, delay - window, delay + window, 3001, pressure=p
            )
        )
    rows = summarize_by_pressure(traces)
    table_err = 0.0
    for (p, fw_ps, delay_ps), row in zip(MEASURED_PULSE_WIDTH_DELAY_PS, rows):
        assert row.pressure_mbar == p
        table_err = max(
            table_err,
            abs(row.tau_fw / ps_to_s(fw_ps) - 1.0),
            abs(row.tau_d / ps_to_s(delay_ps) - 1.0),
        )
    table_ok = table_err <= 0.005

    ok = clean_ok and noisy_ok and table_ok
    assert report(capsys, 9, "sech^2 fits recover synthetic parameters", ok), (
        f"noiseless err = {clean_err:.2e}, 1%-noise err = {noisy_err:.2e}, "
        f"measured-grid round trip err = {table_err:.2e}"
    )


def test_criterion_10_regime_behaviour(capsys, anchor_medium):
    import dataclasses

    flipped = dataclasses.replace(anchor_medium, w0=-anchor_medium.w0)
    weak, strong = 0.17392466546264773, 0.6 * math.pi

    peak_ok = True
    for medium, theta_r in ((anchor_medium, weak), (flipped, strong)):
        sol = solve_after_seed(medium, theta_r)
        peak = emitted_power_density(sol.tau_D, sol)
        peak_ok &= abs(peak / sol.P0 - 1.0) <= 1e-9
        t = np.linspace(0.0, sol.tau_D + 10.0 * sol.tau_W, 8001)
        p = emitted_power_density(t, sol)
        peak_ok &= abs(float(t[np.argmax(p)]) - sol.tau_D) <= float(t[1] - t[0])

    decline_ok = True
    for medium, theta_r in ((anchor_medium, strong), (flipped, weak)):
        sol = solve_after_seed(medium, theta_r)
        t = np.linspace(0.0, 10.0 * sol.tau_W, 4001)
        p = emitted_power_density(t, sol)
        decline_ok &= bool(np.all(np.diff(p) < 0.0))

    ok = peak_ok and decline_ok
    assert report(capsys, 10, "four burst regimes behave as classified", ok), (
        f"delayed peaks at tau_D: {peak_ok}, declining regimes monotone: {decline_ok}"
    )
