"""The four workload operations and their output checks.

An operation is one or more `sr` invocations (argv lists for
`n2sr.cli.main`). Each check recomputes what the outputs must contain from
the inputs and the reference config alone, with its own formulas and
constants, and returns the list of defects it found together with the number
of items the operation completed.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("validate", "emit", "scan", "fit")
CONFIG = Path("configs") / "reference.ini"

# Fit recovery tolerance, as a share of the true tau_W, for both tau_W and
# tau_D. At the highest noise the inputs use (3 % of the peak, 3001 samples)
# the fitter recovers both to about 1 % of tau_W, so 3 % separates a working
# fit from a broken one without flagging noise.
FIT_TOLERANCE = 0.03

VALIDATE_CHECKS = 11

# CODATA 2018 and the debye, restated independently of n2sr.constants.
HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8
EPS0 = 8.8541878128e-12
DEBYE = 3.33564e-30


def reference_config(root: Path) -> dict[str, str]:
    """Flat key -> raw value map of the reference config file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(root / CONFIG)
    return {key: value for section in parser.sections() for key, value in parser.items(section)}


def op_argvs(workload: str, inputs: dict, outdir: Path, config: Path, op_index: int) -> list[list[str]]:
    common = ["--config", str(config), "--out", str(outdir)]
    if workload == "validate":
        return [["validate", *common]]
    if workload == "emit":
        return [["seed-phase", *common], ["regimes", *common]]
    if workload == "scan":
        return [["pressure-scan", *common, "--pressures", ",".join(map(repr, inputs["pressures"]))]]
    if workload == "fit":
        batch = inputs["batches"][op_index % len(inputs["batches"])]
        return [["fit", *common, *(trace["path"] for trace in batch)]]
    raise ValueError(f"unknown workload '{workload}'")


def _rows(path: Path) -> list[str]:
    """Data lines of a CSV file (header dropped)."""
    return path.read_text().splitlines()[1:]


def seed_tipping_angle(cfg: dict[str, str]) -> float:
    """theta(tau_r) of the Gaussian seed from the erf closed form."""
    tau_s = float(cfg["tau_s_ps"]) * 1e-12
    tau_r = float(cfg["tau_r_over_tau_s"]) * tau_s
    intensity = float(cfg["seed_intensity_mw_cm2"]) * 1e10  # MW/cm^2 -> W/m^2
    e0 = math.sqrt(2.0 * intensity / (EPS0 * C_LIGHT))
    rabi = float(cfg["dipole_debye"]) * DEBYE * e0 / HBAR
    a = math.sqrt(2.0 * math.log(2.0)) / tau_s
    area = math.sqrt(math.pi) / (2.0 * a) * (math.erf(a * (tau_r - tau_s)) + math.erf(a * tau_s))
    return rabi * area


def _check_validate(outdir, stdout, cfg, inputs, op_index):
    errors = []
    passed = [line for line in stdout.splitlines() if line.startswith("PASS")]
    if len(passed) != VALIDATE_CHECKS or "FAIL" in stdout:
        errors.append(f"validate: {len(passed)} PASS lines, expected {VALIDATE_CHECKS}")
    report = (outdir / "validate_report.txt").read_text().splitlines()
    if report != passed:
        errors.append("validate: validate_report.txt differs from the printed report")
    return errors, 1


def _check_emit(outdir, stdout, cfg, inputs, op_index):
    errors = []
    summary = {}
    for line in (outdir / "seed_summary.txt").read_text().splitlines()[1:]:
        key, _, value = line.partition(" = ")
        summary[key] = float(value)
    theta = summary["theta_tau_r_rad"]
    theta_ref = seed_tipping_angle(cfg)
    for key in ("theta_tau_r_rad", "theta_quadrature_rad"):
        if abs(summary[key] - theta_ref) > 1e-9 * theta_ref:
            errors.append(f"emit: {key} = {summary[key]!r}, erf closed form gives {theta_ref!r}")

    steps = round(float(cfg["tau_r_over_tau_s"]) / float(cfg["dt_over_tau_s"]))
    traj = _rows(outdir / "bloch_trajectory.csv")
    if len(traj) != steps + 1:
        errors.append(f"emit: bloch_trajectory.csv has {len(traj)} rows, expected {steps + 1}")
    elif float(traj[-1].split(",")[4]) != theta:
        errors.append("emit: last trajectory theta differs from theta_tau_r_rad")

    # Delayed bursts splice their peak offset (tau_D - tau_r)/tau_W =
    # -sign(w0) ln tan(theta_r/2) into the regime grid when it lies inside.
    span = float(cfg["regime_span_tau_w"])
    weak = math.log(math.tan(0.5 * theta))
    strong = math.log(math.tan(0.5 * math.pi * float(cfg["theta_strong_over_pi"])))
    offsets = [-weak, -strong, weak, strong]
    grid = np.linspace(0.0, span, int(cfg["regime_points"]))
    inside = [x for x in offsets if 0.0 < x < span]
    regime_rows = len(np.unique(np.concatenate([grid, inside])))
    written = len(traj)
    for idx, offset in enumerate(offsets, start=1):
        rows = _rows(outdir / f"regime{idx}.csv")
        written += len(rows)
        if len(rows) != regime_rows:
            errors.append(f"emit: regime{idx}.csv has {len(rows)} rows, expected {regime_rows}")
        elif 0.0 < offset < span:
            peak = max(float(row.rsplit(",", 1)[1]) for row in rows)
            if abs(peak - 1.0) > 1e-12:
                errors.append(f"emit: regime{idx}.csv peaks at P/P0 = {peak!r}, expected 1")
    profile = _rows(outdir / "profile.csv")
    written += len(profile)
    if len(profile) != int(cfg["profile_points"]):
        errors.append(f"emit: profile.csv has {len(profile)} rows, expected {cfg['profile_points']}")
    return errors, written


def _check_scan(outdir, stdout, cfg, inputs, op_index):
    errors = []
    pressures = np.array(inputs["pressures"])
    rows = _rows(outdir / "pressure_scan.csv")
    if len(rows) != len(pressures):
        return [f"scan: pressure_scan.csv has {len(rows)} rows, expected {len(pressures)}"], 0
    table = np.array([row.split(",") for row in rows], dtype=float)
    p0 = float(cfg["p0_mbar"])
    tau_w = float(cfg["anchor_tau_w_ps"]) * (float(cfg["anchor_p_mbar"]) - p0) / (pressures - p0)
    x = (pressures - p0) / (pressures.max() - p0)
    if not np.array_equal(table[:, 0], pressures):
        errors.append("scan: p_mbar column differs from the requested pressures")
    worst_w = float(np.max(np.abs(table[:, 2] / tau_w - 1.0)))
    if worst_w > 1e-9:
        errors.append(f"scan: tau_W off the anchor scaling law by {worst_w:.3e} (relative)")
    worst_shape = float(max(np.max(np.abs(table[:, 6] - x**2)), np.max(np.abs(table[:, 8] - x))))
    if worst_shape > 1e-12:
        errors.append(f"scan: I_peak_norm / E_total_norm off x^2 / x by {worst_shape:.3e}")
    if len(stdout.splitlines()) != len(pressures) + 1:
        errors.append("scan: expected one stdout line per pressure after the header")
    return errors, len(pressures)


def _check_fit(outdir, stdout, cfg, inputs, op_index):
    errors = []
    batch = inputs["batches"][op_index % len(inputs["batches"])]
    rows = [row.split(",") for row in _rows(outdir / "fits.csv")]
    if len(rows) != len(batch):
        return [f"fit: fits.csv has {len(rows)} rows, expected {len(batch)}"], 0
    for row, truth in zip(rows, batch):
        name = Path(truth["path"]).name
        if row[0] != name or float(row[1]) != truth["pressure_mbar"]:
            errors.append(f"fit: fits.csv row for {name} names {row[0]} at {row[1]} mbar")
            continue
        tau_w, tau_d = truth["tau_w_ps"], truth["tau_d_ps"]
        dw = abs(float(row[4]) - tau_w) / tau_w
        dd = abs(float(row[3]) - tau_d) / tau_w
        if max(dw, dd) > FIT_TOLERANCE:
            errors.append(
                f"fit: trace {name} (noise {truth['noise']:.4f}, half-window "
                f"{truth['half_window_fwhm']:.2f} FWHM) recovered tau_W off by {dw:.2%}, "
                f"tau_D off by {dd:.2%} of tau_W"
            )
    summary = _rows(outdir / "pulse_summary.csv")
    if len(summary) != len(batch):
        errors.append(f"fit: pulse_summary.csv has {len(summary)} rows, expected {len(batch)}")
    return errors, len(batch)


CHECKS = {"validate": _check_validate, "emit": _check_emit, "scan": _check_scan, "fit": _check_fit}


def check(workload, outdir: Path, stdout: str, codes, cfg, inputs, op_index) -> tuple[list[str], int]:
    """Defects found in one operation's outputs, and the items it completed."""
    if any(code != 0 for code in codes):
        return [f"{workload}: sr exited with {codes}"], 0
    try:
        return CHECKS[workload](outdir, stdout, cfg, inputs, op_index)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"{workload}: unreadable output ({type(exc).__name__}: {exc})"], 0


def corrupt(workload: str, outdir: Path, stdout: str) -> str:
    """Deliberately damage one output value; returns the (possibly) damaged stdout."""
    if workload == "validate":
        return stdout.replace("PASS", "FAIL", 1)
    if workload == "emit":
        path = outdir / "seed_summary.txt"
        lines = path.read_text().splitlines()
        key, _, value = lines[1].partition(" = ")
        lines[1] = f"{key} = {float(value) * (1.0 + 1e-6)!r}"
        path.write_text("\n".join(lines) + "\n")
    elif workload == "scan":
        path = outdir / "pressure_scan.csv"
        lines = path.read_text().splitlines()
        cols = lines[-1].split(",")
        cols[2] = repr(float(cols[2]) * (1.0 + 1e-6))
        lines[-1] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
    elif workload == "fit":
        path = outdir / "fits.csv"
        lines = path.read_text().splitlines()
        cols = lines[1].split(",")
        cols[4] = repr(float(cols[4]) * 1.1)
        lines[1] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
    return stdout
