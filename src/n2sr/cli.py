"""`sr` command-line interface.

Subcommands: seed-phase, regimes, pressure-scan, fit, validate. Exit codes:
0 success, 1 usage, configuration or file access error, 2 numerical failure
(a non-finite integrator state, or arithmetic that overflows or divides by
zero), 3 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config as cfgmod
from .bloch import seed_trajectory
from .config import ConfigError, RunConfig, load_config, resolved_items
from .constants import per_m3_to_per_cm3, s_to_ps
from .csvio import finite_columns, write_columns, write_tables
from .errors import NumericalError
from .pressure import REFERENCE_DENSITY_SLOPE_PER_CM3_MBAR, write_scan_csv
from .profiles import (
    fit_sech2,
    read_trace_csv,
    sech2_profile,
    summarize_by_pressure,
    write_summary_csv,
)
from .superradiance import solve_after_seed, write_profile_csv
from .validation import DEFAULT_SCAN_PRESSURES, run_validation_checks

DEFAULT_PRESSURES = ",".join(f"{p:g}" for p in DEFAULT_SCAN_PRESSURES)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code-1 path."""

    def error(self, message):
        raise ConfigError(message)


# Built on first use and kept: parse_args leaves its state in the Namespace
# it returns, and argparse copies the --set append default before appending.
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="sr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="FILE", default=None, help="INI-style config file")
        p.add_argument(
            "--set", metavar="KEY=VALUE", action="append", default=[],
            dest="overrides", help="override a config key (repeatable)",
        )
        p.add_argument("--out", metavar="DIR", default="out", help="output directory (default out)")

    add_common(sub.add_parser("seed-phase", help="write the seed-stage Bloch trajectory"))
    add_common(sub.add_parser("regimes", help="emit the four burst regimes as CSV panels"))

    scan = sub.add_parser("pressure-scan", help="predict burst observables across pressures")
    add_common(scan)
    scan.add_argument(
        "--pressures", default=DEFAULT_PRESSURES,
        help=f"comma-separated pressures in mbar (default {DEFAULT_PRESSURES})",
    )

    fit = sub.add_parser("fit", help="fit sech^2 profiles to measured traces")
    add_common(fit)
    fit.add_argument("traces", nargs="+", metavar="TRACE_CSV")

    add_common(sub.add_parser("validate", help="run the physics invariant checks"))
    return parser


def _write_manifest(outdir: Path, cfg: RunConfig, command: str, argv: Sequence[str]) -> None:
    with (outdir / "run-manifest.txt").open("w") as fh:
        fh.write("[invocation]\n")
        fh.write(f"command = {command}\n")
        fh.write(f"argv = {' '.join(argv)}\n")
        fh.write("\n[config]\n")
        for key, value in resolved_items(cfg):
            fh.write(f"{key} = {value}\n")


def cmd_seed_phase(cfg: RunConfig, outdir: Path) -> int:
    seed = cfgmod.seed_pulse(cfg)
    medium = cfgmod.medium_template(cfg)
    traj = seed_trajectory(seed, medium, dt=cfgmod.dt_seconds(cfg))
    traj.write_csv(outdir / "bloch_trajectory.csv")

    # item() gives Python floats, whose repr the summary is written in.
    theta, v, w = (col[-1].item() for col in (traj.theta, traj.v, traj.w))
    defect = abs(v**2 + w**2 - medium.w0**2)
    lines = [
        f"theta_tau_r_rad = {theta!r}",
        f"theta_tau_r_over_pi = {theta / math.pi!r}",
        # The same closed-form angle; the line stays for readers of older summaries.
        f"theta_quadrature_rad = {theta!r}",
        # u is identically 0 in the resonant RWA; the line stays for readers of older summaries.
        "u_tau_r = 0.0",
        f"v_tau_r = {v!r}",
        f"w_tau_r = {w!r}",
        f"conservation_defect = {defect!r}",
    ]
    (outdir / "seed_summary.txt").write_text("[seed-phase]\n" + "\n".join(lines) + "\n")
    print(f"seed stage: theta(tau_r) = {theta:.6f} rad = {theta / math.pi:.5f} pi")
    print(f"Bloch vector at tau_r: v = {v:.6e}, w = {w:.6e}")
    return 0


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array without NaNs; np.unique itself imports numpy.ma."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def cmd_regimes(cfg: RunConfig, outdir: Path) -> int:
    # Building the burst already rejects an angle outside (0, pi), naming it.
    weak = cfgmod.reference_solution(cfg)
    if not weak.theta_r < 0.5 * math.pi:
        raise ConfigError(
            f"the configured seed tips the Bloch vector to {weak.theta_r:.4f} rad; "
            "the weak-seed panels need theta_r in (0, pi/2)"
        )
    theta_strong = cfg.theta_strong_over_pi * math.pi
    absorbing = dataclasses.replace(weak.medium, w0=-weak.medium.w0)
    solutions = [
        solve_after_seed(medium, theta_r)
        for medium in (weak.medium, absorbing)
        for theta_r in (weak.theta_r, theta_strong)
    ]

    # Shared dimensionless grid (t - tau_r)/tau_W, with each burst's exact
    # peak offset spliced in so delayed peaks hit P/P0 = 1 on a sample.
    span = cfg.regime_span_tau_w
    grid = np.linspace(0.0, span, cfg.regime_points)
    peaks = [sol.tau_D / sol.tau_W for sol in solutions if 0.0 < sol.tau_D / sol.tau_W < span]
    grid = _sorted_unique(np.concatenate([grid, np.asarray(peaks)]))

    # Every column is checked before the first file is written, so a command
    # that fails leaves no output behind. tau_W depends only on |n|, so the
    # four panels share one time grid and its two columns.
    header = "t_ps,t_rel_tau_W,theta_rad,w,P_over_P0"
    t, tau_r = grid * weak.tau_W, cfgmod.seed_pulse(cfg).tau_r

    def row(i):
        return f"t_rel_tau_W = {grid[i].item()!r}"

    shared = finite_columns("regime 1", "t_ps,t_rel_tau_W", lambda: [s_to_ps(tau_r + t), grid], row)
    tables = [
        (outdir / f"regime{idx}.csv", header, shared + finite_columns(
            f"regime {idx}", "theta_rad,w,P_over_P0", lambda: [
                sol.bloch_angle(t), sol.population_difference(t),
                sech2_profile(t, 1.0, sol.tau_D, sol.tau_W),
            ], row))
        for idx, sol in enumerate(solutions, start=1)
    ]
    # write_profile_csv checks its columns before it opens the file.
    write_profile_csv(outdir / "profile.csv", weak, weak.time_grid(cfg.window_tau_w, cfg.profile_points), tau_r)
    write_tables(tables)
    for idx, sol in enumerate(solutions, start=1):
        medium = "inverted" if sol.medium.w0 > 0.0 else "absorbing"
        seed = "weak" if sol.theta_r < 0.5 * math.pi else "strong"
        print(f"regime {idx} ({medium} {seed} seed): tau_D - tau_r = {sol.tau_D / sol.tau_W:+.3f} tau_W")
    return 0


def _parse_pressures(raw: str) -> list[float]:
    fields = raw.count(",") + 1
    if fields > cfgmod.MAX_GRID_POINTS:
        raise ConfigError(
            f"--pressures has {fields} comma-separated fields; the limit is {cfgmod.MAX_GRID_POINTS}"
        )
    pressures = []
    for tok in (t.strip() for t in raw.split(",")):
        if not tok:
            continue
        try:
            p = float(tok)
        except ValueError:
            raise ConfigError(f"cannot parse pressure list '{raw}'") from None
        if not math.isfinite(p):
            raise ConfigError(f"pressure '{tok}' must be finite")
        pressures.append(p)
    if not pressures:
        raise ConfigError("the pressure list is empty")
    return pressures


def cmd_pressure_scan(cfg: RunConfig, pressures: list[float], outdir: Path) -> int:
    cal = cfgmod.calibration(cfg)
    scan, tau_r = cfgmod.scan_pressures(cfg, pressures), cfgmod.seed_pulse(cfg).tau_r
    write_scan_csv(outdir / "pressure_scan.csv", scan, tau_r)
    valid = scan.validity_margin >= cfg.validity_threshold
    flags = np.where(valid, "", "  [dephasing margin below threshold]").tolist()
    row = "p = {:5.1f} mbar: tau_W = {:6.3f} ps, tau_D = {:6.3f} ps, margin = {:7.1f}{}".format
    lines = [
        f"density slope k = {per_m3_to_per_cm3(cal.k):.4e} cm^-3/mbar from the anchor "
        f"({cal.anchor_p} mbar, {s_to_ps(cal.anchor_tau_w):.4f} ps); "
        f"published reference slope {REFERENCE_DENSITY_SLOPE_PER_CM3_MBAR:.4e} cm^-3/mbar",
        *map(
            row, scan.p_mbar.tolist(), s_to_ps(scan.tau_W).tolist(),
            s_to_ps(tau_r + scan.tau_D).tolist(), scan.validity_margin.tolist(), flags,
        ),
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_fit(cfg: RunConfig, trace_files: list[str], outdir: Path) -> int:
    traces = [read_trace_csv(p) for p in trace_files]
    fits = [fit_sech2(t) for t in traces]
    names = [Path(path).name for path in trace_files]
    # Reduced before anything is written, so a trace with no pulse leaves no output.
    with_pressure = [t for t in traces if t.pressure is not None]
    summary = summarize_by_pressure(with_pressure)

    write_columns(
        outdir / "fits.csv",
        "file,pressure_mbar,amplitude_arb,tau_D_ps,tau_W_ps,rms_residual_arb,converged",
        [
            names,
            ["" if t.pressure is None else repr(t.pressure) for t in traces],
            [f.amplitude for f in fits],
            [s_to_ps(f.tau_D) for f in fits],
            [s_to_ps(f.tau_W) for f in fits],
            [f.rms_residual for f in fits],
            [f.converged for f in fits],
        ],
    )
    for name, fit in zip(names, fits):
        status = "converged" if fit.converged else "NOT converged"
        print(
            f"{name}: tau_D = {s_to_ps(fit.tau_D):.3f} ps, "
            f"tau_W = {s_to_ps(fit.tau_W):.3f} ps ({status})"
        )

    for trace in traces:
        if trace.pressure is None:
            print(
                f"warning: trace '{trace.label}' has no pressure_mbar metadata; "
                "excluded from the pressure summary",
                file=sys.stderr,
            )
    if summary:
        write_summary_csv(outdir / "pulse_summary.csv", summary)
    return 0


def cmd_validate(cfg: RunConfig, outdir: Path) -> int:
    results = run_validation_checks(cfg)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results
    ]
    report = "\n".join(lines) + "\n"
    (outdir / "validate_report.txt").write_text(report)
    print(report, end="")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.overrides)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_manifest(outdir, cfg, args.command, argv)
        if args.command == "seed-phase":
            return cmd_seed_phase(cfg, outdir)
        if args.command == "regimes":
            return cmd_regimes(cfg, outdir)
        if args.command == "pressure-scan":
            return cmd_pressure_scan(cfg, _parse_pressures(args.pressures), outdir)
        if args.command == "fit":
            return cmd_fit(cfg, args.traces, outdir)
        return cmd_validate(cfg, outdir)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
