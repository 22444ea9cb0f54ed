"""Run the five `sr` subcommands on the default config and fingerprint what they write.

    python scripts/golden_outputs.py OUTDIR

Each run writes into its own subdirectory of OUTDIR: seed-phase on the
default config and on the absorbing branch (w0 = -0.1, where v and w change
sign), regimes, validate, pressure-scan over the default pressures, over a
second list, on the absorbing branch and for bursts far shorter than the
seed stage (anchor tau_W = 1e-20 ps, where the pump-time columns tau_r +
tau_D must still round as before), fit over five synthetic traces, and fit
over one trace the fitter stops on without converging, so the gate also runs
its rejected-step path (the traces are written first, under OUTDIR/traces).
What each run prints to stdout is kept beside its outputs as stdout.txt.
Then one line per file is printed, sorted by path:

    sha256  rows  file

where rows counts the file's lines. Two trees whose listings match wrote
byte-identical outputs. The run manifests are left out: they record the
invocation and the resolved config, which are inputs, not outputs.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from n2sr.cli import main as sr
from n2sr.constants import ps_to_s
from n2sr.datasets import MEASURED_PULSE_WIDTH_DELAY_PS
from n2sr.profiles import SECH2_FWHM_NOMINAL, TemporalTrace, synthesize_sech2_trace, write_trace_csv

SECOND_PRESSURES = "3,5.5,6,7,8,9.25,10,12.5,14,16,20"


def write_traces(outdir: Path) -> list[str]:
    """Five noisy sech^2 traces on the first five measured rows, 1 % uniform noise."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2024)
    paths = []
    for p, fw_ps, delay_ps in MEASURED_PULSE_WIDTH_DELAY_PS[:5]:
        delay, window = ps_to_s(delay_ps), 8.0 * ps_to_s(fw_ps)
        clean = synthesize_sech2_trace(
            1.0, delay, ps_to_s(fw_ps) / SECH2_FWHM_NOMINAL, delay - window, delay + window, 3001
        )
        noisy = np.clip(clean.intensity + 0.01 * rng.uniform(-1.0, 1.0, clean.t.size), 0.0, None)
        path = outdir / f"trace_{p:g}mbar.csv"
        write_trace_csv(path, TemporalTrace(t=clean.t, intensity=noisy, pressure=p))
        paths.append(str(path))
    return paths


def write_stuck_trace(outdir: Path) -> str:
    """A 14 mbar trace over +-6 FWHM with 0.3 % uniform noise. The fitter ends
    it with converged=False: from its floating-point minimum every step is
    rejected until the damping passes 1e15."""
    p, fw_ps, delay_ps = MEASURED_PULSE_WIDTH_DELAY_PS[5]
    delay, window = ps_to_s(delay_ps), 6.0 * ps_to_s(fw_ps)
    clean = synthesize_sech2_trace(
        1.0, delay, ps_to_s(fw_ps) / SECH2_FWHM_NOMINAL, delay - window, delay + window, 3001
    )
    rng = np.random.default_rng(0)
    noisy = np.clip(clean.intensity + 0.003 * rng.uniform(-1.0, 1.0, clean.t.size), 0.0, None)
    path = outdir / "stuck_14mbar.csv"
    write_trace_csv(path, TemporalTrace(t=clean.t, intensity=noisy, pressure=p))
    return str(path)


def run_all(outdir: Path) -> None:
    traces = write_traces(outdir / "traces")
    stuck = write_stuck_trace(outdir / "traces")
    runs = {
        "seed-phase": ["seed-phase"],
        "seed-phase-absorbing": ["seed-phase", "--set", "w0=-0.1"],
        "regimes": ["regimes"],
        "validate": ["validate"],
        "pressure-scan": ["pressure-scan"],
        "pressure-scan-list": ["pressure-scan", "--pressures", SECOND_PRESSURES],
        "pressure-scan-absorbing": ["pressure-scan", "--set", "w0=-0.1"],
        "pressure-scan-short-burst": ["pressure-scan", "--set", "anchor_tau_w_ps=1e-20"],
        "fit": ["fit", *traces],
        "fit-stuck": ["fit", stuck],
    }
    for name, argv in runs.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sr([*argv, "--out", str(outdir / name)])
        if code != 0:
            raise SystemExit(f"sr {argv[0]} exited {code}: {err.getvalue().strip()}")
        (outdir / name / "stdout.txt").write_text(out.getvalue())


def listing(outdir: Path) -> list[str]:
    files = sorted(
        path.relative_to(outdir).as_posix() for path in outdir.rglob("*")
        if path.is_file() and path.name != "run-manifest.txt"
    )
    lines = []
    for name in files:
        data = (outdir / name).read_bytes()
        rows = data.count(b"\n")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {rows}  {name}")
    return lines


def main(argv=None) -> list[str]:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit("usage: python scripts/golden_outputs.py OUTDIR")
    outdir = Path(args[0])
    run_all(outdir)
    lines = listing(outdir)
    print("\n".join(lines))
    return lines


if __name__ == "__main__":
    main()
