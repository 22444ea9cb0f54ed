"""Seeded inputs for the `scan` and `fit` workloads.

Everything here is drawn from one `numpy.random.Generator` seeded with the
workload seed, so a seed fixes the inputs exactly. Trace files are written by
this module in the documented `sr fit` format (optional `# pressure_mbar=`
line, `time_ps,intensity_arb` header), not by the package's own writer, so a
change to the package cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# (pressure mbar, pulse FWHM ps, peak delay ps), the grid of n2sr.datasets,
# restated so the inputs do not depend on the package under test.
MEASURED_GRID = (
    (6.0, 3.995, 8.614),
    (7.0, 3.508, 7.295),
    (8.0, 2.937, 6.287),
    (10.0, 2.349, 4.613),
    (12.0, 2.001, 3.822),
    (14.0, 1.581, 3.070),
    (16.0, 1.303, 2.701),
    (18.0, 1.082, 2.450),
    (20.0, 1.003, 2.199),
)

# FWHM of sech^2(t / tau_W) in units of tau_W: 2 arccosh(sqrt 2).
SECH2_FWHM = 2.0 * math.acosh(math.sqrt(2.0))

SCAN_PRESSURES = 2000
SCAN_RANGE_MBAR = (6.0, 20.0)

TRACES_PER_OP = 16
TRACE_BATCHES = 8      # ops cycle through the batches, 128 distinct traces per run
TRACE_SAMPLES = 3001
NOISE_RANGE = (0.0, 0.03)          # uniform noise amplitude, share of the peak
HALF_WINDOW_FWHM = (4.0, 10.0)     # half-width of the time window, in FWHM


def scan_pressures(rng: np.random.Generator, n: int = SCAN_PRESSURES) -> list[float]:
    """Pressures in SCAN_RANGE_MBAR, rounded to 1e-6 mbar so the command line
    and the check read the same numbers."""
    lo, hi = SCAN_RANGE_MBAR
    return [float(f"{p:.6f}") for p in rng.uniform(lo, hi, n)]


def sech2_trace(rng, fwhm_ps, delay_ps, noise, half_window_fwhm, n=TRACE_SAMPLES):
    """Unit-height sech^2 burst on a window centred on the delay, plus uniform
    noise of the given amplitude, clipped at zero like a detector reading."""
    tau_w = fwhm_ps / SECH2_FWHM
    half = half_window_fwhm * fwhm_ps
    t = np.linspace(delay_ps - half, delay_ps + half, n)
    y = 1.0 / np.cosh((t - delay_ps) / tau_w) ** 2
    y = np.clip(y + noise * rng.uniform(-1.0, 1.0, n), 0.0, None)
    return t, y


def write_trace(path: Path, t, y, pressure=None) -> None:
    lines = [] if pressure is None else [f"# pressure_mbar={pressure!r}"]
    lines.append("time_ps,intensity_arb")
    lines.extend(f"{ti!r},{yi!r}" for ti, yi in zip(t.tolist(), y.tolist()))
    path.write_text("\n".join(lines) + "\n")


def stratified(rng: np.random.Generator, bounds: tuple[float, float], n: int) -> np.ndarray:
    """n draws in [lo, hi), one in each n-th of the range, in shuffled order."""
    lo, hi = bounds
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def fit_traces(rng: np.random.Generator, outdir: Path) -> list[list[dict]]:
    """TRACE_BATCHES batches of TRACES_PER_OP trace files with their truth.

    Each batch is stratified: its noise amplitudes and half-windows fall one
    in each sixteenth of their ranges, and every grid pressure appears at
    least once. Batches, and runs with different seeds, then give the fitter
    the same mix of easy and hard traces. Every drawn trace is kept: the
    benchmark never redraws a trace the fitter handles badly, so fitter
    defects show in its counts.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    n, grid = TRACES_PER_OP, len(MEASURED_GRID)
    batches = []
    for b in range(TRACE_BATCHES):
        rows = rng.permutation(np.concatenate([np.arange(grid), rng.integers(grid, size=n - grid)]))
        noises = stratified(rng, NOISE_RANGE, n)
        half_windows = stratified(rng, HALF_WINDOW_FWHM, n)
        batch = []
        for i, (row, noise, half_window) in enumerate(zip(rows, noises.tolist(), half_windows.tolist())):
            pressure, fwhm, delay = MEASURED_GRID[row]
            t, y = sech2_trace(rng, fwhm, delay, noise, half_window)
            path = outdir / f"b{b}_t{i:02d}.csv"
            write_trace(path, t, y, pressure)
            batch.append({
                "path": str(path),
                "pressure_mbar": pressure,
                "tau_w_ps": fwhm / SECH2_FWHM,
                "tau_d_ps": delay,
                "noise": noise,
                "half_window_fwhm": half_window,
            })
        batches.append(batch)
    return batches


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Generate the inputs of one workload and record them in inputs.json."""
    rng = np.random.default_rng(seed)
    inputs: dict = {"workload": workload, "seed": seed}
    if workload == "scan":
        inputs["pressures"] = scan_pressures(rng)
    elif workload == "fit":
        inputs["batches"] = fit_traces(rng, workdir / "traces")
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    return inputs
