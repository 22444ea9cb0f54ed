"""One benchmark client: a closed loop of `sr` operations in one process.

Run by run.py as `python worker.py --workload W --root DIR --work DIR
--seconds S --seed N --trace 0|1`, with the package's `src` directory on
PYTHONPATH and the checkout root as working directory. The next operation,
in-process or as fresh processes, starts only after the previous one has
returned and been checked. Prints one JSON object with the raw samples,
failures and peak memory; with --trace 1 it holds the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import n2sr.cli
import inputs as inputs_mod
import tracer as tracer_mod
import workloads

WARMUP_OPS = 2
# The measured time is cut into rounds, each with one fresh-interpreter import
# and one cold operation followed by in-process operations, so every metric
# samples the whole run.
ROUNDS = 14
IMPORT_PROBES = 9  # traced run: fresh interpreters timing numpy and n2sr imports
ERRORS_KEPT = 20
LAUNCH_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import n2sr.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def launch(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S)
    return time.perf_counter() - start, proc


def _fresh(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


class Client:
    def __init__(self, workload: str, root: Path, work: Path):
        self.workload = workload
        self.outdir = work / "out"
        self.cold_outdir = work / "cold_out"
        self.cfg = workloads.reference_config(root)
        self.config = root / workloads.CONFIG
        self.inputs = json.loads((work / "inputs.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last_stdout = ""
        self.last_op = -1

    def run_op(self, op_index: int, tracer=None) -> tuple[float, int]:
        """Run and check one operation in-process; returns (seconds, items)."""
        _fresh(self.outdir)
        argvs = workloads.op_argvs(self.workload, self.inputs, self.outdir, self.config, op_index)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            codes = [n2sr.cli.main(argv) for argv in argvs]
            elapsed = time.perf_counter() - start
        self.last_stdout = out.getvalue()
        self.last_op = op_index
        if tracer is not None:
            tracer.finish_op()
        return elapsed, self.record(codes)

    def cold_op(self, op_index: int) -> float:
        """Run and check one operation as fresh `python -m n2sr.cli` processes."""
        _fresh(self.cold_outdir)
        argvs = workloads.op_argvs(self.workload, self.inputs, self.cold_outdir, self.config, op_index)
        total, stdout, codes = 0.0, "", []
        for argv in argvs:
            elapsed, proc = launch([sys.executable, "-m", "n2sr.cli", *argv])
            total += elapsed
            stdout += proc.stdout
            codes.append(proc.returncode)
        self.tally(workloads.check(
            self.workload, self.cold_outdir, stdout, codes, self.cfg, self.inputs, op_index))
        return total

    def record(self, codes) -> int:
        """Check the last in-process operation and count it; returns its items."""
        return self.tally(workloads.check(
            self.workload, self.outdir, self.last_stdout, codes, self.cfg, self.inputs, self.last_op))

    def tally(self, checked: tuple[list[str], int]) -> int:
        defects, items = checked
        self.attempted += 1
        if defects:
            self.failed += 1
            self.errors.extend(defects[: ERRORS_KEPT - len(self.errors)])
        return items

    def canary(self) -> bool:
        """Damage the last operation's outputs; the check must reject them."""
        stdout = workloads.corrupt(self.workload, self.outdir, self.last_stdout)
        defects, _ = workloads.check(
            self.workload, self.outdir, stdout, [0], self.cfg, self.inputs, self.last_op
        )
        return bool(defects)


def end_to_end(client: Client, seconds: float) -> dict:
    for op in range(WARMUP_OPS):
        client.run_op(op)
    setup, cold, rounds, items = [], [], [], 0
    op = WARMUP_OPS
    start = time.perf_counter()
    for r in range(ROUNDS):
        setup.append(launch([sys.executable, "-c", "import n2sr.cli"])[0])
        cold.append(client.cold_op(r))
        round_end = start + seconds * (r + 1) / ROUNDS
        latencies = []
        while True:  # at least one operation per round, however short
            elapsed, done = client.run_op(op)
            latencies.append(elapsed)
            items += done
            op += 1
            if time.perf_counter() >= round_end:
                break
        rounds.append(latencies)
    return {"setup": setup, "cold": cold, "rounds": rounds, "items": items}


def traced_run(client: Client, seconds: float, seed: int, work: Path) -> dict:
    """Per-layer numbers: untraced and traced operations alternate, so both
    see the same machine and their ratio is the tracing overhead."""
    imports = [[float(x) for x in launch([sys.executable, "-c", IMPORT_PROBE])[1].stdout.split()]
               for _ in range(IMPORT_PROBES)]
    tracer = tracer_mod.Tracer()
    for op in range(WARMUP_OPS):
        client.run_op(op)
    plain, traced, traced_ops = [], [], []
    op = WARMUP_OPS
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if op % 2:
            tracer.op = op
            tracer.install()
            try:
                elapsed, _ = client.run_op(op, tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            traced_ops.append(op)
        else:
            plain.append(client.run_op(op)[0])
        op += 1
    converged, fits = tracer_mod.converged_ratio(tracer)
    return {
        "imports": imports, "plain": plain, "traced": traced,
        "layers": tracer_mod.layer_metrics(tracer, traced_ops),
        "converged": converged, "fits": fits,
        "cli_out": _cli_output(client),
        "sweep": scaling_sweep(client, seed, work),
    }


def _cli_output(client: Client) -> list[int]:
    """Rows and bytes `cli` writes itself in one operation: stdout plus every
    output file no traced writer produced."""
    client.run_op(client.last_op + 1)
    owned = {"bloch_trajectory.csv", "profile.csv", "pressure_scan.csv", "pulse_summary.csv"}
    files = [p for p in sorted(client.outdir.iterdir()) if p.name not in owned]
    return list(tracer_mod.count_output(files, client.last_stdout))


SWEEP_REPEATS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(SWEEP_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaling_sweep(client: Client, seed: int, work: Path) -> dict[str, float]:
    """Direct calls of the kernels at growing sizes, median of SWEEP_REPEATS."""
    from n2sr import config as cfgmod
    from n2sr.bloch import integrate_bloch_rwa
    from n2sr.pressure import pressure_scan
    from n2sr.profiles import fit_sech2, read_trace_csv

    cfg = cfgmod.load_config(client.config)
    cal, pulse, medium = cfgmod.calibration(cfg), cfgmod.seed_pulse(cfg), cfgmod.medium_template(cfg)
    dephasing, dt = cfgmod.dephasing_parameters(cfg), cfgmod.dt_seconds(cfg)
    out = {}
    for n in (10, 100, 1000, 10000):
        pressures = np.linspace(6.0, 20.0, n).tolist()
        out[f"pressure.pressure_scan.s.n{n}"] = _median_time(
            lambda: pressure_scan(cal, pulse, medium, pressures, dephasing=dephasing, dt=dt))
    for n in (1000, 10000, 100000):
        out[f"bloch.integrate_bloch_rwa.s.n{n}"] = _median_time(
            lambda: integrate_bloch_rwa(pulse, medium, pulse.tau_r, dt=pulse.tau_r / n))
    rng = np.random.default_rng(seed)
    sweep_dir = work / "sweep"
    sweep_dir.mkdir(parents=True, exist_ok=True)
    for n in (1000, 10000, 100000):
        pressure, fwhm, delay = inputs_mod.MEASURED_GRID[rng.integers(len(inputs_mod.MEASURED_GRID))]
        t, y = inputs_mod.sech2_trace(rng, fwhm, delay, noise=0.01, half_window_fwhm=6.0, n=n)
        path = sweep_dir / f"trace_n{n}.csv"
        inputs_mod.write_trace(path, t, y, pressure)
        out[f"profiles.read_trace_csv.s.n{n}"] = _median_time(lambda: read_trace_csv(path))
        trace = read_trace_csv(path)
        out[f"profiles.fit_sech2.s.n{n}"] = _median_time(lambda: fit_sech2(trace))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    if src not in Path(n2sr.cli.__file__).resolve().parents:
        print(f"n2sr imported from {n2sr.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    client = Client(args.workload, args.root, args.work)
    if args.trace:
        result = traced_run(client, args.seconds, args.seed, args.work)
    else:
        result = end_to_end(client, args.seconds)
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        errors=client.errors,
        canary_caught=client.canary(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
