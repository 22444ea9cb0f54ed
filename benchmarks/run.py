"""n2sr benchmark: drives the `sr` command line through one seeded workload.

    python3 benchmarks/run.py --workload {validate,emit,scan,fit,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src` directory, nothing needs to be installed. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate traced
run. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only if
every operation's outputs passed their checks; it is 2, with no result,
when the checkout holds no package to benchmark.

The loop is closed with one client: a single worker process (worker.py)
issues the next operation only after the previous one has returned. See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import inputs as inputs_mod
import workloads

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (ROOT / "src" / "n2sr" / "cli.py", ROOT / workloads.CONFIG)
WORK_ROOT = ROOT / ".bench_work"
TAIL_BEYOND = 10  # samples required above the reported tail percentile

ITEM = {
    "validate": "`sr validate` runs",
    "emit": "CSV rows written",
    "scan": "pressures",
    "fit": f"{inputs_mod.TRACE_SAMPLES}-sample traces",
}

# Per-layer metrics read from the traced operations. A name ending in `.s`
# is the layer's self time, reported by tracer.layer_metrics as `.self_s`.
LAYERS = (
    ("cli.main.self_s", "s"),
    ("config.load_config.s", "s"),
    ("bloch.integrate_bloch_rwa.s", "s"),
    ("bloch.integrate_bloch_rwa.steps", "count"),
    ("bloch.bloch_angle.s", "s"),
    ("bloch.bloch_angle.calls", "count"),
    ("bloch.write_csv.s", "s"),
    ("bloch.write_csv.rows", "count"),
    ("superradiance.write_profile_csv.s", "s"),
    ("superradiance.write_profile_csv.rows", "count"),
    ("superradiance.integrate_pendulum.s", "s"),
    ("superradiance.integrate_pendulum.calls", "count"),
    ("superradiance.integrate_pendulum.steps", "count"),
    ("pressure.pressure_scan.s", "s"),
    ("pressure.pressure_scan.pressures", "count"),
    ("pressure.write_scan_csv.s", "s"),
    ("pressure.write_scan_csv.rows", "count"),
    ("profiles.read_trace_csv.s", "s"),
    ("profiles.read_trace_csv.rows", "count"),
    ("profiles.read_trace_csv.bytes", "B"),
    ("profiles.fit_sech2.s", "s"),
    ("profiles.fit_sech2.calls", "count"),
    ("profiles.summarize_by_pressure.s", "s"),
    ("profiles.write_summary_csv.s", "s"),
    ("validation.run_validation_checks.self_s", "s"),
)


def layer_key(name: str) -> str:
    return name[:-2] + ".self_s" if name.endswith(".s") else name


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # One client, single-threaded: keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "n2sr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client (one worker process)",
    }


class Metrics:
    """Named metrics with unit and the sample count and statistic behind each."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, str, int, str]] = []
        self.notes: list[str] = []

    def add(self, name, value, unit, samples, note) -> None:
        self.rows.append((name, float(value), unit, samples, note))

    def print_table(self) -> None:
        for name, value, unit, samples, note in self.rows:
            print(f"  {name:<40} {value:>13.6g} {unit:<5} n={samples:<5} {note}")
        for note in self.notes:
            print(f"  {note}")

    def as_json(self) -> dict:
        return {name: {"value": value, "unit": unit} for name, value, unit, _, _ in self.rows}


def tail(latencies: list[float]) -> tuple[float, int, float]:
    """Highest percentile with TAIL_BEYOND samples above it (the maximum when
    there are too few samples): (percentile, samples beyond, value)."""
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return 100.0 * (len(ordered) - beyond) / len(ordered), beyond, ordered[-1 - beyond]


def p75(values: list[float]) -> float:
    """Nearest-rank 75th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.75 * len(ordered)) - 1]


def end_to_end(workload: str, res: dict) -> Metrics:
    m = Metrics()
    setup, cold, rounds = res["setup"], res["cold"], res["rounds"]
    lat = [x for r in rounds for x in r]
    pct, beyond, value = tail(lat)
    m.add("setup_s", statistics.median(setup), "s", len(setup),
          "median wall time of a fresh interpreter running `import n2sr.cli`")
    m.add("cold_op_p75_s", p75(cold), "s", len(cold),
          f"p75 wall time of one operation as fresh `python -m n2sr.cli` processes "
          f"(median {statistics.median(cold):.4g} s)")
    m.add("op_p75_s", p75(lat), "s", len(lat),
          f"p75 in-process latency, warm (median {statistics.median(lat):.4g} s)")
    m.add("op_tail_s", value, "s", len(lat), f"p{pct:.2f}, {beyond} samples beyond it")
    m.add("items_per_s", res["items"] / sum(lat), "1/s", len(lat),
          f"{ITEM[workload]} per second of operation time, {res['items']} in total")
    m.add("peak_rss_mb", res["peak_rss_mb"], "MB", 1, "ru_maxrss of the worker process")
    m.add("ok_ratio", 1.0 - res["failed"] / res["attempted"], "ratio", res["attempted"],
          f"1 - fail_ratio; fail_ratio = {res['failed']}/{res['attempted']} (cold and warm operations)")
    m.notes.append("op latency median by round (ms): "
                   + " ".join(f"{1e3 * statistics.median(r):.1f}" for r in rounds))
    return m


def per_layer(workload: str, res: dict) -> Metrics:
    m = Metrics()
    imports = res["imports"]
    m.add("import.numpy_s", statistics.median(p[0] for p in imports), "s", len(imports),
          "median `import numpy` in a fresh interpreter")
    m.add("import.n2sr_s", statistics.median(p[1] for p in imports), "s", len(imports),
          "median `import n2sr.cli` after numpy, fresh interpreter")
    m.add("cli.out_rows", res["cli_out"][0], "count", 1, "stdout lines + lines of files cli writes itself")
    m.add("cli.out_bytes", res["cli_out"][1], "B", 1, "stdout bytes + bytes of files cli writes itself")
    layers, n = res["layers"], len(res["traced"])
    for name, unit in LAYERS:
        note = "median self seconds per operation" if unit == "s" else "median per operation"
        m.add(name, layers.get(layer_key(name), 0), unit, n, note)
    converged, fits = res["converged"], res["fits"]
    m.add("profiles.fit_sech2.converged_ratio", converged / fits if fits else 0.0, "ratio", fits,
          f"SechFit.converged over all traced fits ({converged}/{fits})")
    traced_p50 = statistics.median(res["traced"])
    self_sum = sum(layers.get(layer_key(name), 0) for name, unit in LAYERS if unit == "s")
    m.add("trace.op_p50_s", traced_p50, "s", n, "median latency of traced operations")
    m.add("trace.accounted_ratio", self_sum / traced_p50, "ratio", n,
          "sum of layer self times (cli.main included) over trace.op_p50_s")
    m.add("trace.overhead_ratio", traced_p50 / statistics.median(res["plain"]), "ratio",
          len(res["plain"]), "traced op p50 over untraced op p50, interleaved")
    for name, value in res["sweep"].items():
        m.add(name, value, "s", 3, "scaling sweep, median of direct calls")
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[Metrics, dict]:
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs_mod.make_inputs(workload, seed, work)
        argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
                "--workload", workload, "--root", str(ROOT), "--work", str(work),
                "--seconds", str(seconds), "--seed", str(seed), "--trace", str(trace)]
        # The worker gets its own process group, so a timeout or a signal
        # also ends any `sr` process it is waiting for.
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=seconds + 150)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{stderr}")
    res = json.loads(stdout.splitlines()[-1])
    metrics = (per_layer if trace else end_to_end)(workload, res)

    print(f"n2sr benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("env: " + json.dumps(environment(workload, seed, seconds, trace)))
    metrics.print_table()
    print(f"  fail_ratio = {res['failed']}/{res['attempted']}; output-check canary "
          f"{'caught' if res['canary_caught'] else 'NOT caught'}")
    for line in res["errors"]:
        print(f"  FAILED: {line}")
    return metrics, res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the cleanup in run_workload runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not an n2sr source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        metrics, res = run_workload(name, args.seed, args.seconds, args.trace)
        prefix = f"{name}." if args.workload == "all" else ""
        combined.update({prefix + k: v for k, v in metrics.as_json().items()})
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["canary_caught"] and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
