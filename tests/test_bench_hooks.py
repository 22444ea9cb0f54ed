"""The benchmark's hooks into n2sr still resolve and count.

benchmarks/tracer.py patches n2sr functions by name and reads counts off
what they return, and benchmarks/worker.py calls pressure_scan directly with
keyword arguments. Neither runs in the other tests, so a rename or a dropped
parameter in n2sr would only show when the benchmark is run. These tests run
both hooks on small inputs and change nothing under benchmarks/.
"""

from pathlib import Path

import numpy as np
import pytest

from n2sr import cli
from n2sr.pressure import pressure_scan

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import inputs
    import tracer

    return tracer, inputs


def test_tracer_counts_a_scan_and_a_fit(tmp_path, capsys, bench):
    tracer_mod, inputs = bench
    t, y = inputs.sech2_trace(np.random.default_rng(1), 2.937, 6.287, noise=0.01, half_window_fwhm=6.0, n=301)
    trace = tmp_path / "trace.csv"
    inputs.write_trace(trace, t, y, 8.0)
    originals = cli.main, cli.read_trace_csv

    tracer = tracer_mod.Tracer()
    tracer.install()  # resolves every TRACED name, or raises
    try:
        assert cli.main is not originals[0]
        for op, argv in enumerate([
            ["pressure-scan", "--pressures", "6,8,20", "--out", str(tmp_path / "scan")],
            ["fit", "--out", str(tmp_path / "fit"), str(trace)],
        ]):
            tracer.op = op
            assert cli.main(argv) == 0
            tracer.finish_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert (cli.main, cli.read_trace_csv) == originals
    scan, fit = (tracer.per_op()[op] for op in (0, 1))
    assert scan["pressure.pressure_scan.pressures"] == 3
    assert scan["pressure.write_scan_csv.rows"] == 3
    assert fit["profiles.read_trace_csv.rows"] == 301
    assert fit["profiles.fit_sech2.calls"] == 1
    assert tracer_mod.converged_ratio(tracer) == (1, 1)


def test_worker_scan_call(cal, seed, template, dephasing, dt):
    """The kernel sweep's call in benchmarks/worker.py, argument for argument."""
    scan = pressure_scan(cal, seed, template, [6.0, 8.0], dephasing=dephasing, dt=dt)
    assert len(scan) == 2
    assert scan.p_mbar.tolist() == [6.0, 8.0]
