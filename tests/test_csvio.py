"""The bulk CSV writer against the per-row f-string format it replaced.

Each reference below is the row loop a writer used before it went through
write_columns; the bulk output must match it byte for byte.
"""

from pathlib import Path

import numpy as np
import pytest

from n2sr import csvio
from n2sr.bloch import integrate_bloch_rwa
from n2sr.cli import main
from n2sr.constants import per_m3_to_per_cm3, ps_to_s, s_to_ps
from n2sr.csvio import write_columns
from n2sr.pressure import SCAN_CSV_HEADER, pressure_scan, write_scan_csv
from n2sr.profiles import (
    PulseSummary,
    TemporalTrace,
    fit_sech2,
    read_trace_csv,
    synthesize_sech2_trace,
    write_summary_csv,
    write_trace_csv,
)
from n2sr.superradiance import (
    emitted_field_envelope,
    emitted_intensity,
    emitted_power_density,
    energy_density,
    solve_after_seed,
    write_profile_csv,
)


def reference_rows(*columns) -> str:
    """One row per index: every value as float(...)!r, comma-separated."""
    return "".join(
        ",".join(f"{float(col[j])!r}" for col in columns) + "\n" for j in range(len(columns[0]))
    )


def read_columns(path):
    """Float columns of a written CSV (repr round-trips, so values are exact)."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()[1:]]
    return np.array(rows, dtype=float).T


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20211)


class TestWriteColumns:
    def test_matches_row_loop_across_chunks(self, tmp_path, rng):
        n = 2 * csvio._CHUNK_ROWS + 3
        cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
        cols.append(np.array([0.0, -0.0, 1.0, np.inf, np.nan] * (n // 5) + [5e-324] * (n % 5)))
        path = tmp_path / "x.csv"
        write_columns(path, "a,b,c,d", cols)
        assert path.read_text() == "a,b,c,d\n" + reference_rows(*cols)

    def test_text_and_bool_columns_written_as_is(self, tmp_path):
        path = tmp_path / "x.csv"
        columns = [["a.csv", "b.csv"], ["8.0", ""], [0.1, 2.5e-12], [True, False]]
        write_columns(path, "name,p,x,ok", columns)
        assert path.read_text() == "name,p,x,ok\na.csv,8.0,0.1,True\nb.csv,,2.5e-12,False\n"

    def test_header_only_for_no_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        write_columns(path, "a,b", [np.array([]), np.array([])])
        assert path.read_text() == "a,b\n"

    def test_unequal_lengths_rejected(self, tmp_path):
        """Before the file is opened, whichever column is the odd one."""
        path = tmp_path / "x.csv"
        for columns in ([np.zeros(3), np.zeros(2)], [np.zeros(4), ["0.0"] * 4, np.zeros(3)]):
            with pytest.raises(ValueError):
                write_columns(path, "a,b,c", columns)
            assert not path.exists()

    def test_edge_floats_as_str_writes_them(self, tmp_path):
        """Array cells go through repr, list cells through str: the same bytes."""
        values = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 1.7976931348623157e308, 3.0]
        path = tmp_path / "x.csv"
        write_columns(path, "array,list", [np.array(values), values])
        assert path.read_text() == "array,list\n" + "".join(f"{v},{v}\n" for v in map(str, values))

    def test_bool_and_int_arrays(self, tmp_path):
        path = tmp_path / "x.csv"
        write_columns(path, "ok,n", [np.array([True, False, True]), np.array([0, -7, 2**62])])
        assert path.read_text() == "ok,n\nTrue,0\nFalse,-7\nTrue,4611686018427387904\n"

    def test_column_formatted_once_serves_several_writes(self, tmp_path, rng):
        """A column formatted once as repr strings gives the bytes of the array."""
        n = 2 * csvio._CHUNK_ROWS + 7
        t = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        formatted = list(map(repr, t.tolist()))
        for k in range(3):
            other = rng.standard_normal(n)
            as_array, as_text = tmp_path / f"a{k}.csv", tmp_path / f"s{k}.csv"
            write_columns(as_array, "t,x", [t, other])
            write_columns(as_text, "t,x", [formatted, other])
            assert as_text.read_bytes() == as_array.read_bytes()


def test_bloch_trajectory(tmp_path, seed, template, dt):
    traj = integrate_bloch_rwa(seed, template, seed.tau_r, dt)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    expected = "t_ps,u,v,w,theta_rad\n" + "".join(
        f"{s_to_ps(float(traj.t[i]))!r},0.0,{float(traj.v[i])!r},"
        f"{float(traj.w[i])!r},{float(traj.theta[i])!r}\n"
        for i in range(len(traj.t))
    )
    assert path.read_text() == expected


def test_profile(tmp_path, anchor_medium, seed, cfg):
    sol = solve_after_seed(anchor_medium, 0.17392466546264773)
    path = tmp_path / "profile.csv"
    t = sol.time_grid(cfg.window_tau_w, cfg.profile_points)
    write_profile_csv(path, sol, t, seed.tau_r)
    theta, e = sol.bloch_angle(t), energy_density(t, sol)
    p, i_s = emitted_power_density(t, sol), emitted_intensity(t, sol)
    f = emitted_field_envelope(t, sol)
    expected = "t_ps,theta_rad,energy_density_J_m3,power_W_m3,intensity_W_m2,field_V_m\n" + "".join(
        f"{s_to_ps(seed.tau_r + float(t[j]))!r},{float(theta[j])!r},{float(e[j])!r},"
        f"{float(p[j])!r},{float(i_s[j])!r},{float(f[j])!r}\n"
        for j in range(len(t))
    )
    assert path.read_text() == expected


def test_scan(tmp_path, rng, cal, seed, template, dephasing):
    scan = pressure_scan(cal, seed, template, rng.uniform(2.6, 40.0, 500).tolist(), dephasing)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, scan, seed.tau_r)
    expected = SCAN_CSV_HEADER + "\n" + "".join(
        f"{float(scan.p_mbar[i])!r},{per_m3_to_per_cm3(float(scan.N[i]))!r},"
        f"{s_to_ps(float(scan.tau_W[i]))!r},{s_to_ps(seed.tau_r + float(scan.tau_D[i]))!r},"
        f"{float(scan.theta_r)!r},{float(scan.I_peak[i]) * 1e-4!r},"
        f"{float(scan.I_peak_norm[i])!r},{float(scan.E_total[i])!r},"
        f"{float(scan.E_total_norm[i])!r},{float(scan.E_total_integral[i])!r},"
        f"{s_to_ps(float(scan.dephasing[i]))!r},{float(scan.validity_margin[i])!r}\n"
        for i in range(len(scan))
    )
    assert path.read_text() == expected


@pytest.mark.parametrize("pressure", [8.25, None])
def test_trace(tmp_path, rng, pressure):
    t = np.sort(rng.uniform(-5e-12, 2e-11, 400))
    trace = TemporalTrace(t=t, intensity=rng.uniform(0.0, 1.0, 400), pressure=pressure)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    expected = "" if pressure is None else f"# pressure_mbar={float(pressure)!r}\n"
    expected += "time_ps,intensity_arb\n" + "".join(
        f"{s_to_ps(float(trace.t[i]))!r},{float(trace.intensity[i])!r}\n" for i in range(len(trace.t))
    )
    assert path.read_text() == expected


def test_summary(tmp_path, rng):
    rows = [PulseSummary(p, *rng.uniform(1e-13, 1e-11, 3)) for p in (6.0, 8.5, 20.0)]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    expected = "p_mbar,tau_FW_ps,tau_W_ps,tau_D_ps\n" + "".join(
        f"{float(r.pressure_mbar)!r},{s_to_ps(float(r.tau_fw))!r},"
        f"{s_to_ps(float(r.tau_w))!r},{s_to_ps(float(r.tau_d))!r}\n"
        for r in rows
    )
    assert path.read_text() == expected


def test_regimes(tmp_path):
    assert main(["regimes", "--out", str(tmp_path)]) == 0
    for idx in range(1, 5):
        path = tmp_path / f"regime{idx}.csv"
        expected = reference_rows(*read_columns(path))
        assert path.read_text() == "t_ps,t_rel_tau_W,theta_rad,w,P_over_P0\n" + expected


def test_fits(tmp_path):
    files = []
    for name, pressure in (("a.csv", 8.0), ("b.csv", None)):
        trace = synthesize_sech2_trace(
            1.0, ps_to_s(6.0), ps_to_s(1.666), 0.0, ps_to_s(30.0), 1501, pressure=pressure
        )
        write_trace_csv(tmp_path / name, trace)
        files.append(str(tmp_path / name))
    out = tmp_path / "out"
    assert main(["fit", *files, "--out", str(out)]) == 0

    expected = "file,pressure_mbar,amplitude_arb,tau_D_ps,tau_W_ps,rms_residual_arb,converged\n"
    for path in files:
        trace = read_trace_csv(path)
        fit = fit_sech2(trace)
        p = "" if trace.pressure is None else repr(trace.pressure)
        expected += (
            f"{Path(path).name},{p},{fit.amplitude!r},{s_to_ps(fit.tau_D)!r},"
            f"{s_to_ps(fit.tau_W)!r},{fit.rms_residual!r},{fit.converged}\n"
        )
    assert (out / "fits.csv").read_text() == expected
