"""End-to-end command tests driving main() in-process."""

import copy
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import n2sr
from n2sr import cli, config, constants
from n2sr.bloch import bloch_angle, integrate_bloch_rwa
from n2sr.cli import _parse_pressures, main
from n2sr.constants import ps_to_s, s_to_ps
from n2sr.pressure import dephasing_time
from n2sr.profiles import synthesize_sech2_trace, write_trace_csv


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, field in zip(header, line.split(",")):
            cols[name].append(field)
    return cols


def read_csv(path):
    return parse_csv(path.read_text())


def floats(cols, name):
    return [float(x) for x in cols[name]]


class TestSeedPhase:
    def test_default_run(self, tmp_path, capsys):
        assert main(["seed-phase", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "theta(tau_r)" in out
        assert (tmp_path / "bloch_trajectory.csv").exists()
        assert (tmp_path / "run-manifest.txt").exists()
        summary = (tmp_path / "seed_summary.txt").read_text()
        theta_over_pi = float(
            next(l for l in summary.splitlines() if l.startswith("theta_tau_r_over_pi")).split("=")[1]
        )
        assert 0.054 <= theta_over_pi <= 0.060

    def test_output_is_the_closed_form(self, tmp_path, cfg, seed, template):
        """theta(tau_r) is bloch_angle's, every row is w0 (0, sin theta, cos theta), and
        the grid has the nodes the RK4 would step on."""
        assert main(["seed-phase", "--out", str(tmp_path)]) == 0
        summary = dict(
            line.split(" = ") for line in (tmp_path / "seed_summary.txt").read_text().splitlines()[1:]
        )
        theta_r = bloch_angle(seed, template, seed.tau_r)
        assert float(summary["theta_tau_r_rad"]) == theta_r
        assert float(summary["theta_quadrature_rad"]) == theta_r
        cols = read_csv(tmp_path / "bloch_trajectory.csv")
        theta = np.array(floats(cols, "theta_rad"))
        assert theta[-1] == theta_r
        assert floats(cols, "u") == [0.0] * len(theta)
        assert floats(cols, "v") == (template.w0 * np.sin(theta)).tolist()
        assert floats(cols, "w") == (template.w0 * np.cos(theta)).tolist()
        rk4 = integrate_bloch_rwa(seed, template, seed.tau_r, config.dt_seconds(cfg))
        assert floats(cols, "t_ps") == s_to_ps(rk4.t).tolist()

    def test_zero_field_gives_zero_angle(self, tmp_path):
        assert (
            main(
                [
                    "seed-phase",
                    "--set", "seed_intensity_mw_cm2=0",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        cols = read_csv(tmp_path / "bloch_trajectory.csv")
        assert all(x == 0.0 for x in floats(cols, "theta_rad"))
        assert all(x == 0.0 for x in floats(cols, "v"))
        w = floats(cols, "w")
        assert all(x == w[0] for x in w)

    def test_manifest_echoes_resolved_config(self, tmp_path):
        main(["seed-phase", "--set", "w0=0.2", "--out", str(tmp_path)])
        manifest = (tmp_path / "run-manifest.txt").read_text()
        assert "[config]" in manifest
        assert "w0 = 0.2" in manifest
        assert "command = seed-phase" in manifest

    def test_blowup_exits_2(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                [
                    "seed-phase",
                    "--set", "seed_intensity_mw_cm2=1.3e47",  # E0 about 1e30 V/m
                    "--out", str(tmp_path),
                ]
            )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, line", [
        (["seed_intensity_mw_cm2=1e290"], "seed angle theta(tau_r) = 5.499981e+143 rad has lost its phase: "
         "its rounding, eps theta = 1.2e+128 rad, exceeds 1e-08 rad"),
        (["seed_intensity_mw_cm2=0", "tau_s_ps=1.7976931348623157e308"],
         "trajectory column 't_ps' is inf at t = 1.7985919814297464e+296 s"),
    ], ids=["huge-field", "huge-seed-width"])
    def test_non_finite_run_exits_2_quietly(self, tmp_path, capsys, overrides, line):
        """One line naming the failure, no RuntimeWarning (the suite makes warnings errors), no CSV."""
        args = [a for o in overrides for a in ("--set", o)]
        assert main(["seed-phase", *args, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"numerical failure: {line}\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run-manifest.txt"]


@pytest.fixture(scope="module")
def regimes_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("regimes")
    assert main(["regimes", "--out", str(path)]) == 0
    return path


class TestRegimes:
    def test_all_panels_written(self, regimes_dir):
        for idx in (1, 2, 3, 4):
            assert (regimes_dir / f"regime{idx}.csv").exists()
        assert (regimes_dir / "profile.csv").exists()

    def test_panels_share_time_columns(self, regimes_dir):
        cols = [read_csv(regimes_dir / f"regime{idx}.csv") for idx in (1, 2, 3, 4)]
        for name in ("t_ps", "t_rel_tau_W"):
            assert all(c[name] == cols[0][name] for c in cols[1:])

    def test_delayed_regimes_reach_peak(self, regimes_dir):
        for idx in (1, 4):
            p = floats(read_csv(regimes_dir / f"regime{idx}.csv"), "P_over_P0")
            assert max(p) == 1.0

    def test_declining_regimes_stay_below_peak(self, regimes_dir):
        for idx in (2, 3):
            p = floats(read_csv(regimes_dir / f"regime{idx}.csv"), "P_over_P0")
            assert max(p) < 1.0
            assert all(a > b for a, b in zip(p, p[1:]))

    def test_regime3_angle_decreases(self, regimes_dir):
        theta = floats(read_csv(regimes_dir / "regime3.csv"), "theta_rad")
        assert all(a > b for a, b in zip(theta, theta[1:]))

    def test_regime1_angle_increases_through_quarter_turn(self, regimes_dir):
        theta = floats(read_csv(regimes_dir / "regime1.csv"), "theta_rad")
        assert all(a < b for a, b in zip(theta, theta[1:]))
        assert theta[0] < 0.5 * math.pi < theta[-1]

    @pytest.mark.parametrize(
        "args, lines",
        [
            ([], [
                "regime 1 (inverted weak seed): tau_D - tau_r = +2.440 tau_W",
                "regime 2 (inverted strong seed): tau_D - tau_r = -0.319 tau_W",
                "regime 3 (absorbing weak seed): tau_D - tau_r = -2.440 tau_W",
                "regime 4 (absorbing strong seed): tau_D - tau_r = +0.319 tau_W",
            ]),
            (["--set", "w0=-0.1"], [
                "regime 1 (absorbing weak seed): tau_D - tau_r = -2.440 tau_W",
                "regime 2 (absorbing strong seed): tau_D - tau_r = +0.319 tau_W",
                "regime 3 (inverted weak seed): tau_D - tau_r = +2.440 tau_W",
                "regime 4 (inverted strong seed): tau_D - tau_r = -0.319 tau_W",
            ]),
        ],
        ids=["inverted", "absorbing"],
    )
    def test_stdout_names_each_panel(self, tmp_path, capsys, args, lines):
        """Each panel is named from its own medium and angle, in build order: the
        configured medium first, so with w0 < 0 panel 1 is the absorbing weak seed."""
        assert main(["regimes", *args, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() == ("\n".join(lines) + "\n", "")

    def test_zero_seed_message(self, tmp_path, capsys):
        assert main(["regimes", "--set", "seed_intensity_mw_cm2=0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: the seed tips the Bloch vector to 0.0000 rad; "
            "theta_r must lie strictly inside (0, pi)\n"
        )

    def test_strong_seed_message(self, tmp_path, capsys):
        assert main(["regimes", "--set", "seed_intensity_mw_cm2=1e3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: the configured seed tips the Bloch vector to 1.7392 rad; "
            "the weak-seed panels need theta_r in (0, pi/2)\n"
        )

    def test_far_tails_run_quietly(self, tmp_path, capsys):
        """Overflow far from tau_D saturates theta to pi and sech^2 to 0 without a warning."""
        args = ["--set", "window_tau_w=400", "--set", "regime_span_tau_w=1000"]
        assert main(["regimes", *args, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        cols = read_csv(tmp_path / "regime1.csv")
        assert floats(cols, "P_over_P0")[-1] == 0.0
        assert floats(cols, "theta_rad")[-1] == math.pi
        profile = read_csv(tmp_path / "profile.csv")
        assert floats(profile, "power_W_m3")[0] == floats(profile, "power_W_m3")[-1] == 0.0

    @pytest.mark.parametrize(
        "override, message",
        [
            ("regime_span_tau_w=1.7e308", "regime 1 column 't_ps' is inf at t_rel_tau_W = 1.0795e+308"),
            ("window_tau_w=1.7e308", "profile column 't_ps' is -inf at t = -2.8322e+296 s"),
        ],
    )
    def test_non_finite_column_exits_2(self, tmp_path, capsys, override, message):
        """Times past the float range in ps: one line naming the column, no warning,
        and no CSV written, as every column is checked before the first file."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["regimes", "--set", override, "--out", str(tmp_path)])
        assert code == 2
        assert caught == []
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run-manifest.txt"]

    def test_short_burst_panels_match_the_default(self, tmp_path, capsys):
        """Each panel is its burst handed over at t = 0 and read at (t - tau_r)/tau_W,
        so at tau_W = 1e-32 s the panels and stdout are the default's; only t_ps,
        tau_r + (t - tau_r), differs."""
        runs = {}
        for name, args in (("default", []), ("short", ["--set", "anchor_tau_w_ps=1e-20"])):
            assert main(["regimes", *args, "--out", str(tmp_path / name)]) == 0
            runs[name] = capsys.readouterr()
        assert runs["short"] == runs["default"]
        for idx in (1, 2, 3, 4):
            default, short = (read_csv(tmp_path / name / f"regime{idx}.csv") for name in ("default", "short"))
            for column in ("t_rel_tau_W", "theta_rad", "w", "P_over_P0"):
                np.testing.assert_allclose(floats(short, column), floats(default, column), rtol=0.0, atol=1e-12)

    def test_short_burst_profile_is_resolved(self, tmp_path, capsys):
        """profile.csv evaluates the burst at times counted from its handover, so at
        tau_W = 1e-32 s its theta_rad is the default's and takes 2001 distinct values."""
        for name, args in (("default", []), ("short", ["--set", "anchor_tau_w_ps=1e-20"])):
            assert main(["regimes", *args, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        default, short = (read_csv(tmp_path / name / "profile.csv") for name in ("default", "short"))
        theta = floats(short, "theta_rad")
        np.testing.assert_allclose(theta, floats(default, "theta_rad"), rtol=0.0, atol=1e-12)
        assert len(set(theta)) == len(theta) == 2001

    def test_too_strong_seed_rejected(self, tmp_path):
        code = main(
            [
                "regimes",
                "--set", "seed_intensity_mw_cm2=40000",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1


class TestPressureScan:
    def test_default_grid(self, tmp_path, capsys):
        assert main(["pressure-scan", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "density slope" in out
        cols = read_csv(tmp_path / "pressure_scan.csv")
        assert floats(cols, "p_mbar") == [6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
        tau_w = floats(cols, "tau_W_ps")
        assert all(a > b for a, b in zip(tau_w, tau_w[1:]))

    def test_single_anchor_pressure(self, tmp_path):
        assert main(["pressure-scan", "--pressures", "8", "--out", str(tmp_path)]) == 0
        cols = read_csv(tmp_path / "pressure_scan.csv")
        assert len(cols["p_mbar"]) == 1
        assert floats(cols, "tau_W_ps")[0] == pytest.approx(1.666, rel=1e-6)

    def test_below_threshold_pressure_exits_1(self, tmp_path, capsys):
        assert main(["pressure-scan", "--pressures", "2", "--out", str(tmp_path)]) == 1
        assert "2" in capsys.readouterr().err

    def test_unparseable_pressures_exit_1(self, tmp_path):
        assert main(["pressure-scan", "--pressures", "6,spam", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("raw, token", [("nan", "nan"), ("8,inf", "inf"), ("8, -inf ,10", "-inf")])
    def test_non_finite_pressure_named(self, tmp_path, capsys, raw, token):
        assert main(["pressure-scan", "--pressures", raw, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"pressure '{token}' must be finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("pressures", ["6,8", "100,7,6"])
    def test_absorbing_medium_reads_the_margin_at_the_handover(self, tmp_path, capsys, pressures):
        """On w0 < 0 a weak seed's burst would peak before tau_r (tau_D between 0 and
        tau_r at 100 mbar, below 0 from 6 to 8 mbar), so it peaks at the handover:
        every row's margin is tau_2/sqrt(tau_W tau_r)."""
        args = ["pressure-scan", "--set", "w0=-0.1", "--pressures", pressures]
        assert main([*args, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        cols = read_csv(tmp_path / "pressure_scan.csv")
        tau_w, tau_d, tau_2, margin = (
            np.array(floats(cols, k)) for k in ("tau_W_ps", "tau_D_ps", "dephasing_ps", "validity_margin")
        )
        tau_r = s_to_ps(config.seed_pulse(config.RunConfig()).tau_r)
        assert np.all(tau_d < tau_r)
        np.testing.assert_allclose(margin, tau_2 / np.sqrt(tau_w * tau_r), rtol=1e-12)

    def test_stdout_rows_match_scan(self, tmp_path, capsys):
        assert main(["pressure-scan", "--pressures", "6,8,40", "--set", "sigma_cm2=1e-13",
                     "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cols = read_csv(tmp_path / "pressure_scan.csv")
        assert len(lines) == 4
        keys = ("p_mbar", "tau_W_ps", "tau_D_ps", "validity_margin")
        for line, p, tau_w, tau_d, margin in zip(lines[1:], *(floats(cols, k) for k in keys)):
            flag = "" if margin >= 10.0 else "  [dephasing margin below threshold]"
            assert line == (
                f"p = {p:5.1f} mbar: tau_W = {tau_w:6.3f} ps, "
                f"tau_D = {tau_d:6.3f} ps, margin = {margin:7.1f}{flag}"
            )
        assert lines[-1].endswith("[dephasing margin below threshold]")

    def test_pressure_list_capped_before_parsing(self, tmp_path, capsys):
        raw = ",".join(["spam"] * (config.MAX_GRID_POINTS + 1))
        assert main(["pressure-scan", "--pressures", raw, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: --pressures has {config.MAX_GRID_POINTS + 1} comma-separated fields; "
            f"the limit is {config.MAX_GRID_POINTS}\n"
        )

    def test_pressure_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_GRID_POINTS", 3)
        assert _parse_pressures("6, 8,10") == [6.0, 8.0, 10.0]
        with pytest.raises(config.ConfigError, match="--pressures has 4 comma-separated fields"):
            _parse_pressures("6,8,10,")

    def test_empty_fields_are_skipped(self, tmp_path):
        assert main(["pressure-scan", "--pressures", "6,,8", "--out", str(tmp_path)]) == 0
        assert floats(read_csv(tmp_path / "pressure_scan.csv"), "p_mbar") == [6.0, 8.0]

    @pytest.mark.parametrize("raw", [",", "", " , "])
    def test_empty_pressure_list_exits_1(self, tmp_path, capsys, raw):
        assert main(["pressure-scan", "--pressures", raw, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: the pressure list is empty\n"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pressure-scan", "--out", str(a)]) == 0
        assert main(["pressure-scan", "--out", str(b)]) == 0
        assert (a / "pressure_scan.csv").read_bytes() == (b / "pressure_scan.csv").read_bytes()

    @pytest.mark.parametrize("raw, named", [
        ("1e300", "1e+300"),
        ("1.7976931348623157e308", "1.7976931348623157e+308"),
        ("6,1e300,1e301", "1e+300"),
    ])
    def test_overflowing_density_is_named(self, tmp_path, capsys, raw, named):
        """N = k (p - p0) past the float range: one line naming N and the first such pressure."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pressure-scan", "--pressures", raw, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"numerical failure: the emitter density N = k (p - p0) is not finite at p = {named} mbar\n"
        )

    @pytest.mark.parametrize("length", ["1e300", "1e295"])
    def test_overflowing_column_density_is_named(self, tmp_path, capsys, length):
        """A finite N times a huge L leaves the float range: one line naming n L, no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pressure-scan", "--pressures", "6,2.2789125728669927e+290",
                         "--set", f"length_mm={length}", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: the column density n L = w0 N L is not finite "
            "at p = 2.2789125728669927e+290 mbar\n"
        )

    def test_non_finite_column_exits_2(self, tmp_path, capsys):
        """tau_2 near the float maximum overflows in ps: one line, no warning, no CSV."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pressure-scan", "--set", "v_e_cm_s=1e-300", "--out", str(tmp_path)])
        assert code == 2
        assert caught == []
        out, err = capsys.readouterr()
        assert err == "numerical failure: scan column 'dephasing_ps' is inf at p = 6.0 mbar\n"
        assert out == ""
        assert not (tmp_path / "pressure_scan.csv").exists()


class TestFit:
    def make_traces(self, directory):
        files = []
        for name, pressure in (("a.csv", 8.0), ("b.csv", None)):
            tau_w = ps_to_s(1.666)
            trace = synthesize_sech2_trace(
                1.0, ps_to_s(6.0), tau_w, 0.0, ps_to_s(30.0), 1501, pressure=pressure
            )
            path = directory / name
            write_trace_csv(path, trace)
            files.append(str(path))
        return files

    def test_fit_pipeline(self, tmp_path, capsys):
        files = self.make_traces(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", *files, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "no pressure_mbar metadata" in captured.err
        fits = read_csv(out / "fits.csv")
        assert fits["file"] == ["a.csv", "b.csv"]
        assert fits["pressure_mbar"] == ["8.0", ""]
        assert all(flag == "True" for flag in fits["converged"])
        assert floats(fits, "tau_W_ps")[0] == pytest.approx(1.666, rel=1e-4)
        summary = read_csv(out / "pulse_summary.csv")
        assert len(summary["p_mbar"]) == 1  # only the trace with metadata

    def test_wide_trace_runs_quietly(self, tmp_path, capsys):
        """cosh overflows in the tails of a +-800 tau_W trace: no warning reaches stderr."""
        path = tmp_path / "wide.csv"
        trace = synthesize_sech2_trace(1.0, 0.0, 1e-12, -800e-12, 800e-12, 3001, pressure=8.0)
        write_trace_csv(path, trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fit", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert read_csv(tmp_path / "out" / "fits.csv")["converged"] == ["True"]

    def test_unreducible_trace_leaves_no_output(self, tmp_path, capsys):
        """A trace rising to its last sample fails the summary before fits.csv is written."""
        path = tmp_path / "ramp.csv"
        rows = "".join(f"{0.1 * i!r},{1 + 0.01 * i!r}\n" for i in range(64))
        path.write_text("# pressure_mbar=8.0\ntime_ps,intensity_arb\n" + rows)
        out = tmp_path / "out"
        assert main(["fit", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: trace 'ramp' peaks on the boundary\n")
        assert sorted(f.name for f in out.iterdir()) == ["run-manifest.txt"]

    def test_malformed_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_ps,intensity_arb\n0.0,1.0\nnope,2.0\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "bad.csv" in err and ":3" in err

    def test_missing_trace_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["fit", str(missing), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("body", ["", "\n\n", " \n\t\n"])
    def test_header_only_trace_exits_1(self, tmp_path, capsys, body):
        path = tmp_path / "rows.csv"
        path.write_text("time_ps,intensity_arb\n" + body)
        assert main(["fit", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    def test_empty_trace_exits_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "out")]) == 1


class TestValidate:
    def test_default_config_passes(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all 11 checks passed" in out
        report = (tmp_path / "validate_report.txt").read_text().splitlines()
        assert len(report) == 11
        assert all(line.startswith("PASS") for line in report)

    def test_corrupted_constant_fails_named_check(self, tmp_path, capsys, monkeypatch):
        """mu0 x (1 + 1e-6) in every module that binds CONSTANTS: validate exits 3,
        reports the failing checks on stdout and names them on stderr."""
        original = constants.CONSTANTS
        edited = copy.copy(original)
        object.__setattr__(edited, "mu0", edited.mu0 * (1.0 + 1e-6))
        for module in list(sys.modules.values()):
            if module.__name__.startswith("n2sr") and getattr(module, "CONSTANTS", None) is original:
                monkeypatch.setattr(module, "CONSTANTS", edited)
        assert main(["validate", "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "FAIL  constants-product" in captured.out
        assert "constants-product" in captured.err

    def test_other_cross_section_passes(self, tmp_path, capsys):
        """The dephasing check holds for any valid config, not only the default one."""
        assert main(["validate", "--set", "sigma_cm2=2e-15", "--out", str(tmp_path)]) == 0
        assert "PASS  dephasing-window: tau_2(20 mbar) = 103.5 ps" in capsys.readouterr().out

    def test_seed_past_quarter_turn_passes(self, tmp_path, capsys):
        """theta_r > pi/2 makes tau_D rise with p; scan-scaling holds all the same."""
        assert main(["validate", "--set", "dipole_debye=16.84", "--out", str(tmp_path)]) == 0
        report = capsys.readouterr().out.splitlines()[:-1]
        assert len(report) == 11 and all(line.startswith("PASS") for line in report)

    def test_short_bursts_pass_every_check(self, tmp_path, capsys):
        """The burst checks read the burst handed over at t = 0, so every time they
        evaluate lies within a few tau_W of 0: tau_W from 1 ps down to 1e-32 s, some
        1e19 times shorter than tau_r, passes all eleven checks."""
        readings = {}
        for k in range(21):
            code = main(["validate", "--set", f"anchor_tau_w_ps=1e-{k}", "--out", str(tmp_path)])
            out, err = capsys.readouterr()
            readings[k] = (code, sum(line.startswith("PASS") for line in out.splitlines()), err)
        assert readings == {k: (0, 11, "") for k in range(21)}

    def test_tiniest_burst_reads_the_delay_invariant_unscaled(self, tmp_path, capsys):
        """tau_W = 1e-159 s, some 1e147 times shorter than tau_r: the scan's tau_D
        counts from the handover, so tau_D/tau_W still reads its lever to 1e-12."""
        argv = ["validate", "--set", "anchor_tau_w_ps=1e-147", "--set", "length_mm=1e100"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines() if "scan-scaling" in line)
        assert float(line.split("delay-invariant defect ")[1].split(",")[0]) <= 1e-12

    def test_weak_seed_is_followed_to_its_burst(self, tmp_path, capsys):
        """At 1e-300 MW/cm^2 the burst peaks about 349 tau_W after tau_r; each pendulum
        case runs past its own peak, so every order is resolved (a fixed 10 tau_W left
        the first case unresolved)."""
        assert main(["validate", "--set", "seed_intensity_mw_cm2=1e-300", "--out", str(tmp_path)]) == 0
        line, = [l for l in capsys.readouterr().out.splitlines() if "pendulum-closed-form" in l]
        orders = line.split("observed order ")[1].split(", ")
        assert line.startswith("PASS") and len(orders) == 4
        assert all(abs(float(order) - 4.0) <= 0.05 for order in orders), line

    def test_absorbing_medium_passes_every_check(self, tmp_path, capsys):
        """On w0 < 0 the reference burst would peak before tau_r, so it peaks at the
        handover and the anchor margin is tau_2/sqrt(tau_W tau_r): all eleven pass."""
        assert main(["validate", "--set", "w0=-0.1", "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        report = out.splitlines()[:-1]
        assert err == "" and len(report) == 11 and all(line.startswith("PASS") for line in report)
        cfg = config.load_config(overrides=["w0=-0.1"])
        sol = config.reference_solution(cfg)
        assert sol.tau_D < 0.0
        tau_2 = dephasing_time(cfg.anchor_p_mbar, config.dephasing_parameters(cfg))
        margin = tau_2 / math.sqrt(sol.tau_W * config.seed_pulse(cfg).tau_r)
        assert f"anchor margin = {margin:.1f}\n" in out

    def test_unknown_corrupt_name_exits_1(self, tmp_path, capsys):
        """validate has no --corrupt option: argparse rejects any name with one line."""
        for name in ("mu0", "bogus"):
            assert main(["validate", "--corrupt", name, "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err == f"error: unrecognized arguments: --corrupt {name}\n"

    def test_overflowing_margin_passes_quietly(self, tmp_path, capsys):
        """An infinite dephasing margin is valid; validate reports it without a warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["validate", "--set", "v_e_cm_s=1e-300", "--out", str(tmp_path)])
        assert code == 0
        assert caught == []
        assert "anchor margin = inf" in capsys.readouterr().out


class TestParserReuse:
    """main() builds the argparse tree once per process; no parse leaves state in it."""

    def test_one_parser_for_every_call(self, tmp_path, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        assert main(["validate", "--out", str(tmp_path)]) == 0
        assert main(["validate", "--set", "w0=0.2", "--out", str(tmp_path)]) == 0
        # The root parser and its five subparsers, once.
        assert len(built) == 6

    def test_overrides_do_not_carry_over(self, tmp_path, capsys):
        names = ["bloch_trajectory.csv", "seed_summary.txt", "run-manifest.txt"]
        cli._build_parser.cache_clear()
        assert main(["seed-phase", "--out", str(tmp_path)]) == 0
        fresh = [capsys.readouterr()] + [(tmp_path / n).read_bytes() for n in names]
        assert main(["seed-phase", "--set", "w0=0.2", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() != fresh[0]
        assert main(["seed-phase", "--out", str(tmp_path)]) == 0
        again = [capsys.readouterr()] + [(tmp_path / n).read_bytes() for n in names]
        assert again == fresh


class TestArithmeticFailures:
    """Arithmetic that leaves the float range exits 1 at parse time, else 2."""

    def test_underflow_at_parse_time_exits_1(self, tmp_path, capsys):
        assert main(["validate", "--set", "lambda_nm=1e300", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: the configured values leave the floating-point range: float division by zero\n"
        )

    @pytest.mark.parametrize("command", ["pressure-scan", "validate"])
    def test_overflowing_radius_exits_2(self, tmp_path, capsys, command):
        assert main([command, "--set", "radius_um=1e200", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: OverflowError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["pressure-scan", "validate"])
    def test_underflowing_scan_energy_exits_2(self, tmp_path, capsys, command):
        """E_total underflows to 0 at every pressure, so its norm column is 0/0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--set", "radius_um=1e-300", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: scan column 'E_total_norm' is nan at p = 6.0 mbar\n"
        )

    @pytest.mark.parametrize("command", ["pressure-scan", "validate"])
    def test_underflowing_collision_rate_exits_2(self, tmp_path, capsys, command):
        args = ["--set", "sigma_cm2=1e-300", "--set", "ionization_fraction=1e-300"]
        assert main([command, *args, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: ZeroDivisionError: the collision rate sigma f_ion n v_e "
            "underflows to 0 at p = 6.0 mbar\n"
        )

    @pytest.mark.parametrize("command", ["pressure-scan", "validate"])
    @pytest.mark.parametrize("override, line", [
        ("anchor_p_mbar=1.7976931348623157e308",
         "tau_W is not finite: its denominator mu0 c omega mu^2 |w0| N L is 0 at N = "),
        ("sigma_cm2=1.7976931348623157e308",
         "the collision rate sigma f_ion n v_e is not finite at p = 20.0 mbar\n"),
        ("temperature_k=1e-300",
         "the collision rate sigma f_ion n v_e is not finite at p = 20.0 mbar\n"),
    ], ids=["huge-anchor-pressure", "huge-cross-section", "tiny-temperature"])
    def test_non_finite_closed_form_exits_2(self, tmp_path, capsys, command, override, line):
        """One line naming the quantity, and no RuntimeWarning (the suite makes warnings errors)."""
        assert main([command, "--set", override, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: " + line) and err.count("\n") == 1


def _without_column(text, name):
    rows = [line.split(",") for line in text.splitlines()]
    i = rows[0].index(name)
    return [row[:i] + row[i + 1:] for row in rows]


class TestInversionDensity:
    """The burst reads the medium only through n = w0 N, its sign and the column density n L."""

    COMMANDS = ("validate", "regimes", "pressure-scan")
    # The output columns that read N or w0 itself rather than n.
    OWN_COLUMNS = {"pressure_scan.csv": "N_per_cm3", **{f"regime{i}.csv": "w" for i in range(1, 5)}}

    def run_all(self, tmp_path, capsys, override):
        """Per command: exit code, stdout, stderr and every output but the manifest."""
        runs = {}
        for command in self.COMMANDS:
            out = tmp_path / f"{command}-{override}"
            code = main([command, "--set", override, "--out", str(out)])
            files = {p.name: p.read_text() for p in out.iterdir() if p.name != "run-manifest.txt"}
            runs[command] = (code, *capsys.readouterr(), files)
        return runs

    @pytest.mark.parametrize("j", [200, 460, 540, 780, 950])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_power_of_two_w0_gives_the_same_burst(self, tmp_path, capsys, sign, j):
        """w0 = +-0.1 * 2^-j calibrates N = 2^j times the default, so n = w0 N is bit-equal:
        each command exits as at +-0.1 and writes the same bytes, except the N_per_cm3
        column, the regime w column and the printed density slope."""
        base = self.run_all(tmp_path, capsys, f"w0={sign * 0.1!r}")
        scaled = self.run_all(tmp_path, capsys, f"w0={sign * 0.1 * 2.0**-j!r}")
        for command in self.COMMANDS:
            (code, out, err, files), (code_j, out_j, err_j, files_j) = base[command], scaled[command]
            assert (code_j, err_j, sorted(files_j)) == (code, err, sorted(files)), command
            if command == "pressure-scan":
                out, out_j = out.partition("\n")[2], out_j.partition("\n")[2]
            assert out_j == out, command
            for name, text in files.items():
                column = self.OWN_COLUMNS.get(name)
                if column is None:
                    assert files_j[name] == text, name
                else:
                    assert _without_column(files_j[name], column) == _without_column(text, column), name
            if "pressure_scan.csv" in files:
                n, n_j = (floats(parse_csv(f["pressure_scan.csv"]), "N_per_cm3") for f in (files, files_j))
                assert [b / a for a, b in zip(n, n_j)] == [2.0**j] * len(n)
        assert base["pressure-scan"][0] == 0

    @pytest.mark.parametrize("w0", [0.1 * 2.0**-952, 1e-300, -1e-300, 5e-324])
    def test_overflowing_density_is_named(self, tmp_path, capsys, w0):
        """Below w0 = 0.1 * 2^-950 the calibrated N ~ 1/|w0| leaves the float range at
        some pressure: each command exits 0, or exits 2 with one line naming N."""
        for command, (code, _, err, _) in self.run_all(tmp_path, capsys, f"w0={w0!r}").items():
            if code == 0:
                assert err == "", command
            else:
                assert code == 2 and err.count("\n") == 1, (command, err)
                assert err.startswith("numerical failure: the emitter density N = k (p - p0) is not finite")

    def test_huge_length_runs_quietly(self, tmp_path, capsys):
        """The column density n L is formed before the constant prefactors, so a length
        near the float maximum gives an ordinary tau_W, I0 and field: exit 0, no warning."""
        for length in ("1e300", "1e308", "1.7976931348623157e308"):
            for command, (code, _, err, _) in self.run_all(tmp_path, capsys, f"length_mm={length}").items():
                assert (code, err) == (0, ""), (length, command)


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["pressure-scan", "validate"])
    def test_out_of_range_angle_is_named(self, tmp_path, capsys, command):
        args = [command, "--set", "seed_intensity_mw_cm2=1e4", "--out", str(tmp_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: the seed tips the Bloch vector to 5.5000 rad; "
            "theta_r must lie strictly inside (0, pi)\n"
        )

    @pytest.mark.parametrize("command", ["pressure-scan", "validate", "regimes"])
    def test_huge_angle_is_named_briefly(self, tmp_path, capsys, command):
        args = [command, "--set", "tau_s_ps=1.7976931348623157e308", "--out", str(tmp_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: the seed tips the Bloch vector to 1.2026e+308 rad; "
            "theta_r must lie strictly inside (0, pi)\n"
        )

    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        assert main(["seed-phase", "--set", "bogus=1", "--out", str(tmp_path)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_names_field(self, tmp_path, capsys):
        assert main(["seed-phase", "--set", "tau_s_ps=abc", "--out", str(tmp_path)]) == 1
        assert "tau_s_ps" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["seed-phase", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_config_file_is_used(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("w0 = 0.25\n")
        assert main(["seed-phase", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
        manifest = (tmp_path / "out" / "run-manifest.txt").read_text()
        assert "w0 = 0.25" in manifest

    @pytest.mark.parametrize("override", ["out_dir=x", "fit_tol=1e-6", "fit_max_iter=5"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, override):
        """--out is the one output setting, and fit_sech2's own defaults stop the fit."""
        assert main(["fit", "--set", override, "--out", str(tmp_path), "trace.csv"]) == 1
        key = override.partition("=")[0]
        assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"


def test_sorted_unique_is_numpy_unique():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 10, 1001):
        a = rng.integers(0, max(2, n // 2), n) * 0.25  # repeats are common
        assert cli._sorted_unique(a).tolist() == np.unique(a).tolist()


_NUMPY_MA_PROBE = """
import sys
from n2sr.cli import main
code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def _fresh_python(code: str, *args: str) -> str:
    src = str(Path(n2sr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


@pytest.mark.parametrize("command", ["fit", "regimes"])
def test_fresh_process_does_not_import_numpy_ma(tmp_path, command):
    """numpy.ma costs 12-18 ms to import; np.median and np.unique pull it in."""
    if _fresh_python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    args = [command, "--out", str(tmp_path / "out")]
    if command == "fit":
        trace = synthesize_sech2_trace(1.0, ps_to_s(10.0), ps_to_s(1.0), 0.0, ps_to_s(20.0), 401)
        write_trace_csv(tmp_path / "trace.csv", trace)
        args.append(str(tmp_path / "trace.csv"))
    assert _fresh_python(_NUMPY_MA_PROBE, *args).splitlines()[-1] == "0 False"
