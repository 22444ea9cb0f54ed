"""Trace analysis: width/delay extraction, sech^2 fitting, trace CSV I/O."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sr import profiles
from n2sr.constants import ps_to_s
from n2sr.profiles import (
    SECH2_FWHM_EXACT,
    SECH2_FWHM_NOMINAL,
    NotAPulseError,
    SechFit,
    TemporalTrace,
    TraceFormatError,
    extract_fwhm,
    extract_peak_delay,
    fit_sech2,
    read_trace_csv,
    sech2_profile,
    summarize_by_pressure,
    synthesize_sech2_trace,
    tau_w_from_fwhm,
    write_trace_csv,
)


def gaussian_trace(fwhm, center, t_start, t_end, n, pressure=None):
    t = np.linspace(t_start, t_end, n)
    intensity = np.exp(-4.0 * math.log(2.0) * ((t - center) / fwhm) ** 2)
    return TemporalTrace(t=t, intensity=intensity, pressure=pressure)


def test_baseline_is_the_numpy_median_of_the_lowest_decile():
    """Odd and even deciles, ties included, against np.median as the reference."""
    rng = np.random.default_rng(7)
    for n in [*range(1, 40), 3001, 3010]:
        y = rng.normal(size=n)
        if n > 5:
            y[: n // 3] = y[0]  # a run of equal samples in the decile
        k = max(1, n // 10)
        assert profiles._baseline(y) == float(np.median(np.sort(y)[:k]))


def test_width_constants():
    assert SECH2_FWHM_EXACT == 2.0 * math.acosh(math.sqrt(2.0))
    assert SECH2_FWHM_EXACT == pytest.approx(1.7627471740390861, rel=1e-15)
    assert SECH2_FWHM_NOMINAL == 1.763


class TestTemporalTrace:
    def test_too_short_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            TemporalTrace(t=t, intensity=np.ones(5))

    def test_unordered_time_rejected(self):
        t = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValueError):
            TemporalTrace(t=t, intensity=np.ones(8))

    def test_negative_intensity_rejected(self):
        t = np.linspace(0.0, 1.0, 8)
        y = np.ones(8)
        y[3] = -0.1
        with pytest.raises(ValueError):
            TemporalTrace(t=t, intensity=y)

    def test_flat_zero_rejected(self):
        t = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            TemporalTrace(t=t, intensity=np.zeros(8))

    def test_non_finite_rejected(self):
        t = np.linspace(0.0, 1.0, 8)
        y = np.ones(8)
        y[2] = np.nan
        with pytest.raises(ValueError):
            TemporalTrace(t=t, intensity=y)

    def test_arrays_locked(self):
        tr = synthesize_sech2_trace(1.0, 0.0, 1e-12, -5e-12, 5e-12, 64)
        with pytest.raises(ValueError):
            tr.intensity[0] = 2.0


class TestExtractFwhm:
    def test_sech2_width(self):
        # 1 ps width parameter sampled at 1 fs
        tr = synthesize_sech2_trace(1.0, 0.0, ps_to_s(1.0), ps_to_s(-6.0), ps_to_s(6.0), 12001)
        fwhm = extract_fwhm(tr)
        assert fwhm == pytest.approx(ps_to_s(1.7627), rel=1e-3)
        assert fwhm == pytest.approx(SECH2_FWHM_EXACT * ps_to_s(1.0), rel=1e-4)

    def test_gaussian_width(self):
        tr = gaussian_trace(ps_to_s(2.0), 0.0, ps_to_s(-6.0), ps_to_s(6.0), 9001)
        assert extract_fwhm(tr) == pytest.approx(ps_to_s(2.0), rel=1e-3)

    def test_monotone_ramp_rejected(self):
        t = np.linspace(0.0, 1.0, 32)
        with pytest.raises(NotAPulseError):
            extract_fwhm(TemporalTrace(t=t, intensity=t + 0.1))

    def test_edge_peak_rejected(self):
        t = np.linspace(0.0, 1.0, 32)
        with pytest.raises(NotAPulseError):
            extract_fwhm(TemporalTrace(t=t, intensity=1.0 - t + 0.1))

    @settings(max_examples=25, deadline=None)
    @given(
        tau_w_ps=st.floats(min_value=0.3, max_value=4.0),
        tau_d_ps=st.floats(min_value=-3.0, max_value=3.0),
        amp=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_width_independent_of_amplitude_and_delay(self, tau_w_ps, tau_d_ps, amp):
        tau_w = ps_to_s(tau_w_ps)
        tau_d = ps_to_s(tau_d_ps)
        # sample spacing tau_W/100 over +-5 tau_W
        tr = synthesize_sech2_trace(amp, tau_d, tau_w, tau_d - 5 * tau_w, tau_d + 5 * tau_w, 1001)
        assert extract_fwhm(tr) == pytest.approx(SECH2_FWHM_EXACT * tau_w, rel=2e-3)


def fwhm_by_walk(trace):
    """extract_fwhm as a sample-by-sample walk outward from the peak."""
    t, y = trace.t, trace.intensity
    i = int(np.argmax(y))
    if i == 0 or i == len(t) - 1:
        raise NotAPulseError("peak on the boundary")
    half = 0.5 * y[i]
    j = i
    while j > 0 and y[j] >= half:
        j -= 1
    if y[j] >= half:
        raise NotAPulseError("no left crossing")
    t_left = t[j] + (half - y[j]) * (t[j + 1] - t[j]) / (y[j + 1] - y[j])
    j = i
    while j < len(y) - 1 and y[j] >= half:
        j += 1
    if y[j] >= half:
        raise NotAPulseError("no right crossing")
    t_right = t[j - 1] + (half - y[j - 1]) * (t[j] - t[j - 1]) / (y[j] - y[j - 1])
    return float(t_right - t_left)


def padded(*values):
    """A trace on t = 0, 1, ... with `values` between two zeros on each side."""
    y = np.array([0.0, 0.0, *values, 0.0, 0.0])
    return TemporalTrace(t=np.arange(y.size, dtype=float), intensity=y)


class TestFwhmCrossings:
    # Levels from a small set, so exact ties with half maximum are common.
    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=8, max_size=40),
        levels=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0]), min_size=8, max_size=40),
    )
    def test_matches_walk(self, steps, levels):
        n = min(len(steps), len(levels))
        y = np.array(levels[:n])
        if not y.max() > 0.0:
            return
        trace = TemporalTrace(t=np.cumsum(steps[:n]), intensity=y)
        try:
            expected = fwhm_by_walk(trace)
        except NotAPulseError:
            with pytest.raises(NotAPulseError):
                extract_fwhm(trace)
            return
        assert extract_fwhm(trace) == expected

    def test_sample_exactly_at_half_is_not_a_crossing(self):
        # The crossings fall on the half-maximum samples themselves, at t = 3 and 5.
        assert extract_fwhm(padded(0.2, 0.5, 1.0, 0.5, 0.2)) == 2.0

    def test_no_left_crossing(self):
        trace = TemporalTrace(t=np.arange(8.0), intensity=[0.6, 0.7, 1.0, 0.3, 0.1, 0.0, 0.0, 0.0])
        with pytest.raises(NotAPulseError, match="no left half-maximum crossing"):
            extract_fwhm(trace)

    def test_no_right_crossing(self):
        trace = TemporalTrace(t=np.arange(8.0), intensity=[0.0, 0.0, 0.0, 0.1, 0.3, 1.0, 0.7, 0.6])
        with pytest.raises(NotAPulseError, match="no right half-maximum crossing"):
            extract_fwhm(trace)

    def test_secondary_peak_beyond_first_crossing_ignored(self):
        # Crossings at t = 2.5 and 3.5; the 0.9 bump at t = 5 lies beyond them.
        assert extract_fwhm(padded(0.0, 1.0, 0.0, 0.9, 0.0)) == 1.0


class TestPeakDelay:
    def test_sech2_delay(self):
        tr = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 1001)
        spacing = tr.t[1] - tr.t[0]
        assert abs(extract_peak_delay(tr) - ps_to_s(5.0)) <= spacing

    def test_gaussian_delay(self):
        tr = gaussian_trace(ps_to_s(2.0), ps_to_s(3.0), ps_to_s(-4.0), ps_to_s(10.0), 701)
        spacing = tr.t[1] - tr.t[0]
        assert abs(extract_peak_delay(tr) - ps_to_s(3.0)) <= spacing

    def test_translation_equivariance(self):
        base = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 501)
        shift = ps_to_s(2.5)
        moved = TemporalTrace(t=base.t + shift, intensity=base.intensity)
        assert extract_peak_delay(moved) - extract_peak_delay(base) == pytest.approx(
            shift, rel=1e-9
        )

    def test_edge_peak_rejected(self):
        t = np.linspace(0.0, 1.0, 16)
        with pytest.raises(NotAPulseError):
            extract_peak_delay(TemporalTrace(t=t, intensity=t + 0.1))


class TestWidthRule:
    def test_published_anchor_row(self):
        assert tau_w_from_fwhm(ps_to_s(2.937)) == pytest.approx(ps_to_s(1.666), abs=ps_to_s(0.001))

    def test_lowest_pressure_row(self):
        assert tau_w_from_fwhm(ps_to_s(3.995)) == pytest.approx(ps_to_s(2.266), abs=ps_to_s(0.001))

    def test_unit_ratio(self):
        assert tau_w_from_fwhm(1.763) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tau_w_from_fwhm(0.0)


class TestFit:
    def test_noiseless_recovery(self):
        a, tau_d, tau_w = 1.0, ps_to_s(5.0), ps_to_s(1.666)
        half = 8.0 * SECH2_FWHM_EXACT * tau_w
        tr = synthesize_sech2_trace(a, tau_d, tau_w, tau_d - half, tau_d + half, 4001)
        fit = fit_sech2(tr)
        assert fit.converged
        assert fit.amplitude == pytest.approx(a, rel=1e-6)
        assert fit.tau_D == pytest.approx(tau_d, rel=1e-6)
        assert fit.tau_W == pytest.approx(tau_w, rel=1e-6)
        assert fit.rms_residual < 1e-9

    def test_noisy_recovery_fixed_seed(self):
        a, tau_d, tau_w = 1.0, ps_to_s(5.0), ps_to_s(1.666)
        half = 8.0 * SECH2_FWHM_EXACT * tau_w
        clean = synthesize_sech2_trace(a, tau_d, tau_w, tau_d - half, tau_d + half, 2001)
        rng = np.random.default_rng(1234)
        noisy = TemporalTrace(
            t=clean.t,
            intensity=np.clip(clean.intensity + 0.01 * rng.uniform(-1.0, 1.0, clean.t.size), 0.0, None),
        )
        fit = fit_sech2(noisy)
        assert fit.converged
        assert fit.amplitude == pytest.approx(a, rel=0.02)
        assert fit.tau_D == pytest.approx(tau_d, rel=0.02)
        assert fit.tau_W == pytest.approx(tau_w, rel=0.02)

    def test_flat_trace_does_not_converge(self):
        t = np.linspace(0.0, 1e-11, 64)
        fit = fit_sech2(TemporalTrace(t=t, intensity=np.full(64, 1e-9)))
        assert not fit.converged

    @pytest.mark.parametrize(
        "factor",
        [4.0, 2.0**500, 2.0**-900, 1e150, 1e-300, 1e300],
        ids=["4", "2**500", "2**-900", "1e150", "1e-300", "1e300"],
    )
    def test_scale_equivariance(self, factor):
        """Over the whole float range: bit for bit for a power of two, to 1e-9 otherwise."""
        tr = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 501)
        f1 = fit_sech2(tr)
        f = fit_sech2(TemporalTrace(t=tr.t, intensity=factor * tr.intensity))
        assert f.converged and f1.converged
        if math.frexp(factor)[0] == 0.5:
            assert (f.amplitude, f.tau_D, f.tau_W, f.rms_residual) == (
                factor * f1.amplitude, f1.tau_D, f1.tau_W, factor * f1.rms_residual
            )
        else:
            assert f.amplitude == pytest.approx(factor * f1.amplitude, rel=1e-9)
            assert f.tau_D == pytest.approx(f1.tau_D, rel=1e-9)
            assert f.tau_W == pytest.approx(f1.tau_W, rel=1e-9)

    def test_translation_equivariance(self):
        tr = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 501)
        shift = ps_to_s(3.0)
        moved = TemporalTrace(t=tr.t + shift, intensity=tr.intensity)
        f1, f2 = fit_sech2(tr), fit_sech2(moved)
        assert f2.tau_D - f1.tau_D == pytest.approx(shift, rel=1e-9)
        assert f2.tau_W == pytest.approx(f1.tau_W, rel=1e-9)

    def test_deterministic(self):
        tr = synthesize_sech2_trace(2.0, ps_to_s(4.0), ps_to_s(0.8), 0.0, ps_to_s(9.0), 301)
        f1, f2 = fit_sech2(tr), fit_sech2(tr)
        assert (f1.amplitude, f1.tau_D, f1.tau_W, f1.rms_residual) == (
            f2.amplitude,
            f2.tau_D,
            f2.tau_W,
            f2.rms_residual,
        )

    def test_explicit_init(self):
        a, tau_d, tau_w = 1.0, ps_to_s(5.0), ps_to_s(1.0)
        tr = synthesize_sech2_trace(a, tau_d, tau_w, 0.0, ps_to_s(10.0), 501)
        fit = fit_sech2(tr, init=(0.5, ps_to_s(4.0), ps_to_s(2.0)))
        assert fit.converged
        assert fit.tau_W == pytest.approx(tau_w, rel=1e-5)

    def test_centred_pulse_converges(self):
        """At tau_D = 0 the tau_D step is measured in widths, not against |tau_D| ~ 0."""
        tau_w = ps_to_s(1.0)
        fit = fit_sech2(synthesize_sech2_trace(1.0, 0.0, tau_w, -10.0 * tau_w, 10.0 * tau_w, 2001))
        assert fit.converged
        assert fit.tau_W == pytest.approx(tau_w, rel=1e-6)
        assert abs(fit.tau_D) < 1e-9 * tau_w

    def test_wide_trace_fits_without_warnings(self):
        """Over +-800 tau_W cosh overflows in the tails: expected, and not reported."""
        tau_w = 1e-12
        tr = synthesize_sech2_trace(1.0, 0.0, tau_w, -800.0 * tau_w, 800.0 * tau_w, 3001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_sech2(tr)
        assert fit.converged
        assert fit.tau_W == pytest.approx(tau_w, rel=1e-6)

    def test_fit_invariants(self):
        with pytest.raises(ValueError):
            SechFit(amplitude=1.0, tau_D=0.0, tau_W=0.0, rms_residual=0.0, converged=False)
        with pytest.raises(ValueError):
            SechFit(amplitude=0.0, tau_D=0.0, tau_W=1e-12, rms_residual=0.0, converged=True)


class TestSummaries:
    def test_single_trace(self):
        tr = synthesize_sech2_trace(
            1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 501, pressure=8.0
        )
        rows = summarize_by_pressure([tr])
        assert len(rows) == 1
        assert rows[0].pressure_mbar == 8.0
        assert rows[0].tau_w == pytest.approx(ps_to_s(1.0), rel=2e-3)

    def test_sorted_by_pressure(self):
        traces = [
            synthesize_sech2_trace(
                1.0, ps_to_s(4.0), ps_to_s(1.0), 0.0, ps_to_s(8.0), 301, pressure=p
            )
            for p in (12.0, 6.0, 9.0)
        ]
        rows = summarize_by_pressure(traces)
        assert [r.pressure_mbar for r in rows] == [6.0, 9.0, 12.0]

    def test_missing_pressure_rejected(self):
        tr = synthesize_sech2_trace(1.0, ps_to_s(4.0), ps_to_s(1.0), 0.0, ps_to_s(8.0), 301)
        with pytest.raises(ValueError):
            summarize_by_pressure([tr])


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        tr = synthesize_sech2_trace(
            1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 64, pressure=8.0, label="x"
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, tr)
        back = read_trace_csv(path)
        assert back.pressure == 8.0
        # t goes through an s -> ps -> s conversion, so only the intensity
        # column survives bitwise.
        np.testing.assert_allclose(back.t, tr.t, rtol=1e-12, atol=0.0)
        assert np.array_equal(back.intensity, tr.intensity)

    def test_no_pressure_comment(self, tmp_path):
        tr = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 64)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, tr)
        assert read_trace_csv(path).pressure is None

    def test_malformed_field_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_ps,intensity_arb\n0.0,1.0\n0.5,oops\n")
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert "bad.csv" in str(err.value)
        assert ":3" in str(err.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n")
        with pytest.raises(TraceFormatError):
            read_trace_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_trace_csv(path)

    ROWS = "".join(f"{0.5 * i!r},{1.0 + 0.25 * i!r}\n" for i in range(10))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# pressure_mbar=abc\ntime_ps,intensity_arb\n" + ROWS,
             ":1: unreadable pressure_mbar value"),
            ("time_ps,intensity_arb\n" + ROWS + "# pressure_mbar=1,5\n",
             ":12: unreadable pressure_mbar value"),
            ("# note\n\nt,y\n" + ROWS, ":3: expected header 'time_ps,intensity_arb'"),
            ("time_ps,intensity_arb\n0.0,1.0\n1.0,2.0,3.0\n4.0\n" + ROWS,
             ":3: expected two comma-separated fields"),
            ("time_ps,intensity_arb\n" + ROWS + "5.0\n", ":12: expected two comma-separated fields"),
            ("time_ps,intensity_arb\n" + "1.0,2.0,3.0\n" * 10, ":2: expected two comma-separated fields"),
            ("time_ps,intensity_arb\n" + "1.0\n" * 10, ":2: expected two comma-separated fields"),
            ("time_ps,intensity_arb\n" + ROWS + "\n# c\n9.0,x\n", ":14: unreadable numeric field"),
            ("# pressure_mbar=8\n\n# only comments\n", ": missing 'time_ps,intensity_arb' header"),
            ("time_ps,intensity_arb\n\n# no rows\n", ": no data rows"),
            ("time_ps,intensity_arb\n0.0,1.0\n1.0,2.0\n", ": a trace needs at least 8 samples"),
            ("time_ps,intensity_arb\n" + ROWS + "1.0,nan\n", ": trace samples must be finite"),
            ("# pressure_mbar=nan\ntime_ps,intensity_arb\n" + ROWS,
             ": trace pressure must be finite and non-negative, got nan mbar"),
            ("# pressure_mbar=inf\ntime_ps,intensity_arb\n" + ROWS,
             ": trace pressure must be finite and non-negative, got inf mbar"),
            ("# pressure_mbar=-5\ntime_ps,intensity_arb\n" + ROWS,
             ": trace pressure must be finite and non-negative, got -5.0 mbar"),
        ],
    )
    def test_error_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert str(err.value) == f"{path}{message}"

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# pressure_mbar=8\xff\ntime_ps,intensity_arb\n" + self.ROWS.encode())
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")

    def test_comments_and_blank_lines_anywhere(self, tmp_path):
        tr = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 64, 8.0)
        clean = tmp_path / "clean.csv"
        write_trace_csv(clean, tr)
        lines = clean.read_text().splitlines()
        lines[30:30] = ["", "# mid-file note", "   ", "# pressure_mbar = 9.5"]
        messy = tmp_path / "messy.csv"
        messy.write_text("\n\n" + "\n".join(lines) + "\n\n")
        a, b = read_trace_csv(clean), read_trace_csv(messy)
        assert (a.pressure, b.pressure) == (8.0, 9.5)  # the last pressure line wins
        assert np.array_equal(a.t, b.t) and np.array_equal(a.intensity, b.intensity)

    def test_comment_in_body_skips_the_bulk_reader(self, tmp_path, monkeypatch):
        """A '#' in the body goes straight to the line walk; one above the header does not."""
        tr = synthesize_sech2_trace(1.0, ps_to_s(5.0), ps_to_s(1.0), 0.0, ps_to_s(10.0), 64, 8.0)
        clean = tmp_path / "clean.csv"
        write_trace_csv(clean, tr)  # '# pressure_mbar=8.0' above the header
        lines = clean.read_text().splitlines()
        lines[30:30] = ["# note"]
        noted = tmp_path / "noted.csv"
        noted.write_text("\n".join(lines) + "\n")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        a = read_trace_csv(clean)
        assert len(calls) == 1
        b = read_trace_csv(noted)
        assert len(calls) == 1
        assert a.pressure == b.pressure == 8.0
        assert np.array_equal(a.t, b.t) and np.array_equal(a.intensity, b.intensity)

    def test_bulk_parse_matches_line_loop(self, tmp_path):
        """Bit for bit against a plain per-line float() parse, spaces and CRLF included."""
        rng = np.random.default_rng(5)
        t_ps = np.sort(rng.uniform(-50.0, 50.0, 3001))
        y = rng.standard_normal(3001) ** 2 * 10.0 ** rng.integers(-20, 20, 3001)
        body = "".join(f" {a!r} ,{b!r}\r\n" for a, b in zip(t_ps.tolist(), y.tolist()))
        path = tmp_path / "trace.csv"
        path.write_bytes(("time_ps, intensity_arb\r\n" + body).encode())
        back = read_trace_csv(path)
        assert np.array_equal(back.t, np.array([ps_to_s(float(a)) for a in t_ps.tolist()]))
        assert np.array_equal(back.intensity, y)
        assert back.t.flags.c_contiguous and back.intensity.flags.c_contiguous


_PRESSURE_LINE = re.compile(r"^#\s*pressure_mbar\s*=\s*(\S+)\s*$")
_PADDING = st.sampled_from(["", " ", "\t", " \t  "])
_TOKENS = ["1_0", "\u0661", "nan", "-iNF", "1e500", "1e-400", "oops"]
_EXTRA_LINES = ["", "   ", "\t", "# note", "# pressure_mbar=9.5", "1.5", "1.5,2.0,3.0", "1.5,2.0 # x"]


@st.composite
def trace_files(draw):
    """A header and a body of padded rows, with special tokens, blank, '#',
    1-field and 3-field lines anywhere, and LF or CRLF line ends."""
    size = draw(st.sampled_from([0, 3, 8, 16, 24]))
    intensities = draw(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=size, max_size=size))
    rows = [[repr(0.25 * i - 3.0), repr(y)] for i, y in enumerate(intensities)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        rows[row][col] = draw(st.sampled_from(_TOKENS))
    lines = [f"{draw(_PADDING)}{a}{draw(_PADDING)},{draw(_PADDING)}{b}{draw(_PADDING)}" for a, b in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(["time_ps,intensity_arb", *lines])
    return text + eol if draw(st.booleans()) else text


def read_line_by_line(path):
    """Reference reader: every body line on its own, every field through float()."""
    lines = path.read_text().split("\n")
    assert lines[0] == "time_ps,intensity_arb"
    pressure, t_ps, intensity = None, [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _PRESSURE_LINE.match(line)
            pressure = float(m.group(1)) if m else pressure
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise TraceFormatError(f"{path}:{lineno}: expected two comma-separated fields")
        try:
            t, y = float(fields[0]), float(fields[1])
        except ValueError:
            raise TraceFormatError(f"{path}:{lineno}: unreadable numeric field") from None
        t_ps.append(t)
        intensity.append(y)
    if not t_ps:
        raise TraceFormatError(f"{path}: no data rows")
    try:
        return TemporalTrace(t=[ps_to_s(t) for t in t_ps], intensity=intensity, pressure=pressure)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


@given(text=trace_files())
@settings(max_examples=300)
def test_reader_matches_line_by_line_float(tmp_path_factory, text):
    """read_trace_csv returns the reference's bits, or fails with its message."""
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes(text.encode())
    try:
        want = read_line_by_line(path)
    except TraceFormatError as exc:
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert str(err.value) == str(exc)
    else:
        got = read_trace_csv(path)
        assert got.t.tobytes() == want.t.tobytes()
        assert got.intensity.tobytes() == want.intensity.tobytes()
        assert got.pressure == want.pressure


@given(
    amp=st.floats(min_value=0.1, max_value=10.0),
    x=st.floats(min_value=-5.0, max_value=5.0),
)
def test_sech2_profile_even(amp, x):
    tau_w = ps_to_s(1.0)
    left = sech2_profile(-x * tau_w, amp, 0.0, tau_w)
    right = sech2_profile(x * tau_w, amp, 0.0, tau_w)
    assert left == pytest.approx(right, rel=1e-12)
    assert right <= amp
