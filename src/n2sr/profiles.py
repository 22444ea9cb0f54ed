"""Analysis of measured (or synthesized) emission time traces.

Covers the reduction steps applied to experimental forward-emission
profiles: full width at half maximum by interpolated crossings, peak delay
by parabolic interpolation, conversion of a sech^2 width to the underlying
burst parameter, and a damped Gauss-Newton fit of A sech^2((t - tau_D)/tau_W).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .constants import ps_to_s, s_to_ps
from .csvio import write_columns

__all__ = [
    "NotAPulseError",
    "TraceFormatError",
    "TemporalTrace",
    "SechFit",
    "PulseSummary",
    "SECH2_FWHM_EXACT",
    "SECH2_FWHM_NOMINAL",
    "FIT_TOL", "FIT_MAX_ITER",
    "sech2_profile",
    "synthesize_sech2_trace",
    "extract_fwhm",
    "extract_peak_delay",
    "tau_w_from_fwhm",
    "fit_sech2",
    "summarize_by_pressure",
    "read_trace_csv",
    "write_trace_csv",
    "write_summary_csv",
]

# FWHM of sech^2(t / tau_W) in units of tau_W: 2 arccosh(sqrt 2) = 1.76275...
SECH2_FWHM_EXACT = 2.0 * math.acosh(math.sqrt(2.0))
# Three-digit rule used in the measurement reduction; kept as published.
SECH2_FWHM_NOMINAL = 1.763
# fit_sech2 stops once a relative parameter step is below FIT_TOL, or gives
# up after FIT_MAX_ITER iterations.
FIT_TOL = 1e-8
FIT_MAX_ITER = 200


class NotAPulseError(ValueError):
    """The trace has no usable pulse (peak on the boundary, missing crossings...)."""


class TraceFormatError(ValueError):
    """A trace file does not conform to the expected CSV layout."""


@dataclass(frozen=True)
class TemporalTrace:
    """One measured intensity profile, in SI seconds and arbitrary units."""

    t: np.ndarray
    intensity: np.ndarray
    pressure: Optional[float] = None  # mbar, if known
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "intensity", np.asarray(self.intensity, dtype=float))
        if self.t.ndim != 1 or self.intensity.ndim != 1:
            raise ValueError("trace columns must be one-dimensional")
        if len(self.t) != len(self.intensity):
            raise ValueError("time and intensity must have equal length")
        if len(self.t) < 8:
            raise ValueError("a trace needs at least 8 samples")
        if not np.all(np.isfinite(self.t)) or not np.all(np.isfinite(self.intensity)):
            raise ValueError("trace samples must be finite")
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError("trace times must be strictly increasing")
        if np.any(self.intensity < 0.0):
            raise ValueError("intensities must be non-negative")
        if not self.intensity.max() > 0.0:
            raise ValueError("trace must contain signal")
        if self.pressure is not None and not 0.0 <= self.pressure < math.inf:
            raise ValueError(f"trace pressure must be finite and non-negative, got {self.pressure!r} mbar")
        self.t.setflags(write=False)
        self.intensity.setflags(write=False)


@dataclass(frozen=True)
class SechFit:
    """Result of the sech^2 least-squares fit."""

    amplitude: float     # arb. units, on baseline-subtracted data
    tau_D: float         # s
    tau_W: float         # s
    rms_residual: float  # arb. units
    converged: bool

    def __post_init__(self) -> None:
        if not self.tau_W > 0.0:
            raise ValueError("fitted tau_W must be positive")
        if self.converged and not self.amplitude > 0.0:
            raise ValueError("a converged fit must have positive amplitude")


@dataclass(frozen=True)
class PulseSummary:
    """Reduced observables of one trace: (pressure, FWHM, tau_W, tau_D)."""

    pressure_mbar: float
    tau_fw: float  # s
    tau_w: float   # s
    tau_d: float   # s


def sech2_profile(t, amplitude: float, tau_d: float, tau_w: float):
    """Model profile A sech^2((t - tau_D)/tau_W); scalars or arrays.

    Far from tau_D, cosh or its square overflows and the profile saturates
    to its limit 0; that overflow is expected and not reported.
    """
    x = (np.asarray(t, dtype=float) - tau_d) / tau_w
    with np.errstate(over="ignore"):
        return amplitude / np.cosh(x) ** 2


def synthesize_sech2_trace(
    amplitude: float,
    tau_d: float,
    tau_w: float,
    t_start: float,
    t_end: float,
    n: int,
    pressure: Optional[float] = None,
    label: str = "",
) -> TemporalTrace:
    """Noise-free sech^2 trace on a uniform grid, for tests and round trips."""
    t = np.linspace(t_start, t_end, n)
    return TemporalTrace(
        t=t, intensity=sech2_profile(t, amplitude, tau_d, tau_w), pressure=pressure, label=label
    )


def _peak_index(trace: TemporalTrace) -> int:
    i = int(np.argmax(trace.intensity))
    if i == 0 or i == len(trace.t) - 1:
        raise NotAPulseError(f"trace '{trace.label}' peaks on the boundary")
    return i


def extract_fwhm(trace: TemporalTrace) -> float:
    """Full width at half maximum by linear interpolation of the crossings.

    On each side of the global maximum the crossing lies between the nearest
    sample below half maximum and its neighbour towards the peak, so
    secondary structure further out cannot disturb the width.
    """
    i = _peak_index(trace)
    t, y = trace.t, trace.intensity
    half = 0.5 * y[i]
    below = y < half

    left = np.flatnonzero(below[:i])
    if not left.size:
        raise NotAPulseError(f"trace '{trace.label}' has no left half-maximum crossing")
    j = left[-1]
    t_left = t[j] + (half - y[j]) * (t[j + 1] - t[j]) / (y[j + 1] - y[j])

    right = np.flatnonzero(below[i + 1:])
    if not right.size:
        raise NotAPulseError(f"trace '{trace.label}' has no right half-maximum crossing")
    j = i + 1 + right[0]
    t_right = t[j - 1] + (half - y[j - 1]) * (t[j] - t[j - 1]) / (y[j] - y[j - 1])

    return float(t_right - t_left)


def extract_peak_delay(trace: TemporalTrace) -> float:
    """Peak time refined by a parabola through the maximum and its neighbours."""
    i = _peak_index(trace)
    t0, t1, t2 = trace.t[i - 1], trace.t[i], trace.t[i + 1]
    # Scaled exactly, by a power of two, to a peak in [0.5, 1), so the
    # difference quotients cannot overflow at any amplitude.
    y0, y1, y2 = np.ldexp(trace.intensity[i - 1:i + 2], -math.frexp(trace.intensity[i])[1])
    d1 = (y1 - y0) / (t1 - t0)
    d2 = (y2 - y1) / (t2 - t1)
    dd = (d2 - d1) / (t2 - t0)
    if dd >= 0.0:
        # Degenerate (collinear or upward-curving) triple: keep the sample time.
        return float(t1)
    return float(0.5 * (t0 + t1) - d1 / (2.0 * dd))


def tau_w_from_fwhm(tau_fw: float) -> float:
    """Burst width parameter from a measured sech^2 FWHM, tau_W = FWHM / 1.763."""
    if not tau_fw > 0.0:
        raise ValueError("FWHM must be positive")
    return tau_fw / SECH2_FWHM_NOMINAL


def _baseline(y: np.ndarray) -> float:
    """Background estimate: median of the lowest decile of samples."""
    k = max(1, len(y) // 10)
    low = np.sort(y)[:k]  # sorted, so the median is the middle; np.median imports numpy.ma
    return float(low[k // 2]) if k % 2 else float((low[k // 2 - 1] + low[k // 2]) / 2.0)


def fit_sech2(trace: TemporalTrace, init: Optional[tuple[float, float, float]] = None) -> SechFit:
    """Least-squares fit of A sech^2((t - tau_D)/tau_W) to a trace.

    The trace is baseline-subtracted (median of the lowest decile) first,
    and fitted as a copy scaled by a power of two to a peak in [0.5, 1).
    That scaling is exact, so the fit of 2^k times a trace is 2^k times its
    fit, and the normal equations neither overflow nor underflow at any
    amplitude.
    Minimization is damped Gauss-Newton with an analytic Jacobian and a
    multiplicative damping schedule: lambda starts at 1e-3, grows tenfold on
    a rejected step and shrinks tenfold on an accepted one. Each trial point
    is evaluated once, and the normal equations are built once per accepted
    point and kept across the rejected steps that follow it. Convergence is
    declared when the relative parameter step falls below FIT_TOL within
    FIT_MAX_ITER iterations; otherwise the best parameters so far
    are returned with converged=False. The tau_D step is taken relative to
    max(|tau_D|, tau_W), so a pulse centred at t = 0 can converge.

    If no initial guess is given it is built from the peak height, the
    interpolated peak delay and the measured FWHM; a trace in which no pulse
    can be located that way is reported as converged=False without fitting.
    """
    t = trace.t
    exponent = math.frexp(trace.intensity.max())[1]
    y = np.ldexp(trace.intensity, -exponent)
    y -= _baseline(y)

    if init is None:
        try:
            p = np.array([
                float(y.max()),
                extract_peak_delay(trace),
                tau_w_from_fwhm(extract_fwhm(trace)),
            ])
        except NotAPulseError:
            i = int(np.argmax(y))
            fallback = (float(y.max()), float(t[i]), float((t[-1] - t[0]) / 4.0))
            resid = y - sech2_profile(t, *fallback)
            return SechFit(math.ldexp(fallback[0], exponent), *fallback[1:],
                           rms_residual=math.ldexp(float(np.sqrt(np.mean(resid**2))), exponent),
                           converged=False)
    else:
        p = np.array(init, dtype=float)
        if not p[2] > 0.0:
            raise ValueError("initial tau_W must be positive")
        p[0] = math.ldexp(p[0], -exponent)

    def evaluate(params):
        """The residual at params, with the x = (t - tau_D)/tau_W and cosh(x)^2
        it came from. Far from tau_D cosh(x)^2 overflows to inf and the model
        to its limit 0."""
        a, tau_d, tau_w = params
        x = (t - tau_d) / tau_w
        with np.errstate(over="ignore"):
            c2 = np.cosh(x) ** 2
        return y - a / c2, x, c2

    def normal_equations(params, r, x, c2):
        """J^T J, its diagonal and J^T r at params, from evaluate(params)."""
        s2 = 1.0 / c2
        u = 2.0 * params[0] * s2 * np.tanh(x)  # shared by the tau_D and tau_W columns
        jac = np.column_stack((s2, u / params[2], u * x / params[2]))
        jtj = jac.T @ jac
        return jtj, np.diag(np.diag(jtj)), jac.T @ r

    r, x, c2 = evaluate(p)
    jtj, diag, g = normal_equations(p, r, x, c2)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(FIT_MAX_ITER):
        try:
            step = np.linalg.solve(jtj + lam * diag, g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = p + step
        if not trial[2] > 0.0 or not np.all(np.isfinite(trial)):
            lam *= 10.0
            continue
        r_trial, x, c2 = evaluate(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            scale = np.abs(trial)
            scale[1] = max(scale[1], trial[2])  # tau_D can sit at 0: measure it in widths
            rel_step = float(np.max(np.abs(step) / np.maximum(scale, 1e-300)))
            p, r, cost = trial, r_trial, cost_trial
            lam = max(lam * 0.1, 1e-15)
            if rel_step < FIT_TOL:
                converged = True
                break
            # Built once per accepted point, kept across the rejected steps after it.
            jtj, diag, g = normal_equations(p, r, x, c2)
        else:
            lam *= 10.0
            if lam > 1e15:
                break

    if p[0] <= 0.0:
        converged = False
    return SechFit(
        amplitude=math.ldexp(p[0], exponent),
        tau_D=float(p[1]),
        tau_W=float(p[2]),
        rms_residual=math.ldexp(float(np.sqrt(np.mean(r**2))), exponent),
        converged=converged,
    )


def summarize_by_pressure(traces: Sequence[TemporalTrace]) -> list[PulseSummary]:
    """Reduce traces to (pressure, FWHM, tau_W, tau_D) rows sorted by pressure."""
    rows = []
    for trace in traces:
        if trace.pressure is None:
            raise ValueError(f"trace '{trace.label}' has no pressure metadata")
        fwhm = extract_fwhm(trace)
        rows.append(
            PulseSummary(
                pressure_mbar=trace.pressure,
                tau_fw=fwhm,
                tau_w=tau_w_from_fwhm(fwhm),
                tau_d=extract_peak_delay(trace),
            )
        )
    return sorted(rows, key=lambda row: row.pressure_mbar)


_PRESSURE_RE = re.compile(r"^#\s*pressure_mbar\s*=\s*(\S+)\s*$")
TRACE_CSV_HEADER = "time_ps,intensity_arb"


def _comment(path: Path, lineno: int, line: str, pressure: Optional[float]) -> Optional[float]:
    """The pressure after a '#' line: its pressure_mbar value, if it gives one."""
    m = _PRESSURE_RE.match(line)
    if not m:
        return pressure
    try:
        return float(m.group(1))
    except ValueError:
        raise TraceFormatError(f"{path}:{lineno}: unreadable pressure_mbar value") from None


def _walk_rows(path: Path, lines: list[str], start: int, pressure: Optional[float]):
    """Parse lines[start:] line by line, skipping blank and '#' lines.

    The slow path of read_trace_csv: it names the line of the first bad row,
    and it reads bodies that interleave comments or blank lines with data.
    Returns the pressure and the flat [t_ps, intensity, ...] values.
    """
    values = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            pressure = _comment(path, lineno, line, pressure)
            continue
        cols = line.split(",")
        if len(cols) != 2:
            raise TraceFormatError(f"{path}:{lineno}: expected two comma-separated fields")
        try:
            values.extend(map(float, cols))
        except ValueError:
            raise TraceFormatError(f"{path}:{lineno}: unreadable numeric field") from None
    return pressure, np.array(values, dtype=float)


def read_trace_csv(path) -> TemporalTrace:
    """Read a trace file: optional '# pressure_mbar=...' comments, then a
    'time_ps,intensity_arb' header and rows. Times are converted to seconds.

    Blank and '#' lines may appear anywhere. The rows are parsed by numpy's
    C text reader; only a body it rejects is walked line by line, to read
    interleaved comments, to read the tokens that float() accepts and numpy
    does not (such as '1_0'), or to name the bad line. A body holding a '#'
    goes to the walk without the reader's attempt. The accepted syntax is
    therefore float()'s.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    lines = text.split("\n")
    pressure = None
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            pressure = _comment(path, i + 1, line, pressure)
            continue
        if [c.strip() for c in line.split(",")] != TRACE_CSV_HEADER.split(","):
            raise TraceFormatError(f"{path}:{i + 1}: expected header '{TRACE_CSV_HEADER}'")
        break
    else:
        raise TraceFormatError(f"{path}: missing '{TRACE_CSV_HEADER}' header")

    body = lines[i + 1:]
    body_start = sum(map(len, lines[:i + 1])) + i + 1
    rows = np.empty((0, 2))
    try:
        if text.find("#", body_start) >= 0:
            raise ValueError("a '#' in the body, which the reader rejects")
        if any(body):  # on a body of empty lines loadtxt warns instead of raising
            rows = np.loadtxt(body, dtype=float, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] != 2:
            raise ValueError("rows without exactly two fields")
    except ValueError:
        pressure, values = _walk_rows(path, lines, i + 1, pressure)
        rows = values.reshape(-1, 2)
    if not rows.size:
        raise TraceFormatError(f"{path}: no data rows")
    try:
        return TemporalTrace(
            t=ps_to_s(rows[:, 0]), intensity=rows[:, 1].copy(), pressure=pressure,
            label=path.stem,
        )
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def write_trace_csv(path, trace: TemporalTrace) -> None:
    header = TRACE_CSV_HEADER
    if trace.pressure is not None:
        header = f"# pressure_mbar={float(trace.pressure)!r}\n{header}"
    write_columns(path, header, [s_to_ps(trace.t), trace.intensity])


def write_summary_csv(path, rows: Sequence[PulseSummary]) -> None:
    columns = np.array(
        [(r.pressure_mbar, r.tau_fw, r.tau_w, r.tau_d) for r in rows], dtype=float
    ).reshape(-1, 4).T
    write_columns(
        path, "p_mbar,tau_FW_ps,tau_W_ps,tau_D_ps",
        [columns[0], s_to_ps(columns[1]), s_to_ps(columns[2]), s_to_ps(columns[3])],
    )
