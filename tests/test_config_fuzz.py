"""Config and trace fuzz: every config the parser accepts, and every trace
`sr fit` is given, runs or exits with a documented code.

Each example overrides a few RunConfig keys (every key is drawn from, with
extremes down to 1e-300 and up to 1e300) and runs seed-phase, regimes,
pressure-scan and validate in-process. Each must return 0, 1, 2 or 3 with
no exception escaping and no warning, and a non-zero exit must leave exactly
one stderr line. Exit 3 must name `dephasing-window` alone: the model is not
valid for the config.

Step-count keys are drawn so that the seed grid has at most about 1e5
points when the config is accepted: tau_r_over_tau_s <= 50 with
dt_over_tau_s >= 5e-4. Smaller step sizes are drawn only as extremes,
which the 1e6-point grid cap rejects at parse time. The steps of the two
RK4 oracles are fixed by their checks, not by the config.
Grid keys stay at or below 5000 points, or just past the grid cap.

The pressure fuzz runs pressure-scan on drawn `--pressures` lists, with
an override or none: 1 to 8 pressures from 0 to 1e6 mbar or up to the
float maximum, with extremes at 1e300, the float maximum, the threshold
p0 and the next float above it. The same exit and no-warning rule applies.

The trace fuzz writes one trace with pressure metadata per example and runs
`sr fit` on it in-process: 1 to 200 rows of a flat, zero, spike, edge,
plateau, two-peak, noise or sech^2 shape, at steps of 1e-6 to 1e6 ps and
amplitudes 10**u for u in [-300, 308].
"""

import contextlib
import dataclasses
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from n2sr.cli import main
from n2sr.config import MAX_GRID_POINTS, RunConfig

COMMANDS = ("seed-phase", "regimes", "pressure-scan", "validate")

EXTREMES = (0.0, -1.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308)


def scaled(default: float, decades: float = 6.0):
    """The default times 10**u for |u| <= decades, either sign, or an extreme."""
    magnitude = st.floats(min_value=-decades, max_value=decades).map(lambda u: default * 10.0**u)
    signed = st.tuples(magnitude, st.booleans()).map(lambda ms: -ms[0] if ms[1] else ms[0])
    return st.one_of(signed, st.sampled_from(EXTREMES))


def bounded(low: float, high: float):
    return st.one_of(st.floats(min_value=low, max_value=high), st.sampled_from(EXTREMES))


def points():
    return st.one_of(st.integers(min_value=-2, max_value=5000), st.just(MAX_GRID_POINTS + 1))


_DEFAULTS = RunConfig()
VALUES = {
    f.name: scaled(getattr(_DEFAULTS, f.name))
    for f in dataclasses.fields(RunConfig)
    if isinstance(getattr(_DEFAULTS, f.name), float)
}
VALUES.update(
    w0=bounded(-1.5, 1.5),
    ionization_fraction=bounded(0.0, 1.5),
    theta_strong_over_pi=bounded(0.0, 1.2),
    tau_r_over_tau_s=bounded(0.01, 50.0),
    dt_over_tau_s=bounded(5e-4, 10.0),
    profile_points=points(),
    regime_points=points(),
)
assert set(VALUES) == {f.name for f in dataclasses.fields(RunConfig)}


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=4, unique=True))
    return {key: draw(VALUES[key]) for key in keys}


def run(command: str, overrides: dict, *extra: str) -> tuple[int, str, list[str]]:
    """Exit code, stderr and the messages of the warnings the command raised."""
    args = [a for key, value in overrides.items() for a in ("--set", f"{key}={value!r}")]
    args += extra
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, *args, "--out", out])
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(overrides())
@example({"lambda_nm": 1e300})
@example({"radius_um": 1e200})
@example({"sigma_cm2": 1e-300, "ionization_fraction": 1e-300})
@example({"seed_intensity_mw_cm2": 1e290})
@example({"seed_intensity_mw_cm2": 0.0, "tau_s_ps": 1.7976931348623157e308})
@example({"w0": 1.4998098156348833e-139})
@example({"w0": 1.7471761246767465e-162})
@example({"w0": 1.4005611425667378e-235})
@example({"anchor_tau_w_ps": 1e160})
@example({"anchor_tau_w_ps": 1e-12})
@example({"anchor_tau_w_ps": 1e-15})
@example({"anchor_tau_w_ps": 1e-20})
def test_every_command_exits_with_a_documented_code(overrides):
    for command in COMMANDS:
        code, err, caught = run(command, overrides)
        assert code in (0, 1, 2, 3), (command, code, err)
        assert err.count("\n") == (code != 0), (command, code, err)
        # The one validation failure a valid config may meet: the model is not
        # valid for it, its anchor margin being below validity_threshold.
        assert code != 3 or err == "1 check(s) failed: dephasing-window\n", (command, err)
        assert caught == [], (command, code, caught)


P0_MBAR = _DEFAULTS.p0_mbar
PRESSURE_EXTREMES = (1e300, 1.7976931348623157e308, P0_MBAR, float(np.nextafter(P0_MBAR, np.inf)))
PRESSURES = st.lists(st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=P0_MBAR, max_value=1.7976931348623157e308),
    st.sampled_from(PRESSURE_EXTREMES),
), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(PRESSURES, st.one_of(st.just({}), overrides()))
@example([1e300], {})
@example([1.7976931348623157e308], {})
@example([PRESSURE_EXTREMES[-1]], {})
@example([6.0, 1e300], {"w0": 1e-280})
@example([2.2789125728669927e+290], {"length_mm": 1e300})
def test_pressure_scan_exits_with_a_documented_code(pressures, overrides):
    code, err, caught = run("pressure-scan", overrides, "--pressures", ",".join(map(repr, pressures)))
    assert code in (0, 1, 2), (code, err)
    assert err.count("\n") == (code != 0), (code, err)
    assert caught == [], (code, caught)


SHAPES = {
    "flat": lambda x, rng: np.ones_like(x),
    "zero": lambda x, rng: np.zeros_like(x),
    "spike": lambda x, rng: (np.arange(len(x)) == len(x) // 2).astype(float),
    "edge": lambda x, rng: np.exp(-(((x - 1.0) / 0.1) ** 2)),
    "plateau": lambda x, rng: np.clip(2.0 - 8.0 * np.abs(x - 0.5), 0.0, 1.0),
    "two-peak": lambda x, rng: np.exp(-(((x - 0.3) / 0.05) ** 2)) + 0.7 * np.exp(-(((x - 0.7) / 0.05) ** 2)),
    "noise": lambda x, rng: rng.random(len(x)),
    "sech2": lambda x, rng: 1.0 / np.cosh((x - 0.5) / 0.1) ** 2,
}


@st.composite
def traces(draw):
    """(t_ps, intensity) columns of a drawn shape times 10**u."""
    n = draw(st.integers(min_value=1, max_value=200))
    step = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    amplitude = 10.0 ** draw(st.floats(min_value=-300.0, max_value=308.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    y = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](np.linspace(0.0, 1.0, n), rng)
    return (step * (np.arange(n) - n // 2)).tolist(), (amplitude * y).tolist()


GAUSSIAN_PS = np.linspace(-10.0, 10.0, 64)


def gaussian(factor):
    return GAUSSIAN_PS.tolist(), (factor * np.exp(-GAUSSIAN_PS**2)).tolist()


@settings(max_examples=60, deadline=None)
@given(traces())
@example(gaussian(1e150))
@example(gaussian(1e200))
@example(gaussian(1e300))
def test_fit_exits_with_a_documented_code(trace):
    t_ps, intensity = trace
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        path = Path(tmp) / "trace.csv"
        path.write_text("# pressure_mbar=8.0\ntime_ps,intensity_arb\n" + "".join(
            f"{t!r},{y!r}\n" for t, y in zip(t_ps, intensity)))
        code = main(["fit", str(path), "--out", str(Path(tmp) / "out")])
        fits = Path(tmp) / "out" / "fits.csv"
        written = fits.read_text() if fits.exists() else ""
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert err.count("\n") == (code != 0), (code, err)
    assert [str(w.message) for w in caught] == [], (code, err)
    assert "inf" not in written and "nan" not in written, written
