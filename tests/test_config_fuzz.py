"""Config fuzz: every config the parser accepts runs or exits with a documented code.

Each example overrides a few RunConfig keys (every key is drawn from, with
extremes down to 1e-300 and up to 1e300) and runs seed-phase, regimes,
pressure-scan and validate in-process. Each must return 0, 1, 2 or 3 with
no exception escaping, and a non-zero exit must leave exactly one stderr line.

Step-count keys are drawn so that the seed RK4 runs at most about 1e5
steps when the config is accepted: tau_r_over_tau_s <= 50 with
dt_over_tau_s >= 5e-4. Smaller step sizes are drawn only as extremes,
which the 1e6-step cap rejects at parse time. The pendulum oracle's step
is fixed by the check, not by the config.
Grid keys stay at or below 5000 points, or just past the grid cap.
"""

import contextlib
import dataclasses
import io
import tempfile
import warnings

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
    seed_e0_v_m=scaled(8.68e6),
)
assert set(VALUES) == {f.name for f in dataclasses.fields(RunConfig)}


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=4, unique=True))
    return {key: draw(VALUES[key]) for key in keys}


def run(command: str, overrides: dict) -> tuple[int, str]:
    args = [a for key, value in overrides.items() for a in ("--set", f"{key}={value!r}")]
    err = io.StringIO()
    # The CLI prints numpy RuntimeWarnings and carries on; ignoring them here
    # keeps the suite-wide warnings-as-errors setting from turning them into
    # exceptions that the real command never raises.
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([command, *args, "--out", out])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(overrides())
@example({"lambda_nm": 1e300})
@example({"radius_um": 1e200})
@example({"sigma_cm2": 1e-300, "ionization_fraction": 1e-300})
def test_every_command_exits_with_a_documented_code(overrides):
    for command in COMMANDS:
        code, err = run(command, overrides)
        assert code in (0, 1, 2, 3), (command, code, err)
        assert err.count("\n") == (code != 0), (command, code, err)
