import dataclasses
import math
import sys
from pathlib import Path

import pytest

from n2sr import config
from n2sr.config import (
    MAX_GRID_POINTS,
    ConfigError,
    RunConfig,
    _read_file,
    calibration,
    dephasing_parameters,
    dt_seconds,
    load_config,
    medium_template,
    reference_solution,
    resolved_items,
    scan_pressures,
    seed_pulse,
    validate_config,
)
from n2sr.bloch import bloch_angle
from n2sr.cli import main
from n2sr.constants import ps_to_s
from n2sr.pressure import pressure_scan
from n2sr.superradiance import time_delay


def test_defaults_are_valid():
    cfg = load_config()
    assert cfg == RunConfig()
    assert cfg.lambda_nm == 391.0
    assert cfg.w0 == 0.1
    assert cfg.seed_intensity_mw_cm2 == 10.0
    assert cfg.p0_mbar == 2.5


REFERENCE_INI = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"


def test_reference_file_holds_the_defaults():
    """configs/reference.ini says it holds the package defaults; keep it so."""
    assert load_config(REFERENCE_INI) == RunConfig()


def test_reference_file_shows_every_key_once():
    """Its header says it shows every knob: the file's keys are RunConfig's
    fields. The reader rejects a key given twice."""
    assert sorted(_read_file(REFERENCE_INI)) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_file_with_sections(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[medium]\nw0 = 0.2\n\n[seed]\ntau_s_ps = 0.3\n")
    cfg = load_config(path)
    assert cfg.w0 == 0.2
    assert cfg.tau_s_ps == 0.3


def test_flat_file_without_sections(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("w0 = 0.15\nlength_mm = 12\n")
    cfg = load_config(path)
    assert cfg.w0 == 0.15
    assert cfg.length_mm == 12.0


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("w0 = 0.2\n")
    cfg = load_config(path, overrides=["w0=0.3"])
    assert cfg.w0 == 0.3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=["nonsense=1"])


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[a]\nw0 = 0.1\n[b]\nw0 = 0.2\n")
    with pytest.raises(ConfigError, match="more than once"):
        load_config(path)


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=["w0:0.3"])


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "does-not-exist.ini")


@pytest.mark.parametrize("text, message", [
    ("[run]\nbad one\nw0 = 0.1\nalso bad\n", "line 2 ('bad one') is not of the form key = value"),
    ("w0 = 0.1\n[run]\nlambda_nm = 391\n", "line 1 ('w0 = 0.1') comes before the first [section]"),
    # A bare file is read under an added [run] line, which the line number leaves out.
    ("w0 = 0.1\nbad\n", "line 2 ('bad') is not of the form key = value"),
    ("w0 = 0.1\nw0 = 0.2\n", "line 2 ('w0 = 0.2') repeats a key"),
    ("[run]\nw0 = 0.1\n[run]\n", "line 3 ('[run]') repeats a section"),
], ids=["bad-line", "key-before-section", "bare-bad-line", "bare-repeated-key", "repeated-section"])
def test_syntax_error_is_one_line_naming_file_and_line(tmp_path, capsys, text, message):
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["seed-phase", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: cannot parse config file {path}: {message}\n"


def test_undecodable_file_named(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"w0 = 0.1 \xff\n")
    assert main(["seed-phase", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: ") and "can't decode" in err
    assert err.count("\n") == 1


class TestSeedSpecification:
    """The seed is given by its peak intensity only."""

    def test_field_amplitude_is_an_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["seed_e0_v_m=5e6"])
        assert str(err.value) == "unknown config key 'seed_e0_v_m'"

    def test_neither_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["seed_intensity_mw_cm2=none"])
        assert str(err.value) == "config key 'seed_intensity_mw_cm2' needs a number, got 'none'"

    def test_zero_field_allowed(self):
        cfg = load_config(overrides=["seed_intensity_mw_cm2=0"])
        assert seed_pulse(cfg).E0 == 0.0


class TestValueErrors:
    def test_non_numeric_names_the_field(self):
        with pytest.raises(ConfigError, match="tau_s_ps"):
            load_config(overrides=["tau_s_ps=abc"])

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            load_config(overrides=["w0=inf"])

    def test_integer_field_rejects_fraction(self):
        with pytest.raises(ConfigError, match="profile_points"):
            load_config(overrides=["profile_points=10.5"])

    @pytest.mark.parametrize(
        "override",
        [
            "w0=1.5",
            "lambda_nm=0",
            "tau_s_ps=-0.1",
            "theta_strong_over_pi=0.4",
            "theta_strong_over_pi=1.0",
            "radius_um=0",
            "ionization_fraction=0",
            "regime_points=1",
        ],
    )
    def test_out_of_range_rejected(self, override):
        with pytest.raises(ConfigError):
            load_config(overrides=[override])


def test_subnormal_seed_duration_rejected():
    """tau_s_ps is accepted down to the smallest normal double in seconds, and no further."""
    x = sys.float_info.min / 1e-12
    while ps_to_s(x) < sys.float_info.min:
        x = math.nextafter(x, math.inf)
    # A step of one tau_s keeps the seed step normal too, which the default 5e-4 does not.
    assert load_config(overrides=[f"tau_s_ps={x!r}", "dt_over_tau_s=1.0"]).tau_s_ps == x
    with pytest.raises(ConfigError, match="config key 'tau_s_ps' is .* below the smallest normal"):
        load_config(overrides=[f"tau_s_ps={math.nextafter(x, 0.0)!r}"])
    with pytest.raises(ConfigError, match="tau_s_ps"):
        load_config(overrides=["tau_s_ps=1e-300"])


def test_subnormal_seed_step_rejected():
    """dt_over_tau_s is accepted down to a normal seed step in seconds, and no further."""
    tau_s_ps = 1e-295  # tau_s = 1e-307 s, so the boundary lies near 0.22, above the step cap
    x = sys.float_info.min / ps_to_s(tau_s_ps)
    while x * ps_to_s(tau_s_ps) < sys.float_info.min:
        x = math.nextafter(x, math.inf)
    while math.nextafter(x, 0.0) * ps_to_s(tau_s_ps) >= sys.float_info.min:
        x = math.nextafter(x, 0.0)
    cfg = load_config(overrides=[f"tau_s_ps={tau_s_ps!r}", f"dt_over_tau_s={x!r}"])
    assert dt_seconds(cfg) >= sys.float_info.min
    below = math.nextafter(x, 0.0)
    with pytest.raises(ConfigError, match="config key 'dt_over_tau_s' is .* below the smallest normal"):
        load_config(overrides=[f"tau_s_ps={tau_s_ps!r}", f"dt_over_tau_s={below!r}"])


class TestStepCap:
    """The seed grid is bounded at parse time, like the other grids, before anything allocates."""

    @pytest.mark.parametrize("key, span", [("dt_over_tau_s", RunConfig().tau_r_over_tau_s)])
    def test_cap_names_the_key(self, key, span):
        load_config(overrides=[f"{key}={2.0 * span / MAX_GRID_POINTS!r}"])
        with pytest.raises(ConfigError, match=f"'{key}' asks for .* grid points; the limit is {MAX_GRID_POINTS}"):
            load_config(overrides=[f"{key}={0.5 * span / MAX_GRID_POINTS!r}"])

    def test_seed_cap_follows_tau_r(self):
        cfg = load_config(overrides=["dt_over_tau_s=1e-5"])
        assert cfg.tau_r_over_tau_s / cfg.dt_over_tau_s + 1 <= MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="dt_over_tau_s"):
            load_config(overrides=["dt_over_tau_s=1e-5", "tau_r_over_tau_s=20"])

    @pytest.mark.parametrize("step", ["3.6", "4", "1.7976931348623157e308"])
    def test_step_at_or_past_tau_r_names_the_key(self, step):
        """The seed kernel needs dt < tau_r; the parser says so, naming the key."""
        assert load_config(overrides=["dt_over_tau_s=3.5"]).dt_over_tau_s == 3.5
        with pytest.raises(ConfigError, match="config key 'dt_over_tau_s' is .* shorter than the seed stage"):
            load_config(overrides=[f"dt_over_tau_s={step}"])

    def test_absurd_step_is_rejected(self):
        # Uncapped, this would ask for a seed grid of about 4e12 nodes.
        with pytest.raises(ConfigError, match="dt_over_tau_s"):
            load_config(overrides=["dt_over_tau_s=1e-12"])


class TestGridCap:
    """Profile and regime grids are bounded at parse time, before any array exists."""

    @pytest.mark.parametrize("key", ["profile_points", "regime_points"])
    def test_cap_names_the_key(self, key):
        assert getattr(load_config(overrides=[f"{key}={MAX_GRID_POINTS}"]), key) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match=f"'{key}' asks for {MAX_GRID_POINTS + 1} grid points"):
            load_config(overrides=[f"{key}={MAX_GRID_POINTS + 1}"])

    def test_absurd_grid_is_rejected(self):
        with pytest.raises(ConfigError, match="regime_points"):
            load_config(overrides=["regime_points=10000000000000"])


def test_out_of_range_arithmetic_is_a_config_error():
    """tau_W's inversion at the anchor divides by an underflowed zero."""
    with pytest.raises(ConfigError, match="leave the floating-point range: float division by zero"):
        load_config(overrides=["lambda_nm=1e300"])


def test_reference_solution_is_the_anchor_burst(cfg, seed, anchor_medium):
    """The burst counts time from its handover: tau_D is the delay after tau_r."""
    sol = reference_solution(cfg)
    assert sol.medium == anchor_medium
    assert not hasattr(sol, "tau_r")
    assert sol.theta_r == bloch_angle(seed, anchor_medium, seed.tau_r)
    assert sol.tau_D == time_delay(anchor_medium, sol.theta_r)
    assert sol.tau_W == pytest.approx(ps_to_s(cfg.anchor_tau_w_ps), rel=1e-12)


def test_scan_pressures_uses_the_configured_radius():
    """50 um is 50.0 * 1e-6 m, not pressure_scan's 50e-6 default."""
    cfg = RunConfig()
    scan = scan_pressures(cfg, [8.0])
    direct = pressure_scan(
        calibration(cfg), seed_pulse(cfg), medium_template(cfg), [8.0],
        dephasing=dephasing_parameters(cfg), radius=cfg.radius_um * 1e-6,
    )
    assert scan.E_total.tolist() == direct.E_total.tolist()
    assert scan.theta_r == direct.theta_r


def scan_radius(cfg, monkeypatch):
    """The radius in m that scan_pressures hands to pressure_scan."""
    seen = []

    def spy(*args, radius, **kwargs):
        seen.append(radius)
        return pressure_scan(*args, radius=radius, **kwargs)

    monkeypatch.setattr(config, "pressure_scan", spy)
    scan_pressures(cfg, [8.0])
    return seen[0]


SI_VALUE = {  # the SI object a builder makes of each one-caller lab-unit key
    "length_mm": lambda cfg, monkeypatch: medium_template(cfg).L,
    "radius_um": scan_radius,
    "sigma_cm2": lambda cfg, monkeypatch: dephasing_parameters(cfg).sigma,
    "v_e_cm_s": lambda cfg, monkeypatch: dephasing_parameters(cfg).v_e,
}


@pytest.mark.parametrize(
    "key, value, expected",
    [("length_mm", 10.0, 0.01), ("radius_um", 50.0, 50e-6), ("sigma_cm2", 1.0, 1e-4), ("v_e_cm_s", 1e8, 1e6)],
)
def test_lab_unit_key_becomes_si(monkeypatch, key, value, expected):
    cfg = dataclasses.replace(RunConfig(), **{key: value})
    assert SI_VALUE[key](cfg, monkeypatch) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_derived_builders():
    cfg = RunConfig()
    assert dt_seconds(cfg) == pytest.approx(0.26e-12 * 5e-4, rel=1e-15)
    medium = medium_template(cfg)
    assert medium.N == 0.0
    assert medium.L == pytest.approx(0.01, rel=1e-15)
    pulse = seed_pulse(cfg)
    assert pulse.tau_r / pulse.tau_s == pytest.approx(3.6, rel=1e-15)


def test_resolved_items_cover_every_field():
    cfg = RunConfig()
    items = dict(resolved_items(cfg))
    assert len(items) == len(cfg.__dataclass_fields__)
    assert items["w0"] == 0.1


def test_pendulum_step_is_not_a_config_key():
    """The pendulum oracle's step belongs to the check, not to the config."""
    with pytest.raises(ConfigError, match="unknown config key 'pendulum_dt_over_tau_w'"):
        load_config(overrides=["pendulum_dt_over_tau_w=0.01"])


def test_validate_config_direct():
    validate_config(RunConfig())  # must not raise
    with pytest.raises(ConfigError):
        validate_config(RunConfig(w0=2.0))
