"""Run configuration: INI-style file plus command-line overrides.

Keys are globally unique, so sections in the file are cosmetic; a bare
key=value file works too. All values are validated by constructing the
underlying domain objects at parse time. The builders below are the one
place where the lab-unit keys become SI objects; a key with no converter
in n2sr.constants is scaled by its factor where it is read.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .bloch import bloch_angle
from .constants import (
    dipole_debye_to_si,
    mw_per_cm2_to_w_per_m2,
    ps_to_s,
    wavelength_to_angular_frequency,
)
from .pressure import (
    DensityCalibration,
    DephasingParameters,
    ScanTable,
    calibrate_density_scale,
    medium_at_pressure,
    pressure_scan,
)
from .superradiance import SuperradianceSolution, solve_after_seed
from .system import SeedPulse, TwoLevelMedium, peak_field_from_intensity


# Largest seed, profile or regime grid a config may ask for. Each grid point
# is one CSV row in every file written on that grid, so this bounds the
# arrays and the output before anything is allocated.
MAX_GRID_POINTS = 10**6


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


@dataclass(frozen=True)
class RunConfig:
    # medium
    lambda_nm: float = 391.0
    dipole_debye: float = 1.7
    w0: float = 0.1
    length_mm: float = 10.0
    radius_um: float = 50.0
    # seed, given by its peak intensity
    seed_intensity_mw_cm2: float = 10.0
    tau_s_ps: float = 0.26
    tau_r_over_tau_s: float = 3.6
    # density calibration
    anchor_p_mbar: float = 8.0
    anchor_tau_w_ps: float = 1.666
    p0_mbar: float = 2.5
    temperature_k: float = 300.0
    # dephasing
    sigma_cm2: float = 1e-15
    v_e_cm_s: float = 1e8
    ionization_fraction: float = 0.1
    # numerics
    dt_over_tau_s: float = 5e-4
    window_tau_w: float = 20.0
    profile_points: int = 2001
    regime_span_tau_w: float = 10.0
    regime_points: int = 1001
    theta_strong_over_pi: float = 0.6
    validity_threshold: float = 10.0


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_INT_FIELDS = {"profile_points", "regime_points"}


def _coerce(key: str, raw: str):
    try:
        if key in _INT_FIELDS:
            return int(raw)
        value = float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_FIELDS else "a number"
        raise ConfigError(f"config key '{key}' needs {kind}, got '{raw}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"config key '{key}' must be finite, got '{raw}'")
    return value


_SYNTAX_ERRORS = {  # what the bad line does wrong, by configparser error type
    configparser.MissingSectionHeaderError: "comes before the first [section]",
    configparser.DuplicateSectionError: "repeats a section",
    configparser.DuplicateOptionError: "repeats a key",
}


def _read_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    # A bare key=value file is read as one [run] section.
    header = "" if any(line.lstrip().startswith("[") for line in text.splitlines()) else "[run]\n"
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(header + text, source=str(path))
    except configparser.Error as exc:
        # configparser splits on "\n" alone; name its first bad line, numbered as in the file.
        lineno = (getattr(exc, "lineno", None) or exc.errors[0][0]) - header.count("\n")
        why = _SYNTAX_ERRORS.get(type(exc), "is not of the form key = value")
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigError(f"cannot parse config file {path}: line {lineno} ({line!r}) {why}") from None
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in flat:
                raise ConfigError(f"config key '{key}' given more than once")
            flat[key] = value
    return flat


def load_config(path=None, overrides: Sequence[str] = ()) -> RunConfig:
    """Build a RunConfig from an optional file and 'key=value' overrides."""
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(_read_file(Path(path)))
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"override '{item}' is not of the form key=value")
        raw[key.strip()] = value.strip()

    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}'")

    cfg = RunConfig(**{key: _coerce(key, raw_value) for key, raw_value in raw.items()})
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Construct every derived object once so bad values fail at parse time.

    A value the constructors reject, or whose arithmetic overflows or
    divides by an underflowed zero on the way, is a ConfigError.
    """
    try:
        medium_template(cfg)
        seed = seed_pulse(cfg)
        calibration(cfg)
        dephasing_parameters(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except ArithmeticError as exc:
        raise ConfigError(f"the configured values leave the floating-point range: {exc}") from None
    # SeedPulse has checked tau_s > 0. Every seed-stage time is a multiple of
    # tau_s, and a subnormal one keeps only a few significant bits.
    if ps_to_s(cfg.tau_s_ps) < sys.float_info.min:
        raise ConfigError(
            f"config key 'tau_s_ps' is {cfg.tau_s_ps!r} ps, below the smallest normal "
            f"double in seconds ({sys.float_info.min!r} s)"
        )
    for key in ("dt_over_tau_s", "window_tau_w", "regime_span_tau_w", "validity_threshold", "radius_um"):
        if not getattr(cfg, key) > 0.0:
            raise ConfigError(f"config key '{key}' must be positive")
    # seed_trajectory needs dt < tau_r; checked here on the same products,
    # so that the error names the key.
    if not dt_seconds(cfg) < seed.tau_r:
        raise ConfigError(
            f"config key 'dt_over_tau_s' is {cfg.dt_over_tau_s!r}; the seed step must be shorter "
            f"than the seed stage, tau_r_over_tau_s = {cfg.tau_r_over_tau_s!r}"
        )
    points = cfg.tau_r_over_tau_s / cfg.dt_over_tau_s + 1.0
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            f"config key 'dt_over_tau_s' asks for {points:.3g} grid points; the limit is {MAX_GRID_POINTS}"
        )
    # The seed step as well: a normal tau_s times dt_over_tau_s < 1 can be subnormal.
    if dt_seconds(cfg) < sys.float_info.min:
        raise ConfigError(
            f"config key 'dt_over_tau_s' is {cfg.dt_over_tau_s!r}, which puts the seed step at "
            f"{dt_seconds(cfg)!r} s, below the smallest normal double ({sys.float_info.min!r} s)"
        )
    for key in ("profile_points", "regime_points"):
        points = getattr(cfg, key)
        if points < 2:
            raise ConfigError(f"config key '{key}' must be at least 2")
        if points > MAX_GRID_POINTS:
            raise ConfigError(
                f"config key '{key}' asks for {points} grid points; the limit is {MAX_GRID_POINTS}"
            )
    if not 0.5 < cfg.theta_strong_over_pi < 1.0:
        raise ConfigError("config key 'theta_strong_over_pi' must lie in (0.5, 1)")


def medium_template(cfg: RunConfig) -> TwoLevelMedium:
    """Medium with everything but the density; scans fill N in per pressure."""
    return TwoLevelMedium(
        omega=wavelength_to_angular_frequency(cfg.lambda_nm * 1e-9),
        mu=dipole_debye_to_si(cfg.dipole_debye),
        N=0.0,
        L=cfg.length_mm * 1e-3,
        w0=cfg.w0,
    )


def seed_pulse(cfg: RunConfig) -> SeedPulse:
    tau_s = ps_to_s(cfg.tau_s_ps)
    return SeedPulse(
        E0=peak_field_from_intensity(mw_per_cm2_to_w_per_m2(cfg.seed_intensity_mw_cm2)),
        tau_s=tau_s,
        tau_r=cfg.tau_r_over_tau_s * tau_s,
    )


def calibration(cfg: RunConfig) -> DensityCalibration:
    return calibrate_density_scale(
        anchor_p=cfg.anchor_p_mbar,
        anchor_tau_w=ps_to_s(cfg.anchor_tau_w_ps),
        p0=cfg.p0_mbar,
        medium_template=medium_template(cfg),
    )


def dephasing_parameters(cfg: RunConfig) -> DephasingParameters:
    return DephasingParameters(
        sigma=cfg.sigma_cm2 * 1e-4,
        v_e=cfg.v_e_cm_s * 1e-2,
        ionization_fraction=cfg.ionization_fraction,
        temperature=cfg.temperature_k,
    )


def dt_seconds(cfg: RunConfig) -> float:
    return cfg.dt_over_tau_s * ps_to_s(cfg.tau_s_ps)


def reference_solution(cfg: RunConfig) -> SuperradianceSolution:
    """The burst at the anchor pressure, handed over at the seed's angle theta(tau_r)."""
    cal, seed = calibration(cfg), seed_pulse(cfg)
    medium = medium_at_pressure(cal, medium_template(cfg), cal.anchor_p)
    return solve_after_seed(medium, bloch_angle(seed, medium, seed.tau_r))


def scan_pressures(cfg: RunConfig, pressures: Sequence[float]) -> ScanTable:
    """pressure_scan over the given pressures, every other input from the config."""
    return pressure_scan(
        calibration(cfg),
        seed_pulse(cfg),
        medium_template(cfg),
        pressures,
        dephasing=dephasing_parameters(cfg),
        radius=cfg.radius_um * 1e-6,
    )


def resolved_items(cfg: RunConfig) -> list[tuple[str, object]]:
    return [(f.name, getattr(cfg, f.name)) for f in dataclasses.fields(RunConfig)]
