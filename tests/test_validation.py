import dataclasses

import pytest

from n2sr import config, validation
from n2sr.validation import run_validation_checks

EXPECTED_CHECKS = [
    "constants-product",
    "seed-field-roundtrip",
    "bloch-conservation",
    "bloch-closed-form",
    "pendulum-closed-form",
    "intensity-power-identity",
    "energy-bookkeeping",
    "sech2-width-rule",
    "calibration-roundtrip",
    "scan-scaling",
    "dephasing-window",
]


def test_all_checks_pass_with_defaults(cfg):
    results = run_validation_checks(cfg)
    assert [r.name for r in results] == EXPECTED_CHECKS
    failed = [r for r in results if not r.passed]
    assert failed == []


@pytest.mark.parametrize("name", ["hbar", "c", "eps0", "mu0", "kB"])
def test_corrupting_any_constant_is_caught(cfg, name):
    results = run_validation_checks(cfg, corrupt=name)
    by_name = {r.name: r for r in results}
    assert not by_name["constants-product"].passed


def test_unknown_corrupt_target_rejected(cfg):
    with pytest.raises(ValueError):
        run_validation_checks(cfg, corrupt="planck")


def test_details_are_informative(cfg):
    results = run_validation_checks(cfg)
    for r in results:
        assert r.detail  # every check reports a number or a statement


@pytest.mark.parametrize(
    "seed, first_call",
    [
        ({"seed_intensity_mw_cm2": None, "seed_e0_v_m": 5e6}, ("intensity_from_peak_field", 5e6)),
        ({"seed_intensity_mw_cm2": 40.0}, ("peak_field_from_intensity", 4e11)),
    ],
)
def test_seed_roundtrip_uses_configured_seed(cfg, monkeypatch, seed, first_call):
    """The round trip starts from the seed as given, field or intensity."""
    calls = []
    for name in ("intensity_from_peak_field", "peak_field_from_intensity"):
        original = getattr(validation, name)

        def spy(x, name=name, original=original):
            calls.append((name, x))
            return original(x)

        monkeypatch.setattr(validation, name, spy)
    result = validation._check_seed_roundtrip(dataclasses.replace(cfg, **seed))
    assert result.passed
    assert calls[0][0] == first_call[0]
    assert calls[0][1] == pytest.approx(first_call[1], rel=1e-15)


def check_dephasing(cfg, scan=None):
    if scan is None:
        scan = config.scan_pressures(cfg, validation.DEFAULT_SCAN_PRESSURES)
    return validation._check_dephasing(cfg, scan, config.reference_solution(cfg))


class TestDephasingWindow:
    """The runtime check tests invariants, not the default 207 ps."""

    def test_passes_off_default(self, cfg):
        for sigma in (2e-15, 3e-16):
            result = check_dephasing(dataclasses.replace(cfg, sigma_cm2=sigma))
            assert result.passed, result.detail

    def test_detail_text(self, cfg):
        result = check_dephasing(cfg)
        assert result.detail == "tau_2(20 mbar) = 207.1 ps, anchor margin = 179.4"

    def test_scan_column_must_be_dephasing_time(self, cfg):
        scan = config.scan_pressures(cfg, validation.DEFAULT_SCAN_PRESSURES)
        off = dataclasses.replace(scan, dephasing=scan.dephasing * (1.0 + 2.0**-52))
        assert not check_dephasing(cfg, off).passed
