import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from n2sr.constants import (
    CONSTANTS,
    PhysicalConstants,
    cm2_to_m2,
    cm_per_s_to_m_per_s,
    dipole_debye_to_si,
    mbar_to_pascal,
    mm_to_m,
    mw_per_cm2_to_w_per_m2,
    per_m3_to_per_cm3,
    pressure_to_number_density,
    ps_to_s,
    s_to_ps,
    um_to_m,
    w_per_m2_to_w_per_cm2,
    wavelength_to_angular_frequency,
)


def test_codata_values():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.c == 2.99792458e8
    assert CONSTANTS.eps0 == 8.8541878128e-12
    assert CONSTANTS.mu0 == 1.25663706212e-6
    assert CONSTANTS.kB == 1.380649e-23
    assert CONSTANTS.debye == 3.33564e-30


def test_vacuum_identity():
    # mu0 eps0 c^2 = 1 ties the three electromagnetic constants together
    assert CONSTANTS.mu0 * CONSTANTS.eps0 * CONSTANTS.c**2 == pytest.approx(1.0, abs=1e-9)


def test_inconsistent_constants_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants(
            hbar=CONSTANTS.hbar,
            c=CONSTANTS.c * 1.001,
            eps0=CONSTANTS.eps0,
            mu0=CONSTANTS.mu0,
            kB=CONSTANTS.kB,
            debye=CONSTANTS.debye,
        )


@pytest.mark.parametrize("field", ["hbar", "c", "eps0", "mu0", "kB", "debye"])
def test_nonpositive_constants_rejected(field):
    values = {
        "hbar": CONSTANTS.hbar,
        "c": CONSTANTS.c,
        "eps0": CONSTANTS.eps0,
        "mu0": CONSTANTS.mu0,
        "kB": CONSTANTS.kB,
        "debye": CONSTANTS.debye,
    }
    values[field] = 0.0
    with pytest.raises(ValueError):
        PhysicalConstants(**values)


def test_dipole_conversion():
    assert dipole_debye_to_si(1.0) == 3.33564e-30
    assert dipole_debye_to_si(1.7) == pytest.approx(5.670588e-30, rel=1e-6)


def test_angular_frequency_391nm():
    omega = wavelength_to_angular_frequency(391e-9)
    assert omega == pytest.approx(4.8176e15, rel=1e-4)
    # round trip through lambda = 2 pi c / omega
    assert 2.0 * math.pi * CONSTANTS.c / omega == pytest.approx(391e-9, rel=1e-15)


def test_ideal_gas_density():
    # n = p / (kB T) at 1 bar, 300 K
    n = pressure_to_number_density(1e5, 300.0)
    assert n == pytest.approx(1e5 / (1.380649e-23 * 300.0), rel=1e-15)
    assert n == pytest.approx(2.414e25, rel=1e-3)


def test_density_scales_inversely_with_temperature():
    assert pressure_to_number_density(2000.0, 150.0) == pytest.approx(
        2.0 * pressure_to_number_density(2000.0, 300.0), rel=1e-15
    )


@pytest.mark.parametrize(
    "fwd, value, expected",
    [
        (mbar_to_pascal, 1.0, 100.0),
        (ps_to_s, 1.0, 1e-12),
        (mm_to_m, 10.0, 0.01),
        (um_to_m, 50.0, 50e-6),
        (cm2_to_m2, 1.0, 1e-4),
        (cm_per_s_to_m_per_s, 1e8, 1e6),
        (mw_per_cm2_to_w_per_m2, 10.0, 1e11),
        (per_m3_to_per_cm3, 1e6, 1.0),
    ],
)
def test_unit_factors(fwd, value, expected):
    assert fwd(value) == pytest.approx(expected, rel=1e-15)


finite = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False)


@given(finite)
def test_time_roundtrip(x):
    assert s_to_ps(ps_to_s(x)) == pytest.approx(x, rel=1e-12)


@given(finite)
def test_dipole_roundtrip(x):
    # Back through the constant table, which must hold the converter's debye.
    assert dipole_debye_to_si(x) / CONSTANTS.debye == pytest.approx(x, rel=1e-12)


@given(finite)
def test_intensity_roundtrip(x):
    assert w_per_m2_to_w_per_cm2(mw_per_cm2_to_w_per_m2(x)) == pytest.approx(
        1e6 * x, rel=1e-12
    )
