import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from n2sr.system import (
    SeedPulse,
    TwoLevelMedium,
    intensity_from_peak_field,
    peak_field_from_intensity,
)


class TestTwoLevelMedium:
    def test_from_lab_units(self, template):
        """config.medium_template turns the default lab-unit keys into SI."""
        assert template.omega == pytest.approx(4.8176e15, rel=1e-4)
        assert template.mu == pytest.approx(5.670588e-30, rel=1e-6)
        assert template.L == pytest.approx(0.01, rel=1e-15)
        assert template.w0 == 0.1
        assert template.N == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega": -1.0},
            {"omega": 0.0},
            {"mu": 0.0},
            {"N": -1.0},
            {"L": 0.0},
            {"w0": 1.5},
            {"w0": -1.0001},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(omega=4.8e15, mu=5.7e-30, N=1e21, L=0.01, w0=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TwoLevelMedium(**base)

    def test_density_column_with_a_negative_element_rejected(self):
        base = dict(omega=4.8e15, mu=5.7e-30, L=0.01, w0=0.1)
        assert TwoLevelMedium(**base, N=np.array([0.0, 1e21])).N.tolist() == [0.0, 1e21]
        with pytest.raises(ValueError, match="^N must be non-negative$"):
            TwoLevelMedium(**base, N=np.array([1e21, -1.0, 2e21]))

    def test_w0_endpoints_allowed(self):
        for w0 in (-1.0, 1.0):
            m = TwoLevelMedium(omega=4.8e15, mu=5.7e-30, N=1e21, L=0.01, w0=w0)
            assert m.w0 == w0


class TestSeedPulse:
    def test_from_intensity_field(self, seed):
        """config.seed_pulse takes the field from the 10 MW/cm^2 peak intensity."""
        assert seed.E0 == pytest.approx(8680210.98438131, rel=1e-12)
        assert seed.tau_s == 0.26e-12
        assert seed.tau_r == pytest.approx(3.6 * 0.26e-12, rel=1e-15)

    def test_zero_field_allowed(self):
        p = SeedPulse(E0=0.0, tau_s=1e-13, tau_r=3.6e-13)
        assert p.E0 == 0.0

    @pytest.mark.parametrize("kwargs", [{"E0": -1.0}, {"tau_s": 0.0}, {"tau_r": -1e-13}])
    def test_invalid_rejected(self, kwargs):
        base = dict(E0=1e6, tau_s=1e-13, tau_r=3.6e-13)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SeedPulse(**base)


def test_field_intensity_roundtrip():
    e0 = peak_field_from_intensity(1e11)
    assert intensity_from_peak_field(e0) == pytest.approx(1e11, rel=1e-12)


def test_envelope_shape(seed):
    """The Gaussian peaks at tau_s and its square has FWHM tau_s."""
    assert seed.field_envelope(seed.tau_s) == 1.0
    # f(0) = exp(-2 ln 2) = 1/4 exactly in exact arithmetic
    assert seed.field_envelope(0.0) == pytest.approx(0.25, rel=1e-14)
    # intensity (f^2) half maximum at tau_s +- tau_s/2
    for t in (0.5 * seed.tau_s, 1.5 * seed.tau_s):
        assert seed.field_envelope(t) ** 2 == pytest.approx(0.5, rel=1e-14)


def test_envelope_array_matches_scalar(seed):
    t = np.linspace(0.0, 4.0 * seed.tau_s, 17)
    arr = seed.field_envelope(t)
    for ti, fi in zip(t, arr):
        assert fi == seed.field_envelope(float(ti))


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_envelope_symmetric_about_peak(x):
    pulse = SeedPulse(E0=1e6, tau_s=0.26e-12, tau_r=3.6 * 0.26e-12)
    left = pulse.field_envelope(pulse.tau_s * (1.0 - x))
    right = pulse.field_envelope(pulse.tau_s * (1.0 + x))
    assert left == pytest.approx(right, rel=1e-12)


def test_envelope_area_landmarks(seed):
    """0 at t = 0, half the symmetric span's area at the peak, and the full
    Gaussian integral tau_s sqrt(pi / (2 ln 2)) less the part before t = 0 far out."""
    assert seed.envelope_area(0.0) == 0.0
    assert seed.envelope_area(2.0 * seed.tau_s) == 2.0 * seed.envelope_area(seed.tau_s)
    a = 2.0 * math.log(2.0)
    before_zero = seed.tau_s * math.sqrt(math.pi / (4.0 * a)) * math.erfc(math.sqrt(a))
    full = seed.tau_s * math.sqrt(math.pi / a)
    assert seed.envelope_area(50.0 * seed.tau_s) == pytest.approx(full - before_zero, rel=1e-15)


@given(st.floats(min_value=1e3, max_value=1e14))
def test_peak_field_monotone_in_intensity(i):
    assert peak_field_from_intensity(2.0 * i) == pytest.approx(
        math.sqrt(2.0) * peak_field_from_intensity(i), rel=1e-12
    )
