import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yagilab.errors import DomainError
from yagilab.matching import (
    GammaMatchGeometry,
    current_division_factor,
    folded_step_impedance,
    gamma_chain,
    gamma_input_impedance,
    matching_report_dict,
    series_capacitance,
    shorted_stub_impedance,
    tune_gamma,
    two_wire_line_impedance,
)

ZA = 24.0 + 3.73j


def rounded_chain():
    return gamma_chain(
        ZA, u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.099, f0_hz=900e6, alpha=1.3
    )


def test_rounded_chain_intermediates():
    sol = rounded_chain()
    assert sol.step_up == pytest.approx(5.29, abs=1e-12)
    assert sol.z2_ohm.real == pytest.approx(63.48, abs=0.02)
    assert sol.z2_ohm.imag == pytest.approx(9.87, abs=0.02)
    assert sol.z2_norm.real == pytest.approx(0.30, abs=0.01)
    assert sol.z2_norm.imag == pytest.approx(0.05, abs=0.01)
    assert sol.y2.real == pytest.approx(3.2, abs=0.05)
    assert sol.y2.imag == pytest.approx(-0.5, abs=0.05)
    assert sol.zg_norm.imag == pytest.approx(0.72, abs=0.01)
    assert sol.yin.real == pytest.approx(3.2, abs=0.05)
    assert sol.yin.imag == pytest.approx(-1.9, abs=0.05)
    assert 48.0 <= sol.zin_ohm.real <= 52.0
    assert 5.8e-12 <= sol.c_farad <= 6.6e-12


def test_computed_alpha_chain():
    # same ratios, division factor taken from u and v instead of forced
    sol = gamma_chain(ZA, u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.099, f0_hz=900e6)
    assert sol.alpha == pytest.approx(math.log(6.9) / (math.log(6.9) - math.log(1.5)), rel=1e-12)
    assert sol.zin_ohm.real == pytest.approx(47.35, abs=0.05)
    assert sol.zin_ohm.imag == pytest.approx(27.30, abs=0.05)
    assert sol.c_farad == pytest.approx(6.48e-12, abs=0.02e-12)


def test_physical_dimension_chain():
    geom = GammaMatchGeometry(a=2.5, a_rod=3.65, s=17.2, rod_length_lambda=0.099, f0_hz=900e6)
    sol = gamma_input_impedance(ZA, geom)
    assert sol.u == pytest.approx(3.65 / 2.5, rel=1e-12)
    assert sol.v == pytest.approx(17.2 / 2.5, rel=1e-12)
    assert sol.z0_line_ohm == pytest.approx(208.494, abs=0.005)
    assert 45.0 <= sol.zin_ohm.real <= 53.0
    assert 5.5e-12 <= sol.c_farad <= 7.0e-12


def test_two_wire_line_impedance_value():
    z0 = two_wire_line_impedance(17.2, 2.5, 3.65)
    assert z0 == pytest.approx(276.0 * math.log10(17.2 / math.sqrt(2.5 * 3.65)), rel=1e-12)
    with pytest.raises(DomainError):
        two_wire_line_impedance(1.0, 2.5, 3.65)  # conductors would overlap


def test_current_division_factor():
    assert current_division_factor(1.5, 6.9) == pytest.approx(1.265695, abs=1e-5)
    with pytest.raises(DomainError):
        current_division_factor(2.0, 2.0)
    with pytest.raises(DomainError):
        current_division_factor(1.5, 0.9)
    with pytest.raises(DomainError):
        current_division_factor(-1.0, 6.9)


def test_folded_step_impedance_is_pure_scaling():
    assert folded_step_impedance(ZA, 1.3) == pytest.approx((2.3**2) * ZA / 2.0, rel=1e-15)


def test_shorted_stub_values():
    assert shorted_stub_impedance(0.125) == pytest.approx(1j, rel=1e-12)
    assert shorted_stub_impedance(0.099).imag == pytest.approx(math.tan(2 * math.pi * 0.099), rel=1e-12)
    with pytest.raises(DomainError):
        shorted_stub_impedance(0.25)
    with pytest.raises(DomainError):
        shorted_stub_impedance(0.6)


def test_series_capacitance():
    c = series_capacitance(900e6, 28.4363)
    assert c == pytest.approx(1.0 / (2 * math.pi * 900e6 * 28.4363), rel=1e-12)
    with pytest.raises(DomainError):
        series_capacitance(900e6, -5.0)
    with pytest.raises(DomainError):
        series_capacitance(0.0, 5.0)


def test_quarter_wave_rod_presents_open_stub():
    sol = gamma_chain(ZA, u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.25, f0_hz=900e6)
    assert sol.yg == 0j
    assert sol.zin_ohm == pytest.approx(sol.z2_ohm, rel=1e-12)
    report = matching_report_dict(sol)
    assert report["zg_norm"] is None  # infinite stub impedance has no [re, im] form


def test_capacitor_omitted_for_capacitive_input():
    sol = gamma_chain(200.0 - 80.0j, u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.26, f0_hz=900e6)
    assert sol.zin_ohm.imag < 0
    assert sol.c_farad is None


def test_chain_input_guards():
    with pytest.raises(DomainError):
        gamma_chain(-5.0 + 3.0j, u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.099, f0_hz=900e6)
    with pytest.raises(DomainError):
        gamma_chain(ZA, u=1.5, v=6.9, z0_ohm=-209.0, rod_length_lambda=0.099, f0_hz=900e6)
    with pytest.raises(DomainError):
        gamma_chain(ZA, u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.7, f0_hz=900e6)


def test_chain_rejects_a_non_finite_v_with_an_explicit_alpha():
    """alpha overrides u and v, but they are still reported, so they must be finite."""
    with pytest.raises(DomainError, match="finite"):
        gamma_chain(ZA, u=2.0, v=math.inf, z0_ohm=300.0, rod_length_lambda=0.099, f0_hz=900e6, alpha=1.3)


def test_chain_rejects_a_folded_impedance_that_underflows():
    with pytest.raises(DomainError, match="z2_norm"):
        gamma_chain(5e-324 + 0j, u=2.0, v=5.0, z0_ohm=209.0, rod_length_lambda=0.099, f0_hz=900e6, alpha=-0.9)


def test_geometry_guards():
    with pytest.raises(DomainError):
        GammaMatchGeometry(a=2.5, a_rod=3.65, s=5.0, rod_length_lambda=0.099, f0_hz=900e6)
    with pytest.raises(DomainError):
        GammaMatchGeometry(a=-2.5, a_rod=3.65, s=17.2, rod_length_lambda=0.099, f0_hz=900e6)
    with pytest.raises(DomainError):
        GammaMatchGeometry(a=2.5, a_rod=3.65, s=17.2, rod_length_lambda=0.0, f0_hz=900e6)


def test_tune_gamma_reaches_target_resistance():
    geom = GammaMatchGeometry(a=2.5, a_rod=3.65, s=17.2, rod_length_lambda=0.099, f0_hz=900e6)
    result = tune_gamma(ZA, geom, target_ohm=50.0, tol_ohm=3.0)
    assert result.converged
    assert abs(result.solution.zin_ohm.real - 50.0) <= 3.0
    assert 0.01 <= result.rod_length_lambda <= 0.24
    assert result.error_ohm == pytest.approx(abs(result.solution.zin_ohm.real - 50.0), rel=1e-12)


def test_report_dict_shape():
    report = matching_report_dict(rounded_chain())
    assert report["z2_ohm"] == [pytest.approx(63.48, abs=0.02), pytest.approx(9.87, abs=0.02)]
    assert report["alpha"] == 1.3
    assert set(report) == {
        "u", "v", "alpha", "step_up", "z2_ohm", "z0_line_ohm", "z2_norm",
        "y2", "zg_norm", "yg", "yin", "zin_norm", "zin_ohm", "c_farad",
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    re_za=st.floats(min_value=1.0, max_value=300.0),
    im_za=st.floats(min_value=-200.0, max_value=200.0),
    u=st.floats(min_value=1.05, max_value=5.0),
    v=st.floats(min_value=5.2, max_value=30.0),
    z0_ohm=st.floats(min_value=50.0, max_value=600.0),
    rod=st.floats(min_value=0.02, max_value=0.24),
)
def test_smith_inversion_property(re_za, im_za, u, v, z0_ohm, rod):
    """Every normalized impedance/admittance pair in the chain multiplies to 1."""
    sol = gamma_chain(
        complex(re_za, im_za), u=u, v=v, z0_ohm=z0_ohm, rod_length_lambda=rod, f0_hz=900e6
    )
    assert abs(sol.z2_norm * sol.y2 - 1.0) < 1e-12
    assert abs(sol.zin_norm * sol.yin - 1.0) < 1e-12
    assert abs(sol.zg_norm * sol.yg - 1.0) < 1e-12
    # denormalizing is the inverse of normalizing
    assert abs(sol.z2_norm * sol.z0_line_ohm - sol.z2_ohm) <= 1e-9 * abs(sol.z2_ohm)
