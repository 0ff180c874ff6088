import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yagilab import geometry
from yagilab.errors import DomainError, ParseError
from yagilab.geometry import (
    DesignRule,
    ElementRole,
    ElementSpec,
    FrequencyPlan,
    YagiDesign,
    build_design,
    design_from_dict,
    design_to_dict,
    load_design,
    rule_from_string,
    save_design,
    validate_design,
    wavelength,
)

NBS_LENGTHS_M = (0.170, 0.160, 0.140, 0.130, 0.120, 0.120)
NBS_POSITIONS_M = (0.0, 0.047, 0.097, 0.140, 0.232, 0.362)


def test_wavelength_900rc():
    assert wavelength(900e6) == pytest.approx(2.998e8 / 900e6, rel=1e-15)


@pytest.mark.parametrize("value", [True, False, "900e6", None, 900e6 + 0j])
def test_check_frequency_rejects_a_bool_or_a_non_real(value):
    with pytest.raises(DomainError, match=f"^frequency must be a real number of Hz, got {re.escape(repr(value))}$"):
        geometry.check_frequency(value)


def test_check_frequency_takes_numpy_scalars():
    assert geometry.check_frequency(np.int64(900_000_000)) == geometry.check_frequency(np.float64(9e8)) == 9e8


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_wavelength_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        wavelength(bad)


def test_reference_table_at_900_mhz():
    design = build_design("nbs", 900e6)
    assert design.rule is DesignRule.NBS688
    assert len(design.elements) == 6
    for element, length, position in zip(design.elements, NBS_LENGTHS_M, NBS_POSITIONS_M):
        assert element.length_m == pytest.approx(length, rel=1e-12)
        assert element.position_m == pytest.approx(position, rel=1e-12, abs=1e-15)
        assert element.diameter_m == 0.005
    assert design.boom_length_m == pytest.approx(0.492, rel=1e-12)
    roles = [e.role for e in design.elements]
    assert roles == [
        ElementRole.REFLECTOR,
        ElementRole.DRIVEN,
        ElementRole.DIRECTOR,
        ElementRole.DIRECTOR,
        ElementRole.DIRECTOR,
        ElementRole.DIRECTOR,
    ]
    assert design.driven is design.elements[1]


def test_rule_aliases():
    assert rule_from_string("nbs") is DesignRule.NBS688
    assert rule_from_string("NBS688") is DesignRule.NBS688
    assert rule_from_string(" balanis ") is DesignRule.BALANIS
    assert rule_from_string("yc0pe") is DesignRule.YCOPE
    with pytest.raises(DomainError):
        rule_from_string("quad")


@pytest.mark.parametrize("rule", list(DesignRule))
def test_every_rule_builds_valid_six_element_design(rule):
    design = build_design(rule, 900e6)
    assert validate_design(design) == []
    assert len(design.elements) == 6
    positions = [e.position_m for e in design.elements]
    assert positions == sorted(positions)
    # reflector is the longest element, directors never grow along the boom
    lengths = [e.length_m for e in design.elements]
    assert lengths[0] == max(lengths)
    assert all(b <= a for a, b in zip(lengths, lengths[1:]))


def test_halving_frequency_doubles_the_design():
    base = build_design("nbs", 900e6)
    big = build_design("nbs", 450e6)
    for eb, es in zip(base.elements, big.elements):
        assert es.length_m == pytest.approx(2.0 * eb.length_m, rel=1e-15)
        assert es.position_m == pytest.approx(2.0 * eb.position_m, rel=1e-15, abs=1e-15)
    assert big.boom_length_m == pytest.approx(2.0 * base.boom_length_m, rel=1e-15)


def test_build_design_rejects_bad_diameter():
    with pytest.raises(DomainError):
        build_design("nbs", 900e6, diameter_m=0.0)
    with pytest.raises(DomainError):
        build_design("nbs", 900e6, diameter_m=-0.005)


def test_frequency_plan_guards():
    with pytest.raises(DomainError):
        FrequencyPlan(0.0)
    with pytest.raises(DomainError):
        FrequencyPlan(float("nan"))
    assert FrequencyPlan(900e6).wavelength_m == pytest.approx(0.333111, rel=1e-6)


def test_validate_design_reports_violations():
    plan = FrequencyPlan(900e6)
    elements = (
        ElementSpec(ElementRole.REFLECTOR, 0.17, 0.0, 0.005),
        ElementSpec(ElementRole.DRIVEN, 0.18, 0.047, 0.005),  # longer than reflector
        ElementSpec(ElementRole.DIRECTOR, 0.14, 0.04, 0.005),  # position goes backwards
    )
    bad = YagiDesign(plan=plan, rule=DesignRule.NBS688, elements=elements, boom_length_m=0.01)
    violations = validate_design(bad)
    assert any("taper" in v for v in violations)
    assert any("increase" in v for v in violations)
    assert any("boom" in v for v in violations)


def test_dict_round_trip_is_exact():
    design = build_design("ycope", 923e6, diameter_m=0.004)
    clone = design_from_dict(design_to_dict(design))
    assert clone == design


def test_design_from_dict_rejects_malformed():
    good = design_to_dict(build_design("nbs", 900e6))
    with pytest.raises(ParseError):
        design_from_dict({k: v for k, v in good.items() if k != "rule"})
    broken = dict(good)
    broken["elements"] = []
    with pytest.raises(ParseError):
        design_from_dict(broken)
    broken = dict(good)
    broken["elements"] = [{"role": "driven"}]
    with pytest.raises(ParseError):
        design_from_dict(broken)
    with pytest.raises(ParseError):
        design_from_dict("not a dict")


def test_save_load_round_trip(tmp_path):
    design = build_design("balanis", 875e6)
    path = tmp_path / "design.json"
    save_design(design, str(path))
    assert load_design(str(path)) == design
    # atomic write leaves no temp droppings behind
    assert [p.name for p in tmp_path.iterdir()] == ["design.json"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    f0_hz=st.floats(min_value=1e8, max_value=3e9),
    rule=st.sampled_from(list(DesignRule)),
)
def test_wavelength_scaling_property(f0_hz, rule):
    """Every dimension scales exactly with wavelength: length * f is invariant."""
    base = build_design(rule, 900e6)
    scaled = build_design(rule, f0_hz)
    ratio = 900e6 / f0_hz
    for eb, es in zip(base.elements, scaled.elements):
        assert es.length_m == pytest.approx(eb.length_m * ratio, rel=1e-12)
        assert es.position_m == pytest.approx(eb.position_m * ratio, rel=1e-12, abs=1e-18)
    assert scaled.boom_length_m == pytest.approx(base.boom_length_m * ratio, rel=1e-12)
