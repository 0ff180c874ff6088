import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yagilab.analysis import (
    DEFAULT_EIRP_DBM,
    HELIX_BASELINE_GAIN_DBI,
    HELIX_BASELINE_RANGE_M,
    PatternUnit,
    RadiationPatternData,
    RangeModel,
    analysis_report,
    bandwidth,
    build_pattern,
    calibrate_threshold_dbm,
    default_range_model,
    free_space_path_loss_db,
    gamma_mag_from_vswr,
    jamming_range,
    pattern_stats,
    range_ratio,
    reflection_coefficient,
    reflection_report,
    return_loss_db,
    return_loss_from_vswr,
    vswr,
    vswr_from_return_loss,
)
from yagilab.errors import DomainError


# --- reflection coefficient, VSWR, return loss ---


def test_reflection_coefficient_basics():
    assert reflection_coefficient(50.0 + 0j, 50.0) == 0j
    assert reflection_coefficient(0j, 50.0) == -1.0 + 0j
    assert abs(reflection_coefficient(24 + 3.73j, 50.0)) == pytest.approx(0.3545, abs=5e-5)


def test_reflection_coefficient_guards():
    with pytest.raises(DomainError):
        reflection_coefficient(-50.0 + 0j, 50.0)  # z == -z_ref singularity
    with pytest.raises(DomainError):
        reflection_coefficient(50.0 + 0j, 0.0)
    with pytest.raises(DomainError):
        reflection_coefficient(50.0 + 0j, -75.0)
    with pytest.raises(DomainError):
        reflection_coefficient(complex("nan"), 50.0)


@pytest.mark.parametrize(
    "z, expected, tol",
    [
        (24 + 3.73j, 2.10, 0.02),
        (83.4 + 138j, 6.69, 0.1),
        (1.55 + 25.6j, 40.7, 0.5),
    ],
)
def test_vswr_reference_loads(z, expected, tol):
    assert vswr(z) == pytest.approx(expected, abs=tol)


def test_vswr_of_matched_load_is_exactly_one():
    assert vswr(50.0 + 0j) == 1.0


def test_vswr_rejects_lossless_reflection():
    with pytest.raises(DomainError):
        vswr(0 + 25.6j)  # pure reactance reflects everything
    with pytest.raises(DomainError):
        vswr(-10.0 + 5.0j)


def test_return_loss_values():
    assert return_loss_db(50.0 + 0j) == math.inf
    z_gamma_tenth = 50.0 * 1.1 / 0.9  # |gamma| = 0.1
    assert return_loss_db(z_gamma_tenth + 0j) == pytest.approx(20.0, abs=1e-9)
    assert return_loss_db(24 + 3.73j) == pytest.approx(9.01, abs=0.005)


def test_vswr_return_loss_conversions():
    assert return_loss_from_vswr(1.46) == pytest.approx(14.5635, abs=5e-4)
    assert gamma_mag_from_vswr(2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert vswr_from_return_loss(return_loss_from_vswr(1.46)) == pytest.approx(1.46, rel=1e-12)
    assert return_loss_from_vswr(vswr_from_return_loss(20.0)) == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(DomainError):
        vswr_from_return_loss(0.0)
    with pytest.raises(DomainError):
        return_loss_from_vswr(0.99)


def test_reflection_report_is_internally_consistent():
    rep = reflection_report(24 + 3.73j)
    g = abs(rep.gamma)
    assert rep.vswr == pytest.approx((1 + g) / (1 - g), rel=1e-12)
    assert rep.return_loss_db == pytest.approx(-20.0 * math.log10(g), rel=1e-12)
    assert rep.z == 24 + 3.73j
    assert rep.z_ref == 50.0


# --- bandwidth ---


def _real_sweep(points):
    return [(f_mhz * 1e6, complex(r, x)) for f_mhz, r, x in points]


def test_bandwidth_constant_sweep_spans_everything():
    sweep = _real_sweep([(800, 70, 0), (835, 70, 0), (870, 70, 0)])
    bw = bandwidth(sweep, vswr_limit=2.0)
    assert bw.f_low_hz == 800e6
    assert bw.f_high_hz == 870e6
    assert bw.width_hz == pytest.approx(70e6)


def test_bandwidth_interpolates_v_shaped_sweep():
    # VSWR hits the 2.0 limit exactly at the 850 and 980 MHz samples
    sweep = _real_sweep(
        [(800, 150, 0), (850, 100, 0), (915, 60, 0), (980, 100, 0), (1030, 150, 0)]
    )
    bw = bandwidth(sweep, vswr_limit=2.0)
    assert bw.f_low_hz == pytest.approx(850e6, abs=1.0)
    assert bw.f_high_hz == pytest.approx(980e6, abs=1.0)
    assert bw.width_hz == pytest.approx(130e6, abs=2.0)


def test_bandwidth_empty_when_never_below_limit():
    sweep = _real_sweep([(800, 300, 0), (900, 280, 0), (1000, 300, 0)])
    bw = bandwidth(sweep, vswr_limit=1.05)
    assert bw.f_low_hz is None
    assert bw.f_high_hz is None
    assert bw.width_hz == 0.0


def test_bandwidth_clamps_to_sweep_edges():
    sweep = _real_sweep([(880, 55, 0), (900, 50, 0), (920, 55, 0)])
    bw = bandwidth(sweep, vswr_limit=2.0)
    assert bw.f_low_hz == 880e6
    assert bw.f_high_hz == 920e6


def test_bandwidth_guards():
    with pytest.raises(DomainError):
        bandwidth([(900e6, 50 + 0j)])
    with pytest.raises(DomainError):
        bandwidth([(900e6, 50 + 0j), (900e6, 55 + 0j)])
    with pytest.raises(DomainError):
        bandwidth([(900e6, 50 + 0j), (880e6, 55 + 0j)])
    with pytest.raises(DomainError):
        bandwidth(_real_sweep([(800, 50, 0), (900, 55, 0)]), vswr_limit=1.0)
    with pytest.raises(DomainError):
        bandwidth(_real_sweep([(800, 50, 0), (900, 55, 0)]), z_ref=0.0)


def test_bandwidth_tolerates_reflective_points():
    # the middle sample reflects everything; the interval must still resolve
    sweep = [(800e6, 60 + 0j), (900e6, 0 + 40j), (1000e6, 60 + 0j)]
    bw = bandwidth(sweep, vswr_limit=2.0)
    assert bw.width_hz > 0


# --- pattern containers and statistics ---


def test_pattern_rejects_bad_samples():
    with pytest.raises(DomainError):
        build_pattern([0, 370], [1, 2], PatternUnit.METERS)
    with pytest.raises(DomainError):
        build_pattern([10, 10], [1, 2], PatternUnit.METERS)
    with pytest.raises(DomainError):
        build_pattern([20, 10], [1, 2], PatternUnit.METERS)
    with pytest.raises(DomainError):
        build_pattern([0, 10], [1, -2], PatternUnit.METERS)
    with pytest.raises(DomainError):
        build_pattern([0, 10], [1, math.nan], PatternUnit.DBI)
    with pytest.raises(DomainError):
        build_pattern([0, 10], [1, 2], "furlongs")


def test_pattern_accepts_negative_dbi_and_string_unit():
    p = build_pattern([0, 90, 180], [11.2, 2.0, -3.0], "dbi")
    assert p.unit is PatternUnit.DBI
    assert p.values == (11.2, 2.0, -3.0)


def test_empty_pattern_allowed_but_has_no_stats():
    p = RadiationPatternData(samples=(), unit=PatternUnit.METERS)
    with pytest.raises(DomainError):
        pattern_stats(p)


def test_stats_of_constant_pattern():
    p = build_pattern([0, 90, 180, 270], [5.0, 5.0, 5.0, 5.0], PatternUnit.METERS)
    s = pattern_stats(p)
    assert s.max_value == s.min_value == s.mean_value == 5.0
    assert s.max_angle_deg == 0.0  # tie resolved to the smallest angle
    assert s.min_angle_deg == 0.0


def test_stats_tie_breaks_to_smallest_angle():
    p = build_pattern([0, 120, 240], [7.0, 9.0, 9.0], PatternUnit.METERS)
    s = pattern_stats(p)
    assert s.max_angle_deg == 120.0
    assert s.min_angle_deg == 0.0


def test_front_to_back_uses_nearest_opposite_sample():
    p = build_pattern([0, 90, 180, 270], [11.2, 1.0, -3.0, 1.0], PatternUnit.DBI)
    assert pattern_stats(p).front_to_back_db == pytest.approx(14.2)
    # no sample at exactly peak+180: nearest wins (300 is 10 deg from 290)
    q = build_pattern([110, 300, 320], [12.0, -2.0, 3.0], PatternUnit.DBI)
    assert pattern_stats(q).front_to_back_db == pytest.approx(14.0)


def test_front_to_back_only_defined_for_gain_patterns():
    p = build_pattern([0, 90, 180], [16.0, 5.0, 4.0], PatternUnit.METERS)
    assert pattern_stats(p).front_to_back_db is None


# --- range model ---


def test_free_space_path_loss_reference():
    assert free_space_path_loss_db(900e6, 1.0) == pytest.approx(31.5324, abs=5e-4)
    assert free_space_path_loss_db(900e6, 10.0) == pytest.approx(51.5324, abs=5e-4)
    with pytest.raises(DomainError):
        free_space_path_loss_db(0.0, 1.0)
    with pytest.raises(DomainError):
        free_space_path_loss_db(900e6, -1.0)


def test_default_model_reproduces_reference_transmitter_range():
    est = jamming_range(default_range_model(), HELIX_BASELINE_GAIN_DBI)
    assert est.distance_m == pytest.approx(HELIX_BASELINE_RANGE_M, abs=1e-9)
    assert not est.below_reference


def test_directional_antenna_range():
    est = jamming_range(default_range_model(), 11.2)
    assert 14.0 <= est.distance_m <= 18.0


def test_below_reference_flag():
    model = RangeModel(
        eirp_dbm=DEFAULT_EIRP_DBM,
        threshold_dbm=60.0,
        path_loss_exponent=2.0,
        frequency_hz=900e6,
    )
    est = jamming_range(model, 0.0)
    assert est.distance_m < 1.0
    assert est.below_reference


def test_threshold_calibration_round_trip():
    thr = calibrate_threshold_dbm(30.0, 2.5, 12.0, 2.2, 900e6)
    model = RangeModel(
        eirp_dbm=30.0, threshold_dbm=thr, path_loss_exponent=2.2, frequency_hz=900e6
    )
    assert jamming_range(model, 2.5).distance_m == pytest.approx(12.0, rel=1e-12)


@pytest.mark.parametrize("exponent", [1.5, 6.1, 0.0, -2.0, math.nan])
def test_range_model_rejects_unphysical_exponents(exponent):
    with pytest.raises(DomainError):
        RangeModel(
            eirp_dbm=30.0, threshold_dbm=-14.0, path_loss_exponent=exponent, frequency_hz=900e6
        )


def test_range_ratio_values():
    assert range_ratio(-0.8, 11.2, 2.0) == pytest.approx(3.98107, abs=5e-5)
    assert range_ratio(5.0, 5.0, 2.0) == 1.0
    assert range_ratio(0.0, 20.0, 2.0) == pytest.approx(10.0, rel=1e-12)
    # a 6 dB step doubles range only in round numbers: the exact factor is 10^0.3
    assert range_ratio(0.0, 6.0, 2.0) == pytest.approx(1.9952623, abs=1e-6)
    assert range_ratio(0.0, 12.0, 4.0) == pytest.approx(1.9952623, abs=1e-6)
    with pytest.raises(DomainError):
        range_ratio(0.0, 6.0, 0.0)


def test_range_that_overflows_is_a_domain_error():
    with pytest.raises(DomainError, match="jamming range"):
        jamming_range(default_range_model(), 1e308)
    model = RangeModel(eirp_dbm=30.0, threshold_dbm=-1e308, path_loss_exponent=2.0, frequency_hz=900e6)
    with pytest.raises(DomainError, match="jamming range"):
        jamming_range(model, 11.0)
    with pytest.raises(DomainError, match="range ratio"):
        range_ratio(0.0, 7000.0, 2.0)


# --- combined report ---


def test_report_with_all_inputs():
    sweep = _real_sweep([(850, 100, 0), (915, 60, 0), (980, 100, 0)])
    pattern = build_pattern([0, 90, 180], [16.0, 5.0, 4.0], PatternUnit.METERS)
    rep = analysis_report(z=24 + 3.73j, sweep=sweep, range_pattern=pattern)
    assert rep["vswr"] == pytest.approx(2.10, abs=0.02)
    assert rep["return_loss_db"] == pytest.approx(9.01, abs=0.005)
    assert rep["bandwidth_mhz"] == pytest.approx(130.0, abs=0.01)
    assert rep["max_range_m"] == 16.0
    assert rep["max_range_angle_deg"] == 0.0
    assert rep["min_range_m"] == 4.0
    assert rep["min_range_angle_deg"] == 180.0
    assert rep["mean_range_m"] == pytest.approx(25.0 / 3.0)


def test_report_leaves_missing_sections_null():
    rep = analysis_report(z=50.0 + 0j)
    assert rep["vswr"] == 1.0
    assert rep["bandwidth_mhz"] is None
    assert rep["max_range_m"] is None
    assert rep["mean_range_m"] is None


def test_report_rejects_gain_pattern_for_range_stats():
    pattern = build_pattern([0, 90], [11.0, 2.0], PatternUnit.DBI)
    with pytest.raises(DomainError):
        analysis_report(range_pattern=pattern)


# --- property suites ---


@st.composite
def _sweeps(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    start = draw(st.floats(min_value=1e8, max_value=2e9))
    steps = draw(
        st.lists(st.floats(min_value=1e5, max_value=5e7), min_size=n - 1, max_size=n - 1)
    )
    freqs = [start]
    for s in steps:
        freqs.append(freqs[-1] + s)
    zs = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=300.0),
                st.floats(min_value=-300.0, max_value=300.0),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return [(f, complex(r, x)) for f, (r, x) in zip(freqs, zs)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    sweep=_sweeps(),
    limits=st.tuples(
        st.floats(min_value=1.05, max_value=10.0), st.floats(min_value=1.05, max_value=10.0)
    ),
)
def test_bandwidth_monotone_in_limit_property(sweep, limits):
    """Loosening the VSWR limit never shrinks the usable band."""
    lo, hi = sorted(limits)
    w_lo = bandwidth(sweep, vswr_limit=lo).width_hz
    w_hi = bandwidth(sweep, vswr_limit=hi).width_hz
    assert w_hi >= w_lo - 10.0  # float slack on interpolated crossings


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    re=st.floats(min_value=0.1, max_value=500.0),
    im=st.floats(min_value=-500.0, max_value=500.0),
    z_ref=st.floats(min_value=1.0, max_value=300.0),
)
def test_vswr_return_loss_consistency_property(re, im, z_ref):
    z = complex(re, im)
    s = vswr(z, z_ref)
    rl = return_loss_db(z, z_ref)
    assert s >= 1.0
    if math.isfinite(rl):
        assert abs((s - 1.0) / (s + 1.0) - 10.0 ** (-rl / 20.0)) < 1e-12
    else:
        assert s == 1.0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=359.99),
            st.floats(min_value=-40.0, max_value=40.0),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda t: t[0],
    )
)
def test_pattern_stats_ordering_property(data):
    data = sorted(data)
    p = build_pattern([a for a, _ in data], [v for _, v in data], PatternUnit.DBI)
    s = pattern_stats(p)
    assert s.min_value <= s.mean_value <= s.max_value
    assert s.max_value >= s.min_value


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    g1=st.floats(min_value=-10.0, max_value=20.0),
    g2=st.floats(min_value=-10.0, max_value=20.0),
    n=st.floats(min_value=1.6, max_value=6.0),
)
def test_range_ratio_inverse_property(g1, g2, n):
    assert range_ratio(g1, g2, n) * range_ratio(g2, g1, n) == pytest.approx(1.0, rel=1e-12)
