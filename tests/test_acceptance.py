"""End-to-end acceptance checks for the design, solver, matching and range chain.

Each test pins one released behavior with an explicit tolerance; pytest -v
gives one pass/fail line per check. The randomized suites at the end re-run the
per-module property tests as plain callables, so a failure here reproduces
with the same seed derivation.
"""

import time
from pathlib import Path

import pytest

from oracles import induced_emf_dipole_impedance
from yagilab.analysis import (
    default_range_model,
    jamming_range,
    range_ratio,
    return_loss_from_vswr,
    vswr,
)
from yagilab.cli import parse_pattern_csv
from yagilab.em_solver import (
    dipole_grid,
    far_field,
    input_impedance,
    segment,
    solve_grid,
)
from yagilab.geometry import SPEED_OF_LIGHT, build_design
from yagilab.matching import gamma_chain

DATA_DIR = Path(__file__).parent / "data"
F0 = 900e6
LAM = SPEED_OF_LIGHT / F0


def test_gamma_match_rounded_chain_values():
    args = dict(u=1.5, v=6.9, z0_ohm=209.0, rod_length_lambda=0.099, f0_hz=F0, alpha=1.3)
    gamma_chain(24 + 3.73j, **args)  # warm-up
    t0 = time.perf_counter()
    sol = gamma_chain(24 + 3.73j, **args)
    elapsed = time.perf_counter() - t0
    assert sol.z2_ohm.real == pytest.approx(63.48, abs=0.02)
    assert sol.z2_ohm.imag == pytest.approx(9.87, abs=0.02)
    assert sol.z2_norm.real == pytest.approx(0.30, abs=0.01)
    assert sol.z2_norm.imag == pytest.approx(0.05, abs=0.01)
    assert sol.y2.real == pytest.approx(3.2, abs=0.05)
    assert sol.y2.imag == pytest.approx(-0.5, abs=0.05)
    assert sol.zg_norm.real == 0.0
    assert sol.zg_norm.imag == pytest.approx(0.72, abs=0.01)
    assert sol.yin.real == pytest.approx(3.2, abs=0.05)
    assert sol.yin.imag == pytest.approx(-1.9, abs=0.05)
    assert 48.0 <= sol.zin_ohm.real <= 52.0
    assert 5.8e-12 <= sol.c_farad <= 6.6e-12
    assert elapsed < 1e-3


def test_vswr_of_measured_reference_loads():
    vswr(24 + 3.73j)  # warm-up
    t0 = time.perf_counter()
    s1 = vswr(24 + 3.73j)
    s2 = vswr(83.4 + 138j)
    s3 = vswr(1.55 + 25.6j)
    elapsed = time.perf_counter() - t0
    assert s1 == pytest.approx(2.10, abs=0.02)
    assert s2 == pytest.approx(6.69, abs=0.1)
    assert s3 == pytest.approx(40.7, abs=0.5)
    assert elapsed < 1e-3


def test_return_loss_of_built_antenna_vswr():
    rl = return_loss_from_vswr(1.46)
    assert rl == pytest.approx(14.56, abs=0.01)
    assert rl == pytest.approx(14.51, abs=0.15)  # bench meter reading


def test_dipole_solver_matches_analytic_impedance():
    t0 = time.perf_counter()
    oracle = induced_emf_dipole_impedance(0.5, 1e-4)
    assert oracle.real == pytest.approx(73.0, abs=0.5)
    assert oracle.imag == pytest.approx(42.5, abs=0.5)
    grid = dipole_grid(0.5 * LAM, 1e-4 * LAM, 51)
    sol = solve_grid(grid, F0)
    z51 = input_impedance(sol).z
    assert abs(z51 - oracle) / abs(oracle) < 0.15
    ff = far_field(sol, resolution_deg=1.0)
    assert ff.peak_gain_dbi() == pytest.approx(2.15, abs=0.4)
    assert ff.peak_direction()[0] == 90.0
    z = {}
    for segs in (11, 21, 41):
        g = dipole_grid(0.5 * LAM, 1e-4 * LAM, segs)
        z[segs] = input_impedance(solve_grid(g, F0)).z
    assert abs(z[41] - z[21]) < abs(z[21] - z[11])
    assert time.perf_counter() - t0 < 5.0


def test_six_element_beam_gain_and_drive_impedance():
    t0 = time.perf_counter()
    design = build_design("nbs", F0, 0.005)
    grid = segment(design, 41)
    sol = solve_grid(grid, F0)
    z = input_impedance(sol).z
    assert 14.0 <= z.real <= 34.0
    ff = far_field(sol, resolution_deg=1.0)
    peak = ff.peak_gain_dbi()
    assert 9.7 <= peak <= 12.7
    assert ff.peak_direction() == (90.0, 0.0)  # toward the directors
    sol_hi = solve_grid(grid, 960e6)
    peak_hi = far_field(sol_hi, resolution_deg=1.0).peak_gain_dbi()
    assert abs(peak_hi - peak) <= 1.2
    assert time.perf_counter() - t0 < 60.0


def test_digitized_range_pattern_statistics():
    from yagilab.analysis import pattern_stats

    yagi = pattern_stats(parse_pattern_csv(DATA_DIR / "yagi_range_pattern.csv", "meters"))
    assert yagi.max_value == 16.72
    assert yagi.max_angle_deg == 10.0
    assert yagi.min_value == 3.12
    assert yagi.min_angle_deg == 120.0
    helix = pattern_stats(parse_pattern_csv(DATA_DIR / "helix_range_pattern.csv", "meters"))
    assert helix.max_value == 4.6
    assert helix.max_angle_deg == 190.0
    assert 3.0 <= helix.mean_value <= 4.0


def test_range_model_calibration_and_projection():
    model = default_range_model()
    assert jamming_range(model, -0.8).distance_m == pytest.approx(4.0, abs=1e-9)
    directional = jamming_range(model, 11.2).distance_m
    assert 14.0 <= directional <= 18.0
    assert range_ratio(-0.8, 11.2, 2.0) == pytest.approx(3.98, abs=0.02)


def test_randomized_property_suites_hold():
    from test_analysis import test_bandwidth_monotone_in_limit_property
    from test_em_solver import (
        test_far_field_sphere_integral_property,
        test_matrix_reciprocity_property,
    )
    from test_geometry import test_wavelength_scaling_property
    from test_matching import test_smith_inversion_property

    # calling a decorated property runs its whole derandomized search
    test_matrix_reciprocity_property()
    test_far_field_sphere_integral_property()
    test_smith_inversion_property()
    test_bandwidth_monotone_in_limit_property()
    test_wavelength_scaling_property()
