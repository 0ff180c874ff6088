import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_fill
import far_field_halves
import pair_table
from mode_columns import per_mode
from oracles import HALF_WAVE_DIPOLE_GAIN_DBI, induced_emf_dipole_impedance
from yagilab import em_solver
from yagilab.em_solver import (
    WireGrid,
    _build_grid,
    dipole_grid,
    far_field,
    frequency_sweep,
    impedance_matrix,
    input_impedance,
    mode_basis,
    segment,
    solve_currents,
    solve_grid,
)
from yagilab.errors import DiscretizationError, DomainError, GeometryError, SolverError
from yagilab.geometry import SPEED_OF_LIGHT, build_design
from yagilab.special import sici

F0 = 900e6
LAM = SPEED_OF_LIGHT / F0
BAND_HZ = [850e6, 905e6, 960e6]


@pytest.fixture(scope="module")
def dipole51():
    grid = dipole_grid(0.5 * LAM, 1e-4 * LAM, 51)
    sol = solve_grid(grid, F0)
    return grid, sol


def test_dipole_grid_structure():
    grid = dipole_grid(0.5 * LAM, 1e-4 * LAM, 51)
    assert grid.n_segments == 51
    assert grid.feed_element == 0 and len(grid.edges) == 1  # the gap is in segment 25 of 51
    assert grid.validate() == []
    assert np.allclose(np.diff(grid.edges[0]), 0.5 * LAM / 51)
    assert np.array_equal(grid.x, [0.0]) and np.array_equal(grid.y, [0.0])


def test_yagi_grid_layout():
    design = build_design("nbs", F0, 0.005)
    grid = segment(design, 11)
    assert grid.n_segments == 6 * 11
    assert grid.feed_element == 1  # driven element is second, gap centered on its 11 segments
    assert [z.size for z in grid.edges] == [12] * 6
    assert grid.validate() == []
    assert np.allclose(grid.x, [e.position_m for e in design.elements])
    assert np.array_equal(grid.radius, [e.diameter_m / 2.0 for e in design.elements])


@pytest.mark.parametrize("segs", [2, 1, 0, -3, 4, 10])
def test_segment_count_must_be_odd_and_at_least_three(segs):
    with pytest.raises(DomainError):
        dipole_grid(0.5 * LAM, 1e-4 * LAM, segs)


def test_segment_count_must_be_integer():
    with pytest.raises(DomainError):
        dipole_grid(0.5 * LAM, 1e-4 * LAM, 11.0)


def test_fat_segments_rejected():
    with pytest.raises(DiscretizationError):
        dipole_grid(0.1, 0.02, 11)  # 9.1 mm segments on a 20 mm radius rod


def test_dipole_dimensions_must_be_positive():
    with pytest.raises(DomainError):
        dipole_grid(-0.5, 1e-4, 11)
    with pytest.raises(DomainError):
        dipole_grid(0.5, 0.0, 11)


@pytest.mark.parametrize("freq", [0.0, -900e6, float("nan"), float("inf")])
def test_bad_frequency_rejected(freq):
    grid = dipole_grid(0.5 * LAM, 1e-4 * LAM, 11)
    with pytest.raises(DomainError):
        solve_grid(grid, freq)


def test_dipole_impedance_against_analytic_reference(dipole51):
    _, sol = dipole51
    oracle = induced_emf_dipole_impedance(0.5, 1e-4)
    # the closed-form reference itself must sit on the textbook value
    assert oracle.real == pytest.approx(73.0, abs=0.5)
    assert oracle.imag == pytest.approx(42.5, abs=0.5)
    z = input_impedance(sol).z
    assert abs(z - oracle) / abs(oracle) < 0.15


def test_dipole_gain_and_pattern_shape(dipole51):
    _, sol = dipole51
    ff = far_field(sol, resolution_deg=1.0)
    assert ff.peak_gain_dbi() == pytest.approx(HALF_WAVE_DIPOLE_GAIN_DBI, abs=0.4)
    theta, _ = ff.peak_direction()
    assert theta == 90.0  # broadside to the wire axis


def test_impedance_converges_monotonically():
    lengths = {}
    for segs in (11, 21, 41):
        grid = dipole_grid(0.5 * LAM, 1e-4 * LAM, segs)
        lengths[segs] = input_impedance(solve_grid(grid, F0)).z
    step1 = abs(lengths[21] - lengths[11])
    step2 = abs(lengths[41] - lengths[21])
    assert step2 < step1


def test_solution_residual_is_tiny(dipole51):
    _, sol = dipole51
    assert sol.residual < 1e-10


def _duplicate_row_and_column(z):
    z[5], z[:, 5] = z[2], z[:, 2]


def _sum_rows_and_columns(z):
    z[3] = z[1] + z[2]
    z[:, 3] = z[:, 1] + z[:, 2]


def _zero_row_and_column(z):
    z[4], z[:, 4] = 0.0, 0.0


@pytest.mark.parametrize(
    "make_singular",
    [_duplicate_row_and_column, _sum_rows_and_columns, _zero_row_and_column],
    ids=["duplicated", "summed", "zeroed"],
)
def test_singular_matrix_raises_solver_error_with_a_condition_estimate(make_singular):
    """Exactly singular and rank deficient to roundoff both fail with a condition estimate."""
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), 7))
    z = impedance_matrix(basis, 905e6)
    make_singular(z)
    with pytest.raises(SolverError, match=r"condition estimate (inf|\d\.\d{3}e\+\d+)\)"):
        solve_currents(z, basis, 905e6)


def test_default_matrix_is_exactly_symmetric():
    grid = dipole_grid(0.5 * LAM, 1e-4 * LAM, 11)
    z = impedance_matrix(mode_basis(grid), F0)
    assert np.array_equal(z, z.T)


def test_six_element_beam_regression():
    design = build_design("nbs", F0, 0.005)
    grid = segment(design, 11)
    sol = solve_grid(grid, F0)
    z = input_impedance(sol).z
    assert 10.0 <= z.real <= 60.0
    ff = far_field(sol, resolution_deg=2.0)
    assert ff.peak_direction() == (90.0, 0.0)  # along the boom, toward the directors
    assert 8.0 <= ff.peak_gain_dbi() <= 13.0


def test_sweep_tags_failed_points():
    grid = segment(build_design("nbs", F0, 0.005), 3)
    points = frequency_sweep(grid, [900e6, 5.4e9], resolution_deg=10.0)
    assert points[0].error is None
    assert points[0].impedance is not None
    assert points[1].error is not None
    assert points[1].impedance is None
    assert points[1].peak_gain_dbi is None


@pytest.mark.parametrize("resolution_deg", [math.inf, 1e300])
def test_far_field_rejects_resolution_without_two_phi_steps(dipole51, resolution_deg):
    _, sol = dipole51
    with pytest.raises(DomainError, match="resolution"):
        far_field(sol, resolution_deg=resolution_deg)


def test_sweep_tags_every_point_with_a_bad_resolution(monkeypatch):
    """The resolution is checked once, before any point is filled or solved."""
    fills = []
    fill = em_solver.impedance_matrix
    monkeypatch.setattr(em_solver, "impedance_matrix", lambda *args: fills.append(args) or fill(*args))
    grid = segment(build_design("nbs", F0, 0.005), 3)
    freqs = [850e6, 900e6, 950e6]
    points = frequency_sweep(grid, freqs, resolution_deg=math.inf)
    assert [p.frequency_hz for p in points] == freqs
    assert all(p.error is not None and "resolution" in p.error for p in points)
    assert fills == []


def test_sweep_builds_one_mode_basis(monkeypatch):
    """Every point of a sweep is filled and solved from the same basis."""
    calls = []
    build = em_solver.mode_basis
    monkeypatch.setattr(em_solver, "mode_basis", lambda grid: calls.append(grid) or build(grid))
    points = frequency_sweep(segment(build_design("nbs", F0, 0.005), 3), BAND_HZ, resolution_deg=10.0)
    assert all(p.error is None for p in points)
    assert len(calls) == 1


def test_resolution_too_fine_for_a_finite_step_count_is_a_domain_error(dipole51):
    """360 / 1e-320 overflows to infinity, which has no integer step count."""
    _, sol = dipole51
    with pytest.raises(DomainError, match="resolution"):
        far_field(sol, resolution_deg=1e-320)


def test_resolution_limit_is_7200_phi_steps():
    """The step is any real number of degrees, numpy scalars included, but not a bool."""
    assert em_solver._check_resolution(0.05) == 7200
    assert em_solver._check_resolution(np.int64(2)) == em_solver._check_resolution(np.float32(2.0)) == 180
    with pytest.raises(DomainError, match="resolution must be a real number of degrees, got True"):
        em_solver._check_resolution(True)


@pytest.mark.parametrize("resolution_deg", [1e-300, 1e-6, 0.001])
def test_sweep_tags_every_point_with_a_resolution_past_the_limit(monkeypatch, resolution_deg):
    """A step count past 7200 is tagged on every point before any fill."""
    fills = []
    fill = em_solver.impedance_matrix
    monkeypatch.setattr(em_solver, "impedance_matrix", lambda *args: fills.append(args) or fill(*args))
    points = frequency_sweep(segment(build_design("nbs", F0, 0.005), 3), BAND_HZ, resolution_deg=resolution_deg)
    assert [p.frequency_hz for p in points] == BAND_HZ
    assert all(p.error is not None and f"resolution {resolution_deg!r} deg" in p.error for p in points)
    assert fills == []


def test_mode_count_past_the_cap_is_refused_before_any_table(monkeypatch):
    """A grid of more than _MAX_MODES modes raises DiscretizationError; a sweep tags every point with it."""
    calls = _spy_kernel_table(monkeypatch)
    cap = em_solver._MAX_MODES
    # dipole_grid refuses this segment count itself, so the rod is built past it
    grid = _build_grid([(0.0, 0.0, 0.5 * LAM, 1e-6 * LAM, 0)], cap + 1 if cap % 2 == 0 else cap + 2, 0)
    message = f"grid has {grid.n_segments} modes, more than the {cap} a solve allows; use fewer segments"
    with pytest.raises(DiscretizationError, match=f"^{re.escape(message)}$"):
        mode_basis(grid)
    points = frequency_sweep(grid, BAND_HZ)
    assert [p.error for p in points] == [message] * 3
    assert calls == []


def test_segment_count_past_the_mode_cap_is_refused_before_any_rod_is_built(monkeypatch):
    """More segments per element than _MAX_MODES can never solve: the driven rod alone holds that many modes."""
    cap = em_solver._MAX_MODES
    segs = cap + 1 if cap % 2 == 0 else cap + 2
    built = []
    monkeypatch.setattr(em_solver, "_build_grid", lambda *args: built.append(args))
    message = f"segment count {segs} is more than the {cap} modes a solve allows; use fewer segments"
    with pytest.raises(DiscretizationError, match=f"^{re.escape(message)}$"):
        dipole_grid(0.5 * LAM, 1e-6 * LAM, segs)
    with pytest.raises(DiscretizationError, match=f"^{re.escape(message)}$"):
        segment(build_design("nbs", F0, 0.005), segs)
    assert built == []
    dipole_grid(0.5 * LAM, 1e-6 * LAM, segs - 2)
    assert len(built) == 1


@pytest.mark.parametrize("bad", ["abc", None, 1 + 1j, True])
def test_sweep_tags_a_frequency_that_is_not_a_real_number(bad):
    """A tagged point keeps its frequency as given, from its own fill or a sweep-wide error; a solved one a float."""
    grid = segment(build_design("nbs", F0, 0.005), 3)
    for res, message in [
        (10.0, f"frequency must be a real number of Hz, got {bad!r}"),
        (math.inf, "resolution must be positive and finite, got inf"),
    ]:
        points = frequency_sweep(grid, [bad, 905e6], resolution_deg=res)
        assert points[0].frequency_hz is bad and points[0].error == message
    solved = frequency_sweep(grid, [bad, np.float64(905e6)], resolution_deg=10.0)[1]
    assert solved.error is None and type(solved.frequency_hz) is float and solved.frequency_hz == 905e6


def test_sweep_accepts_any_sequence_of_frequencies():
    grid = segment(build_design("nbs", F0, 0.005), 3)
    points = frequency_sweep(grid, BAND_HZ, resolution_deg=10.0)
    assert frequency_sweep(grid, np.array(BAND_HZ), resolution_deg=10.0) == points
    assert frequency_sweep(grid, tuple(BAND_HZ), resolution_deg=10.0) == points
    with pytest.raises(DomainError, match="at least one frequency"):
        frequency_sweep(grid, np.array([]))


def test_sweep_tags_a_bool_frequency():
    """True is not 1 Hz: the point fails instead of solving."""
    points = frequency_sweep(segment(build_design("nbs", F0, 0.005), 3), [True, 905e6], resolution_deg=10.0)
    assert points[0].error == "frequency must be a real number of Hz, got True"
    assert points[1].error is None


MALFORMED_SOLUTIONS = {
    "one-amplitude-short": (lambda sol: replace(sol, amplitudes=sol.amplitudes[:-1]), r"shape \(10,\) for 11 modes"),
    "one-amplitude-long": (lambda sol: replace(sol, amplitudes=np.append(sol.amplitudes, 0.0)), r"shape \(12,\) for 11 modes"),
    "nan-amplitudes": (lambda sol: replace(sol, amplitudes=np.full(11, np.nan + 0j)), "non-finite mode amplitudes"),
    "nan-frequency": (lambda sol: replace(sol, frequency_hz=math.nan), "frequency must be finite"),
}


@pytest.mark.parametrize("corrupt, message", MALFORMED_SOLUTIONS.values(), ids=MALFORMED_SOLUTIONS.keys())
def test_far_field_rejects_a_malformed_solution(corrupt, message):
    """A hand-built solution fails with a DomainError that names its fault.

    The solution checks itself, so input_impedance rejects it too rather than
    returning a wrong or NaN impedance.
    """
    sol = solve_grid(dipole_grid(0.5 * LAM, 1e-3 * LAM, 11), F0)
    assert sol.basis.n_modes == 11
    for consume in (lambda s: far_field(s, resolution_deg=5.0), input_impedance):
        with pytest.raises(DomainError, match=message):
            consume(corrupt(sol))


def test_sweep_rejects_empty_frequency_list():
    grid = segment(build_design("nbs", F0, 0.005), 3)
    with pytest.raises(DomainError):
        frequency_sweep(grid, [])


def test_gain_lookup_on_and_off_grid(dipole51):
    _, sol = dipole51
    ff = far_field(sol, resolution_deg=5.0)
    assert ff.gain_at(90.0, 0.0) == ff.gain_dbi[18, 0]
    assert ff.gain_at(90.0, 360.0) == ff.gain_at(90.0, 0.0)  # phi wraps
    with pytest.raises(DomainError):
        ff.gain_at(90.5, 0.0)
    with pytest.raises(DomainError):
        ff.gain_at(90.0, 2.5)


def _two_rods(**changes):
    """A 5-segment driven rod and a 5-segment parasite, with some fields replaced."""
    rows = [(0.0, 0.0, 0.5 * LAM, 1e-3, 0), (0.2 * LAM, 0.0, 0.45 * LAM, 1e-3, 1)]
    return replace(_build_grid(rows, 5, 0), **changes)


@pytest.mark.parametrize("radius", [-1e-3, 0.0, math.nan, math.inf])
def test_grid_rejects_non_positive_or_non_finite_radius(radius):
    grid = _two_rods(radius=np.array([1e-3, radius]))
    message = f"element 1 has a non-positive or non-finite radius {radius!r}"
    assert message in grid.validate()
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}"):
        solve_grid(grid, F0)


def _parasite_edges(z):
    return _two_rods().edges[:1] + (np.asarray(z, dtype=float),)


STEP = 0.09 * LAM
GRID_VIOLATIONS = {
    "nan-end": (
        lambda: _two_rods(edges=_parasite_edges([-2.5 * STEP, -STEP, math.nan, STEP, 2.5 * STEP])),
        "element 1 segment ends are not finite and increasing",
    ),
    "infinite-end": (
        lambda: _two_rods(edges=_parasite_edges([-math.inf, -STEP, 0.0, STEP, math.inf])),
        "element 1 segment ends are not finite and increasing",
    ),
    "decreasing-ends": (
        lambda: _two_rods(edges=_parasite_edges(np.linspace(2.5, -2.5, 6) * STEP)),
        "element 1 segment ends are not finite and increasing",
    ),
    "repeated-end": (
        lambda: _two_rods(edges=_parasite_edges([-STEP, 0.0, 0.0, STEP])),
        "element 1 segment ends are not finite and increasing",
    ),
    "no-segment": (
        lambda: _two_rods(edges=_parasite_edges([0.0])),
        "element 1 segment ends are not finite and increasing",
    ),
    "even-count": (
        lambda: _two_rods(edges=_parasite_edges(np.linspace(-2.0, 2.0, 5) * STEP)),
        "element 1 has an even segment count 4",
    ),
    "non-uniform": (
        lambda: _two_rods(edges=_parasite_edges(np.array([-2.5, -1.5, -0.5, 0.6, 1.5, 2.5]) * STEP)),
        "element 1 segments are not uniform",
    ),
    "segment-not-above-radius": (
        lambda: _two_rods(radius=np.array([1e-3, 0.1 * LAM])),
        "element 1 has a segment shorter than its radius",
    ),
    "feed-out-of-range": (lambda: _two_rods(feed_element=2), "feed element 2 out of range 0..1"),
    "feed-negative": (lambda: _two_rods(feed_element=-1), "feed element -1 out of range 0..1"),
    "feed-not-integer": (lambda: _two_rods(feed_element=0.5), "feed element 0.5 is not an integer index"),
    "nan-position": (
        lambda: _two_rods(x=np.array([0.0, math.nan])),
        "element 1 has a non-finite position (nan, 0.0)",
    ),
    "infinite-position": (
        lambda: _two_rods(x=np.array([0.0, math.inf])),
        "element 1 has a non-finite position (inf, 0.0)",
    ),
    "short-column": (
        lambda: _two_rods(y=np.zeros(1)),
        "rod table columns differ in length: x 2, y 1, radius 2, edges 2",
    ),
    "no-rod": (
        lambda: _two_rods(x=np.zeros(0), y=np.zeros(0), radius=np.zeros(0), edges=()),
        "grid has no elements",
    ),
    "x-as-list": (
        lambda: _two_rods(x=[0.0, 0.2 * LAM]),
        "rod table x is not a 1-D array of real numbers",
    ),
    "radius-as-column": (
        lambda: _two_rods(radius=np.full((2, 1), 1e-3)),
        "rod table radius is not a 1-D array of real numbers",
    ),
    "complex-y": (
        lambda: _two_rods(y=np.zeros(2, dtype=complex)),
        "rod table y is not a 1-D array of real numbers",
    ),
    "ends-as-list": (
        lambda: _two_rods(edges=(_two_rods().edges[0], list(_two_rods().edges[1]))),
        "rod table edges[1] is not a 1-D array of real numbers",
    ),
    "ends-as-row": (
        lambda: _two_rods(edges=(_two_rods().edges[0], _two_rods().edges[1][None, :])),
        "rod table edges[1] is not a 1-D array of real numbers",
    ),
}


@pytest.mark.parametrize("case", GRID_VIOLATIONS)
def test_grid_violation_raises_geometry_error(case):
    """Every validate() violation stops solve_grid with a GeometryError that names it."""
    make, message = GRID_VIOLATIONS[case]
    grid = make()
    assert grid.validate() == [message]
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        solve_grid(grid, F0)


def test_integer_segment_ends_solve_as_floats():
    """Integer ends are taken as floats: the gap splits the 1 m feed segment [5, 6] at 5.5, not 5."""
    ends = np.arange(0, 12)
    grid = WireGrid(x=np.zeros(1), y=np.zeros(1), radius=np.array([0.01]), edges=(ends,), feed_element=0)
    assert grid.validate() == []
    assert np.array_equal(mode_basis(grid).edges[0][5:8], [5.0, 5.5, 6.0])
    z = input_impedance(solve_grid(grid, 13e6)).z
    assert z == input_impedance(solve_grid(replace(grid, edges=(ends.astype(float),)), 13e6)).z
    assert z == pytest.approx(70.115 - 7.177j, abs=1e-3)


def test_coincident_elements_rejected():
    rows = [
        (0.0, 0.0, 0.5 * LAM, 1e-4 * LAM, 0),
        (0.0, 0.0, 0.45 * LAM, 1e-4 * LAM, 1),
    ]
    grid = _build_grid(rows, 11, 0)
    with pytest.raises(GeometryError):
        impedance_matrix(mode_basis(grid), F0)


@pytest.mark.parametrize(
    "x2_radii, message",
    [
        (1.5, r"elements 0 and 2 overlap \(axis spacing 0\.0004997 m\)"),
        (3.0, "elements 1 and 2 are coincident"),
    ],
)
def test_wire_spacing_reports_the_first_bad_pair(x2_radii, message):
    radius = 1e-3 * LAM
    rows = [(0.0, 0.0, 0.5 * LAM, radius, 0), (3.0 * radius, 0.0, 0.5 * LAM, radius, 1)]
    rows.append((x2_radii * radius, 0.0, 0.5 * LAM, radius, 2))
    with pytest.raises(GeometryError, match=message):
        impedance_matrix(mode_basis(_build_grid(rows, 11, 0)), F0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n_elements=st.integers(min_value=1, max_value=3),
    segs=st.sampled_from([3, 5, 7, 9]),
    seg_len_frac=st.floats(min_value=0.01, max_value=0.12),
    radius_frac=st.floats(min_value=5e-5, max_value=2e-3),
    spacing_frac=st.floats(min_value=0.05, max_value=0.4),
    f_mhz=st.floats(min_value=300.0, max_value=1500.0),
)
def test_matrix_reciprocity_property(n_elements, segs, seg_len_frac, radius_frac, spacing_frac, f_mhz):
    """The raw dense Galerkin fill is symmetric to solver roundoff.

    This is what lets the structured fill compute each mirror pair once; the
    oracle tests below check the pairs it computes both ways.

    Segment electrical length is drawn directly and capped near lambda/8, the
    usual discretization envelope; coarser segments degrade the quadrature
    itself, not the fill's symmetry.
    """
    f_hz = f_mhz * 1e6
    lam = SPEED_OF_LIGHT / f_hz
    length = seg_len_frac * segs * lam
    rows = [
        (i * spacing_frac * lam, 0.0, length, radius_frac * lam, i)
        for i in range(n_elements)
    ]
    grid = _build_grid(rows, segs, 0)
    raw = dense_fill.impedance_matrix(grid, f_hz, symmetrize=False)
    asym = np.max(np.abs(raw - raw.T)) / np.max(np.abs(raw))
    assert asym <= 1e-10


def _oracle_defect(grid, f_hz):
    """Largest entry difference from the dense fill, relative to its largest entry."""
    z = impedance_matrix(mode_basis(grid), f_hz)
    ref = dense_fill.impedance_matrix(grid, f_hz)
    return np.max(np.abs(z - ref)) / np.max(np.abs(ref))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n_elements=st.integers(min_value=1, max_value=3),
    segs=st.sampled_from([3, 5, 7, 9]),
    spacing_frac=st.floats(min_value=0.05, max_value=0.4),
    f_mhz=st.floats(min_value=300.0, max_value=1500.0),
)
def test_structured_fill_matches_dense_oracle_property(data, n_elements, segs, spacing_frac, f_mhz):
    """Offset-deduplicated same-wire and wire-to-wire blocks reproduce the dense fill."""
    f_hz = f_mhz * 1e6
    lam = SPEED_OF_LIGHT / f_hz
    fracs = st.tuples(st.floats(min_value=0.01, max_value=0.12), st.floats(min_value=5e-5, max_value=2e-3))
    rows = []
    for i in range(n_elements):
        seg_len_frac, radius_frac = data.draw(fracs)
        rows.append((i * spacing_frac * lam, 0.0, seg_len_frac * segs * lam, radius_frac * lam, i))
    feed = data.draw(st.integers(min_value=0, max_value=n_elements - 1))
    assert _oracle_defect(_build_grid(rows, segs, feed), f_hz) <= 1e-12


def test_thin_three_segment_wire_matches_dense_oracle():
    """A thin wire of three 0.094-wavelength segments, where 16 axial nodes are 6.7e-12 off.

    The exact fill is within 3e-15 of the oracle at 32 and at 96 axial nodes.
    """
    f_hz = 300e6
    lam = SPEED_OF_LIGHT / f_hz
    grid = _build_grid([(0.0, 0.0, 3 * 0.094 * lam, 5e-5 * lam, 0)], 3, 0)
    assert _oracle_defect(grid, f_hz) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n_elements=st.integers(min_value=1, max_value=3),
    segs=st.sampled_from([3, 5, 7, 9]),
    spacing_frac=st.floats(min_value=0.05, max_value=0.4),
    f_mhz=st.floats(min_value=300.0, max_value=1500.0),
    scale=st.one_of(st.sampled_from([1e-3, 0.5, 2.0, 3.7, 1000.0]), st.floats(min_value=0.1, max_value=10.0)),
)
def test_impedance_is_scale_invariant_property(data, n_elements, segs, spacing_frac, f_mhz, scale):
    """Scaling every length by s and the frequency by 1/s leaves Z unchanged."""
    f_hz = f_mhz * 1e6
    lam = SPEED_OF_LIGHT / f_hz
    fracs = st.tuples(st.floats(min_value=0.01, max_value=0.12), st.floats(min_value=5e-5, max_value=2e-3))
    rows = []
    for i in range(n_elements):
        seg_len_frac, radius_frac = data.draw(fracs)
        rows.append((i * spacing_frac * lam, 0.0, seg_len_frac * segs * lam, radius_frac * lam, i))
    feed = data.draw(st.integers(min_value=0, max_value=n_elements - 1))
    scaled = [(x * scale, y * scale, length * scale, radius * scale, i) for x, y, length, radius, i in rows]
    z = input_impedance(solve_grid(_build_grid(rows, segs, feed), f_hz)).z
    z_scaled = input_impedance(solve_grid(_build_grid(scaled, segs, feed), f_hz / scale)).z
    assert abs(z_scaled - z) <= 1e-12 * abs(z)


def test_sweep_points_equal_single_point_solves():
    """Each sweep point is exactly the Z and peak gain of a solve at that frequency alone."""
    grid = segment(build_design("nbs", F0, 0.005), 7)
    points = frequency_sweep(grid, BAND_HZ, resolution_deg=6.0)
    for point, f_hz in zip(points, BAND_HZ, strict=True):
        sol = solve_grid(grid, f_hz)
        assert point.error is None
        assert point.impedance.z == input_impedance(sol).z
        assert point.peak_gain_dbi == far_field(sol, 6.0).peak_gain_dbi()

BEAMS = [(rule, d) for rule in ("nbs", "balanis", "ycope") for d in (0.005, 0.002)]
ORACLE_BEAM_CASES = (
    [("nbs", 0.005, segs, f_hz) for segs in (21, 41) for f_hz in BAND_HZ]
    + [(rule, d, segs, f_hz) for rule, d in BEAMS for segs in (7, 15) for f_hz in BAND_HZ]
    + [(rule, d, 21, 905e6) for rule, d in BEAMS[1:]]
)


@pytest.mark.parametrize(
    "rule, diameter_m, segs, f_hz",
    ORACLE_BEAM_CASES,
    ids=[
        f"{f_hz}-{segs}" if (rule, d) == BEAMS[0] else f"{rule}-{d * 1e3:g}mm-{f_hz}-{segs}"
        for rule, d, segs, f_hz in ORACLE_BEAM_CASES
    ],
)
def test_structured_fill_matches_dense_oracle_on_beam(rule, diameter_m, segs, f_hz):
    """Every design rule and rod, at design-loop's sizes and the benchmark's."""
    grid = segment(build_design(rule, F0, diameter_m), segs)
    assert _oracle_defect(grid, f_hz) <= 1e-12


@pytest.mark.parametrize("segs", [7, 21, 41])
@pytest.mark.parametrize("rule, diameter_m", BEAMS)
def test_built_elements_are_exactly_antisymmetric(rule, diameter_m, segs):
    """Each element's edges mirror exactly about z = 0 and the feed splits at 0.0.

    Exact mirror edges make a wire-to-wire offset and its mirror image
    compare equal, so the fill integrates them once.
    """
    grid = segment(build_design(rule, F0, diameter_m), segs)
    for edges in grid.edges:
        assert np.array_equal(edges, -edges[::-1])
    basis = mode_basis(grid)
    assert per_mode(basis).z_peak[basis.feed_mode] == 0.0


def _shifted_element_grid():
    """The 11-segment nbs beam with its fourth element moved 0.03 wavelengths up its axis."""
    base = segment(build_design("nbs", F0, 0.005), 11)
    edges = list(base.edges)
    edges[3] = edges[3] + 0.03 * LAM
    return replace(base, edges=tuple(edges))


def test_element_shifted_along_its_axis_matches_dense_oracle():
    """An off-centre element finds fewer repeated offsets but fills the same matrix."""
    assert _oracle_defect(_shifted_element_grid(), F0) <= 1e-12


def _spy_kernel_table(monkeypatch):
    """Record the grid of every kernel table mode_basis builds."""
    calls = []
    build = em_solver._kernel_table

    def spy(grid, edges):
        calls.append(grid)
        return build(grid, edges)

    monkeypatch.setattr(em_solver, "_kernel_table", spy)
    return calls


def _pair_blocks(basis):
    """Each element pair p <= q, same-wire pairs first, with the table rows its two blocks of at hold."""
    first = np.cumsum([0] + [z.size for z in basis.edges])
    n = len(basis.edges)
    for p, q in [(p, p) for p in range(n)] + [(p, q) for p in range(n) for q in range(p + 1, n)]:
        pq = basis.at[first[p] : first[p + 1], first[q] : first[q + 1]]
        qp = basis.at[first[q] : first[q + 1], first[p] : first[p + 1]]
        yield p, q, np.unique(np.concatenate([pq.ravel(), qp.ravel()]))


@pytest.mark.parametrize("segs", [3, 21, 41])
def test_same_wire_fill_integrates_each_offset_once(segs):
    """A segmented beam's same-wire kernel rows snap to their lattice and deduplicate.

    A uniform element of N segments has the 2N + 1 offsets between -N and N
    lattice steps, and the driven element, whose split feed segment halves
    its step, 3N + 2. Were the snap to miss, the fill would tabulate up to
    2(N+1)^2 offsets per element and only run slower, so the count itself is
    checked.
    """
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), segs))
    sizes = [rows.size for p, q, rows in _pair_blocks(basis) if p == q]
    driven = [a <= basis.feed_mode < b for a, b in basis.groups]
    assert len(sizes) == len(driven) == 6
    for size, is_driven in zip(sizes, driven):
        assert size == (3 * segs + 2 if is_driven else 2 * segs + 1)


@pytest.mark.parametrize("segs", [3, 21, 41])
def test_each_element_pair_owns_one_run_of_table_rows(segs):
    """The table's rows are the element pairs' runs in order: same-wire pairs first, then p < q.

    The beam is symmetric about z = 0, so the negated offsets of a
    wire-to-wire block are offsets of that block too, and its run holds no
    more distinct offsets than it has (edge, edge) pairs. Were the fold to
    miss, the fill would only run slower, so the count itself is checked.
    """
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), segs))
    sizes, ring = [z.size for z in basis.edges], em_solver._RING_QUAD_ORDER
    start = 0
    for p, q, rows in _pair_blocks(basis):
        assert np.array_equal(rows, np.arange(start, start + rows.size))  # one run, right after the last
        start += rows.size
        if p != q:
            assert rows.size <= sizes[p] * sizes[q]
        elif p == len(sizes) - 1:
            assert start * ring == basis.n_ring  # the same-wire runs are the ring rows
    assert basis.n_ring + start - basis.n_ring // ring == basis.w.size  # and every row is some pair's


@pytest.mark.parametrize("segs", [3, 7, 21, 41])
def test_fill_makes_one_sici_call(monkeypatch, segs):
    """The whole fill evaluates Si and Ci in one call, once per distinct offset and distance node.

    A same-wire block needs the offsets between -N and N lattice steps at
    every ring node: 2N + 1 of them on a uniform element of N segments, 3N + 2
    on the driven one, whose split feed segment halves its step. A
    wire-to-wire block needs at most one per pair of edges. Were the snap to
    miss, the same-wire blocks would take many more offsets (6075 instead of
    4077 arguments at 7 segments) and the fill would only run slower, so the
    count itself is checked.
    """
    sizes = []

    def spy(x):
        sizes.append(x.size)
        return sici(x)

    monkeypatch.setattr(em_solver, "sici", spy)
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), segs))
    impedance_matrix(basis, 905e6)
    edges = [b - a + 2 for a, b in basis.groups]
    n = len(edges)
    same_wire = ((n - 1) * (2 * segs + 1) + 3 * segs + 2) * em_solver._RING_QUAD_ORDER
    wire_to_wire = sum(edges[p] * edges[q] for p in range(n) for q in range(p + 1, n))
    assert len(sizes) == 1
    assert sizes[0] <= same_wire + wire_to_wire


def test_sweep_builds_each_pair_table_once(monkeypatch):
    """A 3-point sweep tabulates the 21 element pairs' kernel distances in one table, not one per point."""
    calls = _spy_kernel_table(monkeypatch)
    grid = segment(build_design("nbs", F0, 0.005), 7)
    points = frequency_sweep(grid, BAND_HZ, resolution_deg=10.0)
    assert all(p.error is None for p in points)
    assert calls == [grid]


def test_fills_of_one_basis_equal_fills_of_fresh_bases():
    """A basis filled at 850, 905, 960 and again 850 MHz keeps no state between frequencies."""
    grid = segment(build_design("nbs", F0, 0.005), 11)
    shared = mode_basis(grid)
    for f in [*BAND_HZ, BAND_HZ[0]]:
        assert np.array_equal(impedance_matrix(shared, f), impedance_matrix(mode_basis(grid), f))


def test_kernel_table_arrays_are_read_only():
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), 7))
    e = sum(z.size for z in basis.edges)
    assert basis.at.shape == (e, e) and basis.widths.shape == (e,)
    for a in (basis.at, basis.w, basis.widths, basis.mode_edge):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_permuted_rods_permute_the_moment_matrix():
    """Reordering a beam's rods (and its feed index with them) reorders Z's modes and nothing else.

    Every rod's edges land at the right place of the basis's one edge table
    only if each element pair's block is written at its rods' global edge
    numbers; a wrong offset would mix two rods' interactions.
    """
    grid = segment(build_design("nbs", F0, 0.005), 7)
    order = [3, 0, 5, 1, 4, 2]
    permuted = WireGrid(
        x=grid.x[order],
        y=grid.y[order],
        radius=grid.radius[order],
        edges=tuple(grid.edges[r] for r in order),
        feed_element=order.index(grid.feed_element),
    )
    basis, basis_p = mode_basis(grid), mode_basis(permuted)
    modes = np.concatenate([np.arange(*basis.groups[r]) for r in order])
    z, z_p = impedance_matrix(basis, F0), impedance_matrix(basis_p, F0)
    assert np.max(np.abs(z_p - z[np.ix_(modes, modes)])) <= 1e-14 * np.max(np.abs(z))
    z_in = input_impedance(solve_currents(z, basis, F0)).z
    z_in_p = input_impedance(solve_currents(z_p, basis_p, F0)).z
    assert abs(z_in_p - z_in) <= 1e-12 * abs(z_in)


def test_mode_basis_rod_table():
    """The basis keeps the grid's rods and ends, with the feed segment split at exactly 0.0."""
    grid = segment(build_design("nbs", F0, 0.005), 11)
    basis = mode_basis(grid)
    assert basis.x is grid.x and basis.y is grid.y and basis.radius is grid.radius
    for e, (split, edges) in enumerate(zip(basis.edges, grid.edges)):
        if e == grid.feed_element:
            assert np.array_equal(split, np.insert(edges, 6, 0.0))  # the middle of 11 segments is the sixth
        else:
            assert np.array_equal(split, edges)
    assert [b - a for a, b in basis.groups] == [10, 11, 10, 10, 10, 10]
    assert sum(z.size - 1 for z in basis.edges) == grid.n_segments + 1


def test_nearly_uniform_element_is_not_taken_as_toeplitz():
    """Segments equal only to the validation tolerance still match the oracle.

    The second element's junctions are displaced by 1e-10 of a segment,
    which validate() accepts as uniform; its offsets miss the lattice by far
    more than roundoff, so they must not be snapped to it, and integrals
    shared across offsets that merely look equal would be off by about that
    much.
    """
    grid = _nearly_uniform_grid()
    assert grid.validate() == []
    assert not np.allclose(np.diff(grid.edges[1]), 0.45 * LAM / 9, rtol=1e-12, atol=0)
    assert _oracle_defect(grid, F0) <= 1e-12


def _nearly_uniform_grid():
    """Two 9-segment rods, the second's junctions displaced by 1e-10 of a segment."""
    segs = 9
    rows = [(0.0, 0.0, 0.5 * LAM, 1e-3 * LAM, 0), (0.2 * LAM, 0.0, 0.45 * LAM, 1e-3 * LAM, 1)]
    base = _build_grid(rows, segs, 0)
    shifted = base.edges[1].copy()
    shifted[1:-1] += (-1) ** np.arange(1, segs) * 1e-10 * (0.45 * LAM / segs)
    return replace(base, edges=(base.edges[0], shifted))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    length_frac=st.floats(min_value=0.25, max_value=1.1),
    radius_frac=st.floats(min_value=5e-5, max_value=2e-3),
    segs=st.sampled_from([7, 9, 11]),
    resolution_deg=st.sampled_from([3.0, 5.0, 6.0]),
    f_mhz=st.floats(min_value=400.0, max_value=1200.0),
)
def test_far_field_sphere_integral_property(length_frac, radius_frac, segs, resolution_deg, f_mhz):
    """Directivity integrates to 4*pi over the sphere: power is conserved.

    These grids resolve the dipole, so the gain's normalization comes from the
    same samples under another rule (Clenshaw-Curtis against the trapezoid);
    test_far_field_power_equals_the_thin_fill_power checks it independently.
    """
    f_hz = f_mhz * 1e6
    lam = SPEED_OF_LIGHT / f_hz
    grid = dipole_grid(length_frac * lam, radius_frac * lam, segs)
    sol = solve_grid(grid, f_hz)
    ff = far_field(sol, resolution_deg=resolution_deg)
    assert abs(ff.sphere_integral_linear_gain() / (4.0 * math.pi) - 1.0) < 0.02


def _radiated_power(sol, resolution_deg=2.0):
    """The power far_field normalizes its gain by at resolution_deg, from its sphere lattice."""
    k = 2.0 * math.pi * sol.frequency_hz / SPEED_OF_LIGHT
    weights = em_solver._edge_weights(k, sol.basis, sol.amplitudes)
    step, n_steps = math.radians(resolution_deg), round(180.0 / resolution_deg)
    return em_solver._sphere_samples(k, sol.basis, weights, step, n_steps)[1]


POWER_BALANCE_CASES = {
    "dipole-1e-3": (None, 1e-3 * LAM, F0),
    "dipole-1e-4": (None, 1e-4 * LAM, F0),
    **{f"nbs-{f / 1e6:g}": ("nbs", 0.0025, f) for f in BAND_HZ},
}


@pytest.mark.parametrize("rule, radius, f_hz", POWER_BALANCE_CASES.values(), ids=POWER_BALANCE_CASES.keys())
def test_radiated_power_balances_input_power_to_order_ka_squared(rule, radius, f_hz):
    """P_rad / P_in is 1 up to the thin-wire model's (ka)^2 term.

    The fill uses the ring-averaged surface kernel but the far field the axis
    current, so the two powers differ by about c (ka)^2, c = 0.41 for the
    half-wave dipole at both radii and 1.0-4.8 for the nbs beams; the bound
    is 10 (ka)^2. P_in = Re(conj(I_gap)) / 2 for the 1 V gap, and P_rad is
    the far field's own, integrated over its sphere lattice.
    """
    if rule is None:
        grid = dipole_grid(0.5 * LAM, radius, 51)
    else:
        grid = segment(build_design(rule, F0, 2.0 * radius), 21)
    sol = solve_grid(grid, f_hz)
    k = 2.0 * math.pi * f_hz / SPEED_OF_LIGHT
    p_in = 0.5 * np.real(np.conj(sol.amplitudes[sol.basis.feed_mode]))
    assert abs(_radiated_power(sol) / p_in - 1.0) <= 10.0 * (k * radius) ** 2


def _line_of_rods(n_rods, spacing_lam):
    """n_rods fed-first 9-segment rods of 0.47 wavelengths along x, spacing_lam wavelengths apart."""
    rows = [(i * spacing_lam * LAM, 0.0, 0.47 * LAM, 1e-3 * LAM, i) for i in range(n_rods)]
    return _build_grid(rows, 9, 0)


IDENTITY_GRIDS = {
    "dipole-51": partial(dipole_grid, 0.5 * LAM, 1e-4 * LAM, 51),
    **{
        f"nbs-{d * 1e3:g}mm-{segs}": partial(segment, build_design("nbs", F0, d), segs)
        for d in (0.005, 0.002)
        for segs in (7, 21)
    },
    "dipole-19.9-wavelengths": partial(dipole_grid, 19.9 * LAM, 1e-4 * LAM, 201),
    "line-20-rods-2-wavelengths": partial(_line_of_rods, 20, 2.0),
}


@pytest.mark.parametrize("name", IDENTITY_GRIDS)
def test_far_field_power_equals_the_thin_fill_power(name):
    """P_rad = feed_length Re(I^H Z_fil I) / 2, Z_fil filled with every radius times 1e-6.

    The rods' far-field power is that of their axis currents, and so is the
    real part of a fill whose wires shrink to their axes: its wire-to-wire
    blocks already use the axis kernel, the real part of the same-wire kernel,
    sin(kR)/R, is regular on the axis, and the ln(rho) part of a thin same-wire
    block changes only the reactance. The two wide arrays need a lattice finer
    than the 2 degree grid.
    """
    grid = IDENTITY_GRIDS[name]()
    sol = solve_grid(grid, F0)
    thin = mode_basis(replace(grid, radius=grid.radius * 1e-6))
    z_fil = impedance_matrix(thin, F0) * thin.feed_length_m
    i = sol.amplitudes
    p_fil = 0.5 * float(np.real(np.conj(i) @ z_fil @ i))
    assert abs(_radiated_power(sol) / p_fil - 1.0) <= 1e-12


@pytest.mark.parametrize("resolution_deg", [2.0, 60.0])
def test_far_field_samples_one_sphere_lattice(monkeypatch, dipole51, resolution_deg):
    """The gain grid and its normalization come from one set of transforms, phases and powers.

    At 60 degrees the lattice refines the grid 12 times and still takes one call of each.
    """
    calls = []
    for name in ("_axial_transforms", "_grid_radial", "_pattern_power"):
        real = getattr(em_solver, name)
        monkeypatch.setattr(em_solver, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    far_field(dipole51[1], resolution_deg=resolution_deg)
    assert sorted(calls) == ["_axial_transforms", "_grid_radial", "_pattern_power"]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 90, 91])
def test_clenshaw_curtis_weights_match_the_cosine_sum_and_integrate_polynomials(n):
    """The FFT weights equal the direct cosine sum, and with their mirrors integrate x^p over [-1, 1] for p <= n."""
    theta = np.arange(n // 2 + 1) * math.pi / n
    j = np.arange(1, n // 2 + 1)
    b = np.where(2 * j == n, 1.0, 2.0)
    c = np.where(theta == 0.0, 1.0, 2.0)
    direct = c / n * (1.0 - (b * np.cos(2.0 * np.outer(theta, j)) / (4.0 * j**2 - 1.0)).sum(axis=1))
    got = em_solver._clenshaw_curtis(n)
    assert np.max(np.abs(got - direct)) <= 1e-15
    i = np.arange(n + 1)
    w = got[np.minimum(i, n - i)]  # rows past the equator take the weight of their mirror n - i
    x = np.cos(i * math.pi / n)
    for p in range(n + 1):
        assert w @ x**p == pytest.approx((1 + (-1) ** p) / (p + 1), abs=1e-13)


def test_peak_direction_takes_the_first_of_peaks_equal_up_to_rounding():
    """A sample within 1e-12 of the largest linear gain in an earlier row wins; a real lobe difference does not tie."""
    gain = np.full((4, 4), -10.0)
    gain[2, 1], gain[1, 3] = 10.0, 10.0 - 1e-14
    ff = em_solver.FarField(
        theta_deg=np.array([0.0, 60.0, 120.0, 180.0]), phi_deg=np.arange(4) * 90.0, gain_dbi=gain,
        magnitude=np.ones((4, 4)), resolution_deg=60.0, frequency_hz=F0,
    )
    assert ff.peak_direction() == (60.0, 270.0)
    assert ff.peak_gain_dbi() == 10.0
    gain[1, 3] = 10.0 - 1e-9
    assert ff.peak_direction() == (120.0, 90.0)


FAR_FIELD_CASES = (
    [("dipole", 0.5, 51, 1.0), ("dipole", 1.1, 11, 3.0)]
    + [(rule, 0.005, segs, 2.0) for rule in ("nbs", "balanis", "ycope") for segs in (7, 21, 41)]
    + [("ycope", 0.002, 21, 1.0)]
)


@pytest.mark.parametrize("source, size, segs, resolution_deg", FAR_FIELD_CASES)
def test_far_field_matches_half_tent_oracle(source, size, segs, resolution_deg):
    """Sampling the summed current per segment reproduces the per-half-tent far field."""
    if source == "dipole":
        grid = dipole_grid(size * LAM, 1e-4 * LAM, segs)
    else:
        grid = segment(build_design(source, F0, size), segs)
    sol = solve_grid(grid, F0)
    got = far_field(sol, resolution_deg=resolution_deg)
    want = far_field_halves.far_field(sol, grid, resolution_deg=resolution_deg)
    directivity = 10.0 ** (want.gain_dbi / 10.0)
    assert np.max(np.abs(10.0 ** (got.gain_dbi / 10.0) - directivity)) <= 1e-12 * np.max(directivity)
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12


def _one_segment_parasite(x):
    """A 9-segment driven rod and, at x, a rod of one 0.1-wavelength segment."""
    rows = [(0.0, 0.0, 0.5 * LAM, 1e-3 * LAM, 0), (x, 0.0, 0.45 * LAM, 1e-3 * LAM, 1)]
    base = _build_grid(rows, 9, 0)
    return replace(base, edges=(base.edges[0], np.array([-0.05 * LAM, 0.05 * LAM])))


def test_single_segment_element_carries_no_mode():
    """A rod of one unsplit segment has no junction: its basis row carries no modes."""
    grid = _one_segment_parasite(0.2 * LAM)
    basis = mode_basis(grid)
    assert basis.groups == ((0, 9), (9, 9))
    assert basis.x is grid.x
    assert _oracle_defect(grid, F0) <= 1e-12
    sol = solve_grid(grid, F0)
    got = far_field(sol, resolution_deg=5.0)
    want = far_field_halves.far_field(sol, grid, resolution_deg=5.0)
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12


def test_single_segment_element_coincident_with_the_driven_rod_is_rejected():
    """A rod without modes is still a rod: the wire spacing check sees it."""
    with pytest.raises(GeometryError, match="^elements 0 and 1 are coincident$"):
        mode_basis(_one_segment_parasite(0.0))


def test_far_field_mirrors_a_y0_array_exactly_and_breaks_ties_to_low_phi():
    """On a y = 0 array the phi > 180 columns are copies of their mirrors.

    The 960 MHz pattern of this 900 MHz design has two equal side peaks at
    phi = 88 and 272 degrees; the tie goes to the first sample in row order.
    """
    grid = segment(build_design("balanis", F0, 0.005), 11)
    ff = far_field(solve_grid(grid, 960e6), resolution_deg=2.0)
    assert np.array_equal(ff.gain_dbi[:, 1:], ff.gain_dbi[:, :0:-1])
    assert np.array_equal(ff.magnitude[:, 1:], ff.magnitude[:, :0:-1])
    assert ff.peak_direction() == (90.0, 88.0)


OFF_AXIS_ARRAYS = {
    "parasite-off-axis": [(0.0, 0.0, 0.47, 0), (0.2, 0.1, 0.5, 1)],
    "pair-on-y-axis": [(0.0, 0.0, 0.47, 0), (0.0, 0.25, 0.45, 1)],
    "three-wires-one-below": [(0.0, 0.0, 0.47, 0), (0.2, 0.05, 0.5, 1), (-0.15, -0.2, 0.44, 2)],
}


def _off_axis_grid(layout):
    rows = [(x * LAM, y * LAM, length * LAM, 1e-3 * LAM, i) for x, y, length, i in layout]
    return _build_grid(rows, 9, 0)


@pytest.mark.parametrize("layout", OFF_AXIS_ARRAYS.values(), ids=OFF_AXIS_ARRAYS.keys())
def test_far_field_off_axis_array_matches_half_tent_oracle(layout):
    """Wires off y = 0 take the full phi grid and still match the oracle."""
    grid = _off_axis_grid(layout)
    sol = solve_grid(grid, F0)
    assert np.any(sol.basis.y)  # the branch that evaluates every phi column
    got = far_field(sol, resolution_deg=2.0)
    want = far_field_halves.far_field(sol, grid, resolution_deg=2.0)
    directivity = 10.0 ** (want.gain_dbi / 10.0)
    assert np.max(np.abs(10.0 ** (got.gain_dbi / 10.0) - directivity)) <= 1e-12 * np.max(directivity)
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12
    # the pattern is not even in phi, so copying mirrored columns would fail above
    assert not np.allclose(want.magnitude[:, 1:], want.magnitude[:, :0:-1])


def _shifted_off_axis_grid():
    """The three-wire off-axis array with its third rod moved 0.05 wavelengths up its axis."""
    base = _off_axis_grid(OFF_AXIS_ARRAYS["three-wires-one-below"])
    return replace(base, edges=(*base.edges[:2], base.edges[2] + 0.05 * LAM))


THETA_ASYMMETRIC_GRIDS = {"shifted-element": _shifted_element_grid, "shifted-off-axis": _shifted_off_axis_grid}


@pytest.mark.parametrize("resolution_deg", [2.0, 3.0, 60.0])
@pytest.mark.parametrize("name", THETA_ASYMMETRIC_GRIDS)
def test_far_field_of_a_pattern_asymmetric_in_theta_matches_half_tent_oracle(name, resolution_deg):
    """Rods shifted along z radiate unequally above and below theta = 90 degrees.

    far_field evaluates cos(theta) >= 0 and takes the lower hemisphere from
    the mirrored transforms; a swapped or misplaced hemisphere fails here.
    2 and 3 degrees have an equator row, 60 degrees (theta 0, 60, 120, 180) has none.
    """
    grid = THETA_ASYMMETRIC_GRIDS[name]()
    sol = solve_grid(grid, F0)
    got = far_field(sol, resolution_deg=resolution_deg)
    want = far_field_halves.far_field(sol, grid, resolution_deg=resolution_deg)
    assert np.max(np.abs(want.magnitude - want.magnitude[::-1])) > 0.01
    directivity = 10.0 ** (want.gain_dbi / 10.0)
    assert np.max(np.abs(10.0 ** (got.gain_dbi / 10.0) - directivity)) <= 1e-12 * np.max(directivity)
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12
    assert np.max(got.magnitude) == 1.0  # normalized over the returned samples only


RADIAL_GRIDS = {
    **{f"{rule}-{d * 1e3:g}mm": partial(segment, build_design(rule, F0, d), 3) for rule, d in BEAMS},
    **{name: partial(_off_axis_grid, layout) for name, layout in OFF_AXIS_ARRAYS.items()},
}


@pytest.mark.parametrize("resolution_deg", [1.0, 3.0, 60.0])
@pytest.mark.parametrize("name", RADIAL_GRIDS)
def test_table_built_radial_factor_equals_direct_phase(name, resolution_deg):
    """plus[i + j] * minus[i - j] is e^{jk sin(theta)(x cos(phi) + y sin(phi))} on the whole phi circle."""
    basis = mode_basis(RADIAL_GRIDS[name]())
    k = 2.0 * math.pi * 960e6 / SPEED_OF_LIGHT
    step = math.radians(resolution_deg)
    n_rows, n_cols = round(90.0 / resolution_deg) + 1, round(360.0 / resolution_deg)
    theta, phi = np.arange(n_rows) * step, np.arange(n_cols) * step
    offsets = basis.x[:, None] * np.cos(phi) + basis.y[:, None] * np.sin(phi)
    want = em_solver._cis(k * np.sin(theta)[:, None, None] * offsets)
    got = em_solver._grid_radial(k, basis, step, n_rows, n_cols)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


def test_sweep_of_a_hand_built_off_axis_grid_equals_single_point_solves():
    """frequency_sweep takes any grid, not only a segmented design."""
    grid = _off_axis_grid(OFF_AXIS_ARRAYS["parasite-off-axis"])
    points = frequency_sweep(grid, BAND_HZ, resolution_deg=6.0)
    for point, f_hz in zip(points, BAND_HZ, strict=True):
        sol = solve_grid(grid, f_hz)
        assert point.error is None
        assert point.impedance.z == input_impedance(sol).z
        assert point.peak_gain_dbi == far_field(sol, 6.0).peak_gain_dbi()


def _assert_table_equals_per_pair_oracle(grid):
    basis = mode_basis(grid)
    want = pair_table.kernel_table(grid, list(basis.edges))
    assert np.array_equal(basis.at, want["at"])
    assert np.array_equal(basis.w, want["w"])
    assert basis.n_ring == want["n_ring"]


@pytest.mark.parametrize("segs", [3, 7, 21])
@pytest.mark.parametrize("rule, diameter_m", BEAMS)
def test_kernel_table_equals_per_pair_oracle_on_beam(rule, diameter_m, segs):
    """One sort over all edge pairs gives the rows and indices the per-element-pair loop gave."""
    _assert_table_equals_per_pair_oracle(segment(build_design(rule, F0, diameter_m), segs))


TABLE_GRIDS = {
    **{name: partial(_off_axis_grid, layout) for name, layout in OFF_AXIS_ARRAYS.items()},
    "shifted-element": _shifted_element_grid,
    "nearly-uniform": _nearly_uniform_grid,
    "one-segment-rod": partial(_one_segment_parasite, 0.2 * LAM),
    "dipole-51": partial(dipole_grid, 0.5 * LAM, 1e-4 * LAM, 51),
}


@pytest.mark.parametrize("name", TABLE_GRIDS)
def test_kernel_table_equals_per_pair_oracle_on_custom_grid(name):
    """Off-axis rods, rods that do not snap, a rod without modes and a single wire take the same code."""
    _assert_table_equals_per_pair_oracle(TABLE_GRIDS[name]())


@st.composite
def custom_grids(draw):
    """1 to 5 rods of 1 to 7 segments, each off y = 0 or not, shifted along its axis or not.

    A rod's segments are 0.02 m long or of any length from 0.01 to 0.07 m,
    so rods share a lattice or do not; the radii differ.
    """
    n = draw(st.integers(1, 5))
    x, y, radius, edges = [], [], [], []
    for i in range(n):
        segs = draw(st.sampled_from([1, 3, 5, 7]))
        length = segs * draw(st.one_of(st.just(0.02), st.floats(0.01, 0.07)))
        z = np.linspace(-length / 2.0, length / 2.0, segs + 1)
        edges.append(0.5 * (z - z[::-1]) + draw(st.one_of(st.just(0.0), st.just(0.01), st.floats(-0.1, 0.1))))
        x.append(0.1 * i + draw(st.floats(0.0, 0.03)))
        y.append(draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05))))
        radius.append(draw(st.floats(1e-4, 4e-3)))
    feed = draw(st.integers(0, n - 1))
    return WireGrid(x=np.array(x), y=np.array(y), radius=np.array(radius), edges=tuple(edges), feed_element=feed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid=custom_grids())
def test_kernel_table_equals_per_pair_oracle_on_random_grids(grid):
    assert grid.validate() == []
    _assert_table_equals_per_pair_oracle(grid)


def _one_segment_rods(count):
    """count rods of one 0.1 m segment each, 10 mm apart on the x axis; the first is fed."""
    return WireGrid(
        x=0.01 * np.arange(count),
        y=np.zeros(count),
        radius=np.full(count, 1e-4),
        edges=(np.array([-0.05, 0.05]),) * count,
        feed_element=0,
    )


def test_segment_ends_past_the_cap_are_refused_before_any_table(monkeypatch):
    """A grid of more than _MAX_EDGES segment ends raises DiscretizationError; a sweep tags every point with it.

    1150 rods of one segment hold one mode, but 2301 segment ends with the
    feed split's. The ends are counted before the rods' spacing is checked,
    so even coincident rods are refused for them.
    """
    calls = _spy_kernel_table(monkeypatch)
    cap = em_solver._MAX_EDGES
    grid = _one_segment_rods(cap // 2)
    message = f"grid has {cap + 1} segment ends, more than the {cap} a solve allows; use fewer rods or segments"
    for g in (grid, replace(grid, x=np.zeros(cap // 2))):
        with pytest.raises(DiscretizationError, match=f"^{re.escape(message)}$"):
            mode_basis(g)
    points = frequency_sweep(grid, BAND_HZ)
    assert [p.error for p in points] == [message] * 3
    assert calls == []


class _TableReached(Exception):
    pass


def _at_the_mode_cap_on_25_rods():
    """24 rods of 91 segments and one of 89: 2249 modes and 2299 segment ends."""
    edges = tuple(np.linspace(-0.25, 0.25, segs + 1) for segs in [91] * 24 + [89])
    return WireGrid(x=0.05 * np.arange(25), y=np.zeros(25), radius=np.full(25, 1e-4), edges=edges, feed_element=0)


@pytest.mark.parametrize(
    "build",
    [partial(_one_segment_rods, em_solver._MAX_EDGES // 2 - 1), _at_the_mode_cap_on_25_rods],
    ids=["1149-one-segment-rods", "25-rods-at-the-mode-cap"],
)
def test_grid_under_the_segment_end_cap_reaches_the_table(monkeypatch, build):
    """2299 segment ends pass the bound, and so does every grid of at most 25 rods under the mode cap.

    The table is not built: the spy stops mode_basis where it would start.
    """

    def stop(grid, edges):
        raise _TableReached(sum(z.size for z in edges))

    monkeypatch.setattr(em_solver, "_kernel_table", stop)
    with pytest.raises(_TableReached, match="^2299$"):
        mode_basis(build())
