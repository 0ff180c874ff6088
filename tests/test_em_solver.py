import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_fill
import far_field_halves
from oracles import HALF_WAVE_DIPOLE_GAIN_DBI, induced_emf_dipole_impedance
from yagilab import em_solver
from yagilab.em_solver import (
    _build_grid,
    _kernel_arguments,
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
    design = build_design("nbs", F0, 0.005)
    points = frequency_sweep(design, [900e6, 5.4e9], segs_per_element=3, resolution_deg=10.0)
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
    design = build_design("nbs", F0, 0.005)
    freqs = [850e6, 900e6, 950e6]
    points = frequency_sweep(design, freqs, segs_per_element=3, resolution_deg=math.inf)
    assert [p.frequency_hz for p in points] == freqs
    assert all(p.error is not None and "resolution" in p.error for p in points)
    assert fills == []


def test_sweep_builds_one_mode_basis(monkeypatch):
    """Every point of a sweep is filled and solved from the same basis."""
    calls = []
    build = em_solver.mode_basis
    monkeypatch.setattr(em_solver, "mode_basis", lambda grid: calls.append(grid) or build(grid))
    points = frequency_sweep(build_design("nbs", F0, 0.005), BAND_HZ, segs_per_element=3, resolution_deg=10.0)
    assert all(p.error is None for p in points)
    assert len(calls) == 1


def test_resolution_too_fine_for_a_finite_step_count_is_a_domain_error(dipole51):
    """360 / 1e-320 overflows to infinity, which has no integer step count."""
    _, sol = dipole51
    with pytest.raises(DomainError, match="resolution"):
        far_field(sol, resolution_deg=1e-320)


def test_resolution_limit_is_7200_phi_steps():
    assert em_solver._check_resolution(0.05) == 7200


@pytest.mark.parametrize("resolution_deg", [1e-300, 1e-6, 0.001])
def test_sweep_tags_every_point_with_a_resolution_past_the_limit(monkeypatch, resolution_deg):
    """A step count past 7200 is tagged on every point before any fill."""
    fills = []
    fill = em_solver.impedance_matrix
    monkeypatch.setattr(em_solver, "impedance_matrix", lambda *args: fills.append(args) or fill(*args))
    points = frequency_sweep(build_design("nbs", F0, 0.005), BAND_HZ, segs_per_element=3, resolution_deg=resolution_deg)
    assert [p.frequency_hz for p in points] == BAND_HZ
    assert all(p.error is not None and f"resolution {resolution_deg!r} deg" in p.error for p in points)
    assert fills == []


def test_sweep_rejects_empty_frequency_list():
    design = build_design("nbs", F0, 0.005)
    with pytest.raises(DomainError):
        frequency_sweep(design, [])


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
    "short-column": (
        lambda: _two_rods(y=np.zeros(1)),
        "rod table columns differ in length: x 2, y 1, radius 2, edges 2",
    ),
    "no-rod": (
        lambda: _two_rods(x=np.zeros(0), y=np.zeros(0), radius=np.zeros(0), edges=()),
        "grid has no elements",
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
    design = build_design("nbs", F0, 0.005)
    points = frequency_sweep(design, BAND_HZ, segs_per_element=7, resolution_deg=6.0)
    grid = segment(design, 7)
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
    assert basis.z_peak[basis.feed_mode] == 0.0


def test_element_shifted_along_its_axis_matches_dense_oracle():
    """An off-centre element finds fewer repeated offsets but fills the same matrix."""
    base = segment(build_design("nbs", F0, 0.005), 11)
    edges = list(base.edges)
    edges[3] = edges[3] + 0.03 * LAM
    grid = replace(base, edges=tuple(edges))
    assert _oracle_defect(grid, F0) <= 1e-12


def _spy_kernel_arguments(monkeypatch):
    """Record (distance nodes, distinct offsets, offsets) of every element pair's argument table."""
    calls = []

    def spy(k, offsets, rho):
        args, at = _kernel_arguments(k, offsets, rho)
        calls.append((rho.size, args.size // rho.size, offsets.size))
        return args, at

    monkeypatch.setattr(em_solver, "_kernel_arguments", spy)
    return calls


@pytest.mark.parametrize("segs", [3, 21, 41])
def test_same_wire_fill_integrates_each_offset_once(monkeypatch, segs):
    """A segmented beam's same-wire blocks snap to their lattice and deduplicate.

    A uniform element of N segments has the 2N + 1 offsets between -N and N
    lattice steps, and the driven element, whose split feed segment halves
    its step, 3N + 2. Were the snap to miss, the fill would tabulate up to
    2(N+1)^2 offsets per element and only run slower, so the count itself is
    checked.
    """
    calls = _spy_kernel_arguments(monkeypatch)
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), segs))
    impedance_matrix(basis, 905e6)
    sizes = [n_offsets for n_rho, n_offsets, _ in calls if n_rho > 1]  # the ring nodes: same-wire
    driven = [a <= basis.feed_mode < b for a, b in basis.groups]
    assert len(sizes) == len(driven) == 6
    for size, is_driven in zip(sizes, driven):
        assert size == (3 * segs + 2 if is_driven else 2 * segs + 1)


@pytest.mark.parametrize("segs", [3, 21, 41])
def test_fill_makes_one_kernel_call_per_element_pair(monkeypatch, segs):
    """Every element pair's block tabulates its kernel arguments in one call.

    The beam is symmetric about z = 0, so the negated offsets of a
    wire-to-wire block are offsets of that block too, and it tabulates no
    more distinct offsets than it has (edge, edge) pairs. Were the fold to
    miss, the fill would only run slower, so the count itself is checked.
    """
    calls = _spy_kernel_arguments(monkeypatch)
    basis = mode_basis(segment(build_design("nbs", F0, 0.005), segs))
    impedance_matrix(basis, 905e6)
    n = len(basis.groups)
    assert len(calls) == n * (n + 1) // 2 == 21
    wire_to_wire = [(n_offsets, n_pairs) for n_rho, n_offsets, n_pairs in calls if n_rho == 1]
    assert len(wire_to_wire) == n * (n - 1) // 2
    for n_offsets, n_pairs in wire_to_wire:
        assert n_offsets <= n_pairs


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


def test_mode_basis_segment_table():
    """Each mode rises over segment below[n] and falls over the next, which meet at its peak."""
    grid = segment(build_design("nbs", F0, 0.005), 11)
    basis = mode_basis(grid)
    rise, fall = basis.below, basis.below + 1
    assert basis.seg_lo.size == grid.n_segments + 1  # the feed segment is split
    assert np.array_equal(basis.seg_hi[rise], basis.z_peak)
    assert np.array_equal(basis.seg_lo[fall], basis.z_peak)
    assert np.array_equal(basis.seg_hi[rise] - basis.seg_lo[rise], basis.w_lo)
    assert np.array_equal(basis.seg_hi[fall] - basis.seg_lo[fall], basis.w_hi)
    assert [set(basis.element[a:b]) for a, b in basis.groups] == [{e} for e in range(6)]
    assert [b - a for a, b in basis.groups] == [10, 11, 10, 10, 10, 10]


def test_nearly_uniform_element_is_not_taken_as_toeplitz():
    """Segments equal only to the validation tolerance still match the oracle.

    The second element's junctions are displaced by 1e-10 of a segment,
    which validate() accepts as uniform; its offsets miss the lattice by far
    more than roundoff, so they must not be snapped to it, and integrals
    shared across offsets that merely look equal would be off by about that
    much.
    """
    segs = 9
    rows = [(0.0, 0.0, 0.5 * LAM, 1e-3 * LAM, 0), (0.2 * LAM, 0.0, 0.45 * LAM, 1e-3 * LAM, 1)]
    base = _build_grid(rows, segs, 0)
    seg_len = 0.45 * LAM / segs
    shifted = base.edges[1].copy()
    shifted[1:-1] += (-1) ** np.arange(1, segs) * 1e-10 * seg_len
    grid = replace(base, edges=(base.edges[0], shifted))
    assert grid.validate() == []
    assert not np.allclose(np.diff(grid.edges[1]), seg_len, rtol=1e-12, atol=0)
    assert _oracle_defect(grid, F0) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    length_frac=st.floats(min_value=0.25, max_value=1.1),
    radius_frac=st.floats(min_value=5e-5, max_value=2e-3),
    segs=st.sampled_from([7, 9, 11]),
    resolution_deg=st.sampled_from([3.0, 5.0, 6.0]),
    f_mhz=st.floats(min_value=400.0, max_value=1200.0),
)
def test_far_field_sphere_integral_property(length_frac, radius_frac, segs, resolution_deg, f_mhz):
    """Directivity integrates to 4*pi over the sphere: power is conserved."""
    f_hz = f_mhz * 1e6
    lam = SPEED_OF_LIGHT / f_hz
    grid = dipole_grid(length_frac * lam, radius_frac * lam, segs)
    sol = solve_grid(grid, f_hz)
    ff = far_field(sol, resolution_deg=resolution_deg)
    assert abs(ff.sphere_integral_linear_gain() / (4.0 * math.pi) - 1.0) < 0.02


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


def test_single_segment_element_carries_no_mode():
    """An element of one unsplit segment has no junction; fill and far field skip it."""
    rows = [(0.0, 0.0, 0.5 * LAM, 1e-3 * LAM, 0), (0.2 * LAM, 0.0, 0.45 * LAM, 1e-3 * LAM, 1)]
    base = _build_grid(rows, 9, 0)
    grid = replace(base, edges=(base.edges[0], np.array([-0.05 * LAM, 0.05 * LAM])))  # the second is one segment
    basis = mode_basis(grid)
    assert basis.groups == ((0, 9),)
    assert np.array_equal(np.unique(basis.element), [0])
    assert _oracle_defect(grid, F0) <= 1e-12
    sol = solve_grid(grid, F0)
    got = far_field(sol, resolution_deg=5.0)
    want = far_field_halves.far_field(sol, grid, resolution_deg=5.0)
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12


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


@pytest.mark.parametrize("layout", OFF_AXIS_ARRAYS.values(), ids=OFF_AXIS_ARRAYS.keys())
def test_far_field_off_axis_array_matches_half_tent_oracle(layout):
    """Wires off y = 0 take the full phi grid and still match the oracle."""
    rows = [(x * LAM, y * LAM, length * LAM, 1e-3 * LAM, i) for x, y, length, i in layout]
    grid = _build_grid(rows, 9, 0)
    sol = solve_grid(grid, F0)
    assert np.any(sol.basis.y)  # the branch that evaluates every phi column
    got = far_field(sol, resolution_deg=2.0)
    want = far_field_halves.far_field(sol, grid, resolution_deg=2.0)
    directivity = 10.0 ** (want.gain_dbi / 10.0)
    assert np.max(np.abs(10.0 ** (got.gain_dbi / 10.0) - directivity)) <= 1e-12 * np.max(directivity)
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12
    # the pattern is not even in phi, so copying mirrored columns would fail above
    assert not np.allclose(want.magnitude[:, 1:], want.magnitude[:, :0:-1])
