"""Thin-wire method-of-moments solver for arrays of parallel rods.

Formulation: electric-field integral equation on wire axes, discretized with
overlapping piecewise-sinusoidal dipole modes on segment junctions and tested
with the same functions (Galerkin), so the moment matrix is complex-symmetric
by construction. The driven element's feed segment is split internally at its
center so the delta-gap excitation lands on a junction and the feed unknown is
the gap current itself.

Same-wire interactions use the azimuthally averaged surface kernel, which
stays accurate when segments are about as short as the wire is thick; wire to
wire interactions use the axis-to-axis distance. Both are one kernel: the
wire-to-wire case is a single-node ring at the axis distance. All kernel
integrals run Gauss-Legendre quadrature after the substitution
u = rho*sinh(t), which flattens the 1/R peak so near-singular entries are
exact to quadrature precision.

The fill is built from wave-center segment integrals. A sinusoidal mode
radiates as three point sources at its segment edges (the wave centers) and
is tested by a rising and a falling sinusoid over its two segments, so every
entry is a sum of integrals of one (edge, segment) pair. Each edge is a wave
center of up to three modes and each segment carries the half-tents of two,
so the kernel runs once per edge against a run of segments and every
integral serves all the mode pairs that use it. Because the matrix is
symmetric, one value is written to both mirror places of each entry pair,
so the returned matrix is exactly symmetric. An element whose segments are
all equal (every element but the driven one, whose feed segment is split at
the gap) has a Toeplitz same-wire block, and the integrals of its first edge
and their mirror images fill it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, DomainError, GeometryError, SolverError
from .geometry import SPEED_OF_LIGHT, ElementRole, YagiDesign

MU_0 = 4.0e-7 * math.pi
ETA_0 = MU_0 * SPEED_OF_LIGHT  # wave impedance consistent with the project's c

DEFAULT_SEGMENTS_PER_ELEMENT = 21
GAIN_FLOOR_DBI = -180.0

_AXIAL_QUAD_ORDER = 16
_RING_QUAD_ORDER = 32
_PATTERN_QUAD_ORDER = 12
_PIVOT_RATIO_LIMIT = 1e-12

# power-normalization quadrature (independent of the returned sample grid)
_POWER_THETA_ORDER = 64
_POWER_PHI_SAMPLES = 128

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


@dataclass(frozen=True, eq=False)
class WireGrid:
    """Segmented wire layout: one row per segment, grouped by element."""

    start: np.ndarray  # (n, 3) segment start points, meters
    end: np.ndarray  # (n, 3) segment end points
    radius: np.ndarray  # (n,) wire radius per segment
    element: np.ndarray  # (n,) owning element index
    feed_segment: int  # global index of the delta-gap segment

    @property
    def n_segments(self) -> int:
        return int(self.start.shape[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.start + self.end)

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.end - self.start, axis=1)

    def validate(self) -> list[str]:
        """Structural checks; returns human-readable violations (empty if valid)."""
        v: list[str] = []
        n = self.n_segments
        if n == 0:
            return ["grid has no segments"]
        if not 0 <= self.feed_segment < n:
            v.append(f"feed segment {self.feed_segment} out of range 0..{n - 1}")
            return v
        lengths = self.lengths
        if np.any(lengths <= 0):
            v.append("zero-length segment present")
        bad = np.flatnonzero(~(np.isfinite(self.radius) & (self.radius > 0)))
        if bad.size:
            v.append(
                f"segment {bad[0]} of element {int(self.element[bad[0]])} has a non-positive"
                f" or non-finite radius {float(self.radius[bad[0]])!r}"
            )
        transverse = self.end[:, :2] - self.start[:, :2]
        if np.any(np.abs(transverse) > 1e-12):
            v.append("segments must be parallel to the z axis")
        # thin-wire validity: a segment shorter than its own radius leaves the
        # wire better modeled as a fat cylinder than a line current
        bad = np.nonzero(lengths <= self.radius)[0]
        if bad.size:
            v.append(
                f"segment {bad[0]} of element {int(self.element[bad[0]])} shorter than its radius"
            )
        for e in np.unique(self.element):
            idx = np.nonzero(self.element == e)[0]
            if idx.size % 2 == 0:
                v.append(f"element {int(e)} has an even segment count {idx.size}")
            seg_l = lengths[idx]
            if seg_l.size and not np.allclose(seg_l, seg_l[0], rtol=1e-9, atol=0):
                v.append(f"element {int(e)} segments are not uniform")
            ends = self.end[idx[:-1]]
            starts = self.start[idx[1:]]
            if idx.size > 1 and not np.allclose(ends, starts, rtol=0, atol=1e-12):
                v.append(f"element {int(e)} segments are not contiguous")
        feed_elem = self.element[self.feed_segment]
        idx = np.nonzero(self.element == feed_elem)[0]
        within = int(np.nonzero(idx == self.feed_segment)[0][0])
        if idx.size % 2 == 1 and within != (idx.size - 1) // 2:
            v.append("feed segment is not centered on its element")
        return v


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Sinusoidal dipole modes derived from a grid.

    One mode per internal junction of each element; the driven element's feed
    segment is split at its center, which adds a junction exactly at the gap.
    Each mode peaks at z_peak and falls sinusoidally to zero over w_lo below
    and w_hi above the peak.

    The split segments (the grid's, with the feed segment cut in two) are
    numbered element by element; mode n rises over segment below[n] and
    falls over segment below[n] + 1.
    """

    x: np.ndarray  # (m,) wire x per mode
    y: np.ndarray  # (m,) wire y per mode
    z_peak: np.ndarray  # (m,) junction height
    w_lo: np.ndarray  # (m,) lower half-tent width
    w_hi: np.ndarray  # (m,) upper half-tent width
    radius: np.ndarray  # (m,) wire radius per mode
    element: np.ndarray  # (m,) owning element index
    feed_mode: int  # mode sitting on the feed gap
    feed_length_m: float  # length of the (unsplit) feed segment
    grid: WireGrid  # the grid the modes come from
    groups: tuple[tuple[int, int], ...]  # mode range [a, b) of each element
    seg_lo: np.ndarray  # (s,) lower end of each split segment
    seg_hi: np.ndarray  # (s,) upper end of each split segment
    below: np.ndarray  # (m,) split segment each mode rises over

    @property
    def n_modes(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True, eq=False)
class CurrentSolution:
    """Mode currents produced by one delta-gap solve.

    amplitudes holds the junction-mode coefficients the linear solve
    produced, paired with basis: mode n carries amplitudes[n] amps at its
    peak. The current anywhere on a wire is the sum of the sinusoidal modes
    over it; no per-segment samples are kept.
    """

    amplitudes: np.ndarray  # (m,) complex junction-mode coefficients
    basis: ModeBasis
    excitation_voltage: complex
    frequency_hz: float
    residual: float  # relative residual of the linear solve


@dataclass(frozen=True)
class ImpedanceResult:
    z: complex
    frequency_hz: float


@dataclass(frozen=True, eq=False)
class FarField:
    """Directivity samples on a regular sphere grid.

    gain_dbi is floored at GAIN_FLOOR_DBI so axial nulls stay finite;
    magnitude keeps the exact normalized field (zeros included).
    """

    theta_deg: np.ndarray  # (nt,) 0..180 inclusive
    phi_deg: np.ndarray  # (np,) 0..360 exclusive
    gain_dbi: np.ndarray  # (nt, np)
    magnitude: np.ndarray  # (nt, np) normalized |E|, peak 1.0
    resolution_deg: float
    frequency_hz: float

    def peak_gain_dbi(self) -> float:
        return float(np.max(self.gain_dbi))

    def peak_direction(self) -> tuple[float, float]:
        t, p = np.unravel_index(int(np.argmax(self.gain_dbi)), self.gain_dbi.shape)
        return float(self.theta_deg[t]), float(self.phi_deg[p])

    def gain_at(self, theta_deg: float, phi_deg: float) -> float:
        """Gain at an exact grid sample; raises if the direction is off-grid."""
        ti = np.nonzero(np.isclose(self.theta_deg, theta_deg, rtol=0, atol=1e-9))[0]
        pi = np.nonzero(np.isclose(self.phi_deg, phi_deg % 360.0, rtol=0, atol=1e-9))[0]
        if not ti.size or not pi.size:
            raise DomainError(f"direction ({theta_deg}, {phi_deg}) is not on the sample grid")
        return float(self.gain_dbi[ti[0], pi[0]])

    def sphere_integral_linear_gain(self) -> float:
        """Solid-angle integral of linear gain over the sample grid.

        Trapezoid in theta, rectangle over the periodic phi row; equals
        4*pi when the samples are consistently normalized.
        """
        res = math.radians(self.resolution_deg)
        linear = 10.0 ** (self.gain_dbi / 10.0)
        sin_t = np.sin(np.radians(self.theta_deg))
        w_theta = np.full(self.theta_deg.size, res)
        w_theta[0] *= 0.5
        w_theta[-1] *= 0.5
        return float(np.sum((w_theta * sin_t)[:, None] * linear) * res)


@dataclass(frozen=True)
class SweepPoint:
    frequency_hz: float
    impedance: ImpedanceResult | None
    peak_gain_dbi: float | None
    error: str | None


def _check_frequency(frequency_hz: float) -> float:
    if not (isinstance(frequency_hz, (int, float)) and math.isfinite(frequency_hz)):
        raise DomainError(f"frequency must be finite, got {frequency_hz!r}")
    if frequency_hz <= 0:
        raise DomainError(f"frequency must be positive, got {frequency_hz}")
    return float(frequency_hz)


def _check_segment_count(segs_per_element: int) -> int:
    if not isinstance(segs_per_element, (int, np.integer)):
        raise DomainError(f"segment count must be an integer, got {segs_per_element!r}")
    if segs_per_element < 3:
        raise DomainError(f"need at least 3 segments per element, got {segs_per_element}")
    if segs_per_element % 2 == 0:
        raise DomainError(
            f"segment count must be odd so the feed gap is centered, got {segs_per_element}"
        )
    return int(segs_per_element)


def _build_grid(rows: list[tuple[float, float, float, float, int]], segs: int, feed_element: int) -> WireGrid:
    """rows: (x, y, length, radius, element_index) per element."""
    starts, ends, radii, owners = [], [], [], []
    for x, y, length, radius, index in rows:
        for axis, coord in (("x", x), ("y", y)):
            if not math.isfinite(coord):
                raise GeometryError(f"element {index}: rod {axis} position must be finite, got {float(coord)!r} m")
        if not (math.isfinite(length) and length > 0):
            raise GeometryError(f"element {index}: rod length must be positive and finite, got {float(length)!r} m")
        if not (math.isfinite(radius) and radius > 0):
            raise GeometryError(f"element {index}: rod radius must be positive and finite, got {float(radius)!r} m")
        seg_len = length / segs
        if seg_len <= radius:
            raise DiscretizationError(
                f"element {index}: segment length {seg_len:.4g} m does not exceed the"
                f" wire radius {radius:.4g} m; use fewer segments or a thinner rod"
            )
        z_edges = np.linspace(-length / 2.0, length / 2.0, segs + 1)
        for z0, z1 in zip(z_edges[:-1], z_edges[1:]):
            starts.append((x, y, z0))
            ends.append((x, y, z1))
            radii.append(radius)
            owners.append(index)
    feed = feed_element * segs + segs // 2
    return WireGrid(
        start=np.asarray(starts, dtype=float),
        end=np.asarray(ends, dtype=float),
        radius=np.asarray(radii, dtype=float),
        element=np.asarray(owners, dtype=int),
        feed_segment=feed,
    )


def segment(design: YagiDesign, segs_per_element: int = DEFAULT_SEGMENTS_PER_ELEMENT) -> WireGrid:
    """Subdivide every element into the same odd number of uniform segments."""
    segs = _check_segment_count(segs_per_element)
    rows = []
    feed_element = None
    for i, e in enumerate(design.elements):
        rows.append((e.position_m, 0.0, e.length_m, e.diameter_m / 2.0, i))
        if e.role is ElementRole.DRIVEN:
            feed_element = i
    if feed_element is None:
        raise DomainError("design has no driven element to feed")
    return _build_grid(rows, segs, feed_element)


def dipole_grid(length_m: float, radius_m: float, segments: int) -> WireGrid:
    """Single center-fed straight wire on the z axis."""
    segs = _check_segment_count(segments)
    return _build_grid([(0.0, 0.0, length_m, radius_m, 0)], segs, 0)


def mode_basis(grid: WireGrid) -> ModeBasis:
    """Junction modes for a validated grid, with the feed segment split at the gap.

    Raises GeometryError for a grid that fails validate() and for coincident
    or overlapping elements. An element of a single unsplit segment has no
    junction, carries no mode and is left out of the element tables.
    """
    violations = grid.validate()
    if violations:
        raise GeometryError("; ".join(violations))
    first: list[int] = []  # first grid segment of each mode's element
    groups, edges = [], []
    for e in np.unique(grid.element):
        idx = np.flatnonzero(grid.element == e)
        z = np.append(grid.start[idx, 2], grid.end[idx[-1], 2])
        if grid.feed_segment in idx:
            within = int(np.flatnonzero(idx == grid.feed_segment)[0])
            feed_mode = len(first) + within
            z = np.insert(z, within + 1, grid.centers[grid.feed_segment, 2])
        if z.size > 2:
            groups.append((len(first), len(first) + z.size - 2))
            first += [int(idx[0])] * (z.size - 2)
            edges.append(z)
    widths = [np.diff(z) for z in edges]
    basis = ModeBasis(
        x=grid.start[first, 0],
        y=grid.start[first, 1],
        z_peak=np.concatenate([z[1:-1] for z in edges]),
        w_lo=np.concatenate([w[:-1] for w in widths]),
        w_hi=np.concatenate([w[1:] for w in widths]),
        radius=grid.radius[first],
        element=grid.element[first],
        feed_mode=feed_mode,
        feed_length_m=float(grid.lengths[grid.feed_segment]),
        grid=grid,
        groups=tuple(groups),
        seg_lo=np.concatenate([z[:-1] for z in edges]),
        seg_hi=np.concatenate([z[1:] for z in edges]),
        below=np.concatenate([np.arange(a, b) + i for i, (a, b) in enumerate(groups)]),
    )
    _check_wire_spacing(basis)
    return basis


def _sin_widths(k: float, basis: ModeBasis) -> tuple[np.ndarray, np.ndarray]:
    """sin(k*w) per half-tent, guarding against half-wave-long segments."""
    kw = k * np.maximum(basis.w_lo, basis.w_hi)
    if np.max(kw) >= 0.95 * math.pi:
        raise DiscretizationError(
            "segments approach a half wavelength; sinusoidal interpolation needs"
            " a finer grid at this frequency"
        )
    return np.sin(k * basis.w_lo), np.sin(k * basis.w_hi)


def _segment_integrals(
    k: float,
    center: float,
    rho: np.ndarray,
    rho_weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rising and falling sinusoid integrals of segments against one wave center.

    For each segment [lo, hi] returns the sums over the distances rho
    (weighted by rho_weights) of
        rise = integral over [lo, hi] of sin(k(z - lo)) e^{-jkR}/R dz,
        fall = integral over [lo, hi] of sin(k(hi - z)) e^{-jkR}/R dz,
    with R = hypot(z - center, rho). rho has one row per segment, or a single
    row for all of them, and one column per distance node: one node of weight
    1 at the axis distance gives the wire-to-wire kernel, the ring nodes give
    the azimuthally averaged same-wire kernel. Both integrals share their
    quadrature nodes and spherical wave.
    """
    lo, hi = lo[:, None, None], hi[:, None, None]
    rho = rho[..., None]
    t_lo = np.arcsinh((lo - center) / rho)
    t_hi = np.arcsinh((hi - center) / rho)
    mid = 0.5 * (t_hi + t_lo)
    half = 0.5 * (t_hi - t_lo)
    nodes, weights = _gauss(_AXIAL_QUAD_ORDER)
    t = mid + half * nodes
    z = center + rho * np.sinh(t)
    wave = np.exp(-1j * k * rho * np.cosh(t)) * weights
    rise = (np.sin(k * (z - lo)) * wave).sum(axis=-1) * half[..., 0]
    fall = (np.sin(k * (hi - z)) * wave).sum(axis=-1) * half[..., 0]
    return rise @ rho_weights, fall @ rho_weights


def _is_uniform(widths: np.ndarray, z_peak: np.ndarray) -> bool:
    """True when half-tent widths agree to the roundoff of the coordinates.

    A width is the difference of two junction heights, so equal segments
    yield widths that differ by a few ulps of the largest height and no
    more; anything wider is a real difference in the geometry.
    """
    scale = float(np.max(np.abs(z_peak)) + np.max(widths))
    return float(np.ptp(widths)) <= 16.0 * np.finfo(float).eps * scale


def impedance_matrix(basis: ModeBasis, frequency_hz: float) -> np.ndarray:
    """Dense complex-symmetric moment matrix of a mode basis at one frequency.

    Row/column order follows the basis. The matrix is scaled by the
    reciprocal feed segment length so the matching excitation vector is zero
    except for voltage/feed_length at the feed mode.

    Every entry is built from wave-center segment integrals: a source mode is
    three point sources at its segment edges and an observation mode is a
    rising and a falling sinusoid over its two segments, so one integral of
    an (edge, segment) pair serves every mode pair that uses it. Each
    distinct entry is written to both of its places and the result is
    exactly symmetric. A wire-to-wire block between elements p < q takes
    every edge of p against the segments of the later elements. An element
    whose segments are all equal has a Toeplitz same-wire block, which the
    integrals of its first edge and their mirror images fill. Any other
    same-wire block, such as the driven element's with its split feed
    segment, takes every edge against its own segments and is averaged with
    its transpose, since modes of unequal widths whose supports meet give
    the two orders values up to ~1e-11 apart.
    """
    f = _check_frequency(frequency_hz)
    k = 2.0 * math.pi * f / SPEED_OF_LIGHT
    sin_lo, sin_hi = _sin_widths(k, basis)
    m = basis.n_modes
    z = np.empty((m, m), dtype=complex)

    # ring quadrature for the azimuthally averaged same-wire kernel:
    # (1/pi) * integral over (0, pi) of f(2 a sin(phi/2)) dphi
    ring_nodes, ring_w = _gauss(_RING_QUAD_ORDER)
    ring_phi = 0.5 * math.pi * (ring_nodes + 1.0)
    ring_weights = 0.5 * ring_w  # folded (1/pi) * (pi/2) Jacobian
    axis_weight = np.ones(1)

    zp, w_lo, w_hi = basis.z_peak, basis.w_lo, basis.w_hi
    # weights of a source mode's three wave centers, its edges zp - w_lo, zp, zp + w_hi
    coefs = np.stack(
        [1.0 / sin_lo, -(np.cos(k * w_lo) / sin_lo + np.cos(k * w_hi) / sin_hi), 1.0 / sin_hi], axis=1
    )
    seg_lo, seg_hi, below = basis.seg_lo, basis.seg_hi, basis.below
    heads = [a for a, _ in basis.groups]
    seg_counts = [b - a + 1 for a, b in basis.groups]
    seg_x, seg_y = np.repeat(basis.x[heads], seg_counts), np.repeat(basis.y[heads], seg_counts)

    def integrals(
        centers: np.ndarray, rho: np.ndarray, rho_weights: np.ndarray, segs: slice
    ) -> tuple[np.ndarray, np.ndarray]:
        rise, fall = zip(
            *(_segment_integrals(k, c, rho, rho_weights, seg_lo[segs], seg_hi[segs]) for c in centers)
        )
        return np.array(rise), np.array(fall)

    def block(rise: np.ndarray, fall: np.ndarray, src: slice, obs: slice, first_seg: int) -> np.ndarray:
        """Entries [source n, observation i] from the integrals of n's edges."""
        seg = below[obs] - first_seg
        h = rise[:, seg] / sin_lo[obs] + fall[:, seg + 1] / sin_hi[obs]
        c = coefs[src]
        return c[:, 0:1] * h[:-2] + c[:, 1:2] * h[1:-1] + c[:, 2:3] * h[2:]

    for a, b in basis.groups:
        n_seg = b - a + 1
        own = slice(below[a], below[a] + n_seg)
        e = np.append(seg_lo[own], seg_hi[own.stop - 1])  # the element's edges
        ring_rho = (2.0 * basis.radius[a] * np.sin(ring_phi / 2.0))[None, :]
        if _is_uniform(np.concatenate([w_lo[a:b], w_hi[a:b]]), zp[a:b]):
            # integrals at segment offset d from the first edge; the mirror
            # image of offset d is -d - 1 with rising and falling swapped
            rise, fall = integrals(e[:1], ring_rho, ring_weights, own)
            rise_at = np.concatenate([fall[0, ::-1], rise[0]])
            fall_at = np.concatenate([rise[0, ::-1], fall[0]])
            # rows: the first mode's three edges, at offsets 0, 1, 2
            offset = n_seg + np.arange(n_seg)[None, :] - np.arange(3)[:, None]
            t = block(rise_at[offset], fall_at[offset], slice(a, a + 1), slice(a, b), own.start)[0]
            i = np.arange(b - a)
            z[a:b, a:b] = t[np.abs(i[:, None] - i[None, :])]
        else:
            rise, fall = integrals(e, ring_rho, ring_weights, own)
            own_block = block(rise, fall, slice(a, b), slice(a, b), own.start)
            z[a:b, a:b] = 0.5 * (own_block + own_block.T)
        if b < m:
            later = slice(own.stop, None)
            rho = np.hypot(seg_x[later] - basis.x[a], seg_y[later] - basis.y[a])[:, None]
            rise, fall = integrals(e, rho, axis_weight, later)
            z[a:b, b:] = block(rise, fall, slice(a, b), slice(b, m), own.stop)
            z[b:, a:b] = z[a:b, b:].T
    z *= 1j * ETA_0 / (4.0 * math.pi * basis.feed_length_m)
    return z


def _check_wire_spacing(basis: ModeBasis) -> None:
    """Raise GeometryError for the first coincident or overlapping element pair.

    Pairs are taken in (lower, higher) index order.
    """
    elements, first = np.unique(basis.element, return_index=True)
    x, y, radius = basis.x[first], basis.y[first], basis.radius[first]
    p, q = np.triu_indices(elements.size, k=1)
    d = np.hypot(x[p] - x[q], y[p] - y[q])
    bad = np.flatnonzero((d == 0.0) | (d <= radius[p] + radius[q]))
    if bad.size:
        i = bad[0]
        e, o = int(elements[p[i]]), int(elements[q[i]])
        if d[i] == 0.0:
            raise GeometryError(f"elements {e} and {o} are coincident")
        raise GeometryError(f"elements {e} and {o} overlap (axis spacing {d[i]:.4g} m)")


def solve_currents(
    matrix: np.ndarray,
    basis: ModeBasis,
    frequency_hz: float,
    voltage: complex = 1.0 + 0j,
) -> CurrentSolution:
    """LU solve of the delta-gap excitation (V/feed_length in the gap row)."""
    f = _check_frequency(frequency_hz)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"moment matrix must be square, got shape {matrix.shape}")
    if matrix.shape[0] != basis.n_modes:
        raise DomainError(
            f"moment matrix size {matrix.shape[0]} does not match the basis's"
            f" {basis.n_modes} modes"
        )
    if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
        raise DomainError("moment matrix contains non-finite entries")

    rhs = np.zeros(basis.n_modes, dtype=complex)
    rhs[basis.feed_mode] = voltage / basis.feed_length_m

    try:
        lu, piv = scipy.linalg.lu_factor(matrix)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"moment matrix factorization failed: {exc}") from None
    pivots = np.abs(np.diag(lu))
    if pivots.min() < _PIVOT_RATIO_LIMIT * pivots.max():
        anorm = np.linalg.norm(matrix, 1)
        gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))[0]
        rcond, _ = gecon(lu, anorm)
        cond = math.inf if rcond == 0 else 1.0 / rcond
        raise SolverError(
            f"moment matrix is numerically singular (condition estimate {cond:.3e})"
        )
    amplitudes = scipy.linalg.lu_solve((lu, piv), rhs)
    residual = float(np.linalg.norm(matrix @ amplitudes - rhs) / np.linalg.norm(rhs))
    return CurrentSolution(
        amplitudes=amplitudes,
        basis=basis,
        excitation_voltage=complex(voltage),
        frequency_hz=f,
        residual=residual,
    )


def solve_grid(grid: WireGrid, frequency_hz: float, voltage: complex = 1.0 + 0j) -> CurrentSolution:
    """Fill and solve in one step for a grid's own feed segment."""
    basis = mode_basis(grid)
    matrix = impedance_matrix(basis, frequency_hz)
    return solve_currents(matrix, basis, frequency_hz, voltage)


def input_impedance(solution: CurrentSolution) -> ImpedanceResult:
    """Driving-point impedance V/I at the feed gap.

    The feed mode peaks at the gap and every other mode is zero there, so
    the gap current is the feed mode's amplitude.
    """
    i_feed = solution.amplitudes[solution.basis.feed_mode]
    if abs(i_feed) < 1e-15:
        raise SolverError("feed current vanished; input impedance is undefined")
    return ImpedanceResult(z=complex(solution.excitation_voltage / i_feed), frequency_hz=solution.frequency_hz)


def _axial_transforms(
    k: float, basis: ModeBasis, amplitudes: np.ndarray, cos_theta: np.ndarray
) -> np.ndarray:
    """Radiation integrals of the current on each element, shape (theta, element).

    Each entry is integral of I(z) e^{jk cos(theta) z} dz over the element,
    evaluated with Gauss-Legendre per split segment on the summed current:
    the rising half of the mode that peaks at the segment's upper edge plus
    the falling half of the mode that peaks at its lower edge.
    """
    nodes, weights = _gauss(_PATTERN_QUAD_ORDER)
    lo, hi, rise = basis.seg_lo, basis.seg_hi, basis.below
    fall = rise + 1
    half = 0.5 * (hi - lo)
    z = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes  # (s, q)
    amps = amplitudes[:, None]
    current = np.zeros(z.shape, dtype=complex)
    current[rise] += amps * np.sin(k * (z[rise] - lo[rise, None])) / np.sin(k * basis.w_lo)[:, None]
    current[fall] += amps * np.sin(k * (hi[fall, None] - z[fall])) / np.sin(k * basis.w_hi)[:, None]
    phase = np.exp(1j * k * cos_theta[:, None, None] * z[None])  # (t, s, q)
    per_segment = np.einsum("tsq,sq->ts", phase, current * weights * half[:, None])
    return np.add.reduceat(per_segment, rise[[a for a, _ in basis.groups]], axis=1)


def _pattern_power(
    k: float,
    basis: ModeBasis,
    axial: np.ndarray,
    cos_theta: np.ndarray,
    phi: np.ndarray,
) -> np.ndarray:
    """|sin(theta) * AF|^2 on a (theta, phi) grid, elements factored per wire."""
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    af = np.zeros((cos_theta.size, phi.size), dtype=complex)
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    for (a, _), profile in zip(basis.groups, axial.T):
        radial = np.exp(1j * k * np.outer(sin_theta, basis.x[a] * cos_phi + basis.y[a] * sin_phi))
        af += profile[:, None] * radial
    return (sin_theta[:, None] * np.abs(af)) ** 2


def _check_resolution(resolution_deg: float) -> int:
    """Number of phi steps of a pattern grid; raises DomainError for a bad step."""
    if not (
        isinstance(resolution_deg, (int, float)) and math.isfinite(resolution_deg) and resolution_deg > 0
    ):
        raise DomainError(f"resolution must be positive and finite, got {resolution_deg!r}")
    n_phi = 360.0 / resolution_deg
    if abs(n_phi - round(n_phi)) > 1e-9 or round(n_phi) % 2 != 0 or round(n_phi) < 2:
        raise DomainError(
            f"resolution must divide 360 into an even number of steps, at least 2, got {resolution_deg}"
        )
    return int(round(n_phi))


def far_field(solution: CurrentSolution, resolution_deg: float = 1.0) -> FarField:
    """Directivity over the full sphere on a regular grid.

    The gain normalization divides by radiated power computed with a
    Gauss-Legendre quadrature that is independent of the sample grid.
    """
    n_phi = _check_resolution(resolution_deg)
    n_theta = n_phi // 2 + 1

    k = 2.0 * math.pi * solution.frequency_hz / SPEED_OF_LIGHT
    basis = solution.basis

    theta = np.linspace(0.0, 180.0, n_theta)
    phi = np.arange(n_phi) * resolution_deg
    cos_theta = np.cos(np.radians(theta))
    axial = _axial_transforms(k, basis, solution.amplitudes, cos_theta)
    power = _pattern_power(k, basis, axial, cos_theta, np.radians(phi))

    # radiated power from an independent spherical quadrature
    x_nodes, x_weights = _gauss(_POWER_THETA_ORDER)
    phi_q = (np.arange(_POWER_PHI_SAMPLES) + 0.5) * (2.0 * math.pi / _POWER_PHI_SAMPLES)
    axial_q = _axial_transforms(k, basis, solution.amplitudes, x_nodes)
    power_q = _pattern_power(k, basis, axial_q, x_nodes, phi_q)
    u_const = k**2 * ETA_0 / (32.0 * math.pi**2)
    p_rad = u_const * float(
        (x_weights[:, None] * power_q).sum() * (2.0 * math.pi / _POWER_PHI_SAMPLES)
    )
    if not (p_rad > 0.0 and math.isfinite(p_rad)):
        raise SolverError("radiated power is zero; far field is undefined")

    directivity = (4.0 * math.pi * u_const / p_rad) * power
    with np.errstate(divide="ignore"):
        gain_dbi = 10.0 * np.log10(directivity)
    gain_dbi = np.maximum(gain_dbi, GAIN_FLOOR_DBI)

    peak = math.sqrt(float(power.max()))
    if peak == 0.0:
        raise SolverError("pattern is identically zero on the sample grid")
    magnitude = np.sqrt(power) / peak
    return FarField(
        theta_deg=theta,
        phi_deg=phi,
        gain_dbi=gain_dbi,
        magnitude=magnitude,
        resolution_deg=float(resolution_deg),
        frequency_hz=solution.frequency_hz,
    )


def frequency_sweep(
    design: YagiDesign,
    frequencies_hz: list[float],
    segs_per_element: int = DEFAULT_SEGMENTS_PER_ELEMENT,
    resolution_deg: float = 2.0,
) -> list[SweepPoint]:
    """Impedance and peak gain at each frequency; failures are tagged per point."""
    if not frequencies_hz:
        raise DomainError("frequency sweep needs at least one frequency")
    grid = segment(design, segs_per_element)
    try:
        _check_resolution(resolution_deg)
    except DomainError as exc:
        return [SweepPoint(float(f), None, None, str(exc)) for f in frequencies_hz]
    points: list[SweepPoint] = []
    for f in frequencies_hz:
        try:
            sol = solve_grid(grid, f)
            imp = input_impedance(sol)
            ff = far_field(sol, resolution_deg)
            points.append(SweepPoint(float(f), imp, ff.peak_gain_dbi(), None))
        except (DomainError, SolverError, GeometryError) as exc:
            points.append(SweepPoint(float(f), None, None, str(exc)))
    return points
