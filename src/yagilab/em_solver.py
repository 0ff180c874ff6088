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
wire-to-wire case is a single-node ring at the axis distance.

The fill is built from wave-center segment integrals. A sinusoidal mode
radiates as three point sources at its segment edges (the wave centers) and
is tested by a rising and a falling sinusoid over its two segments, so every
entry is a sum of integrals of one (edge, segment) pair, and each integral
serves all the mode pairs that use it. The integrals are exact: a sinusoid
against the spherical wave integrates to sine and cosine integrals of the
segment's ends (the classical mutual impedance of sinusoidal dipoles), so
an integral needs only a table, per element pair, of one function of the
signed offset of a segment end from an edge. The fill is one loop over
element pairs p <= q, each tabulating its distinct offsets, and the whole
fill evaluates Si and Ci in one call (numpy only, yagilab.special). Because
the matrix is symmetric, one value is written to both mirror places of each
entry pair, so the returned matrix is exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError, DomainError, GeometryError, SolverError
from .geometry import SPEED_OF_LIGHT, ElementRole, YagiDesign
from .special import sici

MU_0 = 4.0e-7 * math.pi
ETA_0 = MU_0 * SPEED_OF_LIGHT  # wave impedance consistent with the project's c

DEFAULT_SEGMENTS_PER_ELEMENT = 21
GAIN_FLOOR_DBI = -180.0

_RING_QUAD_ORDER = 32
_PATTERN_QUAD_ORDER = 12
_CONDITION_LIMIT = 1e12  # lower bound of cond_1(Z) above which a solve is refused

# power-normalization quadrature (independent of the returned sample grid)
_POWER_THETA_ORDER = 64
_POWER_PHI_SAMPLES = 128
# finest pattern grid, 0.05 degrees; a 3-segment simulate at it peaks at about 1.1 GiB
_MAX_PHI_STEPS = 7200

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


@dataclass(frozen=True, eq=False)
class WireGrid:
    """Segmented rods parallel to the z axis: one row per rod (element).

    Rod e stands at (x[e], y[e]) with radius radius[e]; edges[e] holds the
    increasing z of its segment ends. The delta gap sits at the center of
    feed_element's middle segment.
    """

    x: np.ndarray  # (r,) rod x, meters
    y: np.ndarray  # (r,) rod y
    radius: np.ndarray  # (r,) rod radius
    edges: tuple[np.ndarray, ...]  # per rod, the z of its segment ends
    feed_element: int  # rod whose middle segment holds the gap

    @property
    def n_segments(self) -> int:
        return sum(z.size - 1 for z in self.edges)

    def validate(self) -> list[str]:
        """Structural checks; returns human-readable violations (empty if valid)."""
        n = len(self.edges)
        if n == 0:
            return ["grid has no elements"]
        if not len(self.x) == len(self.y) == len(self.radius) == n:
            return [
                f"rod table columns differ in length: x {len(self.x)}, y {len(self.y)},"
                f" radius {len(self.radius)}, edges {n}"
            ]
        if not 0 <= self.feed_element < n:
            return [f"feed element {self.feed_element} out of range 0..{n - 1}"]
        v: list[str] = []
        for e, (z, radius) in enumerate(zip(self.edges, self.radius)):
            if not (math.isfinite(radius) and radius > 0):
                v.append(f"element {e} has a non-positive or non-finite radius {float(radius)!r}")
            lengths = np.diff(z) if z.ndim == 1 and np.all(np.isfinite(z)) else np.zeros(0)
            if not (lengths.size and np.all(lengths > 0)):
                v.append(f"element {e} segment ends are not finite and increasing")
                continue
            if lengths.size % 2 == 0:
                v.append(f"element {e} has an even segment count {lengths.size}")
            if not np.allclose(lengths, lengths[0], rtol=1e-9, atol=0):
                v.append(f"element {e} segments are not uniform")
            # thin-wire validity: a segment shorter than its own radius leaves the
            # wire better modeled as a fat cylinder than a line current
            if np.any(lengths <= radius):
                v.append(f"element {e} has a segment shorter than its radius")
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
        """(theta, phi) of the largest gain sample, in degrees.

        Ties go to the first sample in (theta, phi) row order. A y = 0 array
        has exactly equal mirrored columns, so of two equal mirror peaks the
        one at the lower phi is returned.
        """
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
    edges = []
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
        edges.append(0.5 * (z_edges - z_edges[::-1]))  # exactly antisymmetric about z = 0
    x, y, _, radius, _ = np.array(rows, dtype=float).reshape(-1, 5).T
    return WireGrid(x=x, y=y, radius=radius, edges=tuple(edges), feed_element=feed_element)


def segment(design: YagiDesign, segs_per_element: int = DEFAULT_SEGMENTS_PER_ELEMENT) -> WireGrid:
    """Subdivide every element into the same odd number of uniform segments.

    Raises DomainError unless exactly one element is driven.
    """
    segs = _check_segment_count(segs_per_element)
    driven = [i for i, e in enumerate(design.elements) if e.role is ElementRole.DRIVEN]
    if not driven:
        raise DomainError("design has no driven element to feed")
    if len(driven) > 1:
        raise DomainError(
            f"design has {len(driven)} driven elements ({', '.join(map(str, driven))}); only one can be fed"
        )
    rows = [(e.position_m, 0.0, e.length_m, e.diameter_m / 2.0, i) for i, e in enumerate(design.elements)]
    return _build_grid(rows, segs, driven[0])


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
    rods, groups, edges = [], [], []  # per element with modes: its rod, mode range, split edges
    m = 0
    for e, z in enumerate(grid.edges):
        if e == grid.feed_element:
            within = (z.size - 2) // 2  # the middle segment
            feed_mode = m + within
            feed_length = float(z[within + 1] - z[within])
            z = np.insert(z, within + 1, 0.5 * (z[within] + z[within + 1]))
        if z.size > 2:
            rods.append(e)
            groups.append((m, m + z.size - 2))
            edges.append(z)
            m += z.size - 2
    widths = [np.diff(z) for z in edges]
    element = np.repeat(rods, [b - a for a, b in groups])
    basis = ModeBasis(
        x=grid.x[element],
        y=grid.y[element],
        z_peak=np.concatenate([z[1:-1] for z in edges]),
        w_lo=np.concatenate([w[:-1] for w in widths]),
        w_hi=np.concatenate([w[1:] for w in widths]),
        radius=grid.radius[element],
        element=element,
        feed_mode=feed_mode,
        feed_length_m=feed_length,
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


def _cis(angle: np.ndarray) -> np.ndarray:
    """e^{j angle} of a real array, from its cosine and sine.

    The same values as np.exp(1j * angle) without its complex multiply and
    complex exponential, which take most of that call's time.
    """
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _kernel_arguments(k: float, offsets: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One element pair's Si/Ci arguments k w(u, rho), once per distinct offset in U and -U.

    Returns the arguments, distinct offsets by distance nodes, flattened, and
    the index of W(u) and of W(-u) for every offset u of the pair.
    """
    keys, at = np.unique(np.concatenate([offsets, -offsets]), return_inverse=True)
    u = np.abs(keys)[:, None]
    r_plus = np.hypot(u, rho) + u  # w(-|u|)
    args = k * np.where(keys[:, None] > 0, rho * (rho / r_plus), r_plus).ravel()
    return args, at.reshape(2, *offsets.shape)


def impedance_matrix(basis: ModeBasis, frequency_hz: float) -> np.ndarray:
    """Dense complex-symmetric moment matrix of a mode basis at one frequency.

    Row/column order follows the basis. The matrix is scaled by the
    reciprocal feed segment length so the matching excitation vector of a
    1 V gap is zero except for 1/feed_length at the feed mode.

    Every entry is built from wave-center segment integrals: a source mode is
    three point sources at its segment edges and an observation mode is a
    rising and a falling sinusoid over its two segments, so one integral of
    an (edge, segment) pair serves every mode pair that uses it.

    The integrals are exact. With u the offset of a point of q from an edge
    of p, R = hypot(u, rho) and w(u) = R - u, du/R = -dw/w, so a sinusoid
    against e^{-jkR}/R integrates to F(x) = Ci(x) - j Si(x) at x = k w of
    the segment's ends; R + u is w(-u). Each element pair p <= q takes the
    offsets U of q's edges from p's edges, snapped to p's lattice (its span
    over a whole number of its narrowest segments) when all lie on it to
    roundoff, and tabulates W(u) = sum over the distance nodes rho of
    weight * F(k w(u, rho)) once per distinct offset in U and -U: with the
    ring nodes of p's radius when p == q, at the wires' axis distance
    otherwise. The phases e^{-jku} do not depend on rho, so for a segment
    [lo, hi] of q
        2j rise = e^{-jk lo} (W(lo) - W(hi)) - e^{jk lo} (W(-hi) - W(-lo)),
        2j fall = e^{jk hi} (W(-hi) - W(-lo)) - e^{-jk hi} (W(lo) - W(hi)).
    Every pair's arguments go through one Si/Ci call per fill. For u > 0,
    w = rho * (rho / (R + u)), so nothing cancels and rho^2 is never formed.

    A wire-to-wire block is written to both of its places, and a same-wire
    block is averaged with its transpose, since modes of unequal widths
    whose supports meet give the two orders values up to ~1e-11 apart. The
    result is exactly symmetric.
    """
    f = _check_frequency(frequency_hz)
    k = 2.0 * math.pi * f / SPEED_OF_LIGHT
    _check_array_extent(k, basis, f)
    sin_lo, sin_hi = _sin_widths(k, basis)
    m = basis.n_modes
    z = np.empty((m, m), dtype=complex)

    # ring quadrature for the azimuthally averaged same-wire kernel:
    # (1/pi) * integral over (0, pi) of f(2 a sin(phi/2)) dphi
    ring_nodes, ring_w = _gauss(_RING_QUAD_ORDER)
    ring_phi = 0.5 * math.pi * (ring_nodes + 1.0)
    ring_weights = 0.5 * ring_w  # folded (1/pi) * (pi/2) Jacobian
    axis_weight = np.ones(1)

    w_lo, w_hi = basis.w_lo, basis.w_hi
    # weights of a source mode's three wave centers, its edges z_peak - w_lo, z_peak, z_peak + w_hi
    coefs = np.stack(
        [1.0 / sin_lo, -(np.cos(k * w_lo) / sin_lo + np.cos(k * w_hi) / sin_hi), 1.0 / sin_hi], axis=1
    )
    seg_lo, seg_hi, below = basis.seg_lo, basis.seg_hi, basis.below
    owns = [slice(below[a], below[a] + b - a + 1) for a, b in basis.groups]  # each element's segments
    edges = [np.append(seg_lo[own], seg_hi[own.stop - 1]) for own in owns]

    def block(rise: np.ndarray, fall: np.ndarray, src: slice, obs: slice, first_seg: int) -> np.ndarray:
        """Entries [source n, observation i] from the integrals of n's edges."""
        seg = below[obs] - first_seg
        h = rise[:, seg] / sin_lo[obs] + fall[:, seg + 1] / sin_hi[obs]
        c = coefs[src]
        return c[:, 0:1] * h[:-2] + c[:, 1:2] * h[1:-1] + c[:, 2:3] * h[2:]

    pairs, args = [], []
    for p, e in enumerate(edges):
        span = e[-1] - e[0]
        step = span / np.rint(span / np.min(np.diff(e)))
        a = basis.groups[p][0]
        for q in range(p, len(edges)):
            # q's edges as offsets from p's edges, snapped to exact multiples
            # of p's lattice step when all lie on it to roundoff
            offsets = edges[q] - e[:, None]
            snapped = np.rint(offsets / step) * step
            if np.max(np.abs(snapped - offsets)) <= 16.0 * np.finfo(float).eps * np.max(np.abs(e)):
                offsets = snapped
            c = basis.groups[q][0]
            if q == p:
                rho, rho_weights = 2.0 * basis.radius[a] * np.sin(ring_phi / 2.0), ring_weights
            else:
                rho, rho_weights = np.hypot(basis.x[c] - basis.x[a], basis.y[c] - basis.y[a])[None], axis_weight
            pair_args, at = _kernel_arguments(k, offsets, rho)
            args.append(pair_args)
            pairs.append((p, q, offsets, at, rho_weights))

    x = np.concatenate(args)
    if not np.min(x) > 0.0:  # k w underflows only for a wire thinner than about 1e-160 m
        raise GeometryError(
            f"wire radius {float(np.min(basis.radius)):.4g} m is too thin for a finite kernel"
            f" at {f / 1e6:g} MHz"
        )
    si, ci = sici(x)
    table = np.split(ci - 1j * si, np.cumsum([pair_args.size for pair_args in args[:-1]]))
    for (p, q, offsets, at, rho_weights), values in zip(pairs, table):
        w_table = values.reshape(-1, rho_weights.size) @ rho_weights
        w_pos, w_neg = w_table[at]  # W(u), W(-u)
        down = w_pos[:, :-1] - w_pos[:, 1:]  # W(lo) - W(hi)
        up = w_neg[:, 1:] - w_neg[:, :-1]  # W(-hi) - W(-lo)
        phase = _cis(-k * offsets)  # e^{-jku}
        rise = phase[:, :-1] * down - phase[:, :-1].conj() * up
        fall = phase[:, 1:].conj() * up - phase[:, 1:] * down
        (a, b), (c, d) = basis.groups[p], basis.groups[q]
        pair_block = block(rise, fall, slice(a, b), slice(c, d), owns[q].start)
        if q == p:
            z[a:b, a:b] = 0.5 * (pair_block + pair_block.T)
        else:
            z[a:b, c:d] = pair_block
            z[c:d, a:b] = pair_block.T
    # rise and fall above are 2j times the integrals
    z *= ETA_0 / (8.0 * math.pi * basis.feed_length_m)
    return z


def _check_wire_spacing(basis: ModeBasis) -> None:
    """Raise GeometryError for the first coincident or overlapping element pair.

    Pairs are taken in (lower, higher) index order.
    """
    first = [a for a, _ in basis.groups]
    elements, x, y, radius = basis.element[first], basis.x[first], basis.y[first], basis.radius[first]
    p, q = np.triu_indices(elements.size, k=1)
    with np.errstate(over="ignore"):  # too far apart is not too close; the fill checks it
        d = np.hypot(x[p] - x[q], y[p] - y[q])
    bad = np.flatnonzero((d == 0.0) | (d <= radius[p] + radius[q]))
    if bad.size:
        i = bad[0]
        e, o = int(elements[p[i]]), int(elements[q[i]])
        if d[i] == 0.0:
            raise GeometryError(f"elements {e} and {o} are coincident")
        raise GeometryError(f"elements {e} and {o} overlap (axis spacing {d[i]:.4g} m)")


def _check_array_extent(k: float, basis: ModeBasis, frequency_hz: float) -> None:
    """Raise GeometryError when k times the largest axis distance is not finite.

    The distances are those between wire axes, which the fill's spherical
    waves span, and from each wire axis to the z axis, which the far-field
    phases are taken from. An array that overflows them would fill the
    matrix with NaN.
    """
    first = [a for a, _ in basis.groups]
    x, y = np.append(basis.x[first], 0.0), np.append(basis.y[first], 0.0)
    p, q = np.triu_indices(x.size, k=1)
    with np.errstate(over="ignore"):
        extent = float(np.max(np.hypot(x[p] - x[q], y[p] - y[q])))
        far = first[int(np.argmax(np.hypot(x[:-1], y[:-1])))]
    if not math.isfinite(k * extent):
        raise GeometryError(
            f"array extent {extent:.4g} m is too large for a finite phase at {frequency_hz / 1e6:g} MHz"
            f" (element {int(basis.element[far])} lies farthest from the z axis)"
        )


def solve_currents(matrix: np.ndarray, basis: ModeBasis, frequency_hz: float) -> CurrentSolution:
    """LU solve of a 1 V delta-gap excitation (1/feed_length in the gap row).

    The gap column is solved in one call with four fixed +-1 columns b_j.
    Since ||Z^-1 b||_1 <= ||Z^-1||_1 ||b||_1, the largest ||x_j||_1 / ||b_j||_1
    times ||Z||_1 is a lower bound of the 1-norm condition number of Z (the
    first step of Hager's estimator). SolverError is raised when it exceeds
    1e12, and with an estimate of inf when LU meets an exactly zero pivot.
    """
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

    m = basis.n_modes
    rhs = np.zeros((m, 5), dtype=complex)
    rhs[basis.feed_mode, 0] = 1.0 / basis.feed_length_m
    # column j + 1 flips sign every 2^j rows, so two rows whose indices differ
    # in one of their four lowest bits get opposite signs in some column, and
    # a null vector e_i - e_j of a repeated row shows in that column's solution
    rhs[:, 1:] = 1.0 - 2.0 * ((np.arange(m)[:, None] >> np.arange(4)) & 1)
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        cond = math.inf
    else:
        growth = np.max(np.abs(x).sum(axis=0) / np.abs(rhs).sum(axis=0))
        cond = float(np.linalg.norm(matrix, 1) * growth)
    if not cond <= _CONDITION_LIMIT:
        raise SolverError(f"moment matrix is numerically singular (condition estimate {cond:.3e})")
    amplitudes = x[:, 0]
    residual = float(np.linalg.norm(matrix @ amplitudes - rhs[:, 0]) / np.linalg.norm(rhs[:, 0]))
    return CurrentSolution(
        amplitudes=amplitudes,
        basis=basis,
        frequency_hz=f,
        residual=residual,
    )


def solve_grid(grid: WireGrid, frequency_hz: float) -> CurrentSolution:
    """Fill and solve in one step for a grid's own feed segment."""
    basis = mode_basis(grid)
    matrix = impedance_matrix(basis, frequency_hz)
    return solve_currents(matrix, basis, frequency_hz)


def input_impedance(solution: CurrentSolution) -> ImpedanceResult:
    """Driving-point impedance 1 V / I at the feed gap.

    The feed mode peaks at the gap and every other mode is zero there, so
    the gap current is the feed mode's amplitude.
    """
    i_feed = solution.amplitudes[solution.basis.feed_mode]
    if abs(i_feed) < 1e-15:
        raise SolverError("feed current vanished; input impedance is undefined")
    return ImpedanceResult(z=complex(1.0 / i_feed), frequency_hz=solution.frequency_hz)


def _axial_transforms(
    k: float, basis: ModeBasis, amplitudes: np.ndarray, cos_theta: np.ndarray
) -> np.ndarray:
    """Radiation integrals of the current on each element, shape (theta, element).

    Each entry is integral of I(z) e^{jk cos(theta) z} dz over the element,
    evaluated with Gauss-Legendre per split segment on the summed current:
    the rising half of the mode that peaks at the segment's upper edge plus
    the falling half of the mode that peaks at its lower edge.

    The phase is separable: node q of segment s sits at c_s + h_s x_q, so
    e^{jk cos(theta) z} = e^{jk cos(theta) c_s} e^{jk cos(theta) h_s x_q}.
    Segments of exactly equal half-width h share the (theta, node) factor,
    which is evaluated once per width and applied to their weighted currents
    in one matrix product; the (theta, segment) center phase follows.
    """
    nodes, weights = _gauss(_PATTERN_QUAD_ORDER)
    lo, hi, rise = basis.seg_lo, basis.seg_hi, basis.below
    fall = rise + 1
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    z = center[:, None] + half[:, None] * nodes  # (s, q)
    amps = amplitudes[:, None]
    current = np.zeros(z.shape, dtype=complex)
    current[rise] += amps * np.sin(k * (z[rise] - lo[rise, None])) / np.sin(k * basis.w_lo)[:, None]
    current[fall] += amps * np.sin(k * (hi[fall, None] - z[fall])) / np.sin(k * basis.w_hi)[:, None]
    weighted = current * weights * half[:, None]
    widths, width_of = np.unique(half, return_inverse=True)
    per_segment = np.empty((cos_theta.size, half.size), dtype=complex)
    for g, h in enumerate(widths):
        segs = np.flatnonzero(width_of == g)
        per_segment[:, segs] = _cis(k * np.outer(cos_theta, h * nodes)) @ weighted[segs].T
    per_segment *= _cis(k * np.outer(cos_theta, center))
    return np.add.reduceat(per_segment, rise[[a for a, _ in basis.groups]], axis=1)


def _pattern_power(
    k: float,
    basis: ModeBasis,
    axial: np.ndarray,
    cos_theta: np.ndarray,
    phi: np.ndarray,
) -> np.ndarray:
    """|sin(theta) * AF|^2 on a (theta, phi) grid, elements factored per wire.

    cos_theta must be antisymmetric (row i mirrors row n - 1 - i about
    theta = 90 degrees) and phi a uniform full circle starting at 0 or half
    a step, as the sample grid and the power quadrature are. The radial
    factor e^{jk sin(theta)(x cos(phi) + y sin(phi))} depends on theta only
    through sin(theta), so it is evaluated on the first half of the rows and
    serves their mirrors too. When every wire lies on y = 0 the pattern is
    even in phi: it is evaluated for phi in [0, 180] degrees and the other
    columns are copied from their mirrors, so mirrored samples are exactly
    equal. Any other layout evaluates every column.
    """
    n_t, n_p = cos_theta.size, phi.size
    t, j = np.arange(n_t), np.arange(n_p)
    # the evaluated row and column that each result row and column copies
    rows = np.minimum(t, t[::-1])
    start = round(phi[0] * n_p / math.pi)  # phi[0] in half steps: 0 or 1
    cols = j if np.any(basis.y) else np.minimum(j, (-start - j) % n_p)
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta[: rows.max() + 1] ** 2, 0.0, 1.0))
    phi = phi[: cols.max() + 1]
    heads = [a for a, _ in basis.groups]
    offsets = basis.x[heads, None] * np.cos(phi) + basis.y[heads, None] * np.sin(phi)  # (w, p)
    radial = _cis(k * (sin_theta[:, None, None] * offsets))  # (t/2, w, p)
    pairs = np.stack([t, t[::-1]], axis=1)[: sin_theta.size]  # rows i and n_t - 1 - i share radial[i]
    af = np.empty((n_t, phi.size), dtype=complex)
    af[pairs] = axial[pairs] @ radial
    return ((sin_theta[rows, None] * np.abs(af)) ** 2)[:, cols]


def _check_resolution(resolution_deg: float) -> int:
    """Number of phi steps of a pattern grid; raises DomainError for a bad step."""
    if not (
        isinstance(resolution_deg, (int, float)) and math.isfinite(resolution_deg) and resolution_deg > 0
    ):
        raise DomainError(f"resolution must be positive and finite, got {resolution_deg!r}")
    n_phi = 360.0 / resolution_deg
    if not n_phi < _MAX_PHI_STEPS + 0.5:
        raise DomainError(
            f"resolution {resolution_deg!r} deg is finer than {360.0 / _MAX_PHI_STEPS:g} deg"
            f" (more than {_MAX_PHI_STEPS} phi steps)"
        )
    if abs(n_phi - round(n_phi)) > 1e-9 or round(n_phi) % 2 != 0 or round(n_phi) < 2:
        raise DomainError(
            f"resolution must divide 360 into an even number of steps, at least 2, got {resolution_deg}"
        )
    return int(round(n_phi))


def far_field(solution: CurrentSolution, resolution_deg: float = 1.0) -> FarField:
    """Directivity over the full sphere on a regular grid.

    The gain normalization divides by radiated power computed with a
    Gauss-Legendre quadrature that is independent of the sample grid: 64
    nodes in cos(theta) times 128 midpoint samples in phi. Both grids take
    the per-element radiation integrals (_axial_transforms) and then the
    array factor over the wire positions (_pattern_power), which reuses
    rows across theta = 90 degrees and, on a y = 0 array, columns across
    phi = 0.
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
    """Impedance and peak gain at each frequency from one mode basis; failures are tagged per point."""
    if not frequencies_hz:
        raise DomainError("frequency sweep needs at least one frequency")
    grid = segment(design, segs_per_element)
    try:
        _check_resolution(resolution_deg)
        basis = mode_basis(grid)
    except DomainError as exc:
        return [SweepPoint(float(f), None, None, str(exc)) for f in frequencies_hz]
    points: list[SweepPoint] = []
    for f in frequencies_hz:
        try:
            sol = solve_currents(impedance_matrix(basis, f), basis, f)
            imp = input_impedance(sol)
            ff = far_field(sol, resolution_deg)
            points.append(SweepPoint(float(f), imp, ff.peak_gain_dbi(), None))
        except (DomainError, SolverError) as exc:
            points.append(SweepPoint(float(f), None, None, str(exc)))
    return points
