"""Thin-wire method-of-moments solver for arrays of parallel rods.

Formulation: electric-field integral equation on wire axes, discretized with
overlapping piecewise-sinusoidal dipole modes on segment junctions and tested
with the same functions (Galerkin), so the moment matrix is complex-symmetric
by construction. The driven element's feed segment is split internally at its
center so the delta-gap excitation lands on a junction and the feed unknown is
the gap current itself. A WireGrid and the ModeBasis built from it are both
rod tables with the same rows, one per rod; the fill, the solve and the far
field read the basis's rods and their split segment ends.

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
an integral needs only one function of the signed offset of a segment end
from an edge. mode_basis numbers each element pair's distinct offsets in one
pass over all rods' (edge, edge) pairs; a fill evaluates Si and Ci for all of
them in one call (numpy only, yagilab.special) and builds the whole matrix in
one pass, averaged with its transpose so it is exactly symmetric.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DiscretizationError, DomainError, GeometryError, SolverError
from .geometry import SPEED_OF_LIGHT, ElementRole, YagiDesign, check_frequency
from .special import sici

MU_0 = 4.0e-7 * math.pi
ETA_0 = MU_0 * SPEED_OF_LIGHT  # wave impedance consistent with the project's c

DEFAULT_SEGMENTS_PER_ELEMENT = 21
GAIN_FLOOR_DBI = -180.0

_RING_QUAD_ORDER = 32
_CONDITION_LIMIT = 1e12  # lower bound of cond_1(Z) above which a solve is refused

# a far field's power lattice has at least min(k D + 32, 512) theta steps over 180 degrees, D the array's size
_LATTICE_MARGIN = 32
_MAX_LATTICE_STEPS = 512
# finest pattern grid, 0.05 degrees; a 3-segment simulate at it peaks at about 1.0 GiB
_MAX_PHI_STEPS = 7200
# most modes a basis may hold; a solve at it peaks at about 0.6 GiB
_MAX_MODES = 2250
# most segment ends (modes + 2 per rod) a basis may hold, for its and a fill's (e, e) arrays: past 25 rods
_MAX_EDGES = 2300


@functools.cache
def _ring_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Nodes 2 sin(phi/2) and weights of the same-wire kernel's (1/pi) * integral over (0, pi) dphi."""
    nodes, weights = np.polynomial.legendre.leggauss(_RING_QUAD_ORDER)  # phi = (pi/2)(node + 1)
    return 2.0 * np.sin(0.25 * math.pi * (nodes + 1.0)), 0.5 * weights  # a (1/pi) * (pi/2) Jacobian


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
        malformed = [c for c in ("x", "y", "radius") if not _real_vector(getattr(self, c))]
        malformed += [f"edges[{e}]" for e, z in enumerate(self.edges) if not _real_vector(z)]
        if malformed:
            return [f"rod table {name} is not a 1-D array of real numbers" for name in malformed]
        if not len(self.x) == len(self.y) == len(self.radius) == n:
            return [
                f"rod table columns differ in length: x {len(self.x)}, y {len(self.y)},"
                f" radius {len(self.radius)}, edges {n}"
            ]
        if not isinstance(self.feed_element, (int, np.integer)):
            return [f"feed element {self.feed_element!r} is not an integer index"]
        if not 0 <= self.feed_element < n:
            return [f"feed element {self.feed_element} out of range 0..{n - 1}"]
        v: list[str] = []
        for e, (x, y, z, radius) in enumerate(zip(self.x, self.y, self.edges, self.radius)):
            if not (math.isfinite(x) and math.isfinite(y)):
                v.append(f"element {e} has a non-finite position ({float(x)!r}, {float(y)!r})")
            if not (math.isfinite(radius) and radius > 0):
                v.append(f"element {e} has a non-positive or non-finite radius {float(radius)!r}")
            lengths = np.diff(z.astype(float)) if np.all(np.isfinite(z)) else np.zeros(0)
            if not (lengths.size and np.all(lengths > 0)):
                v.append(f"element {e} segment ends are not finite and increasing")
                continue
            if lengths.size % 2 == 0:
                v.append(f"element {e} has an even segment count {lengths.size}")
            if not np.all(np.abs(lengths - lengths[0]) <= 1e-9 * abs(lengths[0])):
                v.append(f"element {e} segments are not uniform")
            # thin-wire validity: a segment shorter than its own radius leaves the
            # wire better modeled as a fat cylinder than a line current
            if np.any(lengths <= radius):
                v.append(f"element {e} has a segment shorter than its radius")
        return v


def _real_vector(a: object) -> bool:
    """Whether a is a 1-D numpy array of integers or floats."""
    return isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iuf"


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Sinusoidal dipole modes derived from a grid: one row per grid rod, in grid order.

    edges[r] holds rod r's segment ends, the grid's with the feed segment
    split at the gap. One mode sits on each internal junction: the modes of
    rod r are numbered from groups[r][0] upward, and the mode on edges[r][i + 1]
    rises over split segment i of the rod and falls over segment i + 1.
    A rod of one unsplit segment has no junction: its row carries no modes,
    groups[r] == (a, a). The fields after feed_length_m, with read-only
    arrays, are what every fill and far field needs of the geometry alone.
    """

    x: np.ndarray  # (r,) rod x, meters
    y: np.ndarray  # (r,) rod y
    radius: np.ndarray  # (r,) rod radius
    edges: tuple[np.ndarray, ...]  # per rod, the z of its split segment ends
    feed_mode: int  # mode sitting on the feed gap
    feed_length_m: float  # length of the (unsplit) feed segment
    at: np.ndarray  # (e, e) over all rods' edges in order: the W table row of edge b's offset from edge a
    w: np.ndarray  # kernel distances w(u, rho): the ring nodes of every W row of a same-wire pair, then the rest
    n_ring: int  # how many values of w are ring nodes
    widths: np.ndarray  # per edge, the width of the segment above it (0 at a rod's top)
    mode_edge: np.ndarray  # per mode, its lower edge in that order

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """Mode range [a, b) of each rod."""
        ends = list(accumulate(z.size - 2 for z in self.edges))
        return tuple(zip([0, *ends[:-1]], ends))

    @property
    def n_modes(self) -> int:
        return sum(z.size - 2 for z in self.edges)


@dataclass(frozen=True, eq=False)
class CurrentSolution:
    """Mode currents produced by one delta-gap solve.

    amplitudes holds the junction-mode coefficients the linear solve
    produced, paired with basis: mode n carries amplitudes[n] amps at its
    peak. The current anywhere on a wire is the sum of the sinusoidal modes
    over it; no per-segment samples are kept.

    Raises DomainError unless amplitudes holds one finite value per mode of
    basis and frequency_hz is positive and finite.
    """

    amplitudes: np.ndarray  # (m,) complex junction-mode coefficients
    basis: ModeBasis
    frequency_hz: float
    residual: float  # relative residual of the linear solve

    def __post_init__(self) -> None:
        shape, m = np.shape(self.amplitudes), self.basis.n_modes
        if shape != (m,):
            raise DomainError(f"solution has amplitudes of shape {shape} for {m} modes")
        if not np.all(np.isfinite(self.amplitudes)):
            raise DomainError("solution has non-finite mode amplitudes")
        check_frequency(self.frequency_hz)


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
        """(theta, phi) of the first sample in (theta, phi) row order whose linear gain is within 1e-12 of the largest.

        Peaks equal up to rounding, such as the mirror rows of a z-symmetric
        array on a grid with no equator row, go to the lower theta; a y = 0
        array's exactly equal mirror columns go to the lower phi.
        """
        near = self.gain_dbi >= self.peak_gain_dbi() + 10.0 * math.log10(1.0 - 1e-12)
        t, p = np.unravel_index(int(np.argmax(near)), self.gain_dbi.shape)
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
    frequency_hz: float  # as given on a point tagged with an error
    impedance: ImpedanceResult | None
    peak_gain_dbi: float | None
    error: str | None


def _check_segment_count(segs_per_element: int) -> int:
    if not isinstance(segs_per_element, (int, np.integer)):
        raise DomainError(f"segment count must be an integer, got {segs_per_element!r}")
    if segs_per_element < 3:
        raise DomainError(f"need at least 3 segments per element, got {segs_per_element}")
    if segs_per_element % 2 == 0:
        raise DomainError(
            f"segment count must be odd so the feed gap is centered, got {segs_per_element}"
        )
    if segs_per_element > _MAX_MODES:  # the driven rod alone would hold that many modes
        msg = f"segment count {segs_per_element} is more than the {_MAX_MODES} modes a solve allows; use fewer segments"
        raise DiscretizationError(msg)
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

    Raises DomainError unless exactly one element is driven, DiscretizationError past _MAX_MODES segments.
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
    """Single center-fed straight wire on the z axis; at most _MAX_MODES segments."""
    segs = _check_segment_count(segments)
    return _build_grid([(0.0, 0.0, length_m, radius_m, 0)], segs, 0)


def mode_basis(grid: WireGrid) -> ModeBasis:
    """Junction modes for a validated grid, with the feed segment split at the gap.

    The basis keeps the grid's rods, their numbering and their x, y and
    radius arrays, and tabulates what its fills and far fields need of the
    geometry. Raises GeometryError for a grid that fails validate() and for
    coincident or overlapping rods, DiscretizationError past _MAX_MODES modes or _MAX_EDGES segment ends.
    """
    violations = grid.validate()
    if violations:
        raise GeometryError("; ".join(violations))
    m = grid.n_segments - len(grid.edges) + 1  # a mode per junction, one more for the split
    if m > _MAX_MODES:
        raise DiscretizationError(f"grid has {m} modes, more than the {_MAX_MODES} a solve allows; use fewer segments")
    ends = m + 2 * len(grid.edges)  # those of the split segments
    if ends > _MAX_EDGES:
        msg = f"grid has {ends} segment ends, more than the {_MAX_EDGES} a solve allows; use fewer rods or segments"
        raise DiscretizationError(msg)
    _check_wire_spacing(grid)
    edges, feed = [np.asarray(z, dtype=float) for z in grid.edges], grid.feed_element
    z = edges[feed]
    within = (z.size - 2) // 2  # the middle segment
    edges[feed] = np.insert(z, within + 1, 0.5 * (z[within] + z[within + 1]))
    return ModeBasis(
        x=grid.x,
        y=grid.y,
        radius=grid.radius,
        edges=tuple(edges),
        feed_mode=sum(e.size - 2 for e in grid.edges[:feed]) + within,
        feed_length_m=float(z[within + 1] - z[within]),
        **_kernel_table(grid, edges),
    )


def _kernel_table(grid: WireGrid, edges: list[np.ndarray]) -> dict:
    """The kernel table fields of the ModeBasis of a grid whose rods have these split segment ends.

    Edge pair (a, b) takes the offset u of edge b from edge a, snapped to the lattice of p (its span
    over a whole number of its narrowest segments), p <= q the rods of the edge pair's element pair,
    when all that element pair's offsets lie on it to roundoff. Ranking u and sorting (pair, rank) gives
    the W rows: same-wire pairs, then p < q in row order, each in increasing u; a row's distance nodes
    are the ring nodes of p's radius when p == q, the wires' axis distance otherwise.
    """
    ring, _ = _ring_quadrature()
    n, sizes = len(edges), [e.size for e in edges]
    rod = np.repeat(np.arange(n), sizes)
    expand = np.ix_(rod, rod)  # indexes an (n, n) array of element pairs into an (e, e) one of edge pairs
    first = np.cumsum([0] + sizes[:-1])  # each rod's first edge
    steps = np.array([(e[-1] - e[0]) / np.rint((e[-1] - e[0]) / np.min(np.diff(e))) for e in edges])
    tolerances = 16.0 * np.finfo(float).eps * np.array([np.max(np.abs(e)) for e in edges])
    p, q = np.sort(np.indices((n, n)), axis=0)  # each element pair's lower and higher rod
    z = np.concatenate(edges)
    at = np.empty((z.size, z.size), dtype=np.intp)  # first, so freed (e, e) temporaries give memory back
    # rods too far apart for a finite distance give NaN here; a fill refuses them first
    with np.errstate(over="ignore", invalid="ignore"):
        u = z - z[:, None]
        step = steps[p][expand]
        snapped = np.rint(u / step) * step
        worst = np.maximum.reduceat(np.maximum.reduceat(np.abs(snapped - u), first, axis=0), first, axis=1)
        np.copyto(u, snapped, where=(worst <= tolerances[p])[expand])  # all or none of an element pair
        del step, snapped  # each (e, e) array goes once used, keeping the peak below a fill's
        values, rank = np.unique(u, return_inverse=True)
        key = np.where(p == q, p, n + n * p + q)[expand] * values.size + rank.reshape(u.shape)  # (pair id, rank)
        del u, rank
        keys, inverse = np.unique(key, return_inverse=True)
        at[...] = inverse.reshape(at.shape)
        same = np.searchsorted(keys, n * values.size)  # the rows of same-wire pairs, which come first
        w = np.empty(same * ring.size + keys.size - same)  # ahead of the row arrays, so the heap shrinks as they go
        pair, u = np.divmod(keys, values.size)
        u = np.repeat(values[u], np.where(pair < n, ring.size, 1))  # each row's offset, once per distance node
        # a pair id indexes the radii, then the (n, n) axis distances
        rho = np.concatenate([grid.radius, np.hypot(grid.x - grid.x[:, None], grid.y - grid.y[:, None]).ravel()])[pair]
        rho = np.concatenate([(rho[:same, None] * ring).ravel(), rho[same:]])  # each row's distance nodes
        np.add(np.hypot(np.abs(u), rho), np.abs(u), out=w)  # R + |u|, which is w(-|u|)
        np.multiply(rho, rho / w, out=w, where=u > 0)  # w(u) for u > 0: nothing cancels and rho^2 is never formed
    widths = np.concatenate([np.append(np.diff(e), 0.0) for e in edges])  # 0 at each rod's top edge
    mode_edge = np.flatnonzero(np.concatenate([np.arange(e.size) < e.size - 2 for e in edges]))
    for a in (at, w, widths, mode_edge):
        a.flags.writeable = False
    return dict(at=at, w=w, n_ring=same * ring.size, widths=widths, mode_edge=mode_edge)


def _sin_widths(k: float, widths: np.ndarray) -> np.ndarray:
    """sin(k*w) per segment, guarding against half-wave-long segments."""
    if np.max(k * widths) >= 0.95 * math.pi:
        raise DiscretizationError(
            "segments approach a half wavelength; sinusoidal interpolation needs"
            " a finer grid at this frequency"
        )
    return np.sin(k * widths)


def _wave_center_weights(k: float, basis: ModeBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per mode, its three wave-center weights.

    The weights of a mode's lower edge, peak and upper edge are 1/sin(k w_lo),
    -(cot(k w_lo) + cot(k w_hi)) and 1/sin(k w_hi), w_lo and w_hi its segment
    widths: the finite-dipole field of Balanis, Antenna Theory, ch. 4.
    """
    lo, sin_w, cos_w = basis.mode_edge, _sin_widths(k, basis.widths), np.cos(k * basis.widths)
    sin_lo, sin_hi = sin_w[lo], sin_w[lo + 1]
    mid = -(cos_w[lo] / sin_lo + cos_w[lo + 1] / sin_hi)
    return 1.0 / sin_lo, mid, 1.0 / sin_hi


def _cis(angle: np.ndarray) -> np.ndarray:
    """e^{j angle} of a real array, from its cosine and sine.

    The same values as np.exp(1j * angle) without its complex multiply and
    complex exponential, which take most of that call's time.
    """
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def impedance_matrix(basis: ModeBasis, frequency_hz: float) -> np.ndarray:
    """Dense complex-symmetric moment matrix of a mode basis at one frequency.

    Row/column order follows the basis. The matrix is scaled by the
    reciprocal feed segment length so the matching excitation vector of a
    1 V gap is zero except for 1/feed_length at the feed mode.

    Entries are wave-center segment integrals (see the module docstring). With u the offset of a point of a segment
    from an edge, R = hypot(u, rho) and w(u) = R - u, du/R = -dw/w, so a sinusoid
    against e^{-jkR}/R integrates to F(x) = Ci(x) - j Si(x) at x = k w of
    the segment's ends; R + u is w(-u). A fill evaluates F once per value of
    basis.w and sums each offset's distance nodes rho into W(u); gathered
    through basis.at, W(u) at [a, b] is that of edge b's offset from edge a,
    and W(-u) is its transpose. The phases e^{-jku} do not depend on rho, so for a segment [lo, hi]
        2j rise = e^{-jk lo} (W(lo) - W(hi)) - e^{jk lo} (W(-hi) - W(-lo)),
        2j fall = e^{jk hi} (W(-hi) - W(-lo)) - e^{-jk hi} (W(lo) - W(hi)).

    The matrix is averaged with its transpose, since modes of unequal widths
    whose supports meet give the two orders values up to ~1e-11 apart, so it
    is exactly symmetric.
    """
    f = check_frequency(frequency_hz)
    k = 2.0 * math.pi * f / SPEED_OF_LIGHT
    _check_array_extent(k, basis, f)
    c_lo, c_mid, c_hi = _wave_center_weights(k, basis)
    x = k * basis.w
    if not np.min(x) > 0.0:  # k w underflows only for a wire thinner than about 1e-160 m
        raise GeometryError(
            f"wire radius {float(np.min(basis.radius)):.4g} m is too thin for a finite kernel"
            f" at {f / 1e6:g} MHz"
        )
    si, ci = sici(x)
    values, n_ring = ci - 1j * si, basis.n_ring
    table = np.concatenate([values[:n_ring].reshape(-1, _RING_QUAD_ORDER) @ _ring_quadrature()[1], values[n_ring:]])
    del x, si, ci, values  # one or two floats per value of basis.w, dead before the (e, e) phase peaks
    w_pos = table[basis.at]  # W(u)
    down = w_pos[:, :-1] - w_pos[:, 1:]  # W(lo) - W(hi)
    up = w_pos.T[:, 1:] - w_pos.T[:, :-1]  # W(-hi) - W(-lo)
    del w_pos  # each (e, e) array goes once used, keeping the peak near the Si/Ci call's
    edge_phase = _cis(-k * np.concatenate(basis.edges))
    phase = np.outer(edge_phase.conj(), edge_phase)  # e^{-jku}
    rise = phase[:, :-1] * down - phase[:, :-1].conj() * up
    fall = phase[:, 1:].conj() * up - phase[:, 1:] * down
    del down, up, phase
    # each observation mode rises over the segment above its lower edge and falls over
    # the next, each over its sin(k w); each source mode weights three consecutive edges
    lo = basis.mode_edge
    h = rise[:, lo] * c_lo + fall[:, lo + 1] * c_hi
    del rise, fall
    z = c_lo[:, None] * h[lo] + c_mid[:, None] * h[lo + 1] + c_hi[:, None] * h[lo + 2]
    return (z + z.T) * (ETA_0 / (16.0 * math.pi * basis.feed_length_m))  # rise and fall are 2j times the integrals


def _check_wire_spacing(rods: WireGrid | ModeBasis) -> None:
    """Raise GeometryError for the first coincident or overlapping element pair.

    Pairs are taken in (lower, higher) index order.
    """
    x, y, radius = rods.x, rods.y, rods.radius
    p, q = np.triu_indices(x.size, k=1)
    with np.errstate(over="ignore"):  # too far apart is not too close; the fill checks it
        d = np.hypot(x[p] - x[q], y[p] - y[q])
    bad = np.flatnonzero((d == 0.0) | (d <= radius[p] + radius[q]))
    if bad.size:
        i = bad[0]
        if d[i] == 0.0:
            raise GeometryError(f"elements {p[i]} and {q[i]} are coincident")
        raise GeometryError(f"elements {p[i]} and {q[i]} overlap (axis spacing {d[i]:.4g} m)")


def _check_array_extent(k: float, basis: ModeBasis, frequency_hz: float) -> None:
    """Raise GeometryError when k times the largest axis distance is not finite.

    The distances are those between wire axes, which the fill's spherical
    waves span, and from each wire axis to the z axis, which the far-field
    phases are taken from. An array that overflows them would fill the
    matrix with NaN.
    """
    x, y = np.append(basis.x, 0.0), np.append(basis.y, 0.0)
    p, q = np.triu_indices(x.size, k=1)
    with np.errstate(over="ignore"):
        extent = float(np.max(np.hypot(x[p] - x[q], y[p] - y[q])))
        far = int(np.argmax(np.hypot(basis.x, basis.y)))
    if not math.isfinite(k * extent):
        raise GeometryError(
            f"array extent {extent:.4g} m is too large for a finite phase at {frequency_hz / 1e6:g} MHz"
            f" (element {far} lies farthest from the z axis)"
        )


def solve_currents(matrix: np.ndarray, basis: ModeBasis, frequency_hz: float) -> CurrentSolution:
    """LU solve of a 1 V delta-gap excitation (1/feed_length in the gap row).

    The gap column is solved in one call with four fixed +-1 columns b_j.
    Since ||Z^-1 b||_1 <= ||Z^-1||_1 ||b||_1, the largest ||x_j||_1 / ||b_j||_1
    times ||Z||_1 is a lower bound of the 1-norm condition number of Z (the
    first step of Hager's estimator). SolverError is raised when it exceeds
    1e12, and with an estimate of inf when LU meets an exactly zero pivot.
    """
    f = check_frequency(frequency_hz)
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


def _edge_weights(k: float, basis: ModeBasis, amplitudes: np.ndarray) -> np.ndarray:
    """Per edge of the basis, W_j: the sum of amplitude * wave-center weight over the modes that use it.

    The weights of all rods are scattered onto their edges in one pass, through
    the basis's mode_edge index: mode n weights edges lo[n], lo[n] + 1 and lo[n] + 2.
    """
    c_lo, c_mid, c_hi = _wave_center_weights(k, basis)
    lo, weights = basis.mode_edge, np.zeros(basis.widths.size, dtype=complex)
    weights[lo] = amplitudes * c_lo
    weights[lo + 1] += amplitudes * c_mid
    weights[lo + 2] += amplitudes * c_hi
    return weights


def _axial_transforms(k: float, basis: ModeBasis, weights: np.ndarray, cos_theta: np.ndarray) -> np.ndarray:
    """Radiation integrals of the current on each rod at +-cos(theta), shape (theta, 2, rod), in closed form.

    cos_theta holds the upper hemisphere, cos(theta) >= 0: [:, 0] is taken there and
    [:, 1] at the mirrored direction -cos(theta). Each entry is integral of
    I(z) e^{j alpha z} dz over the rod, alpha = k cos(theta). With W_j the edge weights,
        integral = sum_j W_j e^{j alpha z_j} / (k sin^2 theta), and 0 where sin(theta) = 0.
    A mode radiates nothing along the axis, so sum_j W_j e^{j s k z_j} = 0 for s = +-1.
    Each row subtracts it for the nearer pole s = sign(cos theta); with d = 1 - |cos theta|,
    exact for |cos theta| >= 1/2, nothing then cancels as sin(theta) -> 0:
        e^{j alpha z} - e^{j s k z} = -2j s sin(k d z / 2) e^{jk (cos theta + s) z / 2},
        k sin^2 theta = k d (1 + |cos theta|).
    At -cos(theta), s and the scale change sign and the wave factor is the conjugate,
    while sin(k d z / 2) is the same, for any current.
    """
    half_kz = 0.5 * k * np.concatenate(basis.edges)
    d = 1.0 - cos_theta
    scale = np.zeros(d.shape)
    np.divide(-2.0, k * d * (1.0 + cos_theta), out=scale, where=d > 0.0)
    sines = np.sin(np.outer(d, half_kz)) * weights
    wave = _cis(np.outer(cos_theta + 1.0, half_kz))
    first = np.cumsum([0] + [e.size for e in basis.edges[:-1]])
    upper = np.add.reduceat(sines * wave, first, axis=1)
    lower = np.add.reduceat(sines * wave.conj(), first, axis=1)
    return np.stack([upper, -lower], axis=1) * (1j * scale)[:, None, None]


def _phi_columns(basis: ModeBasis, n_phi: int) -> np.ndarray:
    """For each of n_phi columns of a full circle from phi = 0, the evaluated column it copies.

    When every wire lies on y = 0 the pattern is even in phi: only phi in [0, 180]
    degrees is evaluated and the other columns copy their mirrors, so mirrored
    samples are exactly equal. Any other layout evaluates every column.
    """
    j = np.arange(n_phi)
    return j if np.any(basis.y) else np.minimum(j, -j % n_phi)


def _grid_radial(k: float, basis: ModeBasis, step: float, n_rows: int, n_cols: int) -> np.ndarray:
    """The array factor's radial phases e^{jk sin(theta)(x cos(phi) + y sin(phi))}, shape (theta, rod, phi).

    theta = i step and phi = j step, i < n_rows and j < n_cols, share their step, so
        sin(theta)(x cos(phi) + y sin(phi)) = [x sin(theta + phi) - y cos(theta + phi)] / 2
                                            + [x sin(theta - phi) + y cos(theta - phi)] / 2,
    and the phase is plus[i + j] * minus[i - j], each table one row per rod of
    n_rows + n_cols - 1 entries. Sliding windows over the tables read them
    without copying.
    """
    n = np.arange(n_rows + n_cols - 1)
    angles = np.stack([n, n - (n_cols - 1)]) * step  # i + j, then i - j, both increasing
    x, y = basis.x[:, None, None], basis.y[:, None, None]
    tables = _cis(0.5 * k * (x * np.sin(angles) + y * np.array([[-1.0], [1.0]]) * np.cos(angles)))
    plus = sliding_window_view(tables[:, 0], n_cols, axis=1)  # [rod, i, j] = plus[i + j]
    minus = sliding_window_view(tables[:, 1], n_cols, axis=1)[:, :, ::-1]  # [rod, i, j] = minus[i - j]
    radial = np.empty((n_rows, basis.x.size, n_cols), dtype=complex)  # C order, as the batched matmul reads it
    return np.multiply(plus.transpose(1, 0, 2), minus.transpose(1, 0, 2), out=radial)


def _pattern_power(axial: np.ndarray, radial: np.ndarray, sin_theta: np.ndarray) -> np.ndarray:
    """|sin(theta) * AF|^2 of both hemispheres, shape (theta, 2, phi), elements factored per wire.

    axial is _axial_transforms' (theta, 2, rod), radial the (theta, rod, phi) phases,
    which depend on theta only through sin(theta) and so serve both hemispheres.
    """
    af = axial @ radial
    return (af.real**2 + af.imag**2) * (sin_theta**2)[:, None, None]


def _intensity_scale(k: float) -> float:
    """Radiation intensity, per steradian, of a unit pattern power |sin(theta) * AF|^2."""
    return k**2 * ETA_0 / (32.0 * math.pi**2)


def _clenshaw_curtis(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights in cos(theta) of the rows theta_i = i pi / n, i <= n / 2 (Waldvogel, BIT 46, 2006).

    w_i = (c_i / n)(1 - sum_{j=1}^{n // 2} b_j cos(2 j theta_i) / (4 j^2 - 1)), c_i = 1 at the pole and 2
    elsewhere, b_j = 1 at j = n / 2 and 2 elsewhere, for odd n too; the sum is the real part of one FFT.
    """
    j = np.arange(1, n // 2 + 1)
    a = np.zeros(n)
    a[j] = np.where(2 * j == n, 1.0, 2.0) / (4.0 * j**2 - 1.0)
    return (1.0 - np.fft.rfft(a).real) * np.where(np.arange(n // 2 + 1) == 0, 1.0 / n, 2.0 / n)


def _sphere_samples(
    k: float, basis: ModeBasis, weights: np.ndarray, step: float, n_steps: int
) -> tuple[np.ndarray, float]:
    """Pattern power on a grid of theta and phi steps step = pi / n_steps, and the power the rods radiate.

    weights are the rods' edge weights (_edge_weights). The power integrates one lattice of steps
    step / m: Clenshaw-Curtis in cos(theta) and the rectangle rule in phi, each sample counted as
    often as _phi_columns copies it. m is the smallest integer for which n = m n_steps is at least
    min(k D + 32, 512), D = hypot(largest axis distance between rods, z extent of all segment ends);
    past the cap (arrays over about 76 wavelengths) the integral aliases. Every m-th row and column
    of the lattice's _pattern_power samples (row with cos(theta) >= 0, hemisphere, column) are the grid's.
    """
    x, y, z = basis.x, basis.y, np.concatenate(basis.edges)
    with np.errstate(over="ignore"):  # a far but finite rod sizes the lattice at its cap
        size = math.hypot(float(np.max(np.hypot(x[:, None] - x, y[:, None] - y))), float(z.max() - z.min()))
    m = math.ceil(min(k * size + _LATTICE_MARGIN, _MAX_LATTICE_STEPS) / n_steps)
    n = m * n_steps
    n_upper, n_lower = n // 2 + 1, (n + 1) // 2  # rows with cos(theta) >= 0, and those with a mirror row
    cos_theta = np.cos(np.radians(np.linspace(0.0, 180.0, n + 1)[:n_upper]))
    cols = _phi_columns(basis, 2 * n)
    radial = _grid_radial(k, basis, step / m, n_upper, int(cols.max()) + 1)
    power = _pattern_power(_axial_transforms(k, basis, weights, cos_theta), radial, np.sqrt(1.0 - cos_theta**2))
    del radial  # the largest array of a fine grid, freed before the far field's expansion
    w = _clenshaw_curtis(n)
    total = (w @ power[:, 0] + w[:n_lower] @ power[:n_lower, 1]) @ np.bincount(cols)
    return power[::m, :, ::m], _intensity_scale(k) * float(total) * (math.pi / n)


def _check_resolution(resolution_deg: float) -> int:
    """Number of phi steps of a pattern grid; raises DomainError for a bad step.

    The step is any real number of degrees, numpy scalars included, but not a bool.
    """
    if not isinstance(resolution_deg, numbers.Real) or isinstance(resolution_deg, bool):
        raise DomainError(f"resolution must be a real number of degrees, got {resolution_deg!r}")
    if not (math.isfinite(resolution_deg) and resolution_deg > 0):
        raise DomainError(f"resolution must be positive and finite, got {resolution_deg!r}")
    n_phi = 360.0 / float(resolution_deg)
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

    The samples and the radiated power the gain is normalized by come from
    one sphere lattice (_sphere_samples): the grid itself when it resolves
    the array, else the grid refined by the smallest integer factor that
    does. The evaluated samples are expanded to the full grid last.

    Raises DomainError for a bad resolution.
    """
    n_phi = _check_resolution(resolution_deg)
    n_theta = n_phi // 2 + 1
    n_lower = n_theta // 2  # rows mirrored from cos(theta) > 0; the equator row, if any, is not

    basis, k = solution.basis, 2.0 * math.pi * solution.frequency_hz / SPEED_OF_LIGHT
    weights = _edge_weights(k, basis, np.asarray(solution.amplitudes))
    power, p_rad = _sphere_samples(k, basis, weights, math.radians(resolution_deg), n_phi // 2)
    if not (p_rad > 0.0 and math.isfinite(p_rad)):
        raise SolverError("radiated power is zero; far field is undefined")
    peak = math.sqrt(max(float(power[:, 0].max()), float(power[:n_lower, 1].max())))
    if peak == 0.0:
        raise SolverError("pattern is identically zero on the sample grid")
    cols = _phi_columns(basis, n_phi)

    def expand(samples: np.ndarray) -> np.ndarray:
        """The (theta, phi) grid of evaluated (row, hemisphere, column) samples."""
        return np.concatenate([samples[:, 0], samples[n_lower - 1 :: -1, 1]]).take(cols, axis=1)

    with np.errstate(divide="ignore"):
        gain_dbi = 10.0 * np.log10((4.0 * math.pi * _intensity_scale(k) / p_rad) * power)
    return FarField(
        theta_deg=np.linspace(0.0, 180.0, n_theta),
        phi_deg=np.arange(n_phi) * resolution_deg,
        gain_dbi=expand(np.maximum(gain_dbi, GAIN_FLOOR_DBI)),
        magnitude=expand(np.sqrt(power) / peak),
        resolution_deg=float(resolution_deg),
        frequency_hz=solution.frequency_hz,
    )


def frequency_sweep(grid: WireGrid, frequencies_hz: Iterable[float], resolution_deg: float = 2.0) -> list[SweepPoint]:
    """Impedance and peak gain of a grid at each frequency, from one mode basis.

    Each point is what solve_grid, input_impedance and far_field give at its
    frequency; the basis is built once for all of them. A bad resolution or
    a grid that mode_basis rejects tags every point with its error before
    any fill, and a point whose fill, solve or far field fails is tagged
    with that error. Raises DomainError when frequencies_hz, any iterable, is empty.
    """
    frequencies_hz = list(frequencies_hz)
    if not frequencies_hz:
        raise DomainError("frequency sweep needs at least one frequency")
    try:
        _check_resolution(resolution_deg)
        basis = mode_basis(grid)
    except DomainError as exc:
        return [SweepPoint(f, None, None, str(exc)) for f in frequencies_hz]
    points: list[SweepPoint] = []
    for f in frequencies_hz:
        try:
            sol = solve_currents(impedance_matrix(basis, f), basis, f)
            imp = input_impedance(sol)
            ff = far_field(sol, resolution_deg)
            points.append(SweepPoint(sol.frequency_hz, imp, ff.peak_gain_dbi(), None))
        except (DomainError, SolverError) as exc:
            points.append(SweepPoint(f, None, None, str(exc)))
    return points
