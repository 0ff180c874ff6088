"""Dense column-loop moment-matrix fill, kept as the reference for the solver.

Every column is filled for every row: wire-to-wire entries with the
axis-distance kernel, same-wire entries with the ring-averaged kernel, then
the matrix is averaged with its transpose. The three functions below are the
package's fill as it was before the structured fill replaced it, copied
without edits to the algorithm (its input guard checks the rod count, since
a grid of z-directed rods cannot hold a wire that is not parallel to z, and
it reads the per-mode columns that mode_columns.per_mode expands from the
rod table); tests compare em_solver.impedance_matrix against it. It shares
only the mode basis, checks and constants with the package.
"""

import math

import numpy as np

from mode_columns import per_mode
from yagilab.em_solver import (
    _RING_QUAD_ORDER,
    ETA_0,
    WireGrid,
    _check_wire_spacing,
    _sin_widths,
    mode_basis,
)
from yagilab.errors import DomainError
from yagilab.geometry import SPEED_OF_LIGHT, check_frequency

_AXIAL_QUAD_ORDER = 32
_AXIAL_RULE = np.polynomial.legendre.leggauss(_AXIAL_QUAD_ORDER)  # Gauss-Legendre nodes and weights


def _tent_integrals(
    k: float,
    centers: np.ndarray,
    coefs: np.ndarray,
    rho: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    z_zero: np.ndarray,
    sign: float,
    sin_w: np.ndarray,
) -> np.ndarray:
    """Half-tent integrals of sin(k(z - z_zero)) against spherical waves.

    Returns sum over the three wave centers (weighted by coefs) of
    integral over [lo, hi] of sin(k*sign*(z - z_zero))/sin_w * e^{-jkR}/R dz
    with R = hypot(z - center, rho); vectorized over the leading axis.
    """
    t_lo = np.arcsinh((lo[:, None] - centers) / rho[:, None])
    t_hi = np.arcsinh((hi[:, None] - centers) / rho[:, None])
    mid = 0.5 * (t_hi + t_lo)
    half = 0.5 * (t_hi - t_lo)
    nodes, weights = _AXIAL_RULE
    t = mid[..., None] + half[..., None] * nodes
    z = centers[None, :, None] + rho[:, None, None] * np.sinh(t)
    beta = np.sin(k * sign * (z - z_zero[:, None, None])) / sin_w[:, None, None]
    vals = beta * np.exp(-1j * k * rho[:, None, None] * np.cosh(t))
    return (((vals * weights).sum(axis=-1) * half) * coefs).sum(axis=-1)


def _tent_integrals_ring(
    k: float,
    centers: np.ndarray,
    coefs: np.ndarray,
    ring_rho: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    z_zero: np.ndarray,
    sign: float,
    sin_w: np.ndarray,
    ring_weights: np.ndarray,
) -> np.ndarray:
    """Same as _tent_integrals with rho averaged around the wire surface."""
    t_lo = np.arcsinh((lo[:, None, None] - centers[None, :, None]) / ring_rho)
    t_hi = np.arcsinh((hi[:, None, None] - centers[None, :, None]) / ring_rho)
    mid = 0.5 * (t_hi + t_lo)
    half = 0.5 * (t_hi - t_lo)
    nodes, weights = _AXIAL_RULE
    t = mid[..., None] + half[..., None] * nodes
    z = centers[None, :, None, None] + ring_rho[None, None, :, None] * np.sinh(t)
    beta = np.sin(k * sign * (z - z_zero[:, None, None, None])) / sin_w[:, None, None, None]
    vals = beta * np.exp(-1j * k * ring_rho[None, None, :, None] * np.cosh(t))
    per_ring = (vals * weights).sum(axis=-1) * half  # (m, 3, ring)
    return ((per_ring * ring_weights).sum(axis=-1) * coefs).sum(axis=-1)


def impedance_matrix(grid: WireGrid, frequency_hz: float, symmetrize: bool = True) -> np.ndarray:
    """Dense complex-symmetric moment matrix for a grid at one frequency.

    Row/column order follows mode_basis(grid). The matrix is scaled by the
    reciprocal feed segment length so the matching excitation vector is zero
    except for voltage/feed_length at the feed mode. The Galerkin fill is
    symmetric up to quadrature roundoff; symmetrize=False skips the final
    (Z + Z^T)/2 cleanup so that roundoff can be inspected.
    """
    f = check_frequency(frequency_hz)
    if len(grid.edges) == 0:
        raise DomainError("grid has no elements")
    rods = mode_basis(grid)
    _check_wire_spacing(rods)
    basis = per_mode(rods)

    k = 2.0 * math.pi * f / SPEED_OF_LIGHT
    sines = [_sin_widths(k, np.diff(z)) for z in rods.edges]
    sin_lo = np.concatenate([s[:-1] for s in sines])
    sin_hi = np.concatenate([s[1:] for s in sines])
    m = rods.n_modes
    z = np.empty((m, m), dtype=complex)

    # ring quadrature for the azimuthally averaged same-wire kernel:
    # (1/pi) * integral over (0, pi) of f(2 a sin(phi/2)) dphi
    ring_nodes, ring_w = np.polynomial.legendre.leggauss(_RING_QUAD_ORDER)
    ring_phi = 0.5 * math.pi * (ring_nodes + 1.0)
    ring_weights = 0.5 * ring_w  # folded (1/pi) * (pi/2) Jacobian

    obs_lo = basis.z_peak - basis.w_lo
    obs_hi = basis.z_peak + basis.w_hi
    for n in range(m):
        centers = np.array(
            [basis.z_peak[n] - basis.w_lo[n], basis.z_peak[n], basis.z_peak[n] + basis.w_hi[n]]
        )
        coefs = np.array(
            [
                1.0 / sin_lo[n],
                -(math.cos(k * basis.w_lo[n]) / sin_lo[n] + math.cos(k * basis.w_hi[n]) / sin_hi[n]),
                1.0 / sin_hi[n],
            ]
        )
        same = (basis.x == basis.x[n]) & (basis.y == basis.y[n])
        rho = np.hypot(basis.x - basis.x[n], basis.y - basis.y[n])
        rho[same] = basis.radius[n]  # placeholder, replaced by the ring average
        col = np.zeros(m, dtype=complex)
        rising = (obs_lo, basis.z_peak, obs_lo, 1.0, sin_lo)
        falling = (basis.z_peak, obs_hi, obs_hi, -1.0, sin_hi)
        for lo, hi, z_zero, sign, sin_w in (rising, falling):
            far = _tent_integrals(k, centers, coefs, rho, lo, hi, z_zero, sign, sin_w)
            col[~same] += far[~same]
            idx = np.nonzero(same)[0]
            ring_rho = 2.0 * basis.radius[n] * np.sin(ring_phi / 2.0)
            col[idx] += _tent_integrals_ring(
                k,
                centers,
                coefs,
                ring_rho,
                lo[idx],
                hi[idx],
                z_zero[idx],
                sign,
                sin_w[idx],
                ring_weights,
            )
        z[:, n] = col
    z *= 1j * ETA_0 / (4.0 * math.pi * rods.feed_length_m)
    if not symmetrize:
        return z
    return (z + z.T) / 2.0
