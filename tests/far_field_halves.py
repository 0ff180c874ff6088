"""Per-half-tent far field, kept as the reference for the solver.

Each mode's radiation integral is taken over its two half-tents separately
and the modes are merged per wire through a dict keyed by (x, y). The three
functions below are the package's far field as it was before the
per-segment form replaced it, copied without edits but for reading the
per-mode columns that mode_columns.per_mode expands from the rod table;
tests compare em_solver.far_field against it. It shares only the mode
basis, result types and constants with the package.
"""

import math
from types import SimpleNamespace

import numpy as np

from mode_columns import per_mode
from yagilab.em_solver import (
    ETA_0,
    GAIN_FLOOR_DBI,
    CurrentSolution,
    FarField,
    WireGrid,
)
from yagilab.errors import DomainError, SolverError
from yagilab.geometry import SPEED_OF_LIGHT

_PATTERN_QUAD_ORDER = 12  # Gauss-Legendre nodes per half-tent
# power-normalization quadrature (independent of the returned sample grid)
_POWER_THETA_ORDER = 64
_POWER_PHI_SAMPLES = 128


def _axial_transforms(
    k: float, basis: SimpleNamespace, amplitudes: np.ndarray, cos_theta: np.ndarray
) -> dict[tuple[float, float], np.ndarray]:
    """Per-wire radiation integrals of the expansion, keyed by wire (x, y).

    Each entry is integral of I(z) e^{jk cos(theta) z} dz over the wire,
    evaluated with Gauss-Legendre per half-tent.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_PATTERN_QUAD_ORDER)
    sin_lo = np.sin(k * basis.w_lo)
    sin_hi = np.sin(k * basis.w_hi)
    u = cos_theta

    def half(zlo: np.ndarray, zhi: np.ndarray, z_zero: np.ndarray, sign: float, sin_w: np.ndarray) -> np.ndarray:
        mid = 0.5 * (zhi + zlo)
        halfw = 0.5 * (zhi - zlo)
        zq = mid[:, None] + halfw[:, None] * nodes  # (m, q)
        beta = np.sin(k * sign * (zq - z_zero[:, None])) / sin_w[:, None]
        phase = np.exp(1j * k * u[:, None, None] * zq[None])  # (t, m, q)
        return (beta[None] * phase * weights).sum(axis=-1) * halfw[None]

    tents = half(basis.z_peak - basis.w_lo, basis.z_peak, basis.z_peak - basis.w_lo, 1.0, sin_lo)
    tents = tents + half(basis.z_peak, basis.z_peak + basis.w_hi, basis.z_peak + basis.w_hi, -1.0, sin_hi)
    out: dict[tuple[float, float], np.ndarray] = {}
    for e in np.unique(basis.element):
        sel = basis.element == e
        key = (float(basis.x[sel][0]), float(basis.y[sel][0]))
        profile = (tents[:, sel] * amplitudes[sel]).sum(axis=1)
        if key in out:
            out[key] = out[key] + profile
        else:
            out[key] = profile
    return out


def _pattern_power(
    k: float,
    profiles: dict[tuple[float, float], np.ndarray],
    cos_theta: np.ndarray,
    phi: np.ndarray,
) -> np.ndarray:
    """|sin(theta) * AF|^2 on a (theta, phi) grid, elements factored per wire."""
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    af = np.zeros((cos_theta.size, phi.size), dtype=complex)
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    for (x, y), axial in profiles.items():
        radial = np.exp(1j * k * np.outer(sin_theta, x * cos_phi + y * sin_phi))
        af += axial[:, None] * radial
    return (sin_theta[:, None] * np.abs(af)) ** 2


def far_field(solution: CurrentSolution, grid: WireGrid, resolution_deg: float = 1.0) -> FarField:
    """Directivity over the full sphere on a regular grid.

    The gain normalization divides by radiated power computed with a
    Gauss-Legendre quadrature that is independent of the sample grid.
    """
    if not (
        isinstance(resolution_deg, (int, float)) and math.isfinite(resolution_deg) and resolution_deg > 0
    ):
        raise DomainError(f"resolution must be positive and finite, got {resolution_deg!r}")
    n_phi = 360.0 / resolution_deg
    if abs(n_phi - round(n_phi)) > 1e-9 or round(n_phi) % 2 != 0 or round(n_phi) < 2:
        raise DomainError(
            f"resolution must divide 360 into an even number of steps, at least 2, got {resolution_deg}"
        )
    n_phi = int(round(n_phi))
    n_theta = n_phi // 2 + 1

    k = 2.0 * math.pi * solution.frequency_hz / SPEED_OF_LIGHT
    basis = per_mode(solution.basis)

    theta = np.linspace(0.0, 180.0, n_theta)
    phi = np.arange(n_phi) * resolution_deg
    profiles = _axial_transforms(k, basis, solution.amplitudes, np.cos(np.radians(theta)))
    power = _pattern_power(k, profiles, np.cos(np.radians(theta)), np.radians(phi))

    # radiated power from an independent spherical quadrature
    x_nodes, x_weights = np.polynomial.legendre.leggauss(_POWER_THETA_ORDER)
    phi_q = (np.arange(_POWER_PHI_SAMPLES) + 0.5) * (2.0 * math.pi / _POWER_PHI_SAMPLES)
    profiles_q = _axial_transforms(k, basis, solution.amplitudes, x_nodes)
    power_q = _pattern_power(k, profiles_q, x_nodes, phi_q)
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
