"""Gamma-match synthesis for a driven element.

Works the classical normalized-admittance chain: fold the antenna impedance
through the current-division step-up, normalize to the two-wire line formed
by the element and the gamma rod, add the shorted-stub admittance of the rod,
and denormalize. The residual inductive reactance maps to the series
capacitor that cancels it.

Impedances are plain Python complex numbers. Geometry values may be meters,
millimeters or wavelengths as long as a, a_rod and s share one unit; the rod
length is always in wavelengths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

from .errors import DomainError

_OPEN_STUB_TOL = 1e-12


@dataclass(frozen=True)
class GammaMatchGeometry:
    """Cross-section and rod dimensions of a gamma match.

    a and a_rod are the radii of the driven element and the gamma rod, s the
    center-to-center spacing (all in one shared unit); rod_length_lambda is
    the electrical rod length in wavelengths, f0_hz the operating frequency.
    """

    a: float
    a_rod: float
    s: float
    rod_length_lambda: float
    f0_hz: float

    def __post_init__(self) -> None:
        for name in ("a", "a_rod", "s"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise DomainError(f"gamma geometry {name} must be positive, got {val!r}")
        if self.s <= self.a + self.a_rod:
            raise DomainError(
                f"conductor spacing s={self.s} must exceed a + a_rod = {self.a + self.a_rod}"
            )
        if not (0.0 < self.rod_length_lambda < 0.5):
            raise DomainError(
                f"rod length must lie in (0, 0.5) wavelengths, got {self.rod_length_lambda!r}"
            )
        if not (math.isfinite(self.f0_hz) and self.f0_hz > 0):
            raise DomainError(f"frequency must be positive, got {self.f0_hz!r}")


@dataclass(frozen=True)
class GammaSolution:
    """Every intermediate of the match chain, for reporting and audit."""

    u: float
    v: float
    alpha: float
    step_up: float
    z2_ohm: complex
    z0_line_ohm: float
    z2_norm: complex
    y2: complex
    zg_norm: complex
    yg: complex
    yin: complex
    zin_norm: complex
    zin_ohm: complex
    c_farad: float | None


@dataclass(frozen=True)
class GammaTuneResult:
    rod_length_lambda: float
    solution: GammaSolution
    target_ohm: float
    error_ohm: float
    converged: bool


def current_division_factor(u: float, v: float) -> float:
    """Current division factor alpha = ln v / (ln v - ln u).

    u is the conductor radius ratio (thicker over thinner), v the spacing in
    units of the thinner radius.
    """
    if not (math.isfinite(u) and u > 0):
        raise DomainError(f"radius ratio u must be positive, got {u!r}")
    if not (math.isfinite(v) and v > 1):
        raise DomainError(f"normalized spacing v must exceed 1, got {v!r}")
    if u == v:
        raise DomainError("u == v makes the division factor singular")
    return math.log(v) / (math.log(v) - math.log(u))


def folded_step_impedance(za: complex, alpha: float) -> complex:
    """Antenna impedance folded through the gamma step-up: (1+alpha)^2 * za / 2."""
    return (1.0 + alpha) ** 2 * za / 2.0


def two_wire_line_impedance(s: float, a: float, a_rod: float) -> float:
    """Characteristic impedance 276*log10(s/sqrt(a*a_rod)) of the rod/element pair."""
    if a <= 0 or a_rod <= 0 or s <= 0:
        raise DomainError("two-wire line dimensions must be positive")
    ratio = s / math.sqrt(a * a_rod)
    if ratio <= 1.0:
        raise DomainError(
            f"spacing {s} too small against radii (s/sqrt(a*a') = {ratio:.4g} <= 1)"
        )
    return 276.0 * math.log10(ratio)


def shorted_stub_impedance(length_lambda: float) -> complex:
    """Normalized input impedance j*tan(2*pi*l) of a shorted stub of l wavelengths."""
    if not (0.0 < length_lambda < 0.5):
        raise DomainError(f"stub length must lie in (0, 0.5) wavelengths, got {length_lambda!r}")
    if abs(length_lambda - 0.25) < _OPEN_STUB_TOL:
        raise DomainError("quarter-wave shorted stub is an open circuit")
    return 1j * math.tan(2.0 * math.pi * length_lambda)


def series_capacitance(f0_hz: float, reactance_ohm: float) -> float:
    """Capacitance canceling an inductive reactance at f0: C = 1/(2*pi*f0*X)."""
    if f0_hz <= 0:
        raise DomainError(f"frequency must be positive, got {f0_hz!r}")
    if reactance_ohm <= 0:
        raise DomainError(
            f"series capacitor cancels inductive (positive) reactance only, got {reactance_ohm!r}"
        )
    omega_x = 2.0 * math.pi * f0_hz * reactance_ohm
    c = 1.0 / omega_x if omega_x > 0 else math.inf
    if not math.isfinite(c):
        raise DomainError(f"series capacitance for {reactance_ohm!r} ohm at {f0_hz!r} Hz is not finite")
    return c


def gamma_chain(
    za: complex,
    *,
    u: float,
    v: float,
    z0_ohm: float,
    rod_length_lambda: float,
    f0_hz: float,
    alpha: float | None = None,
) -> GammaSolution:
    """Run the match chain from explicit ratios and line impedance.

    This entry point exists so printed intermediate values (rounded u, v,
    Z0, even alpha) can be fed back in verbatim; gamma_input_impedance
    derives them from physical dimensions instead. When alpha is given it
    overrides the value computed from u and v.

    Non-finite inputs and intermediates raise DomainError, except the open
    stub (zg_norm = j*inf) of a quarter-wave rod.
    """
    if za.real <= 0:
        raise DomainError(f"antenna impedance must have positive real part, got {za!r}")
    if z0_ohm <= 0:
        raise DomainError(f"line impedance must be positive, got {z0_ohm!r}")
    if not (0.0 < rod_length_lambda < 0.5):
        raise DomainError(f"rod length must lie in (0, 0.5) wavelengths, got {rod_length_lambda!r}")
    if not all(math.isfinite(x) for x in (u, v, z0_ohm, f0_hz, 0.0 if alpha is None else alpha)):
        raise DomainError(
            f"gamma chain inputs must be finite, got u={u!r}, v={v!r}, z0={z0_ohm!r}, f0={f0_hz!r}, alpha={alpha!r}"
        )
    if alpha is None:
        alpha = current_division_factor(u, v)

    try:
        step_up = (1.0 + alpha) ** 2
    except OverflowError:
        step_up = math.inf
    if not (0.0 < step_up < math.inf):
        raise DomainError(f"step-up (1 + alpha)^2 must be positive and finite, got {step_up!r}")
    z2_ohm = folded_step_impedance(za, alpha)
    z2_norm = z2_ohm / z0_ohm
    if z2_norm == 0:
        raise DomainError(f"gamma chain z2_norm underflows to zero: {z2_ohm!r} / {z0_ohm!r}")
    y2 = 1.0 / z2_norm

    if abs(rod_length_lambda - 0.25) < _OPEN_STUB_TOL:
        # quarter-wave shorted rod presents an open: no stub susceptance
        zg_norm = complex(0.0, math.inf)
        yg = 0j
    else:
        zg_norm = shorted_stub_impedance(rod_length_lambda)
        yg = 1.0 / zg_norm

    yin = y2 + yg
    if abs(yin) < 1e-15:
        raise DomainError("gamma match is degenerate: input admittance vanishes")
    zin_norm = 1.0 / yin
    zin_ohm = zin_norm * z0_ohm
    for name, value in (("z2_ohm", z2_ohm), ("y2", y2), ("yin", yin), ("zin_ohm", zin_ohm)):
        if not cmath.isfinite(value):
            raise DomainError(f"gamma chain {name} is not finite: {value!r}")

    c = series_capacitance(f0_hz, zin_ohm.imag) if zin_ohm.imag > 0 else None
    return GammaSolution(
        u=u,
        v=v,
        alpha=alpha,
        step_up=step_up,
        z2_ohm=z2_ohm,
        z0_line_ohm=z0_ohm,
        z2_norm=z2_norm,
        y2=y2,
        zg_norm=zg_norm,
        yg=yg,
        yin=yin,
        zin_norm=zin_norm,
        zin_ohm=zin_ohm,
        c_farad=c,
    )


def gamma_input_impedance(za: complex, geom: GammaMatchGeometry) -> GammaSolution:
    """Full-precision chain from physical gamma dimensions."""
    thin = min(geom.a, geom.a_rod)
    thick = max(geom.a, geom.a_rod)
    u = thick / thin
    v = geom.s / thin
    z0 = two_wire_line_impedance(geom.s, geom.a, geom.a_rod)
    return gamma_chain(
        za,
        u=u,
        v=v,
        z0_ohm=z0,
        rod_length_lambda=geom.rod_length_lambda,
        f0_hz=geom.f0_hz,
    )


_TUNE_LO = 0.01
_TUNE_HI = 0.24
_TUNE_STEP = 0.001


def tune_gamma(
    za: complex,
    geom: GammaMatchGeometry,
    target_ohm: float = 50.0,
    tol_ohm: float = 3.0,
) -> GammaTuneResult:
    """Pick the rod length whose input resistance comes closest to a target.

    Scans rod lengths over (0.01, 0.24) wavelengths in 0.001 steps, then
    refines the best bracket by golden-section search. The result carries a
    converged flag; when no rod length reaches the target within tol_ohm the
    best effort is still returned.
    """
    if target_ohm <= 0:
        raise DomainError(f"target resistance must be positive, got {target_ohm!r}")
    if tol_ohm < 0:
        raise DomainError(f"tolerance must be non-negative, got {tol_ohm!r}")

    def err(rod: float) -> float:
        try:
            sol = _chain_at(rod)
            return abs(sol.zin_ohm.real - target_ohm)
        except DomainError:
            return math.inf

    def _chain_at(rod: float) -> GammaSolution:
        g = GammaMatchGeometry(geom.a, geom.a_rod, geom.s, rod, geom.f0_hz)
        return gamma_input_impedance(za, g)

    n_steps = round((_TUNE_HI - _TUNE_LO) / _TUNE_STEP)
    grid = [_TUNE_LO + _TUNE_STEP * k for k in range(n_steps + 1)]
    errors = [err(r) for r in grid]
    best = min(range(len(grid)), key=lambda i: errors[i])
    if not math.isfinite(errors[best]):
        raise DomainError("no valid rod length in the scan range")

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = err(x1), err(x2)
    for _ in range(80):
        if hi - lo < 1e-10:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = err(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = err(x2)
    rod = x1 if f1 <= f2 else x2
    if err(grid[best]) < err(rod):
        rod = grid[best]
    solution = _chain_at(rod)
    error = abs(solution.zin_ohm.real - target_ohm)
    return GammaTuneResult(
        rod_length_lambda=rod,
        solution=solution,
        target_ohm=target_ohm,
        error_ohm=error,
        converged=error <= tol_ohm,
    )


def _complex_pair(z: complex) -> list[float] | None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return None
    return [z.real, z.imag]


def matching_report_dict(sol: GammaSolution) -> dict:
    """JSON-ready view of a solution, in field order; complex fields become [re, im] pairs."""
    # field types are annotation strings here (from __future__ import annotations)
    return {
        f.name: _complex_pair(getattr(sol, f.name)) if f.type == "complex" else getattr(sol, f.name)
        for f in fields(sol)
    }
