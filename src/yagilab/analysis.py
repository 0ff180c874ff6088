"""Match quality, bandwidth, pattern statistics, and jamming-range estimates.

Everything here is closed-form and pure: reflection coefficient / VSWR /
return loss against a real reference impedance, widest-band search over a
frequency sweep with linear VSWR interpolation at the crossings, summary
statistics of measured radiation patterns, and a one-slope power-law link
budget that turns antenna gain into a blocking distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DomainError
from .geometry import BASE_FREQUENCY_HZ, SPEED_OF_LIGHT

DEFAULT_REFERENCE_OHM = 50.0
DEFAULT_VSWR_LIMIT = 2.0

# VSWR used for band-edge interpolation is clamped here so a reflective or
# degenerate sweep point stays finite instead of poisoning the crossing math.
_VSWR_CAP = 1e12


def reflection_coefficient(z: complex, z_ref: float) -> complex:
    """Gamma = (z - z_ref) / (z + z_ref) for a real, positive reference."""
    if not (math.isfinite(z_ref) and z_ref > 0):
        raise DomainError(f"reference impedance must be positive and finite, got {z_ref!r}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"impedance must be finite, got {z!r}")
    denom = z + z_ref
    if denom == 0:
        raise DomainError(f"impedance {z!r} is the negative of the reference; reflection is singular")
    return (z - z_ref) / denom


def _vswr_of(mag: float) -> float:
    return (1.0 + mag) / (1.0 - mag)


def _return_loss_of(mag: float) -> float:
    return math.inf if mag == 0.0 else -20.0 * math.log10(mag)


def vswr(z: complex, z_ref: float = DEFAULT_REFERENCE_OHM) -> float:
    """Standing-wave ratio (1 + |Gamma|) / (1 - |Gamma|); 1.0 means matched."""
    return reflection_report(z, z_ref).vswr


def return_loss_db(z: complex, z_ref: float = DEFAULT_REFERENCE_OHM) -> float:
    """-20 log10 |Gamma| in dB; a perfect match reports math.inf."""
    return reflection_report(z, z_ref).return_loss_db


def gamma_mag_from_vswr(s: float) -> float:
    """Invert the VSWR definition back to |Gamma|."""
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"VSWR must be >= 1, got {s!r}")
    return (s - 1.0) / (s + 1.0)


def return_loss_from_vswr(s: float) -> float:
    """Return loss equivalent to a VSWR reading; math.inf at s = 1."""
    return _return_loss_of(gamma_mag_from_vswr(s))


def vswr_from_return_loss(rl_db: float) -> float:
    """VSWR equivalent to a return-loss reading in dB (must be > 0)."""
    if not rl_db > 0:
        raise DomainError(f"return loss must be positive dB, got {rl_db!r}")
    return _vswr_of(10.0 ** (-rl_db / 20.0))


@dataclass(frozen=True)
class ReflectionReport:
    """Reflection coefficient with its derived match figures.

    Build through reflection_report so vswr and return_loss_db always come
    from the same |Gamma| as the stored coefficient.
    """

    gamma: complex
    vswr: float
    return_loss_db: float
    z: complex
    z_ref: float


def reflection_report(z: complex, z_ref: float = DEFAULT_REFERENCE_OHM) -> ReflectionReport:
    """Gamma, VSWR and return loss of a passive load (|Gamma| < 1)."""
    gamma = reflection_coefficient(z, z_ref)
    mag = abs(gamma)
    if mag >= 1.0:
        raise DomainError(
            f"|reflection| = {mag:.6g} >= 1 for z = {z!r} against {z_ref} ohm; load is not passive"
        )
    return ReflectionReport(
        gamma=gamma,
        vswr=_vswr_of(mag),
        return_loss_db=_return_loss_of(mag),
        z=complex(z),
        z_ref=z_ref,
    )


@dataclass(frozen=True)
class BandwidthReport:
    """Widest contiguous band satisfying a VSWR limit; edges None when empty."""

    f_low_hz: float | None
    f_high_hz: float | None
    width_hz: float


def _vswr_capped(z: complex, z_ref: float) -> float:
    # Tolerant per-point VSWR for band search: reflective, resonant, or
    # non-finite points count as "far above any limit" rather than erroring.
    try:
        return min(vswr(z, z_ref), _VSWR_CAP)
    except DomainError:
        return _VSWR_CAP


def _crossing(f1: float, v1: float, f2: float, v2: float, limit: float) -> float:
    # Linear VSWR between neighbors; callers guarantee v1, v2 straddle limit.
    return f1 + (limit - v1) * (f2 - f1) / (v2 - v1)


def bandwidth(
    sweep: Sequence[tuple[float, complex]],
    z_ref: float = DEFAULT_REFERENCE_OHM,
    vswr_limit: float = DEFAULT_VSWR_LIMIT,
) -> BandwidthReport:
    """Widest contiguous frequency interval with interpolated VSWR <= limit.

    The sweep is (frequency_hz, impedance) pairs sorted by frequency. VSWR
    varies linearly between neighboring points for edge crossings, and the
    band is clamped to the sweep ends. An empty satisfying set is a width-0
    report, not an error.
    """
    if not (math.isfinite(z_ref) and z_ref > 0):
        raise DomainError(f"reference impedance must be positive and finite, got {z_ref!r}")
    if not (math.isfinite(vswr_limit) and vswr_limit > 1.0):
        raise DomainError(f"VSWR limit must exceed 1, got {vswr_limit!r}")
    points = [(float(f), complex(z)) for f, z in sweep]
    if len(points) < 2:
        raise DomainError(f"bandwidth needs at least two sweep points, got {len(points)}")
    freqs = [f for f, _ in points]
    if any(not math.isfinite(f) for f in freqs) or any(
        f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])
    ):
        raise DomainError("sweep frequencies must be finite and strictly increasing")

    values = [_vswr_capped(z, z_ref) for _, z in points]
    intervals: list[list[float]] = []

    def push(lo: float, hi: float) -> None:
        if intervals and intervals[-1][1] == lo:
            intervals[-1][1] = hi
        else:
            intervals.append([lo, hi])

    for i in range(len(points) - 1):
        f1, f2 = freqs[i], freqs[i + 1]
        v1, v2 = values[i], values[i + 1]
        in1, in2 = v1 <= vswr_limit, v2 <= vswr_limit
        if in1 and in2:
            push(f1, f2)
        elif in1:
            push(f1, _crossing(f1, v1, f2, v2, vswr_limit))
        elif in2:
            push(_crossing(f1, v1, f2, v2, vswr_limit), f2)

    if not intervals:
        return BandwidthReport(f_low_hz=None, f_high_hz=None, width_hz=0.0)
    lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
    return BandwidthReport(f_low_hz=lo, f_high_hz=hi, width_hz=hi - lo)


class PatternUnit(str, Enum):
    METERS = "meters"
    DBI = "dbi"


@dataclass(frozen=True)
class PatternSample:
    angle_deg: float
    value: float


@dataclass(frozen=True)
class RadiationPatternData:
    """Measured or simulated pattern: (angle, value) samples over [0, 360).

    Angles are strictly increasing, all values finite, and meters-unit
    values nonnegative; an empty sample tuple is allowed at the type level
    (the statistics and plotting operations reject it).
    """

    samples: tuple[PatternSample, ...]
    unit: PatternUnit
    label: str = ""

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "unit", PatternUnit(self.unit))
        except ValueError:
            valid = ", ".join(u.value for u in PatternUnit)
            raise DomainError(f"unknown pattern unit {self.unit!r}; expected one of: {valid}") from None
        prev = None
        for s in self.samples:
            if not (math.isfinite(s.angle_deg) and 0.0 <= s.angle_deg < 360.0):
                raise DomainError(f"pattern angle {s.angle_deg!r} outside [0, 360)")
            if not math.isfinite(s.value):
                raise DomainError(f"pattern value at {s.angle_deg} deg is not finite")
            if self.unit is PatternUnit.METERS and s.value < 0:
                raise DomainError(f"meters-unit pattern value {s.value!r} at {s.angle_deg} deg is negative")
            if prev is not None and s.angle_deg <= prev:
                raise DomainError(f"pattern angles must be strictly increasing (saw {prev} then {s.angle_deg})")
            prev = s.angle_deg

    @property
    def angles_deg(self) -> tuple[float, ...]:
        return tuple(s.angle_deg for s in self.samples)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(s.value for s in self.samples)


def build_pattern(
    angles_deg: Sequence[float],
    values: Sequence[float],
    unit: PatternUnit | str,
    label: str = "",
) -> RadiationPatternData:
    """Validated pattern from parallel angle/value sequences."""
    if len(angles_deg) != len(values):
        raise DomainError(
            f"angle and value counts differ: {len(angles_deg)} vs {len(values)}"
        )
    samples = tuple(
        PatternSample(angle_deg=float(a), value=float(v)) for a, v in zip(angles_deg, values)
    )
    return RadiationPatternData(samples=samples, unit=unit, label=label)


@dataclass(frozen=True)
class PatternStats:
    max_value: float
    max_angle_deg: float
    min_value: float
    min_angle_deg: float
    mean_value: float
    front_to_back_db: float | None


def _circular_distance_deg(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def pattern_stats(pattern: RadiationPatternData) -> PatternStats:
    """Extremes (ties go to the smallest angle), mean, and, for dBi data,
    front-to-back ratio against the sample nearest the peak's opposite."""
    if not pattern.samples:
        raise DomainError("pattern statistics need at least one sample")
    best = worst = pattern.samples[0]
    total = 0.0
    for s in pattern.samples:
        total += s.value
        if s.value > best.value:
            best = s
        if s.value < worst.value:
            worst = s
    mean = total / len(pattern.samples)

    f2b = None
    if pattern.unit is PatternUnit.DBI:
        back_angle = (best.angle_deg + 180.0) % 360.0
        back = min(
            pattern.samples,
            key=lambda s: (_circular_distance_deg(s.angle_deg, back_angle), s.angle_deg),
        )
        f2b = best.value - back.value

    return PatternStats(
        max_value=best.value,
        max_angle_deg=best.angle_deg,
        min_value=worst.value,
        min_angle_deg=worst.angle_deg,
        mean_value=mean,
        front_to_back_db=f2b,
    )


# -- jamming-range link budget ------------------------------------------------

REFERENCE_DISTANCE_M = 1.0
DEFAULT_EIRP_DBM = 30.0
DEFAULT_PATH_LOSS_EXPONENT = 2.0
# Omnidirectional helical baseline: gain back-computed so its measured 4 m
# blocking distance and the 16 m directional figure sit 12 dB apart at n = 2.
HELIX_BASELINE_GAIN_DBI = -0.8
HELIX_BASELINE_RANGE_M = 4.0

_EXPONENT_RANGE = (1.6, 6.0)


@dataclass(frozen=True)
class RangeModel:
    """One-slope power-law link budget anchored at a 1 m reference distance."""

    eirp_dbm: float
    threshold_dbm: float
    path_loss_exponent: float
    frequency_hz: float

    def __post_init__(self) -> None:
        lo, hi = _EXPONENT_RANGE
        if not (math.isfinite(self.path_loss_exponent) and lo <= self.path_loss_exponent <= hi):
            raise DomainError(
                f"path-loss exponent must lie in [{lo}, {hi}], got {self.path_loss_exponent!r}"
            )
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise DomainError(f"frequency must be positive, got {self.frequency_hz!r}")
        for name in ("eirp_dbm", "threshold_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RangeEstimate:
    """Blocking distance; below_reference flags results inside the 1 m anchor."""

    distance_m: float
    below_reference: bool


def free_space_path_loss_db(frequency_hz: float, distance_m: float = REFERENCE_DISTANCE_M) -> float:
    """Free-space loss 20 log10(4 pi d f / c) between isotropic terminals."""
    if not (math.isfinite(frequency_hz) and frequency_hz > 0):
        raise DomainError(f"frequency must be positive, got {frequency_hz!r}")
    if not (math.isfinite(distance_m) and distance_m > 0):
        raise DomainError(f"distance must be positive, got {distance_m!r}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


def _ten_to(exponent: float, quantity: str) -> float:
    """10**exponent; raises DomainError naming the quantity when that is not finite."""
    try:
        value = 10.0**exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{quantity} 10^{exponent:.4g} is out of floating-point range")
    return value


def jamming_range(model: RangeModel, antenna_gain_dbi: float) -> RangeEstimate:
    """Distance where received jamming power falls to the model threshold.

    Free-space loss applies out to the 1 m reference; beyond it the loss
    slope is 10 * n dB per decade. Closed form, deterministic.
    """
    if not math.isfinite(antenna_gain_dbi):
        raise DomainError(f"antenna gain must be finite, got {antenna_gain_dbi!r}")
    margin_db = (
        model.eirp_dbm
        + antenna_gain_dbi
        - model.threshold_dbm
        - free_space_path_loss_db(model.frequency_hz, REFERENCE_DISTANCE_M)
    )
    distance = REFERENCE_DISTANCE_M * _ten_to(margin_db / (10.0 * model.path_loss_exponent), "jamming range")
    return RangeEstimate(distance_m=distance, below_reference=distance < REFERENCE_DISTANCE_M)


def calibrate_threshold_dbm(
    eirp_dbm: float,
    gain_dbi: float,
    range_m: float,
    path_loss_exponent: float,
    frequency_hz: float,
) -> float:
    """Threshold making jamming_range return exactly range_m for this gain."""
    if not (math.isfinite(range_m) and range_m > 0):
        raise DomainError(f"calibration range must be positive, got {range_m!r}")
    return (
        eirp_dbm
        + gain_dbi
        - free_space_path_loss_db(frequency_hz, REFERENCE_DISTANCE_M)
        - 10.0 * path_loss_exponent * math.log10(range_m / REFERENCE_DISTANCE_M)
    )


def default_range_model(frequency_hz: float = BASE_FREQUENCY_HZ) -> RangeModel:
    """30 dBm EIRP model whose threshold puts the helical baseline at 4.0 m.

    The anchor is a calibration convention, not a measurement: absolute dBm
    values are chosen so the baseline distance comes out exact, and every
    other gain is read off the same slope.
    """
    threshold = calibrate_threshold_dbm(
        DEFAULT_EIRP_DBM,
        HELIX_BASELINE_GAIN_DBI,
        HELIX_BASELINE_RANGE_M,
        DEFAULT_PATH_LOSS_EXPONENT,
        frequency_hz,
    )
    return RangeModel(
        eirp_dbm=DEFAULT_EIRP_DBM,
        threshold_dbm=threshold,
        path_loss_exponent=DEFAULT_PATH_LOSS_EXPONENT,
        frequency_hz=frequency_hz,
    )


def range_ratio(g1_dbi: float, g2_dbi: float, path_loss_exponent: float) -> float:
    """Range multiplier from replacing gain g1 with g2: 10^((g2-g1)/(10 n))."""
    if not (math.isfinite(path_loss_exponent) and path_loss_exponent > 0):
        raise DomainError(f"path-loss exponent must be positive, got {path_loss_exponent!r}")
    if not (math.isfinite(g1_dbi) and math.isfinite(g2_dbi)):
        raise DomainError("gains must be finite")
    return _ten_to((g2_dbi - g1_dbi) / (10.0 * path_loss_exponent), "range ratio")


_REPORT_KEYS = (
    "vswr",
    "return_loss_db",
    "bandwidth_mhz",
    "max_range_m",
    "max_range_angle_deg",
    "min_range_m",
    "min_range_angle_deg",
    "mean_range_m",
)


def analysis_report(
    z: complex | None = None,
    z_ref: float = DEFAULT_REFERENCE_OHM,
    sweep: Sequence[tuple[float, complex]] | None = None,
    vswr_limit: float = DEFAULT_VSWR_LIMIT,
    range_pattern: RadiationPatternData | None = None,
) -> dict:
    """Flat report dict with a fixed key set; absent inputs leave None values.

    Keys: vswr, return_loss_db, bandwidth_mhz, max_range_m,
    max_range_angle_deg, min_range_m, min_range_angle_deg, mean_range_m.
    """
    report: dict = {key: None for key in _REPORT_KEYS}
    if z is not None:
        rr = reflection_report(z, z_ref)
        report["vswr"] = rr.vswr
        report["return_loss_db"] = rr.return_loss_db
    if sweep is not None:
        report["bandwidth_mhz"] = bandwidth(sweep, z_ref, vswr_limit).width_hz / 1e6
    if range_pattern is not None:
        if range_pattern.unit is not PatternUnit.METERS:
            raise DomainError("range statistics need a meters-unit pattern")
        stats = pattern_stats(range_pattern)
        report["max_range_m"] = stats.max_value
        report["max_range_angle_deg"] = stats.max_angle_deg
        report["min_range_m"] = stats.min_value
        report["min_range_angle_deg"] = stats.min_angle_deg
        report["mean_range_m"] = stats.mean_value
    return report
