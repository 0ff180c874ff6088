"""Yagi-Uda geometry: frequency plan, rule tables, design construction and
validation, and the JSON design-file format.

All dimensions are in meters. Elements are straight rods parallel to the
z axis, centered on z = 0, laid out along the boom (x axis) with the
reflector at x = 0 and directors toward +x.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ParseError

# Propagation speed used throughout (fixed project-wide).
SPEED_OF_LIGHT = 2.998e8

# The rule tables below are dimensioned in meters at this design frequency;
# build_design rescales them by the wavelength ratio.
BASE_FREQUENCY_HZ = 900e6


def check_frequency(frequency_hz: float) -> float:
    """A frequency in Hz as a float; raises DomainError unless it is a positive finite number.

    Any real number is accepted, numpy scalars included, but not a bool.
    """
    if not isinstance(frequency_hz, numbers.Real) or isinstance(frequency_hz, bool):
        raise DomainError(f"frequency must be a real number of Hz, got {frequency_hz!r}")
    if not math.isfinite(frequency_hz):
        raise DomainError(f"frequency must be finite, got {frequency_hz!r}")
    if frequency_hz <= 0:
        raise DomainError(f"frequency must be positive, got {frequency_hz}")
    return float(frequency_hz)


def wavelength(frequency_hz: float) -> float:
    """Free-space wavelength in meters for a frequency in Hz."""
    return SPEED_OF_LIGHT / check_frequency(frequency_hz)


class DesignRule(str, Enum):
    BALANIS = "balanis"
    NBS688 = "nbs688"
    YCOPE = "ycope"


class ElementRole(str, Enum):
    REFLECTOR = "reflector"
    DRIVEN = "driven"
    DIRECTOR = "director"


_RULE_ALIASES = {
    "balanis": DesignRule.BALANIS,
    "nbs688": DesignRule.NBS688,
    "nbs": DesignRule.NBS688,
    "ycope": DesignRule.YCOPE,
    "yc0pe": DesignRule.YCOPE,
}


def rule_from_string(name: str) -> DesignRule:
    """Resolve a rule name (accepts the short alias 'nbs')."""
    try:
        return _RULE_ALIASES[name.strip().lower()]
    except KeyError:
        valid = ", ".join(sorted(set(a for a in _RULE_ALIASES)))
        raise DomainError(f"unknown design rule {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class FrequencyPlan:
    """Design frequency and the wavelength derived from it."""

    f0_hz: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.f0_hz) or self.f0_hz <= 0:
            raise DomainError(f"design frequency must be positive and finite, got {self.f0_hz!r}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.f0_hz


@dataclass(frozen=True)
class ElementSpec:
    """One rod: its role, full length, boom position and diameter (meters)."""

    role: ElementRole
    length_m: float
    position_m: float
    diameter_m: float


@dataclass(frozen=True)
class YagiDesign:
    """A complete antenna layout tied to its frequency plan and design rule."""

    plan: FrequencyPlan
    rule: DesignRule
    elements: tuple[ElementSpec, ...]
    boom_length_m: float

    @property
    def driven(self) -> ElementSpec:
        for e in self.elements:
            if e.role is ElementRole.DRIVEN:
                return e
        raise DomainError("design has no driven element")


# Element lengths and spacings in meters at 900 MHz. Six lengths per rule
# (the last director repeats the previous one, which has no published row);
# five inter-element gaps plus a trailing boom margin after the last director.
_RULE_TABLE: dict[DesignRule, dict[str, tuple[float, ...]]] = {
    DesignRule.BALANIS: {
        "lengths": (0.167, 0.157, 0.147, 0.143, 0.140, 0.140),
        "gaps": (0.083, 0.100, 0.110, 0.120, 0.130),
        "margin": (0.130,),
    },
    DesignRule.NBS688: {
        "lengths": (0.170, 0.160, 0.140, 0.130, 0.120, 0.120),
        "gaps": (0.047, 0.050, 0.043, 0.092, 0.130),
        "margin": (0.130,),
    },
    DesignRule.YCOPE: {
        "lengths": (0.169, 0.158, 0.150, 0.143, 0.137, 0.137),
        "gaps": (0.075, 0.042, 0.058, 0.075, 0.092),
        "margin": (0.133,),
    },
}

DEFAULT_DIAMETER_M = 0.005

_ROLES = (
    ElementRole.REFLECTOR,
    ElementRole.DRIVEN,
    ElementRole.DIRECTOR,
    ElementRole.DIRECTOR,
    ElementRole.DIRECTOR,
    ElementRole.DIRECTOR,
)


def build_design(
    rule: DesignRule | str,
    f0_hz: float,
    diameter_m: float = DEFAULT_DIAMETER_M,
) -> YagiDesign:
    """Construct the six-element design of a rule, scaled to a frequency.

    Lengths, positions and boom length scale by the wavelength ratio
    relative to the 900 MHz table; the rod diameter is taken as given.
    """
    if isinstance(rule, str):
        rule = rule_from_string(rule)
    plan = FrequencyPlan(f0_hz)
    if not math.isfinite(diameter_m) or diameter_m <= 0:
        raise DomainError(f"rod diameter must be positive, got {diameter_m!r}")

    # Exact ratio: (c/f0) / (c/900e6) == 900e6/f0, kept as a single division
    # so the 450 MHz design is exactly twice the 900 MHz one.
    scale = BASE_FREQUENCY_HZ / f0_hz
    table = _RULE_TABLE[rule]

    elements = []
    position = 0.0
    for i, role in enumerate(_ROLES):
        if i > 0:
            position += table["gaps"][i - 1] * scale
        elements.append(
            ElementSpec(
                role=role,
                length_m=table["lengths"][i] * scale,
                position_m=position,
                diameter_m=diameter_m,
            )
        )
    boom = (sum(table["gaps"]) + table["margin"][0]) * scale

    design = YagiDesign(plan=plan, rule=rule, elements=tuple(elements), boom_length_m=boom)
    violations = validate_design(design)
    if violations:
        raise DomainError("built design failed validation: " + "; ".join(violations))
    return design


def validate_design(design: YagiDesign) -> list[str]:
    """Check structural invariants; returns human-readable violations (empty if valid)."""
    v: list[str] = []
    els = design.elements

    if len(els) < 2:
        v.append(f"need at least reflector and driven element, got {len(els)} elements")
        return v

    roles = [e.role for e in els]
    if roles.count(ElementRole.REFLECTOR) != 1:
        v.append(f"expected exactly one reflector, got {roles.count(ElementRole.REFLECTOR)}")
    if roles.count(ElementRole.DRIVEN) != 1:
        v.append(f"expected exactly one driven element, got {roles.count(ElementRole.DRIVEN)}")
    if roles and roles[0] is not ElementRole.REFLECTOR:
        v.append(f"first element must be the reflector, got {roles[0].value}")
    if len(roles) > 1 and roles[1] is not ElementRole.DRIVEN:
        v.append(f"second element must be the driven element, got {roles[1].value}")
    for i, r in enumerate(roles[2:], start=2):
        if r is not ElementRole.DIRECTOR:
            v.append(f"element {i} must be a director, got {r.value}")

    for i, e in enumerate(els):
        if not (math.isfinite(e.length_m) and e.length_m > 0):
            v.append(f"element {i} ({e.role.value}) has non-positive length {e.length_m!r}")
        if not (math.isfinite(e.diameter_m) and e.diameter_m > 0):
            v.append(f"element {i} ({e.role.value}) has non-positive diameter {e.diameter_m!r}")
        elif e.length_m > 0 and e.diameter_m >= e.length_m:
            v.append(f"element {i} ({e.role.value}) diameter {e.diameter_m} not below length {e.length_m}")

    if els and els[0].position_m != 0.0:
        v.append(f"reflector must sit at position 0, got {els[0].position_m}")
    for a, b in zip(els, els[1:]):
        if not b.position_m > a.position_m:
            v.append(
                f"positions must increase along the boom: {b.role.value} at {b.position_m}"
                f" does not follow {a.role.value} at {a.position_m}"
            )
        else:
            gap = b.position_m - a.position_m
            if gap <= (a.diameter_m + b.diameter_m) / 2:
                v.append(f"{a.role.value} and {b.role.value} conductors touch (axis gap {gap})")

    for a, b in zip(els, els[1:]):
        if b.length_m > a.length_m:
            v.append(
                f"length taper violated: {b.role.value} at {b.position_m:.4g} m is longer"
                f" ({b.length_m} m) than the {a.role.value} before it ({a.length_m} m)"
            )

    if els and design.boom_length_m < els[-1].position_m:
        v.append(
            f"boom length {design.boom_length_m} shorter than last element position {els[-1].position_m}"
        )
    return v


# ---------------------------------------------------------------------------
# JSON design-file format


def design_to_dict(design: YagiDesign) -> dict:
    return {
        "frequency_hz": design.plan.f0_hz,
        "rule": design.rule.value,
        "elements": [
            {
                "role": e.role.value,
                "length_m": e.length_m,
                "position_m": e.position_m,
                "diameter_m": e.diameter_m,
            }
            for e in design.elements
        ],
        "boom_length_m": design.boom_length_m,
    }


def design_from_dict(data: dict) -> YagiDesign:
    if not isinstance(data, dict):
        raise ParseError(f"design document must be a JSON object, got {type(data).__name__}")
    missing = [k for k in ("frequency_hz", "rule", "elements", "boom_length_m") if k not in data]
    if missing:
        raise ParseError("design file missing keys: " + ", ".join(missing))
    try:
        rule = rule_from_string(str(data["rule"]))
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    elements = []
    if not isinstance(data["elements"], list) or not data["elements"]:
        raise ParseError("design file 'elements' must be a non-empty list")
    for i, entry in enumerate(data["elements"]):
        try:
            elements.append(
                ElementSpec(
                    role=ElementRole(entry["role"]),
                    length_m=float(entry["length_m"]),
                    position_m=float(entry["position_m"]),
                    diameter_m=float(entry["diameter_m"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"element {i} is malformed: {exc}") from None
    try:
        plan = FrequencyPlan(float(data["frequency_hz"]))
        boom = float(data["boom_length_m"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad numeric field in design file: {exc}") from None
    return YagiDesign(plan=plan, rule=rule, elements=tuple(elements), boom_length_m=boom)


def save_design(design: YagiDesign, path: str) -> None:
    """Write a design file atomically (temp file + rename)."""
    payload = json.dumps(design_to_dict(design), indent=2) + "\n"
    atomic_write_text(path, payload)


def load_design(path: str) -> YagiDesign:
    try:
        data = json.loads(read_text(path))
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    return design_from_dict(data)


def read_text(path: str) -> str:
    """Whole UTF-8 text of an input file; every failure is a YagilabError."""
    if not os.path.isfile(path):
        raise DomainError(f"input file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def atomic_write_text(path: str, text: str) -> None:
    """Write text so the target is never observable half-written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
