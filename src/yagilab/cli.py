"""Command-line front end: design, simulate, match, analyze, range, pattern.

Wires the pipeline end to end with JSON/CSV persistence. Frequencies are
given in MHz and dimensions in mm at the flag level and converted to SI
internally. Every output file is written atomically; identical argv plus
identical input files produce byte-identical JSON (numbers are emitted with
at most 6 significant digits). Exit codes: 0 success, 1 computation or
domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Sequence

from . import __version__, analysis, em_solver, geometry, matching
from .analysis import PatternUnit, RadiationPatternData
from .errors import DomainError, ParseError, YagilabError
from .geometry import atomic_write_text, read_text


_MAX_SWEEP_POINTS = 100_000  # over an hour of solves at about 40 ms a point at 21 segments


class _UsageError(Exception):
    """Flag combination errors discovered after argparse."""


# -- flag value parsing ---------------------------------------------------


def parse_complex_ohm(text: str) -> complex:
    """Single-token complex literal: R+Xj or R-Xj, e.g. 24+3.73j."""
    token = text.strip()
    if not token or any(c in token for c in " \t()"):
        raise ParseError(f"complex impedance must be one token like 24+3.73j, got {text!r}")
    try:
        z = complex(token)
    except ValueError:
        raise ParseError(f"cannot parse complex impedance {text!r}; expected R+Xj") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"complex impedance must be finite, got {text!r}")
    return z


def parse_sweep_mhz(text: str) -> list[float]:
    """start:stop:step in MHz, stop inclusive when it lands on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"sweep must be start:stop:step in MHz, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"sweep must be three numbers start:stop:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ParseError(f"sweep bounds must be finite, got {text!r}")
    if step <= 0 or stop < start or start <= 0:
        raise ParseError(f"sweep needs 0 < start <= stop and step > 0, got {text!r}")
    steps = (stop - start) / step + 1e-9  # positive, and infinite when the count overflows
    if not steps < _MAX_SWEEP_POINTS:
        raise ParseError(f"sweep has more than {_MAX_SWEEP_POINTS} points, got {text!r}")
    return [(start + i * step) * 1e6 for i in range(int(steps) + 1)]


# -- deterministic JSON emission -------------------------------------------


def _round_sig(x: float) -> float | None:
    # Non-finite values (e.g. the infinite return loss of a perfect match)
    # have no JSON spelling; they become null.
    if not math.isfinite(x):
        return None
    return float(f"{x:.6g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, complex):
        return [_round_sig(obj.real), _round_sig(obj.imag)]
    if isinstance(obj, float):
        return _round_sig(obj)
    return obj


def _check_output_path(path: str | None) -> None:
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise DomainError(f"output directory does not exist: {parent}")


def _read_json(path: str) -> dict:
    try:
        data = json.loads(read_text(path))
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _finite_number(value) -> float | None:
    # A JSON number (not a boolean) as a finite float, else None.
    if type(value) not in (int, float):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _impedance_pair(path: str, pair) -> complex:
    if isinstance(pair, list) and len(pair) == 2:
        re, im = (_finite_number(v) for v in pair)
        if re is not None and im is not None:
            return complex(re, im)
    raise DomainError(f"{path}: impedance_ohm must be [re, im] with two finite numbers, got {pair!r}")


def _impedance_from_file(path: str) -> complex:
    return _impedance_pair(path, _read_json(path).get("impedance_ohm"))


# -- pattern CSV ------------------------------------------------------------

PATTERN_CSV_HEADER = "angle_deg,value"


def parse_pattern_csv(path: str, unit: PatternUnit | str) -> RadiationPatternData:
    """Read an angle/value CSV; rows are sorted by angle on ingest."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != PATTERN_CSV_HEADER:
        raise ParseError(f"{path}:1: header must be exactly '{PATTERN_CSV_HEADER}'")
    rows: list[tuple[float, float]] = []
    for num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{num}: expected 'angle,value', got {line!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"{path}:{num}: expected two numbers, got {line!r}") from None
    rows.sort(key=lambda r: r[0])
    for (a1, _), (a2, _) in zip(rows, rows[1:]):
        if a1 == a2:
            raise DomainError(f"{path}: duplicate angle {a1} deg")
    return analysis.build_pattern(
        [r[0] for r in rows],
        [r[1] for r in rows],
        unit,
        label=os.path.basename(path),
    )


# -- polar SVG --------------------------------------------------------------

_SVG_SIZE = 520
_SVG_CENTER = 260.0
_SVG_RADIUS = 200.0
# The peak sample maps to this fraction of the plot circle, so it always
# sits strictly inside.
_PEAK_FRACTION = 0.92
_DB_DOWN_SPAN_DB = 40.0
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _polar_xy(angle_deg: float, radius: float) -> tuple[float, float]:
    # compass layout: 0 deg straight up, angles increase clockwise
    t = math.radians(angle_deg)
    return _SVG_CENTER + radius * math.sin(t), _SVG_CENTER - radius * math.cos(t)


def render_polar_svg(pattern: RadiationPatternData, scale: str = "linear") -> str:
    """Standalone polar-plot SVG with per-sample data annotations.

    scale 'linear' maps value/peak to radius (values must be nonnegative);
    'db-down' maps dB below the peak across a 40 dB span and requires
    dbi-unit data. Every sample carries data-angle-deg / data-value
    attributes rounded to 3 decimals, so the plotted data can be recovered
    from the file itself.
    """
    if not pattern.samples:
        raise DomainError("cannot plot an empty pattern")
    vmax = max(pattern.values)
    unit_suffix = "m" if pattern.unit is PatternUnit.METERS else "dBi"

    if scale == "linear":
        if min(pattern.values) < 0:
            raise DomainError("linear radial scale needs nonnegative values; use db-down")

        def radius(v: float) -> float:
            if vmax <= 0:
                return 0.0
            return _PEAK_FRACTION * _SVG_RADIUS * (v / vmax)

        rings = [(f * _PEAK_FRACTION * _SVG_RADIUS, f * vmax) for f in (0.25, 0.5, 0.75, 1.0)]
    elif scale == "db-down":
        if pattern.unit is not PatternUnit.DBI:
            raise DomainError("db-down radial scale needs dbi-unit data")

        def radius(v: float) -> float:
            frac = 1.0 - (vmax - v) / _DB_DOWN_SPAN_DB
            return _PEAK_FRACTION * _SVG_RADIUS * max(0.0, frac)

        rings = [(radius(vmax - down), vmax - down) for down in (30.0, 20.0, 10.0, 0.0)]
    else:
        raise DomainError(f"unknown radial scale {scale!r}; expected linear or db-down")

    title = (pattern.label or "radiation pattern").translate(_XML_ESCAPES)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}" role="img">',
        f"<!-- generator: yagilab {__version__} -->",
        f"<title>{title}</title>",
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="#ffffff"/>',
        f'<circle cx="{_SVG_CENTER:.2f}" cy="{_SVG_CENTER:.2f}" r="{_SVG_RADIUS:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1.5"/>',
    ]

    for deg in range(0, 360, 30):
        x, y = _polar_xy(deg, _SVG_RADIUS)
        parts.append(
            f'<line x1="{_SVG_CENTER:.2f}" y1="{_SVG_CENTER:.2f}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#cccccc" stroke-width="0.8"/>'
        )
        lx, ly = _polar_xy(deg, _SVG_RADIUS + 18.0)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="11" text-anchor="middle" '
            f'dominant-baseline="central" fill="#333333">{deg}&#176;</text>'
        )

    # radial axis: concentric rings labeled with the value they represent
    for ring_r, ring_value in rings:
        if ring_r <= 0:
            continue
        parts.append(
            f'<circle cx="{_SVG_CENTER:.2f}" cy="{_SVG_CENTER:.2f}" r="{ring_r:.2f}" '
            f'fill="none" stroke="#dddddd" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="{_SVG_CENTER + 4.0:.2f}" y="{_SVG_CENTER - ring_r - 3.0:.2f}" '
            f'font-size="10" fill="#666666">{ring_value:.3g} {unit_suffix}</text>'
        )

    points = [(s, *_polar_xy(s.angle_deg, radius(s.value))) for s in pattern.samples]
    if len(points) >= 2:
        outline = " ".join(f"{x:.2f},{y:.2f}" for _, x, y in points)
        parts.append(
            f'<polygon points="{outline}" fill="#1f77b4" fill-opacity="0.15" '
            f'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for s, x, y in points:
        parts.append(
            f'<circle class="sample" cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#1f77b4" '
            f'data-angle-deg="{s.angle_deg:.3f}" data-value="{s.value:.3f}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- command handlers --------------------------------------------------------
# Each handler computes and returns its payload dict (or SVG text); run
# checks the output path first and writes the result once.


def _cmd_design(args: argparse.Namespace) -> dict:
    design = geometry.build_design(args.rule, args.freq_mhz * 1e6, args.diameter_mm * 1e-3)
    return geometry.design_to_dict(design)


def _cmd_simulate(args: argparse.Namespace) -> dict:
    design = geometry.load_design(args.design)
    freqs = parse_sweep_mhz(args.sweep) if args.sweep else None
    segs = args.segments
    grid = em_solver.segment(design, segs)

    if freqs is not None:
        res = args.resolution if args.resolution is not None else 2.0
        points = em_solver.frequency_sweep(grid, freqs, res)
        return {
            "rule": design.rule.value,
            "segments_per_element": segs,
            "resolution_deg": res,
            "sweep": [
                {
                    "frequency_hz": p.frequency_hz,
                    "impedance_ohm": None if p.impedance is None else p.impedance.z,
                    "gain_dbi": p.peak_gain_dbi,
                    "error": p.error,
                }
                for p in points
            ],
        }
    res = args.resolution if args.resolution is not None else 1.0
    solution = em_solver.solve_grid(grid, design.plan.f0_hz)
    imp = em_solver.input_impedance(solution)
    field = em_solver.far_field(solution, res)
    theta, phi = field.peak_direction()
    return {
        "rule": design.rule.value,
        "frequency_hz": design.plan.f0_hz,
        "segments_per_element": segs,
        "resolution_deg": res,
        "impedance_ohm": imp.z,
        "gain_dbi": field.peak_gain_dbi(),
        "peak_theta_deg": theta,
        "peak_phi_deg": phi,
    }


def _resolve_za(args: argparse.Namespace) -> complex:
    if args.za is not None:
        return parse_complex_ohm(args.za)
    return _impedance_from_file(args.za_file)


def _cmd_match(args: argparse.Namespace) -> dict:
    za = _resolve_za(args)
    f0_hz = args.freq_mhz * 1e6

    explicit = [args.u, args.v, args.z0]
    physical = [args.a_mm, args.arod_mm, args.s_mm]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise _UsageError("explicit chain needs --u, --v and --z0 together")
        solution = matching.gamma_chain(
            za,
            u=args.u,
            v=args.v,
            z0_ohm=args.z0,
            rod_length_lambda=args.rod_lambda,
            f0_hz=f0_hz,
            alpha=args.alpha,
        )
    elif any(v is not None for v in physical):
        if any(v is None for v in physical):
            raise _UsageError("physical chain needs --a-mm, --arod-mm and --s-mm together")
        if args.alpha is not None:
            raise _UsageError("--alpha only applies to the explicit --u/--v/--z0 chain")
        geom = matching.GammaMatchGeometry(
            a=args.a_mm,
            a_rod=args.arod_mm,
            s=args.s_mm,
            rod_length_lambda=args.rod_lambda,
            f0_hz=f0_hz,
        )
        solution = matching.gamma_input_impedance(za, geom)
    else:
        raise _UsageError("give either --a-mm/--arod-mm/--s-mm or --u/--v/--z0")

    return {"za_ohm": za, **matching.matching_report_dict(solution)}


def _sweep_from_file(path: str) -> list[tuple[float, complex]]:
    data = _read_json(path)
    points = data.get("sweep")
    if not isinstance(points, list):
        raise DomainError(f"{path}: expected a sweep point list under 'sweep'")
    pairs: list[tuple[float, complex]] = []
    for entry in points:
        if not isinstance(entry, dict) or "frequency_hz" not in entry:
            raise DomainError(f"{path}: sweep entries need a frequency_hz")
        frequency_hz = _finite_number(entry["frequency_hz"])
        if frequency_hz is None:
            raise DomainError(f"{path}: frequency_hz must be a finite number, got {entry['frequency_hz']!r}")
        pair = entry.get("impedance_ohm")
        if pair is None:
            continue  # point failed in the solver; skip, keep the rest
        pairs.append((frequency_hz, _impedance_pair(path, pair)))
    return pairs


def _cmd_analyze(args: argparse.Namespace) -> dict:
    if args.za is None and args.za_file is None and args.sweep_file is None and args.pattern is None:
        raise _UsageError("nothing to analyze: give --za/--za-file, --sweep-file or --pattern")

    z = None
    if args.za is not None or args.za_file is not None:
        z = _resolve_za(args)
    sweep = _sweep_from_file(args.sweep_file) if args.sweep_file else None
    pattern = parse_pattern_csv(args.pattern, PatternUnit.METERS) if args.pattern else None

    return analysis.analysis_report(
        z=z,
        z_ref=args.zref,
        sweep=sweep,
        vswr_limit=args.vswr_limit,
        range_pattern=pattern,
    )


def _cmd_range(args: argparse.Namespace) -> dict:
    frequency_hz = args.freq_mhz * 1e6
    threshold = args.threshold_dbm
    if threshold is None:
        # default anchor: the helical baseline comes out at exactly 4 m
        threshold = analysis.calibrate_threshold_dbm(
            args.eirp_dbm,
            analysis.HELIX_BASELINE_GAIN_DBI,
            analysis.HELIX_BASELINE_RANGE_M,
            args.exponent,
            frequency_hz,
        )
    model = analysis.RangeModel(
        eirp_dbm=args.eirp_dbm,
        threshold_dbm=threshold,
        path_loss_exponent=args.exponent,
        frequency_hz=frequency_hz,
    )
    estimate = analysis.jamming_range(model, args.gain_dbi)
    return {
        "gain_dbi": args.gain_dbi,
        "eirp_dbm": model.eirp_dbm,
        "threshold_dbm": model.threshold_dbm,
        "path_loss_exponent": model.path_loss_exponent,
        "frequency_hz": model.frequency_hz,
        "range_m": estimate.distance_m,
        "below_reference": estimate.below_reference,
    }


def _cmd_pattern_stats(args: argparse.Namespace) -> dict:
    pattern = parse_pattern_csv(args.input_path, args.unit)
    stats = analysis.pattern_stats(pattern)
    return {
        "label": pattern.label,
        "unit": pattern.unit.value,
        "samples": len(pattern.samples),
        "max_value": stats.max_value,
        "max_angle_deg": stats.max_angle_deg,
        "min_value": stats.min_value,
        "min_angle_deg": stats.min_angle_deg,
        "mean_value": stats.mean_value,
        "front_to_back_db": stats.front_to_back_db,
    }


def _cmd_pattern_plot(args: argparse.Namespace) -> str:
    pattern = parse_pattern_csv(args.input_path, args.unit)
    scale = args.scale
    if scale is None:
        scale = "db-down" if pattern.unit is PatternUnit.DBI else "linear"
    return render_polar_svg(pattern, scale)


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress informational messages")

    parser = argparse.ArgumentParser(
        prog="yagilab",
        description="Yagi-Uda design, wire-antenna simulation, gamma matching and range analysis.",
    )
    parser.add_argument("--version", action="version", version=f"yagilab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("design", parents=[common], help="generate element dimensions")
    p.add_argument("--freq-mhz", type=float, default=900.0, help="design frequency (default 900)")
    p.add_argument("--rule", default="nbs", help="sizing rule: nbs (default), balanis or ycope")
    p.add_argument("--diameter-mm", type=float, default=5.0, help="element rod diameter (default 5)")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("simulate", parents=[common], help="solve currents, impedance and gain")
    p.add_argument("--design", required=True, metavar="PATH", help="design JSON from the design command")
    p.add_argument(
        "--segments",
        type=int,
        default=em_solver.DEFAULT_SEGMENTS_PER_ELEMENT,
        help="odd segment count per element (default %(default)s)",
    )
    p.add_argument(
        "--resolution",
        type=float,
        default=None,
        help="pattern grid step in degrees (default 1.0, or 2.0 with --sweep)",
    )
    p.add_argument("--sweep", metavar="START:STOP:STEP", help="frequency sweep in MHz, stop inclusive")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("match", parents=[common], help="gamma-match the driven element to a line")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--za", help="antenna impedance as R+Xj, e.g. 24+3.73j")
    group.add_argument("--za-file", metavar="PATH", help="simulate output JSON")
    p.add_argument("--rod-lambda", type=float, required=True, help="gamma rod length in wavelengths")
    p.add_argument("--freq-mhz", type=float, default=900.0, help="operating frequency (default 900)")
    p.add_argument("--a-mm", type=float, help="driven element radius, mm")
    p.add_argument("--arod-mm", type=float, help="gamma rod radius, mm")
    p.add_argument("--s-mm", type=float, help="center-to-center rod spacing, mm")
    p.add_argument("--u", type=float, help="explicit radius ratio (thicker/thinner)")
    p.add_argument("--v", type=float, help="explicit spacing over thinner radius")
    p.add_argument("--z0", type=float, help="explicit two-wire line impedance, ohm")
    p.add_argument("--alpha", type=float, help="override the current division factor")
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("analyze", parents=[common], help="VSWR, bandwidth and range statistics")
    p.add_argument("--za", help="impedance as R+Xj")
    p.add_argument("--za-file", metavar="PATH", help="simulate output JSON")
    p.add_argument("--zref", type=float, default=50.0, help="reference impedance (default 50)")
    p.add_argument("--sweep-file", metavar="PATH", help="simulate --sweep output")
    p.add_argument(
        "--vswr-limit",
        type=float,
        default=analysis.DEFAULT_VSWR_LIMIT,
        help="bandwidth VSWR limit (default %(default)s)",
    )
    p.add_argument("--pattern", metavar="PATH", help="meters-unit range pattern CSV")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("range", parents=[common], help="jamming range from antenna gain")
    p.add_argument("--gain-dbi", type=float, required=True, help="antenna gain")
    p.add_argument("--eirp-dbm", type=float, default=analysis.DEFAULT_EIRP_DBM)
    p.add_argument(
        "--threshold-dbm",
        type=float,
        default=None,
        help="blocking threshold (default: calibrated so a -0.8 dBi baseline reaches 4 m)",
    )
    p.add_argument(
        "--exponent",
        type=float,
        default=analysis.DEFAULT_PATH_LOSS_EXPONENT,
        help="path-loss exponent (default %(default)s)",
    )
    p.add_argument("--freq-mhz", type=float, default=900.0)
    p.set_defaults(handler=_cmd_range)

    p = sub.add_parser("pattern", help="pattern file statistics and polar plots")
    psub = p.add_subparsers(dest="pattern_command", required=True, metavar="SUBCOMMAND")

    pattern_in = argparse.ArgumentParser(add_help=False)
    pattern_in.add_argument("--in", dest="input_path", required=True, metavar="PATH", help="pattern CSV")
    pattern_in.add_argument("--unit", choices=[u.value for u in PatternUnit], default="meters")

    ps = psub.add_parser("stats", parents=[common, pattern_in], help="max/min/mean of a pattern CSV")
    ps.set_defaults(handler=_cmd_pattern_stats)

    pp = psub.add_parser("plot", parents=[common, pattern_in], help="polar SVG of a pattern CSV")
    pp.add_argument(
        "--scale",
        choices=["linear", "db-down"],
        default=None,
        help="radial scale (default: linear for meters, db-down for dbi)",
    )
    pp.set_defaults(handler=_cmd_pattern_plot)

    return parser


# Parsing leaves the tree untouched, so one tree serves every run in a process.
_parser = functools.cache(build_parser)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch and write the result; returns the process exit status.

    Nothing is written when the output directory is missing or the handler
    fails, so a failed run never leaves a partial output file.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        _check_output_path(args.out)
        result = args.handler(args)
        text = result if isinstance(result, str) else json.dumps(_jsonable(result), indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            atomic_write_text(args.out, text)
            if not args.quiet:
                print(f"wrote {args.out}", file=sys.stderr)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (YagilabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
