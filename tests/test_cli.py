import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from xml.dom import minidom

import pytest

from yagilab import cli
from yagilab.errors import DomainError, ParseError

DATA_DIR = Path(__file__).parent / "data"
BENCH_DIR = Path(__file__).parents[1] / "perfbench"
BENCH_REFERENCE = BENCH_DIR / "reference.json"
YAGI_CSV = DATA_DIR / "yagi_range_pattern.csv"
HELIX_CSV = DATA_DIR / "helix_range_pattern.csv"


# --- literal and sweep parsing ---


@pytest.mark.parametrize(
    "text, expected",
    [
        ("24+3.73j", 24 + 3.73j),
        ("24-3.73j", 24 - 3.73j),
        ("50", 50 + 0j),
        ("-12.5+0j", -12.5 + 0j),
        ("1e2+1e1j", 100 + 10j),
    ],
)
def test_complex_literals(text, expected):
    assert cli.parse_complex_ohm(text) == expected


@pytest.mark.parametrize("text", ["24 + 3j", "(24+3j)", "abc", "inf+0j", "", "nan"])
def test_bad_complex_literals(text):
    with pytest.raises(ParseError):
        cli.parse_complex_ohm(text)


def test_sweep_spec_inclusive_endpoints():
    freqs = cli.parse_sweep_mhz("850:960:5")
    assert len(freqs) == 23
    assert freqs[0] == 850e6
    assert freqs[-1] == 960e6


def test_sweep_spec_degenerate_and_truncated():
    assert cli.parse_sweep_mhz("900:900:5") == [900e6]
    freqs = cli.parse_sweep_mhz("850:960:7")
    assert len(freqs) == 16
    assert freqs[-1] == pytest.approx(955e6)


@pytest.mark.parametrize("text", ["850:960", "960:850:5", "850:abc:5", "850:960:0", "0:960:5"])
def test_bad_sweep_specs(text):
    with pytest.raises(ParseError):
        cli.parse_sweep_mhz(text)


# --- pattern CSV ingest ---


def _write_csv(path, rows, header="angle_deg,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_pattern_csv_sorted_on_ingest(tmp_path):
    p = tmp_path / "scrambled.csv"
    _write_csv(p, ["20,3.0", "0,1.0", "10,2.0"])
    pattern = cli.parse_pattern_csv(p, "meters")
    assert pattern.angles_deg == (0.0, 10.0, 20.0)
    assert pattern.values == (1.0, 2.0, 3.0)
    assert pattern.label == "scrambled.csv"


def test_pattern_csv_header_must_match(tmp_path):
    p = tmp_path / "bad.csv"
    _write_csv(p, ["0,1.0"], header="angle,range")
    with pytest.raises(ParseError, match=":1:"):
        cli.parse_pattern_csv(p, "meters")


def test_pattern_csv_malformed_line_reports_number(tmp_path):
    p = tmp_path / "mal.csv"
    _write_csv(p, ["0,1.0", "not a row", "20,2.0"])
    with pytest.raises(ParseError, match=":3:"):
        cli.parse_pattern_csv(p, "meters")


def test_pattern_csv_rejects_duplicates_and_wild_angles(tmp_path):
    p = tmp_path / "dup.csv"
    _write_csv(p, ["10,1.0", "10,2.0"])
    with pytest.raises(DomainError, match="duplicate"):
        cli.parse_pattern_csv(p, "meters")
    q = tmp_path / "wild.csv"
    _write_csv(q, ["0,1.0", "370,2.0"])
    with pytest.raises(DomainError):
        cli.parse_pattern_csv(q, "meters")


def test_pattern_csv_ignores_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("angle_deg,value\n0,1.0\n\n10,2.0\n\n")
    pattern = cli.parse_pattern_csv(p, "meters")
    assert len(pattern.samples) == 2


# --- polar SVG rendering ---


def _sample_points(svg_text):
    pat = re.compile(
        r'<circle class="sample" cx="([0-9.+-]+)" cy="([0-9.+-]+)"[^/]*'
        r'data-angle-deg="([0-9.+-]+)" data-value="([0-9.+-]+)"'
    )
    return [
        (float(cx), float(cy), a, v) for cx, cy, a, v in pat.findall(svg_text)
    ]


def test_svg_round_trips_every_sample(tmp_path):
    out = tmp_path / "yagi.svg"
    rc = cli.run(["pattern", "plot", "--in", str(YAGI_CSV), "--out", str(out), "--quiet"])
    assert rc == 0
    svg = out.read_text()
    minidom.parseString(svg)  # well-formed XML
    assert f"generator: yagilab {cli.__version__}" in svg
    points = _sample_points(svg)
    assert len(points) == 36
    expected = set()
    for line in YAGI_CSV.read_text().splitlines()[1:]:
        a, v = line.split(",")
        expected.add((f"{float(a):.3f}", f"{float(v):.3f}"))
    assert {(a, v) for _, _, a, v in points} == expected
    for deg in range(0, 360, 30):
        assert f"{deg}&#176;" in svg
    for cx, cy, _, _ in points:
        assert math.hypot(cx - 260.0, cy - 260.0) <= 200.0 + 0.01


def test_svg_constant_pattern_is_a_circle(tmp_path):
    csv = tmp_path / "flat.csv"
    _write_csv(csv, [f"{a},5.0" for a in range(0, 360, 30)])
    out = tmp_path / "flat.svg"
    assert cli.run(["pattern", "plot", "--in", str(csv), "--out", str(out), "--quiet"]) == 0
    radii = [math.hypot(cx - 260.0, cy - 260.0) for cx, cy, _, _ in _sample_points(out.read_text())]
    assert len(radii) == 12
    assert max(radii) - min(radii) < 1.0
    assert radii[0] == pytest.approx(184.0, abs=1.0)


def test_svg_empty_pattern_is_domain_error(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("angle_deg,value\n")
    out = tmp_path / "empty.svg"
    rc = cli.run(["pattern", "plot", "--in", str(csv), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_svg_scale_unit_mismatches(tmp_path):
    neg = tmp_path / "neg.csv"
    _write_csv(neg, ["0,11.0", "180,-3.0"])
    out = tmp_path / "x.svg"
    rc = cli.run(
        ["pattern", "plot", "--in", str(neg), "--unit", "dbi", "--scale", "linear", "--out", str(out)]
    )
    assert rc == 1
    rc = cli.run(
        ["pattern", "plot", "--in", str(YAGI_CSV), "--scale", "db-down", "--out", str(out)]
    )
    assert rc == 1
    assert not out.exists()


# --- exit codes and diagnostics ---


def test_usage_errors_exit_two(tmp_path):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["design", "--no-such-flag"]) == 2
    # match needs one geometry route: explicit ratios or physical dimensions
    assert cli.run(["match", "--za", "24+3.73j", "--rod-lambda", "0.099"]) == 2


def test_domain_errors_exit_one(tmp_path, capsys):
    assert cli.run(["simulate", "--design", str(tmp_path / "missing.json")]) == 1
    assert "input file not found" in capsys.readouterr().err
    assert cli.run(["match", "--za", "garbage", "--rod-lambda", "0.099",
                    "--u", "1.5", "--v", "6.9", "--z0", "209"]) == 1


@pytest.mark.parametrize("resolution", ["inf", "1e300"])
def test_simulate_with_resolution_below_two_steps_exits_one(tmp_path, capsys, resolution):
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    rc = cli.run(["simulate", "--design", str(design), "--segments", "3",
                  "--resolution", resolution, "--out", str(out), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "resolution" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["1e-300", "1e-6", "0.001"])
def test_simulate_with_resolution_finer_than_the_limit_exits_one(tmp_path, capsys, resolution):
    """Past 7200 phi steps the pattern grid would not fit in memory; it is refused first."""
    design = tmp_path / "d.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    capsys.readouterr()
    rc = cli.run(["simulate", "--design", str(design), "--segments", "3", "--resolution", resolution])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: resolution {float(resolution)!r} deg is finer than 0.05 deg (more than 7200 phi steps)"
    ]


@pytest.mark.parametrize("diameter_m", [-0.005, math.nan, 1e-300])
def test_simulate_rejects_a_bad_rod_diameter_in_the_design_file(tmp_path, capsys, diameter_m):
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    data = json.loads(design.read_text())
    data["elements"][2]["diameter_m"] = diameter_m
    design.write_text(json.dumps(data))
    rc = cli.run(["simulate", "--design", str(design), "--segments", "11", "--out", str(out), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "radius" in err
    assert not out.exists()


def test_output_dir_checked_before_compute(tmp_path):
    out = tmp_path / "nope" / "d.json"
    assert cli.run(["design", "--out", str(out)]) == 1
    assert not out.exists()


def test_version_flag(capsys):
    assert cli.run(["--version"]) == 0
    assert "yagilab" in capsys.readouterr().out


def test_quiet_suppresses_write_note(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert cli.run(["design", "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().err
    assert cli.run(["design", "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_stdout_json_when_no_out_path(capsys):
    assert cli.run(["range", "--gain-dbi", "11.2", "--quiet"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 14.0 <= payload["range_m"] <= 18.0
    assert payload["threshold_dbm"] == -14.3736  # six significant digits


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(["design", "--out", str(a), "--quiet"]) == 0
    assert cli.run(["design", "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    assert cli.run(["pattern", "plot", "--in", str(YAGI_CSV), "--out", str(sa), "--quiet"]) == 0
    assert cli.run(["pattern", "plot", "--in", str(YAGI_CSV), "--out", str(sb), "--quiet"]) == 0
    assert sa.read_bytes() == sb.read_bytes()


# --- command payloads ---


def test_match_payload_hits_target_window(tmp_path, capsys):
    rc = cli.run(
        ["match", "--za", "24+3.73j", "--a-mm", "2.5", "--arod-mm", "3.65",
         "--s-mm", "17.2", "--rod-lambda", "0.099", "--freq-mhz", "900", "--quiet"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 45.0 <= payload["zin_ohm"][0] <= 53.0
    assert 5.5e-12 <= payload["c_farad"] <= 7.0e-12
    assert payload["za_ohm"] == [24.0, 3.73]


def test_pattern_stats_payload(capsys):
    rc = cli.run(["pattern", "stats", "--in", str(HELIX_CSV), "--quiet"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_value"] == 4.6
    assert payload["max_angle_deg"] == 190.0
    assert 3.0 <= payload["mean_value"] <= 4.0
    assert payload["front_to_back_db"] is None
    assert payload["unit"] == "meters"


def test_analyze_sweep_file_bandwidth(tmp_path, capsys):
    sweep = {
        "sweep": [
            {"frequency_hz": 800e6, "impedance_ohm": [150.0, 0.0]},
            {"frequency_hz": 850e6, "impedance_ohm": [100.0, 0.0]},
            {"frequency_hz": 915e6, "impedance_ohm": [60.0, 0.0]},
            {"frequency_hz": 930e6, "impedance_ohm": None},
            {"frequency_hz": 980e6, "impedance_ohm": [100.0, 0.0]},
            {"frequency_hz": 1030e6, "impedance_ohm": [150.0, 0.0]},
        ]
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    rc = cli.run(["analyze", "--sweep-file", str(path), "--quiet"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bandwidth_mhz"] == 130.0  # null entry skipped, limit hit at samples
    assert payload["vswr"] is None


def test_full_pipeline_design_to_report(tmp_path, capsys):
    design = tmp_path / "d.json"
    result = tmp_path / "r.json"
    assert cli.run(["design", "--freq-mhz", "900", "--out", str(design), "--quiet"]) == 0
    assert (
        cli.run(
            ["simulate", "--design", str(design), "--segments", "11",
             "--resolution", "6", "--out", str(result), "--quiet"]
        )
        == 0
    )
    sim = json.loads(result.read_text())
    assert sim["segments_per_element"] == 11
    assert isinstance(sim["impedance_ohm"], list) and len(sim["impedance_ohm"]) == 2
    assert 8.0 <= sim["gain_dbi"] <= 13.0

    rc = cli.run(
        ["match", "--za-file", str(result), "--a-mm", "2.5", "--arod-mm", "3.65",
         "--s-mm", "17.2", "--rod-lambda", "0.099", "--freq-mhz", "900", "--quiet"]
    )
    assert rc == 0
    matched = json.loads(capsys.readouterr().out)
    assert matched["za_ohm"] == sim["impedance_ohm"]
    assert matched["zin_ohm"][0] > 0

    rc = cli.run(
        ["analyze", "--za-file", str(result), "--pattern", str(YAGI_CSV), "--quiet"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "vswr", "return_loss_db", "bandwidth_mhz", "max_range_m",
        "max_range_angle_deg", "min_range_m", "min_range_angle_deg", "mean_range_m",
    }
    assert report["max_range_m"] == 16.72
    assert report["min_range_angle_deg"] == 120.0
    assert report["vswr"] > 1.0
    assert report["bandwidth_mhz"] is None


def test_sweep_band_matches_benchmark_reference(tmp_path):
    """The benchmark's sweep-band op reproduces its stored Z and gain.

    Reads perfbench/reference.json (never writes it) and applies its
    tolerances, so a change that would fail the benchmark's output check
    fails here first.
    """
    reference = json.loads(BENCH_REFERENCE.read_text())
    tol, band = reference["tolerance"], reference["sweep-band"]
    design, out = tmp_path / "nbs.json", tmp_path / "sweep.json"
    assert cli.run(["design", "--rule", "nbs", "--freq-mhz", "900", "--diameter-mm", "5",
                    "--out", str(design), "--quiet"]) == 0
    assert cli.run(["simulate", "--design", str(design), *band["argv"],
                    "--out", str(out), "--quiet"]) == 0
    points = json.loads(out.read_text())["sweep"]
    assert len(points) == len(band["points"])
    for got, want in zip(points, band["points"]):
        assert got["error"] is None
        assert got["frequency_hz"] == want["frequency_hz"]
        z, z_ref = complex(*got["impedance_ohm"]), complex(*want["impedance_ohm"])
        assert abs(z - z_ref) <= tol["impedance_rel"] * abs(z_ref)
        assert abs(got["gain_dbi"] - want["gain_dbi"]) <= tol["gain_db"]


def test_traced_simulate_builds_one_mode_basis_per_solve(tmp_path):
    """The benchmark's spans still open on the public fill and solve.

    perfbench/spans.py records its spans by wrapping module attributes, so a
    fill or solve that bypassed the public functions would read 0 in its
    metrics. This installs its Tracer (reading the module only), runs one
    coarse simulate and checks the per-layer figures the benchmark reports.
    """
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH_DIR / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op():
            rc = cli.run(["simulate", "--design", str(design), "--segments", "7",
                          "--resolution", "6", "--out", str(out), "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == 0
    layer = {name: value for name, (value, _) in spans.per_layer(tracer.spans, 1, tracer.bytes_written).items()}
    assert layer["em_solver.fill_entries"] > 0
    assert layer["em_solver.mode_basis_calls_per_solve"] == 1
    self_times = [layer[name] for name in spans.SELF_TIME_METRICS.values()]
    assert math.isclose(sum(self_times), layer["trace.op_s.mean"], rel_tol=1e-9)


# --- golden bytes ---

GOLDEN = json.loads((DATA_DIR / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_cli_output_matches_golden_bytes(tmp_path, capsys, case):
    """Exit code, stdout, stderr and every written file, byte for byte.

    Each case lists its argv and input files; {tmp} stands for the run's
    temporary directory and {data} for tests/data.
    """
    for name, text in case.get("files", {}).items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{data}", str(DATA_DIR)) for a in case["argv"]]
    code = cli.run(argv)
    out, err = capsys.readouterr()
    written = {
        p.name: p.read_text().replace(str(tmp_path), "{tmp}")
        for p in sorted(tmp_path.iterdir())
        if p.name not in case.get("files", {})
    }
    assert code == case["exit"]
    assert out.replace(str(tmp_path), "{tmp}") == case["stdout"]
    assert err.replace(str(tmp_path), "{tmp}") == case["stderr"]
    assert written == case.get("written", {})


def test_reused_parser_keeps_no_state_between_runs(capsys):
    """One parser serves every run: a flag given once must not reach the next run."""
    explicit = ["match", "--za", "24+3.73j", "--u", "1.46", "--v", "6.88", "--z0", "209",
                "--alpha", "1.3", "--rod-lambda", "0.099", "--quiet"]
    physical = ["match", "--za", "24+3.73j", "--a-mm", "2.5", "--arod-mm", "3.65",
                "--s-mm", "17.2", "--rod-lambda", "0.099", "--quiet"]
    assert cli.run(explicit) == 0
    assert cli.run(physical) == 0
    assert "usage error" not in capsys.readouterr().err
    assert cli._parser() is cli._parser()


# --- bad input files ---


def _assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("length_m", [-0.12, 0.0, math.nan, math.inf])
def test_simulate_rejects_a_bad_rod_length_in_the_design_file(tmp_path, capsys, length_m):
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    data = json.loads(design.read_text())
    data["elements"][2]["length_m"] = length_m
    design.write_text(json.dumps(data))
    rc = cli.run(["simulate", "--design", str(design), "--segments", "11", "--out", str(out), "--quiet"])
    assert rc == 1
    _assert_one_error_line(capsys, "element 2", "rod length", repr(length_m))
    assert not out.exists()


@pytest.mark.parametrize("position_m", [math.nan, math.inf])
def test_simulate_rejects_a_bad_rod_position_in_the_design_file(tmp_path, capsys, position_m):
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    data = json.loads(design.read_text())
    data["elements"][3]["position_m"] = position_m
    design.write_text(json.dumps(data))
    rc = cli.run(["simulate", "--design", str(design), "--segments", "11", "--out", str(out), "--quiet"])
    assert rc == 1
    _assert_one_error_line(capsys, "element 3", "position", repr(position_m))
    assert not out.exists()


@pytest.mark.parametrize(
    "positions", [{3: 1e308}, {3: -1e308}, {3: 1e308, 4: -1e308}], ids=["far", "far-behind", "far-apart"]
)
def test_simulate_rejects_a_rod_too_far_for_a_finite_phase(tmp_path, capsys, positions):
    """A finite position whose phase k*d overflows fails with one line and no warning."""
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    data = json.loads(design.read_text())
    for element, position_m in positions.items():
        data["elements"][element]["position_m"] = position_m
    design.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.run(["simulate", "--design", str(design), "--segments", "11", "--out", str(out), "--quiet"])
    assert rc == 1
    assert caught == []
    _assert_one_error_line(capsys, "element 3", "array extent")
    assert not out.exists()


def test_simulate_solves_a_far_but_finite_rod(tmp_path, capsys):
    """No distance limit: a rod 1e300 m away still solves."""
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    data = json.loads(design.read_text())
    data["elements"][3]["position_m"] = 1e300
    design.write_text(json.dumps(data))
    assert cli.run(["simulate", "--design", str(design), "--segments", "11", "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


@pytest.mark.parametrize("flags", [[], ["--sweep", "850:960:55"]], ids=["point", "sweep"])
def test_simulate_rejects_a_design_with_two_driven_elements(tmp_path, capsys, flags):
    """Only one element can hold the feed gap; a second driven element is an error, not ignored."""
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    data = json.loads(design.read_text())
    data["elements"][2]["role"] = "driven"
    design.write_text(json.dumps(data))
    rc = cli.run(["simulate", "--design", str(design), "--segments", "7", "--out", str(out), "--quiet", *flags])
    assert rc == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err == "error: design has 2 driven elements (1, 2); only one can be fed\n"
    assert not out.exists()


def test_cli_import_leaves_scipy_special_out():
    """Importing the CLI loads no scipy module at all; numpy is the only runtime dependency.

    Importing scipy.linalg took 0.24-0.32 s and about 28 MiB per process, and
    scipy.special for a J0 closed form of the far-field power 49-67 ms and
    2.1-2.4 MiB more (2-vCPU VM, Python 3.11, scipy 1.17), which every CLI
    start would pay. The solve uses numpy's LAPACK, the fill numpy's own Si
    and Ci, and the power a 64 x 128 quadrature.
    """
    code = "import sys, yagilab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "text",
    [
        json.dumps([30.0, 29.0]),
        json.dumps({"impedance_ohm": [math.nan, 1.0]}),
        json.dumps({"impedance_ohm": [30.0, math.inf]}),
        json.dumps({"impedance_ohm": [True, 1.0]}),
        json.dumps({"impedance_ohm": ["30", 1.0]}),
        '{"impedance_ohm": [1' + "0" * 400 + ", 1.0]}",  # a JSON integer beyond any float
        '{"impedance_ohm": [1' + "0" * 5000 + ", 1.0]}",  # too long for int() to convert
    ],
    ids=["list", "nan", "inf", "bool", "string", "huge-int", "overlong-int"],
)
def test_match_rejects_a_bad_za_file(tmp_path, capsys, text):
    za, out = tmp_path / "za.json", tmp_path / "m.json"
    za.write_text(text)
    rc = cli.run(["match", "--za-file", str(za), "--a-mm", "2.5", "--arod-mm", "3.65",
                  "--s-mm", "17.2", "--rod-lambda", "0.099", "--out", str(out), "--quiet"])
    assert rc == 1
    _assert_one_error_line(capsys, str(za))
    assert not out.exists()


@pytest.mark.parametrize(
    "document",
    [
        [{"frequency_hz": 900e6, "impedance_ohm": [50.0, 0.0]}],
        {"sweep": [{"frequency_hz": 900e6, "impedance_ohm": ["a", 1]}]},
        {"sweep": [{"frequency_hz": 900e6, "impedance_ohm": [50.0, False]}]},
        {"sweep": [{"frequency_hz": "x", "impedance_ohm": [50.0, 0.0]}]},
        {"sweep": [{"frequency_hz": math.nan, "impedance_ohm": None}]},
        {"sweep": [{"frequency_hz": True, "impedance_ohm": [50.0, 0.0]}]},
    ],
    ids=["list", "string-pair", "bool-pair", "string-frequency", "nan-frequency", "bool-frequency"],
)
def test_analyze_rejects_a_bad_sweep_file(tmp_path, capsys, document):
    sweep, out = tmp_path / "sweep.json", tmp_path / "a.json"
    sweep.write_text(json.dumps(document))
    rc = cli.run(["analyze", "--sweep-file", str(sweep), "--out", str(out), "--quiet"])
    assert rc == 1
    _assert_one_error_line(capsys, str(sweep))
    assert not out.exists()


def test_pattern_csv_that_is_not_utf8_is_an_error(tmp_path, capsys):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes("angle_deg,value\n0,1.0\n# mètres\n".encode("latin-1"))
    rc = cli.run(["pattern", "stats", "--in", str(csv)])
    assert rc == 1
    _assert_one_error_line(capsys, str(csv), "UTF-8")


# --- numbers that overflow or are not finite ---

_EXPLICIT_MATCH = ["match", "--za", "24+3.73j", "--rod-lambda", "0.099", "--u", "2", "--v", "5"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--z0", "inf"],
        ["--z0", "300", "--alpha", "-1"],
        ["--z0", "300", "--alpha", "1e308"],
        ["--z0", "nan"],
        ["--z0", "1e-320"],
        ["--z0", "300", "--alpha", "nan"],
        ["--z0", "300", "--alpha", "inf"],
        ["--z0", "300", "--freq-mhz", "nan"],
        ["--z0", "300", "--freq-mhz", "1e-320"],
        ["--z0", "300", "--u", "nan", "--alpha", "1.3"],
        ["--z0", "300", "--rod-lambda", "1e-320"],  # the stub admittance overflows
    ],
    ids=lambda flags: " ".join(flags),
)
def test_explicit_match_rejects_numbers_the_chain_cannot_carry(capsys, flags):
    """Each of these once raised a traceback or wrote null fields with exit 0."""
    assert cli.run([*_EXPLICIT_MATCH, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [["range", "--gain-dbi", "1e308"], ["range", "--gain-dbi", "11", "--threshold-dbm=-1e308"]],
    ids=["huge-gain", "huge-margin"],
)
def test_range_that_overflows_exits_one(capsys, argv):
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "jamming range" in err, err


def test_simulate_with_a_resolution_too_fine_to_count_exits_one(tmp_path, capsys):
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    rc = cli.run(["simulate", "--design", str(design), "--segments", "3",
                  "--resolution", "1e-320", "--out", str(out), "--quiet"])
    assert rc == 1
    _assert_one_error_line(capsys, "resolution")
    assert not out.exists()


def test_sweep_with_a_resolution_too_fine_to_count_tags_every_point(tmp_path, capsys):
    design, out = tmp_path / "d.json", tmp_path / "s.json"
    assert cli.run(["design", "--out", str(design), "--quiet"]) == 0
    rc = cli.run(["simulate", "--design", str(design), "--segments", "3", "--sweep", "850:960:55",
                  "--resolution", "1e-320", "--out", str(out), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    points = json.loads(out.read_text())["sweep"]
    assert len(points) == 3
    assert all(p["impedance_ohm"] is None and "resolution" in p["error"] for p in points)
