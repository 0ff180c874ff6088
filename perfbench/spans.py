"""Spans recorded from outside yagilab, by wrapping its public functions.

``Tracer.install`` replaces module attributes with wrappers. yagilab looks
these functions up as module globals or module attributes at call time, so
``solve_grid`` -> ``impedance_matrix``/``solve_currents`` ->
``mode_basis``/``lu_factor`` and ``frequency_sweep`` -> its per-point calls
nest on their own. Each span is (name, start, end, parent, op, attrs) and
stays in memory until ``write`` dumps them when the run ends. A layer's self
time is its span minus its direct child spans, so the self times of one op
add up to the op's root span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

import scipy.linalg
from yagilab import analysis, cli, em_solver, geometry, matching

# Power quadrature each far_field call evaluates on top of its sample grid
# (64 Gauss-Legendre theta nodes times 128 phi samples).
POWER_QUADRATURE_DIRECTIONS = 64 * 128


def _matrix_attrs(result) -> dict:
    return {"m": int(result.shape[0])}


def _lu_attrs(result) -> dict:
    return {"m": int(result[0].shape[0])}


def _pattern_attrs(result) -> dict:
    return {"directions": int(result.theta_deg.size * result.phi_deg.size)}


def _sweep_attrs(result) -> dict:
    return {"points": len(result), "failed": sum(p.error is not None for p in result)}


# (module, attribute, span name, attrs taken from the call's result)
SPANNED = [
    (cli, "run", "cli.run", None),
    (geometry, "build_design", "geometry.build_design", None),
    (geometry, "load_design", "geometry.load_design", None),
    (em_solver, "segment", "em_solver.segment", None),
    (em_solver, "frequency_sweep", "em_solver.frequency_sweep", _sweep_attrs),
    (em_solver, "solve_grid", "em_solver.solve_grid", None),
    (em_solver, "impedance_matrix", "em_solver.impedance_matrix", _matrix_attrs),
    (em_solver, "mode_basis", "em_solver.mode_basis", None),
    (em_solver, "solve_currents", "em_solver.solve_currents", None),
    (scipy.linalg, "lu_factor", "scipy.linalg.lu_factor", _lu_attrs),
    (scipy.linalg, "lu_solve", "scipy.linalg.lu_solve", None),
    (em_solver, "input_impedance", "em_solver.input_impedance", None),
    (em_solver, "far_field", "em_solver.far_field", _pattern_attrs),
    (matching, "gamma_input_impedance", "matching.gamma_input_impedance", None),
    (analysis, "analysis_report", "analysis.analysis_report", None),
    (analysis, "jamming_range", "analysis.jamming_range", None),
]

ROOT = "bench.op"

# Per-layer self-time metric of each span, in seconds per op.
SELF_TIME_METRICS = {
    ROOT: "bench.client_self_s",
    "cli.run": "cli.run_self_s",
    "geometry.build_design": "geometry.build_design_s",
    "geometry.load_design": "geometry.load_design_s",
    "em_solver.segment": "em_solver.segment_s",
    "em_solver.frequency_sweep": "em_solver.frequency_sweep_s",
    "em_solver.solve_grid": "em_solver.solve_grid_self_s",
    "em_solver.impedance_matrix": "em_solver.impedance_matrix_s",
    "em_solver.mode_basis": "em_solver.mode_basis_s",
    "em_solver.solve_currents": "em_solver.solve_currents_self_s",
    "scipy.linalg.lu_factor": "em_solver.lu_factor_s",
    "scipy.linalg.lu_solve": "em_solver.lu_solve_s",
    "em_solver.input_impedance": "em_solver.input_impedance_s",
    "em_solver.far_field": "em_solver.far_field_s",
    "matching.gamma_input_impedance": "matching.gamma_input_impedance_s",
    "analysis.analysis_report": "analysis.analysis_report_s",
    "analysis.jamming_range": "analysis.jamming_range_s",
}

# Counts derived from span sizes rather than measured; the output labels
# them "computed".
COMPUTED_METRICS = (
    "em_solver.fill_entries",
    "em_solver.matrix_bytes",
    "em_solver.lu_flops",
    "em_solver.pattern_directions",
    "em_solver.mode_basis_calls_per_solve",
)


class Tracer:
    """Records spans and the bytes the CLI writes, until uninstalled."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.bytes_written = 0
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, attrs in SPANNED:
            self._replace(module, attr, self._spanned(getattr(module, attr), name, attrs))
        # Atomic writes stay inside cli.run's self time; only their size is counted.
        write = cli.atomic_write_text

        @functools.wraps(write)
        def counted_write(path, text):
            self.bytes_written += len(text.encode("utf-8"))
            return write(path, text)

        self._replace(cli, "atomic_write_text", counted_write)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"] = attrs(result)
            return result

        return wrapper

    @contextmanager
    def op(self):
        """Root span of one op; the spans opened inside carry its op id."""
        self._op += 1
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def per_layer(spans: list[dict], n_ops: int, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-op self times and counts from one traced run: name -> (value, unit)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_s = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    calls = dict.fromkeys(SELF_TIME_METRICS, 0)
    fill_entries = matrix_bytes = lu_flops = directions = points = failed = 0
    for s, inner in zip(spans, child):
        self_s[s["name"]] += (s["end"] - s["start"]) - inner
        calls[s["name"]] += 1
        a = s["attrs"]
        if s["name"] == "em_solver.impedance_matrix":
            fill_entries += a["m"] ** 2
            matrix_bytes += 16 * a["m"] ** 2
        elif s["name"] == "scipy.linalg.lu_factor":
            lu_flops += 8 * a["m"] ** 3 / 3
        elif s["name"] == "em_solver.far_field":
            directions += a["directions"] + POWER_QUADRATURE_DIRECTIONS
        elif s["name"] == "em_solver.frequency_sweep":
            points += a["points"]
            failed += a["failed"]

    op_s = [s["end"] - s["start"] for s in spans if s["name"] == ROOT]
    out = {metric: (self_s[name] / n_ops, "s") for name, metric in SELF_TIME_METRICS.items()}
    fill_s = self_s["em_solver.impedance_matrix"]
    lu_s = self_s["scipy.linalg.lu_factor"]
    out.update(
        {
            "em_solver.fill_entries": (fill_entries / n_ops, "count"),
            "em_solver.matrix_bytes": (matrix_bytes / n_ops, "B"),
            "em_solver.fill_us_per_entry": (1e6 * fill_s / fill_entries if fill_entries else 0.0, "us"),
            "em_solver.lu_flops": (lu_flops / n_ops, "flop"),
            "em_solver.lu_gflops": (lu_flops / lu_s / 1e9 if lu_s else 0.0, "GFLOP/s"),
            "em_solver.mode_basis_calls_per_solve": (
                calls["em_solver.mode_basis"] / max(calls["em_solver.solve_grid"], 1),
                "count",
            ),
            "em_solver.pattern_directions": (directions / n_ops, "count"),
            "em_solver.sweep_points": (points / n_ops, "count"),
            "em_solver.sweep_points_failed": (failed / n_ops, "count"),
            "cli.bytes_written": (bytes_written / n_ops, "B"),
            "trace.op_s.mean": (sum(op_s) / n_ops, "s"),
            "trace.op_s.p50": (statistics.median(op_s), "s"),
        }
    )
    return out
