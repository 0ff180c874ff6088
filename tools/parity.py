"""Dump the solver's outputs on a fixed case set, or compare two dumps bit for bit.

The cases are 108 beams, two dipoles, four grids whose patterns are not
symmetric about theta = 90 degrees or phi = 0, and one long line of rods:

- the nbs, balanis and ycope designs for 900 MHz with 5 and 2 mm rods, at
  3, 7, 11, 15, 21 and 41 segments per element, each solved at 850, 905 and
  960 MHz;
- a 51-segment half-wave dipole of radius 1e-4 wavelengths at 900 MHz;
- at 900 MHz, the 11-segment nbs beam with 5 mm rods and its fourth element
  moved 0.03 wavelengths up its axis, and three arrays of 9-segment rods of
  radius 1e-3 wavelengths off y = 0 (OFF_AXIS_ARRAYS);
- at 900 MHz, two arrays too wide for a 2 degree grid to integrate their
  radiated power: a 201-segment dipole 19.9 wavelengths long of radius 1e-4
  wavelengths, and twenty 9-segment rods of 0.47 wavelengths and radius
  1e-3 wavelengths on a line 2 wavelengths apart. Their far fields sample
  a finer lattice than the grid (the line's 2 and 4 times finer at 1 and 2
  degrees), so a dump covers that path too.

For each case a dump holds the moment matrix Z, the mode amplitudes, the
solve residual, and the gain_dbi and magnitude grids and the peak direction
(theta, phi) of the far field at 1, 2 and 60 degrees. A case that raises a
YagilabError holds its message instead.

Run from the root of a checkout; the package is imported from that
checkout's src/, so the same script can dump two versions of the code:

    OPENBLAS_NUM_THREADS=1 python tools/parity.py dump before.npz
    python tools/parity.py compare before.npz after.npz

Make both dumps with the same BLAS thread count, one thread as above: a
threaded LU moves the amplitudes in their last digits (by 1e-13 of the
largest on a 2-CPU machine), so two dumps of one commit would differ.

compare checks every array with np.array_equal, prints each case and array
that differ or exist in only one dump, and exits 1 if any does. It then
prints, per array name, the largest difference over the cases both dumps
hold: for gain_dbi in dB, over the samples above GAIN_FLOOR_DBI in both;
for the residual, itself relative, and the peak direction, in degrees, as
is; for every other array relative to its largest entry.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from yagilab import em_solver  # noqa: E402
from yagilab.errors import YagilabError  # noqa: E402
from yagilab.geometry import SPEED_OF_LIGHT, build_design  # noqa: E402

DESIGN_HZ = 900e6
RULES = ("nbs", "balanis", "ycope")
DIAMETERS_M = (0.005, 0.002)
SEGMENTS = (3, 7, 11, 15, 21, 41)
SOLVE_HZ = (850e6, 905e6, 960e6)
RESOLUTIONS_DEG = (1.0, 2.0, 60.0)
# (x, y, length) in wavelengths of each rod, the first one fed
OFF_AXIS_ARRAYS = {
    "parasite-off-axis": [(0.0, 0.0, 0.47), (0.2, 0.1, 0.5)],
    "pair-on-y-axis": [(0.0, 0.0, 0.47), (0.0, 0.25, 0.45)],
    "three-wires-one-below": [(0.0, 0.0, 0.47), (0.2, 0.05, 0.5), (-0.15, -0.2, 0.44)],
}


def cases():
    """(name, grid, frequency) of every case, beams first."""
    for rule in RULES:
        for diameter in DIAMETERS_M:
            design = build_design(rule, DESIGN_HZ, diameter)
            for segs in SEGMENTS:
                grid = em_solver.segment(design, segs)
                for f in SOLVE_HZ:
                    yield f"{rule}-{diameter * 1e3:g}mm-{segs}-{f / 1e6:g}MHz", grid, f
    lam = SPEED_OF_LIGHT / DESIGN_HZ
    yield "dipole-51", em_solver.dipole_grid(0.5 * lam, 1e-4 * lam, 51), DESIGN_HZ
    beam = em_solver.segment(build_design("nbs", DESIGN_HZ, 0.005), 11)
    edges = list(beam.edges)
    edges[3] = edges[3] + 0.03 * lam
    yield "nbs-5mm-11-shifted", replace(beam, edges=tuple(edges)), DESIGN_HZ
    for name, layout in OFF_AXIS_ARRAYS.items():
        rows = [(x * lam, y * lam, length * lam, 1e-3 * lam, i) for i, (x, y, length) in enumerate(layout)]
        yield name, em_solver._build_grid(rows, 9, 0), DESIGN_HZ
    yield "dipole-201-19.9", em_solver.dipole_grid(19.9 * lam, 1e-4 * lam, 201), DESIGN_HZ
    rows = [(i * 2.0 * lam, 0.0, 0.47 * lam, 1e-3 * lam, i) for i in range(20)]
    yield "line-20-rods", em_solver._build_grid(rows, 9, 0), DESIGN_HZ


def outputs(grid, frequency_hz: float) -> dict[str, np.ndarray]:
    basis = em_solver.mode_basis(grid)
    z = em_solver.impedance_matrix(basis, frequency_hz)
    solution = em_solver.solve_currents(z, basis, frequency_hz)
    out = {"Z": z, "amplitudes": solution.amplitudes, "residual": np.array(solution.residual)}
    for resolution in RESOLUTIONS_DEG:
        ff = em_solver.far_field(solution, resolution)
        out[f"gain_dbi_{resolution:g}deg"] = ff.gain_dbi
        out[f"magnitude_{resolution:g}deg"] = ff.magnitude
        out[f"peak_direction_{resolution:g}deg"] = np.array(ff.peak_direction())
    return out


def dump(path: str) -> None:
    arrays, n_cases = {}, 0
    for name, grid, f in cases():
        try:
            found = outputs(grid, f)
        except YagilabError as exc:
            found = {"error": np.array(f"{type(exc).__name__}: {exc}")}
        arrays.update({f"{name}:{key}": value for key, value in found.items()})
        n_cases += 1
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays from {n_cases} cases written to {path}")


def compare(before_path: str, after_path: str) -> int:
    with np.load(before_path) as before, np.load(after_path) as after:
        keys = sorted(set(before.files) | set(after.files))
        differ, largest = [], {}
        for key in keys:
            if key not in before.files or key not in after.files:
                differ.append(f"{key}: only in {before_path if key in before.files else after_path}")
                continue
            a, b = before[key], after[key]
            if not np.array_equal(a, b):
                differ.append(f"{key}: differs")
            name = key.rsplit(":", 1)[1]
            if a.dtype.kind in "fc" and a.shape == b.shape:
                largest[name] = max(largest.get(name, 0.0), _difference(name, a, b))
    for line in differ:
        print(line)
    print(f"{len(keys) - len(differ)} of {len(keys)} arrays equal")
    for name, difference in sorted(largest.items()):
        units = {"gain_dbi": " dB", "residual": "", "peak_direction": " deg"}
        unit = units.get(name.rsplit("_", 1)[0], " of the largest entry")
        print(f"largest {name} difference: {difference:.3g}{unit}")
    return 1 if differ else 0


def _difference(name: str, before: np.ndarray, after: np.ndarray) -> float:
    """Largest |after - before|.

    In dB above the floor for a gain grid, as is for the residual and a peak direction, else relative.
    """
    if name.startswith("gain_dbi"):
        above = (before > em_solver.GAIN_FLOOR_DBI) & (after > em_solver.GAIN_FLOOR_DBI)
        return float(np.max(np.abs(after - before)[above], initial=0.0))
    difference = float(np.max(np.abs(after - before), initial=0.0))
    # a residual is already relative to the excitation, and a peak direction is in degrees
    if name == "residual" or name.startswith("peak_direction") or not difference:
        return difference
    scale = float(np.max(np.abs(before)))
    return difference / scale if scale else math.inf


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("path")
    cmp = sub.add_parser("compare")
    cmp.add_argument("before")
    cmp.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.path)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
