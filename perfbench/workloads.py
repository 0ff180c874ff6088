"""The benchmark's workloads: generated inputs, one op each, and output checks.

Every op drives the public entry point ``yagilab.cli.run`` in process, one
closed-loop client at a time. The program sees only the command lines and
files made here. Only ``design-loop`` draws its inputs from the workload
seed; ``sweep-band`` repeats one fixed input, so the seed does not change it.

An op returns ``None`` when every output passes its check, or a short reason
when it fails: a nonzero exit, a tagged sweep point, or an output outside its
reference check. This module imports only the standard library, so the
worker can import ``yagilab`` before anything from numpy or scipy.
"""

from __future__ import annotations

import json
import math
import os
import random

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
_TOL = REFERENCE["tolerance"]

# The 900 MHz nbs design with 5 mm rods that sweep-band solves.
NBS_DESIGN_ARGV = ["--rule", "nbs", "--freq-mhz", "900", "--diameter-mm", "5"]


class OpFailed(Exception):
    """An op's output failed its check."""


def _cli(cli, argv: list[str]) -> None:
    rc = cli.run(argv + ["--quiet"])
    if rc != 0:
        raise OpFailed(f"'{argv[0]}' exited {rc}")


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_z(label: str, got, want) -> None:
    if not (isinstance(got, list) and len(got) == 2 and _finite(*got)):
        raise OpFailed(f"{label}: impedance {got!r} is not a finite pair")
    err = abs(complex(*got) - complex(*want))
    if err > _TOL["impedance_rel"] * abs(complex(*want)):
        raise OpFailed(f"{label}: impedance {got} differs from reference {want}")


def _check_gain(label: str, got, want) -> None:
    if not _finite(got) or abs(got - want) > _TOL["gain_db"]:
        raise OpFailed(f"{label}: gain {got!r} dBi differs from reference {want}")


class Workload:
    """One workload; ``seed`` feeds the inputs of a workload that draws them."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, cli) -> None:
        """Write the fixture files the ops read."""

    def op(self, cli) -> None:
        """Run one op; raises OpFailed when an output fails its check."""
        raise NotImplementedError

    def run_op(self, cli) -> str | None:
        try:
            self.op(cli)
        except OpFailed as exc:
            return str(exc)
        return None


class SweepBand(Workload):
    """Repeated ``simulate --sweep 850:960:55`` of the nbs design: 21 segments, 2 degrees.

    Every point reuses one geometry, so geometry caching and frequency
    batching can help only here. With one BLAS thread the fill of the three
    121-mode matrices is about 93% of each op, the far field about 5% and
    LU about 0.1%; it is also the workload with the largest matrices, where a
    structured or symmetric fill shows most.
    """

    name = "sweep-band"
    why = (
        "Every sweep point reuses one geometry, so geometry caching and frequency "
        "batching can help only here; the fill of its 121-mode matrices is ~93% of each op."
    )

    def setup(self, cli) -> None:
        _cli(cli, ["design", *NBS_DESIGN_ARGV, "--out", self.path("nbs.json")])

    def op(self, cli) -> None:
        ref = REFERENCE[self.name]
        out = self.path("sweep.json")
        _cli(cli, ["simulate", "--design", self.path("nbs.json"), *ref["argv"], "--out", out])
        points = _read(out).get("sweep")
        if not isinstance(points, list) or len(points) != len(ref["points"]):
            raise OpFailed(f"{self.name}: expected {len(ref['points'])} sweep points")
        for got, want in zip(points, ref["points"]):
            label = f"{self.name} at {want['frequency_hz'] / 1e6:g} MHz"
            if got.get("error") is not None:
                raise OpFailed(f"{label}: point tagged {got['error']!r}")
            if got.get("frequency_hz") != want["frequency_hz"]:
                raise OpFailed(f"{label}: got frequency {got.get('frequency_hz')!r}")
            _check_z(label, got.get("impedance_ohm"), want["impedance_ohm"])
            _check_gain(label, got.get("gain_dbi"), want["gain_dbi"])


# Draw ranges for design-loop. At 960 MHz the shortest element (0.1125 m)
# cut into 15 segments still gives 7.5 mm segments, above the largest rod
# radius of 4 mm, so every draw stays inside the thin-wire limit.
DESIGN_RULES = ("nbs", "balanis", "ycope")
DIAMETER_MM = (2.0, 8.0)
FREQ_MHZ = (850.0, 960.0)
COARSE_SEGMENTS = (7, 9, 11, 13, 15)
GAMMA_ROD_LAMBDA = "0.099"


class DesignDraws:
    """Seeded design-loop inputs: rule, rod diameter, frequency and segment count.

    Rules and segment counts come in shuffled blocks that hold each value
    once, so every run of a few dozen ops has the same mix of matrix sizes
    whatever the seed, and the op-time median does not move with the draw.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._rules: list[str] = []
        self._segments: list[int] = []

    def _from_block(self, block: list, values: tuple):
        if not block:
            block.extend(self.rng.sample(values, len(values)))
        return block.pop()

    def next(self) -> dict:
        return {
            "rule": self._from_block(self._rules, DESIGN_RULES),
            "diameter_mm": round(self.rng.uniform(*DIAMETER_MM), 1),
            "freq_mhz": round(self.rng.uniform(*FREQ_MHZ), 1),
            "segments": self._from_block(self._segments, COARSE_SEGMENTS),
        }


class DesignLoop(Workload):
    """The README chain on a seeded design: design, simulate, match, analyze, range.

    No geometry is shared between solves, so a geometry cache should show no
    change. Its matrices (37 to 85 modes) are small, so per-call Python
    overhead dominates: the column loop of the fill, the repeated
    mode_basis/validate, and the far field. The cli, matching and analysis
    layers get their only real use here.
    """

    name = "design-loop"
    why = (
        "No geometry is shared between solves and matrices are small, so per-call Python "
        "overhead dominates; the only real use of the cli, matching and analysis layers."
    )

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.draws = DesignDraws(seed)

    def op(self, cli) -> None:
        d = self.draws.next()
        label = f"{self.name} {d}"
        dia, freq = d["diameter_mm"], f"{d['freq_mhz']:g}"
        design, sim = self.path("design.json"), self.path("sim.json")
        match, report, ranged = self.path("match.json"), self.path("analyze.json"), self.path("range.json")

        _cli(cli, ["design", "--rule", d["rule"], "--freq-mhz", freq,
                   "--diameter-mm", f"{dia:g}", "--out", design])
        _cli(cli, ["simulate", "--design", design, "--segments", str(d["segments"]),
                   "--resolution", "1", "--out", sim])
        simulated = _read(sim)
        z, gain = simulated.get("impedance_ohm"), simulated.get("gain_dbi")
        if not (isinstance(z, list) and len(z) == 2 and _finite(*z, gain)):
            raise OpFailed(f"{label}: simulate gave Z {z!r}, gain {gain!r}")

        # Gamma rod proportions of the README walkthrough (a 5 mm rod takes
        # a = 2.5 mm, a_rod = 3.65 mm, s = 17.2 mm), scaled to the drawn rod.
        _cli(cli, ["match", "--za-file", sim, "--a-mm", f"{dia / 2:g}",
                   "--arod-mm", f"{0.73 * dia:g}", "--s-mm", f"{3.44 * dia:g}",
                   "--rod-lambda", GAMMA_ROD_LAMBDA, "--freq-mhz", freq, "--out", match])
        zin = _read(match).get("zin_ohm")
        if not (isinstance(zin, list) and len(zin) == 2 and _finite(*zin)):
            raise OpFailed(f"{label}: matched zin_ohm {zin!r} is not finite")

        _cli(cli, ["analyze", "--za", f"{zin[0]!r}{zin[1]:+}j", "--out", report])
        vswr = _read(report).get("vswr")
        if not _finite(vswr):
            raise OpFailed(f"{label}: analyze gave vswr {vswr!r}")

        _cli(cli, ["range", "--gain-dbi", repr(gain), "--freq-mhz", freq, "--out", ranged])
        distance = _read(ranged).get("range_m")
        if not _finite(distance) or distance <= 0:
            raise OpFailed(f"{label}: range gave {distance!r} m")


WORKLOADS = {w.name: w for w in (SweepBand, DesignLoop)}


def warm_up(cli, workdir: str) -> None:
    """One coarse pass of the README chain, so lazy imports and caches fill before timing."""
    design, sim = os.path.join(workdir, "warm_design.json"), os.path.join(workdir, "warm_sim.json")
    out = os.path.join(workdir, "warm_out.json")
    _cli(cli, ["design", *NBS_DESIGN_ARGV, "--out", design])
    _cli(cli, ["simulate", "--design", design, "--segments", "5", "--resolution", "10", "--out", sim])
    _cli(cli, ["match", "--za-file", sim, "--a-mm", "2.5", "--arod-mm", "3.65", "--s-mm", "17.2",
               "--rod-lambda", GAMMA_ROD_LAMBDA, "--out", out])
    _cli(cli, ["analyze", "--za", "24+3.73j", "--out", out])
    _cli(cli, ["range", "--gain-dbi", "11.2", "--out", out])
