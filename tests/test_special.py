import importlib.util
import warnings
from pathlib import Path

import mpmath
import numpy as np

from yagilab import special
from yagilab.special import sici

BREAKS = [4.0, 6.0, 10.0, 20.0, 64.0]


def _reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with mpmath.workdps(40):
        si = np.array([float(mpmath.si(mpmath.mpf(v))) for v in x])
        ci = np.array([float(mpmath.ci(mpmath.mpf(v))) for v in x])
    return si, ci


def test_sici_matches_mpmath_from_1e_minus_10_to_1e8():
    """Every piece, each breakpoint and one ulp either side of it, against 40-digit mpmath."""
    edges = [np.nextafter(b, side) for b in BREAKS for side in (0.0, np.inf)]
    x = np.concatenate([np.logspace(-10, 8, 1500), np.linspace(0.5, 70.0, 600), BREAKS, edges])
    si, ci = sici(x)
    want_si, want_ci = _reference(x)
    assert np.max(np.abs(si - want_si)) <= 1e-15
    assert np.all(np.abs(ci - want_ci) <= 1e-15 * np.maximum(1.0, np.abs(want_ci)))


def test_sici_of_a_huge_argument_is_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        si, ci = sici(np.array([1e300]))
    assert np.isfinite(si[0]) and np.isfinite(ci[0])
    assert si[0] == np.pi / 2
    assert abs(ci[0]) <= 1e-300


def test_chebyshev_table_is_what_its_script_generates():
    path = Path(__file__).parents[1] / "tools" / "sici_coefficients.py"
    spec = importlib.util.spec_from_file_location("sici_coefficients", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert tuple(script.BREAKS) == tuple(special._BREAKS)
    assert script.table() == [[list(c) for c in pair] for pair in special._CHEBYSHEV]
