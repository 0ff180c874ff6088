"""Chebyshev coefficients of the auxiliary functions of Si and Ci.

For x >= 4, yagilab.special writes the sine and cosine integrals as

    Si(x) = pi/2 - f(x) cos(x) - g(x) sin(x),
    Ci(x) = f(x) sin(x) - g(x) cos(x),

with f(x) = Ci(x) sin(x) - (Si(x) - pi/2) cos(x) and
g(x) = -Ci(x) cos(x) - (Si(x) - pi/2) sin(x). Between the breakpoints 4, 6,
10, 20 and 64 it evaluates x*f(x) and x^2*g(x) as Chebyshev series in t = 1/x,
each interval mapped onto [-1, 1]. This script computes those series with
mpmath at 40 significant digits: the Chebyshev coefficients of degree 0 to
16 of each function, from a discrete cosine transform over 64 Chebyshev
nodes, rounded to the nearest double.

Run from the root of the repository:

    python tools/sici_coefficients.py

It prints the ``_CHEBYSHEV`` table that ``src/yagilab/special.py`` holds;
tests/test_special.py checks that the two agree.
"""

from __future__ import annotations

import mpmath

BREAKS = (4, 6, 10, 20, 64)
DEGREE = 16
NODES = 64
DIGITS = 40


def auxiliary(x: mpmath.mpf) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(x f(x), x^2 g(x)) from mpmath's Si and Ci."""
    si, ci = mpmath.si(x), mpmath.ci(x)
    s, c = mpmath.sin(x), mpmath.cos(x)
    tail = si - mpmath.pi / 2
    return x * (ci * s - tail * c), x * x * (-ci * c - tail * s)


def chebyshev(lo: int, hi: int) -> list[list[float]]:
    """Coefficients of x f and x^2 g on [lo, hi], as series in t = 1/x mapped onto [-1, 1]."""
    with mpmath.workdps(DIGITS):
        t_lo, t_hi = mpmath.mpf(1) / hi, mpmath.mpf(1) / lo
        mid, half = (t_hi + t_lo) / 2, (t_hi - t_lo) / 2
        angles = [mpmath.pi * (n + mpmath.mpf(1) / 2) / NODES for n in range(NODES)]
        values = [auxiliary(1 / (mid + half * mpmath.cos(a))) for a in angles]
        table = []
        for which in range(2):
            coefs = []
            for j in range(DEGREE + 1):
                c = 2 * mpmath.fsum(v[which] * mpmath.cos(j * a) for v, a in zip(values, angles)) / NODES
                coefs.append(float(c / 2 if j == 0 else c))
            table.append(coefs)
    return table


def table() -> list[list[list[float]]]:
    """One [x f, x^2 g] pair of coefficient lists per interval, lowest degree first."""
    return [chebyshev(lo, hi) for lo, hi in zip(BREAKS[:-1], BREAKS[1:])]


def main() -> None:
    print("_CHEBYSHEV = (")
    for (lo, hi), pair in zip(zip(BREAKS[:-1], BREAKS[1:]), table()):
        print(f"    (  # [{lo}, {hi}]")
        for name, coefs in zip(("x f", "x^2 g"), pair):
            print(f"        (  # {name}")
            for i in range(0, len(coefs), 3):
                print("            " + " ".join(f"{c!r}," for c in coefs[i : i + 3]))
            print("        ),")
        print("    ),")
    print(")")


if __name__ == "__main__":
    main()
