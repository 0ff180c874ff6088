"""Sine and cosine integrals of positive real arguments, from numpy alone.

    Si(x) = integral over (0, x) of sin(t)/t dt,
    Ci(x) = gamma + ln(x) + integral over (0, x) of (cos(t) - 1)/t dt.

Below x = 4 both come from their power series in x^2, 17 terms each. From 4
on they come from the auxiliary functions f and g,

    Si(x) = pi/2 - f(x) cos(x) - g(x) sin(x),
    Ci(x) = f(x) sin(x) - g(x) cos(x),

where x f(x) and x^2 g(x) are smooth functions of t = 1/x: Chebyshev series
of degree 16 in t on [4, 6], [6, 10], [10, 20] and [20, 64], and their
asymptotic series, 12 terms each, beyond 64. tools/sici_coefficients.py
computes the Chebyshev coefficients with mpmath. Against mpmath at 40
digits, Si is within 1e-15 and Ci within 1e-15 * max(1, |Ci|).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial

EULER_GAMMA = 0.5772156649015329

_SERIES_TERMS = 17
_ASYMPTOTIC_TERMS = 12
# Si(x) = x * sum of _SI_SERIES[n] x^(2n); Ci(x) = gamma + ln(x) + x^2 * sum of _CI_SERIES[n] x^(2n)
_SI_SERIES = np.array([(-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(_SERIES_TERMS)])
_CI_SERIES = np.array([(-1) ** (n + 1) / ((2 * n + 2) * math.factorial(2 * n + 2)) for n in range(_SERIES_TERMS)])
# x f(x) and x^2 g(x) beyond the last breakpoint, as polynomials in 1/x^2
_F_ASYMPTOTIC = np.array([(-1) ** n * math.factorial(2 * n) for n in range(_ASYMPTOTIC_TERMS)], dtype=float)
_G_ASYMPTOTIC = np.array([(-1) ** n * math.factorial(2 * n + 1) for n in range(_ASYMPTOTIC_TERMS)], dtype=float)

# the series serves x < _BREAKS[0]; each later interval has its own Chebyshev
# series in t = 1/x, and the asymptotic series serves x >= _BREAKS[-1]
_BREAKS = np.array([4.0, 6.0, 10.0, 20.0, 64.0])

# Generated by tools/sici_coefficients.py: one (x f, x^2 g) pair of
# coefficient tuples per interval, lowest degree first.
_CHEBYSHEV = (
    (  # [4, 6]
        (  # x f
            0.9365544990938381, -0.019561324135279893, -0.00025131112287936407,
            2.975721491162412e-05, -1.390933050451853e-06, 4.2324783764832003e-08,
            -2.685751007585553e-10, -8.357585030810934e-11, 8.479716501532666e-12,
            -5.744456043854474e-13, 3.1087337733197835e-14, -1.3139804144959783e-15,
            3.0807236553142766e-17, 1.5540666714630641e-18, -3.0506651616628995e-19,
            3.00106047485493e-20, -2.353107647704829e-21,
        ),
        (  # x^2 g
            0.838687104288368, -0.04402555812630488, 0.00012976286473803339,
            6.37981720189414e-05, -4.8474148212424825e-06, 2.373352554597054e-07,
            -7.645881721024926e-09, 2.5140180753643762e-12, 2.5095490341885502e-11,
            -2.66093474729061e-12, 1.9836018318299316e-13, -1.2072672610959735e-14,
            5.984341102900261e-16, -2.042482344268574e-17, -1.2276748086645549e-19,
            1.074069536322642e-19, -1.3063835938928451e-20,
        ),
    ),
    (  # [6, 10]
        (  # x f
            0.9693186499791031, -0.013066415435955452, -0.00044603428900523456,
            2.7905936657841984e-05, -7.821548592633765e-07, -4.649114006435502e-09,
            2.2357842809354126e-09, -1.7342526195714624e-10, 8.628542259446723e-12,
            -2.2600858067974465e-13, -1.028947683335794e-14, 2.1028046789165683e-15,
            -1.972469057227159e-16, 1.3699133822211931e-17, -7.151174989994701e-19,
            1.9801695775645076e-20, 1.303749746140711e-21,
        ),
        (  # x^2 g
            0.9164925779151261, -0.033126913885629286, -0.0006747863513051701,
            8.665373704968788e-05, -4.07949949988392e-06, 7.754237077373242e-08,
            6.06043528570522e-09, -8.400391008114895e-10, 6.136019294139413e-11,
            -3.0556411134718245e-12, 6.853570681546976e-14, 6.574793205091756e-15,
            -1.157143799301051e-15, 1.1245040160711813e-16, -8.347414928791922e-18,
            4.784642432327212e-19, -1.6412183069388105e-20,
        ),
    ),
    (  # [10, 20]
        (  # x f
            0.9889671800740252, -0.006629709059356564, -0.0004419951772523151,
            1.4884938348376499e-05, 1.5166955409334427e-08, -2.7388559458378765e-08,
            1.5804240522987395e-09, -3.018669046949553e-11, -3.0643130736305254e-12,
            3.91644780060897e-13, -2.431979743740977e-14, 6.169321954059066e-16,
            6.148486061405318e-17, -1.0833978753606714e-17, 9.669274675155849e-19,
            -5.467724096780334e-20, 7.153627864474846e-22,
        ),
        (  # x^2 g
            0.9683276856604772, -0.018473904163142006, -0.0010587392937042338,
            5.968620590215047e-05, -7.281530842935123e-07, -1.0800018334604025e-07,
            9.76680214968489e-09, -3.8297233570530277e-10, -6.87502517206075e-12,
            2.4750573444395237e-12, -2.261474557377718e-13, 1.1628068121080857e-14,
            -2.3542289808739765e-17, -7.202044295856943e-17, 9.634807912189957e-18,
            -8.011663058353213e-19, 4.111714476177437e-20,
        ),
    ),
    (  # [20, 64]
        (  # x f
            0.9975999611679741, -0.0021899385313636937, -0.0002735276149321565,
            3.403579519792562e-06, 1.6254495591141055e-07, -7.94046838759467e-09,
            -4.4805219128570025e-11, 2.040606565455454e-11, -8.395413273875501e-13,
            -2.596812852891898e-14, 5.233827088198599e-15, -2.5665453393058782e-16,
            -8.009517052308146e-18, 2.299942222502329e-18, -1.6907053333736086e-19,
            6.0115481885602715e-22, 1.2946694104705933e-21,
        ),
        (  # x^2 g
            0.9928921818057702, -0.006445809584400153, -0.0007804476260870348,
            1.6016651496844436e-05, 6.611275240764941e-07, -4.840948996788447e-08,
            2.1753074189147843e-10, 1.3733080197437326e-10, -8.354416956730799e-12,
            -6.580677908470708e-14, 4.670987177530909e-14, -3.395982732885163e-15,
            5.368917784582376e-18, 2.325387619034562e-17, -2.4702121007780038e-18,
            8.385741715523141e-20, 1.1996082136323128e-20,
        ),
    ),
)


_T_LO, _T_HI = 1.0 / _BREAKS[1:], 1.0 / _BREAKS[:-1]
_COEFS = np.array(_CHEBYSHEV).transpose(2, 0, 1)  # (degree, interval, f or g)


def sici(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Si(x) and Ci(x) of an array of positive finite x."""
    x = np.asarray(x, dtype=float)
    si, ci = np.empty_like(x), np.empty_like(x)
    small = x < _BREAKS[0]
    xs = x[small]
    x2 = xs * xs
    si[small] = xs * polynomial.polyval(x2, _SI_SERIES)
    ci[small] = EULER_GAMMA + np.log(xs) + x2 * polynomial.polyval(x2, _CI_SERIES)

    xl = x[~small]
    t = 1.0 / xl
    xf, x2g = np.empty_like(xl), np.empty_like(xl)
    far = xl >= _BREAKS[-1]
    t2 = t[far] * t[far]
    xf[far] = polynomial.polyval(t2, _F_ASYMPTOTIC)
    x2g[far] = polynomial.polyval(t2, _G_ASYMPTOTIC)
    near = ~far
    piece = np.searchsorted(_BREAKS, xl[near], side="right") - 1
    lo, hi = _T_LO[piece], _T_HI[piece]
    s = ((2.0 * t[near] - (hi + lo)) / (hi - lo))[:, None]
    # Clenshaw's recurrence, x f and x^2 g side by side
    coefs = _COEFS[:, piece]
    b1 = b2 = 0.0
    for c in coefs[:0:-1]:
        b1, b2 = c + 2.0 * s * b1 - b2, b1
    xf[near], x2g[near] = (coefs[0] + s * b1 - b2).T
    f, g = xf * t, x2g * (t * t)
    cos, sin = np.cos(xl), np.sin(xl)
    si[~small] = 0.5 * math.pi - f * cos - g * sin
    ci[~small] = f * sin - g * cos
    return si, ci
