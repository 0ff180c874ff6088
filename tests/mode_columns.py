"""Per-mode columns of a mode basis, as the reference implementations read it.

The oracles take, for every mode, its peak height, its lower and upper
half-tent widths and its rod's position, radius and element (the rod's
row, which is its grid element). A ModeBasis holds those once per rod;
per_mode expands them to one entry per mode.
"""

from types import SimpleNamespace

import numpy as np

from yagilab.em_solver import ModeBasis


def per_mode(basis: ModeBasis) -> SimpleNamespace:
    """z_peak, w_lo, w_hi, x, y, radius and element of every mode, in basis order."""
    counts = [z.size - 2 for z in basis.edges]
    widths = [np.diff(z) for z in basis.edges]
    return SimpleNamespace(
        z_peak=np.concatenate([z[1:-1] for z in basis.edges]),
        w_lo=np.concatenate([w[:-1] for w in widths]),
        w_hi=np.concatenate([w[1:] for w in widths]),
        x=np.repeat(basis.x, counts),
        y=np.repeat(basis.y, counts),
        radius=np.repeat(basis.radius, counts),
        element=np.repeat(np.arange(len(counts)), counts),
    )
