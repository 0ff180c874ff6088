"""Per-element-pair kernel table, kept as the reference for mode_basis's table.

The two functions below are the package's table builder as it was before
one sort over all edge pairs replaced it: a loop over the element pairs,
each taking its own offsets, snapping them and finding its distinct values
with its own np.unique. They are copied without edits to the algorithm;
tests compare the at, w and n_ring of em_solver.mode_basis against
kernel_table. They share only the ring quadrature with the package.
"""

import numpy as np

from yagilab.em_solver import WireGrid, _ring_quadrature


def _pair_kernel(offsets: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One element pair's kernel distances w(u, rho), once per distinct offset in U and -U.

    Returns w of the distinct offsets by distance nodes, flattened, and the
    index of W(u) and of W(-u) for every offset u of the pair. For u > 0,
    w = rho * (rho / (R + u)), so nothing cancels and rho^2 is never formed.
    """
    keys, at = np.unique(np.concatenate([offsets, -offsets]), return_inverse=True)
    u = np.abs(keys)[:, None]
    r_plus = np.hypot(u, rho) + u  # w(-|u|)
    return np.where(keys[:, None] > 0, rho * (rho / r_plus), r_plus).ravel(), at.reshape(2, *offsets.shape)


def kernel_table(grid: WireGrid, edges: list[np.ndarray]) -> dict:
    """at, w and n_ring of the ModeBasis of a grid whose rods have these split segment ends.

    Element pair p <= q takes the offsets u of q's edges from p's, snapped to
    p's lattice (its span over a whole number of its narrowest segments) when
    all lie on it to roundoff, and as distance nodes the ring nodes of p's
    radius when p == q, the wires' axis distance otherwise. Block (p, q) of at
    holds its W rows of u, block (q, p) those of -u, transposed; ring rows first.
    """
    ring, _ = _ring_quadrature()
    n = len(edges)
    first = np.cumsum([0] + [e.size for e in edges])  # each rod's first edge
    at = np.empty((first[-1], first[-1]), dtype=np.intp)
    w, rows = [], 0
    # rods too far apart for a finite distance give NaN here; a fill refuses them first
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q in [(p, p) for p in range(n)] + [(p, q) for p in range(n) for q in range(p + 1, n)]:
            e = edges[p]
            span = e[-1] - e[0]
            step = span / np.rint(span / np.min(np.diff(e)))
            offsets = edges[q] - e[:, None]
            snapped = np.rint(offsets / step) * step
            if np.max(np.abs(snapped - offsets)) <= 16.0 * np.finfo(float).eps * np.max(np.abs(e)):
                offsets = snapped
            rho = grid.radius[p] * ring if q == p else np.hypot(grid.x[q] - grid.x[p], grid.y[q] - grid.y[p])[None]
            pair_w, (pos, neg) = _pair_kernel(offsets, rho)
            at[first[p] : first[p + 1], first[q] : first[q + 1]] = rows + pos
            at[first[q] : first[q + 1], first[p] : first[p + 1]] = rows + neg.T
            rows += pair_w.size // rho.size
            w.append(pair_w)
    n_ring = sum(pair_w.size for pair_w in w[:n])
    return dict(at=at, w=np.concatenate(w), n_ring=n_ring)
