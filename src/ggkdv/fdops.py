"""Finite-difference stencils on the uniform grid.

Derivative matrices are banded CSR matrices over the N + 2 grid samples
(endpoints included).  Interior rows use centered stencils; rows too close
to an endpoint fall back to one-sided stencils of the same (second) order.
The weights come from the Fornberg recursion, run on the batch of all rows
of a matrix at once, and the CSR arrays are built from them directly.  The
one-sided stencils used for boundary rows are the same ones used to extract
boundary traces, so traces reproduce imposed boundary data exactly at the
discrete level.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

__all__ = [
    "fd_weights",
    "first_derivative_matrix",
    "second_derivative_matrix",
    "third_derivative_matrix",
    "boundary_stencils",
]


# Fornberg's products over- or underflow on extreme spacings; pde.BandLU
# rejects the step matrix such weights build as not finite.
@np.errstate(all="ignore")
def fd_weights(x0: float | np.ndarray, nodes: np.ndarray, m: int) -> np.ndarray:
    """Weights of the m-th derivative at ``x0`` from samples at ``nodes``.

    Fornberg's recursion; exact for polynomials of degree < the node count.
    A batch of r anchors ``x0`` (r,) with nodes (r, n) gives (r, n) weights,
    computed with the elementwise operations of one scalar call per row, so
    each row has the bits of that call.
    """
    x0 = np.asarray(x0, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    if n < m + 1:
        raise ValueError("need at least m + 1 nodes")
    nodes = np.moveaxis(nodes, -1, 0)  # w[k, i] and nodes[i] are batches
    w = np.zeros((m + 1,) + nodes.shape)
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return np.moveaxis(w[m], 0, -1)


def _require_samples(nx: int, need: int, what: str) -> None:
    if nx < need:
        raise ValueError(f"{what} needs at least {need} grid samples, got {nx}")


def _csr(cols: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """Square CSR matrix whose row i holds ``weights[i]`` at ``cols[i]``.

    Exact zeros are left out, as assigning them to a LIL row does.
    """
    keep = weights != 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_matrix((weights[keep], cols[keep], indptr),
                         shape=(len(cols), len(cols)))


def _banded_stencils(nx: int, dx: float, m: int, width: int) -> tuple:
    """Columns and weights (nx, 2*width + 1) of a derivative matrix's rows.

    ``width`` is the stencil half-width of the centered rows; one-sided rows
    use 2*width + 1 nodes anchored at the row, clipped to the grid.
    """
    x = np.arange(nx) * dx
    row = np.arange(nx)
    npts = 2 * width + 1
    lo = np.where(row < width, 0, np.minimum(row - width, nx - npts))
    cols = lo[:, None] + np.arange(npts)
    return cols, fd_weights(x, x[cols], m)


def first_derivative_matrix(nx: int, dx: float) -> sp.csr_matrix:
    """Second-order d/dx (3-point stencils)."""
    _require_samples(nx, 3, "first_derivative_matrix")
    return _csr(*_banded_stencils(nx, dx, 1, 1))


def second_derivative_matrix(nx: int, dx: float) -> sp.csr_matrix:
    """Second-order d2/dx2 (one-sided rows use 4 points)."""
    _require_samples(nx, 4, "second_derivative_matrix")
    cols, wts = _banded_stencils(nx, dx, 2, 1)
    # 3-point one-sided stencils are only first order; widen the edge rows.
    # The other rows get a zero fourth weight, which _csr leaves out.
    cols = np.column_stack([cols, cols[:, -1]])
    wts = np.column_stack([wts, np.zeros(nx)])
    x = np.arange(nx) * dx
    edge = np.array([[0, 1, 2, 3], [nx - 4, nx - 3, nx - 2, nx - 1]])
    cols[[0, -1]] = edge
    wts[[0, -1]] = fd_weights(x[[0, nx - 1]], x[edge], 2)
    return _csr(cols, wts)


def third_derivative_matrix(nx: int, dx: float) -> sp.csr_matrix:
    """Second-order d3/dx3 (5-point stencils, one-sided within 2 of an edge)."""
    _require_samples(nx, 5, "third_derivative_matrix")
    return _csr(*_banded_stencils(nx, dx, 3, 2))


@functools.lru_cache(maxsize=8)
def boundary_stencils(nx: int, dx: float) -> MappingProxyType:
    """One-sided trace stencils at both endpoints.

    Returns ``(indices, weights)`` pairs keyed by ``(side, order)`` with
    side in {"left", "right"} and derivative order in {0, 1, 2}.  First
    derivatives use 3 nodes, second derivatives 4 nodes (second order).
    Built once per (nx, dx) and shared, so the mapping and its arrays are
    read-only.
    """
    _require_samples(nx, 4, "boundary_stencils")
    x = np.arange(nx) * dx
    out = {}
    for side, anchor in (("left", 0), ("right", nx - 1)):
        for order, npts in ((0, 1), (1, 3), (2, 4)):
            if side == "left":
                cols = np.arange(npts)
            else:
                cols = np.arange(nx - npts, nx)
            wts = fd_weights(x[anchor], x[cols], order)
            cols.flags.writeable = wts.flags.writeable = False
            out[(side, order)] = (cols, wts)
    return MappingProxyType(out)
