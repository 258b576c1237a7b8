"""The stacked view of a ``pde.Stepper``, for oracles written in stacked order.

A Stepper keeps ``B``, ``BT``, ``bc_rows`` and its LU factors in the band
order (u_0, v_0, u_1, v_1, ...) of ``pde.BandLU``.  ``stacked_ops(stp)`` gives
them in the stacked order (u_0 .. u_{nx-1}, v_0 .. v_{nx-1}) of the states:
the matrices with their rows permuted and their column indices relabeled,
each row's entries kept in their order, and a ``solve`` that gathers the
right-hand side into band order, calls ``stp.lu.solve`` and scatters the
result back.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp


def band_order(nx):
    """``order[i]`` is the stacked index of band unknown i."""
    return np.arange(2 * nx).reshape(2, nx).T.ravel()


def permute(M, rows, relabel):
    """The CSR ``M`` with row i taken from row ``rows[i]`` and each column
    index c relabeled ``relabel[c]``, entries kept in their order."""
    indptr = np.concatenate([[0], np.cumsum(np.diff(M.indptr)[rows])])
    take = np.concatenate([np.arange(M.indptr[r], M.indptr[r + 1]) for r in rows])
    return sp.csr_matrix((M.data[take], relabel[M.indices[take]], indptr),
                         shape=M.shape)


def stacked_ops(stp):
    order = band_order(stp.nx)
    pos = np.argsort(order)

    def solve(rhs, trans="N"):
        return stp.lu.solve(rhs[order], trans)[pos]

    return SimpleNamespace(B=permute(stp.B, pos, order),
                           BT=permute(stp.BT, pos, order),
                           bc_rows=order[stp.bc_rows], solve=solve)
