"""A fixed reference computation, timed next to the program to cancel machine speed.

On a core shared with other tenants the same work can take half as long
again at one moment as at another, and the slow share drifts over minutes.  The
child times ``reference_s()`` before each scenario and after the last, in
the same process, so the reference sees the same contention as the
scenarios between its calls.  ``wall_rel`` (the scenarios' time over the
reference's time) moves with the program and hardly with the machine.

The kernel mixes the kinds of work the ggkdv commands do: a banded sparse
LU factorization and a march of solves (``pde``), ``%.16e`` formatting of
the trajectory rows (``scenario`` CSV emission), 6x6 companion-matrix
eigenvalues (``spectral.roots_P``) and a dictionary-heavy Python loop.
It never imports or calls ``ggkdv``, so a change to the program cannot
change the reference.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_N = 520
_A = sp.diags([np.full(_N - 2, 0.3), np.full(_N - 1, -1.0), np.full(_N, 4.0),
               np.full(_N - 1, -1.0), np.full(_N - 2, 0.5)],
              [-2, -1, 0, 1, 2], format="csc")
_B = np.linspace(0.0, 1.0, _N)
_STEPS = 300
_ROOTS = 400
_LOOP = 20000
REPEATS = 8


def _kernel():
    lu = spla.splu(_A)
    x, rows = _B, np.empty((_STEPS, _N))
    for k in range(_STEPS):
        x = lu.solve(x) * 0.5 + _B
        rows[k] = x
    text = "\n".join(",".join("%.16e" % v for v in row[:40]) for row in rows)
    companion = np.zeros((6, 6))
    companion[1:, :-1] = np.eye(5)
    for k in range(_ROOTS):
        companion[:, -1] = np.cos(np.arange(6.0) + k)
        np.linalg.eigvals(companion)
    acc = {}
    for i in range(_LOOP):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    return len(text) + len(acc)


def reference_s():
    """Seconds taken by ``REPEATS`` runs of the fixed kernel."""
    t = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return time.perf_counter() - t
