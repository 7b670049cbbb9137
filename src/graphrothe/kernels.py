"""The numeric kernels of the Rothe schemes: the package's one ordered
sum, plus one projected-SOR sweep kept as a reference.

``seq_sum`` equals the strict left-to-right loop ``s = 0.0; for x in a:
s = s + x`` bit for bit, over the last axis or over each of its segments
``a[..., ptr[r]:ptr[r+1]]`` (the CSR slots of a row of vertices). A
K x n stack (one field per row, such as every step of a trajectory) is
reduced row by row, so row k of a stacked sum is bit for bit the sum of
row k alone, whatever the stack's memory layout. The adding is scipy's
CSR product kernel with a matrix of 1.0 entries whose row r holds the
columns of segment r: it adds a row's products in column order from
0.0, and a product with 1.0 is exact, fused with the addition or not.
Its column indices and its 1.0 entries are slices of one read-only
``arange``/``ones`` pair, kept from call to call and grown as needed.

``psor_sweep`` is called from nowhere in the package: the obstacle step
is solved by the primal-dual active set method (``vi.active_set_solve``).
It stays, unchanged, only because ``e2ebench/spans.py`` wraps it as a
span target and ``tests/test_bench_targets.py`` requires every span
target to resolve; it is deleted together with that span. It takes any
indexable sequences, and a sweep over Python lists gives the bits of a
sweep over numpy arrays.
"""

import math

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs


def seq_sum(a, ptr=None):
    """Sums of ``a`` along its last axis, each added strictly in index
    order from 0.0: without ``ptr`` the whole axis (a float for one row),
    and with ``ptr``, a nondecreasing index array within the axis, the
    segments ``a[..., ptr[r]:ptr[r+1]]`` along a new last axis."""
    a = np.asarray(a, dtype=float)
    lead, n = a.shape[:-1], a.shape[-1]
    bounds = np.array((0, n)) if ptr is None else np.asarray(ptr, np.int64)
    # the kernel reads its columns unchecked
    if not (bounds.size and 0 <= bounds[0] and bounds[-1] <= n
            and np.all(bounds[1:] >= bounds[:-1])):
        raise ValueError(f"segment pointer {bounds} does not split an axis "
                         f"of length {n}")
    lo, hi = int(bounds[0]), int(bounds[-1])
    rows, k = bounds.size - 1, math.prod(lead)
    # row r of the all-ones matrix holds the columns of segment r
    columns, ones = _ones_columns(hi)
    csr = (bounds - lo, columns[lo:hi], ones[lo:hi])
    if k == 1:
        out = np.zeros(rows)
        csr_matvec(rows, n, *csr, np.ascontiguousarray(a).reshape(n), out)
    else:
        # the k rows of a stack are added side by side, as k columns
        out = np.zeros((rows, k))
        csr_matvecs(rows, n, k, *csr, np.ascontiguousarray(
            np.moveaxis(a, -1, 0).reshape(n, k)), out)
        out = out.T
    out = out.reshape(lead + (rows,))
    if ptr is not None:
        return out
    return float(out[0]) if a.ndim == 1 else out[..., 0]


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


# np.arange(m) and np.ones(m) for the largest m a sum has needed so far
_COLUMNS = _read_only(np.arange(0), np.ones(0))


def _ones_columns(n):
    """Read-only ``np.arange(m)`` and ``np.ones(m)`` for some m >= n, kept
    from call to call and grown (at least doubled) when n exceeds them."""
    global _COLUMNS
    if _COLUMNS[0].size < n:
        m = max(n, 2 * _COLUMNS[0].size)
        _COLUMNS = _read_only(np.arange(m), np.ones(m))
    return _COLUMNS


def psor_sweep(indptr, indices, data, diag, b, lower, u, relax):
    """One projected-SOR sweep over the CSR rows, updating ``u`` in place;
    returns the largest change of one entry.

    The row sum stays an explicit left-to-right loop: ``sum()`` adds with
    compensation from Python 3.12 on and would change the bits.
    """
    maxdelta = 0.0
    for row in range(len(diag)):
        acc = 0.0
        for k in range(indptr[row], indptr[row + 1]):
            acc = acc + data[k] * u[indices[k]]
        cand = u[row] + relax * (b[row] - acc) / diag[row]
        if cand < lower[row]:
            cand = lower[row]
        delta = cand - u[row]
        if delta < 0.0:
            delta = -delta
        if delta > maxdelta:
            maxdelta = delta
        u[row] = cand
    return maxdelta
