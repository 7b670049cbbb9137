"""The numeric kernels of the Rothe schemes: an ordered sum and ordered
per-row sums over CSR slots, plus one projected-SOR sweep kept as a
reference.

The sums are bit-reproducible: every result equals the strict
left-to-right loop ``s = 0.0; for x in a: s = s + x``, and ``row_sums``
gives each row that loop over its slots. Both take a stack too: a K x n
array (one field per row, such as every step of a trajectory) is reduced
along its last axis, each row in index or slot order, so row k of a
stacked sum is bit for bit the sum of row k alone and a whole
trajectory's monitors cost one pass. ``np.add.accumulate`` adds in index
order whatever the memory layout, so a row of a Fortran-ordered, strided
or reversed stack gives the bits of its contiguous copy.

``psor_sweep`` is called from nowhere in the package: the obstacle step
is solved by the primal-dual active set method (``vi.active_set_solve``).
It stays, unchanged, only because ``e2ebench/spans.py`` wraps it as a
span target and ``tests/test_bench_targets.py`` requires every span
target to resolve; it is deleted together with that span. It takes any
indexable sequences, and a sweep over Python lists gives the bits of a
sweep over numpy arrays.
"""

import numpy as np


def seq_sum(a):
    """Sum of ``a`` added strictly in index order, starting from 0.0: a
    float for one row, and for a stack of rows the array of the sums of
    each row along the last axis."""
    a = np.asarray(a)
    if a.shape[-1] == 0:
        return 0.0 if a.ndim == 1 else np.zeros(a.shape[:-1])
    # accumulate must add in index order because every prefix is an
    # output; np.sum and np.add.reduce sum pairwise and can differ in the
    # last bits. Adding 0.0 turns a -0.0 total into the loop's +0.0.
    total = np.add.accumulate(a, axis=-1)[..., -1] + 0.0
    return float(total) if a.ndim == 1 else total


def row_sums(start, degree, terms):
    """Per-row sums over CSR slots: row r owns the slots ``start[r]`` to
    ``start[r] + degree[r] - 1`` and adds its terms strictly in slot order
    from 0.0, bit for bit ``seq_sum`` of them. ``terms(slots, rows)``
    gives the terms at ``slots``, the k-th slots of the rows ``rows``,
    along its last axis; leading axes (a stack of fields) are summed
    apart and lead the result. With no slots at all the result is
    ``degree.size`` zeros.

    Pass k adds the k-th term of every row that has one, so a row's terms
    are added in slot order and only the terms summed are computed."""
    acc = None
    for k in range(int(degree.max(initial=0))):
        rows = np.flatnonzero(degree > k)
        part = terms(start[rows] + k, rows)
        if acc is None:
            acc = np.zeros(part.shape[:-1] + degree.shape)
        acc[..., rows] = acc[..., rows] + part
    return np.zeros(degree.size) if acc is None else acc


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
