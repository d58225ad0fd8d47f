"""Sort-and-mask distinct-value kernels.

``np.unique`` on an int64 array pays for generality (NumPy 2.x takes a
hash-based path before sorting its output) that the batch hot paths do
not need: they either hold values that are already sorted (geometric
slot positions) or want the sorted distinct keys of a small array.  One
``np.sort`` plus a neighbour-inequality mask gives the same answer at a
fraction of the cost.
"""

from __future__ import annotations

import numpy as np


def run_starts(ordered: "np.ndarray") -> "np.ndarray":
    """Boolean mask of the first element of every run of equal values.

    ``ordered`` must be sorted (or at least grouped), so the mask has
    one ``True`` per distinct value.
    """
    starts = np.empty(ordered.shape, dtype=bool)
    if ordered.size:
        starts[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def sorted_distinct(values: "np.ndarray") -> "np.ndarray":
    """The sorted distinct values of a 1-D array (``np.unique``'s output)."""
    ordered = np.sort(values)
    return ordered[run_starts(ordered)]
