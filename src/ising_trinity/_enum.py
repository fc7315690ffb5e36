"""Configuration indexing and the doubling kernel shared by the exact PMF builders.

Index convention: bit ``i`` of the configuration index encodes variable ``i``,
with a set bit meaning ``x_i = +1``.  Index 0 is therefore the all ``-1``
configuration and index ``2**n - 1`` the all ``+1`` one.

Exact tables are built by doubling rather than by materializing the
``(2**n, n)`` configuration matrix.  A table over the first ``k`` variables
becomes one over the first ``k + 1`` by writing it twice: the lower half for
``x_k = -1`` and the upper half, whose indices carry the new top bit ``k``,
for ``x_k = +1``.  `doubling_table` is the one loop that does this.  Its
step for variable ``k`` is subtracted from the lower half and added to the
upper: a scalar (`linear_table`'s ``x . coef``), a row (several such scores
at once), or a table over the first ``k`` variables (`ising_pmf`'s field
on ``x_k``).  Each builder composes these into its own log-weight formula
and hands the result to `normalize`.  Every table costs O(2**n) work per
linear term and no configuration matrix.

Split halves: a table whose terms are products of scores is cheaper to build
from two half tables.  The low ``h = n // 2`` bits of an index pick a
configuration of the first ``h`` variables and the high bits one of the
rest, so the table is a ``(2**(n - h), 2**h)`` matrix in index order.
`split_half_table` fills it from half-width weights and score tables as
``hi_w[:, None] + lo_w + hi_s @ lo_s.T``: the score doubling runs over
``2**h`` and ``2**(n - h)`` rows instead of ``2**n``, and the cross terms are
one matrix product.  The product runs in row blocks of at most
``_BLOCK_MADDS`` multiply-adds each, half the 2**18 below which OpenBLAS (as
built by default) keeps a product on the calling thread.  On a 2-CPU
machine, threaded products of this shape stalled on waking their second
thread: 128-row blocks of the n = 20 table, each ``(128, 19) @ (19, 1024)``,
took 8-12 ms a table when run back to back but about 140 ms a table in a
fresh process, against 12-16 ms either way for single-threaded blocks.  The
blocks also bound the product's working set, and a product on one thread
cannot depend on the BLAS thread count; CI compares n = 16 tables written
on one and on two threads.
"""

from __future__ import annotations

import numpy as np

from .errors import EnumerationLimitError

ENUMERATION_LIMIT = 20

# Multiply-adds per block of a split-half product; see the module docstring.
_BLOCK_MADDS = 1 << 17


def check_enumerable(n: int) -> None:
    """Raise `EnumerationLimitError` unless ``2**n`` configurations may be enumerated."""
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"n = {n} is too large for exact enumeration (limit {ENUMERATION_LIMIT})"
        )


def decode_configs(idx, n: int) -> np.ndarray:
    """The ``+/-1`` int8 configuration of ``n`` variables for each index, on a new last axis."""
    bits = (np.asarray(idx, dtype=np.int64)[..., None] >> np.arange(n, dtype=np.int64)) & 1
    return (2 * bits - 1).astype(np.int8)


def encode_configs(x) -> np.ndarray:
    """The index of each ``+/-1`` configuration along the last axis of ``x``."""
    x = np.asarray(x)
    return (x > 0).astype(np.int64) @ (1 << np.arange(x.shape[-1], dtype=np.int64))


def doubling_table(steps, n: int, shape: tuple = ()) -> np.ndarray:
    """The ``(2**n, *shape)`` table that ``n`` doubling steps build from zeros.

    Step ``k`` writes the table over the first ``k`` variables twice:
    ``v <- concat(v - step_k, v + step_k)``.  A step is anything that
    broadcasts against the ``2**k`` rows so far: a scalar, a row of
    ``shape``, or a table of its own over the first ``k`` variables.
    """
    out = np.zeros((1 << n, *shape))
    for k, step in enumerate(steps):
        half = 1 << k
        np.add(out[:half], step, out=out[half : 2 * half])
        out[:half] -= step
    return out


def linear_table(coef: np.ndarray) -> np.ndarray:
    """``x . coef`` at every configuration of ``len(coef)`` variables, in index order.

    Step ``k`` of `doubling_table` is ``coef_k``.  An ``(n, r)`` coefficient
    matrix gives the ``(2**n, r)`` table of its ``r`` column scores.
    """
    coef = np.asarray(coef, dtype=np.float64)
    check_enumerable(coef.shape[0])
    return doubling_table(coef, coef.shape[0], coef.shape[1:])


def split_halves(n: int) -> tuple[slice, slice]:
    """The variables of the high and of the low index half, as slices of ``range(n)``."""
    check_enumerable(n)
    return slice(n // 2, n), slice(0, n // 2)


def split_half_table(hi_w, hi_s, lo_w, lo_s) -> np.ndarray:
    """``hi_w[:, None] + lo_w + hi_s @ lo_s.T`` as one table in index order.

    ``hi_w``/``hi_s`` are the weights and ``r`` scores of the high half's
    ``2**(n - h)`` configurations, ``lo_w``/``lo_s`` those of the low half's
    ``2**h``; see `split_halves`.
    """
    table = np.empty(hi_w.shape[0] * lo_w.shape[0])
    out = table.reshape(hi_w.shape[0], lo_w.shape[0])
    rows = max(1, _BLOCK_MADDS // (lo_s.shape[0] * max(1, lo_s.shape[1])))
    for top in range(0, out.shape[0], rows):
        block = out[top : top + rows]
        np.matmul(hi_s[top : top + rows], lo_s.T, out=block)
        block += lo_w
        block += hi_w[top : top + rows, None]
    return table


def config_text(n: int, sep: str) -> list[str]:
    """Each configuration's ``-1``/``1`` cells joined by ``sep``, doubled like `linear_table`."""
    check_enumerable(n)
    cells, lead = [""], ""
    for _ in range(n):
        cells = [c + lead + "-1" for c in cells] + [c + lead + "1" for c in cells]
        lead = sep
    return cells


def log_2cosh(t: np.ndarray) -> np.ndarray:
    """``log(2 cosh t)`` elementwise, without overflow."""
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a))


def normalize(log_w: np.ndarray) -> tuple[np.ndarray, float]:
    """Turn log weights into ``(probs, log_z)`` with ``probs`` summing to one.

    Works in place: ``log_w`` is overwritten and returned, read-only, as
    ``probs``.  When ``log_w`` owns its memory, `freeze_array` then keeps it
    uncopied.  Raises `ValueError` when the log weights are not finite.
    """
    peak = log_w.max()
    if not np.isfinite(peak):
        raise ValueError("log weights are not finite: the model overflows the float range")
    # A weight more than the float range below the peak overflows to -inf,
    # whose exp is its exact value at this precision, 0.
    with np.errstate(over="ignore"):
        probs = np.exp(np.subtract(log_w, peak, out=log_w), out=log_w)
    norm = probs.sum()
    probs /= norm
    probs.setflags(write=False)
    return probs, float(peak + np.log(norm))
