"""Configuration indexing and the doubling kernel shared by the exact PMF builders.

Index convention: bit ``i`` of the configuration index encodes variable ``i``,
with a set bit meaning ``x_i = +1``.  Index 0 is therefore the all ``-1``
configuration and index ``2**n - 1`` the all ``+1`` one.

Exact tables are built by doubling rather than by materializing the
``(2**n, n)`` configuration matrix.  A table over the first ``k`` variables
becomes one over the first ``k + 1`` by writing it twice: the lower half for
``x_k = -1`` and the upper half, whose indices carry the new top bit ``k``,
for ``x_k = +1``.  `linear_table` applies this to ``x . coef``; each builder
composes it into its own log-weight formula and hands the result to
`normalize`.  Every table costs O(2**n) work per linear term and no
configuration matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import EnumerationLimitError

ENUMERATION_LIMIT = 20


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


def config_matrix(n: int) -> np.ndarray:
    """All ``2**n`` configurations, row ``k`` holding the configuration with index ``k``."""
    check_enumerable(n)
    return decode_configs(np.arange(1 << n), n).astype(np.float64)


def index_to_config(k: int, n: int) -> np.ndarray:
    """The configuration with index ``k`` as a length-``n`` ``+/-1`` vector."""
    if not 0 <= k < (1 << n):
        raise ValueError(f"configuration index {k} out of range for n = {n}")
    return decode_configs(k, n).astype(np.float64)


def config_to_index(x: np.ndarray) -> int:
    """The index whose bit pattern encodes the ``+/-1`` configuration ``x``."""
    return int(encode_configs(x))


def linear_table(coef: np.ndarray) -> np.ndarray:
    """``x . coef`` at every configuration of ``len(coef)`` variables, in index order.

    Adding variable ``k`` doubles the table: ``v <- concat(v - coef_k, v + coef_k)``.
    """
    coef = np.asarray(coef, dtype=np.float64)
    check_enumerable(coef.shape[0])
    out = np.zeros(1 << coef.shape[0])
    for k, c in enumerate(coef):
        half = 1 << k
        np.add(out[:half], c, out=out[half : 2 * half])
        out[:half] -= c
    return out


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


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """``log(logistic(t))`` elementwise, without overflow."""
    return -np.logaddexp(0.0, -t)


def normalize(log_w: np.ndarray) -> tuple[np.ndarray, float]:
    """Turn log weights into ``(probs, log_z)`` with ``probs`` summing to one.

    Works in place: ``log_w`` is overwritten and returned as ``probs``.
    """
    peak = log_w.max()
    probs = np.exp(np.subtract(log_w, peak, out=log_w), out=log_w)
    norm = probs.sum()
    probs /= norm
    return probs, float(peak + np.log(norm))
