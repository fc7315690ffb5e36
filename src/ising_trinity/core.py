"""Network-form parameters and exact enumeration of binary ``+/-1`` models.

The joint probability of a configuration ``x`` in ``{-1, +1}^n`` is
proportional to ``exp(sum_i x_i delta_i + sum_{i<j} x_i x_j sigma_ij)``.
Only the off-diagonal couplings matter: `ModelSpec` stores ``sigma`` with its
diagonal set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._enum import check_enumerable, doubling_table, linear_table, normalize
from .errors import DimensionMismatchError, SpecValidationError

SYMMETRY_TOL = 1e-12


def freeze_array(record, name: str, ndim: int, value=None, dtype=np.float64) -> np.ndarray:
    """Store ``value`` (by default the field's own) on a frozen record as a read-only array.

    The array is converted to ``dtype`` and must have ``ndim`` dimensions
    (else `DimensionMismatchError`) and finite entries (else `ValueError`).
    An array is kept only when no array can write its memory: it and every
    array in its base chain are read-only.  Any other is copied, so the
    caller's arrays stay its own.  The record then checks its own conditions
    on it.
    """
    arr = np.asarray(getattr(record, name) if value is None else value, dtype=dtype)
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:
        arr = arr.copy()
    if arr.ndim != ndim:
        kind = ("scalar", "vector", "matrix")[ndim]
        raise DimensionMismatchError(f"{name} must be a {kind}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


def require_number(value, where: str) -> float:
    """``value`` as a finite float; any other value raises `SpecValidationError`.

    Booleans are not numbers here, though Python counts them as integers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(f"{where} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise SpecValidationError(
            f"{where} must be finite, got an integer beyond the float range"
        ) from None
    if not np.isfinite(out):
        raise SpecValidationError(f"{where} must be finite, got {value!r}")
    return out


def as_delta(delta, n: int) -> np.ndarray:
    """Intercepts as a float vector, checked to be finite with one entry per variable."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (n,):
        raise DimensionMismatchError(f"delta has shape {delta.shape}, expected ({n},)")
    if not np.all(np.isfinite(delta)):
        raise ValueError("delta contains non-finite entries")
    return delta


@dataclass(frozen=True)
class ModelSpec:
    """Main effects ``delta``, symmetric pairwise couplings ``sigma``, and ``extra_shift``.

    ``sigma`` must be symmetric to within 1e-12 and is stored exactly
    symmetrized, with its diagonal set to zero: no probability reads it.
    ``extra_shift``, a finite number at least 0, is added to the canonical
    PSD shift of the couplings wherever they are eigendecomposed
    (`to_spectral`); it changes the eigenvalues and loadings, never a table.
    """

    delta: np.ndarray
    sigma: np.ndarray
    extra_shift: float = 0.0

    def __post_init__(self) -> None:
        n = freeze_array(self, "delta", 1).shape[0]
        sigma = freeze_array(self, "sigma", 2)
        if sigma.shape != (n, n):
            raise DimensionMismatchError(
                f"sigma has shape {sigma.shape}, expected ({n}, {n})"
            )
        shift = require_number(self.extra_shift, "extra_shift")
        if shift < 0.0:
            raise SpecValidationError(f"extra_shift must be non-negative, got {shift!r}")
        object.__setattr__(self, "extra_shift", shift)
        gap = np.abs(sigma - sigma.T)
        if gap.size and gap.max() > SYMMETRY_TOL:
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            raise SpecValidationError(
                f"sigma is not symmetric: sigma[{i}][{j}] = {float(sigma[i, j])!r} but "
                f"sigma[{j}][{i}] = {float(sigma[j, i])!r} (difference {gap[i, j]:.3g} "
                f"exceeds {SYMMETRY_TOL:g})"
            )
        # Halving first: the sum of two entries near the float limit overflows.
        sym = 0.5 * sigma + 0.5 * sigma.T
        np.fill_diagonal(sym, 0.0)
        freeze_array(self, "sigma", 2, sym)

    @property
    def n(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True)
class Pmf:
    """An exhaustive probability table over all ``2**n`` configurations.

    ``probs[k]`` is the probability of the configuration whose index is ``k``
    (bit ``i`` of ``k`` set means ``x_i = +1``); its size, a power of two,
    gives ``n``.  ``log_z`` records the log normalizer of the weights the
    table was built from, so that ``probs[k] == exp(log_weight(k) - log_z)``.
    ``error_estimate`` is an estimate of the table's total-variation distance
    to the exact one: 0 for an enumerated table, the gap to a finer rule's
    table for a quadrature one.
    """

    probs: np.ndarray
    log_z: float
    error_estimate: float = 0.0

    def __post_init__(self) -> None:
        size = freeze_array(self, "probs", 1).shape[0]
        if size < 1 or size & (size - 1):
            raise DimensionMismatchError(
                f"probability table has {size} entries, not a power of two"
            )
        if np.any(self.probs < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = self.probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-12")
        if not 0.0 <= self.error_estimate <= 1.0:
            raise ValueError(f"error estimate must lie in [0, 1], got {self.error_estimate!r}")

    @property
    def n(self) -> int:
        return self.probs.shape[0].bit_length() - 1


@dataclass(frozen=True)
class PmfDistance:
    """Total-variation and maximum-absolute gaps between tables."""

    tv: float
    max_abs: float


def ising_pmf(spec: ModelSpec) -> Pmf:
    """Exact probability table of the pairwise model by full enumeration.

    The doubling step of variable ``k`` is its field table ``delta_k +
    sum_{j<k} sigma_kj x_j`` over the variables before it, so each pair
    enters once and the diagonal never does.  The steps are built from the
    parameters divided by ``2**e``, the power of two that brings the largest
    into ``[0.5, 1)``, so that no sum can overflow; the table is then
    multiplied back by ``2**e``.  Both scalings are exact for parameters down
    to ``2**-1021`` times the largest, and the table is the unscaled one to
    the last bit wherever that is finite.  A log weight beyond the float
    range becomes infinite: below the peak it is a weight of 0, and a peak
    beyond the range `normalize` refuses.
    """
    n = spec.n
    check_enumerable(n)
    e = np.frexp(np.abs(np.append(spec.delta, spec.sigma)).max(initial=0.0))[1]
    delta, sigma = np.ldexp(spec.delta, -e), np.ldexp(spec.sigma, -e)
    log_w = doubling_table((linear_table(sigma[k, :k]) + delta[k] for k in range(n)), n)
    with np.errstate(over="ignore"):
        np.ldexp(log_w, e, out=log_w)
    return Pmf(*normalize(log_w))


def curie_weiss_pmf(n: int, delta) -> Pmf:
    """Exact table of the exchangeable-coupling model ``exp(x.delta + (sum x)^2 / 2)``."""
    delta = as_delta(delta, n)
    total = linear_table(np.ones(n))
    log_w = linear_table(delta)
    log_w += 0.5 * total**2
    return Pmf(*normalize(log_w))


# Entries per block of `pmf_distance`. Its buffer stays in cache, where
# whole-table temporaries at n = 20 cost more in page faults than in arithmetic.
_DISTANCE_BLOCK = 1 << 15


def pmf_distance(a: Pmf, b: Pmf) -> PmfDistance:
    """Total-variation and maximum-absolute gaps between two tables of one size.

    Sums run over blocks, then pairwise over the block sums: on a
    power-of-two table that is the order of numpy's pairwise ``sum`` over
    the whole table, so ``tv`` is ``0.5 * np.sum(np.abs(a - b))`` to the
    last bit.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"tables have different sizes: n = {a.n} vs {b.n}")
    size = min(a.probs.size, _DISTANCE_BLOCK)
    diff = np.empty(size)
    parts = np.empty((a.probs.size // size, 2))
    for i, start in enumerate(range(0, a.probs.size, size)):
        pa, pb = a.probs[start : start + size], b.probs[start : start + size]
        np.abs(np.subtract(pa, pb, out=diff), out=diff)
        parts[i] = diff.sum(), diff.max()
    sums = parts[:, 0]
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return PmfDistance(tv=float(0.5 * sums[0]), max_abs=float(parts[:, 1].max()))


def _first_moments(table: np.ndarray) -> tuple[np.ndarray, float]:
    """``sum_x x_i table[x]`` for every variable ``i``, and ``sum_x table[x]``.

    Folds the top variable away at each step: its sum is the upper half minus
    the lower half, and the two halves then add into a table over one
    variable fewer.
    """
    m = table.shape[0].bit_length() - 1
    first = np.empty(m)
    for j in reversed(range(m)):
        half = 1 << j
        lo, hi = table[:half], table[half:]
        first[j] = hi.sum() - lo.sum()
        table = lo + hi
    return first, float(table[0])


def pmf_moments(pmf: Pmf) -> tuple[np.ndarray, np.ndarray]:
    """First moments ``E[x_i]`` and second moments ``E[x_i x_j]`` of a table.

    For each top variable ``j`` the signed half ``hi - lo`` is ``x_j`` times the
    table, so its own first moments give ``E[x_i x_j]`` for ``i < j``.
    """
    n = pmf.n
    first = np.empty(n)
    second = np.zeros((n, n))
    table = pmf.probs
    for j in reversed(range(n)):
        half = 1 << j
        lo, hi = table[:half], table[half:]
        second[:j, j], first[j] = _first_moments(hi - lo)
        table = lo + hi
    second += second.T
    np.fill_diagonal(second, table[0])
    return first, second
