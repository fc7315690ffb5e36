"""Eigenvalue form of the coupling matrix and the PMF computed through it.

Shifting the zero-diagonal coupling matrix by ``c`` times the identity changes
every configuration's log weight by the constant ``c * n / 2`` and therefore
leaves the PMF untouched.  The canonical shift is the smallest ``c >= 0``
making the shifted matrix positive semidefinite.  A `SpectralForm` holds only
the eigenpairs with a positive shifted eigenvalue, one latent dimension or one
effect each, so every eigen-based story reads the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._enum import linear_table, normalize, split_half_table, split_halves
from .core import ModelSpec, Pmf, as_delta, freeze_array
from .errors import DimensionMismatchError, EigendecompositionError


@dataclass(frozen=True)
class SpectralForm:
    """The positive eigenvalues (descending) of the shifted couplings and their eigenvectors.

    ``lambdas`` is ``(r,)`` and ``q`` is ``(n, r)``: one column per kept
    eigenvalue, so ``q.T @ q`` is the ``r``-by-``r`` identity and ``q`` is a
    full basis only at full rank.  Every eigen-based story reads all ``r``
    pairs, one latent dimension or one effect each; `to_spectral` has already
    dropped the eigenvalues that ``eigh`` cannot tell from zero, and a zero
    eigenvalue is refused.  The shift is not stored: it is the diagonal of
    ``loadings @ loadings.T`` for a form `to_spectral` built.  A truncated
    form defines a model in its own right rather than reproducing the
    original couplings.
    """

    lambdas: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        lambdas = freeze_array(self, "lambdas", 1)
        q = freeze_array(self, "q", 2)
        if q.shape[1] != lambdas.shape[0]:
            raise DimensionMismatchError(
                f"eigenvector shape {q.shape} does not match {lambdas.shape[0]} eigenvalues"
            )
        if np.any(lambdas <= 0.0):
            raise ValueError("eigenvalues must be positive after the shift")
        if np.any(np.diff(lambdas) > 0.0):
            raise ValueError("eigenvalues must be sorted in descending order")

    @property
    def loadings(self) -> np.ndarray:
        """Each eigenvector column scaled by the square root of its eigenvalue, ``(n, r)``.

        The shifted coupling matrix equals ``loadings @ loadings.T`` for a
        form `to_spectral` built.
        """
        return self.q * np.sqrt(self.lambdas)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def rank(self) -> int:
        """Number of eigenpairs, each one latent dimension or one effect."""
        return self.lambdas.shape[0]


def to_spectral(spec: ModelSpec) -> SpectralForm:
    """Eigendecompose the zero-diagonal couplings after the canonical PSD shift.

    The shift ``c`` is the minimal one plus the spec's ``extra_shift``; it is
    not kept, but it is the diagonal of the form's ``loadings @ loadings.T``.
    ``extra_shift`` changes the eigenvalues and the loadings but never the
    PMF.  The rank is decided here, once: only the shifted eigenvalues above
    ``8 * n * eps * lambda_max`` are kept, in descending order.  The
    couplings have zero trace, so their norm is at most ``lambda_max`` and
    the cut scales with ``eigh``'s rounding, ``O(n * eps * norm)``, at any
    coupling size.  Eigenvector columns get a deterministic sign: the entry
    of largest magnitude (first such on ties) is made positive.
    """
    try:
        evals, vecs = np.linalg.eigh(spec.sigma)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigendecomposition of the coupling matrix failed: {exc}"
        ) from exc
    c = max(0.0, -float(evals.min(initial=0.0))) + spec.extra_shift
    with np.errstate(over="ignore", invalid="ignore"):
        lambdas = evals + c
    if not np.all(np.isfinite(lambdas)):
        raise EigendecompositionError(
            f"eigendecomposition of the coupling matrix failed: the eigenvalues "
            f"{evals.min():g} to {evals.max():g} or their shift by c = {c:g} are not finite"
        )
    cut = 8.0 * lambdas.size * np.finfo(float).eps * lambdas.max(initial=0.0)
    keep = np.argsort(-lambdas, kind="stable")[: np.count_nonzero(lambdas > cut)]
    vecs = vecs[:, keep]
    if vecs.size:
        lead = np.abs(vecs).argmax(axis=0)
        vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return SpectralForm(lambdas=lambdas[keep], q=vecs)


def truncate_spectral(form: SpectralForm, max_rank: int) -> SpectralForm:
    """Keep the ``max_rank`` leading eigenpairs (all of them at or above the rank).

    The result is a standalone low-rank model; it does not reproduce the
    couplings the original form came from.
    """
    if max_rank < 0:
        raise ValueError(f"max_rank must be non-negative, got {max_rank}")
    return SpectralForm(lambdas=form.lambdas[:max_rank], q=form.q[:, :max_rank])


def spectral_pmf(form: SpectralForm, delta) -> Pmf:
    """Exact probability table computed through the eigenvalue representation.

    Builds ``x.delta + sum_r lambda_r (q_r . x)^2 / 2`` over the form's
    eigenpairs, as the collider and latent stories do.  With ``x`` split into
    its high and low index halves (`split_halves`), each score is
    ``s_hi + s_lo``, so the log weight is ``x_hi.delta_hi + lambda s_hi^2 / 2``
    plus the same for the low half plus the cross term
    ``(lambda s_hi) . s_lo``, written out by `split_half_table`.
    """
    delta = as_delta(delta, form.n)
    halves = []
    for part in split_halves(form.n):
        scores = linear_table(form.q[part])
        log_w = linear_table(delta[part])
        log_w += (0.5 * form.lambdas * scores * scores).sum(axis=1)
        halves.append((log_w, scores))
    (hi_w, hi_s), (lo_w, lo_s) = halves
    return Pmf(*normalize(split_half_table(hi_w, hi_s * form.lambdas, lo_w, lo_s)))
