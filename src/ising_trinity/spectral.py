"""Eigenvalue form of the coupling matrix and the PMF computed through it.

Shifting the zero-diagonal coupling matrix by ``c`` times the identity changes
every configuration's log weight by the constant ``c * n / 2`` and therefore
leaves the PMF untouched.  The canonical shift is the smallest ``c >= 0``
making the shifted matrix positive semidefinite, so all eigenvalues used
downstream are non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._enum import linear_table, normalize, split_half_table, split_halves
from .core import ModelSpec, Pmf, as_delta, freeze_array
from .errors import DimensionMismatchError, EigendecompositionError


@dataclass(frozen=True)
class SpectralForm:
    """Eigenvalues (descending) and orthonormal eigenvectors of the shifted couplings.

    The shift is not stored: it is the diagonal of ``loadings @ loadings.T``
    while no eigenvalue has been zeroed.  Zeroing trailing eigenvalues yields
    a lower-rank form that defines a model in its own right rather than
    reproducing the original couplings.  Every eigen-based story keeps the
    non-zero eigenvalues (`positive`), one latent dimension or one effect
    each; `to_spectral` has already zeroed those that ``eigh`` cannot tell
    from zero.
    """

    lambdas: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        lambdas = freeze_array(self, "lambdas", 1)
        q = freeze_array(self, "q", 2)
        n = lambdas.shape[0]
        if q.shape != (n, n):
            raise DimensionMismatchError(
                f"eigenvector shape {q.shape} does not match {n} eigenvalues"
            )
        if np.any(lambdas < 0.0):
            raise ValueError("eigenvalues must be non-negative after the shift")
        if np.any(np.diff(lambdas) > 0.0):
            raise ValueError("eigenvalues must be sorted in descending order")

    @property
    def loadings(self) -> np.ndarray:
        """Each eigenvector column scaled by the square root of its eigenvalue.

        The shifted coupling matrix equals ``loadings @ loadings.T`` when no
        eigenvalue has been zeroed.
        """
        return self.q * np.sqrt(self.lambdas)

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @property
    def positive(self) -> np.ndarray:
        """Mask of the non-zero eigenvalues, the ones every eigen-based story keeps."""
        return self.lambdas > 0.0

    @property
    def rank(self) -> int:
        """Number of positive eigenvalues (`positive`)."""
        return int(np.sum(self.positive))


def to_spectral(spec: ModelSpec) -> SpectralForm:
    """Eigendecompose the zero-diagonal couplings after the canonical PSD shift.

    The shift ``c`` is the minimal one plus the spec's ``extra_shift``; it is
    not kept, but it is the diagonal of the form's ``loadings @ loadings.T``.
    ``extra_shift`` changes the eigenvalues and the loadings but never the
    PMF.  The rank is decided here, once: a shifted eigenvalue at or below
    ``8 * n * eps * lambda_max`` is set to exactly zero.  The couplings have
    zero trace, so their norm is at most ``lambda_max`` and the cut scales
    with ``eigh``'s rounding, ``O(n * eps * norm)``, at any coupling size.
    Eigenvector columns get a deterministic sign: the entry of largest
    magnitude (first such on ties) is made positive.
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
    lambdas[lambdas <= cut] = 0.0
    order = np.argsort(-lambdas, kind="stable")
    lambdas = lambdas[order]
    vecs = vecs[:, order]
    if vecs.size:
        lead = np.abs(vecs).argmax(axis=0)
        vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return SpectralForm(lambdas=lambdas, q=vecs)


def truncate_spectral(form: SpectralForm, max_rank: int) -> SpectralForm:
    """Zero all but the ``max_rank`` largest eigenvalues.

    The result is a standalone low-rank model; it does not reproduce the
    couplings the original form came from.
    """
    if max_rank < 0:
        raise ValueError(f"max_rank must be non-negative, got {max_rank}")
    lambdas = form.lambdas.copy()
    lambdas[max_rank:] = 0.0
    return SpectralForm(lambdas=lambdas, q=form.q)


def spectral_pmf(form: SpectralForm, delta) -> Pmf:
    """Exact probability table computed through the eigenvalue representation.

    Builds ``x.delta + sum_r lambda_r (q_r . x)^2 / 2`` over the non-zero
    eigenvalues (`SpectralForm.positive`), as the collider and latent stories
    do.  With ``x`` split into its high and low index halves
    (`split_halves`), each score is ``s_hi + s_lo``, so the log weight is
    ``x_hi.delta_hi + lambda s_hi^2 / 2`` plus the same for the low half plus
    the cross term ``(lambda s_hi) . s_lo``, written out by `split_half_table`.
    """
    delta = as_delta(delta, form.n)
    keep = form.positive
    lams = form.lambdas[keep]
    halves = []
    for part in split_halves(form.n):
        scores = linear_table(form.q[part, keep])
        log_w = linear_table(delta[part])
        log_w += (0.5 * lams * scores * scores).sum(axis=1)
        halves.append((log_w, scores))
    (hi_w, hi_s), (lo_w, lo_s) = halves
    return Pmf(*normalize(split_half_table(hi_w, hi_s * lams, lo_w, lo_s)))
