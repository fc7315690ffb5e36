"""Common-effect (collider) form: independent causes, binary effects, conditioning.

Causes ``x_i`` are independent ``+/-1`` variables with
``p(x_i = +1) = logistic(2 delta_i)``.  Each effect ``r`` turns on with
probability ``exp(lambda_r (q_r . x)^2 / 2 - log_sup_r)``, scaled so the
largest possible value is exactly one.  Conditioning on every effect being
present recovers the pairwise model's PMF exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._enum import linear_table, log_2cosh, normalize, split_half_table, split_halves
from .core import Pmf, as_delta, freeze_array
from .errors import DimensionMismatchError
from .spectral import SpectralForm

UNIT_TOL = 1e-8


@dataclass(frozen=True)
class ColliderForm:
    """Cause intercepts ``delta`` and effect ``k``'s strength ``lams[k]`` along ``dirs[:, k]``.

    ``dirs`` is ``(n, r)`` with unit columns and ``lams`` is ``(r,)``, finite
    and ``>= 0``; `spectral_to_collider` gives it a spectral form's eigenpairs,
    all positive, as `LatentForm.from_spectral` does.
    """

    delta: np.ndarray
    lams: np.ndarray
    dirs: np.ndarray

    def __post_init__(self) -> None:
        n = freeze_array(self, "delta", 1).shape[0]
        lams = freeze_array(self, "lams", 1)
        dirs = freeze_array(self, "dirs", 2)
        if dirs.shape != (n, lams.shape[0]):
            raise DimensionMismatchError(
                f"dirs have shape {dirs.shape}, expected ({n}, {lams.shape[0]})"
            )
        if np.any(lams < 0.0):
            raise ValueError(f"effect strengths must be >= 0, got {lams!r}")
        norms = np.linalg.norm(dirs, axis=0)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValueError(f"effect directions must be unit vectors (norms {norms!r})")

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def r(self) -> int:
        return self.lams.shape[0]

    @property
    def log_sups(self) -> np.ndarray:
        """Each effect's largest log ``exp(lam (q . x)^2 / 2)`` over ``+/-1`` configurations.

        It is reached by ``x_i = sign(q_i)`` (zero entries contribute nothing
        either way): ``lam (sum_i |q_i|)^2 / 2``, each column summed as its own
        vector.
        """
        cols = np.ascontiguousarray(self.dirs.T)
        return np.array([0.5 * lam * np.abs(q).sum() ** 2 for lam, q in zip(self.lams, cols)])


def simple_collider(delta) -> ColliderForm:
    """Single-effect form whose acceptance exponent is ``(sum_i x_i)^2 / 2``.

    Parameterized with the unit direction ``ones / sqrt(n)`` and strength
    ``n``, which gives exactly the same acceptance function as an
    unnormalized all-ones direction with strength one.  Conditioned on the
    effect, this reproduces the exchangeable-coupling model.
    """
    n = np.size(delta)
    if n == 0:
        raise ValueError("simple_collider requires at least one cause")
    return ColliderForm(delta=delta, lams=[n], dirs=np.full((n, 1), 1.0 / np.sqrt(n)))


def spectral_to_collider(form: SpectralForm, delta) -> ColliderForm:
    """One effect per eigenpair of the form, along its eigenvector."""
    delta = as_delta(delta, form.n)
    return ColliderForm(delta=delta, lams=form.lambdas, dirs=form.q)


def cause_marginal_pmf(cf: ColliderForm) -> Pmf:
    """Joint table of the causes alone: independent ``logistic(2 delta_i)`` coins."""
    return Pmf(*normalize(linear_table(cf.delta)))


def conditioned_pmf(cf: ColliderForm) -> Pmf:
    """Cause table conditioned on every effect being present.

    The log weight is the cause marginal ``x.delta - sum_i log 2cosh delta_i``
    plus each effect's log acceptance ``lam (q . x)^2 / 2 - log_sup``.  With
    ``x`` split into its high and low index halves (`split_halves`), each
    score is ``s_hi + s_lo``: the half tables carry ``x.delta`` and
    ``lam s^2 / 2`` of their own half, the high one also the constants, and
    `split_half_table` adds the cross terms ``(lam s_hi) . s_lo``.

    The table's ``log_z`` is the log probability of that conditioning event
    under the joint, i.e. the log of the expected acceptance rate.
    """
    halves = []
    for part in split_halves(cf.n):
        scores = linear_table(cf.dirs[part])
        log_w = linear_table(cf.delta[part])
        log_w += (0.5 * cf.lams * scores * scores).sum(axis=1)
        halves.append((log_w, scores))
    (hi_w, hi_s), (lo_w, lo_s) = halves
    hi_w -= cf.log_sups.sum() + log_2cosh(cf.delta).sum()
    return Pmf(*normalize(split_half_table(hi_w, hi_s * cf.lams, lo_w, lo_s)))
