"""Common-effect (collider) form: independent causes, binary effects, conditioning.

Causes ``x_i`` are independent ``+/-1`` variables with
``p(x_i = +1) = logistic(2 delta_i)``.  Each effect ``r`` turns on with
probability ``exp(lambda_r (q_r . x)^2 / 2 - log_sup_r)``, scaled so the
largest possible value is exactly one.  Conditioning on every effect being
present recovers the pairwise model's PMF exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._enum import linear_table, log_2cosh, normalize, split_half_table, split_halves
from .core import Pmf, as_delta, freeze_array
from .errors import DimensionMismatchError
from .spectral import RANK_TOL, SpectralForm

UNIT_TOL = 1e-8


@dataclass(frozen=True)
class ColliderEffect:
    """One effect: strength ``lam`` and a unit direction ``q`` over the causes."""

    lam: float
    q: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError(f"effect strength must be finite and >= 0, got {self.lam!r}")
        norm = np.linalg.norm(freeze_array(self, "q", 1))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(
                f"effect direction must be a unit vector (norm {norm!r})"
            )

    @property
    def log_sup(self) -> float:
        """Log of the largest ``exp(lam (q . x)^2 / 2)`` over ``+/-1`` configurations.

        It is reached by ``x_i = sign(q_i)`` (zero entries contribute nothing
        either way): ``log_sup = lam (sum_i |q_i|)^2 / 2``.
        """
        return float(0.5 * self.lam * np.abs(self.q).sum() ** 2)


@dataclass(frozen=True)
class ColliderForm:
    """Cause intercepts and effects, also stacked as ``lams``, ``dirs`` (n, r), ``log_sups``."""

    delta: np.ndarray
    effects: tuple[ColliderEffect, ...]
    lams: np.ndarray = field(init=False, repr=False, compare=False)
    dirs: np.ndarray = field(init=False, repr=False, compare=False)
    log_sups: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        delta = freeze_array(self, "delta", 1)
        effects = tuple(self.effects)
        for k, eff in enumerate(effects):
            if eff.q.shape != delta.shape:
                raise DimensionMismatchError(
                    f"effect {k} direction has shape {eff.q.shape}, "
                    f"expected {delta.shape}"
                )
        object.__setattr__(self, "effects", effects)
        dirs = np.array([eff.q for eff in effects]).reshape(-1, delta.shape[0]).T.copy()
        freeze_array(self, "dirs", 2, dirs)
        freeze_array(self, "lams", 1, [eff.lam for eff in effects])
        freeze_array(self, "log_sups", 1, [eff.log_sup for eff in effects])

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def r(self) -> int:
        return len(self.effects)


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
    q = np.ones(n) / np.sqrt(n)
    return ColliderForm(delta=delta, effects=(ColliderEffect(lam=float(n), q=q),))


def spectral_to_collider(form: SpectralForm, delta) -> ColliderForm:
    """One effect per strictly positive eigenvalue, along its eigenvector."""
    delta = as_delta(delta, form.n)
    effects = tuple(
        ColliderEffect(lam=float(lam), q=form.q[:, k])
        for k, lam in enumerate(form.lambdas)
        if lam > RANK_TOL
    )
    return ColliderForm(delta=delta, effects=effects)


def cause_marginal_pmf(cf: ColliderForm) -> Pmf:
    """Joint table of the causes alone: independent ``logistic(2 delta_i)`` coins."""
    return Pmf(cf.n, *normalize(linear_table(cf.delta)))


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
    return Pmf(cf.n, *normalize(split_half_table(hi_w, hi_s * cf.lams, lo_w, lo_s)))
