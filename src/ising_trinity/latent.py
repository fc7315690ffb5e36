"""Latent-variable (common-cause) form: item-response conditionals and marginals.

Conditioned on a latent vector ``theta``, items are independent with
``p(x_i = +1 | theta) = logistic(2 (delta_i + a_i . theta))`` where ``a_i`` is
row ``i`` of the loading matrix.  Integrating the conditional against the
latent density recovers the pairwise model exactly; here the integral is
evaluated with Gauss-Hermite quadrature against the standard normal, using the
convention ``E[exp(s * theta)] = exp(s^2 / 2)`` for a standard-normal latent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._enum import check_enumerable, config_block, config_matrix
from .core import Pmf, as_binary_config
from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    QuadratureResolutionError,
    RankLimitError,
)
from .spectral import RANK_TOL, SpectralForm

DEFAULT_QUAD_NODES = 64

# Largest tilt the identity check accepts; far inside what 32+ nodes resolve.
KAC_DOMAIN = 5.0

# Tensor-product quadrature is limited to this many latent dimensions.
TENSOR_RANK_LIMIT = 3

# Full-enumeration limit for the tensor-quadrature marginal (tighter than the
# general enumeration cap because every configuration meets every node).
MIRT_ENUM_LIMIT = 12

# Acceptable deviation of the quadrature marginal's total mass from one.
MASS_TOL = 1e-6

_NODE_CHUNK = 2048
_CONFIG_CHUNK = 1 << 14


def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -t)


def _log_2cosh(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating against the standard normal density."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DimensionMismatchError(
                f"nodes and weights must be matching vectors, got shapes "
                f"{nodes.shape} and {weights.shape}"
            )
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("quadrature nodes and weights must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @classmethod
    def gauss_hermite(cls, node_count: int = DEFAULT_QUAD_NODES) -> "QuadratureRule":
        """Gauss-Hermite rule rescaled to the standard normal weight function."""
        if node_count < 1:
            raise ValueError(f"node_count must be positive, got {node_count}")
        t, v = np.polynomial.hermite.hermgauss(node_count)
        return cls(nodes=t * np.sqrt(2.0), weights=v / np.sqrt(np.pi))

    def refined(self) -> "QuadratureRule":
        """Gauss-Hermite reference rule at twice this rule's resolution."""
        return QuadratureRule.gauss_hermite(2 * self.node_count)


def _default_rule(rule: QuadratureRule | None) -> QuadratureRule:
    return QuadratureRule.gauss_hermite() if rule is None else rule


def kac_identity_check(a: float, rule: QuadratureRule | None = None) -> float:
    """Quadrature value of ``integral exp(2 a t - t^2) / sqrt(pi) dt``.

    Equals ``exp(a**2)`` exactly; the returned value exposes the rule's error.
    Restricted to ``|a| <= 5``, where a 32-node rule is already accurate to
    better than 1e-8 relative.
    """
    if not np.isfinite(a) or abs(a) > KAC_DOMAIN:
        raise ValueError(f"|a| must be <= {KAC_DOMAIN:g} and finite, got {a!r}")
    rule = _default_rule(rule)
    t = rule.nodes
    vals = np.sqrt(2.0) * np.exp(2.0 * a * t - 0.5 * t**2)
    return float(rule.weights @ vals)


def rasch_conditional(delta, theta: float, x) -> float:
    """Probability of configuration ``x`` given a single latent value ``theta``.

    Items are conditionally independent with per-item success probability
    ``logistic(2 x_i (theta + delta_i))``.
    """
    delta = np.asarray(delta, dtype=np.float64)
    x = as_binary_config(x, delta.shape[0])
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return float(np.exp(np.sum(_log_sigmoid(2.0 * x * (theta + delta)))))


def _log_latent_norm(delta: np.ndarray, loadings: np.ndarray, rule: QuadratureRule) -> float:
    """Log of the quadrature estimate of ``E[prod_i 2 cosh(delta_i + a_i . theta)]``."""
    r = loadings.shape[1]
    log_w = np.log(rule.weights)
    total = rule.node_count**r
    shape = (rule.node_count,) * r
    pieces: list[tuple[float, float]] = []
    for lo in range(0, total, _NODE_CHUNK):
        hi = min(lo + _NODE_CHUNK, total)
        coords = np.unravel_index(np.arange(lo, hi), shape)
        thetas = np.stack([rule.nodes[c] for c in coords], axis=1)
        lw = sum(log_w[c] for c in coords)
        s = thetas @ loadings.T + delta
        tot = lw + _log_2cosh(s).sum(axis=1)
        peak = tot.max()
        pieces.append((float(peak), float(np.exp(tot - peak).sum())))
    top = max(p for p, _ in pieces)
    return top + float(np.log(sum(s * np.exp(p - top) for p, s in pieces)))


def latent_density_cw(delta, theta, rule: QuadratureRule | None = None):
    """Normalized latent density of the exchangeable-coupling model.

    Proportional to ``prod_i 2 cosh(theta + delta_i)`` times the standard
    normal density; the normalizer is evaluated with a Gauss-Hermite reference
    rule at twice the working rule's resolution.  Accepts scalar or array
    ``theta``.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1:
        raise ValueError(f"delta must be a vector, got shape {delta.shape}")
    theta_arr = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta_arr)):
        raise ValueError("theta must be finite")
    rule = _default_rule(rule)
    log_norm = _log_latent_norm(
        delta, np.ones((delta.shape[0], 1)), rule.refined()
    )
    pts = np.atleast_1d(theta_arr)
    log_f = (
        _log_2cosh(pts[:, None] + delta).sum(axis=1)
        - 0.5 * pts**2
        - 0.5 * np.log(2.0 * np.pi)
        - log_norm
    )
    out = np.exp(log_f)
    return float(out[0]) if theta_arr.ndim == 0 else out


def rasch_marginal_pmf(delta, rule: QuadratureRule | None = None) -> Pmf:
    """Marginal configuration table of the single-latent model by quadrature.

    Integrates ``rasch_conditional`` against the latent density node by node.
    If the total mass drifts from one by more than ``MASS_TOL`` the rule is too
    coarse and a `QuadratureResolutionError` is raised; otherwise the table is
    renormalized exactly.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1:
        raise ValueError(f"delta must be a vector, got shape {delta.shape}")
    n = delta.shape[0]
    check_enumerable(n)
    rule = _default_rule(rule)
    log_norm = _log_latent_norm(delta, np.ones((n, 1)), rule.refined())

    s = rule.nodes[:, None] + delta  # (nodes, items)
    log_p_plus = _log_sigmoid(2.0 * s)
    log_p_minus = _log_sigmoid(-2.0 * s)
    base = log_p_minus.sum(axis=1)
    gap = log_p_plus - log_p_minus
    coef = rule.weights * np.exp(_log_2cosh(s).sum(axis=1) - log_norm)

    total = 1 << n
    raw = np.empty(total)
    for lo in range(0, total, _CONFIG_CHUNK):
        hi = min(lo + _CONFIG_CHUNK, total)
        picks = (config_block(n, lo, hi) + 1.0) / 2.0
        log_cond = picks @ gap.T + base
        raw[lo:hi] = np.exp(log_cond) @ coef

    mass = raw.sum()
    if abs(mass - 1.0) > MASS_TOL:
        raise QuadratureResolutionError(
            f"quadrature marginal mass {mass!r} deviates from 1 by more than "
            f"{MASS_TOL:g}; refine the rule (more nodes)"
        )
    return Pmf(n, raw / mass, float(log_norm + np.log(mass)))


@dataclass(frozen=True)
class LatentForm:
    """Item intercepts and an ``n x r`` loading matrix onto independent latents."""

    delta: np.ndarray
    loadings: np.ndarray

    def __post_init__(self) -> None:
        delta = np.asarray(self.delta, dtype=np.float64)
        loadings = np.asarray(self.loadings, dtype=np.float64)
        if delta.ndim != 1:
            raise ValueError(f"delta must be a vector, got shape {delta.shape}")
        n = delta.shape[0]
        if loadings.ndim != 2 or loadings.shape[0] != n:
            raise DimensionMismatchError(
                f"loadings have shape {loadings.shape}, expected ({n}, r)"
            )
        if loadings.shape[1] > n:
            raise ValueError(
                f"latent dimension {loadings.shape[1]} exceeds item count {n}"
            )
        if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(loadings))):
            raise ValueError("delta and loadings must be finite")
        delta.setflags(write=False)
        loadings.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "loadings", loadings)

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def r(self) -> int:
        return self.loadings.shape[1]

    @classmethod
    def from_spectral(cls, form: SpectralForm, delta) -> "LatentForm":
        """Keep one latent dimension per strictly positive eigenvalue."""
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (form.n,):
            raise DimensionMismatchError(
                f"delta has shape {delta.shape}, expected ({form.n},)"
            )
        keep = form.lambdas > RANK_TOL
        return cls(delta=delta, loadings=form.loadings[:, keep])


def mirt_conditional(form: LatentForm, theta, x) -> float:
    """Probability of configuration ``x`` given the latent vector ``theta``."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (form.r,):
        raise DimensionMismatchError(
            f"theta has shape {theta.shape}, expected ({form.r},)"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    x = as_binary_config(x, form.n)
    s = form.delta + form.loadings @ theta
    return float(np.exp(np.sum(_log_sigmoid(2.0 * x * s))))


def mirt_marginal_pmf(form: LatentForm, rule: QuadratureRule | None = None) -> Pmf:
    """Marginal configuration table of a rank-``r`` latent model (``r <= 3``).

    Uses a tensor product of the one-dimensional rule over the latent
    dimensions.  A rank-0 form has no latent variable at all: items are
    independent coins and the table is exact.
    """
    if form.r > TENSOR_RANK_LIMIT:
        raise RankLimitError(
            f"tensor quadrature supports at most {TENSOR_RANK_LIMIT} latent "
            f"dimensions, got r = {form.r}"
        )
    if form.n > MIRT_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"n = {form.n} is too large for the tensor-quadrature marginal "
            f"(limit {MIRT_ENUM_LIMIT})"
        )
    n = form.n
    configs = config_matrix(n)

    if form.r == 0:
        log_p = _log_sigmoid(2.0 * configs * form.delta).sum(axis=1)
        probs = np.exp(log_p)
        return Pmf(n, probs / probs.sum(), float(_log_2cosh(form.delta).sum()))

    rule = _default_rule(rule)
    log_norm = _log_latent_norm(form.delta, form.loadings, rule.refined())
    log_w = np.log(rule.weights)
    picks = (configs + 1.0) / 2.0

    total = rule.node_count**form.r
    shape = (rule.node_count,) * form.r
    raw = np.zeros(1 << n)
    for lo in range(0, total, _NODE_CHUNK):
        hi = min(lo + _NODE_CHUNK, total)
        coords = np.unravel_index(np.arange(lo, hi), shape)
        thetas = np.stack([rule.nodes[c] for c in coords], axis=1)
        lw = sum(log_w[c] for c in coords)
        s = thetas @ form.loadings.T + form.delta  # (chunk, items)
        log_p_plus = _log_sigmoid(2.0 * s)
        log_p_minus = _log_sigmoid(-2.0 * s)
        log_cond = picks @ (log_p_plus - log_p_minus).T + log_p_minus.sum(axis=1)
        coef = np.exp(lw + _log_2cosh(s).sum(axis=1) - log_norm)
        raw += np.exp(log_cond) @ coef

    mass = raw.sum()
    if abs(mass - 1.0) > MASS_TOL:
        raise QuadratureResolutionError(
            f"quadrature marginal mass {mass!r} deviates from 1 by more than "
            f"{MASS_TOL:g}; refine the rule (more nodes)"
        )
    return Pmf(n, raw / mass, float(log_norm + np.log(mass)))
