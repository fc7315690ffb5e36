"""Latent-variable (common-cause) form: item-response conditionals and marginals.

Conditioned on a latent vector ``theta``, items are independent with
``p(x_i = +1 | theta) = logistic(2 (delta_i + a_i . theta))`` where ``a_i`` is
row ``i`` of the loading matrix.  Integrating the conditional against the
latent density recovers the pairwise model exactly; here the integral is
evaluated with Gauss-Hermite quadrature against the standard normal, using the
convention ``E[exp(s * theta)] = exp(s^2 / 2)`` for a standard-normal latent.

The marginal sums ``c_k p(x | theta_k)`` over tensor-product nodes, where
``c_k = w_k prod_i 2 cosh(eta_ik) / Z`` and ``eta_k = delta + A theta_k``.  The
items are conditionally independent, so ``p(x | theta_k)`` is a product over
the low-index half of the items times one over the rest: two half tables by
doubling and one matrix product per chunk of nodes.  Cancelling the ``2 cosh``
factors into ``exp(x . eta)`` or factoring the node sum across latent
dimensions would reproduce the spectral branch's Gaussian identity instead.
The latent-first sampler draws nodes from this mixture (`node_log_shares`),
under the marginal's own rank limit, reference rule and ``MASS_TOL`` check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._enum import check_enumerable, log_2cosh
from .core import Pmf, as_delta, freeze_array
from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    QuadratureResolutionError,
    RankLimitError,
)
from .spectral import RANK_TOL, SpectralForm

DEFAULT_QUAD_NODES = 64

# Largest Gauss-Hermite rule (numpy's weights turn non-finite near 380 nodes).
MAX_QUAD_NODES = 256

# Largest tilt the identity check accepts; far inside what 32+ nodes resolve.
KAC_DOMAIN = 5.0

# Tensor-product quadrature is limited to this many latent dimensions.
TENSOR_RANK_LIMIT = 3

# Full-enumeration limit for the tensor-quadrature marginal (tighter than the
# general enumeration cap because every configuration meets every node).
MIRT_ENUM_LIMIT = 12

# Acceptable deviation of the quadrature marginal's total mass from one.
MASS_TOL = 1e-6

# Tensor-product nodes evaluated together; bounds every working array.
_NODE_CHUNK = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating against the standard normal density."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = freeze_array(self, "nodes", 1)
        weights = freeze_array(self, "weights", 1)
        if nodes.shape != weights.shape:
            raise DimensionMismatchError(
                f"nodes and weights must be matching vectors, got shapes "
                f"{nodes.shape} and {weights.shape}"
            )
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @classmethod
    @functools.cache
    def gauss_hermite(cls, node_count: int = DEFAULT_QUAD_NODES) -> "QuadratureRule":
        """Gauss-Hermite rule rescaled to the standard normal weight function (cached)."""
        if node_count < 1:
            raise ValueError(f"node_count must be positive, got {node_count}")
        if node_count > MAX_QUAD_NODES:
            raise ValueError(
                f"Gauss-Hermite rules are limited to {MAX_QUAD_NODES} nodes, got {node_count} "
                f"(a latent marginal also builds the doubled rule, so use at most "
                f"{MAX_QUAD_NODES // 2} there)"
            )
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


def _node_chunks(delta: np.ndarray, loadings: np.ndarray, rule: QuadratureRule):
    """Fresh log weights ``(K,)`` and fields ``delta + A theta`` ``(n, K)`` of the tensor nodes.

    The latent dimensions after the first are summed once by broadcasting and
    the first is cut into blocks.  A rank-0 grid is one node of weight one.
    """
    n, log_w = delta.shape[0], np.log(rule.weights)
    steps = [np.outer(a, rule.nodes) for a in loadings.T]
    if not steps:
        yield np.zeros(1), delta[:, None].copy()
        return
    eta_rest, lw_rest = delta[:, None], np.zeros(1)
    for step in steps[1:]:
        lw_rest = (lw_rest[:, None] + log_w).ravel()
        eta_rest = (eta_rest[:, :, None] + step[:, None, :]).reshape(n, lw_rest.shape[0])
    block = max(1, _NODE_CHUNK // lw_rest.shape[0])
    for lo in range(0, rule.node_count, block):
        lw = (log_w[lo : lo + block, None] + lw_rest).ravel()
        eta = steps[0][:, lo : lo + block, None] + eta_rest[:, None, :]
        yield lw, eta.reshape(n, lw.shape[0])


def log_latent_norm(delta: np.ndarray, loadings: np.ndarray, rule: QuadratureRule) -> float:
    """Log of the quadrature estimate of ``E[prod_i 2 cosh(delta_i + a_i . theta)]``.

    Uses ``prod_i 2 cosh(eta_i) = exp(sum_i |eta_i|) prod_i (1 + exp(-2 |eta_i|))``:
    one exponential per item, and the product stays below ``2**n``.
    """
    logs = []
    for lw, eta in _node_chunks(delta, loadings, rule):
        # In place: a fresh (n, K) temporary costs more than the exponentials.
        mag = np.abs(eta, out=eta)
        tot = lw + mag.sum(axis=0)
        peak = tot.max()
        np.exp(np.multiply(mag, -2.0, out=mag), out=mag)
        mag += 1.0
        logs.append(peak + np.log(np.exp(tot - peak) @ mag.prod(axis=0)))
    return float(np.logaddexp.reduce(logs))


def _check_tensor_rank(r: int) -> None:
    if r > TENSOR_RANK_LIMIT:
        raise RankLimitError(
            f"tensor quadrature supports a latent rank of at most "
            f"{TENSOR_RANK_LIMIT}, got rank {r}"
        )


def _reference_log_norm(delta: np.ndarray, loadings: np.ndarray, rule: QuadratureRule) -> float:
    """`log_latent_norm` under ``rule`` at rank 0 (one exact node), else under its refinement."""
    return log_latent_norm(delta, loadings, rule if loadings.shape[1] == 0 else rule.refined())


def _check_mass(mass: float) -> None:
    if abs(mass - 1.0) > MASS_TOL:
        raise QuadratureResolutionError(
            f"quadrature marginal mass {float(mass)!r} deviates from 1 by more than "
            f"{MASS_TOL:g}; refine the rule (more nodes)"
        )


def _item_products(p_minus: np.ndarray, p_plus: np.ndarray) -> np.ndarray:
    """``prod_i p(x_i | theta_k)`` over these items, ``(2**items, K)``, by doubling."""
    out = np.ones((1 << p_plus.shape[0], p_plus.shape[1]))
    for i in range(p_plus.shape[0]):
        half = 1 << i
        np.multiply(out[:half], p_plus[i], out=out[half : 2 * half])
        out[:half] *= p_minus[i]
    return out


def _quadrature_pmf(delta, loadings, rule: QuadratureRule) -> Pmf:
    """Marginal table under ``rule``, with the density normalized under the reference rule.

    Each chunk of nodes adds ``G_hi (c G_lo)^T``, the conditional tables of the
    first ``n // 2`` items (low index bits) and of the rest.  A mass off one by
    more than ``MASS_TOL`` raises `QuadratureResolutionError`; otherwise the
    table is renormalized.
    """
    log_norm = _reference_log_norm(delta, loadings, rule)
    n = delta.shape[0]
    h = n // 2
    raw = np.zeros((1 << (n - h), 1 << h))
    for lw, eta in _node_chunks(delta, loadings, rule):
        # With e = exp(-2|eta|), logistic(+-2 eta) is 1/(1+e) or e/(1+e) and
        # log 2cosh(eta) = |eta| + log1p(e).
        mag = np.abs(eta)
        e = np.exp(-2.0 * mag)
        big, up = 1.0 / (1.0 + e), eta >= 0.0
        p_plus, p_minus = np.where(up, big, e * big), np.where(up, e * big, big)
        g_lo = _item_products(p_minus[:h], p_plus[:h])
        g_lo *= np.exp(lw + (mag + np.log1p(e)).sum(axis=0) - log_norm)
        raw += _item_products(p_minus[h:], p_plus[h:]) @ g_lo.T
    mass = raw.sum()
    _check_mass(mass)
    return Pmf(raw.ravel() / mass, float(log_norm + np.log(mass)))


def rasch_marginal_pmf(delta, rule: QuadratureRule | None = None) -> Pmf:
    """Marginal configuration table of the single-latent model by quadrature.

    The rank-one latent marginal with unit loadings; a rule too coarse for the
    ``MASS_TOL`` check raises `QuadratureResolutionError`.
    """
    form = LatentForm(delta=delta, loadings=np.ones((np.size(delta), 1)))
    check_enumerable(form.n)
    return _quadrature_pmf(form.delta, form.loadings, _default_rule(rule))


@dataclass(frozen=True)
class LatentForm:
    """Item intercepts and an ``n x r`` loading matrix onto independent latents."""

    delta: np.ndarray
    loadings: np.ndarray

    def __post_init__(self) -> None:
        n = freeze_array(self, "delta", 1).shape[0]
        loadings = freeze_array(self, "loadings", 2)
        if loadings.shape[0] != n:
            raise DimensionMismatchError(
                f"loadings have shape {loadings.shape}, expected ({n}, r)"
            )
        if loadings.shape[1] > n:
            raise ValueError(
                f"latent dimension {loadings.shape[1]} exceeds item count {n}"
            )

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def r(self) -> int:
        return self.loadings.shape[1]

    @classmethod
    def from_spectral(cls, form: SpectralForm, delta) -> "LatentForm":
        """Keep one latent dimension per strictly positive eigenvalue."""
        delta = as_delta(delta, form.n)
        keep = form.lambdas > RANK_TOL
        return cls(delta=delta, loadings=form.loadings[:, keep])


def mirt_marginal_pmf(form: LatentForm, rule: QuadratureRule | None = None) -> Pmf:
    """Marginal configuration table of a rank-``r`` latent model (``r <= 3``).

    Uses a tensor product of the one-dimensional rule over the latent
    dimensions.  A rank-0 form has no latent variable at all: items are
    independent coins and the table is exact.
    """
    _check_tensor_rank(form.r)
    if form.n > MIRT_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"n = {form.n} is too large for the tensor-quadrature marginal "
            f"(limit {MIRT_ENUM_LIMIT})"
        )
    return _quadrature_pmf(form.delta, form.loadings, _default_rule(rule))


def node_log_shares(form: LatentForm, rule: QuadratureRule) -> np.ndarray:
    """The marginal's node shares ``log c_k``, in `_node_chunks`' C order, for any ``n``.

    Raises what `mirt_marginal_pmf` raises for the rank and for a rule whose
    shares sum off one by more than ``MASS_TOL``.
    """
    _check_tensor_rank(form.r)
    chunks = _node_chunks(form.delta, form.loadings, rule)
    log_c = np.concatenate([lw + log_2cosh(eta).sum(axis=0) for lw, eta in chunks])
    log_c -= _reference_log_norm(form.delta, form.loadings, rule)
    _check_mass(np.exp(log_c).sum())
    return log_c
