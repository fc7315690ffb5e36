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
groups of items, each tabulated by doubling: the low and the high half of the
first 12 items, whose tables meet in matrix products of node blocks, and the
items above them, whose table weights each node's product.  Cancelling the
``2 cosh`` factors into ``exp(x . eta)`` or factoring the node sum across
latent dimensions would reproduce the spectral branch's Gaussian identity
instead.
The latent-first sampler draws nodes from this mixture (`latent_first_nodes`),
under the marginal's own rank limit.

This module alone decides how far a latent output is trusted.  A caller's
`QuadratureRule` is only a node count ``m``; the nodes and weights are built
here (`_gauss_hermite`), and no other module reads them.  The public entry
points integrate with a stretched rule (`_stretched`): the ``m``-node
rule's nodes ``t`` move to ``2 t`` and its weights ``w`` become
``w 2 phi(2 t) / phi(t)`` (Naylor & Smith 1982; Liu & Pierce 1994), which
spreads the nodes over the wider latent density that a product of ``2 cosh``
factors tilts the normal into.  The stretched weights are built and used as
logs, so every ``m``-node rule keeps all ``m`` nodes, however far out the
stretch moves them.  `_rule_pair` builds that working rule and the stretched
reference of ``(3m + 1) // 2`` nodes that measures it, so the reference
always has more nodes than the rule.  The table under the working rule is the
result, and its total-variation distance to the table under the reference
is its error estimate; an estimate above ``ESTIMATE_TOL`` refuses the rule.
The latent-first sampler has no table, so it compares the two rules'
normalizers instead.  The private kernels take whatever nodes and log
weights they are given.

Most tensor nodes hold a negligible share of the mass, so the grid is cut into
boxes of ``_BOX`` nodes per latent dimension (a ragged last box is padded with
nodes of weight zero) and only the boxes that matter are evaluated.  A box
with centre ``c`` and half-widths ``h`` holds at most
``exp(sum_j max log w + sum_i log 2cosh(|delta_i + a_i . c| + sum_j |a_ij| h_j))``
per node, since ``log 2cosh`` grows with ``|eta|``, times its ``_BOX**r`` nodes.
Boxes are evaluated in descending order of that bound.  The exact terms of
the first batch are a lower bound ``Z-`` on the total, and the boxes left once
the rest of the bounds sum below ``2**-60 Z-`` are skipped: together they hold
less than ``2**-60`` of the mass, below the rounding of a float64 sum.  The
normalizer, the table and the node shares all read this one sweep
(`_node_batches`); the table also drops each node whose own share is below
``2**-60 / N`` of the ``N``-node grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._enum import _BLOCK_MADDS, check_enumerable, log_2cosh
from .core import Pmf, as_delta, freeze_array, pmf_distance
from .errors import DimensionMismatchError, QuadratureResolutionError, RankLimitError
from .spectral import SpectralForm

DEFAULT_QUAD_NODES = 64

# Largest latent rule.  Every latent output also builds its reference of
# (3m + 1) // 2 nodes, 192 here, and numpy's Gauss-Hermite weights turn
# non-finite near 380 nodes.
MAX_QUAD_NODES = 128

# Largest tilt the identity check accepts; far inside what 32+ nodes resolve.
KAC_DOMAIN = 5.0

# Tensor-product quadrature is limited to this many latent dimensions.
TENSOR_RANK_LIMIT = 3

# Largest error estimate of a latent table: the total-variation distance
# between the tables under the stretched m-node rule and its (3m + 1) // 2-node
# reference.
ESTIMATE_TOL = 1e-8

# Factor by which the latent marginal and sampler widen the rule they are given.
_STRETCH = 2.0

# Acceptable deviation of the latent-first sampler's node mass from one (its
# only user: the sampler has no table to measure).
MASS_TOL = 1e-6

# Tensor-product nodes evaluated together; bounds every working array.
_NODE_CHUNK = 4096

# Tensor nodes per latent dimension in one box of the pruned grid.
_BOX = 4

# Boxes whose bounds sum below this share of the total mass are skipped.
_SKIP_SHARE = 2.0**-60

# Items of the latent table's sub-table, split into two halves multiplied per
# node block; the items above them weight each node's product.  Twelve keeps
# the blocks at least 32 nodes wide (_BLOCK_MADDS >> 12).
_SUB_ITEMS = 12

# Node-block products per stacked matrix product of the latent table, whose
# nodes make one part of a batch; the results take _STACK * 2**_SUB_ITEMS
# floats at most.
_STACK = 8


@dataclass(frozen=True)
class QuadratureRule:
    """A latent rule: the Gauss-Hermite rule of ``node_count`` nodes per latent dimension.

    The count is all a caller chooses.  This module alone turns it into nodes
    and weights, stretches them, and builds the reference of
    ``(3m + 1) // 2`` nodes that measures every latent output, so
    ``node_count`` runs from 1 to ``MAX_QUAD_NODES``; it is stored as a
    Python ``int``.
    """

    node_count: int = DEFAULT_QUAD_NODES

    def __post_init__(self) -> None:
        m = self.node_count
        if type(m) is bool or not isinstance(m, (int, np.integer)) or not 0 < m <= MAX_QUAD_NODES:
            raise ValueError(
                f"latent rules take 1 to {MAX_QUAD_NODES} nodes (each latent output also "
                f"builds a reference rule of 1.5 times its nodes, rounded up), got {m!r}"
            )
        object.__setattr__(self, "node_count", int(m))


@functools.cache
def _gauss_hermite(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``m``-node Gauss-Hermite rule for the standard normal."""
    t, v = np.polynomial.hermite.hermgauss(m)
    nodes, weights = t * np.sqrt(2.0), v / np.sqrt(np.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _stretched(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` nodes and ``m`` log weights of the ``m``-node rule widened by ``_STRETCH = s``.

    Nodes ``t`` move to ``s t`` and weights ``w`` become ``w s phi(s t) / phi(t)``:
    a change of variables, so the rule integrates against the same standard
    normal density.  The weights are kept as logs, which stay finite where
    the weights themselves would underflow, so every node is kept.
    """
    t, w = _gauss_hermite(m)
    s = _STRETCH
    return s * t, np.log(w) + np.log(s) + 0.5 * (1.0 - s * s) * t**2


def _rule_pair(rule: QuadratureRule):
    """Stretched ``(nodes, log_weights)`` of the working rule and of its reference.

    The reference has ``(3m + 1) // 2`` nodes: 96 for the default 64, 192 for
    ``MAX_QUAD_NODES``, and 2 for 1, so always more than the rule it measures.
    """
    m = rule.node_count
    return _stretched(m), _stretched((3 * m + 1) // 2)


def kac_identity_check(a: float, rule: QuadratureRule = QuadratureRule()) -> float:
    """Quadrature value of ``integral exp(2 a t - t^2) / sqrt(pi) dt``.

    Evaluated under the plain, unstretched ``rule`` (``QuadratureRule()`` is
    the 64-node one).  Equals ``exp(a**2)`` exactly; the returned value
    exposes the rule's error.  Restricted to ``|a| <= 5``, where a 32-node
    rule is already accurate to better than 1e-8 relative.
    """
    if not np.isfinite(a) or abs(a) > KAC_DOMAIN:
        raise ValueError(f"|a| must be <= {KAC_DOMAIN:g} and finite, got {a!r}")
    t, w = _gauss_hermite(rule.node_count)
    vals = np.sqrt(2.0) * np.exp(2.0 * a * t - 0.5 * t**2)
    return float(w @ vals)


def _node_batches(delta: np.ndarray, loadings: np.ndarray, nodes, log_weights):
    """Batches ``(index, log_c, eta)`` of the tensor nodes holding all but ``2**-60`` of the mass.

    The grid is the tensor product of the one-dimensional ``nodes`` and
    their ``log_weights``.

    ``index`` holds each node's position in the grid's C order, ``log_c`` its
    unnormalized log weight ``sum_j log w_kj + sum_i log 2 cosh(eta_ik)``
    (``-inf`` for the padding of a ragged last box, whose ``index`` is not a
    node) and ``eta`` its fields ``delta + A theta_k``, ``(n, K)``, in a
    buffer that the next batch overwrites.  Boxes are visited in descending
    order of their bounds; see the module docstring.
    """
    n, r = loadings.shape
    m = nodes.size
    per_dim = -(-m // _BOX)
    per_batch = max(1, _NODE_CHUNK // _BOX**r)
    # Slots first, boxes innermost; padding repeats the last node at weight zero.
    slot = np.arange(per_dim * _BOX).reshape(per_dim, _BOX).T
    t = nodes[np.minimum(slot, m - 1)]
    log_w = np.where(slot < m, log_weights[np.minimum(slot, m - 1)], -np.inf)
    steps = np.ascontiguousarray(loadings.T[:, :, None, None] * t)
    # C-order index of a box's first node per box digit, and of each slot within it.
    place = m ** np.arange(r - 1, -1, -1)
    within = np.zeros(1, dtype=np.int64)
    for stride in place:
        within = (within[:, None] + stride * np.arange(_BOX)).ravel()

    # Fields, magnitudes and log1p terms of a batch, kept across batches: fresh
    # (n, K) arrays each batch cost a page fault per 4 KiB.
    work = np.empty((3, n * min(per_batch, per_dim**r) * _BOX**r))

    def batch(boxes):
        digits = boxes // per_dim ** np.arange(r - 1, -1, -1)[:, None] % per_dim
        k = boxes.size * _BOX**r
        # Fields sum as (delta + a_1 t) + ... + a_0 t, weights as w_1 + ... + w_0.
        eta, lw = delta.reshape(n, *[1] * r, 1), np.zeros([1] * (r + 1))
        for j in [*range(1, r), 0][:r]:
            shape = [1] * r + [boxes.size]
            shape[j] = _BOX
            out = work[0, : n * k].reshape(n, *[_BOX] * r, -1) if j == 0 else None
            eta = np.add(eta, np.take(steps[j], digits[j], axis=2).reshape(n, *shape), out=out)
            lw = lw + np.take(log_w, digits[j], axis=1).reshape(shape)
        # Shapes spelled out: at n = 0 there is no -1 to infer.
        eta = eta.reshape(n, k)
        # log 2cosh(eta) = |eta| + log1p(exp(-2|eta|))
        mag, tail = work[1:, : n * k].reshape(2, n, k)
        np.multiply(np.abs(eta, out=mag), -2.0, out=tail)
        mag += np.log1p(np.exp(tail, out=tail), out=tail)
        log_c = lw.reshape(-1) + mag.sum(axis=0)
        return (within[:, None] + _BOX * place @ digits).reshape(-1), log_c, eta

    if per_dim**r <= per_batch:
        yield batch(np.arange(per_dim**r))
        return
    # Each box's log mass is at most its largest log weights, plus log 2cosh of
    # each field's largest magnitude over the box, plus log(_BOX) per dimension
    # for its _BOX**r nodes.  Built in slabs of the first dimension's boxes,
    # about _NODE_CHUNK boxes at a time.
    lo, hi = t.min(axis=0), t.max(axis=0)
    centre, half, top_w = (lo + hi) / 2.0, (hi - lo) / 2.0, log_w.max(axis=0)
    field, spread, rest_w = delta[:, None, None], np.zeros((n, 1, 1)), np.zeros((1, 1))
    for a in loadings.T[1:]:
        field = (field[..., None] + np.outer(a, centre)[:, None, None]).reshape(n, 1, -1)
        spread = (spread[..., None] + np.outer(np.abs(a), half)[:, None, None]).reshape(n, 1, -1)
        rest_w = (rest_w[..., None] + top_w).reshape(1, -1)
    bounds = np.empty((per_dim, rest_w.size))
    step, a0 = max(1, _NODE_CHUNK // rest_w.size), loadings[:, :1, None]
    for b in range(0, per_dim, step):
        part = slice(b, b + step)
        reach = np.abs(field + a0 * centre[part, None])
        reach += spread + np.abs(a0) * half[part, None]
        bounds[part] = rest_w + top_w[part, None] + log_2cosh(reach).sum(axis=0)
    bounds = bounds.ravel() + r * np.log(_BOX)
    order = np.argsort(-bounds, kind="stable")
    first = batch(order[:per_batch])
    yield first
    # The first batch's exact terms bound the total from below; the boxes
    # left once the rest of the bounds sum below _SKIP_SHARE of it are skipped.
    # Clipping each term at one floor keeps it finite; a sum holding a clipped
    # term is at least one floor either way.
    log_floor = _log_sum_exp(first[1]) + np.log(_SKIP_SHARE)
    left = np.cumsum(np.exp(np.minimum(bounds[order[::-1]] - log_floor, 0.0)))[::-1]
    stop = int(np.count_nonzero(left >= 1.0))
    for lo_box in range(per_batch, stop, per_batch):
        yield batch(order[lo_box : min(lo_box + per_batch, stop)])


def _log_sum_exp(log_c: np.ndarray) -> float:
    peak = log_c.max()
    return float(peak + np.log(np.exp(log_c - peak).sum()))


def _check_tensor_rank(r: int) -> None:
    if r > TENSOR_RANK_LIMIT:
        raise RankLimitError(
            f"tensor quadrature supports a latent rank of at most "
            f"{TENSOR_RANK_LIMIT}, got rank {r}"
        )


def _item_conditional(eta: np.ndarray, sign: float) -> np.ndarray:
    """Item conditionals ``p(x_i = sign | theta) = 1 / (1 + exp(-2 sign eta_i))``, ``sign = +-1``.

    ``eta`` holds the fields ``delta_i + a_i . theta``.  An exponential that
    overflows gives the probability's limit, zero.
    """
    with np.errstate(over="ignore"):
        p = np.exp(-2.0 * sign * eta)
    p += 1.0
    return np.reciprocal(p, out=p)


def _item_products(p_plus: np.ndarray, p_minus: np.ndarray) -> np.ndarray:
    """``prod_i p(x_i | theta_k)`` over items of these conditionals, ``(2**items, K)``, by doubling.

    ``p_plus`` and ``p_minus`` hold ``p(x_i = +-1 | theta_k)``.
    """
    out = np.empty((1 << p_plus.shape[0], p_plus.shape[1]))
    out[0] = 1.0
    for i in range(p_plus.shape[0]):
        half = 1 << i
        np.multiply(out[:half], p_plus[i], out=out[half : 2 * half])
        out[:half] *= p_minus[i]
    return out


def _quadrature_pmf(delta, loadings, nodes, log_weights) -> Pmf:
    """Marginal table under the rule of ``nodes`` and ``log_weights``, normalized by its own total.

    The first ``s = min(n, _SUB_ITEMS)`` items make up a sub-table.  Slab
    ``j`` of the table holds the ``2**s`` configurations whose items above
    the first ``s`` take configuration ``j`` (the index's top bits), and each
    batch of nodes adds ``G_hi (c t_j G_lo)^T`` to it: ``G_lo`` and ``G_hi``
    are the conditional tables of the first ``s // 2`` items and of the rest
    of the sub-table, ``t_j`` the conditional probability of configuration
    ``j`` (one, in the only slab, at n <= 12), and ``c`` each node's share of
    the first batch's total (a lower bound on the whole), over the nodes
    whose share is at least ``2**-60 / N`` of the ``N``-node grid.  The
    products run as stacked products of node blocks, each of at most
    ``_BLOCK_MADDS`` multiply-adds and so on the calling thread (see
    `_enum`), so the table does not depend on the BLAS thread count.  A
    batch's kept nodes run in parts of at most ``_STACK`` blocks, counted
    from its first kept node; the nodes after the last whole block make one
    product of their own.  Each part's conditionals and item tables are
    built fresh just before its products, so they stay in cache, and every
    slab adds the products in node order.  Besides the table, only the
    weights ``t`` grow with ``n``: ``2**(n - s)`` per node of a part.
    ``log_z`` is the log of the rule's own total.
    """
    n = delta.shape[0]
    sub = min(n, _SUB_ITEMS)
    h = sub // 2
    raw = np.zeros((1 << (n - sub), 1 << (sub - h), 1 << h))
    floor = _SKIP_SHARE / nodes.size ** loadings.shape[1]
    width = _BLOCK_MADDS >> sub
    span = _STACK * width
    log_shift = None
    for _, log_c, eta in _node_batches(delta, loadings, nodes, log_weights):
        if log_shift is None:
            log_shift = _log_sum_exp(log_c)
        c = np.exp(log_c - log_shift)
        keep = np.flatnonzero(c >= floor)
        # Each part's low-half table is weighted by c t_j as used.
        for start in range(0, keep.size, span):
            part = keep[start : start + span]
            fields, weight = eta[:, part], c[part]
            p_plus, p_minus = _item_conditional(fields, 1.0), _item_conditional(fields, -1.0)
            g_lo = _item_products(p_plus[:h], p_minus[:h])
            g_hi = _item_products(p_plus[h:sub], p_minus[h:sub])
            top = _item_products(p_plus[sub:], p_minus[sub:])
            # The nodes before `cut` fill whole blocks.
            cut = part.size - part.size % width
            for slab, t in zip(raw, top):
                lo = g_lo * (weight * t)
                if cut:
                    slab += np.matmul(
                        g_hi[:, :cut].reshape(g_hi.shape[0], -1, width).transpose(1, 0, 2),
                        lo[:, :cut].reshape(lo.shape[0], -1, width).transpose(1, 2, 0),
                    ).sum(axis=0)
                if cut < part.size:
                    slab += g_hi[:, cut:] @ lo[:, cut:].T
    mass = raw.sum()
    raw /= mass
    # Read-only, so the table keeps this memory rather than a copy of it.
    raw.setflags(write=False)
    return Pmf(raw.ravel(), float(log_shift + np.log(mass)))


def rasch_marginal_pmf(delta, rule: QuadratureRule = QuadratureRule()) -> Pmf:
    """Marginal configuration table of the single-latent model by quadrature.

    `mirt_marginal_pmf` of the rank-one form with unit loadings (rank zero
    when there are no items), with its limits and error estimate.
    """
    size = np.size(delta)
    return mirt_marginal_pmf(LatentForm(delta=delta, loadings=np.ones((size, min(size, 1)))), rule)


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
        """One latent dimension per eigenpair of the form, loaded by `SpectralForm.loadings`."""
        delta = as_delta(delta, form.n)
        return cls(delta=delta, loadings=form.loadings)


def mirt_marginal_pmf(form: LatentForm, rule: QuadratureRule = QuadratureRule()) -> Pmf:
    """Marginal configuration table of a rank-``r`` latent model (``r <= 3``, ``n <= 20``).

    Uses a tensor product of the stretched one-dimensional rule (default 64
    nodes) over the latent dimensions.  The table carries its error
    estimate, its total-variation distance to the table under the
    ``(3m + 1) // 2``-node reference of `_rule_pair` (96 nodes by default);
    an estimate above ``ESTIMATE_TOL`` raises
    `QuadratureResolutionError`.  Above rank 3 it raises `RankLimitError`,
    and above the enumeration limit, the one size limit of every table,
    `EnumerationLimitError`.  A rank-0 form has no latent variable at all:
    items are independent coins and the table is exact.
    """
    _check_tensor_rank(form.r)
    check_enumerable(form.n)
    working, fine = _rule_pair(rule)
    table = _quadrature_pmf(form.delta, form.loadings, *working)
    est = pmf_distance(table, _quadrature_pmf(form.delta, form.loadings, *fine)).tv
    if est > ESTIMATE_TOL:
        raise QuadratureResolutionError(
            f"latent table error estimate {est:.3g} (its distance to the table under "
            f"the {fine[0].size}-node rule) exceeds {ESTIMATE_TOL:g}; "
            f"refine the rule (more nodes)"
        )
    return Pmf(table.probs, table.log_z, est)


def latent_first_nodes(form: LatentForm, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """The latent-first sampler's nodes: shares ``c_k``, ``(K,)``, and coordinates, ``(K, r)``.

    The nodes are those of the stretched ``rule``, the marginal's own rule,
    that `_node_batches` keeps and whose share is positive, in the grid's C
    order (the first latent dimension most significant); the shares are
    normalized over the kept nodes.  With no table to measure, the sampler
    checks normalizers: it raises `QuadratureResolutionError` when the node
    total under that rule is off the one under the ``(3m + 1) // 2``-node
    reference of `_rule_pair` by more than ``MASS_TOL``, and `ValueError`
    when either normalizer is not finite, since the node weights overflow
    the float range.  It raises `RankLimitError` above rank 3.
    """
    _check_tensor_rank(form.r)
    (nodes, log_weights), fine = _rule_pair(rule)
    batches = _node_batches(form.delta, form.loadings, nodes, log_weights)
    index, log_c = map(np.concatenate, zip(*[(i, c) for i, c, _ in batches]))
    order = np.argsort(index)
    index, log_c = index[order], log_c[order]
    log_norm = _log_sum_exp(log_c)
    batches = _node_batches(form.delta, form.loadings, *fine)
    log_fine = np.logaddexp.reduce([_log_sum_exp(log_c) for _, log_c, _ in batches])
    # A NaN fails every comparison, so test finiteness itself.
    if not np.isfinite([log_norm, log_fine]).all():
        raise ValueError("quadrature node weights are not finite: they overflow the float range")
    mass = np.exp(log_norm - log_fine)
    if abs(mass - 1.0) > MASS_TOL:
        raise QuadratureResolutionError(
            f"quadrature marginal mass {float(mass)!r} deviates from 1 by more than "
            f"{MASS_TOL:g}; refine the rule (more nodes)"
        )
    # The padding of ragged boxes, at log_c = -inf, goes with the shares that are zero.
    shares = np.exp(log_c - log_norm)
    kept = np.flatnonzero(shares)
    digits = index[kept, None] // nodes.size ** np.arange(form.r - 1, -1, -1) % nodes.size
    return shares[kept], nodes[digits]
