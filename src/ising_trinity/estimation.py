"""Pseudo-likelihood estimation of the network form from ``+/-1`` data.

The pseudo-log-likelihood of a weighted configuration table is

    sum_m w_m sum_i log logistic(2 x_mi (delta_i + sum_{j != i} sigma_ij x_mj))

with weights summing to one (equal weights for raw samples, probabilities for
a population table).  The objective is concave in ``(delta, sigma)``, so
damped Newton steps with a backtracking line search converge to its maximizer.
Every objective runs over the distinct configurations of the data, each with
the summed weight of its copies: the same objective on at most ``2**n`` rows.
`_distinct_configs` is the one reader of every data form.  A sample's int8
draws are merged on their signs before any float copy, so only the distinct
rows become float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._enum import decode_configs
from .core import ModelSpec, Pmf, freeze_array
from .errors import DimensionMismatchError, LineSearchError
from .sampling import SampleSet
from .specfile import model_spec_to_dict

# The backtracking (Armijo) line search: each iteration's first step, the
# halvings it may take before giving up, and the sufficient-increase constant.
INITIAL_STEP = 1.0
MAX_HALVINGS = 60
ARMIJO_C = 1e-4
# Newton steps up to n = 64; wider data takes gradient steps, not a GB Hessian.
NEWTON_MAX_PARAMS = 2080


@dataclass(frozen=True)
class FitResult:
    """Estimate plus its trajectory: the objective at the start and after each accepted
    step, which count the ``iterations``; ``newton_decrement`` is None without a Hessian."""

    spec_hat: ModelSpec
    objective_trace: np.ndarray
    grad_norm_final: float
    newton_decrement: float | None
    converged: bool

    def __post_init__(self) -> None:
        freeze_array(self, "objective_trace", 1)

    @property
    def iterations(self) -> int:
        return self.objective_trace.shape[0] - 1

    def to_dict(self) -> dict:
        return {
            **model_spec_to_dict(self.spec_hat),
            "converged": self.converged,
            "iterations": self.iterations,
            "grad_norm_final": self.grad_norm_final,
            "newton_decrement": self.newton_decrement,
            "objective_trace": self.objective_trace.tolist(),
        }


def _distinct_configs(data, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Any accepted data form as its distinct float rows and their weights, summing to 1.

    Accepts a `SampleSet`, an enumerated table (`Pmf`), a raw ``(m, n)``
    matrix of ``+/-1`` rows, or an explicit ``(configs, weights)`` pair;
    rows weigh equally unless weights are given.  A sample's int8 draws and
    a table's decoded configurations are merged as they are, and only the
    distinct rows become float64; the other forms are read as float64 first.
    Rows are keyed by their packed sign bytes, so any width works, and
    sorted by them, first byte first (stably, so each group's first row is
    its first occurrence); a group starts where a row differs from the one
    before it, and its weight is the sum of its rows'.  ``n``, when given,
    is the width the data must have.
    """
    weights = None
    if isinstance(data, SampleSet):
        configs = data.draws
    elif isinstance(data, Pmf):
        configs = decode_configs(np.arange(1 << data.n), data.n)
        weights = data.probs
    elif isinstance(data, tuple) and len(data) == 2:
        configs = np.asarray(data[0], dtype=np.float64)
        weights = np.asarray(data[1], dtype=np.float64)
    else:
        configs = np.asarray(data, dtype=np.float64)

    if configs.ndim != 2 or configs.shape[0] == 0 or configs.shape[1] == 0:
        raise ValueError(f"data must be a non-empty matrix, got shape {configs.shape}")
    if not np.all(np.abs(configs) == 1):
        raise ValueError("data entries must be exactly +1 or -1")
    if weights is None:
        weights = np.full(configs.shape[0], 1.0 / configs.shape[0])
    else:
        if weights.shape != (configs.shape[0],):
            raise DimensionMismatchError(
                f"weights have shape {weights.shape}, expected ({configs.shape[0]},)"
            )
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        weights = weights / total
    if n is not None and configs.shape[1] != n:
        raise DimensionMismatchError(f"data has {configs.shape[1]} columns, expected {n}")
    packed = np.packbits(configs > 0, axis=1)
    order = np.lexsort(packed.T[::-1])
    ranked = packed[order]
    starts = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return configs[order[starts]].astype(np.float64), np.bincount(inverse, weights=weights)


def _pack(delta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return np.concatenate((delta, sigma[np.triu_indices(delta.shape[0], k=1)]))


def _unpack(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    sigma = np.zeros((n, n))
    sigma[np.triu_indices(n, k=1)] = vec[n:]
    sigma += sigma.T
    return vec[:n], sigma


def _objective_and_grad(
    vec: np.ndarray, configs: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    n = configs.shape[1]
    delta, sigma = _unpack(vec, n)
    fields = configs @ sigma + delta
    margins = 2.0 * configs * fields
    value = -float(weights @ np.logaddexp(0.0, -margins).sum(axis=1))
    resid = configs - np.tanh(fields)
    grad_delta = weights @ resid
    cross = resid.T @ (configs * weights[:, None])
    cross += cross.T
    return value, _pack(grad_delta, cross)


def _neg_hessian(vec: np.ndarray, configs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Minus the Hessian: one Gram block per site ``i`` (weights ``w sech^2(f_i)``,
    ``configs`` with column ``i`` set to the intercept), scattered into ``P x P``
    by each column's parameter index."""
    n, size = configs.shape[1], vec.shape[0]
    delta, sigma = _unpack(vec, n)
    decay = np.exp(-2.0 * np.abs(configs @ sigma + delta))
    site_weights = weights[:, None] * 4.0 * decay / (1.0 + decay) ** 2
    delta_at, sigma_at = _unpack(np.arange(size, dtype=np.float64), n)
    index = (sigma_at + np.diag(delta_at)).astype(np.intp)
    blocks = np.empty((n, n, n))
    for i in range(n):
        design = np.where(np.arange(n) == i, 1.0, configs)
        blocks[i] = (design * site_weights[:, i, None]).T @ design
    cells = (index[:, :, None] * size + index[:, None, :]).ravel()
    return np.bincount(cells, blocks.ravel(), size * size).reshape(size, size)


def _direction(
    vec: np.ndarray, grad: np.ndarray, configs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float | None]:
    """Newton direction ``H^-1 g`` and decrement ``sqrt(g^T H^-1 g)``, else ``(g, None)``."""
    if vec.shape[0] > NEWTON_MAX_PARAMS:
        return grad, None
    try:
        chol = np.linalg.cholesky(_neg_hessian(vec, configs, weights))
    except np.linalg.LinAlgError:
        return grad, None
    half = np.linalg.solve(chol, grad)
    return np.linalg.solve(chol.T, half), float(np.linalg.norm(half))


def pseudo_loglik(spec: ModelSpec, data) -> float:
    """Weighted pseudo-log-likelihood of the data under ``spec``."""
    vec = _pack(spec.delta, spec.sigma)
    return _objective_and_grad(vec, *_distinct_configs(data, spec.n))[0]


def pseudo_loglik_grad(spec: ModelSpec, data) -> np.ndarray:
    """Gradient of the pseudo-log-likelihood over ``(delta, upper-triangle sigma)``.

    Packed as ``delta`` first, then ``sigma[i][j]`` for ``i < j`` in row-major
    order.
    """
    vec = _pack(spec.delta, spec.sigma)
    return _objective_and_grad(vec, *_distinct_configs(data, spec.n))[1]


def fit_pseudo_likelihood(
    data,
    init: ModelSpec | None = None,
    *,
    grad_tol: float = 1e-6,
    max_iter: int = 5000,
) -> FitResult:
    """Maximize the pseudo-log-likelihood by damped Newton steps.

    Each iteration moves along ``d = H^-1 g`` (``H`` the negative Hessian), or
    along ``d = g`` past ``NEWTON_MAX_PARAMS`` parameters or where ``H`` has no
    Cholesky factor (singular data, underflowed weights).  The step starts at
    ``INITIAL_STEP`` and halves until the Armijo condition ``f(new) >= f(old) +
    ARMIJO_C * step * g^T d`` holds.  Where no step of ``MAX_HALVINGS`` halvings
    or fewer does, a Newton iteration searches along ``d = g`` instead (``H``
    may be numerically singular yet factor), and only a gradient search that
    fails too raises `LineSearchError`.  Stops when the gradient norm drops
    below ``grad_tol`` (finite and positive) or after ``max_iter`` (at least 0)
    accepted steps, whichever comes first.
    """
    if not (np.isfinite(grad_tol) and grad_tol > 0.0):
        raise ValueError(f"grad_tol must be finite and positive, got {grad_tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")
    configs, weights = _distinct_configs(data)
    n = configs.shape[1]
    if init is None:
        init = ModelSpec(delta=np.zeros(n), sigma=np.zeros((n, n)))
    elif init.n != n:
        raise DimensionMismatchError(f"initial spec has n = {init.n}, data has {n} columns")
    vec = _pack(init.delta, init.sigma)

    value, grad = _objective_and_grad(vec, configs, weights)
    trace = [value]
    grad_norm = float(np.linalg.norm(grad))
    direction, decrement = _direction(vec, grad, configs, weights)

    def armijo(d: np.ndarray) -> tuple[np.ndarray, float, np.ndarray] | None:
        """The first point along ``d`` from ``vec`` that meets the Armijo condition, or None."""
        step = INITIAL_STEP
        slope = ARMIJO_C * float(grad @ d)
        for _ in range(MAX_HALVINGS + 1):
            candidate = vec + step * d
            cand_value, cand_grad = _objective_and_grad(candidate, configs, weights)
            if np.isfinite(cand_value) and cand_value >= value + step * slope:
                return candidate, cand_value, cand_grad
            step *= 0.5
        return None

    while grad_norm >= grad_tol and len(trace) - 1 < max_iter:
        # A numerically singular Hessian may factor, yet its Newton direction
        # finds no increase; the gradient then still does.
        found = armijo(direction)
        if found is None and decrement is not None:
            found = armijo(grad)
        if found is None:
            raise LineSearchError(
                f"no acceptable step after {MAX_HALVINGS} halvings (gradient norm {grad_norm:.3e})"
            )
        vec, value, grad = found
        grad_norm = float(np.linalg.norm(grad))
        direction, decrement = _direction(vec, grad, configs, weights)
        trace.append(value)

    delta, sigma = _unpack(vec, n)
    return FitResult(
        spec_hat=ModelSpec(delta=delta, sigma=sigma),
        objective_trace=np.array(trace),
        grad_norm_final=grad_norm,
        newton_decrement=decrement,
        converged=bool(grad_norm < grad_tol),
    )
