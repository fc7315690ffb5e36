"""Samplers for the three representations, plus CSV serialization of draws.

Every sampler takes an integer seed and is fully reproducible: the same seed
always yields the same draws, independent of machine parallelism.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._enum import (
    BLOCK_WIDTH,
    ENUMERATION_LIMIT,
    check_enumerable,
    config_text,
    decode_configs,
    encode_configs,
    linear_table,
)
from .collider import ColliderForm, conditioned_pmf
from .core import ModelSpec, Pmf, freeze_array
from .errors import ConditioningTooSevereError
from .latent import LatentForm, QuadratureRule, _item_conditional, latent_first_nodes

# The `method` that each sampler's draws carry, in the order the CLI lists them.
METHODS = ("exact", "gibbs", "collider-rejection", "latent-first")

# The budget of the two samplers whose work the draw count does not bound.
# Most proposals one rejection run may make, plus the rest of its last batch.
# Spending it all took 4.6-5.6 s at n = 10 and 11-13 s at n = 23 on a 2-CPU
# machine.  Up to the enumeration limit a run expected to need more is refused
# before drawing; at any n, a run that has spent it short of its draws stops.
# Most site updates one Gibbs chain may make, burn-in and thinning included;
# a run that needs more is refused before its first sweep.  At about 2.6 us
# per site update of 64 chains (n = 10), a run at the cap takes 6 minutes.
MAX_PROPOSALS = 1 << 27

# Independent Gibbs chains scanned together as the columns of one array.
GIBBS_CHAINS = 64

# Random numbers each sampler draws and works on together: Gibbs's sweeps x
# sites x chains, rejection's proposals x (two per cause block + one),
# latent-first's rows x items.  Bounds each one's working block at 2 MiB of
# floats whatever the model's width, the draw count or the acceptance rate.
_UNIFORM_BLOCK = 1 << 18

# Largest split-R-hat of Gibbs chains that passes without a warning.
_RHAT_WARN = 1.01


@dataclass(frozen=True)
class SampleSet:
    """Draws as an ``(m, n)`` matrix of ``+/-1`` int8 values, with provenance.

    The provenance is what `load_sample_set` takes back: an integer ``seed``
    (a numpy integer is stored as a Python ``int``; a bool or a float is
    refused), a ``method`` of ``METHODS`` and a dict ``meta``, stored as its
    JSON sidecar reads back: numpy scalars as the Python numbers they hold,
    tuples as lists.  Any other, or a ``meta`` that JSON cannot write, raises
    `ValueError`, so every record saves and loads back equal.
    """

    draws: np.ndarray
    seed: int
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Checked before the cast, which would truncate 1.5 to 1.  Integer
        # draws would otherwise be looked up in a table of intp, 8 bytes each.
        if not np.isin(self.draws, (-1, 1), kind="sort").all():
            raise ValueError("draws must contain only +1 and -1")
        if freeze_array(self, "draws", 2, dtype=np.int8).shape[0] < 1:
            raise ValueError("a sample set must contain at least one draw")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not isinstance(self.meta, dict):
            raise ValueError(f"meta must be a dict, got {self.meta!r}")
        try:
            text = json.dumps(self.meta, default=_json_scalar)
        except TypeError as exc:
            raise ValueError(f"meta must hold JSON data: {exc}") from None
        object.__setattr__(self, "meta", json.loads(text))

    @property
    def m(self) -> int:
        return self.draws.shape[0]

    @property
    def n(self) -> int:
        return self.draws.shape[1]


def _json_scalar(value):
    """A numpy scalar as the Python value it holds, for `json.dumps`, which refuses the rest."""
    return value.item() if isinstance(value, np.generic) else json.JSONEncoder().default(value)


def _require_positive_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"sample count must be at least 1, got {m}")


def empirical_frequencies(sample: SampleSet) -> np.ndarray:
    """Relative frequency of each configuration index in a sample (``n <= 20``)."""
    check_enumerable(sample.n)
    return np.bincount(encode_configs(sample.draws), minlength=1 << sample.n) / sample.m


def sample_exact(pmf: Pmf, m: int, seed: int) -> SampleSet:
    """Independent draws from an enumerated table by inverse-CDF lookup."""
    _require_positive_m(m)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(pmf.probs)
    idx = np.minimum(np.searchsorted(cdf, rng.random(m), side="right"), (1 << pmf.n) - 1)
    return SampleSet(draws=decode_configs(idx, pmf.n), seed=seed, method="exact")


def sample_gibbs(
    spec: ModelSpec,
    m: int,
    seed: int,
    *,
    burn_in: int = 1000,
    thin: int = 1,
) -> SampleSet:
    """Systematic-scan Gibbs sampling of the pairwise model, many chains at once.

    ``k = min(GIBBS_CHAINS, m)`` independent chains start from uniformly random
    configurations.  Each sweep resamples sites ``0..n-1`` in order from their
    exact conditionals ``p(x_i = +1 | rest) = logistic(2 (delta_i + sigma_i . x))``,
    one update covering every chain.  Each chain discards its first ``burn_in``
    sweeps, then records every ``thin``-th sweep until it holds
    ``ceil(m / k)`` draws.  The draws are chain-major (chain 0's draws in
    order, then chain 1's, ...) and truncated to ``m`` rows.

    ``meta`` holds ``burn_in``, ``thin``, ``chains`` (``k``) and two
    convergence diagnostics over every recorded draw: ``rhat_max``, the
    largest split-R-hat over sites, and ``ess_min``, the smallest bulk
    effective sample size over sites (see `_chain_diagnostics`).  Either is
    ``None`` where no site has within-chain variation to measure, or where
    the chains hold fewer than eight draws each; ``rhat_max`` is infinite
    where a site is constant within each chain but differs between chains.
    A ``rhat_max`` above 1.01 raises a `UserWarning`: the chains have not
    mixed, and the draws may not follow the model.

    One budget bounds the work: a chain makes
    ``(burn_in + ceil(m / k) * thin) * max(n, 1)`` site updates, counted in
    Python integers, and a run that needs more than ``MAX_PROPOSALS`` raises
    `ValueError` before its first sweep.
    """
    _require_positive_m(m)
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if thin < 1:
        raise ValueError(f"thin must be at least 1, got {thin}")
    n, k = spec.n, min(GIBBS_CHAINS, m)
    per_chain = -(-m // k)
    rng = np.random.default_rng(seed)
    sigma = spec.sigma
    # With b = (x + 1) / 2 in {0, 1}, the event u < logistic(2 (delta_i + sigma_i . x))
    # is sigma_i . b > t = (atanh(2u - 1) + sum_j sigma_ij - delta_i) / 2.
    offset = (sigma.sum(axis=1) - spec.delta)[:, None]
    b = rng.integers(0, 2, (n, k)).astype(np.float64)
    rows, b_rows = list(sigma), list(b)
    recorded = np.empty((per_chain, n, k), dtype=np.int8)
    total_sweeps = operator.index(burn_in) + operator.index(per_chain) * operator.index(thin)
    if total_sweeps * max(n, 1) > MAX_PROPOSALS:
        raise ValueError(
            f"a Gibbs chain of {total_sweeps} sweeps over {n} sites needs "
            f"{total_sweeps * max(n, 1)} site updates, more than the budget of {MAX_PROPOSALS}"
        )
    # Blocks of whole sweeps draw the same stream as one (total_sweeps, n, k) call.
    block = max(1, _UNIFORM_BLOCK // max(n * k, 1))
    for lo in range(0, total_sweeps, block):
        t = rng.random((min(block, total_sweeps - lo), n, k))
        t *= 2.0
        t -= 1.0
        np.arctanh(t, out=t)
        t += offset
        t *= 0.5
        for sweep, t_sweep in enumerate(t, lo + 1 - burn_in):
            for row, b_i, t_i in zip(rows, b_rows, t_sweep):
                # ndarray.dot, not @: the same product without the matmul
                # ufunc's dispatch, which costs more than the product here.
                b_i[...] = row.dot(b) > t_i
            if sweep >= 1 and sweep % thin == 0:
                recorded[sweep // thin - 1] = b
    chains = 2 * recorded.transpose(2, 0, 1) - 1  # (k, per_chain, n)
    diagnostics = _chain_diagnostics(chains)
    rhat = diagnostics["rhat_max"]
    if rhat is not None and rhat > _RHAT_WARN:
        warnings.warn(
            f"Gibbs chains have not mixed: split R-hat {rhat:.4g} exceeds {_RHAT_WARN}, "
            f"so the draws may not follow the model",
            stacklevel=2,
        )
    return SampleSet(
        draws=chains.reshape(k * per_chain, n)[:m],
        seed=seed,
        method="gibbs",
        meta={"burn_in": burn_in, "thin": thin, "chains": k, **diagnostics},
    )


def _chain_diagnostics(chains: np.ndarray) -> dict:
    """Largest split-R-hat and smallest bulk ESS over sites of ``(k, draws, n)`` chains.

    Each chain is split into its first and last ``draws // 2`` draws, giving
    ``M = 2k`` halves of ``N`` draws (Vehtari et al. 2021).  With ``W`` the mean
    within-half variance and ``var+ = (N - 1) / N W + var(half means)``,
    split-R-hat is ``sqrt(var+ / W)``.  The ESS is ``M N / tau`` with
    ``tau = -1 + 2 sum_j P_j``, where ``P_j = rho_2j + rho_2j+1``,
    ``rho_0 = 1``, ``rho_t = 1 - (W - mean autocovariance at lag t) / var+``,
    and the sum runs over Geyer's (1992) initial monotone sequence: each
    ``P_j`` lowered to the smallest before it, stopping at the first that is
    not positive.  Rank-normalizing a two-valued site is an affine map, so
    these are also the rank-normalized (bulk) values.  Sites with ``W = 0``
    are skipped, except that one whose half means differ never mixed and
    makes R-hat infinite.  Otherwise both values are ``None`` when no site is
    left, or when the halves hold fewer than four draws (two lag pairs).
    """
    half = chains.shape[1] // 2
    if half < 4:
        return {"rhat_max": None, "ess_min": None}
    halves = np.concatenate([chains[:, :half], chains[:, -half:]])
    means = halves.mean(axis=1)
    # Draws are +/-1, so a half's squared deviations sum to N (1 - mean^2),
    # which is exactly 0 for a constant half.
    w = half / (half - 1) * (1.0 - means**2).mean(axis=0)
    live = w > 0.0
    frozen_apart = (~live & (means.min(axis=0) < means.max(axis=0))).any()
    if not live.any():
        return {"rhat_max": np.inf if frozen_apart else None, "ess_min": None}
    y = halves[:, :, live] - means[:, None, live]
    w = w[live]
    var_plus = (half - 1) / half * w + means[:, live].var(axis=0, ddof=1)

    def rho(lag: int) -> np.ndarray:
        acov = np.einsum("mtn,mtn->n", y[:, : half - lag], y[:, lag:]) / (len(y) * half)
        return 1.0 - (w - acov) / var_plus

    pair_sum = np.zeros_like(w)
    pair = np.full_like(w, np.inf)
    for lag in range(0, half - 1, 2):
        pair = np.minimum(pair, (1.0 if lag == 0 else rho(lag)) + rho(lag + 1))
        positive = pair > 0.0
        if not positive.any():
            break
        pair_sum += np.where(positive, pair, 0.0)
    ess = len(y) * half / (2.0 * pair_sum - 1.0)
    rhat = np.inf if frozen_apart else float(np.sqrt(var_plus / w).max())
    return {"rhat_max": rhat, "ess_min": float(ess.min())}


def _alias_table(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of the distribution proportional to ``exp(log_w)``.

    An entry ``j`` drawn uniformly from the ``K`` is kept with probability
    ``prob[j]`` and otherwise replaced by ``alias[j]``.  That draws ``k``
    with probability ``(prob[k] + sum of 1 - prob[j] over alias[j] = k) / K``.
    Built by Vose's (1991) construction on the weights scaled to mean 1: each
    entry below 1 takes its remainder from one at least 1, which goes back to
    a list with ``(p_l + p_s) - 1``.  Entries left once either list is empty
    are 1 up to rounding and keep themselves.
    """
    w = np.exp(log_w - log_w.max())
    scaled = (w * (w.size / w.sum())).tolist()
    prob, alias = [1.0] * w.size, list(range(w.size))
    small = [k for k, p in enumerate(scaled) if p < 1.0]
    large = [k for k, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s, big = small.pop(), large.pop()
        prob[s], alias[s] = scaled[s], big
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        (small if scaled[big] < 1.0 else large).append(big)
    return np.array(prob), np.array(alias)


def sample_collider_rejection(cf: ColliderForm, m: int, seed: int) -> SampleSet:
    """Draws from the conditioned collider by rejection.

    Causes are proposed from their independent marginals and kept with
    probability equal to the product of effect acceptances, which is exactly
    the conditioning event's likelihood.  A block of ``b <= BLOCK_WIDTH``
    causes is one categorical variable over its ``2**b`` configurations, with
    probabilities ``exp(x . delta)`` normalized (the product of the causes'
    marginals), and one alias lookup (`_alias_table`) draws it: an integer
    below ``2**b``, then a uniform that keeps it or takes its alias.  Each
    block tabulates its causes' part of the effect scores ``q_r . x`` for its
    ``2**b`` configurations; a proposal's scores are the sum of its blocks'
    entries, and only kept proposals are decoded to ``+/-1``.

    Proposals come in fixed batches of ``_UNIFORM_BLOCK // (2 blocks + 1)``
    rows: each block's integers and uniforms in turn, then one acceptance
    uniform per row.  So the draws for ``m`` are the first ``m`` draws for
    any larger count and the same seed.

    One budget bounds the work: a run makes at most ``MAX_PROPOSALS``
    proposals, plus the rest of its last batch, and raises
    `ConditioningTooSevereError` once it has spent them with fewer than ``m``
    draws kept.  Up to the enumeration limit the acceptance rate is known
    before drawing, ``exp(conditioned_pmf(cf).log_z)``: ``meta`` records it as
    ``predicted_acceptance``, and a run expected to need more than the budget,
    ``m / rate`` proposals, is refused before any proposal.  Above it (n > 20)
    ``predicted_acceptance`` is None.
    """
    _require_positive_m(m)
    n = cf.n
    predicted = None
    if n <= ENUMERATION_LIMIT:
        predicted = float(np.exp(conditioned_pmf(cf).log_z))
        expected = m / predicted if predicted > 0.0 else np.inf
        if expected > MAX_PROPOSALS:
            raise ConditioningTooSevereError(
                f"{m} draws at the predicted acceptance rate {predicted:.2e} need about "
                f"{expected:.2e} proposals, more than the budget of {MAX_PROPOSALS}; "
                f"conditioning is too severe for rejection sampling"
            )
    rng = np.random.default_rng(seed)
    blocks = []
    # A form without causes is one block of none, whose one configuration is kept.
    for lo in range(0, max(n, 1), BLOCK_WIDTH):
        part = slice(lo, lo + BLOCK_WIDTH)
        prob, alias = _alias_table(linear_table(cf.delta[part]))
        jump = alias - np.arange(alias.size)
        # Effect-major (r, 2**b) scores: summing r rows of a batch is fast,
        # summing r columns is not.
        scores_t = linear_table(cf.dirs[part]).T.copy()
        blocks.append((cf.delta[part].size, prob, jump, scores_t))
    rows = max(1, _UNIFORM_BLOCK // (2 * len(blocks) + 1))
    half_lams, log_sup = 0.5 * cf.lams[:, None], cf.log_sups.sum()
    kept: list[np.ndarray] = []
    n_acc = n_prop = 0
    while n_acc < m:
        picks, scores = [], 0.0
        for width, prob, jump, scores_t in blocks:
            j = rng.integers(0, 1 << width, rows)
            # j + jump[j] is alias[j]; adding the jump only where the uniform
            # rejects j avoids a select on a random mask.
            step = jump.take(j)
            step *= rng.random(rows) >= prob.take(j)
            j += step
            scores = scores + scores_t.take(j, axis=1)
            picks.append(j)
        scores *= scores
        scores *= half_lams
        log_acc = scores.sum(axis=0)
        log_acc -= log_sup
        keep = rng.random(rows) < np.exp(log_acc)
        configs = [decode_configs(j[keep], width) for j, (width, *_) in zip(picks, blocks)]
        kept.append(np.concatenate(configs, axis=1))
        n_acc += len(kept[-1])
        n_prop += rows
        if n_acc < m and n_prop >= MAX_PROPOSALS:
            raise ConditioningTooSevereError(
                f"{n_acc} of {m} draws kept after {n_prop} proposals, the budget of "
                f"{MAX_PROPOSALS}; conditioning is too severe for rejection sampling"
            )
    return SampleSet(
        draws=np.concatenate(kept, axis=0)[:m],
        seed=seed,
        method="collider-rejection",
        meta={
            "proposals": n_prop,
            "accepted": n_acc,
            "rejected": n_prop - n_acc,
            "acceptance_rate": n_acc / n_prop,
            "predicted_acceptance": predicted,
        },
    )


def sample_latent_first(lf: LatentForm, rule: QuadratureRule, m: int, seed: int) -> SampleSet:
    """Draw the latent vector first, then the items, for a latent form of rank at most 3.

    Each draw picks a tensor node ``theta_k`` of the stretched ``rule``
    (``QuadratureRule()`` is the 64-node one), the marginal's own rule, with
    the share ``c_k`` that the latent marginal gives it, then draws the items
    as independent coins ``p(x_i = +1) = logistic(2 (delta_i + a_i . theta_k))``.
    The draws thus follow the node mixture that `mirt_marginal_pmf`
    tabulates.  The shares and their check come from `latent_first_nodes`,
    which raises `RankLimitError` above rank 3,
    `QuadratureResolutionError` when the rule does not resolve the model and
    `ValueError` when its node weights overflow the float range.
    All ``m`` node uniforms come first, then the item uniforms in row order,
    drawn and used in blocks of ``_UNIFORM_BLOCK // n`` rows; so the draws do
    not depend on the block size.
    """
    _require_positive_m(m)
    shares, theta = latent_first_nodes(lf, rule)
    cdf = np.cumsum(shares)
    rng = np.random.default_rng(seed)
    k = np.minimum(np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right"), cdf.size - 1)
    draws = np.empty((m, lf.n), dtype=np.int8)
    rows = max(1, _UNIFORM_BLOCK // max(lf.n, 1))
    for lo in range(0, m, rows):
        p_plus = _item_conditional(lf.delta + theta[k[lo : lo + rows]] @ lf.loadings.T, 1.0)
        draws[lo : lo + rows] = np.where(rng.random(p_plus.shape) < p_plus, 1, -1)
    draws.setflags(write=False)
    meta = {"quad_nodes": rule.node_count}
    return SampleSet(draws=draws, seed=seed, method="latent-first", meta=meta)


def sidecar_path(csv_path) -> Path:
    """Path of the JSON sidecar accompanying a sample CSV."""
    return Path(csv_path).with_suffix(".meta.json")


def save_sample_set(sample: SampleSet, csv_path) -> None:
    """Write draws as CSV (columns ``x_1..x_n``) plus a JSON metadata sidecar.

    Raises `ValueError`, writing nothing, for draws of no variables: their
    rows would be blank lines, which no reader takes back.  The sidecar is
    serialized before either file is written.
    """
    if sample.n == 0:
        raise ValueError("a sample set of no variables has no CSV columns to write")
    side = {"method": sample.method, "seed": sample.seed, "m": sample.m, "n": sample.n,
            "meta": sample.meta}
    side_text = json.dumps(side, indent=2) + "\n"
    csv_path = Path(csv_path)
    header = ",".join(f"x_{i + 1}" for i in range(sample.n))
    # Each block of columns indexes into the text of its configurations.
    rows = None
    for start in range(0, sample.n, BLOCK_WIDTH):
        block = sample.draws[:, start : start + BLOCK_WIDTH]
        text = np.array(config_text(block.shape[1], ","), dtype=object)
        cells = text[encode_configs(block)]
        rows = cells if rows is None else rows + "," + cells
    csv_path.write_text("\n".join([header, *rows.tolist()]) + "\n", encoding="utf-8")
    sidecar_path(csv_path).write_text(side_text, encoding="utf-8")


def read_csv_table(path, dtype) -> tuple[list[str], np.ndarray]:
    """The stripped header cells and the cells, parsed as ``dtype``, of a CSV file.

    Raises `ValueError` on an empty file, no rows after the header, a
    malformed row (blank, ragged, or with a cell that does not parse, ``#``
    too), or rows not as wide as the header.

    Draws of a few variables repeat lines, so only the distinct lines are
    parsed, in first-seen order, and the table indexes back into them.
    Identical lines parse identically, so every line is still checked.
    Where that parse fails, all lines are parsed again, so that the error
    counts the file's own rows.  A file without a repeated line pays only
    for the pass that finds none.
    """
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"data file {path} is empty")
    lines = text.split("\n")
    if len(lines) < 2:
        raise ValueError(f"data file {path} contains no rows")
    body = lines[1:]
    index = dict.fromkeys(body)
    try:
        if "" in index:
            raise ValueError("blank line")
        try:
            table = _parse_lines(list(index), dtype)
        except ValueError:
            _parse_lines(body, dtype)  # raises with the row number the file gives
            raise
        if len(index) < len(body):
            position = dict(zip(index, range(len(index))))
            rows_at = np.fromiter(map(position.__getitem__, body), np.intp, len(body))
            table = table.take(rows_at, axis=0)
    except ValueError as exc:
        raise ValueError(f"data file {path} has a malformed row: {exc}") from exc
    header = [h.strip() for h in lines[0].split(",")]
    if table.shape[1] != len(header):
        raise ValueError(f"data file {path} rows do not match its header of {len(header)} columns")
    return header, table


def _parse_lines(lines: list[str], dtype) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=2)


def load_sample_set(csv_path) -> SampleSet:
    """Read a sample CSV and its sidecar back into a `SampleSet`: the sidecar must name
    the ``seed`` and ``method``, which the record checks, and the draws must have any
    ``m`` and ``n`` it records.  The CSV is read by `read_csv_table`, so it is refused
    when it holds no rows, a malformed row, or rows not as wide as its header."""
    side_path = sidecar_path(csv_path)
    if not side_path.exists():
        raise ValueError(f"missing sample metadata sidecar {side_path}")
    side = json.loads(side_path.read_text(encoding="utf-8"))
    for key in ("seed", "method"):
        if not isinstance(side, dict) or key not in side:
            raise ValueError(f"sample metadata sidecar {side_path} has no {key!r} field")
    # Not isinstance, which takes a JSON true for an int; nor int(), which
    # would truncate 1.5 and parse "7".
    for k in ("m", "n"):
        if k in side and type(side[k]) is not int:
            raise ValueError(f"sample metadata sidecar {side_path} has a non-integer {k!r} field")
    draws = read_csv_table(csv_path, np.int8)[1]
    if draws.shape != (side.get("m", draws.shape[0]), side.get("n", draws.shape[1])):
        raise ValueError(
            f"data file {csv_path} holds {draws.shape[0]} x {draws.shape[1]} draws, but "
            f"its sidecar records {side.get('m')} x {side.get('n')}"
        )
    try:
        return SampleSet(
            draws=draws, seed=side["seed"], method=side["method"], meta=side.get("meta", {}),
        )
    except ValueError as exc:
        raise ValueError(f"data file {csv_path} with sidecar {side_path}: {exc}") from None
