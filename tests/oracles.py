"""Brute-force oracles written in plain Python, independent of the package.

Everything here enumerates configurations with explicit loops and scalar math
so that agreement with the package's vectorized, log-space code is meaningful.
Index order matches the package convention: bit ``i`` of the index gives the
sign of ``x_i``.  The exceptions are `rejection_draws`, which builds its
alias tables in scalar code (`cause_block_alias`) but must replay numpy's
random stream and so draws and scores with numpy, and `gibbs_draws`, which
draws that stream with numpy and then updates in scalar loops.
"""

import itertools
import json
import math

import numpy as np


def all_configs(n):
    return [
        tuple(1 if (k >> i) & 1 else -1 for i in range(n)) for k in range(2**n)
    ]


def ising_log_weight(delta, sigma, x):
    """Log weight x.delta + sum_{i<j} x_i x_j sigma_ij of one configuration."""
    n = len(delta)
    w = sum(x[i] * delta[i] for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            w += x[i] * x[j] * sigma[i][j]
    return w


def ising_table(delta, sigma):
    weights = [math.exp(ising_log_weight(delta, sigma, x)) for x in all_configs(len(delta))]
    z = sum(weights)
    return [w / z for w in weights]


def curie_weiss_table(delta):
    n = len(delta)
    weights = []
    for x in all_configs(n):
        s = sum(x)
        weights.append(math.exp(sum(x[i] * delta[i] for i in range(n)) + 0.5 * s * s))
    z = sum(weights)
    return [w / z for w in weights]


def spectral_log_weight(delta, lambdas, q_columns, x):
    """Log weight x.delta + sum_r lambda_r (q_r . x)^2 / 2 of one configuration."""
    n = len(delta)
    w = sum(x[i] * delta[i] for i in range(n))
    for lam, q in zip(lambdas, q_columns):
        score = sum(q[i] * x[i] for i in range(n))
        w += 0.5 * lam * score * score
    return w


def spectral_table(delta, lambdas, q_columns):
    """Table of the model with weight x.delta + sum_r lambda_r (q_r . x)^2 / 2."""
    weights = [
        math.exp(spectral_log_weight(delta, lambdas, q_columns, x))
        for x in all_configs(len(delta))
    ]
    z = sum(weights)
    return [w / z for w in weights]


def cause_table(delta):
    n = len(delta)
    weights = [
        math.exp(sum(x[i] * delta[i] for i in range(n))) for x in all_configs(n)
    ]
    z = sum(weights)
    return [w / z for w in weights]


def effect_sup_by_scan(lam, q):
    """Largest acceptance exponent, found by scanning every configuration."""
    n = len(q)
    return max(
        0.5 * lam * sum(q[i] * x[i] for i in range(n)) ** 2 for x in all_configs(n)
    )


def collider_log_joint(delta, effects, sups, x):
    """Log probability of causes ``x`` and every effect present.

    The cause marginal x.delta - sum_i log 2cosh delta_i plus each effect's
    log acceptance lam (q . x)^2 / 2 - sup; ``effects`` is a list of (lam, q)
    and ``sups`` their largest exponents.
    """
    n = len(delta)
    w = sum(x[i] * delta[i] - math.log(2.0 * math.cosh(delta[i])) for i in range(n))
    for (lam, q), sup in zip(effects, sups):
        score = sum(q[i] * x[i] for i in range(n))
        w += 0.5 * lam * score * score - sup
    return w


def conditioned_collider_table(delta, effects):
    """Conditioned-on-all-effects table; ``effects`` is a list of (lam, q).

    Returns ``(table, acceptance_probability)``.  The sup in each acceptance
    factor is found by brute scan, not by any closed form.
    """
    sups = [effect_sup_by_scan(lam, q) for lam, q in effects]
    joint = [
        math.exp(collider_log_joint(delta, effects, sups, x)) for x in all_configs(len(delta))
    ]
    z = sum(joint)
    return [p / z for p in joint], z


def table_moments(table, n):
    """First and second moments of a configuration table."""
    first = [0.0] * n
    second = [[0.0] * n for _ in range(n)]
    for p, x in zip(table, all_configs(n)):
        for i in range(n):
            first[i] += p * x[i]
            for j in range(n):
                second[i][j] += p * x[i] * x[j]
    return first, second


def mirt_node_log_shares(delta, loadings, nodes, weights):
    """Each tensor node of the latent marginal, one at a time, in C order.

    ``loadings`` has one row of ``r`` entries per item, and every latent
    dimension uses the one-dimensional rule ``(nodes, weights)``; the first
    dimension varies slowest.  A node ``theta`` has fields
    ``eta_i = delta_i + a_i . theta`` and weighs
    ``c = prod_d w_d * prod_i 2 cosh(eta_i)``.  Returns ``(log c, eta)`` per
    node, unnormalized.
    """
    n = len(delta)
    r = len(loadings[0]) if n else 0
    out = []
    for ks in itertools.product(range(len(nodes)), repeat=r):
        theta = [nodes[k] for k in ks]
        eta = [
            delta[i] + sum(loadings[i][d] * theta[d] for d in range(r)) for i in range(n)
        ]
        c = math.prod(weights[k] for k in ks)
        for e in eta:
            c *= 2.0 * math.cosh(e)
        out.append((math.log(c), eta))
    return out


def mirt_quadrature_table(delta, loadings, nodes, weights):
    """Tensor-product quadrature of the latent marginal, one node at a time.

    Each node of `mirt_node_log_shares` gives every configuration its weight
    ``c`` times ``prod_i logistic(2 x_i eta_i)``.  Returns the table divided
    by the total node weight, and the log of that total.
    """
    n = len(delta)
    table = [0.0] * 2**n
    total = 0.0
    for log_c, eta in mirt_node_log_shares(delta, loadings, nodes, weights):
        c = math.exp(log_c)
        total += c
        for idx, x in enumerate(all_configs(n)):
            p = c
            for i in range(n):
                p *= 1.0 / (1.0 + math.exp(-2.0 * x[i] * eta[i]))
            table[idx] += p
    return [t / total for t in table], math.log(total)


def pmf_csv_text(n, probs):
    """A probability table as CSV, each cell formatted on its own."""
    lines = [",".join([f"x_{i + 1}" for i in range(n)] + ["probability"])]
    for x, p in zip(all_configs(n), probs):
        lines.append(",".join([*(str(v) for v in x), f"{p:.17g}"]))
    return "\n".join(lines) + "\n"


def pmf_json_text(n, representation, log_z, probs):
    """A probability table as the whole document passed through ``json.dumps``.

    Each row's probability is dumped as a placeholder string, which is then
    replaced by the CSV's text of the value, ``"%.17g" % p``.
    """
    doc = {
        "n": n,
        "representation": representation,
        "log_z": log_z,
        "columns": [f"x_{i + 1}" for i in range(n)] + ["probability"],
        "rows": [list(x) + ["<p>"] for x in all_configs(n)],
    }
    head, *rest = json.dumps(doc, indent=2).split('"<p>"')
    return head + "".join("%.17g" % p + part for p, part in zip(probs, rest)) + "\n"


def sample_csv_text(draws):
    """Draws as CSV under an ``x_1..x_n`` header, each cell formatted on its own."""
    n = len(draws[0])
    lines = [",".join(f"x_{i + 1}" for i in range(n))]
    lines.extend(",".join(str(int(v)) for v in row) for row in draws)
    return "\n".join(lines) + "\n"


def pseudo_loglik_and_grad(delta, sigma, rows, weights):
    """Pseudo-log-likelihood and its gradient, one row and one site at a time.

    ``weights`` are normalized to sum to one; the gradient is packed as
    ``delta`` first, then ``sigma[i][j]`` for ``i < j`` in row-major order.
    """
    n = len(delta)
    total = sum(weights)
    value = 0.0
    g_delta = [0.0] * n
    g_sigma = [[0.0] * n for _ in range(n)]
    for x, w in zip(rows, weights):
        w /= total
        for i in range(n):
            h = delta[i] + sum(sigma[i][j] * x[j] for j in range(n) if j != i)
            t = 2.0 * x[i] * h
            # log logistic(t) without overflow
            value += w * (min(t, 0.0) - math.log1p(math.exp(-abs(t))))
            resid = w * (x[i] - math.tanh(h))
            g_delta[i] += resid
            for j in range(n):
                if j != i:
                    g_sigma[i][j] += resid * x[j]
    grad = g_delta + [
        g_sigma[i][j] + g_sigma[j][i] for i in range(n) for j in range(i + 1, n)
    ]
    return value, grad


def pseudo_loglik_hessian(delta, sigma, rows, weights):
    """Hessian of `pseudo_loglik_and_grad`'s objective, one row and one site at a time.

    Site ``i`` of row ``x`` adds ``-w sech^2(h_i) phi phi^T``, where ``phi``
    holds 1 at ``delta_i`` and ``x_j`` at each ``sigma_ij``; parameters are
    packed as in the gradient.
    """
    n = len(delta)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    slot = {pair: n + k for k, pair in enumerate(pairs)}
    size = n + len(pairs)
    total = sum(weights)
    hess = [[0.0] * size for _ in range(size)]
    for x, w in zip(rows, weights):
        for i in range(n):
            h = delta[i] + sum(sigma[i][j] * x[j] for j in range(n) if j != i)
            curvature = w / total / math.cosh(h) ** 2
            phi = {i: 1.0}
            for j in range(n):
                if j != i:
                    phi[slot[min(i, j), max(i, j)]] = x[j]
            for a, phi_a in phi.items():
                for b, phi_b in phi.items():
                    hess[a][b] -= curvature * phi_a * phi_b
    return hess


def read_config_table(path):
    """``fit``'s per-cell reader: ``(rows, weights or None)``, or `ValueError`."""
    with open(path, encoding="utf-8") as fh:  # universal newlines, like the package
        text = fh.read().strip()
    if not text:
        raise ValueError(f"data file {path} is empty")
    lines = text.split("\n")
    header = [h.strip() for h in lines[0].split(",")]
    if len(lines) < 2:
        raise ValueError(f"data file {path} contains no rows")
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("rows of unequal length")
    except ValueError as exc:
        raise ValueError(f"data file {path} has a malformed row: {exc}") from exc
    if len(rows[0]) != len(header):
        raise ValueError(
            f"data file {path} rows do not match its header of {len(header)} columns"
        )
    if header[-1].lower() == "weight":
        return [row[:-1] for row in rows], [row[-1] for row in rows]
    return rows, None


def read_sample_draws(path):
    """The sample loader's per-cell parse: integer rows, or `ValueError`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    if len(lines) < 2:
        raise ValueError(f"sample file {path} contains no draws")
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows of unequal length")
    if len(rows[0]) != len(lines[0].split(",")):
        raise ValueError("rows do not match the header")
    return rows


def cause_block_alias(delta):
    """One block of causes as a categorical variable, with its Walker alias table.

    Returns ``(configs, marginals, prob, alias)``: the block's configurations
    in index order, each one's product of the causes' marginals
    ``exp(x_i delta_i) / (2 cosh delta_i)``, and the table Vose's construction
    builds from them, entries scaled by the block's ``K`` configurations.
    Entry ``j`` keeps itself with probability ``prob[j]`` and gives
    ``alias[j]`` otherwise; entries left once either work list is empty keep
    themselves.
    """
    # product() varies its last factor fastest; reversed, x_0 is the lowest bit.
    configs = [c[::-1] for c in itertools.product((-1, 1), repeat=len(delta))]
    marginals = [
        math.prod(math.exp(x * d) / (2.0 * math.cosh(d)) for x, d in zip(c, delta))
        for c in configs
    ]
    scaled = [p * len(configs) for p in marginals]
    prob, alias = [1.0] * len(configs), list(range(len(configs)))
    small = [k for k in range(len(configs)) if scaled[k] < 1.0]
    large = [k for k in range(len(configs)) if scaled[k] >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        prob[lo], alias[lo] = scaled[lo], hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    return configs, marginals, prob, alias


def rejection_draws(delta, effects, m, seed, rows, budget=math.inf):
    """Collider rejection sampling in batches of ``rows`` proposals.

    The causes form blocks of ten (the last one shorter), each drawn by one
    lookup in its `cause_block_alias` table.  A batch draws, block by block,
    ``rows`` integers below the block's ``K`` configurations and ``rows``
    uniforms (keep the integer where the uniform is below its ``prob``, else
    take its alias), then ``rows`` acceptance uniforms; batches continue until
    ``m`` draws are kept.  ``effects`` is a list of ``(lam, q, log_sup)``.
    Returns ``(draws, meta)``; raises `RuntimeError` naming
    ``accepted/proposed`` once ``budget`` proposals have kept fewer than ``m``
    draws.
    """
    n = len(delta)
    rng = np.random.default_rng(seed)
    blocks = []
    for lo in range(0, n, 10):
        configs, _, prob, alias = cause_block_alias([float(d) for d in delta[lo : lo + 10]])
        blocks.append((np.array(configs, dtype=np.float64), np.array(prob), np.array(alias)))
    lams = np.array([lam for lam, _, _ in effects])
    sups = np.array([sup for _, _, sup in effects])
    dirs = np.stack([q for _, q, _ in effects], axis=1) if effects else np.zeros((n, 0))
    kept = []
    n_acc = n_prop = 0
    while n_acc < m:
        parts = []
        for configs, prob, alias in blocks:
            j = rng.integers(0, len(configs), rows)
            keep_j = rng.random(rows) < prob[j]
            parts.append(configs[np.where(keep_j, j, alias[j])])
        proposals = np.concatenate(parts, axis=1)
        log_acc = (0.5 * lams * (proposals @ dirs) ** 2 - sups).sum(axis=1)
        keep = rng.random(rows) < np.exp(log_acc)
        kept.append(proposals[keep].astype(np.int8))
        n_acc += int(keep.sum())
        n_prop += rows
        if n_acc < m and n_prop >= budget:
            raise RuntimeError(f"{n_acc}/{n_prop}")
    meta = {
        "proposals": n_prop,
        "accepted": n_acc,
        "rejected": n_prop - n_acc,
        "acceptance_rate": n_acc / n_prop,
    }
    return np.concatenate(kept, axis=0)[:m], meta


def gibbs_draws(delta, sigma, m, seed, burn_in, thin, chains):
    """Multi-chain systematic-scan Gibbs, one chain and one site at a time.

    Replays the package's stream: a random ``{0, 1}`` start of shape
    ``(n, k)`` with ``k = min(chains, m)``, then one ``(sweeps, n, k)`` block of
    uniforms.  Site ``i`` of chain ``c`` becomes ``+1`` exactly when
    ``u < 1 / (1 + exp(-2 h))``, ``h = delta_i + sum_{j != i} sigma_ij x_j``.
    Each chain discards ``burn_in`` sweeps, then keeps every ``thin``-th until
    it holds ``ceil(m / k)`` draws.  Returns the ``k`` chains as lists of rows.
    """
    n = len(delta)
    k = min(chains, m)
    per_chain = -(-m // k)
    sweeps = burn_in + per_chain * thin
    rng = np.random.default_rng(seed)
    start = rng.integers(0, 2, (n, k)).tolist()
    u = rng.random((sweeps, n, k)).tolist()
    out = []
    for c in range(k):
        x = [2 * start[i][c] - 1 for i in range(n)]
        rows = []
        for s in range(sweeps):
            for i in range(n):
                h = delta[i] + sum(sigma[i][j] * x[j] for j in range(n) if j != i)
                x[i] = 1 if u[s][i][c] < 1.0 / (1.0 + math.exp(min(-2.0 * h, 700.0))) else -1
            past = s + 1 - burn_in
            if past >= 1 and past % thin == 0:
                rows.append(list(x))
        out.append(rows)
    return out


def _split_halves(chains):
    """Each chain's first and last ``len // 2`` values, with their means."""
    half = len(chains[0]) // 2
    halves = [c[:half] for c in chains] + [c[len(c) - half :] for c in chains]
    return halves, [sum(h) / half for h in halves]


def _split_variances(halves, means):
    """Mean within-half variance ``W`` and ``var+``, the pooled variance estimate."""
    half = len(halves[0])
    w = sum(
        sum((v - mu) ** 2 for v in h) / (half - 1) for h, mu in zip(halves, means)
    ) / len(halves)
    grand = sum(means) / len(means)
    between = sum((mu - grand) ** 2 for mu in means) / (len(means) - 1)
    return w, (half - 1) / half * w + between


def split_rhat(chains):
    """Split-R-hat of one site's chains, given as equal-length lists of values.

    Where every half is constant (``W = 0``): infinite when the halves
    differ, which no mixing chain does, and ``None`` when they agree.
    """
    halves, means = _split_halves(chains)
    w, var_plus = _split_variances(halves, means)
    if w == 0.0:
        return math.inf if var_plus > 0.0 else None
    return math.sqrt(var_plus / w)


def bulk_ess(chains):
    """Multi-chain ESS of one site by Geyer's initial monotone sequence.

    Autocorrelations at every lag, ``rho_t = 1 - (W - mean_halves acov_t) / var+``
    over the split halves, with ``rho_0 = 1``; pair sums ``rho_2j + rho_2j+1``
    are lowered to their running minimum and summed while positive.  ``None``
    where every half is constant (``W = 0``).
    """
    halves, means = _split_halves(chains)
    w, var_plus = _split_variances(halves, means)
    if w == 0.0:
        return None
    half = len(halves[0])
    rhos = [1.0]
    for lag in range(1, half):
        acov = sum(
            sum((h[i] - mu) * (h[i + lag] - mu) for i in range(half - lag)) / half
            for h, mu in zip(halves, means)
        ) / len(halves)
        rhos.append(1.0 - (w - acov) / var_plus)
    total, smallest = 0.0, math.inf
    for j in range(half // 2):
        smallest = min(smallest, rhos[2 * j] + rhos[2 * j + 1])
        if smallest <= 0.0:
            break
        total += smallest
    return len(halves) * half / (2.0 * total - 1.0)
