"""Brute-force oracles written in plain Python, independent of the package.

Everything here enumerates configurations with explicit loops and scalar math
so that agreement with the package's vectorized, log-space code is meaningful.
Index order matches the package convention: bit ``i`` of the index gives the
sign of ``x_i``.
"""

import itertools
import json
import math


def all_configs(n):
    return [
        tuple(1 if (k >> i) & 1 else -1 for i in range(n)) for k in range(2**n)
    ]


def ising_table(delta, sigma):
    n = len(delta)
    weights = []
    for x in all_configs(n):
        w = sum(x[i] * delta[i] for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                w += x[i] * x[j] * sigma[i][j]
        weights.append(math.exp(w))
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


def spectral_table(delta, lambdas, q_columns):
    """Table of the model with weight x.delta + sum_r lambda_r (q_r . x)^2 / 2."""
    n = len(delta)
    weights = []
    for x in all_configs(n):
        w = sum(x[i] * delta[i] for i in range(n))
        for lam, q in zip(lambdas, q_columns):
            score = sum(q[i] * x[i] for i in range(n))
            w += 0.5 * lam * score * score
        weights.append(math.exp(w))
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


def conditioned_collider_table(delta, effects):
    """Conditioned-on-all-effects table; ``effects`` is a list of (lam, q).

    Returns ``(table, acceptance_probability)``.  The sup in each acceptance
    factor is found by brute scan, not by any closed form.
    """
    n = len(delta)
    sups = [effect_sup_by_scan(lam, q) for lam, q in effects]
    cause_norm = math.prod(2.0 * math.cosh(d) for d in delta)
    joint = []
    for x in all_configs(n):
        p = math.exp(sum(x[i] * delta[i] for i in range(n))) / cause_norm
        for (lam, q), sup in zip(effects, sups):
            score = sum(q[i] * x[i] for i in range(n))
            p *= math.exp(0.5 * lam * score * score - sup)
        joint.append(p)
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


def mirt_quadrature_table(delta, loadings, nodes, weights):
    """Tensor-product quadrature of the latent marginal, one node at a time.

    ``loadings`` has one row of ``r`` entries per item, and every latent
    dimension uses the one-dimensional rule ``(nodes, weights)``.  A node
    ``theta`` weighs ``prod_d w_d * prod_i 2 cosh(eta_i)`` with
    ``eta_i = delta_i + a_i . theta``; each configuration receives that weight
    times ``prod_i logistic(2 x_i eta_i)``.  Returns the table divided by the
    total node weight, and the log of that total.
    """
    n = len(delta)
    r = len(loadings[0]) if n else 0
    table = [0.0] * 2**n
    total = 0.0
    for ks in itertools.product(range(len(nodes)), repeat=r):
        theta = [nodes[k] for k in ks]
        eta = [
            delta[i] + sum(loadings[i][d] * theta[d] for d in range(r)) for i in range(n)
        ]
        c = math.prod(weights[k] for k in ks)
        for e in eta:
            c *= 2.0 * math.cosh(e)
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
        lines.append(",".join(str(v) for v in x) + f",{p:.17g}")
    return "\n".join(lines) + "\n"


def pmf_json_text(n, representation, log_z, probs):
    """A probability table as the whole document passed through ``json.dumps``."""
    doc = {
        "n": n,
        "representation": representation,
        "log_z": log_z,
        "columns": [f"x_{i + 1}" for i in range(n)] + ["probability"],
        "rows": [list(x) + [float(p)] for x, p in zip(all_configs(n), probs)],
    }
    return json.dumps(doc, indent=2) + "\n"


def sample_csv_text(draws):
    """Draws as CSV under an ``x_1..x_n`` header, each cell formatted on its own."""
    n = len(draws[0])
    lines = [",".join(f"x_{i + 1}" for i in range(n))]
    lines.extend(",".join(str(int(v)) for v in row) for row in draws)
    return "\n".join(lines) + "\n"
