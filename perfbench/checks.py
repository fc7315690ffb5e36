"""Output checks: reference tables computed without the package, test statistics,
and the log of attempted and failed operations.

The references enumerate ``{-1, +1}^n`` directly with the package's index
convention (bit ``i`` of the index set means ``x_i = +1``, column ``x_{i+1}``
in a CSV), so a table the package gets wrong cannot agree with them.
"""

from __future__ import annotations

import math
from collections import Counter
from statistics import NormalDist

import numpy as np

# One-sided false-alarm rate of every statistical check.  A session makes at
# most four such checks, so a run of a few dozen sessions raises a false alarm
# with probability below 1e-4.
FALSE_ALARM = 1e-6

# Smallest expected count a chi-square cell may have; rarer cells are pooled.
MIN_EXPECTED = 5.0


def configs(n: int) -> np.ndarray:
    """All ``2**n`` configurations as a ``(2**n, n)`` float matrix of ``+/-1``."""
    idx = np.arange(1 << n, dtype=np.int64)[:, None]
    return 2.0 * ((idx >> np.arange(n, dtype=np.int64)) & 1) - 1.0


def log_weights(delta: np.ndarray, sigma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x . delta + sum_{i<j} sigma_ij x_i x_j`` for each row of ``x``."""
    upper = np.triu(sigma, k=1)
    return x @ delta + np.einsum("bi,ij,bj->b", x, upper, x)


def reference_pmf(delta: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """The exact table ``(probs, log_z)`` of the pairwise model by enumeration."""
    logw = log_weights(delta, sigma, configs(delta.shape[0]))
    peak = logw.max()
    total = np.exp(logw - peak).sum()
    log_z = float(peak + math.log(total))
    return np.exp(logw - log_z), log_z


def chi_square_gof(counts: np.ndarray, probs: np.ndarray) -> tuple[float, int, float]:
    """Pearson statistic of ``counts`` against ``probs``, its degrees of freedom,
    and the threshold it exceeds with probability `FALSE_ALARM` under the null.

    Cells are pooled in order of increasing probability until each pooled cell
    expects at least `MIN_EXPECTED` draws.  The threshold uses the
    Wilson-Hilferty approximation to the chi-square quantile.
    """
    m = counts.sum()
    order = np.argsort(probs, kind="stable")
    expected, observed = [], []
    e_acc = o_acc = 0.0
    for k in order:
        e_acc += m * probs[k]
        o_acc += counts[k]
        if e_acc >= MIN_EXPECTED:
            expected.append(e_acc)
            observed.append(o_acc)
            e_acc = o_acc = 0.0
    if e_acc > 0.0 and expected:
        expected[-1] += e_acc
        observed[-1] += o_acc
    e = np.array(expected)
    o = np.array(observed)
    stat = float(((o - e) ** 2 / e).sum())
    df = len(e) - 1
    z = NormalDist().inv_cdf(1.0 - FALSE_ALARM)
    h = 2.0 / (9.0 * df)
    threshold = df * (1.0 - h + z * math.sqrt(h)) ** 3
    return stat, df, threshold


def binomial_z(successes: int, trials: int, p: float) -> float:
    """Standardized gap between an observed count and its binomial expectation."""
    return (successes - trials * p) / math.sqrt(trials * p * (1.0 - p))


def binomial_z_limit() -> float:
    """The two-sided ``|z|`` that a correct sampler exceeds with rate `FALSE_ALARM`."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM / 2.0)


class OpLog:
    """Attempted and failed operations, with a tally of failure reasons.

    An operation fails with ``errors`` when it raises or exits with an
    unexpected code, and with ``wrong`` when an output check finds a wrong
    value.  Only the second kind makes a run's outputs incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter[str] = Counter()

    def record(self, errors=(), wrong=()) -> None:
        """Count one operation and the reasons it failed, if any."""
        self.attempted += 1
        if errors or wrong:
            self.failed += 1
        if wrong:
            self.wrong += 1
        self.reasons.update(errors)
        self.reasons.update(f"wrong output: {reason}" for reason in wrong)
