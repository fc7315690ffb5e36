"""Cross-representation verifier: four code paths, one distribution.

Given one parameter set, the same PMF is computed through four independent
weight evaluations — the network pair sum, the eigenvalue form, the
conditioned collider, and (when the rank allows tensor quadrature) the latent
marginal.  Quadrature-free pairs must agree to near machine precision; pairs
involving the latent branch are held to the quadrature tolerance.

Fault injection perturbs one branch's intercepts by a small epsilon before
that branch evaluates, which must flip the verdict; this guards against the
branches silently collapsing into a single shared computation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .collider import conditioned_pmf, spectral_to_collider
from .core import ModelSpec, Pmf, PmfDistance, ising_pmf, pmf_distance
from .errors import EnumerationLimitError
from .latent import TENSOR_RANK_LIMIT, LatentForm, QuadratureRule, mirt_marginal_pmf
from .spectral import spectral_pmf, to_spectral

BRANCHES = ("conventional", "spectral", "collider", "latent")

VERIFIER_LIMIT = 12

DEFAULT_EXACT_TOL = 1e-12
DEFAULT_QUAD_TOL = 1e-7


@dataclass(frozen=True)
class BranchFault:
    """Perturb one branch's intercept vector by ``eps`` in its first entry."""

    branch: str
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.branch not in BRANCHES:
            raise ValueError(
                f"unknown branch {self.branch!r}; expected one of {BRANCHES}"
            )
        if not np.isfinite(self.eps):
            raise ValueError(f"fault epsilon must be finite, got {self.eps!r}")


@dataclass
class EquivalenceReport:
    """Distances, verdicts, and timings for every evaluated branch pair."""

    n: int
    rank: int
    exact_tol: float
    quad_tol: float
    evaluated: dict[str, bool]
    distances: dict[tuple[str, str], PmfDistance]
    passed: dict[tuple[str, str], bool]
    timings: dict[str, float]
    fault: BranchFault | None = None
    skipped_reason: dict[str, str] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "exact_tol": self.exact_tol,
            "quad_tol": self.quad_tol,
            "all_pass": self.all_pass,
            "fault": (
                None
                if self.fault is None
                else {"branch": self.fault.branch, "eps": self.fault.eps}
            ),
            "branches": [
                {
                    "name": name,
                    "evaluated": self.evaluated[name],
                    "seconds": self.timings.get(name),
                    "skipped_reason": self.skipped_reason.get(name),
                }
                for name in BRANCHES
            ],
            "pairs": [
                {
                    "pair": list(pair),
                    "tv": dist.tv,
                    "max_abs": dist.max_abs,
                    "kl": dist.kl,
                    "tolerance": (
                        self.quad_tol if "latent" in pair else self.exact_tol
                    ),
                    "metric": "tv" if "latent" in pair else "max_abs",
                    "passed": self.passed[pair],
                }
                for pair, dist in self.distances.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"n = {self.n}, canonical rank = {self.rank}",
            "branches: "
            + ", ".join(
                f"{name} ({self.timings[name]:.3f}s)"
                if self.evaluated[name]
                else f"{name} (not evaluated: {self.skipped_reason.get(name, '')})"
                for name in BRANCHES
            ),
        ]
        if self.fault is not None:
            lines.append(
                f"fault injected: branch {self.fault.branch}, eps {self.fault.eps:g}"
            )
        for pair, dist in self.distances.items():
            metric = "tv" if "latent" in pair else "max_abs"
            tol = self.quad_tol if "latent" in pair else self.exact_tol
            verdict = "PASS" if self.passed[pair] else "FAIL"
            lines.append(
                f"{pair[0]} vs {pair[1]}: tv={dist.tv:.3e} max_abs={dist.max_abs:.3e} "
                f"kl={dist.kl:.3e} [{verdict} {metric} <= {tol:g}]"
            )
        lines.append("overall: " + ("PASS" if self.all_pass else "FAIL"))
        return "\n".join(lines)


def _maybe_faulted(delta: np.ndarray, branch: str, fault: BranchFault | None) -> np.ndarray:
    if fault is not None and fault.branch == branch:
        out = delta.copy()
        out[0] += fault.eps
        return out
    return delta


def verify_representations(
    spec: ModelSpec,
    rule: QuadratureRule | None = None,
    *,
    exact_tol: float = DEFAULT_EXACT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    fault: BranchFault | None = None,
) -> EquivalenceReport:
    """Compute the PMF through every applicable representation and compare.

    The latent branch runs only when the canonical rank is at most
    `TENSOR_RANK_LIMIT`; otherwise it is reported as not evaluated and pairs
    involving it are omitted.  Injecting a fault into a branch that is not
    evaluated is an error.
    """
    if spec.n > VERIFIER_LIMIT:
        raise EnumerationLimitError(
            f"the verifier is limited to n <= {VERIFIER_LIMIT}, got n = {spec.n}"
        )
    rule = QuadratureRule.gauss_hermite() if rule is None else rule

    form = to_spectral(spec)
    rank = form.rank
    latent_ok = rank <= TENSOR_RANK_LIMIT
    if fault is not None and fault.branch == "latent" and not latent_ok:
        raise ValueError(
            f"cannot inject a fault into the latent branch: canonical rank "
            f"{rank} exceeds {TENSOR_RANK_LIMIT}, so that branch is not evaluated"
        )

    tables: dict[str, Pmf] = {}
    timings: dict[str, float] = {}
    skipped: dict[str, str] = {}

    start = time.perf_counter()
    faulted = ModelSpec(
        delta=_maybe_faulted(spec.delta, "conventional", fault), sigma=spec.sigma
    )
    tables["conventional"] = ising_pmf(faulted)
    timings["conventional"] = time.perf_counter() - start

    start = time.perf_counter()
    tables["spectral"] = spectral_pmf(form, _maybe_faulted(spec.delta, "spectral", fault))
    timings["spectral"] = time.perf_counter() - start

    start = time.perf_counter()
    collider = spectral_to_collider(form, _maybe_faulted(spec.delta, "collider", fault))
    tables["collider"] = conditioned_pmf(collider)
    timings["collider"] = time.perf_counter() - start

    if latent_ok:
        start = time.perf_counter()
        lf = LatentForm.from_spectral(form, _maybe_faulted(spec.delta, "latent", fault))
        tables["latent"] = mirt_marginal_pmf(lf, rule)
        timings["latent"] = time.perf_counter() - start
    else:
        skipped["latent"] = (
            f"canonical rank {rank} exceeds the tensor-quadrature limit "
            f"{TENSOR_RANK_LIMIT}"
        )

    evaluated = {name: name in tables for name in BRANCHES}
    distances: dict[tuple[str, str], PmfDistance] = {}
    passed: dict[tuple[str, str], bool] = {}
    names = [name for name in BRANCHES if evaluated[name]]
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            pair = (names[a_idx], names[b_idx])
            dist = pmf_distance(tables[pair[0]], tables[pair[1]])
            distances[pair] = dist
            if "latent" in pair:
                passed[pair] = dist.tv <= quad_tol
            else:
                passed[pair] = dist.max_abs <= exact_tol

    return EquivalenceReport(
        n=spec.n,
        rank=rank,
        exact_tol=exact_tol,
        quad_tol=quad_tol,
        evaluated=evaluated,
        distances=distances,
        passed=passed,
        timings=timings,
        fault=fault,
        skipped_reason=skipped,
    )
