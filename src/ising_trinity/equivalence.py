"""Cross-representation verifier: four code paths, one distribution.

`BRANCHES` is the one table of those paths, shared with the CLI's ``pmf -r``
and ``verify --inject-fault``.  Each branch builds the PMF through its own
weight evaluation: the network pair sum, the eigenvalue form, the
conditioned collider, and the latent marginal.  The verifier runs up to the
enumeration limit (n = 20), which bounds every branch alike.  A branch that
refuses the model (the latent marginal above rank 3, or with an error
estimate above ``ESTIMATE_TOL``) is reported as not evaluated, with its own
error message as the reason.  A run returns one frozen `EquivalenceReport`
that holds what it measured once: each branch's `BranchOutcome` (the seconds
it took to build or to refuse its table, its estimate, its refusal) and each
evaluated pair's distances.  Every bound and verdict is derived from them.

Every pair is judged from its two tables alone: its total-variation distance
against ten times the larger of their ``error_estimate``s, at least
``EXACT_TOL``.  An enumerated table estimates 0, so a quadrature-free pair
is held to ``EXACT_TOL``.  The latent module refuses any estimate above
``ESTIMATE_TOL``, so no bound exceeds ``10 * ESTIMATE_TOL`` = 1e-7; how an
estimate is measured is its builder's alone.

Fault injection perturbs one branch's intercepts by a small epsilon before
that branch evaluates, which must flip the verdict; this guards against the
branches silently collapsing into a single shared computation.  A fault of
stored step s multiplies the odds of x₁ = +1 by e^{2s} and leaves the table
given x₁ alone, so it moves the table by exactly the TV

    |p·e^{2s} / (p·e^{2s} + 1 − p) − p|,   p = P(x₁ = +1),

with p read from the first other evaluated table in `BRANCHES` order, which
is exact (conventional, or spectral when conventional is faulted).  Its first
order term is |s|·(1 − m₁²)/2 with m₁ = E x₁.  It is evaluated as
p·q·(1 − e^{−2|s|}) / (a + b·e^{−2|s|}), with q = P(x₁ = −1) read from the
same table, a the side that s favours and b the other.  Only 2|s| can
overflow, near the float limit, and there e^{−2|s|} = 0 is exact, so it is
taken without a warning.  A site whose p rounds to 1 keeps the shift of a
fault that moves it.  A fault whose predicted shift is below twice the
faulted table's bound is refused, since no verdict could show it.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from itertools import combinations

import numpy as np

from ._enum import check_enumerable
from .collider import conditioned_pmf, spectral_to_collider
from .core import ModelSpec, Pmf, PmfDistance, ising_pmf, pmf_distance
from .errors import QuadratureResolutionError, RankLimitError
from .latent import LatentForm, QuadratureRule, mirt_marginal_pmf
from .spectral import spectral_pmf, to_spectral

# Name -> builder ``(spec, rule) -> Pmf``, in report order; ``rule`` is the
# latent marginal's.  Each eigen-branch eigendecomposes ``spec`` itself, so
# the conventional branch never does.  Each builder looks its functions up
# when called, so rebinding a module global (as a tracer does) reaches every
# caller of the table.
BRANCHES: dict[str, Callable[[ModelSpec, QuadratureRule], Pmf]] = {
    "conventional": lambda spec, rule: ising_pmf(spec),
    "spectral": lambda spec, rule: spectral_pmf(to_spectral(spec), spec.delta),
    "collider": lambda spec, rule: conditioned_pmf(
        spectral_to_collider(to_spectral(spec), spec.delta)
    ),
    "latent": lambda spec, rule: mirt_marginal_pmf(
        LatentForm.from_spectral(to_spectral(spec), spec.delta), rule
    ),
}

# The TV bound on a pair of exact tables, and the floor of every pair's bound;
# a table with an error estimate is held to ten of them.
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class BranchFault:
    """Perturb one branch's intercept vector by ``eps`` in its first entry."""

    branch: str
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.branch not in BRANCHES:
            raise ValueError(
                f"unknown branch {self.branch!r}; expected one of {tuple(BRANCHES)}"
            )
        if not np.isfinite(self.eps) or self.eps == 0.0:
            raise ValueError(f"fault epsilon must be finite and nonzero, got {self.eps!r}")


@dataclass(frozen=True)
class BranchOutcome:
    """One branch's run in a verifier report.

    ``seconds`` is the time the branch took to build its table or to refuse
    it; ``error_estimate`` is the table's (``None`` if refused) and
    ``skipped_reason`` the refusal's message (``None`` if built).
    """

    seconds: float
    error_estimate: float | None
    skipped_reason: str | None

    @property
    def evaluated(self) -> bool:
        """Whether the branch built its table."""
        return self.skipped_reason is None


@dataclass(frozen=True)
class EquivalenceReport:
    """What one verifier run measured, each value held once.

    ``branches`` holds one `BranchOutcome` per name, in `BRANCHES` order, and
    ``distances`` the `PmfDistance` of every pair of evaluated branches.
    ``fault`` is the injected fault, if any, and ``fault_shift`` its predicted
    TV shift.  Bounds and verdicts are derived from these on each read.
    """

    n: int
    rank: int
    branches: dict[str, BranchOutcome]
    distances: dict[tuple[str, str], PmfDistance]
    fault: BranchFault | None
    fault_shift: float | None

    def bound(self, *names: str) -> float:
        """The named tables' TV bound: ten times their largest estimate, at least `EXACT_TOL`."""
        return max(EXACT_TOL, 10.0 * max(self.branches[name].error_estimate for name in names))

    @property
    def pairs(self) -> list[dict]:
        """Each pair's distances and its verdict, ``tv <= tolerance``."""
        rows = []
        for pair, dist in self.distances.items():
            tol = self.bound(*pair)
            rows.append({"pair": list(pair), **asdict(dist), "tolerance": tol,
                         "passed": dist.tv <= tol})
        return rows

    @property
    def all_pass(self) -> bool:
        return all(row["passed"] for row in self.pairs)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "all_pass": self.all_pass,
            "fault": None if self.fault is None else asdict(self.fault),
            "fault_shift": self.fault_shift,
            "branches": [{"name": name, "evaluated": b.evaluated, **asdict(b)}
                         for name, b in self.branches.items()],
            "pairs": self.pairs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"n = {self.n}, canonical rank = {self.rank}",
            "branches: "
            + ", ".join(
                f"{name} ({b.seconds:.3f}s, error estimate {b.error_estimate:.3e})"
                if b.evaluated
                else f"{name} (not evaluated: {b.skipped_reason})"
                for name, b in self.branches.items()
            ),
        ]
        if self.fault is not None:
            lines.append(f"fault injected: branch {self.fault.branch}, eps {self.fault.eps:g}, "
                         f"predicted tv shift {self.fault_shift:.3e}")
        for row in self.pairs:
            (a, b), verdict = row["pair"], "PASS" if row["passed"] else "FAIL"
            lines.append(f"{a} vs {b}: tv={row['tv']:.3e} max_abs={row['max_abs']:.3e} "
                         f"[{verdict} tv <= {row['tolerance']:g}]")
        lines.append("overall: " + ("PASS" if self.all_pass else "FAIL"))
        return "\n".join(lines)


def verify_representations(
    spec: ModelSpec,
    rule: QuadratureRule = QuadratureRule(),
    *,
    fault: BranchFault | None = None,
) -> EquivalenceReport:
    """Compute the PMF through every branch in `BRANCHES` and compare the tables.

    Runs for any enumerable ``n`` (at most 20).  A branch whose builder raises
    `RankLimitError` or `QuadratureResolutionError` (the latent marginal above
    rank 3, or with an error estimate above ``ESTIMATE_TOL``) is reported as
    not evaluated with that error's message, and pairs involving it are
    omitted; its `BranchOutcome` still holds the seconds the refusal took.
    A fault's predicted TV shift, ``fault_shift``, is the exact TV by which
    it moves the faulted table from the model's (see the module docstring);
    the report is built once, with it.  Injecting a fault into a branch
    that is not evaluated, or one whose predicted shift is below twice that
    branch's bound (as when ``eps`` rounds away in the first intercept),
    raises `ValueError`.
    """
    check_enumerable(spec.n)
    # Raises EigendecompositionError before any branch runs.
    rank = to_spectral(spec).rank

    tables: dict[str, Pmf] = {}
    branches: dict[str, BranchOutcome] = {}
    delta = spec.delta.copy()
    if fault is not None:
        delta[:1] += fault.eps  # a model without items has no intercept to move
    for name, build in BRANCHES.items():
        faulted = fault is not None and fault.branch == name
        start = time.perf_counter()
        try:
            table = build(replace(spec, delta=delta) if faulted else spec, rule)
        except (RankLimitError, QuadratureResolutionError) as exc:
            if faulted:
                raise ValueError(
                    f"cannot inject a fault into the {name} branch, which is "
                    f"not evaluated: {exc}"
                ) from exc
            branches[name] = BranchOutcome(time.perf_counter() - start, None, str(exc))
            continue
        branches[name] = BranchOutcome(time.perf_counter() - start, table.error_estimate, None)
        tables[name] = table

    shift = None
    if fault is not None:
        # P(x₁ = ±1) from the first other table, exact; the stored step s (0 if
        # eps rounds away) moves mass to the side it favours, `gain`, from `lose`.
        probs = next(t for name, t in tables.items() if name != fault.branch).probs
        step = (delta - spec.delta).sum()
        plus, minus = probs[1::2].sum(), probs[0::2].sum()
        gain, lose = (plus, minus) if step >= 0 else (minus, plus)
        with np.errstate(over="ignore"):  # 2|s| = inf: drain 1 and keep 0, exact
            drain, keep = -np.expm1(-2.0 * abs(step)), np.exp(-2.0 * abs(step))
        shift = float(gain * lose * drain / (gain + lose * keep)) if gain else 0.0
    distances = {(a, b): pmf_distance(tables[a], tables[b]) for a, b in combinations(tables, 2)}
    report = EquivalenceReport(n=spec.n, rank=rank, branches=branches, distances=distances,
                               fault=fault, fault_shift=shift)
    if fault is not None and shift < 2.0 * report.bound(fault.branch):
        raise ValueError(
            f"a fault of eps {fault.eps:g} in the {fault.branch} branch has a predicted tv "
            f"shift of {shift:.3e}, below twice its bound {report.bound(fault.branch):g}; no "
            "verdict could show it"
        )
    return report
