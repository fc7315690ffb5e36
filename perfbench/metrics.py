"""End-to-end summaries and per-layer metrics computed from recorded spans.

Layer names are the package's module names.  Times are seconds per traced
session, so a layer a workload never calls reads 0; rates and ratios whose
base is empty also read 0.
"""

from __future__ import annotations

import os
from statistics import median

from spans import self_times

# A tail percentile is reported only where at least this many sessions lie
# beyond it.
TAIL_BEYOND = 10

BRANCH_SPANS = ("core.ising_pmf", "spectral.spectral_pmf", "collider.conditioned_pmf")


def _n(args, kwargs, result) -> dict:
    return {"n": args[0].n}


def _mirt(args, kwargs, result) -> dict:
    rule = args[1] if len(args) > 1 else kwargs.get("rule")
    return {"r": args[0].r, "n": args[0].n, "nodes": None if rule is None else rule.node_count}


def _gibbs(args, kwargs, result) -> dict:
    if result is None:
        return {}
    meta = result.meta
    return {"updates": result.n * (meta["burn_in"] + result.m * meta["thin"])}


def _rejection(args, kwargs, result) -> dict:
    if result is None:
        return {}
    return {"proposals": result.meta["proposals"], "accepted": result.meta["accepted"]}


def _saved(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])} if os.path.exists(args[1]) else {}


def _fit(args, kwargs, result) -> dict:
    if result is None:
        return {}
    return {"iterations": result.iterations, "converged": result.converged}


# Span attributes the metrics below read, by span name.
READERS = {
    "core.ising_pmf": _n,
    "spectral.spectral_pmf": _n,
    "collider.conditioned_pmf": _n,
    "latent.mirt_marginal_pmf": _mirt,
    "sampling.sample_gibbs": _gibbs,
    "sampling.sample_collider_rejection": _rejection,
    "sampling.save_sample_set": _saved,
    "estimation.fit_pseudo_likelihood": _fit,
}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with `TAIL_BEYOND` values above it, and its
    percentile.  Needs more than `TAIL_BEYOND` values."""
    if len(values) <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} sessions, got {len(values)}"
        )
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict], sessions: int, faults_injected: int, faults_caught: int
) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one run's spans."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for record, own in zip(spans, selfs):
        name = record["name"]
        total[name] = total.get(name, 0.0) + record["end"] - record["start"]
        self_total[name] = self_total.get(name, 0.0) + own

    def of(name: str) -> list[tuple[dict, float]]:
        return [(r, r["end"] - r["start"]) for r in spans if r["name"] == name]

    def per_session(value: float) -> float:
        return _ratio(value, sessions)

    out: dict[str, float] = {}
    branch = [pair for name in BRANCH_SPANS for pair in of(name)]
    out["enum.configs_per_s"] = _ratio(
        sum(2 ** r["attrs"]["n"] for r, _ in branch), sum(d for _, d in branch)
    )
    for name in BRANCH_SPANS + ("core.pmf_distance", "core.pmf_moments"):
        out[f"{name}.s"] = per_session(total.get(name, 0.0))

    mirt = of("latent.mirt_marginal_pmf")
    for rank in (1, 2, 3):
        out[f"latent.mirt_marginal_pmf.r{rank}.s"] = per_session(
            sum(d for r, d in mirt if r["attrs"]["r"] == rank)
        )
    nominal = [(r, d) for r, d in mirt if r["attrs"].get("nodes")]
    out["latent.node_configs_per_s.computed"] = _ratio(
        sum(r["attrs"]["nodes"] ** r["attrs"]["r"] * 2 ** r["attrs"]["n"] for r, _ in nominal),
        sum(d for _, d in nominal),
    )
    out["latent.fail_ratio"] = _ratio(
        sum(r["attrs"].get("error") == "QuadratureResolutionError" for r, _ in mirt), len(mirt)
    )

    out["equivalence.verify_representations.self_s"] = per_session(
        self_total.get("equivalence.verify_representations", 0.0)
    )
    out["equivalence.fault_detect_ratio"] = _ratio(faults_caught, faults_injected)

    for method in ("exact", "gibbs", "collider_rejection", "latent_first"):
        out[f"sampling.sample_{method}.s"] = per_session(
            total.get(f"sampling.sample_{method}", 0.0)
        )
    gibbs = [(r, d) for r, d in of("sampling.sample_gibbs") if "updates" in r["attrs"]]
    out["sampling.gibbs.site_updates_per_s"] = _ratio(
        sum(r["attrs"]["updates"] for r, _ in gibbs), sum(d for _, d in gibbs)
    )
    rejection = [
        (r, d) for r, d in of("sampling.sample_collider_rejection") if "proposals" in r["attrs"]
    ]
    proposals = sum(r["attrs"]["proposals"] for r, _ in rejection)
    out["sampling.rejection.acceptance_ratio"] = _ratio(
        sum(r["attrs"]["accepted"] for r, _ in rejection), proposals
    )
    out["sampling.rejection.proposals_per_s"] = _ratio(
        proposals, sum(d for _, d in rejection)
    )
    saves = of("sampling.save_sample_set")
    out["sampling.save_sample_set.s"] = per_session(sum(d for _, d in saves))
    out["sampling.save_sample_set.mb_per_s"] = _ratio(
        sum(r["attrs"].get("bytes", 0) for r, _ in saves) / 1e6, sum(d for _, d in saves)
    )

    fits = [(r, d) for r, d in of("estimation.fit_pseudo_likelihood") if "iterations" in r["attrs"]]
    iterations = sum(r["attrs"]["iterations"] for r, _ in fits)
    out["estimation.fit_pseudo_likelihood.s"] = per_session(
        total.get("estimation.fit_pseudo_likelihood", 0.0)
    )
    out["estimation.iterations"] = _ratio(iterations, len(fits))
    out["estimation.s_per_iter"] = _ratio(sum(d for _, d in fits), iterations)
    out["estimation.converged_ratio"] = _ratio(
        sum(r["attrs"]["converged"] for r, _ in fits), len(fits)
    )

    for command in ("pmf", "fit", "sample", "verify"):
        out[f"cli.{command}.self_s"] = per_session(self_total.get(f"cli.{command}", 0.0))
    pmf_self = self_total.get("cli.pmf", 0.0)
    out["cli.pmf.rows_per_s"] = _ratio(
        sum(r["attrs"].get("rows", 0) for r, _ in of("cli.pmf")), pmf_self
    )
    return out


def overhead_ratio(traced: list[float], untraced: list[float]) -> float:
    """Median traced session time over median untraced, minus one."""
    return median(traced) / median(untraced) - 1.0
