"""Acceptance gate: one test per headline guarantee, one printed verdict each.

Every test prints ``[ACCEPTANCE] C<k> <name>: PASS/FAIL (<seconds>)`` before
asserting, so a full run always shows the per-criterion scoreboard (use
``pytest tests/test_acceptance.py -v -s`` to see it live).  Tolerances are the
package's published guarantees; seeds are fixed so the suite is deterministic.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

import ising_trinity as it
from ising_trinity.cli import main as cli_main


def _report(num: int, name: str, ok: bool, started: float) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] C{num} {name}: {verdict} ({time.perf_counter() - started:.1f}s)")
    return ok


def _random_spec(rng, n, coupling_scale=1.0, field_scale=1.0):
    sigma = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    sigma[iu] = rng.uniform(-coupling_scale, coupling_scale, iu[0].shape[0])
    sigma += sigma.T
    return it.ModelSpec(delta=rng.uniform(-field_scale, field_scale, n), sigma=sigma)


def test_c1_collider_reproduces_equal_coupling_model():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in range(2, 11):
        for _ in range(50):
            delta = rng.uniform(-2.0, 2.0, n)
            cond = it.conditioned_pmf(it.simple_collider(delta))
            cw = it.curie_weiss_pmf(n, delta)
            worst = max(worst, it.pmf_distance(cond, cw).max_abs)
    ok = worst < 1e-12
    assert _report(1, "conditioned collider equals equal-coupling model", ok, started), (
        f"worst max_abs = {worst:.3e}, tolerance 1e-12"
    )


def test_c2_single_latent_marginal_reproduces_equal_coupling_model():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    rule = it.QuadratureRule(64)
    worst = 0.0
    for n in range(1, 9):
        for _ in range(50):
            delta = rng.uniform(-1.0, 1.0, n)
            marginal = it.rasch_marginal_pmf(delta, rule)
            cw = it.curie_weiss_pmf(n, delta)
            worst = max(worst, it.pmf_distance(marginal, cw).tv)
    ok = worst < 1e-8
    assert _report(2, "single-latent marginal equals equal-coupling model", ok, started), (
        f"worst tv = {worst:.3e}, tolerance 1e-8"
    )


def test_c3_eigenvalue_weights_reproduce_network_weights():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    specs = [_random_spec(rng, 2 + (k % 9)) for k in range(100)]
    worst = 0.0
    for spec in specs:
        table = it.spectral_pmf(it.to_spectral(spec), spec.delta)
        worst = max(worst, it.pmf_distance(table, it.ising_pmf(spec)).max_abs)
    for spec in specs[:10]:
        for shift in (0.5, 2.0):
            table = it.spectral_pmf(it.to_spectral(replace(spec, extra_shift=shift)), spec.delta)
            worst = max(worst, it.pmf_distance(table, it.ising_pmf(spec)).max_abs)
    ok = worst < 1e-12
    assert _report(3, "eigenvalue table matches network table", ok, started), (
        f"worst max_abs = {worst:.3e}, tolerance 1e-12"
    )


def test_c4_multi_latent_marginal_matches_truncated_model():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for n in range(4, 9):
        for _ in range(2):
            spec = _random_spec(rng, n)
            form = it.truncate_spectral(it.to_spectral(spec), 3)
            assert form.rank <= 3
            lf = it.LatentForm.from_spectral(form, spec.delta)
            mirt = it.mirt_marginal_pmf(lf)
            spectral = it.spectral_pmf(form, spec.delta)
            worst = max(worst, it.pmf_distance(mirt, spectral).tv)
    ok = worst < 1e-7
    assert _report(4, "multi-latent marginal matches eigenvalue table", ok, started), (
        f"worst tv = {worst:.3e}, tolerance 1e-7"
    )


def test_c5_multi_effect_collider_reproduces_network_table():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for k in range(100):
        spec = _random_spec(rng, 2 + (k % 7))
        collider = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
        cond = it.conditioned_pmf(collider)
        worst = max(worst, it.pmf_distance(cond, it.ising_pmf(spec)).max_abs)
    ok = worst < 1e-12
    assert _report(5, "multi-effect conditioned collider matches network table", ok, started), (
        f"worst max_abs = {worst:.3e}, tolerance 1e-12"
    )


def test_c6_gaussian_square_completion_identity():
    started = time.perf_counter()
    rule = it.QuadratureRule(64)
    worst = 0.0
    for a in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        exact = math.exp(a * a)
        got = it.kac_identity_check(a, rule)
        worst = max(worst, abs(got - exact) / exact)
    ok = worst < 1e-8
    assert _report(6, "squared-sum to latent-integral identity", ok, started), (
        f"worst relative error = {worst:.3e}, tolerance 1e-8"
    )


def test_c7_selection_bias_appears_only_after_conditioning():
    started = time.perf_counter()
    collider = it.simple_collider(np.zeros(2))

    first, second = it.pmf_moments(it.cause_marginal_pmf(collider))
    marginal_cov = abs(second[0, 1] - first[0] * first[1])

    cond_first, cond_second = it.pmf_moments(it.conditioned_pmf(collider))
    conditioned_corr = float(
        (cond_second[0, 1] - cond_first[0] * cond_first[1])
        / math.sqrt((1.0 - cond_first[0] ** 2) * (1.0 - cond_first[1] ** 2))
    )

    sample = it.sample_collider_rejection(collider, 50_000, seed=7)
    rate = sample.meta["acceptance_rate"]

    ok = (
        marginal_cov <= 1e-14
        and conditioned_corr > 0.5
        and abs(rate - 0.5677) <= 0.01
    )
    assert _report(7, "dependence emerges only after conditioning", ok, started), (
        f"marginal cov {marginal_cov:.2e} (<= 1e-14), conditioned corr "
        f"{conditioned_corr:.7f} (> 0.5), acceptance rate {rate:.4f} (0.5677 +/- 0.01)"
    )


def test_c8_three_samplers_agree():
    started = time.perf_counter()
    rng = np.random.default_rng(20260819)
    spec = _random_spec(rng, 6, coupling_scale=0.3, field_scale=0.5)

    exact = it.sample_exact(it.ising_pmf(spec), 100_000, seed=101)
    gibbs = it.sample_gibbs(spec, 100_000, seed=202, burn_in=1000)
    collider = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
    rejection = it.sample_collider_rejection(collider, 100_000, seed=303)

    freqs = [it.empirical_frequencies(s) for s in (exact, gibbs, rejection)]
    tvs = [
        0.5 * float(np.abs(freqs[a] - freqs[b]).sum())
        for a, b in ((0, 1), (0, 2), (1, 2))
    ]
    ok = max(tvs) < 0.02
    assert _report(8, "exact, single-site, and rejection samplers agree", ok, started), (
        f"pairwise tv = {[f'{v:.4f}' for v in tvs]}, tolerance 0.02"
    )


def test_c9_estimation_recovers_known_parameters():
    started = time.perf_counter()
    rng = np.random.default_rng(1009)
    spec = _random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5)
    pmf = it.ising_pmf(spec)

    def max_err(fit):
        return max(
            float(np.abs(fit.spec_hat.delta - spec.delta).max()),
            float(np.abs(fit.spec_hat.sigma - spec.sigma).max()),
        )

    population_err = max_err(it.fit_pseudo_likelihood(pmf))
    sampled_err = max_err(it.fit_pseudo_likelihood(it.sample_exact(pmf, 50_000, seed=17)))

    grads_ok = True
    h = 1e-5
    iu = np.triu_indices(4, k=1)
    for k in range(20):
        n = 2 + (k % 5)
        instance = _random_spec(rng, n)
        configs = np.where(rng.random((30, n)) < 0.5, 1.0, -1.0)
        weights = rng.uniform(0.1, 1.0, 30)
        grad = it.pseudo_loglik_grad(instance, (configs, weights))
        iu_n = np.triu_indices(n, k=1)
        vec = np.concatenate((instance.delta, instance.sigma[iu_n]))
        fd = np.empty_like(vec)
        for j in range(vec.shape[0]):
            bump = np.zeros_like(vec)
            bump[j] = h

            def build(v):
                sigma = np.zeros((n, n))
                sigma[iu_n] = v[n:]
                sigma += sigma.T
                return it.ModelSpec(delta=v[:n], sigma=sigma)

            hi = it.pseudo_loglik(build(vec + bump), (configs, weights))
            lo = it.pseudo_loglik(build(vec - bump), (configs, weights))
            fd[j] = (hi - lo) / (2.0 * h)
        if not np.allclose(fd, grad, rtol=1e-6, atol=1e-9):
            grads_ok = False

    ok = population_err < 1e-5 and sampled_err < 0.05 and grads_ok
    assert _report(9, "pseudo-likelihood recovers the generating model", ok, started), (
        f"population err {population_err:.2e} (< 1e-5), sampled err "
        f"{sampled_err:.4f} (< 0.05), finite-difference gradients ok = {grads_ok}"
    )


def test_c10_verifier_detects_any_single_branch_fault(tmp_path):
    started = time.perf_counter()
    spec = it.ModelSpec(
        delta=np.array([0.1, -0.2]),
        sigma=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    path = tmp_path / "model.json"
    it.save_model_spec(spec, path)

    codes = {"clean": cli_main(["verify", str(path)])}
    for branch in ("conventional", "spectral", "collider", "latent"):
        codes[branch] = cli_main(["verify", str(path), "--inject-fault", branch])

    ok = codes["clean"] == 0 and all(
        codes[b] == 1 for b in ("conventional", "spectral", "collider", "latent")
    )
    assert _report(10, "verifier exits 1 under any injected branch fault", ok, started), (
        f"exit codes = {codes}"
    )
