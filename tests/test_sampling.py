import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ising_trinity as it
from conftest import cause_only, effect_pairs, low_rank_spec, random_spec
from ising_trinity import sampling
from ising_trinity._enum import linear_table
from ising_trinity.cli import _read_config_table, main
from oracles import (
    all_configs,
    bulk_ess,
    cause_block_alias,
    conditioned_collider_table,
    gibbs_draws,
    read_config_table,
    read_sample_draws,
    rejection_draws,
    sample_csv_text,
    split_rhat,
)


def unit_coupling_spec(n: int) -> it.ModelSpec:
    sigma = np.ones((n, n)) - np.eye(n)
    return it.ModelSpec(delta=np.zeros(n), sigma=sigma)


def weak_spec(rng, n: int = 10) -> it.ModelSpec:
    """The simulate-fit benchmark's family: couplings 0.1, fields in +/-0.5."""
    return it.ModelSpec(
        delta=rng.uniform(-0.5, 0.5, n), sigma=0.1 * (np.ones((n, n)) - np.eye(n))
    )


def opposed_effects(lam: float = 400.0, n: int = 2) -> it.ColliderForm:
    """``n`` fair causes and two effects of strength ``lam`` on the first two, one
    rewarding agreement and one disagreement: every configuration is accepted
    with probability exp(-lam)."""
    dirs = np.zeros((n, 2))
    dirs[:2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return it.ColliderForm(delta=np.zeros(n), lams=[lam, lam], dirs=dirs)


def rejection_effects(cf: it.ColliderForm) -> list:
    """The effects as the rejection oracle takes them: ``(lam, q, log_sup)``."""
    return [(lam, q, sup) for (lam, q), sup in zip(effect_pairs(cf), cf.log_sups)]


def severe_collider(n: int = 10) -> it.ColliderForm:
    """Coupling 2 between every pair, fields +1.25 on half the causes and -1.25 on
    the rest: the one effect accepts little but agreement, which the fields
    make rare, so the acceptance rate is 3.4e-6 at n = 10."""
    delta = np.where(np.arange(n) < n // 2, 1.25, -1.25)
    spec = it.ModelSpec(delta, 2.0 * (np.ones((n, n)) - np.eye(n)))
    return it.spectral_to_collider(it.to_spectral(spec), spec.delta)


def pooled_chi_square_passes(counts, expected) -> bool:
    """Pearson chi-square at false-alarm rate 1e-6, with the cells expecting
    fewer than five draws pooled into one."""
    small = expected < 5.0
    e = np.append(expected[~small], expected[small].sum())
    o = np.append(counts[~small], counts[small].sum())
    keep = e > 0.0
    stat = (((o - e) ** 2)[keep] / e[keep]).sum()
    return stat < stats.chi2.isf(1e-6, keep.sum() - 1)


def batch_rows(block: int, n: int) -> int:
    """Rejection proposals per batch: two numbers per block of ten causes, one to accept."""
    return max(1, block // (2 * -(-n // 10) + 1))


def rank_one_form(n: int) -> it.LatentForm:
    spec = unit_coupling_spec(n)
    return it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)


class TestSampleSet:
    def test_rejects_non_binary_draws(self):
        with pytest.raises(ValueError, match=r"\+1 and -1"):
            it.SampleSet(draws=np.array([[1, 0]]), seed=0, method="exact")

    def test_rejects_non_integer_draws_before_the_cast(self):
        with pytest.raises(ValueError, match=r"\+1 and -1"):
            it.SampleSet(draws=np.array([[1.5, -1.7]]), seed=0, method="exact")
        with pytest.raises(ValueError, match=r"\+1 and -1"):
            it.SampleSet(draws=np.array([["1", "-1"]]), seed=0, method="exact")
        floats = it.SampleSet(draws=np.array([[1.0, -1.0]]), seed=0, method="exact")
        assert floats.draws.dtype == np.int8 and floats.draws.tolist() == [[1, -1]]

    # Each is a value the sidecar writer once saved and the loader then refused.
    @pytest.mark.parametrize(
        "field, value", [("seed", 1.5), ("seed", True), ("seed", "7"), ("method", "mine"),
                         ("meta", [1])],
    )
    def test_rejects_provenance_the_loader_would_refuse(self, field, value):
        kwargs = {"draws": np.ones((1, 2)), "seed": 0, "method": "exact", field: value}
        words = {"seed": "seed must be an integer", "method": "method must be one of",
                 "meta": "meta must be a dict"}[field]
        with pytest.raises(ValueError, match=words):
            it.SampleSet(**kwargs)

    def test_numpy_integer_seed_round_trips(self, tmp_path):
        sample = it.SampleSet(draws=np.ones((2, 2)), seed=np.int64(3), method="exact")
        assert type(sample.seed) is int and sample.seed == 3
        it.save_sample_set(sample, tmp_path / "d.csv")
        assert it.load_sample_set(tmp_path / "d.csv").seed == 3

    # Numpy scalars made save_sample_set raise TypeError after writing the
    # CSV; a tuple saved, but loaded back as a list.
    @pytest.mark.parametrize(
        "meta, stored",
        [({"a": np.float32(1.5)}, {"a": 1.5}), ({"a": (1, 2)}, {"a": [1, 2]}),
         ({"a": np.int64(7), "b": [np.bool_(True), (np.float64(0.25), None)], "c": {"d": "e"}},
          {"a": 7, "b": [True, [0.25, None]], "c": {"d": "e"}})],
    )
    def test_meta_is_stored_as_its_sidecar_reads_back(self, tmp_path, meta, stored):
        sample = it.SampleSet(draws=np.ones((2, 2)), seed=0, method="exact", meta=meta)
        # json.dumps tells 7 from 7.0 and True from 1, which == does not.
        assert sample.meta == stored and json.dumps(sample.meta) == json.dumps(stored)
        it.save_sample_set(sample, tmp_path / "d.csv")
        back = it.load_sample_set(tmp_path / "d.csv")
        assert back.meta == sample.meta and json.dumps(back.meta) == json.dumps(stored)
        assert (back.seed, back.method) == (0, "exact")
        npt.assert_array_equal(back.draws, sample.draws)

    def test_numpy_burn_in_round_trips(self, tmp_path):
        sample = it.sample_gibbs(random_spec(np.random.default_rng(5), 3), 100, seed=1,
                                 burn_in=np.int64(5))
        assert type(sample.meta["burn_in"]) is int and sample.meta["burn_in"] == 5
        it.save_sample_set(sample, tmp_path / "d.csv")
        back = it.load_sample_set(tmp_path / "d.csv")
        assert back.meta == sample.meta
        npt.assert_array_equal(back.draws, sample.draws)

    def test_meta_json_cannot_write_is_refused_and_nothing_is_written(self, tmp_path):
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match="^meta must hold JSON data: Object of type object"):
            it.save_sample_set(
                it.SampleSet(draws=np.ones((2, 2)), seed=0, method="exact", meta={"a": object()}),
                path,
            )
        # A meta dict changed after the record was made fails before any file is written.
        sample = it.SampleSet(draws=np.ones((2, 2)), seed=0, method="exact")
        sample.meta["a"] = object()
        with pytest.raises(TypeError):
            it.save_sample_set(sample, path)
        assert list(tmp_path.iterdir()) == []

    def test_frequencies_refuse_more_than_twenty_items(self):
        sample = it.SampleSet(draws=np.ones((2, 21), dtype=np.int8), seed=0, method="exact")
        with pytest.raises(it.EnumerationLimitError, match="too large for exact enumeration"):
            it.empirical_frequencies(sample)
        assert it.empirical_frequencies(
            it.SampleSet(draws=np.ones((2, 20), dtype=np.int8), seed=0, method="exact")
        )[-1] == 1.0

    def test_rejects_empty_and_flat(self):
        with pytest.raises(ValueError):
            it.SampleSet(draws=np.empty((0, 2), dtype=np.int8), seed=0, method="exact")
        with pytest.raises(ValueError, match="matrix"):
            it.SampleSet(draws=np.array([1, -1]), seed=0, method="exact")

    def test_frequencies_sum_to_one(self, rng):
        sample = it.sample_exact(it.ising_pmf(random_spec(rng, 3)), 500, seed=7)
        freq = it.empirical_frequencies(sample)
        assert freq.shape == (8,)
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)


class TestExactSampler:
    def test_degenerate_table(self):
        probs = np.array([0.0, 0.0, 0.0, 1.0])
        pmf = it.Pmf(probs=probs, log_z=0.0)
        sample = it.sample_exact(pmf, 100, seed=1)
        assert np.all(sample.draws == 1)

    def test_frequencies_match_table(self):
        pmf = it.ising_pmf(unit_coupling_spec(2))
        sample = it.sample_exact(pmf, 40_000, seed=3)
        freq = it.empirical_frequencies(sample)
        # 4 sigma for the largest cell at this sample size.
        npt.assert_allclose(freq, pmf.probs, atol=0.0105)

    def test_deterministic_and_seed_sensitive(self):
        pmf = it.ising_pmf(unit_coupling_spec(3))
        a = it.sample_exact(pmf, 200, seed=42)
        b = it.sample_exact(pmf, 200, seed=42)
        c = it.sample_exact(pmf, 200, seed=43)
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)

    def test_goodness_of_fit_across_seeds(self):
        spec = it.ModelSpec(
            delta=np.zeros(3), sigma=0.2 * (np.ones((3, 3)) - np.eye(3))
        )
        pmf = it.ising_pmf(spec)
        expected = 5000 * pmf.probs
        rejections = 0
        for seed in range(50):
            sample = it.sample_exact(pmf, 5000, seed=seed)
            counts = it.empirical_frequencies(sample) * 5000
            p_value = stats.chisquare(counts, expected).pvalue
            if p_value < 0.001:
                rejections += 1
        assert rejections <= 2

    def test_draws_are_the_indexed_configurations(self, rng):
        # Inverse-CDF indices replayed from the same stream, spelled out by the oracle.
        pmf = it.ising_pmf(random_spec(rng, 5))
        sample = it.sample_exact(pmf, 3000, seed=8)
        u = np.random.default_rng(8).random(3000)
        idx = np.searchsorted(np.cumsum(pmf.probs), u, side="right")
        assert np.array_equal(sample.draws, np.array(all_configs(5), dtype=np.int8)[idx])

    def test_zero_draws_rejected(self):
        pmf = it.ising_pmf(unit_coupling_spec(2))
        with pytest.raises(ValueError, match="at least 1"):
            it.sample_exact(pmf, 0, seed=0)


class TestGibbsSampler:
    def test_matches_exact_table(self):
        spec = unit_coupling_spec(2)
        sample = it.sample_gibbs(spec, 40_000, seed=11, burn_in=500)
        freq = it.empirical_frequencies(sample)
        agree = math.e**2 / (2.0 * math.e**2 + 2.0)
        assert freq[0] + freq[3] == pytest.approx(2.0 * agree, abs=0.02)
        npt.assert_allclose(freq, it.ising_pmf(spec).probs, atol=0.015)

    def test_moderate_model_total_variation(self, rng):
        spec = random_spec(rng, 4, coupling_scale=0.3, field_scale=0.5)
        sample = it.sample_gibbs(spec, 50_000, seed=5, burn_in=1000)
        exact = it.ising_pmf(spec)
        tv = 0.5 * np.abs(it.empirical_frequencies(sample) - exact.probs).sum()
        assert tv < 0.02

    def test_deterministic(self):
        spec = unit_coupling_spec(3)
        a = it.sample_gibbs(spec, 50, seed=9, burn_in=10, thin=2)
        b = it.sample_gibbs(spec, 50, seed=9, burn_in=10, thin=2)
        assert np.array_equal(a.draws, b.draws)
        # 50 chains of one draw each: too short to split, so no diagnostics.
        assert a.meta == {
            "burn_in": 10, "thin": 2, "chains": 50, "rhat_max": None, "ess_min": None
        }

    def test_thinning_changes_the_stream(self):
        spec = unit_coupling_spec(3)
        thin1 = it.sample_gibbs(spec, 50, seed=9, burn_in=10, thin=1)
        thin4 = it.sample_gibbs(spec, 50, seed=9, burn_in=10, thin=4)
        assert thin1.m == thin4.m == 50
        assert not np.array_equal(thin1.draws, thin4.draws)

    # m = 1, 63 and 65 give one chain, 63 chains of one draw, and 64 chains
    # of two draws truncated to 65 rows.
    @pytest.mark.parametrize(
        "m, burn_in, thin",
        [(200, 20, 1), (130, 5, 3), (192, 0, 1), (1, 10, 1), (63, 10, 2), (65, 10, 1)],
    )
    def test_replays_the_scalar_oracle(self, m, burn_in, thin):
        rng = np.random.default_rng(31)
        specs = [
            it.ModelSpec(delta=np.array([0.3]), sigma=np.zeros((1, 1))),
            random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5),
            unit_coupling_spec(6),
            random_spec(rng, 20, coupling_scale=0.3, field_scale=0.5),
        ]
        for spec in specs:
            for seed in range(3):
                sample = it.sample_gibbs(spec, m, seed, burn_in=burn_in, thin=thin)
                chains = gibbs_draws(
                    spec.delta.tolist(), spec.sigma.tolist(), m, seed, burn_in, thin,
                    sampling.GIBBS_CHAINS,
                )
                expected = np.array([row for chain in chains for row in chain], dtype=np.int8)
                assert np.array_equal(sample.draws, expected[:m])
                assert sample.meta["chains"] == len(chains) == min(m, sampling.GIBBS_CHAINS)

    def test_diagnostics_match_the_reference(self, rng):
        specs = [
            random_spec(rng, 4, coupling_scale=0.3, field_scale=0.5),
            unit_coupling_spec(5),
            # A site pinned at +1 has no variation and is skipped.
            it.ModelSpec(
                delta=np.array([0.2, 30.0, -0.1]), sigma=0.4 * (np.ones((3, 3)) - np.eye(3))
            ),
        ]
        k = sampling.GIBBS_CHAINS
        for draws_per_chain in (8, 41):
            for spec in specs:
                sample = it.sample_gibbs(spec, k * draws_per_chain, seed=3, burn_in=5)
                chains = sample.draws.reshape(k, draws_per_chain, spec.n).astype(float)
                per_site = [chains[:, :, i].tolist() for i in range(spec.n)]
                rhats = [v for v in map(split_rhat, per_site) if v is not None]
                esses = [v for v in map(bulk_ess, per_site) if v is not None]
                for key, values, pick in (("rhat_max", rhats, max), ("ess_min", esses, min)):
                    want = pytest.approx(pick(values), rel=1e-9) if values else None
                    assert sample.meta[key] == want, key

    def test_diagnostics_are_null_without_variation(self):
        # Two sites that never flip; chains of seven draws, too short to split.
        frozen = it.ModelSpec(delta=np.array([30.0, -30.0]), sigma=np.zeros((2, 2)))
        for spec, m in ((frozen, 5000), (unit_coupling_spec(3), 64 * 7)):
            meta = it.sample_gibbs(spec, m, seed=1, burn_in=5).meta
            assert meta["rhat_max"] is None and meta["ess_min"] is None
            json.dumps(meta, allow_nan=False)

    def test_diagnostics_flag_chains_that_do_not_mix(self, rng):
        # At unit coupling on eight sites each chain stays in the mode it
        # entered; the weak model's chains mix within a few sweeps.
        with pytest.warns(UserWarning, match="not mixed"):
            stuck = it.sample_gibbs(unit_coupling_spec(8), 20_000, seed=2).meta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixing = it.sample_gibbs(weak_spec(rng), 20_000, seed=2).meta
        assert stuck["rhat_max"] > 2.0 and stuck["ess_min"] < 1000
        assert mixing["rhat_max"] < 1.05 and mixing["ess_min"] > 5000

    def test_chains_frozen_apart_have_infinite_rhat_and_warn(self, tmp_path):
        # Strongly coupled rank-one models: each chain stays in the mode it
        # entered, so every site is constant within each chain but differs
        # between chains, and the draws are far from the table.
        rng = np.random.default_rng(3)
        for _ in range(3):
            spec = low_rank_spec(rng, 12, 1)
            with pytest.warns(UserWarning, match=r"not mixed: split R-hat inf exceeds 1\.01"):
                sample = it.sample_gibbs(spec, 20_032, seed=3)
            assert sample.meta["rhat_max"] == math.inf and sample.meta["ess_min"] is None
            tv = 0.5 * np.abs(it.empirical_frequencies(sample) - it.ising_pmf(spec).probs).sum()
            assert tv > 0.1
        it.save_sample_set(sample, tmp_path / "d.csv")
        assert '"rhat_max": Infinity' in it.sidecar_path(tmp_path / "d.csv").read_text()
        assert it.load_sample_set(tmp_path / "d.csv").meta["rhat_max"] == math.inf

    @pytest.mark.parametrize("n", [2, 6, 8])
    def test_goodness_of_fit_to_the_exact_table(self, n):
        rng = np.random.default_rng(900 + n)
        spec = unit_coupling_spec(2) if n == 2 else random_spec(rng, n, 0.3, 0.5)
        per_chain = 3000
        sample = it.sample_gibbs(spec, sampling.GIBBS_CHAINS * per_chain, seed=n)
        # Every tenth draw of each chain, which is close to independent here.
        draws = sample.draws.reshape(sampling.GIBBS_CHAINS, per_chain, n)[:, ::10]
        thinned = it.SampleSet(draws.reshape(-1, n), seed=n, method="gibbs")
        counts = it.empirical_frequencies(thinned) * thinned.m
        expected = thinned.m * it.ising_pmf(spec).probs
        assert pooled_chi_square_passes(counts, expected)

    def test_uniform_block_bounds_memory(self):
        # One (sweeps, n, chains) block of uniforms for the whole run would be
        # 132 x 300 x 64 doubles, 20 MB, and peaks near 29 MiB; in blocks of
        # 2 MiB the peak is about 10 MiB.
        spec = it.ModelSpec(delta=np.zeros(300), sigma=np.zeros((300, 300)))
        tracemalloc.start()
        try:
            sample = it.sample_gibbs(spec, 2000, seed=4, burn_in=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.m == 2000
        assert peak < 16 * 2**20

    def test_model_without_sites(self):
        spec = it.ModelSpec(delta=np.zeros(0), sigma=np.zeros((0, 0)))
        sample = it.sample_gibbs(spec, 500, seed=0, burn_in=3)
        assert sample.draws.shape == (500, 0)
        assert sample.meta["rhat_max"] is sample.meta["ess_min"] is None

    def test_parameter_guards(self):
        spec = unit_coupling_spec(2)
        with pytest.raises(ValueError, match="burn_in"):
            it.sample_gibbs(spec, 10, seed=0, burn_in=-1)
        with pytest.raises(ValueError, match="thin"):
            it.sample_gibbs(spec, 10, seed=0, thin=0)


class TestRejectionSampler:
    def test_no_effects_accepts_everything(self):
        cf = cause_only(np.zeros(3))
        sample = it.sample_collider_rejection(cf, 1000, seed=2)
        assert sample.meta["acceptance_rate"] == 1.0
        assert sample.meta["rejected"] == sample.meta["proposals"] - sample.meta["accepted"]
        assert sample.m == 1000

    def test_acceptance_rate_of_agreement_filter(self):
        cf = it.simple_collider(np.zeros(2))
        sample = it.sample_collider_rejection(cf, 50_000, seed=4)
        expected = 0.5 * (1.0 + math.exp(-2.0))
        assert expected == pytest.approx(0.567668, abs=5e-7)
        assert sample.meta["acceptance_rate"] == pytest.approx(expected, abs=0.01)

    def test_frequencies_match_conditioned_table(self):
        cf = it.simple_collider(np.zeros(2))
        sample = it.sample_collider_rejection(cf, 50_000, seed=4)
        cond = it.conditioned_pmf(cf)
        tv = 0.5 * np.abs(it.empirical_frequencies(sample) - cond.probs).sum()
        assert tv < 0.015

    def test_goodness_of_fit_across_seeds(self):
        cf = it.simple_collider(np.zeros(2))
        expected = 5000 * it.conditioned_pmf(cf).probs
        rejections = 0
        for seed in range(50):
            sample = it.sample_collider_rejection(cf, 5000, seed=seed)
            counts = it.empirical_frequencies(sample) * 5000
            if stats.chisquare(counts, expected).pvalue < 0.001:
                rejections += 1
        assert rejections <= 2

    def test_deterministic(self):
        cf = it.simple_collider(np.array([0.2, -0.1]))
        a = it.sample_collider_rejection(cf, 300, seed=8)
        b = it.sample_collider_rejection(cf, 300, seed=8)
        assert np.array_equal(a.draws, b.draws)
        assert a.meta == b.meta

    def test_incompatible_effects_abort(self):
        # Two strong effects whose preferred configurations are disjoint: one
        # rewards agreement, the other disagreement, so every proposal is
        # rejected for all practical purposes.
        with pytest.raises(it.ConditioningTooSevereError, match="too severe"):
            it.sample_collider_rejection(opposed_effects(), 10, seed=0)

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            it.sample_collider_rejection(it.simple_collider(np.zeros(2)), 0, seed=0)

    # Block budgets that make one-row blocks at n >= 4 (7 uniforms), odd
    # splits (1000), and the default, with draw counts that keep one-row
    # blocks cheap.
    @pytest.mark.parametrize(
        "block, m", [(7, 30), (1000, 3000), (sampling._UNIFORM_BLOCK, 10_000)]
    )
    def test_blocks_replay_the_oracle(self, monkeypatch, block, m):
        rng = np.random.default_rng(3)
        # Acceptance rates about 0.25, 0.050 (two effects), 0.016 and 1.
        rank_two = it.ModelSpec(np.zeros(6), 0.3 * low_rank_spec(rng, 6, 2).sigma)
        weak = weak_spec(rng)
        forms = [
            it.simple_collider(np.array([0.3, -0.2, 0.1])),
            it.spectral_to_collider(it.to_spectral(rank_two), rank_two.delta),
            it.spectral_to_collider(it.to_spectral(weak), weak.delta),
            cause_only(np.array([0.4, -0.4])),
        ]
        monkeypatch.setattr(sampling, "_UNIFORM_BLOCK", block)
        for cf in forms:
            effects = rejection_effects(cf)
            _, acceptance = conditioned_collider_table(cf.delta.tolist(), effect_pairs(cf))
            rows = batch_rows(block, cf.n)
            for seed in range(3):
                sample = it.sample_collider_rejection(cf, m, seed)
                draws, meta = rejection_draws(cf.delta, effects, m, seed, rows)
                assert np.array_equal(sample.draws, draws)
                observed = dict(sample.meta)
                predicted = observed.pop("predicted_acceptance")
                assert observed == meta
                assert predicted == pytest.approx(acceptance, rel=1e-12)

    @pytest.mark.parametrize("block", [1000, sampling._UNIFORM_BLOCK])
    def test_draws_for_m_are_the_first_draws_for_twice_m(self, monkeypatch, block):
        monkeypatch.setattr(sampling, "_UNIFORM_BLOCK", block)
        cf = it.simple_collider(np.array([0.3, -0.2, 0.1]))
        for seed in range(3):
            short = it.sample_collider_rejection(cf, 10_000, seed)
            long = it.sample_collider_rejection(cf, 20_000, seed)
            assert np.array_equal(short.draws, long.draws[:10_000])

    def test_gives_up_where_the_one_shot_sampler_does(self, monkeypatch):
        # Without a prediction (an enumeration limit of 1 sends this two-cause
        # model down that path) a run that accepts with probability exp(-400)
        # spends the budget and stops where the oracle does.
        cf = opposed_effects()
        rows = batch_rows(sampling._UNIFORM_BLOCK, 2)
        with pytest.raises(RuntimeError) as ref:
            rejection_draws(cf.delta, rejection_effects(cf), 10, 0, rows, budget=2 * rows + 1)
        assert str(ref.value) == f"0/{3 * rows}"
        monkeypatch.setattr(sampling, "ENUMERATION_LIMIT", 1)
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", 2 * rows + 1)
        with pytest.raises(
            it.ConditioningTooSevereError,
            match=rf"^0 of 10 draws kept after {3 * rows} proposals, the budget of "
            rf"{2 * rows + 1}; conditioning is too severe for rejection sampling$",
        ):
            it.sample_collider_rejection(cf, 10, seed=0)

    def test_refuses_before_drawing_when_the_predicted_rate_is_too_low(self, monkeypatch):
        cf = opposed_effects()
        _, acceptance = conditioned_collider_table([0.0, 0.0], effect_pairs(cf))
        assert acceptance == pytest.approx(math.exp(-400.0), rel=1e-9)

        def no_generator(seed):
            raise AssertionError("the sampler drew before refusing")

        monkeypatch.setattr(sampling.np.random, "default_rng", no_generator)
        # Even one draw would need about 5e173 proposals.
        with pytest.raises(
            it.ConditioningTooSevereError,
            match=r"^1 draws at the predicted acceptance rate 1\.92e-174 need about "
            r"5\.22e\+173 proposals, more than the budget of 134217728; conditioning "
            r"is too severe for rejection sampling$",
        ):
            it.sample_collider_rejection(cf, 1, seed=0)
        # A rate that underflows to zero expects infinitely many.
        with pytest.raises(
            it.ConditioningTooSevereError,
            match=r"^1 draws at the predicted acceptance rate 0\.00e\+00 need about inf ",
        ):
            it.sample_collider_rejection(opposed_effects(800.0), 1, seed=0)

    def test_refuses_before_drawing_when_the_budget_is_too_small(self, monkeypatch):
        # 3000 draws at 3.4e-6 would take about 8.9e8 proposals; one would fit.
        cf = severe_collider()
        rate = float(np.exp(it.conditioned_pmf(cf).log_z))
        assert 1 / sampling.MAX_PROPOSALS < rate < 3000 / sampling.MAX_PROPOSALS

        def no_generator(seed):
            raise AssertionError("the sampler drew before refusing")

        monkeypatch.setattr(sampling.np.random, "default_rng", no_generator)
        with pytest.raises(
            it.ConditioningTooSevereError,
            match=r"^3000 draws at the predicted acceptance rate 3\.39e-06 need about "
            r"8\.86e\+08 proposals, more than the budget of 134217728; conditioning "
            r"is too severe for rejection sampling$",
        ):
            it.sample_collider_rejection(cf, 3000, seed=0)

    def test_rare_acceptance_within_the_budget_draws(self):
        # The opposed pair at strength 14.5 accepts with probability
        # exp(-14.5) ~ 5.0e-7: one draw expects about 2.0e6 proposals, inside
        # the budget, so it draws as the oracle does.
        cf = opposed_effects(14.5)
        sample = it.sample_collider_rejection(cf, 1, seed=0)
        predicted = sample.meta["predicted_acceptance"]
        assert predicted == pytest.approx(math.exp(-14.5), rel=1e-9)
        rows = batch_rows(sampling._UNIFORM_BLOCK, 2)
        draws, meta = rejection_draws(cf.delta, rejection_effects(cf), 1, 0, rows)
        assert np.array_equal(sample.draws, draws)
        assert sample.meta == {**meta, "predicted_acceptance": predicted}

    def test_stops_at_the_budget_below_the_enumeration_limit(self, monkeypatch):
        # At strength 1 (rate exp(-1) ~ 0.37) ten draws expect 27.2 proposals,
        # inside a budget of 28, yet two-row batches spend it short of ten
        # draws on some seeds; those stop where the oracle does.
        monkeypatch.setattr(sampling, "_UNIFORM_BLOCK", 7)
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", 28)
        cf = opposed_effects(1.0)
        effects, rows = rejection_effects(cf), batch_rows(7, 2)
        outcomes = set()
        for seed in range(20):
            try:
                draws, _ = rejection_draws(cf.delta, effects, 10, seed, rows, budget=28)
            except RuntimeError as ref:
                kept, proposed = str(ref).split("/")
                with pytest.raises(
                    it.ConditioningTooSevereError,
                    match=rf"^{kept} of 10 draws kept after {proposed} proposals, the "
                    rf"budget of 28; conditioning is too severe for rejection sampling$",
                ):
                    it.sample_collider_rejection(cf, 10, seed)
                outcomes.add("stopped")
            else:
                assert np.array_equal(it.sample_collider_rejection(cf, 10, seed).draws, draws)
                outcomes.add("drawn")
        assert outcomes == {"stopped", "drawn"}

    def test_budget_at_the_expected_proposal_count(self, monkeypatch):
        # 1000 draws at the exact rate 0.5677 expect 1761.6 proposals.
        cf = it.simple_collider(np.zeros(2))
        expected = 1000 / (0.5 * (1.0 + math.exp(-2.0)))
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", math.ceil(expected))
        sample = it.sample_collider_rejection(cf, 1000, seed=0)
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", math.floor(expected))
        with pytest.raises(it.ConditioningTooSevereError, match="more than the budget of 1761;"):
            it.sample_collider_rejection(cf, 1000, seed=0)
        # Only the expected count is budgeted: the run proposes a whole block.
        assert sample.meta["proposals"] == batch_rows(sampling._UNIFORM_BLOCK, 2)

    def test_stops_at_the_budget_above_the_enumeration_limit(self, monkeypatch):
        # The severe model's two-cause twin: q = (1, 1)/sqrt 2 and (1, -1)/sqrt 2
        # with strength 12.5 accept every proposal with probability exp(-12.5),
        # about 3.7e-6, so the budget stops the run.
        n = sampling.ENUMERATION_LIMIT + 1
        cf = opposed_effects(12.5, n)
        rows = batch_rows(sampling._UNIFORM_BLOCK, n)
        ref_effects = rejection_effects(cf)
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", 2 * rows + 1)
        for seed in range(3):
            with pytest.raises(RuntimeError) as ref:
                rejection_draws(cf.delta, ref_effects, 10, seed, rows, budget=2 * rows + 1)
            kept, proposed = str(ref.value).split("/")
            assert proposed == str(3 * rows)
            with pytest.raises(
                it.ConditioningTooSevereError,
                match=rf"^{kept} of 10 draws kept after {proposed} proposals, the budget "
                rf"of {2 * rows + 1}; conditioning is too severe for rejection sampling$",
            ):
                it.sample_collider_rejection(cf, 10, seed)
        # At strength 1 (rate exp(-1)) the first block keeps every draw, and a
        # budget of that one block changes nothing.
        cf = opposed_effects(1.0, n)
        ref_effects = rejection_effects(cf)
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", rows)
        sample = it.sample_collider_rejection(cf, 1000, seed=11)
        draws, meta = rejection_draws(cf.delta, ref_effects, 1000, 11, rows, budget=rows)
        assert np.array_equal(sample.draws, draws) and sample.meta["proposals"] == rows

    def test_predicted_rate_at_the_threshold(self, monkeypatch):
        cf = it.simple_collider(np.zeros(2))
        rate = 0.5 * (1.0 + math.exp(-2.0))
        sample = it.sample_collider_rejection(cf, 10, seed=0)
        assert sample.meta["predicted_acceptance"] == pytest.approx(rate, rel=1e-14)
        # Ten draws at this rate expect 17.6 proposals.
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", math.ceil(10 / rate))
        assert it.sample_collider_rejection(cf, 10, seed=0).meta == sample.meta
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", math.floor(10 / rate))
        with pytest.raises(it.ConditioningTooSevereError, match="predicted acceptance rate"):
            it.sample_collider_rejection(cf, 10, seed=0)

    def test_last_batch_may_pass_the_budget(self, monkeypatch):
        # 100,000 draws at rate 0.5677 expect 176,152 proposals.  Two batches
        # keep about 99,200 draws; the third passes the budget, and its draws
        # complete the run, which stops only when it is still short.
        cf = it.simple_collider(np.zeros(2))
        rate = 0.5 * (1.0 + math.exp(-2.0))
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", math.ceil(100_000 / rate))
        rows = batch_rows(sampling._UNIFORM_BLOCK, 2)
        for seed in range(10):
            sample = it.sample_collider_rejection(cf, 100_000, seed)
            assert sample.m == 100_000 and sample.meta["proposals"] == 3 * rows

    def test_no_prediction_above_the_enumeration_limit(self):
        n = sampling.ENUMERATION_LIMIT + 1
        sample = it.sample_collider_rejection(cause_only(np.zeros(n)), 5, seed=1)
        assert sample.meta["predicted_acceptance"] is None
        assert sample.meta["acceptance_rate"] == 1.0

    @pytest.mark.parametrize("width", range(1, 11))
    def test_alias_tables_draw_the_cause_marginals(self, width):
        rng = np.random.default_rng(width)
        for _ in range(3):
            delta = rng.uniform(-3.0, 3.0, width)
            prob, alias = sampling._alias_table(linear_table(delta))
            k = 1 << width
            implied = (prob + np.bincount(alias, weights=1.0 - prob, minlength=k)) / k
            _, marginals, _, _ = cause_block_alias(delta.tolist())
            npt.assert_allclose(implied, marginals, rtol=1e-12, atol=0.0)

    def test_partial_third_block_at_n_23(self, monkeypatch):
        # Blocks of 10, 10 and 3 causes, at an acceptance rate near 7e-3.
        rng = np.random.default_rng(23)
        spec = it.ModelSpec(rng.uniform(-0.5, 0.5, 23), 0.02 * (np.ones((23, 23)) - np.eye(23)))
        cf = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
        effects = rejection_effects(cf)
        for block in (1000, sampling._UNIFORM_BLOCK):
            monkeypatch.setattr(sampling, "_UNIFORM_BLOCK", block)
            rows = batch_rows(block, 23)
            for seed in range(2):
                long = it.sample_collider_rejection(cf, 300, seed)
                draws, meta = rejection_draws(cf.delta, effects, 300, seed, rows)
                assert np.array_equal(long.draws, draws)
                assert long.meta == {**meta, "predicted_acceptance": None}
                short = it.sample_collider_rejection(cf, 150, seed)
                assert np.array_equal(short.draws, long.draws[:150])
        # Two batches keep about 520 draws, short of 1000: the budget stops the run.
        rows = batch_rows(sampling._UNIFORM_BLOCK, 23)
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", rows + 1)
        with pytest.raises(RuntimeError) as ref:
            rejection_draws(cf.delta, effects, 1000, 0, rows, budget=rows + 1)
        kept, proposed = str(ref.value).split("/")
        assert proposed == str(2 * rows)
        with pytest.raises(
            it.ConditioningTooSevereError, match=rf"^{kept} of 1000 draws kept after {proposed} "
        ):
            it.sample_collider_rejection(cf, 1000, seed=0)

    def test_rank_zero_at_n_23_accepts_every_proposal(self):
        delta = np.random.default_rng(7).uniform(-1.0, 1.0, 23)
        rows = batch_rows(sampling._UNIFORM_BLOCK, 23)
        sample = it.sample_collider_rejection(cause_only(delta), rows, seed=3)
        assert sample.meta["accepted"] == sample.meta["proposals"] == rows
        draws, _ = rejection_draws(delta, [], rows, 3, rows)
        assert np.array_equal(sample.draws, draws)
        # Each cause keeps its own marginal, in the full blocks and the partial one.
        plus_rate = (sample.draws > 0).mean(axis=0)
        npt.assert_allclose(plus_rate, 1.0 / (1.0 + np.exp(-2.0 * delta)), atol=0.012)

    def test_working_memory_is_bounded(self):
        # This n = 10 model needs over a million proposals; blocks of
        # _UNIFORM_BLOCK uniforms (2 MiB of floats) keep the traced peak near
        # 5 MiB whatever m and the acceptance rate.
        spec = weak_spec(np.random.default_rng(5))
        cf = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
        tracemalloc.start()
        try:
            sample = it.sample_collider_rejection(cf, 20_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.meta["proposals"] > 1_000_000
        assert peak < 8 * 2**20


class TestLatentFirstSampler:
    def test_matches_marginal_table(self):
        lf = rank_one_form(2)
        sample = it.sample_latent_first(lf, it.QuadratureRule(), 50_000, seed=6)
        freq = it.empirical_frequencies(sample)
        agree = math.e**2 / (2.0 * math.e**2 + 2.0)
        assert agree == pytest.approx(0.4403985, abs=5e-8)
        assert freq[0] == pytest.approx(agree, abs=0.01)
        assert freq[3] == pytest.approx(agree, abs=0.01)
        marginal = it.mirt_marginal_pmf(lf)
        tv = 0.5 * np.abs(freq - marginal.probs).sum()
        assert tv < 0.015

    def test_zero_loading_gives_independent_coins(self):
        lf = it.LatentForm(
            delta=np.full(3, 0.5 * math.log(3.0)), loadings=np.zeros((3, 1))
        )
        sample = it.sample_latent_first(lf, it.QuadratureRule(), 40_000, seed=12)
        plus_rate = (sample.draws > 0).mean(axis=0)
        npt.assert_allclose(plus_rate, 0.75, atol=0.01)

    def test_deterministic(self):
        lf = rank_one_form(3)
        a = it.sample_latent_first(lf, it.QuadratureRule(), 400, seed=13)
        b = it.sample_latent_first(lf, it.QuadratureRule(), 400, seed=13)
        assert np.array_equal(a.draws, b.draws)
        assert a.meta == {"quad_nodes": 64}
        rule = it.QuadratureRule(32)
        assert it.sample_latent_first(lf, rule, 10, seed=0).meta == {"quad_nodes": 32}

    def test_sidecar_of_a_numpy_count_serializes(self, tmp_path):
        rule = it.QuadratureRule(np.int64(32))
        sample = it.sample_latent_first(rank_one_form(3), rule, 10, seed=0)
        it.save_sample_set(sample, tmp_path / "d.csv")
        assert it.load_sample_set(tmp_path / "d.csv").meta == {"quad_nodes": 32}

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_goodness_of_fit_to_the_network_table(self, rank):
        rng = np.random.default_rng(700 + rank)
        spec = low_rank_spec(rng, 8, rank, field_scale=0.5)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        assert lf.r == rank
        m = 40_000
        sample = it.sample_latent_first(lf, it.QuadratureRule(), m, seed=rank)
        counts = it.empirical_frequencies(sample) * m
        expected = m * it.ising_pmf(spec).probs
        assert pooled_chi_square_passes(counts, expected)

    def test_rank_limit_is_the_marginals(self, rng):
        spec = low_rank_spec(rng, 6, 4)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        with pytest.raises(it.RankLimitError) as marginal:
            it.mirt_marginal_pmf(lf)
        with pytest.raises(it.RankLimitError) as sampler:
            it.sample_latent_first(lf, it.QuadratureRule(), 10, seed=0)
        assert str(sampler.value) == str(marginal.value)
        assert str(sampler.value) == "tensor quadrature supports a latent rank of at most 3, got rank 4"

    def test_needs_no_item_limit(self):
        lf = it.LatentForm(delta=np.full(40, 0.3), loadings=np.full((40, 1), 0.1))
        sample = it.sample_latent_first(lf, it.QuadratureRule(), 50, seed=1)
        assert sample.draws.shape == (50, 40)

    @pytest.mark.parametrize("block", [7, 1000])
    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch, block):
        # A block of 2**30 uniforms holds every row: the whole (m, n) draw at once.
        rng = np.random.default_rng(31)
        lf = it.LatentForm(
            delta=rng.uniform(-0.5, 0.5, 5), loadings=rng.uniform(-0.5, 0.5, (5, 2))
        )
        monkeypatch.setattr(sampling, "_UNIFORM_BLOCK", 1 << 30)
        whole = it.sample_latent_first(lf, it.QuadratureRule(), 999, seed=4)
        monkeypatch.setattr(sampling, "_UNIFORM_BLOCK", block)
        blocked = it.sample_latent_first(lf, it.QuadratureRule(), 999, seed=4)
        assert np.array_equal(blocked.draws, whole.draws) and blocked.meta == whole.meta

    def test_working_memory_is_bounded(self):
        # 200k draws of 40 items are 7.6 MiB of int8; the item uniforms and
        # fields come in blocks of _UNIFORM_BLOCK floats (2 MiB), not (m, n).
        lf = it.LatentForm(delta=np.full(40, 0.3), loadings=np.full((40, 1), 0.1))
        tracemalloc.start()
        try:
            sample = it.sample_latent_first(lf, it.QuadratureRule(), 200_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.draws.shape == (200_000, 40)
        assert peak < 32 * 2**20

    def test_rank_three_draws_hold_only_the_kept_nodes(self):
        # The 128-node rank-3 grid has 2**21 nodes, most of them skipped by
        # the sweep; a full grid of their shares would be 16 MiB of floats.
        spec = low_rank_spec(np.random.default_rng(3), 10, 3)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        assert lf.r == 3
        tracemalloc.start()
        try:
            sample = it.sample_latent_first(lf, it.QuadratureRule(128), 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.draws.shape == (20_000, 10)
        assert peak < 24 * 2**20

    def test_certain_coins_draw_without_overflow(self):
        # Fields near +-1000 overflow exp(2 eta); the item conditional takes
        # its limit instead.  The two fields' magnitudes sum to 2000 at every
        # node, so the rule resolves the model exactly.
        lf = it.LatentForm(delta=np.array([1000.0, -1000.0]), loadings=np.full((2, 1), 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sample = it.sample_latent_first(lf, it.QuadratureRule(), 500, seed=2)
        assert (sample.draws == [1, -1]).all()

    def test_coarse_rule_rejected(self):
        lf = rank_one_form(2)
        rule = it.QuadratureRule(4)
        with pytest.raises(it.QuadratureResolutionError, match="refine") as sampler:
            it.sample_latent_first(lf, rule, 10, seed=0)
        with pytest.raises(it.QuadratureResolutionError, match="refine"):
            it.mirt_marginal_pmf(lf, rule)
        assert "deviates from 1 by more than 1e-06" in str(sampler.value)


class TestSampleIo:
    def test_round_trip(self, tmp_path):
        # Every sampler writes a method of `METHODS`, which the reader takes.
        spec = it.ModelSpec(delta=np.array([0.3, -0.2]), sigma=0.2 * (1 - np.eye(2)))
        form = it.to_spectral(spec)
        samples = [
            it.sample_exact(it.ising_pmf(spec), 120, seed=21),
            it.sample_gibbs(spec, 120, seed=21, burn_in=10),
            it.sample_collider_rejection(it.spectral_to_collider(form, spec.delta), 120, seed=21),
            it.sample_latent_first(
                it.LatentForm.from_spectral(form, spec.delta), it.QuadratureRule(), 120, seed=21
            ),
        ]
        assert tuple(sample.method for sample in samples) == sampling.METHODS
        for sample in samples:
            path = tmp_path / f"{sample.method}.csv"
            it.save_sample_set(sample, path)
            loaded = it.load_sample_set(path)
            assert np.array_equal(loaded.draws, sample.draws)
            assert loaded.seed == sample.seed
            assert loaded.method == sample.method
            assert loaded.meta == sample.meta

    def test_csv_and_sidecar_contents(self, tmp_path):
        pmf = it.ising_pmf(unit_coupling_spec(2))
        sample = it.sample_exact(pmf, 3, seed=0)
        path = tmp_path / "draws.csv"
        it.save_sample_set(sample, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_1,x_2"
        assert len(lines) == 4
        assert all(v in ("1", "-1") for line in lines[1:] for v in line.split(","))
        side = json.loads(it.sidecar_path(path).read_text())
        assert side["method"] == "exact"
        assert side["m"] == 3 and side["n"] == 2 and side["seed"] == 0

    # Widths around the 10-column text blocks, and a single draw.
    @pytest.mark.parametrize("n", [1, 9, 10, 11, 20, 21, 25])
    @pytest.mark.parametrize("m", [1, 333])
    def test_csv_matches_the_per_cell_reference(self, tmp_path, rng, n, m):
        draws = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
        sample = it.SampleSet(draws=draws, seed=5, method="exact")
        path = tmp_path / "draws.csv"
        it.save_sample_set(sample, path)
        assert path.read_text(encoding="utf-8") == sample_csv_text(draws.tolist())
        assert np.array_equal(it.load_sample_set(path).draws, draws)

    def test_draws_of_no_variables_are_refused_before_writing(self, tmp_path):
        # Their rows would be blank lines, which the loader refuses as empty.
        spec = it.ModelSpec(delta=np.zeros(0), sigma=np.zeros((0, 0)))
        sample = it.sample_gibbs(spec, 5, seed=0, burn_in=3)
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match="no variables"):
            it.save_sample_set(sample, path)
        assert not path.exists() and not it.sidecar_path(path).exists()

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "draws.csv"
        path.write_text("x_1,x_2\n1,-1\n")
        with pytest.raises(ValueError, match="sidecar"):
            it.load_sample_set(path)

    def test_draws_must_have_the_sidecar_shape(self, tmp_path):
        sample = it.sample_exact(it.ising_pmf(unit_coupling_spec(3)), 5, seed=0)
        path = tmp_path / "draws.csv"
        it.save_sample_set(sample, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(ValueError, match="holds 2 x 3 draws, but its sidecar records 5 x 3"):
            it.load_sample_set(path)
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        with pytest.raises(ValueError, match="holds 5 x 2 draws, but its sidecar records 5 x 3"):
            it.load_sample_set(path)

    # None writes a sidecar that is not a JSON object at all.
    @pytest.mark.parametrize("field", ["seed", "method", None])
    def test_sidecar_must_name_seed_and_method(self, tmp_path, field):
        path = tmp_path / "draws.csv"
        it.save_sample_set(it.sample_exact(it.ising_pmf(unit_coupling_spec(2)), 3, seed=0), path)
        side = json.loads(it.sidecar_path(path).read_text())
        side.pop(field, None)
        it.sidecar_path(path).write_text(json.dumps(side if field else 3))
        with pytest.raises(ValueError, match=f"has no '{field or 'seed'}' field"):
            it.load_sample_set(path)

    @pytest.mark.parametrize(
        "field, value",
        [("meta", 5), ("meta", None), ("meta", [1, 2]), ("seed", None), ("seed", [1]),
         ("seed", 1.5), ("seed", "7"), ("seed", True), ("method", None), ("method", 5),
         ("method", ["x"]), ("method", "bogus"), ("m", True), ("m", 1.0), ("n", 2.0)],
    )
    def test_sidecar_fields_must_have_their_json_types(self, tmp_path, field, value):
        # One draw of two variables: an "m" of true or 1.0 and an "n" of 2.0
        # compare equal to the shape of the draws.
        path = tmp_path / "draws.csv"
        it.save_sample_set(it.sample_exact(it.ising_pmf(unit_coupling_spec(2)), 1, seed=0), path)
        side = json.loads(it.sidecar_path(path).read_text())
        side[field] = value
        it.sidecar_path(path).write_text(json.dumps(side))
        words = {"meta": "meta must be a dict", "method": "method must be one of",
                 "seed": "seed must be an integer"}.get(field, f"has a non-integer '{field}' field")
        with pytest.raises(ValueError, match=re.escape(words)) as exc:
            it.load_sample_set(path)
        assert str(it.sidecar_path(path)) in str(exc.value)

    def test_headers_only_file(self, tmp_path):
        path = tmp_path / "draws.csv"
        path.write_text("x_1,x_2\n")
        it.sidecar_path(path).write_text('{"method": "exact", "seed": 0}')
        with pytest.raises(ValueError, match="no rows"):
            it.load_sample_set(path)

    def test_rows_narrower_than_the_header_are_refused(self, tmp_path):
        # These two-column rows under a three-column header loaded as 2-column draws.
        path = tmp_path / "draws.csv"
        path.write_text(CSV_CASES["header mismatch"])
        it.sidecar_path(path).write_text('{"method": "exact", "seed": 0}')
        with pytest.raises(
            ValueError, match=f"^data file {re.escape(str(path))} rows do not match its header "
            "of 3 columns$",
        ):
            it.load_sample_set(path)


# CSV inputs at the edges of what the per-cell readers accepted.
CSV_CASES = {
    "plain": "x_1,x_2\n1,-1\n-1,1\n",
    "single column": "x_1\n1\n-1\n",
    "single row": "x_1,x_2,x_3\n1,-1,1\n",
    "blank line": "x_1,x_2\n1,-1\n\n-1,1\n",
    "blank line of spaces": "x_1,x_2\n1,-1\n  \n-1,1\n",
    "blank lines around": "\n\nx_1,x_2\n1,-1\n\n\n",
    "hash after a cell": "x_1,x_2\n1,-1 # note\n",
    "hash line": "x_1,x_2\n# note\n1,-1\n",
    "hash header": "#x_1,x_2\n1,-1\n",
    "leading space": "x_1,x_2\n 1,-1\n",
    "tab": "x_1,x_2\n\t1,-1 \n",
    "plus sign": "x_1,x_2\n+1,-1\n",
    "decimal": "x_1,x_2\n1.0,-1\n",
    "exponent": "x_1,x_2\n1e0,-1\n",
    "nan": "x_1,x_2\nnan,1\n",
    "inf": "x_1,x_2\n-inf,1\n",
    "two": "x_1,x_2\n2,1\n",
    "out of int8": "x_1,x_2\n300,1\n",
    "word": "x_1,x_2\n1,up\n",
    "trailing comma": "x_1,x_2\n1,-1,\n",
    "empty cell": "x_1,x_2\n1,,-1\n",
    "ragged": "x_1,x_2\n1,-1\n1\n",
    "header mismatch": "x_1,x_2,x_3\n1,-1\n-1,1\n",
    "CRLF": "x_1,x_2\r\n1,-1\r\n-1,1\r\n",
    "CR": "x_1,x_2\r1,-1\r-1,1\r",
    "weight column": "x_1,x_2,weight\n1,-1,0.25\n-1,1,0.75\n",
    "weight column, CRLF": "x_1,x_2,Weight \r\n1,-1,0.25\r\n-1,1,0.75\r\n",
    "repeated lines": "x_1,x_2,x_3\n1,-1,1\n-1,1,1\n1,-1,1\n1,-1,1\n-1,-1,-1\n-1,1,1\n",
    "distinct lines": "x_1,x_2\n1,-1\n-1,1\n1,1\n-1,-1\n",
    "repeated weight column": "x_1,x_2,weight\n1,-1,0.25\n-1,1,0.5\n1,-1,0.25\n1,-1,0.125\n",
    "repeated CRLF": "x_1,x_2\r\n1,-1\r\n-1,1\r\n1,-1\r\n1,-1\r\n",
    "blank CRLF line": "x_1,x_2\r\n1,-1\r\n\r\n1,-1\r\n-1,1\r\n",
    "repeated word": "x_1,x_2\n1,-1\n1,-1\n-1,1\n1,-1\n1,up\n",
    "repeated ragged": "x_1,x_2\n1,-1\n-1,1\n1,-1\n-1\n",
    "empty": "",
    "spaces only": "  \n \n",
    "header only": "x_1,x_2\n",
}


def outcome(read, path):
    """The reader's arrays, or the part of its message before any colon."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc).split(":")[0]


def same_outcome(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if not isinstance(want, tuple):
        return not isinstance(got, tuple) and np.array_equal(got, want, equal_nan=True)
    return isinstance(got, tuple) and all(
        np.array_equal(g, np.asarray(w, dtype=float), equal_nan=True) for g, w in zip(got, want)
    )


def per_line_table(path, dtype):
    """`read_csv_table` as one `np.loadtxt` call over every line after the header."""
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    if lines == [""] or len(lines) < 2:
        raise ValueError("no rows")
    try:
        if "" in lines:
            raise ValueError("blank line")
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, dtype=dtype, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"data file {path} has a malformed row: {exc}") from exc
    width = len(lines[0].split(","))
    if table.shape[1] != width:
        raise ValueError(f"data file {path} rows do not match its header of {width} columns")
    return table


def fit_reference(path):
    rows, weights = read_config_table(path)
    return np.array(rows) if weights is None else (rows, weights)


def load_reference(path):
    return it.SampleSet(draws=np.array(read_sample_draws(path)), seed=0, method="exact").draws


def load_draws(path):
    it.sidecar_path(path).write_text('{"method": "exact", "seed": 0}', encoding="utf-8")
    return it.load_sample_set(path).draws


class TestCsvReaders:
    """`fit`'s reader and `load_sample_set` against their per-cell references."""

    @pytest.mark.parametrize("name", CSV_CASES)
    def test_fit_reader_agrees_with_the_per_cell_reader(self, tmp_path, name):
        path = tmp_path / "data.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        want = outcome(fit_reference, path)
        assert same_outcome(outcome(_read_config_table, path), want)

    @pytest.mark.parametrize("name", CSV_CASES)
    def test_sample_loader_agrees_with_the_per_cell_loader(self, tmp_path, name):
        path = tmp_path / "draws.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        want = outcome(load_reference, path)
        got = outcome(load_draws, path)
        # Both reject the same files; only the loader's messages changed wording.
        assert isinstance(got, str) == isinstance(want, str)
        if not isinstance(want, str):
            assert np.array_equal(got, want)

    # Tables are compared by value and dtype; a refused file must give the
    # message of the per-line parse, whose row numbers count the file's rows.
    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    @pytest.mark.parametrize("name", CSV_CASES)
    def test_reader_equals_a_per_line_loadtxt(self, tmp_path, name, dtype):
        path = tmp_path / "data.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        try:
            want = per_line_table(path, dtype)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                sampling.read_csv_table(path, dtype)
            assert str(exc) == "no rows" or str(got.value) == str(exc)
            return
        got = sampling.read_csv_table(path, dtype)[1]
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)

    def test_malformed_row_counts_the_files_own_rows(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_bytes(CSV_CASES["repeated word"].encode("utf-8"))
        message = "could not convert string 'up' to float64 at row 4, column 2."
        with pytest.raises(ValueError, match=re.escape(f"malformed row: {message}") + "$"):
            sampling.read_csv_table(path, np.float64)
        assert main(["fit", str(path), "--out", str(tmp_path / "fit.json")]) == 2
        assert capsys.readouterr().err.rstrip().endswith(message)
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "name, code, words",
        [("empty", 2, "empty"), ("header only", 2, "no rows"), ("word", 2, "malformed row"),
         ("blank line", 2, "malformed row"), ("hash line", 2, "malformed row"),
         ("ragged", 2, "malformed row"), ("header mismatch", 2, "do not match its header"),
         ("nan", 2, "exactly +1 or -1"), ("weight column, CRLF", 0, "after 5 iterations")],
    )
    def test_fit_command_exit_codes(self, tmp_path, capsys, name, code, words):
        path = tmp_path / "data.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        out = str(tmp_path / "fit.json")
        assert main(["fit", str(path), "--out", out, "--max-iter", "5"]) == code
        assert words in capsys.readouterr()[1 if code else 0]

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.lists(
                st.sampled_from(["1", "-1", " 1", "+1", "1.0", "nan", "#", "", "x", "2", "-1 "]),
                min_size=1, max_size=3,
            ),
            min_size=0, max_size=4,
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
        weight=st.booleans(),
    )
    def test_readers_agree_on_generated_files(self, tmp_path_factory, cells, newline, weight):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        header = "x_1,x_2" + (",weight" if weight else "")
        lines = [header] + [",".join(row) for row in cells]
        path.write_bytes(newline.join(lines).encode("utf-8"))
        assert same_outcome(outcome(_read_config_table, path), outcome(fit_reference, path))
        want, got = outcome(load_reference, path), outcome(load_draws, path)
        assert isinstance(got, str) == isinstance(want, str)
        if not isinstance(want, str):
            assert np.array_equal(got, want)
