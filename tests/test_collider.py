import math

import numpy as np
import numpy.testing as npt
import pytest

import ising_trinity as it
from conftest import cause_only, effect_pairs, low_rank_spec, random_spec
from oracles import cause_table, conditioned_collider_table, effect_sup_by_scan


def acceptance(cf: it.ColliderForm) -> np.ndarray:
    """Each cause configuration's chance that every effect is present, from the tables.

    By Bayes, ``P(effects | x) = P(x | effects) P(effects) / P(x)``, and the
    conditioned table's ``log_z`` is ``log P(effects)``.
    """
    cond = it.conditioned_pmf(cf)
    return cond.probs * math.exp(cond.log_z) / it.cause_marginal_pmf(cf).probs


class TestColliderEffect:
    """Effect ``k`` of a `ColliderForm`: strength ``lams[k]``, unit direction ``dirs[:, k]``."""

    def test_sup_closed_form_matches_brute_scan(self, rng):
        for n in (2, 4, 6):
            for r in (1, 3):
                dirs = rng.normal(size=(n, r))
                dirs /= np.linalg.norm(dirs, axis=0)
                lams = rng.uniform(0.1, 4.0, r)
                cf = it.ColliderForm(delta=np.zeros(n), lams=lams, dirs=dirs)
                for (lam, q), sup in zip(effect_pairs(cf), cf.log_sups):
                    assert sup == pytest.approx(effect_sup_by_scan(lam, q), rel=1e-12)

    def test_sups_sum_each_column_as_its_own_vector(self, rng):
        # Rejection draws depend on these bits.  Summing the matrix down its
        # rows instead adds them one after another, not in numpy's pairwise
        # blocks, and moves the last bit of some columns from n = 9 on.
        for n in range(9, 21):
            dirs = rng.normal(size=(n, 3))
            dirs /= np.linalg.norm(dirs, axis=0)
            cf = it.ColliderForm(delta=np.zeros(n), lams=rng.uniform(0.1, 4.0, 3), dirs=dirs)
            sups = [0.5 * lam * np.abs(np.array(q)).sum() ** 2 for lam, q in effect_pairs(cf)]
            assert cf.log_sups.tolist() == sups

    def test_sup_with_zero_entries(self):
        # A zero entry contributes nothing in either direction.
        q = [0.6, 0.0, -0.8]
        cf = it.ColliderForm(delta=np.zeros(3), lams=[1.0], dirs=np.array([q]).T)
        assert cf.log_sups[0] == pytest.approx(0.5 * 1.4**2, abs=1e-14)
        assert cf.log_sups[0] == pytest.approx(effect_sup_by_scan(1.0, q), abs=1e-14)

    def test_non_unit_direction_rejected(self):
        dirs = np.array([[1.0, 0.6], [0.0, -0.8], [0.0, 0.1]])
        with pytest.raises(ValueError, match="unit"):
            it.ColliderForm(delta=np.zeros(3), lams=[1.0, 1.0], dirs=dirs)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            it.ColliderForm(delta=np.zeros(1), lams=[-0.5], dirs=[[1.0]])

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_strength_rejected(self, lam):
        with pytest.raises(ValueError, match="lams contains non-finite"):
            it.ColliderForm(delta=np.zeros(1), lams=[lam], dirs=[[1.0]])

    @pytest.mark.parametrize(
        "lams, dirs", [([1.0], np.eye(3)[:, :2]), ([1.0, 1.0], np.eye(2)), ([1.0], np.ones(3))]
    )
    def test_shape_mismatch_rejected(self, lams, dirs):
        with pytest.raises(it.DimensionMismatchError):
            it.ColliderForm(delta=np.zeros(3), lams=lams, dirs=dirs)


class TestSimpleCollider:
    def test_two_cause_parts(self):
        cf = it.simple_collider(np.zeros(2))
        assert cf.r == 1
        assert cf.lams.tolist() == [2.0]
        npt.assert_allclose(cf.dirs, np.full((2, 1), 1.0 / math.sqrt(2.0)), atol=1e-15)
        assert cf.log_sups[0] == pytest.approx(2.0, abs=1e-14)

    def test_acceptance_values(self):
        # Index 1 is x = (1, -1), index 3 is x = (1, 1).
        acc = acceptance(it.simple_collider(np.zeros(2)))
        assert acc[1] == pytest.approx(math.exp(-2.0), abs=1e-14)
        assert acc[3] == pytest.approx(1.0, abs=1e-14)

    def test_single_cause_conditioning_is_vacuous(self):
        cf = it.simple_collider(np.array([0.3]))
        cond = it.conditioned_pmf(cf)
        marg = it.cause_marginal_pmf(cf)
        assert it.pmf_distance(cond, marg).max_abs <= 1e-15
        assert cond.log_z == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            it.simple_collider(np.zeros(0))


class TestEffectAcceptance:
    def test_tilted_direction_example(self):
        cf = it.ColliderForm(delta=np.zeros(2), lams=[1.0], dirs=[[0.6], [-0.8]])
        acc = acceptance(cf)
        assert acc[1] == pytest.approx(1.0, abs=1e-14)
        assert acc[3] == pytest.approx(math.exp(0.5 * 0.04 - 0.98), abs=1e-14)

    def test_always_in_unit_interval(self, rng):
        spec = low_rank_spec(rng, 5, 3)
        acc = acceptance(it.spectral_to_collider(it.to_spectral(spec), spec.delta))
        assert np.all(acc > 0.0) and np.all(acc <= 1.0 + 1e-15)


class TestCauseMarginal:
    def test_zero_field_is_uniform(self):
        cf = it.simple_collider(np.zeros(3))
        npt.assert_allclose(it.cause_marginal_pmf(cf).probs, np.full(8, 0.125), atol=1e-15)

    def test_single_cause_three_quarters(self):
        cf = it.simple_collider(np.array([0.5 * math.log(3.0)]))
        npt.assert_allclose(it.cause_marginal_pmf(cf).probs, [0.25, 0.75], atol=1e-15)

    def test_matches_oracle_and_factorized_normalizer(self, rng):
        delta = rng.uniform(-1.0, 1.0, 5)
        cf = cause_only(delta)
        pmf = it.cause_marginal_pmf(cf)
        npt.assert_allclose(pmf.probs, cause_table(delta.tolist()), atol=1e-12)
        assert pmf.log_z == pytest.approx(
            float(np.log(2.0 * np.cosh(delta)).sum()), abs=1e-12
        )

    def test_causes_are_uncorrelated(self, rng):
        delta = rng.uniform(-1.0, 1.0, 5)
        cf = cause_only(delta)
        first, second = it.pmf_moments(it.cause_marginal_pmf(cf))
        cov = second - np.outer(first, first)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 1e-14


class TestColliderJoint:
    """``P(x, effect)`` of causes ``x = (1, -1)``, index 1, from the tables."""

    def test_effect_absent_example(self):
        cf = it.simple_collider(np.zeros(2))
        cond = it.conditioned_pmf(cf)
        got = it.cause_marginal_pmf(cf).probs[1] - cond.probs[1] * math.exp(cond.log_z)
        assert got == pytest.approx(0.25 * (1.0 - math.exp(-2.0)), abs=1e-14)
        assert got == pytest.approx(0.216166, abs=5e-7)

    def test_effect_present_example(self):
        cond = it.conditioned_pmf(it.simple_collider(np.zeros(2)))
        assert cond.probs[1] * math.exp(cond.log_z) == pytest.approx(
            0.25 * math.exp(-2.0), abs=1e-14
        )


class TestConditionedPmf:
    def test_reproduces_exchangeable_table(self):
        cond = it.conditioned_pmf(it.simple_collider(np.zeros(2)))
        agree = math.e**2 / (2.0 * math.e**2 + 2.0)
        mixed = 1.0 / (2.0 * math.e**2 + 2.0)
        npt.assert_allclose(cond.probs, [agree, mixed, mixed, agree], atol=1e-14)

    def test_log_z_is_log_acceptance_probability(self):
        cond = it.conditioned_pmf(it.simple_collider(np.zeros(2)))
        expected = 0.25 * (2.0 + 2.0 * math.exp(-2.0))
        assert cond.log_z == pytest.approx(math.log(expected), abs=1e-12)
        assert expected == pytest.approx(0.567668, abs=5e-7)

    def test_matches_brute_oracle_with_scanned_sup(self, rng):
        spec = low_rank_spec(rng, 5, 2)
        cf = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
        table, accept = conditioned_collider_table(
            cf.delta.tolist(),
            effect_pairs(cf),
        )
        cond = it.conditioned_pmf(cf)
        npt.assert_allclose(cond.probs, table, atol=1e-12)
        assert cond.log_z == pytest.approx(math.log(accept), abs=1e-12)

    def test_no_effects_means_no_conditioning(self, rng):
        delta = rng.uniform(-1.0, 1.0, 4)
        cf = cause_only(delta)
        cond = it.conditioned_pmf(cf)
        marg = it.cause_marginal_pmf(cf)
        assert it.pmf_distance(cond, marg).max_abs <= 1e-15
        assert cond.log_z == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_from_network_form(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            spec = random_spec(rng, n)
            cf = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
            cond = it.conditioned_pmf(cf)
            net = it.ising_pmf(spec)
            assert it.pmf_distance(cond, net).tv <= 1e-12

    def test_conditioning_creates_positive_dependence(self):
        cond = it.conditioned_pmf(it.simple_collider(np.zeros(4)))
        first, second = it.pmf_moments(cond)
        npt.assert_allclose(first, np.zeros(4), atol=1e-14)
        off = second - np.diag(np.diag(second))
        assert np.all(off[np.triu_indices(4, k=1)] > 0.1)


class TestSpectralToCollider:
    def test_positive_pair_coupling_parts(self):
        spec = it.ModelSpec(delta=np.zeros(2), sigma=np.array([[0.0, 1.0], [1.0, 0.0]]))
        cf = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
        assert cf.r == 1
        assert cf.lams[0] == pytest.approx(2.0, abs=1e-14)
        npt.assert_allclose(cf.dirs, np.full((2, 1), 1.0 / math.sqrt(2.0)), atol=1e-14)
        assert cf.log_sups[0] == pytest.approx(2.0, abs=1e-13)

    def test_effect_count_matches_rank(self, rng):
        spec = low_rank_spec(rng, 7, 3)
        cf = it.spectral_to_collider(it.to_spectral(spec), spec.delta)
        assert cf.r == 3

    def test_delta_shape_guard(self, rng):
        form = it.to_spectral(random_spec(rng, 3))
        with pytest.raises(it.DimensionMismatchError):
            it.spectral_to_collider(form, np.zeros(4))


class TestStackedEffects:
    def test_no_effects(self):
        cf = cause_only(np.zeros(3))
        assert cf.r == 0
        assert cf.lams.shape == cf.log_sups.shape == (0,)
