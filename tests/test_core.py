import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ising_trinity as it
from conftest import random_spec
from ising_trinity._enum import encode_configs
from oracles import all_configs, curie_weiss_table, ising_log_weight, ising_table, table_moments


def spec_n2(s12: float, d=(0.0, 0.0)) -> it.ModelSpec:
    return it.ModelSpec(delta=np.array(d), sigma=np.array([[0.0, s12], [s12, 0.0]]))


class TestModelSpec:
    def test_symmetrizes_and_freezes(self):
        spec = spec_n2(0.5)
        assert spec.n == 2
        assert not spec.sigma.flags.writeable
        assert not spec.delta.flags.writeable

    def test_asymmetric_sigma_rejected_with_indices(self):
        sigma = np.array([[0.0, 0.3], [0.0, 0.0]])
        with pytest.raises(it.SpecValidationError) as err:
            it.ModelSpec(delta=np.zeros(2), sigma=sigma)
        assert str(err.value) == (
            "sigma is not symmetric: sigma[0][1] = 0.3 but sigma[1][0] = 0.0 "
            "(difference 0.3 exceeds 1e-12)"
        )

    def test_tiny_asymmetry_tolerated(self):
        sigma = np.array([[0.0, 0.5], [0.5 + 1e-13, 0.0]])
        spec = it.ModelSpec(delta=np.zeros(2), sigma=sigma)
        assert spec.sigma[0, 1] == spec.sigma[1, 0]

    def test_symmetrizing_does_not_overflow(self):
        spec = spec_n2(1e308)
        assert spec.sigma[0, 1] == spec.sigma[1, 0] == 1e308

    def test_shape_mismatch(self):
        with pytest.raises(it.DimensionMismatchError):
            it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            it.ModelSpec(delta=np.array([np.nan]), sigma=np.zeros((1, 1)))

    def test_extra_shift_is_a_float_defaulting_to_zero(self):
        assert spec_n2(0.5).extra_shift == 0.0
        shifted = it.ModelSpec(np.zeros(2), np.zeros((2, 2)), 2)
        assert type(shifted.extra_shift) is float and shifted.extra_shift == 2.0

    @pytest.mark.parametrize(
        "shift, message",
        [
            (-1.0, "extra_shift must be non-negative, got -1.0"),
            ("big", "extra_shift must be a number, got 'big'"),
            (True, "extra_shift must be a number, got True"),
            (math.inf, "extra_shift must be finite, got inf"),
        ],
    )
    def test_extra_shift_rejected_before_symmetry(self, shift, message):
        sigma = np.array([[0.0, 0.3], [0.0, 0.0]])
        with pytest.raises(it.SpecValidationError) as err:
            it.ModelSpec(delta=np.zeros(2), sigma=sigma, extra_shift=shift)
        assert str(err.value) == message

    def test_diagonal_is_dropped(self):
        base = spec_n2(math.log(2.0))
        shifted = it.ModelSpec(
            delta=base.delta, sigma=base.sigma + np.diag([3.0, -1.5])
        )
        assert shifted.sigma[0, 0] == 0.0
        npt.assert_array_equal(shifted.sigma, base.sigma)
        a, b = it.ising_pmf(base), it.ising_pmf(shifted)
        npt.assert_array_equal(a.probs, b.probs)
        assert a.log_z == b.log_z


class TestLogWeight:
    """The table's log weights, ``log p(x) + log_z``, at hand-computed values."""

    @staticmethod
    def log_weight(spec, x):
        pmf = it.ising_pmf(spec)
        return math.log(pmf.probs[encode_configs(x)]) + pmf.log_z

    def test_zero_spec(self):
        assert self.log_weight(spec_n2(0.0), [1, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_single_pair(self):
        spec = spec_n2(math.log(2.0))
        assert self.log_weight(spec, [1, 1]) == pytest.approx(math.log(2.0), abs=1e-15)
        assert self.log_weight(spec, [1, -1]) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_field_only(self):
        spec = it.ModelSpec(delta=np.array([1.5]), sigma=np.zeros((1, 1)))
        assert self.log_weight(spec, [-1]) == pytest.approx(-1.5, abs=1e-15)


class TestIsingPmf:
    def test_log2_coupling_table(self):
        pmf = it.ising_pmf(spec_n2(math.log(2.0)))
        npt.assert_allclose(pmf.probs, [0.4, 0.1, 0.1, 0.4], atol=1e-15)
        assert pmf.log_z == pytest.approx(math.log(5.0), abs=1e-12)

    def test_zero_spec_uniform(self):
        pmf = it.ising_pmf(it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((3, 3))))
        npt.assert_allclose(pmf.probs, np.full(8, 0.125), atol=1e-15)

    def test_single_variable(self):
        pmf = it.ising_pmf(
            it.ModelSpec(delta=np.array([0.5 * math.log(3.0)]), sigma=np.zeros((1, 1)))
        )
        npt.assert_allclose(pmf.probs, [0.25, 0.75], atol=1e-15)

    def test_against_brute_force(self, rng):
        for n in range(1, 7):
            for _ in range(4):
                spec = random_spec(rng, n)
                pmf = it.ising_pmf(spec)
                oracle = ising_table(spec.delta.tolist(), spec.sigma.tolist())
                npt.assert_allclose(pmf.probs, oracle, atol=1e-12)

    def test_weight_normalizer_consistency(self, rng):
        spec = random_spec(rng, 5)
        pmf = it.ising_pmf(spec)
        delta, sigma = spec.delta.tolist(), spec.sigma.tolist()
        for k, x in enumerate(all_configs(5)):
            expected = math.exp(ising_log_weight(delta, sigma, x) - pmf.log_z)
            assert abs(pmf.probs[k] - expected) <= 1e-12

    def test_enumeration_limit(self):
        spec = it.ModelSpec(delta=np.zeros(21), sigma=np.zeros((21, 21)))
        with pytest.raises(it.EnumerationLimitError, match="too large"):
            it.ising_pmf(spec)


class TestCurieWeiss:
    def test_two_variable_closed_form(self):
        pmf = it.curie_weiss_pmf(2, np.zeros(2))
        agree = math.e**2 / (2.0 * math.e**2 + 2.0)
        mixed = 1.0 / (2.0 * math.e**2 + 2.0)
        npt.assert_allclose(pmf.probs, [agree, mixed, mixed, agree], atol=1e-15)

    def test_three_variable_closed_form(self):
        pmf = it.curie_weiss_pmf(3, np.zeros(3))
        z = 2.0 * math.exp(4.5) + 6.0 * math.exp(0.5)
        assert pmf.probs[0] == pytest.approx(math.exp(4.5) / z, abs=1e-15)
        assert pmf.probs[7] == pytest.approx(math.exp(4.5) / z, abs=1e-15)
        assert pmf.probs[1] == pytest.approx(math.exp(0.5) / z, abs=1e-15)

    def test_single_variable_is_field_only(self):
        pmf = it.curie_weiss_pmf(1, np.array([0.3]))
        base = it.ising_pmf(it.ModelSpec(delta=np.array([0.3]), sigma=np.zeros((1, 1))))
        npt.assert_allclose(pmf.probs, base.probs, atol=1e-15)

    def test_equals_unit_coupling_ising(self, rng):
        for n in range(2, 7):
            delta = rng.uniform(-1.0, 1.0, n)
            sigma = np.ones((n, n))
            np.fill_diagonal(sigma, 0.0)
            cw = it.curie_weiss_pmf(n, delta)
            net = it.ising_pmf(it.ModelSpec(delta=delta, sigma=sigma))
            assert it.pmf_distance(cw, net).max_abs <= 1e-12
            # The exchangeable weight exceeds the pair-sum weight by n/2.
            assert cw.log_z - net.log_z == pytest.approx(n / 2.0, abs=1e-12)

    def test_against_brute_force(self, rng):
        delta = rng.uniform(-1.0, 1.0, 4)
        pmf = it.curie_weiss_pmf(4, delta)
        npt.assert_allclose(pmf.probs, curie_weiss_table(delta.tolist()), atol=1e-12)


class TestPmfType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            it.Pmf(np.array([1.5, -0.5]), 0.0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            it.Pmf(np.array([0.6, 0.6]), 0.0)

    def test_rejects_wrong_size(self):
        with pytest.raises(it.DimensionMismatchError, match="3 entries, not a power of two"):
            it.Pmf(np.full(3, 1.0 / 3.0), 0.0)
        with pytest.raises(it.DimensionMismatchError, match="0 entries"):
            it.Pmf(np.zeros(0), 0.0)

    @pytest.mark.parametrize("est", [-1e-17, 1.5, np.inf, np.nan])
    def test_rejects_error_estimate_outside_zero_to_one(self, est):
        with pytest.raises(ValueError, match=r"error estimate must lie in \[0, 1\], got "):
            it.Pmf(np.array([0.5, 0.5]), 0.0, est)
        assert it.Pmf(np.array([0.5, 0.5]), 0.0, 1.0).error_estimate == 1.0

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_n_follows_from_the_size(self, n):
        assert it.Pmf(np.full(1 << n, 1.0 / (1 << n)), 0.0).n == n


class TestPmfDistance:
    def test_identical_tables(self):
        pmf = it.ising_pmf(spec_n2(math.log(2.0)))
        d = it.pmf_distance(pmf, pmf)
        assert (d.tv, d.max_abs) == (0.0, 0.0)

    def test_uniform_vs_log2_table(self):
        uniform = it.Pmf(np.full(4, 0.25), math.log(4.0))
        skewed = it.ising_pmf(spec_n2(math.log(2.0)))
        d = it.pmf_distance(uniform, skewed)
        assert d.tv == pytest.approx(0.3, abs=1e-12)
        assert d.max_abs == pytest.approx(0.15, abs=1e-12)

    def test_single_variable_tv(self):
        a = it.Pmf(np.array([0.5, 0.5]), math.log(2.0))
        b = it.Pmf(np.array([0.25, 0.75]), 0.0)
        assert it.pmf_distance(a, b).tv == pytest.approx(0.25, abs=1e-15)

    # n = 20 sums 32 blocks, folded pairwise.
    @pytest.mark.parametrize("n", [1, 5, 11, 16, 20])
    def test_tv_and_max_abs_are_the_plain_sums(self, rng, n):
        a = it.ising_pmf(random_spec(rng, n))
        b = it.ising_pmf(random_spec(rng, n))
        d = it.pmf_distance(a, b)
        assert d.tv == 0.5 * np.sum(np.abs(a.probs - b.probs))
        assert d.max_abs == np.abs(a.probs - b.probs).max()

    def test_size_mismatch(self):
        a = it.Pmf(np.array([0.5, 0.5]), 0.0)
        b = it.Pmf(np.full(4, 0.25), 0.0)
        with pytest.raises(it.DimensionMismatchError):
            it.pmf_distance(a, b)


class TestMoments:
    def test_log2_coupling_moments(self):
        first, second = it.pmf_moments(it.ising_pmf(spec_n2(math.log(2.0))))
        npt.assert_allclose(first, [0.0, 0.0], atol=1e-15)
        assert second[0, 1] == pytest.approx(0.6, abs=1e-15)

    def test_against_brute_force(self, rng):
        spec = random_spec(rng, 4)
        pmf = it.ising_pmf(spec)
        first, second = it.pmf_moments(pmf)
        o_first, o_second = table_moments(pmf.probs.tolist(), 4)
        npt.assert_allclose(first, o_first, atol=1e-12)
        npt.assert_allclose(second, o_second, atol=1e-12)


def test_permutation_equivariance(rng):
    n = 5
    spec = random_spec(rng, n)
    perm = rng.permutation(n)
    permuted = it.ModelSpec(
        delta=spec.delta[perm], sigma=spec.sigma[np.ix_(perm, perm)]
    )
    base = it.ising_pmf(spec)
    moved = it.ising_pmf(permuted)
    weights = 1 << np.arange(n, dtype=np.int64)
    for k2 in range(1 << n):
        bits2 = (k2 >> np.arange(n)) & 1
        bits1 = np.zeros(n, dtype=np.int64)
        bits1[perm] = bits2
        k1 = int(bits1 @ weights)
        assert abs(moved.probs[k2] - base.probs[k1]) <= 1e-14


@st.composite
def small_specs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    delta = np.array([draw(floats) for _ in range(n)])
    sigma = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sigma[i, j] = sigma[j, i] = draw(floats)
    return it.ModelSpec(delta=delta, sigma=sigma)


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(), diag=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_diagonal_shift_never_matters(spec, diag):
    shifted = it.ModelSpec(
        delta=spec.delta, sigma=spec.sigma + np.diag(diag[: spec.n])
    )
    a, b = it.ising_pmf(spec), it.ising_pmf(shifted)
    assert it.pmf_distance(a, b).max_abs <= 1e-12
    assert a.log_z == pytest.approx(b.log_z, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(spec=small_specs())
def test_pair_sum_matches_matrix_form(spec):
    pmf = it.ising_pmf(spec)
    delta, sigma = spec.delta.tolist(), spec.sigma.tolist()
    for k, x in enumerate(all_configs(spec.n)):
        loop_weight = ising_log_weight(delta, sigma, x)
        assert abs(math.exp(loop_weight - pmf.log_z) - pmf.probs[k]) <= 1e-12


class TestDeltaShape:
    """Every builder that takes intercepts beside a form checks them the same way."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda form, d: it.spectral_pmf(form, d),
            lambda form, d: it.spectral_to_collider(form, d),
            lambda form, d: it.LatentForm.from_spectral(form, d),
            lambda form, d: it.curie_weiss_pmf(2, d),
        ],
    )
    def test_length_mismatch_message(self, call):
        form = it.to_spectral(spec_n2(0.5))
        with pytest.raises(it.DimensionMismatchError) as err:
            call(form, np.zeros(3))
        assert str(err.value) == "delta has shape (3,), expected (2,)"

    def test_non_finite_entry_message(self):
        with pytest.raises(ValueError) as err:
            it.curie_weiss_pmf(2, [0.0, math.nan])
        assert type(err.value) is ValueError
        assert str(err.value) == "delta contains non-finite entries"
