import json
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ising_trinity as it
from conftest import random_spec
from ising_trinity import estimation
from ising_trinity._enum import encode_configs
from ising_trinity.estimation import _distinct_configs
from oracles import all_configs, pseudo_loglik_and_grad, pseudo_loglik_hessian

ORACLE_TOL = 1e-12


def max_param_error(spec_hat: it.ModelSpec, spec: it.ModelSpec) -> float:
    return max(
        float(np.abs(spec_hat.delta - spec.delta).max()),
        float(np.abs(spec_hat.sigma - spec.sigma).max()),
    )


def pack_params(spec: it.ModelSpec) -> np.ndarray:
    iu = np.triu_indices(spec.n, k=1)
    return np.concatenate((spec.delta, spec.sigma[iu]))


def spec_from_vec(vec: np.ndarray, n: int) -> it.ModelSpec:
    sigma = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    sigma[iu] = vec[n:]
    sigma += sigma.T
    return it.ModelSpec(delta=vec[:n], sigma=sigma)


def package_hessian(spec: it.ModelSpec, data) -> np.ndarray:
    return -estimation._neg_hessian(pack_params(spec), *_distinct_configs(data, spec.n))


def random_weighted_rows(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    m = int(rng.integers(1, 40))
    return np.where(rng.random((m, n)) < 0.5, 1.0, -1.0), rng.uniform(0.1, 1.0, m)


# Column 1 is constant, so delta_1 runs off to +infinity.
CONSTANT_COLUMN = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


class TestWeightedConfigs:
    def test_sample_set_gets_equal_weights(self, rng):
        # Each distinct draw once, weighing 1/m for each of its copies.
        sample = it.sample_exact(it.ising_pmf(random_spec(rng, 3)), 10, seed=0)
        configs, weights = _distinct_configs(sample)
        assert configs.dtype == np.float64
        rows = [tuple(x) for x in configs.tolist()]
        assert sorted(rows) == sorted(set(map(tuple, sample.draws.tolist())))
        at = [rows.index(tuple(x)) for x in sample.draws.tolist()]
        assert weights.tolist() == np.bincount(at, weights=np.full(10, 0.1)).tolist()

    def test_table_weights_are_probabilities(self, rng):
        # Merged order sorts the rows with x_1 most significant and -1 first.
        pmf = it.ising_pmf(random_spec(rng, 3))
        configs, weights = _distinct_configs(pmf)
        assert configs.dtype == np.float64
        assert configs.tolist() == sorted(list(x) for x in all_configs(3))
        probs = pmf.probs / pmf.probs.sum()
        assert weights.tolist() == probs[encode_configs(configs)].tolist()

    def test_sample_set_merges_as_its_float_draws(self, rng):
        # int8 draws are merged before they become float64, which must not
        # change a bit of the rows, the weights or the fit.
        sample = it.sample_exact(it.ising_pmf(random_spec(rng, 5)), 2000, seed=1)
        floats = sample.draws.astype(np.float64)
        for got, want in zip(_distinct_configs(sample), _distinct_configs(floats)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        fits = [it.fit_pseudo_likelihood(data, max_iter=30).to_dict() for data in (sample, floats)]
        assert json.dumps(fits[0]) == json.dumps(fits[1])

    def test_explicit_weights_are_normalized(self):
        configs = np.array([[1.0, 1.0], [1.0, -1.0]])
        _, weights = _distinct_configs((configs, np.array([2.0, 2.0])))
        npt.assert_allclose(weights, 0.5)

    def test_raw_matrix(self):
        configs, weights = _distinct_configs(np.array([[1, -1], [-1, -1], [1, 1]]))
        assert configs.shape == (3, 2)
        npt.assert_allclose(weights, 1.0 / 3.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            _distinct_configs(np.array([[1, 0]]))
        with pytest.raises(ValueError, match="non-empty"):
            _distinct_configs(np.empty((0, 3)))
        configs = np.ones((2, 2))
        with pytest.raises(ValueError, match="not all be zero"):
            _distinct_configs((configs, np.zeros(2)))
        with pytest.raises(ValueError, match="non-negative"):
            _distinct_configs((configs, np.array([1.0, -1.0])))
        with pytest.raises(it.DimensionMismatchError):
            _distinct_configs((configs, np.ones(3)))


@st.composite
def repeated_rows(draw):
    """``(spec, rows, weights, data)``: a few distinct rows, repeated and shuffled.

    ``weights`` is None for raw rows, else an explicit column that may hold zeros.
    Widths above 64 need more than one machine word per packed row.
    """
    n = draw(st.sampled_from([1, 2, 10, 70]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = rng.choice([-1.0, 1.0], size=(draw(st.integers(min_value=1, max_value=6)), n))
    if draw(st.booleans()):  # rows that differ only in their last three columns
        pool[:, : max(n - 3, 0)] = pool[0, : max(n - 3, 0)]
    rows = pool[rng.integers(0, pool.shape[0], draw(st.integers(min_value=1, max_value=24)))]
    spec = random_spec(rng, n, coupling_scale=0.5)
    kind = draw(st.sampled_from(["raw", "column", "zeros"]))
    if kind == "raw":
        return spec, rows, None, rows
    weights = rng.uniform(0.1, 2.0, rows.shape[0])
    if kind == "zeros":
        weights[rng.random(rows.shape[0]) < 0.5] = 0.0
        weights[rng.integers(rows.shape[0])] = 1.0
    return spec, rows, weights, (rows, weights)


class TestDistinctConfigurations:
    @settings(max_examples=60, deadline=None)
    @given(repeated_rows())
    def test_rows_merge_with_summed_weights(self, case):
        _, rows, weights, data = case
        configs, merged = _distinct_configs(data)
        weights = np.ones(rows.shape[0]) if weights is None else weights
        tally = {}
        for row, w in zip(map(tuple, rows.tolist()), weights / weights.sum()):
            tally[row] = tally.get(row, 0.0) + w
        assert len({tuple(c) for c in configs.tolist()}) == configs.shape[0] == len(tally)
        got = dict(zip(map(tuple, configs.tolist()), merged))
        assert got.keys() == tally.keys()
        for row, w in tally.items():
            assert got[row] == pytest.approx(w, rel=ORACLE_TOL, abs=ORACLE_TOL)

    @settings(max_examples=60, deadline=None)
    @given(repeated_rows())
    def test_objective_matches_the_row_wise_oracle(self, case):
        spec, rows, weights, data = case
        weights = [1.0] * rows.shape[0] if weights is None else weights.tolist()
        value, grad = pseudo_loglik_and_grad(
            spec.delta.tolist(), spec.sigma.tolist(), rows.tolist(), weights
        )
        assert it.pseudo_loglik(spec, data) == pytest.approx(
            value, rel=ORACLE_TOL, abs=ORACLE_TOL
        )
        npt.assert_allclose(
            it.pseudo_loglik_grad(spec, data), grad, rtol=ORACLE_TOL, atol=ORACLE_TOL
        )

    def test_fit_ignores_row_order_and_copies(self, rng):
        spec = random_spec(rng, 5, coupling_scale=0.5, field_scale=0.5)
        sample = it.sample_exact(it.ising_pmf(spec), 3000, seed=3)
        doubled = rng.permutation(np.concatenate([sample.draws, sample.draws]))
        a = it.fit_pseudo_likelihood(sample)
        b = it.fit_pseudo_likelihood(doubled)
        assert a.converged and b.converged
        assert a.iterations == b.iterations
        npt.assert_allclose(b.spec_hat.delta, a.spec_hat.delta, rtol=0, atol=1e-12)
        npt.assert_allclose(b.spec_hat.sigma, a.spec_hat.sigma, rtol=0, atol=1e-12)
        npt.assert_allclose(b.objective_trace, a.objective_trace, rtol=0, atol=1e-12)


class TestPseudoLoglik:
    def test_zero_model_is_coin_flips(self, rng):
        spec = it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((3, 3)))
        sample = it.sample_exact(it.ising_pmf(random_spec(rng, 3)), 20, seed=1)
        assert it.pseudo_loglik(spec, sample) == pytest.approx(
            3.0 * math.log(0.5), abs=1e-12
        )

    def test_single_agreeing_draw(self):
        spec = it.ModelSpec(
            delta=np.zeros(2), sigma=math.log(2.0) * (np.ones((2, 2)) - np.eye(2))
        )
        value = it.pseudo_loglik(spec, np.array([[1, 1]]))
        assert value == pytest.approx(2.0 * math.log(0.8), abs=1e-12)

    def test_column_count_guard(self, rng):
        spec = random_spec(rng, 3)
        with pytest.raises(it.DimensionMismatchError):
            it.pseudo_loglik(spec, np.ones((4, 2)))


class TestPseudoLoglikGrad:
    def test_vanishes_at_truth_on_population(self, rng):
        for n in (2, 3, 5):
            spec = random_spec(rng, n, coupling_scale=0.6, field_scale=0.6)
            grad = it.pseudo_loglik_grad(spec, it.ising_pmf(spec))
            assert np.abs(grad).max() < 1e-12

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(2, 7))
            spec = random_spec(rng, n)
            m = 30
            configs = np.where(rng.random((m, n)) < 0.5, 1.0, -1.0)
            weights = rng.uniform(0.1, 1.0, m)
            data = (configs, weights)
            grad = it.pseudo_loglik_grad(spec, data)
            vec = pack_params(spec)
            fd = np.empty_like(vec)
            for k in range(vec.shape[0]):
                bump = np.zeros_like(vec)
                bump[k] = h
                hi = it.pseudo_loglik(spec_from_vec(vec + bump, n), data)
                lo = it.pseudo_loglik(spec_from_vec(vec - bump, n), data)
                fd[k] = (hi - lo) / (2.0 * h)
            npt.assert_allclose(fd, grad, rtol=1e-6, atol=1e-9)


class TestPseudoLoglikHessian:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_the_row_wise_oracle(self, rng, n):
        for _ in range(5):
            spec = random_spec(rng, n)
            rows, weights = random_weighted_rows(rng, n)
            want = pseudo_loglik_hessian(
                spec.delta.tolist(), spec.sigma.tolist(), rows.tolist(), weights.tolist()
            )
            npt.assert_allclose(
                package_hessian(spec, (rows, weights)), want, rtol=ORACLE_TOL, atol=ORACLE_TOL
            )

    def test_matches_central_differences_of_the_gradient(self, rng):
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(2, 7))
            spec = random_spec(rng, n)
            data = random_weighted_rows(rng, n)
            vec = pack_params(spec)
            fd = np.empty((vec.shape[0], vec.shape[0]))
            for k in range(vec.shape[0]):
                bump = np.zeros_like(vec)
                bump[k] = h
                hi = it.pseudo_loglik_grad(spec_from_vec(vec + bump, n), data)
                lo = it.pseudo_loglik_grad(spec_from_vec(vec - bump, n), data)
                fd[:, k] = (hi - lo) / (2.0 * h)
            npt.assert_allclose(fd, package_hessian(spec, data), rtol=1e-6, atol=1e-9)

    def test_newton_decrement_matches_the_oracle_hessian(self, rng):
        spec = random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5)
        sample = it.sample_exact(it.ising_pmf(spec), 500, seed=2)
        fit = it.fit_pseudo_likelihood(sample, max_iter=1)
        rows = sample.draws.astype(float).tolist()
        hess = pseudo_loglik_hessian(
            fit.spec_hat.delta.tolist(), fit.spec_hat.sigma.tolist(), rows, [1.0] * len(rows)
        )
        grad = it.pseudo_loglik_grad(fit.spec_hat, sample)
        want = math.sqrt(-grad @ np.linalg.solve(np.array(hess), grad))
        assert fit.newton_decrement > 1e-6
        assert fit.newton_decrement == pytest.approx(want, rel=1e-9)


class TestFit:
    def test_population_recovery(self, rng):
        spec = random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5)
        fit = it.fit_pseudo_likelihood(it.ising_pmf(spec))
        assert fit.converged
        assert max_param_error(fit.spec_hat, spec) < 1e-5
        assert fit.grad_norm_final < 1e-6

    def test_sampled_recovery(self, rng):
        spec = random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5)
        sample = it.sample_exact(it.ising_pmf(spec), 50_000, seed=17)
        fit = it.fit_pseudo_likelihood(sample)
        assert fit.converged
        assert max_param_error(fit.spec_hat, spec) < 0.05

    def test_error_shrinks_with_more_data(self, rng):
        spec = random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5)
        pmf = it.ising_pmf(spec)
        errors = []
        for m in (1_000, 10_000, 100_000):
            fit = it.fit_pseudo_likelihood(it.sample_exact(pmf, m, seed=5))
            errors.append(max_param_error(fit.spec_hat, spec))
        assert errors[2] < errors[0]
        assert errors[2] < 0.02

    def test_starting_at_truth_converges_immediately(self, rng):
        spec = random_spec(rng, 3, coupling_scale=0.5)
        fit = it.fit_pseudo_likelihood(it.ising_pmf(spec), init=spec)
        assert fit.converged
        assert fit.iterations == 0
        assert len(fit.objective_trace) == 1
        assert max_param_error(fit.spec_hat, spec) == 0.0

    def test_objective_trace_never_decreases(self, rng):
        spec = random_spec(rng, 4)
        fit = it.fit_pseudo_likelihood(it.ising_pmf(spec))
        assert np.all(np.diff(fit.objective_trace) >= -1e-12)
        assert fit.objective_trace[-1] >= fit.objective_trace[0]
        assert not fit.objective_trace.flags.writeable

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_simulate_fit_family_converges_within_thirty_iterations(self, seed):
        """n = 10, couplings 0.1, fields in +/-0.5, 20k Gibbs draws: the
        benchmark's family, which its fit caps at 30 iterations."""
        rng = np.random.default_rng(seed)
        n = 10
        spec = it.ModelSpec(
            delta=rng.uniform(-0.5, 0.5, n), sigma=0.1 * (np.ones((n, n)) - np.eye(n))
        )
        fit = it.fit_pseudo_likelihood(it.sample_gibbs(spec, 20_000, seed=seed), max_iter=30)
        assert fit.converged
        assert fit.iterations <= 8
        assert fit.newton_decrement < 1e-6
        assert max_param_error(fit.spec_hat, spec) < 0.08

    def test_failed_cholesky_takes_gradient_steps(self, monkeypatch):
        # At delta_1 = 400 site 1's sech^2 weight underflows to exactly 0, so
        # the Hessian's delta_1 row is zero and its Cholesky factorization fails.
        init = it.ModelSpec(delta=np.array([400.0, 0.0]), sigma=np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = it.fit_pseudo_likelihood(CONSTANT_COLUMN, init, max_iter=5)
        assert fit.iterations == 5
        assert not fit.converged
        assert fit.newton_decrement is None
        assert np.all(np.diff(fit.objective_trace) >= 0.0)
        monkeypatch.setattr(estimation, "NEWTON_MAX_PARAMS", 0)
        ascent = it.fit_pseudo_likelihood(CONSTANT_COLUMN, init, max_iter=5)
        npt.assert_array_equal(fit.objective_trace, ascent.objective_trace)
        npt.assert_array_equal(fit.spec_hat.delta, ascent.spec_hat.delta)
        npt.assert_array_equal(fit.spec_hat.sigma, ascent.spec_hat.sigma)

    def test_width_guard_takes_gradient_steps(self, rng, monkeypatch):
        spec = random_spec(rng, 4, coupling_scale=0.5, field_scale=0.5)
        pmf = it.ising_pmf(spec)
        newton = it.fit_pseudo_likelihood(pmf)
        monkeypatch.setattr(estimation, "NEWTON_MAX_PARAMS", 9)  # n = 4 has 10
        ascent = it.fit_pseudo_likelihood(pmf)
        assert newton.converged and ascent.converged
        assert newton.newton_decrement is not None
        assert ascent.newton_decrement is None
        assert ascent.iterations > 2 * newton.iterations
        assert np.all(np.diff(ascent.objective_trace) >= -1e-12)
        assert max_param_error(ascent.spec_hat, spec) < 1e-5

    def test_iteration_budget(self, rng):
        spec = random_spec(rng, 4)
        fit = it.fit_pseudo_likelihood(it.ising_pmf(spec), max_iter=1)
        assert fit.iterations == 1
        assert not fit.converged

    def test_hopeless_step_raises(self, rng, monkeypatch):
        spec = random_spec(rng, 3)
        monkeypatch.setattr(estimation, "INITIAL_STEP", 1e30)
        monkeypatch.setattr(estimation, "MAX_HALVINGS", 5)
        with pytest.raises(it.LineSearchError, match="halvings"):
            it.fit_pseudo_likelihood(it.ising_pmf(spec))

    def test_newton_direction_without_increase_falls_back_to_the_gradient(self):
        """Gibbs chains frozen in two modes: 3,000 draws hold 28 distinct rows,
        two of them 1,733 and 1,162 times.  After one step every eigenvalue of
        the negative Hessian is below 6e-14, yet it factors, and no step along
        its Newton direction raises the objective; gradient steps do."""
        rng = np.random.default_rng(16)
        for k in (1, 5, 10, 16):
            upper = np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1)
            spec = it.ModelSpec(rng.uniform(-1.0, 1.0, k), upper + upper.T)
        with pytest.warns(UserWarning, match="not mixed"):
            sample = it.sample_gibbs(spec, 3000, seed=7)
        fit = it.fit_pseudo_likelihood(sample, max_iter=30)
        assert fit.iterations == 30
        assert not fit.converged
        assert np.all(np.diff(fit.objective_trace) > 0.0)
        assert fit.objective_trace[1] == pytest.approx(-2.3809, abs=1e-4)
        assert fit.objective_trace[-1] > -1.2

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("grad_tol", math.inf),
            ("grad_tol", math.nan),
            ("grad_tol", 0.0),
            ("grad_tol", -1e-6),
            ("max_iter", -5),
        ],
    )
    def test_invalid_stopping_rule_rejected(self, rng, knob, value):
        with pytest.raises(ValueError, match=knob):
            it.fit_pseudo_likelihood(it.ising_pmf(random_spec(rng, 2)), **{knob: value})

    def test_init_size_guard(self, rng):
        wrong = it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((3, 3)))
        with pytest.raises(it.DimensionMismatchError):
            it.fit_pseudo_likelihood(it.ising_pmf(random_spec(rng, 4)), init=wrong)

    def test_result_dictionary(self, rng):
        fit = it.fit_pseudo_likelihood(it.ising_pmf(random_spec(rng, 2)))
        d = fit.to_dict()
        assert d["n"] == 2
        assert d["converged"] is True
        assert len(d["delta"]) == 2
        assert len(d["sigma"]) == 2
        assert d["iterations"] == len(d["objective_trace"]) - 1
        assert d["newton_decrement"] == fit.newton_decrement
