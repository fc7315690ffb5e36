"""The doubling kernel and every table built on it, against the plain-Python oracles."""

import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ising_trinity as it
from conftest import cause_only, effect_pairs, random_spec
from ising_trinity._enum import (
    ENUMERATION_LIMIT,
    config_text,
    decode_configs,
    encode_configs,
    linear_table,
    normalize,
    split_half_table,
    split_halves,
)
from ising_trinity.cli import main
from oracles import (
    all_configs,
    cause_table,
    collider_log_joint,
    conditioned_collider_table,
    curie_weiss_table,
    ising_log_weight,
    ising_table,
    spectral_log_weight,
    spectral_table,
    table_moments,
)

ORACLE_TOL = 1e-12
coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def specs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    delta = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    sigma = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sigma[i, j] = sigma[j, i] = draw(coords) / 2.0
    return it.ModelSpec(delta=delta, sigma=sigma)


@st.composite
def collider_forms(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    delta = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    dirs, lams = np.zeros((n, 0)), []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        q = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
        norm = np.linalg.norm(q)
        assume(norm > 0.1)
        lams.append(draw(st.floats(min_value=0.0, max_value=3.0)))
        dirs = np.column_stack((dirs, q / norm))
    return it.ColliderForm(delta=delta, lams=lams, dirs=dirs)


class TestKernel:
    @settings(max_examples=30, deadline=None)
    @given(coef=st.lists(coords, max_size=8))
    def test_linear_table_is_the_dot_product(self, coef):
        expected = [sum(c * x for c, x in zip(coef, cfg)) for cfg in all_configs(len(coef))]
        npt.assert_allclose(linear_table(np.array(coef)), expected, rtol=0, atol=1e-14)

    def test_linear_table_of_a_matrix_holds_each_column_table(self):
        rng = np.random.default_rng(7)
        for n, r in ((0, 2), (1, 0), (5, 3)):
            coef = rng.normal(size=(n, r))
            table = linear_table(coef)
            assert table.shape == (1 << n, r)
            for k in range(r):
                assert np.array_equal(table[:, k], linear_table(coef[:, k]))

    def test_normalize_is_shift_invariant_and_safe_at_large_weights(self):
        probs, log_z = normalize(np.array([1000.0, 1001.0]))
        e = math.e
        npt.assert_allclose(probs, [1.0 / (1.0 + e), e / (1.0 + e)], rtol=0, atol=1e-15)
        assert log_z == pytest.approx(1000.0 + math.log1p(e), abs=1e-12)

    def test_normalize_refuses_non_finite_weights_and_keeps_exact_zeros(self):
        with np.errstate(all="raise"):
            probs, log_z = normalize(np.array([1e308, -1e308, 1e308]))
        assert probs.tolist() == [0.5, 0.0, 0.5] and log_z == 1e308 + math.log(2.0)
        for log_w in ([0.0, np.inf], [0.0, np.nan], [-np.inf, -np.inf]):
            with pytest.raises(ValueError, match="log weights are not finite"):
                normalize(np.array(log_w))

    def test_config_codec_spells_out_the_oracle_and_inverts(self):
        for n in range(9):
            configs = decode_configs(np.arange(1 << n), n)
            assert configs.dtype == np.int8 and configs.tolist() == [list(c) for c in all_configs(n)]
            assert encode_configs(configs).tolist() == list(range(1 << n))
        idx = np.array([[0, 5], [7, 2]])
        assert decode_configs(idx, 3).shape == (2, 2, 3)
        assert np.array_equal(encode_configs(decode_configs(idx, 3)), idx)
        assert decode_configs(5, 3).tolist() == [1, -1, 1] and encode_configs([1, -1, 1]) == 5

    @pytest.mark.parametrize("sep", [",", ",\n      "])
    def test_config_text_spells_out_the_config_matrix(self, sep):
        for n in range(9):
            expected = [sep.join(str(v) for v in row) for row in all_configs(n)]
            assert config_text(n, sep) == expected


class TestBuildersAgainstOracles:
    @settings(max_examples=40, deadline=None)
    @given(spec=specs())
    def test_ising_pmf(self, spec):
        pmf = it.ising_pmf(spec)
        oracle = ising_table(spec.delta.tolist(), spec.sigma.tolist())
        npt.assert_allclose(pmf.probs, oracle, rtol=0, atol=ORACLE_TOL)

    @settings(max_examples=30, deadline=None)
    @given(delta=st.lists(coords, min_size=1, max_size=8))
    def test_curie_weiss_pmf(self, delta):
        pmf = it.curie_weiss_pmf(len(delta), np.array(delta))
        npt.assert_allclose(pmf.probs, curie_weiss_table(delta), rtol=0, atol=ORACLE_TOL)

    @settings(max_examples=40, deadline=None)
    @given(spec=specs(), max_rank=st.integers(min_value=0, max_value=8))
    def test_spectral_pmf(self, spec, max_rank):
        form = it.truncate_spectral(it.to_spectral(spec), max_rank)
        pmf = it.spectral_pmf(form, spec.delta)
        oracle = spectral_table(spec.delta.tolist(), form.lambdas.tolist(), form.q.T.tolist())
        npt.assert_allclose(pmf.probs, oracle, rtol=0, atol=ORACLE_TOL)

    @settings(max_examples=30, deadline=None)
    @given(cf=collider_forms())
    def test_cause_marginal_pmf(self, cf):
        pmf = it.cause_marginal_pmf(cf)
        npt.assert_allclose(pmf.probs, cause_table(cf.delta.tolist()), rtol=0, atol=ORACLE_TOL)

    @settings(max_examples=40, deadline=None)
    @given(cf=collider_forms())
    def test_conditioned_pmf(self, cf):
        pmf = it.conditioned_pmf(cf)
        oracle, acceptance = conditioned_collider_table(cf.delta.tolist(), effect_pairs(cf))
        npt.assert_allclose(pmf.probs, oracle, rtol=0, atol=ORACLE_TOL)
        assert pmf.log_z == pytest.approx(math.log(acceptance), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(spec=specs())
    def test_pmf_moments(self, spec):
        pmf = it.ising_pmf(spec)
        first, second = it.pmf_moments(pmf)
        o_first, o_second = table_moments(pmf.probs.tolist(), spec.n)
        npt.assert_allclose(first, o_first, rtol=0, atol=ORACLE_TOL)
        npt.assert_allclose(second, o_second, rtol=0, atol=ORACLE_TOL)


ONE_CAUSE = it.ModelSpec(delta=np.array([0.7]), sigma=np.zeros((1, 1)))


class TestSplitHalfBuilders:
    """`spectral_pmf` and `conditioned_pmf` join a high-half and a low-half table.

    Odd ``n`` splits unevenly, and ``n = 1`` leaves the low half empty.
    """

    def test_halves_cover_the_index_bits(self):
        for n in range(ENUMERATION_LIMIT + 1):
            hi, lo = split_halves(n)
            assert (lo.start, lo.stop, hi.start, hi.stop) == (0, n // 2, n // 2, n)

    # Budgets of one row per block; of 3 rows at n = 6 (8 rows, so the last
    # block is partial) and one block at n <= 3; and the default, one block.
    @pytest.mark.parametrize("block", [1, 24, 1 << 17])
    def test_table_is_written_in_index_order(self, monkeypatch, block):
        from ising_trinity import _enum

        monkeypatch.setattr(_enum, "_BLOCK_MADDS", block)
        rng = np.random.default_rng(block)
        for n, r in ((1, 0), (3, 2), (6, 1), (7, 3)):
            hi, lo = split_halves(n)
            coef, weights = rng.normal(size=(n, r)), rng.normal(size=n)
            table = split_half_table(
                linear_table(weights[hi]), linear_table(coef[hi]),
                linear_table(weights[lo]), linear_table(coef[lo]),
            )
            h, coef, weights = n // 2, coef.tolist(), weights.tolist()
            expected = []
            for cfg in all_configs(n):
                value = sum(w * x for w, x in zip(weights, cfg))
                for k in range(r):
                    s_hi = sum(coef[i][k] * cfg[i] for i in range(h, n))
                    value += s_hi * sum(coef[i][k] * cfg[i] for i in range(h))
                expected.append(value)
            npt.assert_allclose(table, expected, rtol=0, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(spec=specs(max_n=13), max_rank=st.integers(min_value=0, max_value=3))
    @example(spec=ONE_CAUSE, max_rank=1)
    @example(spec=ONE_CAUSE, max_rank=0)
    def test_spectral_pmf(self, spec, max_rank):
        form = it.truncate_spectral(it.to_spectral(spec), max_rank)
        pmf = it.spectral_pmf(form, spec.delta)
        oracle = spectral_table(spec.delta.tolist(), form.lambdas.tolist(), form.q.T.tolist())
        npt.assert_allclose(pmf.probs, oracle, rtol=0, atol=ORACLE_TOL)

    @settings(max_examples=30, deadline=None)
    @given(cf=collider_forms(max_n=13))
    @example(cf=it.simple_collider(np.array([0.7])))
    @example(cf=cause_only(np.array([0.3, -0.2, 0.9])))
    def test_conditioned_pmf(self, cf):
        pmf = it.conditioned_pmf(cf)
        oracle, acceptance = conditioned_collider_table(cf.delta.tolist(), effect_pairs(cf))
        npt.assert_allclose(pmf.probs, oracle, rtol=0, atol=ORACLE_TOL)
        assert pmf.log_z == pytest.approx(math.log(acceptance), abs=1e-12)

    def test_enumeration_limit_entries_at_strong_coupling(self, rng):
        n = ENUMERATION_LIMIT
        spec = random_spec(rng, n, coupling_scale=3.0)
        form = it.to_spectral(spec)
        cf = it.spectral_to_collider(form, spec.delta)
        assert form.rank == n - 1
        picks = [0, (1 << n) - 1, *rng.integers(0, 1 << n, 30).tolist()]
        configs = decode_configs(picks, n).tolist()
        delta, effects = spec.delta.tolist(), effect_pairs(cf)
        own_log_weight = {
            "spectral": lambda x: spectral_log_weight(
                delta, form.lambdas.tolist(), form.q.T.tolist(), x
            ),
            "collider": lambda x: collider_log_joint(delta, effects, cf.log_sups.tolist(), x),
        }
        tables = {"spectral": it.spectral_pmf(form, spec.delta), "collider": it.conditioned_pmf(cf)}
        for name, pmf in tables.items():
            log_w = [own_log_weight[name](x) for x in configs]
            for k, lw in zip(picks, log_w):
                assert math.log(pmf.probs[k]) == pytest.approx(lw - pmf.log_z, abs=1e-10)
        report = it.verify_representations(spec)
        exact = [pair for pair in report.distances if "latent" not in pair]
        assert len(exact) == 3 and report.all_pass
        assert max(report.distances[pair].tv for pair in exact) <= 1e-12

    @pytest.mark.parametrize("builder", ["spectral_pmf", "conditioned_pmf"])
    def test_enumeration_limit_memory(self, rng, builder):
        spec = random_spec(rng, ENUMERATION_LIMIT)
        form = it.to_spectral(spec)
        cf = it.spectral_to_collider(form, spec.delta)
        build = {
            "spectral_pmf": lambda: it.spectral_pmf(form, spec.delta),
            "conditioned_pmf": lambda: it.conditioned_pmf(cf),
        }[builder]
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The 8 MiB table, the 1 MiB sign check of `Pmf` and the half tables;
        # doubling each eigen-score over the whole table peaked at 24 MiB.
        assert peak < 12 * 2**20


def test_enumeration_limit_entries_match_the_log_weight(rng):
    n = ENUMERATION_LIMIT
    spec = random_spec(rng, n, coupling_scale=0.3)
    pmf = it.ising_pmf(spec)
    picks = [0, (1 << n) - 1, *rng.integers(0, 1 << n, 30).tolist()]
    delta, sigma = spec.delta.tolist(), spec.sigma.tolist()
    log_w = [ising_log_weight(delta, sigma, x) for x in decode_configs(picks, n).tolist()]
    for k, lw in zip(picks, log_w):
        assert math.log(pmf.probs[k]) - math.log(pmf.probs[picks[0]]) == pytest.approx(
            lw - log_w[0], abs=1e-10
        )
        assert pmf.probs[k] == pytest.approx(math.exp(lw - pmf.log_z), rel=1e-10)


OVER = ENUMERATION_LIMIT + 1
OVER_SPEC = it.ModelSpec(delta=np.zeros(OVER), sigma=np.zeros((OVER, OVER)))
OVER_COLLIDER = it.simple_collider(np.zeros(OVER))
OVER_LIMIT_CALLS = {
    "ising_pmf": lambda: it.ising_pmf(OVER_SPEC),
    "curie_weiss_pmf": lambda: it.curie_weiss_pmf(OVER, np.zeros(OVER)),
    "spectral_pmf": lambda: it.spectral_pmf(it.to_spectral(OVER_SPEC), OVER_SPEC.delta),
    "cause_marginal_pmf": lambda: it.cause_marginal_pmf(OVER_COLLIDER),
    "conditioned_pmf": lambda: it.conditioned_pmf(OVER_COLLIDER),
    "rasch_marginal_pmf": lambda: it.rasch_marginal_pmf(np.zeros(OVER)),
    "mirt_marginal_pmf": lambda: it.mirt_marginal_pmf(
        it.LatentForm(delta=np.zeros(OVER), loadings=np.ones((OVER, 1)))
    ),
    "verify_representations": lambda: it.verify_representations(OVER_SPEC),
    "config_text": lambda: config_text(OVER, ","),
}


@pytest.mark.parametrize("builder", sorted(OVER_LIMIT_CALLS))
def test_every_table_builder_refuses_n21_before_allocating(builder):
    tracemalloc.start()
    try:
        with pytest.raises(it.EnumerationLimitError):
            OVER_LIMIT_CALLS[builder]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A single table at n = 21 would take 16 MB.
    assert peak < 1 << 20


# The conventional representation is covered by test_cli's
# test_too_many_items_exit_code.
@pytest.mark.parametrize("representation", ["spectral", "collider", "latent"])
def test_pmf_command_at_n21_exits_3(tmp_path, capsys, representation):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": OVER, "delta": [0.1] * OVER, "sigma": [[0.0] * OVER] * OVER}))
    assert main(["pmf", str(path), "-r", representation]) == 3
    assert "error:" in capsys.readouterr().err
