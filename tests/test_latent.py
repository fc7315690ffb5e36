import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ising_trinity as it
from conftest import low_rank_spec, random_spec
from ising_trinity import latent
from ising_trinity.latent import MAX_QUAD_NODES
from oracles import (
    curie_weiss_table,
    mirt_node_log_shares,
    mirt_quadrature_table,
    spectral_table,
)

HALF_LOG3 = 0.5 * math.log(3.0)


class TestQuadratureRule:
    def test_weights_sum_to_one(self):
        for m in (8, 16, 32, 64, 128):
            _, weights = latent._gauss_hermite(m)
            assert abs(weights.sum() - 1.0) <= 1e-12

    def test_integrates_low_moments_of_the_normal(self):
        nodes, weights = latent._gauss_hermite(32)
        assert weights @ np.ones(32) == pytest.approx(1.0, abs=1e-12)
        assert weights @ nodes == pytest.approx(0.0, abs=1e-12)
        assert weights @ nodes**2 == pytest.approx(1.0, abs=1e-10)
        assert weights @ nodes**4 == pytest.approx(3.0, abs=1e-9)

    def test_reference_has_half_again_the_nodes(self):
        # The table under m nodes is measured against the one under
        # (3m + 1) // 2: its estimate is their distance, and a refusal names
        # the reference rule.
        form = it.LatentForm(delta=np.full(12, 0.5), loadings=np.ones((12, 1)))
        coarse, fine = (it.mirt_marginal_pmf(form, it.QuadratureRule(m)) for m in (16, 24))
        assert coarse.error_estimate == pytest.approx(it.pmf_distance(coarse, fine).tv, rel=1e-9)
        coarse, fine = (it.mirt_marginal_pmf(form, it.QuadratureRule(m)) for m in (33, 50))
        assert coarse.error_estimate == pytest.approx(it.pmf_distance(coarse, fine).tv, rel=1e-9)
        for m, reference in ((16, 24), (17, 26)):
            with pytest.raises(
                it.QuadratureResolutionError, match=f"under the {reference}-node rule"
            ):
                it.mirt_marginal_pmf(
                    it.LatentForm(delta=np.zeros(4), loadings=np.ones((4, 1))),
                    it.QuadratureRule(m),
                )
        assert not hasattr(it.QuadratureRule, "refined")

    def test_rule_size_is_capped_before_numpy(self):
        # Every latent output also builds its reference of (3m + 1) // 2 nodes,
        # so the largest count's 192-node reference is still far from numpy's
        # non-finite weights, and so is the doubled rule.
        assert MAX_QUAD_NODES == 128
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"take 1 to {MAX_QUAD_NODES} nodes"):
                it.QuadratureRule(MAX_QUAD_NODES + 1)
            _, (fine, _) = latent._rule_pair(it.QuadratureRule(MAX_QUAD_NODES))
            assert fine.size == 192
            nodes, weights = latent._gauss_hermite(2 * MAX_QUAD_NODES)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights @ nodes**2 == pytest.approx(1.0, abs=1e-12)

    def test_repeated_rule_is_equal_and_read_only(self):
        first, again = latent._gauss_hermite(48), latent._gauss_hermite(48)
        assert it.QuadratureRule(48) == it.QuadratureRule(np.int64(48))
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
            with pytest.raises(ValueError, match="read-only"):
                b[0] = 0.0

    def test_validation(self):
        for bad in (0, -1, MAX_QUAD_NODES + 1, True, 2.5):
            with pytest.raises(ValueError, match=f"nodes .*, got {bad!r}$"):
                it.QuadratureRule(bad)
        assert [f.name for f in dataclasses.fields(it.QuadratureRule)] == ["node_count"]
        assert it.QuadratureRule().node_count == latent.DEFAULT_QUAD_NODES == 64
        rule = it.QuadratureRule(np.int64(32))
        assert type(rule.node_count) is int and rule.node_count == 32

    def test_every_rule_and_reference_has_finite_log_weights(self):
        # The reference has ceil(3m / 2) nodes, always more than the rule's m.
        for m in range(1, MAX_QUAD_NODES + 1):
            pair = latent._rule_pair(it.QuadratureRule(m))
            for (nodes, log_weights), count in zip(pair, (m, -(-3 * m // 2))):
                assert nodes.shape == log_weights.shape == (count,), m
                assert np.isfinite(nodes).all() and np.isfinite(log_weights).all(), m
            assert pair[1][0].size > m
        assert [latent._rule_pair(it.QuadratureRule(m))[1][0].size for m in (1, 2, 3)] == [2, 3, 5]

    def test_default_reference_keeps_every_node(self):
        # The default 96-node reference keeps every weight above the float
        # range's floor.  The stretch moves the outer nodes of the largest
        # rule's 192-node reference far enough out that their weights
        # underflow; their log weights do not.
        (nodes, _), (fine, log_weights) = latent._rule_pair(it.QuadratureRule())
        assert nodes.size == 64 and fine.size == 96
        assert np.exp(log_weights).min() > 0.0
        (nodes, _), (fine, log_weights) = latent._rule_pair(it.QuadratureRule(MAX_QUAD_NODES))
        assert nodes.size == 128 and fine.size == 192
        assert np.isfinite(log_weights).all() and np.exp(log_weights).min() == 0.0


class TestMomentGeneratingIdentity:
    def test_zero_tilt_is_exact(self):
        assert it.kac_identity_check(0.0) == pytest.approx(1.0, abs=1e-13)

    def test_unit_tilt(self):
        for m in (32, 64):
            rule = it.QuadratureRule(m)
            got = it.kac_identity_check(1.0, rule)
            assert abs(got - math.e) / math.e <= 1e-8

    def test_double_tilt(self):
        got = it.kac_identity_check(2.0, it.QuadratureRule(32))
        assert abs(got - math.exp(4.0)) / math.exp(4.0) <= 1e-8
        assert got == pytest.approx(54.598150033144236, rel=1e-10)

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="<= 5"):
            it.kac_identity_check(5.5)
        with pytest.raises(ValueError):
            it.kac_identity_check(float("nan"))


class TestRaschMarginal:
    def test_two_item_closed_form(self):
        pmf = it.rasch_marginal_pmf(np.zeros(2))
        agree = math.e**2 / (2.0 * math.e**2 + 2.0)
        mixed = 1.0 / (2.0 * math.e**2 + 2.0)
        npt.assert_allclose(pmf.probs, [agree, mixed, mixed, agree], atol=1e-8)

    def test_single_item(self):
        pmf = it.rasch_marginal_pmf(np.array([HALF_LOG3]))
        npt.assert_allclose(pmf.probs, [0.25, 0.75], atol=1e-10)

    def test_matches_exchangeable_table_and_normalizer(self, rng):
        for n in (1, 3, 5, 8):
            delta = rng.uniform(-1.0, 1.0, n)
            marg = it.rasch_marginal_pmf(delta)
            cw = it.curie_weiss_pmf(n, delta)
            assert it.pmf_distance(marg, cw).tv <= 1e-8
            # The quadrature normalizer estimates the same partition function.
            assert marg.log_z == pytest.approx(cw.log_z, abs=1e-8)

    def test_against_pure_python_oracle(self, rng):
        delta = rng.uniform(-1.0, 1.0, 4)
        marg = it.rasch_marginal_pmf(delta)
        npt.assert_allclose(marg.probs, curie_weiss_table(delta.tolist()), atol=1e-10)

    def test_too_coarse_rule_is_rejected(self):
        with pytest.raises(it.QuadratureResolutionError, match="refine"):
            it.rasch_marginal_pmf(np.full(8, 0.9), it.QuadratureRule(2))

    def test_twenty_items_work_in_sub_table_blocks(self):
        # The table and its check table under the doubled rule hold 2**20
        # floats each, 8 MiB; every other working array is sized by the
        # 2**12-configuration sub-table or the node batch.
        delta = np.zeros(20)
        tracemalloc.start()
        try:
            pmf = it.rasch_marginal_pmf(delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        exact = it.ising_pmf(it.ModelSpec(delta, np.ones((20, 20))))
        assert it.pmf_distance(pmf, exact).tv <= 1e-12
        # Eight stacked node products of the whole table would take 64 MiB more.
        assert peak < 34 << 20

    def test_convergence_in_node_count(self, rng):
        # Rules the error estimate refuses are excluded by construction, so the
        # ladder starts at the coarsest rule it admits for this model.
        delta = rng.uniform(-1.0, 1.0, 3)
        gaps = []
        for m in (32, 40, 48, 64):
            a = it.rasch_marginal_pmf(delta, it.QuadratureRule(m))
            b = it.rasch_marginal_pmf(delta, it.QuadratureRule((3 * m + 1) // 2))
            gaps.append(it.pmf_distance(a, b).tv)
            # The estimate is that gap: b is the table that measured a.
            assert a.error_estimate == pytest.approx(gaps[-1], rel=1e-12, abs=0.0)
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-14
        assert gaps[-1] < 1e-10


class TestLatentForm:
    def test_from_spectral_keeps_positive_directions(self, rng):
        spec = low_rank_spec(rng, 6, 2)
        form = it.to_spectral(spec)
        lf = it.LatentForm.from_spectral(form, spec.delta)
        assert lf.r == 2
        assert lf.n == 6
        npt.assert_array_equal(lf.loadings, form.loadings[:, :2])

    def test_rank_cannot_exceed_items(self):
        with pytest.raises(ValueError, match="exceeds"):
            it.LatentForm(delta=np.zeros(2), loadings=np.ones((2, 3)))

    def test_shape_validation(self):
        with pytest.raises(it.DimensionMismatchError):
            it.LatentForm(delta=np.zeros(3), loadings=np.ones((2, 1)))


class TestMirtMarginal:
    def test_rank_zero_is_exact_product(self):
        delta = np.array([0.4, -0.7, 0.1])
        lf = it.LatentForm(delta=delta, loadings=np.zeros((3, 0)))
        pmf = it.mirt_marginal_pmf(lf)
        field_only = it.ising_pmf(it.ModelSpec(delta=delta, sigma=np.zeros((3, 3))))
        assert it.pmf_distance(pmf, field_only).max_abs <= 1e-15
        assert pmf.log_z == pytest.approx(
            float(np.log(2.0 * np.cosh(delta)).sum()), abs=1e-12
        )

    def test_rank_one_matches_single_latent_marginal(self, rng):
        delta = rng.uniform(-1.0, 1.0, 5)
        lf = it.LatentForm(delta=delta, loadings=np.ones((5, 1)))
        a = it.mirt_marginal_pmf(lf)
        b = it.rasch_marginal_pmf(delta)
        assert it.pmf_distance(a, b).tv <= 1e-12

    def test_low_rank_forms_match_their_spectral_table(self, rng):
        for rank in (2, 3):
            spec = low_rank_spec(rng, 6, rank)
            form = it.to_spectral(spec)
            lf = it.LatentForm.from_spectral(form, spec.delta)
            quad = it.mirt_marginal_pmf(lf)
            exact = it.spectral_pmf(form, spec.delta)
            assert it.pmf_distance(quad, exact).tv <= 1e-7

    def test_truncated_form_marginal(self, rng):
        spec = random_spec(rng, 5)
        cut = it.truncate_spectral(it.to_spectral(spec), 2)
        lf = it.LatentForm.from_spectral(cut, spec.delta)
        quad = it.mirt_marginal_pmf(lf)
        oracle = spectral_table(
            spec.delta.tolist(),
            cut.lambdas[:2].tolist(),
            [cut.q[:, 0].tolist(), cut.q[:, 1].tolist()],
        )
        npt.assert_allclose(quad.probs, oracle, atol=1e-9)

    def test_rank_limit(self, rng):
        spec = low_rank_spec(rng, 6, 4)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        with pytest.raises(it.RankLimitError, match="at most 3"):
            it.mirt_marginal_pmf(lf)

    def test_item_limit(self):
        lf = it.LatentForm(delta=np.zeros(21), loadings=np.ones((21, 1)))
        with pytest.raises(it.EnumerationLimitError, match="n = 21 is too large"):
            it.mirt_marginal_pmf(lf)

    # Above 12 items the items beyond the sub-table weight each node's product.
    @pytest.mark.parametrize("n, rank", [(20, 1), (20, 2), (14, 3)])
    def test_up_to_the_enumeration_limit(self, n, rank):
        spec = low_rank_spec(np.random.default_rng([24, n, rank]), n, rank)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        assert lf.r == rank
        pmf = it.mirt_marginal_pmf(lf)
        tv = it.pmf_distance(pmf, it.ising_pmf(spec)).tv
        assert tv <= max(1e-13, 10.0 * pmf.error_estimate)

    def test_rank_two_at_twenty_items_stays_chunked(self):
        spec = low_rank_spec(np.random.default_rng([24, 20, 2]), 20, 2)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        tracemalloc.start()
        try:
            pmf = it.mirt_marginal_pmf(lf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pmf.probs.shape == (1 << 20,)
        # Two tables of 8 MiB, the per-node weights of the 256 configurations
        # above the sub-table (512 KiB for a part of 256 nodes), the batch's
        # fields and the part's sub-table halves.  Weights built for a whole
        # batch of 4096 nodes would take 8 MiB.
        assert peak < 26 << 20

    def test_estimate_tracks_the_true_error_over_a_rule_ladder(self):
        # Each table's estimate against its distance to the exact table, for
        # rules the estimate refuses too: neither may be ten times the other
        # where the true error stands above rounding.
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(12):
            r, n = int(rng.integers(2, 4)), int(rng.integers(8, 13))
            loadings = rng.normal(size=(n, r))
            loadings *= rng.choice([1.0, 1.3]) / np.linalg.norm(loadings, axis=1, keepdims=True)
            delta = rng.uniform(-1.0, 1.0, n)
            sigma = loadings @ loadings.T
            np.fill_diagonal(sigma, 0.0)
            exact = it.ising_pmf(it.ModelSpec(delta, sigma))
            for m in (8, 16, 24, 32, 48):
                working, fine = latent._rule_pair(it.QuadratureRule(m))
                table = latent._quadrature_pmf(delta, loadings, *working)
                est = it.pmf_distance(table, latent._quadrature_pmf(delta, loadings, *fine)).tv
                true = it.pmf_distance(table, exact).tv
                assert true <= max(1e-13, 10.0 * est), (n, r, m)
                if true > 1e-13:
                    assert est <= 10.0 * true, (n, r, m)
                    ratios.append(est / true)
        assert len(ratios) >= 40

    def test_too_coarse_rule_is_rejected(self, rng):
        spec = low_rank_spec(rng, 8, 2)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        with pytest.raises(it.QuadratureResolutionError):
            it.mirt_marginal_pmf(lf, it.QuadratureRule(2))


ORACLE_TOL = 1e-12
entries = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@st.composite
def quadrature_cases(draw):
    """A latent form with n <= 7 and r <= 3, a small rule's nodes and weights, and a chunk size.

    The oracles take the weights, the kernels their logs.

    Rules of other than 4 or 8 nodes end in a ragged box; chunks below a box's
    ``_BOX**r`` nodes make every box its own batch.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    r = draw(st.integers(min_value=0, max_value=min(3, n)))
    delta = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    loadings = np.array(draw(st.lists(entries, min_size=n * r, max_size=n * r))).reshape(n, r)
    rule = latent._gauss_hermite(draw(st.integers(min_value=1, max_value=9)))
    chunk = draw(st.sampled_from([1, 2, 3, 7, 64, 4096]))
    return delta, loadings, rule, chunk


def assert_kernel_matches_oracle(delta, loadings, rule, chunk):
    nodes, weights = rule
    table, log_total = mirt_quadrature_table(
        delta.tolist(), loadings.tolist(), nodes.tolist(), weights.tolist()
    )
    # Small chunks evaluate the boxes of the node grid one batch at a time.
    with mock.patch.object(latent, "_NODE_CHUNK", chunk):
        pmf = latent._quadrature_pmf(delta, loadings, nodes, np.log(weights))
    assert pmf.log_z == pytest.approx(log_total, rel=0, abs=ORACLE_TOL)
    npt.assert_allclose(pmf.probs, table, rtol=0, atol=ORACLE_TOL)


class TestQuadratureKernel:
    @settings(max_examples=60, deadline=None)
    @given(case=quadrature_cases())
    def test_split_item_table_matches_node_by_node_oracle(self, case):
        assert_kernel_matches_oracle(*case)

    @settings(max_examples=60, deadline=None)
    @given(case=quadrature_cases())
    def test_node_shares_match_node_by_node_oracle(self, case):
        delta, loadings, (nodes, _), chunk = case
        # The sampler's nodes are those of the stretched rule of this size.
        t, log_w = latent._stretched(nodes.size)
        log_c = np.array([
            lc for lc, _ in mirt_node_log_shares(
                delta.tolist(), loadings.tolist(), t.tolist(), np.exp(log_w).tolist()
            )
        ])
        oracle = log_c - np.logaddexp.reduce(log_c)
        # Small rules fail the normalizer check, which is not under test here.
        with mock.patch.object(latent, "_NODE_CHUNK", chunk), \
                mock.patch.object(latent, "MASS_TOL", np.inf):
            form = it.LatentForm(delta=delta, loadings=loadings)
            shares, theta = latent.latent_first_nodes(form, it.QuadratureRule(t.size))
        # Every coordinate is a node value, and the nodes come in the oracle's C order.
        digits = np.searchsorted(t, theta)
        assert theta.shape == (shares.size, form.r) and np.array_equal(t[digits], theta)
        index = digits @ t.size ** np.arange(form.r - 1, -1, -1)
        assert (np.diff(index) > 0).all()
        # The kept shares are the oracle's, divided by their total; the
        # dropped nodes hold under 2**-60 together.
        assert (shares > 0.0).all()
        npt.assert_allclose(np.log(shares), oracle[index], rtol=0, atol=ORACLE_TOL)
        assert np.exp(np.delete(oracle, index)).sum() < 2.0**-60
        assert shares.sum() == pytest.approx(1.0, rel=0, abs=ORACLE_TOL)

    @pytest.mark.parametrize(
        "delta, loadings, nodes, chunk",
        [
            # verify refuses this off-centre model: its mass sits at the rule's
            # edge.  One box per batch, so the first batch does not hold them all.
            (np.full(12, 0.5), np.ones((12, 1)), 64, 4),
            # Without loadings only the weight term loosens a box's bound, so
            # its count term r log _BOX is what keeps it a bound.
            (np.array([0.3, -0.2, 0.1]), np.zeros((3, 3)), 32, latent._NODE_CHUNK),
        ],
    )
    def test_skipped_nodes_hold_under_two_to_the_minus_sixty(self, delta, loadings, nodes, chunk):
        t, w = latent._gauss_hermite(nodes)
        with mock.patch.object(latent, "_NODE_CHUNK", chunk):
            batches = list(latent._node_batches(delta, loadings, t, np.log(w)))
        seen = np.concatenate([index[log_c > -np.inf] for index, log_c, _ in batches])
        log_c = np.array([
            lc for lc, _ in mirt_node_log_shares(
                delta.tolist(), loadings.tolist(), t.tolist(), w.tolist()
            )
        ])
        skipped = np.setdiff1d(np.arange(log_c.size), seen)
        assert seen.size == np.unique(seen).size and skipped.size > 0
        assert np.exp(log_c[skipped] - np.logaddexp.reduce(log_c)).sum() < 2.0**-60

    # n = 1 leaves the low half empty; odd n splits the items unequally.
    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in (1, 2, 5, 7) for r in range(4) if r <= n]
    )
    def test_every_split_and_rank(self, rng, n, r):
        delta = rng.uniform(-1.0, 1.0, n)
        loadings = rng.uniform(-1.0, 1.0, (n, r))
        # 4 nodes make one box per dimension, 7 a whole box and a ragged one.
        for nodes in (4, 7):
            for chunk in (1, 5, 4096):
                assert_kernel_matches_oracle(
                    delta, loadings, latent._gauss_hermite(nodes), chunk
                )

    # Blocks of `width` nodes and parts of `stack` blocks, so that a small
    # rule's kept nodes fill several parts: 9 nodes in blocks of 2, two per
    # part, give 9 = 2 * 4 + 1, so the last whole block ends a part and one
    # node follows.  A sub-table of `sub` < n items splits the table into slabs.
    @pytest.mark.parametrize(
        "n, r, nodes, width, stack, chunk, sub",
        [
            # Whole blocks only: 8 = 4 + 4 and 36 = 9 * 4 nodes.
            (3, 1, 8, 2, 2, 4096, 12),
            (4, 2, 6, 3, 3, 4096, 12),
            # Whole blocks to a part boundary, then the rest: 49 = 16 * 3 + 1.
            (3, 1, 9, 2, 2, 4096, 12),
            (5, 2, 7, 8, 2, 4096, 12),
            # The last part holds blocks and the rest: 9 = 6 + 3 and 125 = 9 * 13 + 8.
            (4, 1, 9, 2, 3, 4096, 12),
            (5, 3, 5, 3, 3, 4096, 12),
            # Fewer nodes than a block; blocks of one node.
            (2, 1, 3, 8, 1, 4096, 12),
            (6, 3, 4, 1, 3, 4096, 12),
            # One ragged box per batch, of 9 to 16 nodes, in one slab and in 8.
            (5, 2, 7, 3, 2, 16, 12),
            (6, 2, 7, 3, 2, 16, 3),
            # Eight slabs at rank 3: 27 = 6 * 4 + 3.
            (7, 3, 3, 2, 3, 4096, 4),
        ],
    )
    def test_stacked_blocks_match_node_by_node_oracle(
        self, rng, n, r, nodes, width, stack, chunk, sub
    ):
        delta = rng.uniform(-1.0, 1.0, n)
        loadings = rng.uniform(-1.0, 1.0, (n, r))
        with mock.patch.object(latent, "_SUB_ITEMS", sub), \
                mock.patch.object(latent, "_BLOCK_MADDS", width << min(n, sub)), \
                mock.patch.object(latent, "_STACK", stack):
            assert_kernel_matches_oracle(delta, loadings, latent._gauss_hermite(nodes), chunk)

    def test_marginals_are_the_renormalized_oracle_table(self, rng):
        rule = it.QuadratureRule(40)
        # The marginals integrate with the rule stretched to nodes 2 t.
        nodes, log_weights = latent._stretched(40)
        assert np.array_equal(nodes, 2.0 * latent._gauss_hermite(40)[0])
        weights = np.exp(log_weights)
        delta = rng.uniform(-0.5, 0.5, 5)
        loadings = rng.uniform(-0.4, 0.4, (5, 2))
        table, log_total = mirt_quadrature_table(
            delta.tolist(), loadings.tolist(), nodes.tolist(), weights.tolist()
        )
        pmf = it.mirt_marginal_pmf(it.LatentForm(delta=delta, loadings=loadings), rule)
        npt.assert_allclose(pmf.probs, np.array(table) / sum(table), rtol=0, atol=ORACLE_TOL)
        # The log normalizer is the working rule's own total.
        assert pmf.log_z == pytest.approx(log_total, abs=1e-10)

        table, log_total = mirt_quadrature_table(
            delta.tolist(), [[1.0]] * 5, nodes.tolist(), weights.tolist()
        )
        pmf = it.rasch_marginal_pmf(delta, rule)
        npt.assert_allclose(pmf.probs, np.array(table) / sum(table), rtol=0, atol=ORACLE_TOL)
        assert pmf.log_z == pytest.approx(log_total, abs=1e-10)

    def test_rank_three_at_twelve_items_stays_chunked(self, rng):
        spec = low_rank_spec(rng, 12, 3)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        tracemalloc.start()
        try:
            pmf = it.mirt_marginal_pmf(lf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pmf.probs.shape == (1 << 12,)
        # One float per node of the 128**3 reference grid would take 16 MiB.
        assert peak < 12 << 20
