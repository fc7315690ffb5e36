import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import ising_trinity as it
from conftest import low_rank_spec, random_spec
from oracles import spectral_table


def hidden_nodes(spec: it.ModelSpec, view: str) -> int:
    """The latent or effect nodes of one of `graph_dot`'s digraphs."""
    return it.graph_dot(spec, view).count("[shape=")


def spec_n2(s12: float) -> it.ModelSpec:
    return it.ModelSpec(delta=np.zeros(2), sigma=np.array([[0.0, s12], [s12, 0.0]]))


def shift_of(form: it.SpectralForm) -> float:
    """The shift of an untruncated form: every diagonal entry of ``loadings @ loadings.T``."""
    diag = np.diag(form.loadings @ form.loadings.T)
    npt.assert_allclose(diag, diag[0], rtol=0, atol=1e-12)
    return float(diag[0])


class TestToSpectral:
    def test_positive_pair_coupling(self):
        form = it.to_spectral(spec_n2(1.0))
        assert shift_of(form) == pytest.approx(1.0, abs=1e-14)
        npt.assert_allclose(form.lambdas, [2.0], atol=1e-14)
        inv = 1.0 / math.sqrt(2.0)
        assert form.q.shape == (2, 1)
        npt.assert_allclose(form.q[:, 0], [inv, inv], atol=1e-14)
        npt.assert_allclose(form.loadings[:, 0], [1.0, 1.0], atol=1e-14)
        assert form.rank == 1
        # The shift is read from the loadings, not stored.
        assert not hasattr(form, "c")

    def test_negative_pair_coupling(self):
        form = it.to_spectral(spec_n2(-1.0))
        assert shift_of(form) == pytest.approx(1.0, abs=1e-14)
        npt.assert_allclose(form.lambdas, [2.0], atol=1e-14)
        inv = 1.0 / math.sqrt(2.0)
        # Sign convention: the entry of largest magnitude (first on ties) is positive.
        npt.assert_allclose(form.q[:, 0], [inv, -inv], atol=1e-14)

    def test_zero_couplings(self):
        form = it.to_spectral(it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((3, 3))))
        assert shift_of(form) == 0.0
        assert form.lambdas.shape == (0,)
        assert form.q.shape == form.loadings.shape == (3, 0)
        assert form.rank == 0 and form.n == 3

    def test_near_zero_eigenvalue_clamped_exactly(self):
        # The shifted eigenvalue that eigh cannot tell from zero is dropped
        # with its eigenvector, not kept as rounding noise.
        form = it.to_spectral(spec_n2(1.0))
        assert form.lambdas.shape == (1,) and form.q.shape == (2, 1)
        assert form.lambdas[0] > 0.0

    def test_single_variable(self):
        form = it.to_spectral(it.ModelSpec(delta=np.array([0.2]), sigma=np.zeros((1, 1))))
        assert shift_of(form) == 0.0
        assert form.rank == 0

    def test_orthonormal_and_reconstructs_shifted_matrix(self, rng):
        for n in (2, 4, 7):
            spec = random_spec(rng, n)
            form = it.to_spectral(spec)
            # The canonical shift zeroes the smallest eigenvalue, which is dropped.
            assert form.rank == n - 1
            npt.assert_allclose(form.q.T @ form.q, np.eye(n - 1), atol=1e-12)
            shifted = spec.sigma + shift_of(form) * np.eye(n)
            npt.assert_allclose(
                (form.q * form.lambdas) @ form.q.T, shifted, atol=1e-10
            )
            npt.assert_allclose(form.loadings, form.q * np.sqrt(form.lambdas), atol=0)

    def test_eigenvalues_descending_and_nonnegative(self, rng):
        form = it.to_spectral(random_spec(rng, 6))
        assert np.all(np.diff(form.lambdas) <= 0.0)
        assert np.all(form.lambdas >= 0.0)

    def test_signs_match_the_per_column_rule_bit_for_bit(self, rng):
        # The reference: eigh's columns in descending eigenvalue order, each
        # negated when its first entry of largest magnitude is negative.
        for n in (3, 10, 12, 20):
            spec = random_spec(rng, n)
            evals, vecs = np.linalg.eigh(spec.sigma)
            form = it.to_spectral(spec)
            for col, q in zip(vecs[:, np.argsort(-evals, kind="stable")].T, form.q.T):
                want = -col if col[np.argmax(np.abs(col))] < 0.0 else col
                assert want.tobytes() == q.tobytes()

    def test_deterministic(self, rng):
        spec = random_spec(rng, 5)
        a, b = it.to_spectral(spec), it.to_spectral(spec)
        npt.assert_array_equal(a.q, b.q)
        npt.assert_array_equal(a.lambdas, b.lambdas)

    def test_negative_extra_shift_rejected(self):
        with pytest.raises(ValueError, match="extra_shift"):
            replace(spec_n2(1.0), extra_shift=-0.1)

    @pytest.mark.parametrize("spec", [spec_n2(1e308), spec_n2(-1e308)], ids=["pos", "neg"])
    def test_eigenvalues_overflowing_the_shift_raise(self, spec):
        # The eigenvalues are +-1e308; shifted by c = 1e308, one is 2e308.
        with pytest.raises(it.EigendecompositionError, match="are not finite"):
            it.to_spectral(spec)

    def test_failed_eigendecomposition_is_a_typed_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(it.EigendecompositionError) as err:
            it.to_spectral(spec_n2(1.0))
        assert str(err.value) == (
            "eigendecomposition of the coupling matrix failed: Eigenvalues did not converge"
        )
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_form_rejects_non_finite_eigenpairs(self):
        for lambdas, q in (([np.nan, 0.0], np.eye(2)), ([1.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="non-finite"):
                it.SpectralForm(lambdas=np.array(lambdas), q=np.array(q))

    def test_form_rejects_mismatched_eigenvectors(self):
        with pytest.raises(it.DimensionMismatchError) as err:
            it.SpectralForm(lambdas=np.array([1.0, 0.0]), q=np.eye(3))
        assert str(err.value) == "eigenvector shape (3, 3) does not match 2 eigenvalues"

    @pytest.mark.parametrize(
        "lambdas, message",
        [
            ([1.0, -0.5], "eigenvalues must be positive after the shift"),
            ([0.5, 1.0], "eigenvalues must be sorted in descending order"),
            ([1.0, 0.0], "eigenvalues must be positive after the shift"),
        ],
    )
    def test_form_rejects_bad_eigenvalues(self, lambdas, message):
        with pytest.raises(ValueError) as err:
            it.SpectralForm(lambdas=np.array(lambdas), q=np.eye(2))
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_form_refuses_a_zero_eigenvalue(self):
        # A zero eigenvalue is no latent dimension and no effect; a form of
        # rank 0 holds no eigenpair at all.
        with pytest.raises(ValueError, match="must be positive"):
            it.SpectralForm(lambdas=np.zeros(1), q=np.ones((3, 1)) / np.sqrt(3.0))
        empty = it.SpectralForm(lambdas=np.zeros(0), q=np.zeros((3, 0)))
        assert empty.rank == 0 and empty.n == 3


class TestSpectralWeight:
    def test_example_and_constant_gap(self, rng):
        # The eigenvalue weight exceeds the pair-sum weight by c*n/2 at every
        # configuration, so the two normalizers differ by exactly that.
        spec = spec_n2(1.0)
        form = it.to_spectral(spec)
        # log(2e^2 + 2) against log(2e + 2/e): a gap of 1 = c*n/2.
        spe = it.spectral_pmf(form, spec.delta)
        assert spe.log_z == pytest.approx(math.log(2.0 * math.e**2 + 2.0), abs=1e-14)
        assert it.ising_pmf(spec).log_z == pytest.approx(
            math.log(2.0 * math.e + 2.0 / math.e), abs=1e-14
        )
        for n in (2, 5, 9):
            spec = random_spec(rng, n)
            for shift in (0.0, 1.5):
                form = it.to_spectral(replace(spec, extra_shift=shift))
                gap = it.spectral_pmf(form, spec.delta).log_z - it.ising_pmf(spec).log_z
                assert gap == pytest.approx(shift_of(form) * n / 2.0, abs=1e-12)


class TestSpectralPmf:
    def test_matches_network_path_on_random_specs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            spec = random_spec(rng, n)
            net = it.ising_pmf(spec)
            spe = it.spectral_pmf(it.to_spectral(spec), spec.delta)
            assert it.pmf_distance(net, spe).max_abs <= 1e-12

    def test_extra_shift_never_changes_the_table(self, rng):
        spec = random_spec(rng, 5)
        base = it.spectral_pmf(it.to_spectral(spec), spec.delta)
        for shift in (0.5, 2.0, 10.0):
            form = it.to_spectral(replace(spec, extra_shift=shift))
            moved = it.spectral_pmf(form, spec.delta)
            assert it.pmf_distance(base, moved).max_abs <= 1e-12

    def test_extra_shift_changes_the_parts(self, rng):
        spec = random_spec(rng, 4)
        a = it.to_spectral(spec)
        b = it.to_spectral(replace(spec, extra_shift=0.5))
        assert shift_of(b) == pytest.approx(shift_of(a) + 0.5, abs=1e-12)
        # The shift lifts the pair the canonical shift zeroes, so b keeps it.
        assert (a.rank, b.rank) == (3, 4)
        npt.assert_allclose(b.lambdas[:3], a.lambdas + 0.5, atol=1e-10)
        assert b.lambdas[3] == pytest.approx(0.5, abs=1e-10)
        assert not np.allclose(a.loadings, b.loadings[:, :3])


class TestRankAndTruncation:
    def test_constructed_rank_is_honest(self, rng):
        # The zero cut is relative to the largest eigenvalue, so it must
        # neither keep rounding noise nor drop a genuine eigenvalue: on
        # low-rank models and on the equal-coupling family c * (J - I), whose
        # canonical shift leaves one eigenvalue for c > 0 and n - 1 for c < 0.
        cases = [
            (low_rank_spec(rng, n, rank), rank) for n in range(4, 21) for rank in (1, 2, 3)
        ]
        for n in range(2, 65):
            for c in (1e-6, 0.02, 0.1, 1.0, 4.0, -0.1, -1.0):
                spec = it.ModelSpec(delta=np.zeros(n), sigma=c * (1 - np.eye(n)))
                cases.append((spec, 1 if c > 0.0 else n - 1))
        for spec, rank in cases:
            form = it.to_spectral(spec)
            assert form.rank == rank
            assert it.LatentForm.from_spectral(form, spec.delta).r == rank
            assert it.spectral_to_collider(form, spec.delta).r == rank

    def test_every_story_keeps_the_same_eigenvalues(self):
        # Every story reads all of the form's eigenpairs, so a 5e-11
        # eigenvalue beside 1.0 counts in each, and the spectral and collider
        # tables still agree.
        q = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))[0][:, :3]
        form = it.SpectralForm(lambdas=np.array([1.0, 0.5, 5e-11]), q=q)
        delta = np.array([0.1, -0.2, 0.3, 0.0])
        assert form.rank == 3
        assert it.LatentForm.from_spectral(form, delta).r == 3
        cf = it.spectral_to_collider(form, delta)
        assert cf.r == 3
        gap = it.pmf_distance(it.spectral_pmf(form, delta), it.conditioned_pmf(cf))
        assert gap.max_abs <= 1e-15

    def test_a_coupling_of_5e_11_keeps_its_eigenvalue(self):
        # Couplings of 5e-11 shift to the eigenvalues 1e-10 and 0. The cut is
        # relative to the largest, so the first is kept and the second
        # dropped, and the eigen-based tables agree with the network table.
        spec = it.ModelSpec(delta=np.zeros(2), sigma=5e-11 * (1 - np.eye(2)))
        form = it.to_spectral(spec)
        npt.assert_allclose(form.lambdas, [1e-10], rtol=1e-12, atol=0)
        assert form.rank == 1
        net = it.ising_pmf(spec)
        spe = it.spectral_pmf(form, spec.delta)
        col = it.conditioned_pmf(it.spectral_to_collider(form, spec.delta))
        assert it.pmf_distance(net, spe).max_abs <= 1e-16
        assert it.pmf_distance(spe, col).max_abs <= 1e-16

    def test_truncation_keeps_the_leading_pairs(self, rng):
        form = it.to_spectral(random_spec(rng, 6))
        cut = it.truncate_spectral(form, 2)
        assert cut.rank == 2 and cut.n == 6
        npt.assert_array_equal(cut.lambdas, form.lambdas[:2])
        npt.assert_array_equal(cut.q, form.q[:, :2])

    def test_every_truncation_is_the_leading_pairs_bit_for_bit(self, rng):
        # From rank 0 to past the rank: the leading min(k, rank) pairs, and
        # the table of the model they define.
        for spec in (random_spec(rng, 5), low_rank_spec(rng, 6, 2)):
            form = it.to_spectral(spec)
            for k in range(form.rank + 3):
                cut = it.truncate_spectral(form, k)
                kept = min(k, form.rank)
                assert cut.rank == kept and cut.q.shape == (spec.n, kept)
                assert cut.lambdas.tobytes() == form.lambdas[:kept].tobytes()
                assert np.ascontiguousarray(cut.q).tobytes() == form.q[:, :kept].tobytes()
                oracle = spectral_table(
                    spec.delta.tolist(), cut.lambdas.tolist(), cut.q.T.tolist()
                )
                npt.assert_allclose(it.spectral_pmf(cut, spec.delta).probs, oracle, atol=1e-12)

    def test_every_story_reads_the_positive_pairs_to_spectral_keeps(self, rng):
        specs = [random_spec(rng, n) for n in (1, 2, 5, 9)]
        specs += [low_rank_spec(rng, n, rank) for n, rank in ((4, 1), (7, 2), (10, 3))]
        specs += [
            it.ModelSpec(delta=rng.uniform(-1.0, 1.0, n), sigma=c * (1 - np.eye(n)))
            for n, c in ((3, 0.4), (6, -0.3), (8, 1.0))
        ]
        for base in specs:
            for extra in (0.0, 0.75):
                spec = replace(base, extra_shift=extra)
                form = it.to_spectral(spec)
                rank = form.rank
                assert np.all(form.lambdas > 0.0)
                assert np.all(np.diff(form.lambdas) <= 0.0)
                assert form.q.shape == (spec.n, rank)
                npt.assert_allclose(form.q.T @ form.q, np.eye(rank), atol=1e-12)
                evals = np.linalg.eigvalsh(spec.sigma)
                shift = max(0.0, -evals.min()) + extra
                npt.assert_allclose(
                    form.loadings @ form.loadings.T,
                    spec.sigma + shift * np.eye(spec.n),
                    rtol=0,
                    atol=1e-10,
                )
                assert it.LatentForm.from_spectral(form, spec.delta).r == rank
                assert it.spectral_to_collider(form, spec.delta).r == rank
                assert hidden_nodes(spec, "common-cause") == rank
                assert hidden_nodes(spec, "collider") == rank

    def test_truncated_form_is_its_own_model(self, rng):
        spec = random_spec(rng, 5)
        delta = spec.delta
        form = it.to_spectral(spec)
        cut = it.truncate_spectral(form, 2)
        table = it.spectral_pmf(cut, delta)
        oracle = spectral_table(
            delta.tolist(),
            cut.lambdas[:2].tolist(),
            [cut.q[:, 0].tolist(), cut.q[:, 1].tolist()],
        )
        npt.assert_allclose(table.probs, oracle, atol=1e-12)
        full = it.spectral_pmf(form, delta)
        assert it.pmf_distance(table, full).tv > 1e-4

    def test_negative_max_rank_rejected(self, rng):
        form = it.to_spectral(random_spec(rng, 3))
        with pytest.raises(ValueError):
            it.truncate_spectral(form, -1)
