import dataclasses
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import ising_trinity as it
from conftest import frozen_site_spec, low_rank_spec, near_uniform_spec, random_spec, rank2_spec

ALL_PAIRS = [
    ("conventional", "spectral"),
    ("conventional", "collider"),
    ("conventional", "latent"),
    ("spectral", "collider"),
    ("spectral", "latent"),
    ("collider", "latent"),
]


def unit_coupling_spec(n: int) -> it.ModelSpec:
    sigma = np.ones((n, n)) - np.eye(n)
    return it.ModelSpec(delta=np.zeros(n), sigma=sigma)


class TestVerifier:
    def test_exchangeable_pair_all_branches_agree(self):
        report = it.verify_representations(unit_coupling_spec(2))
        assert report.n == 2
        assert report.rank == 1
        assert all(b.evaluated for b in report.branches.values())
        assert sorted(report.distances) == sorted(ALL_PAIRS)
        assert report.all_pass
        for pair, dist in report.distances.items():
            if "latent" in pair:
                assert dist.tv <= 1e-7
            else:
                assert dist.tv <= 1e-12

    def test_zero_model(self):
        spec = it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((3, 3)))
        report = it.verify_representations(spec)
        assert report.rank == 0
        assert report.all_pass
        assert all(b.evaluated for b in report.branches.values())

    @pytest.mark.parametrize("s", [1e-12, 1e-11, 5e-11, 1e-10, 3e-10, 1e-9, 3e-9])
    @pytest.mark.parametrize("n", [2, 12, 20])
    def test_near_zero_couplings_keep_every_eigenvalue(self, n, s):
        # The conventional branch keeps couplings of any size, so every
        # eigen-based story must keep their eigenvalues too: n = 2 has one,
        # the random models n - 1 (the shift zeroes the smallest).
        if n == 2:
            spec = it.ModelSpec(delta=np.zeros(2), sigma=s * (1 - np.eye(2)))
        else:
            rng = np.random.default_rng(4)
            upper = np.triu(rng.uniform(-s, s, (n, n)), 1)
            spec = it.ModelSpec(delta=rng.uniform(-1, 1, n), sigma=upper + upper.T)
        report = it.verify_representations(spec)
        assert report.rank == max(1, n - 1)
        assert report.all_pass, report.to_text()

    def test_random_full_interaction_small_n(self, rng):
        for n in (2, 3, 4):
            report = it.verify_representations(random_spec(rng, n))
            assert report.all_pass, report.to_text()
            assert len(report.distances) == 6

    def test_low_rank_wide_models(self, rng):
        for n, rank in ((5, 1), (6, 2), (8, 3)):
            spec = low_rank_spec(rng, n, rank)
            report = it.verify_representations(spec)
            assert report.rank == rank
            assert all(b.evaluated for b in report.branches.values())
            assert report.all_pass, report.to_text()

    def test_high_rank_skips_latent_branch(self, rng):
        spec = random_spec(rng, 6)
        report = it.verify_representations(spec)
        assert report.rank > 3
        assert not report.branches["latent"].evaluated
        assert "rank" in report.branches["latent"].skipped_reason
        assert sorted(report.distances) == sorted(
            [p for p in ALL_PAIRS if "latent" not in p]
        )
        assert report.all_pass

    def test_timings_present_for_evaluated_branches(self, rng):
        report = it.verify_representations(random_spec(rng, 3))
        for branch in report.branches.values():
            if branch.evaluated:
                assert branch.seconds >= 0.0

    def test_size_guard_is_the_enumeration_limit(self):
        spec = it.ModelSpec(delta=np.zeros(21), sigma=np.zeros((21, 21)))
        with pytest.raises(it.EnumerationLimitError, match="too large for exact enumeration"):
            it.verify_representations(spec)

    @pytest.mark.parametrize("n", [13, 20])
    @pytest.mark.parametrize("rank", [2, None])
    def test_beyond_the_latent_limits_the_exact_branches_still_run(self, rng, n, rank):
        # Every branch runs to the enumeration limit; only the rank limit
        # keeps the latent branch out, as for the full-rank model.
        spec = random_spec(rng, n) if rank is None else low_rank_spec(rng, n, rank)
        report = it.verify_representations(spec)
        assert report.all_pass, report.to_text()
        if rank is not None:
            assert all(b.evaluated for b in report.branches.values())
            assert sorted(report.distances) == sorted(ALL_PAIRS)
            return
        assert {name: b.evaluated for name, b in report.branches.items()} == {
            "conventional": True, "spectral": True, "collider": True, "latent": False
        }
        assert sorted(report.distances) == sorted(
            [p for p in ALL_PAIRS if "latent" not in p]
        )
        # The skip reason is the latent builder's own refusal, word for word.
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        with pytest.raises(it.RankLimitError) as refused:
            it.mirt_marginal_pmf(lf)
        reasons = {name: b.skipped_reason for name, b in report.branches.items()}
        assert reasons == {"conventional": None, "spectral": None, "collider": None,
                           "latent": str(refused.value)}
        assert f"latent (not evaluated: {refused.value})" in report.to_text()


class TestFaultInjection:
    @pytest.mark.parametrize("branch", it.equivalence.BRANCHES)
    def test_each_branch_is_independently_exercised(self, branch):
        spec = unit_coupling_spec(3)
        clean = it.verify_representations(spec)
        assert clean.all_pass
        faulted = it.verify_representations(spec, fault=it.BranchFault(branch=branch))
        assert not faulted.all_pass
        for row in faulted.pairs:
            assert row["passed"] == (branch not in row["pair"]), row

    def test_fault_magnitude_scales_distance(self):
        spec = unit_coupling_spec(2)
        small = it.verify_representations(spec, fault=it.BranchFault(branch="spectral", eps=1e-9))
        large = it.verify_representations(spec, fault=it.BranchFault(branch="spectral", eps=1e-3))
        pair = ("conventional", "spectral")
        assert small.distances[pair].tv < large.distances[pair].tv

    def test_fault_on_skipped_branch_rejected(self, rng):
        spec = random_spec(rng, 6)
        assert it.to_spectral(spec).rank > 3
        with pytest.raises(ValueError, match="not evaluated"):
            it.verify_representations(spec, fault=it.BranchFault(branch="latent"))

    def test_fault_on_branch_refused_by_its_rule_rejected(self):
        rule = it.QuadratureRule(4)
        with pytest.raises(ValueError, match="not evaluated: latent table error estimate"):
            it.verify_representations(
                unit_coupling_spec(2), rule, fault=it.BranchFault(branch="latent")
            )

    def test_unknown_branch_rejected(self):
        names = re.escape("('conventional', 'spectral', 'collider', 'latent')")
        with pytest.raises(ValueError, match=f"unknown branch 'astral'; expected one of {names}$"):
            it.BranchFault(branch="astral")

    def test_non_finite_epsilon_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            it.BranchFault(branch="latent", eps=math.nan)

    def test_zero_epsilon_rejected(self):
        # A zero fault perturbs nothing, so the verifier would report PASS.
        for eps in (0.0, -0.0):
            with pytest.raises(ValueError, match="finite and nonzero"):
                it.BranchFault(branch="spectral", eps=eps)

    def test_near_uniform_faults_fail_at_twenty_items(self):
        # Every probability is near 1e-6, so a 1e-6 fault moves each by about
        # 1e-12: a max_abs verdict would pass it, the TV verdict does not.
        spec = near_uniform_spec()
        clean = it.verify_representations(spec)
        assert clean.all_pass, clean.to_text()
        assert not clean.branches["latent"].evaluated
        for branch in ("conventional", "spectral", "collider"):
            faulted = it.verify_representations(spec, fault=it.BranchFault(branch=branch))
            assert not faulted.all_pass, faulted.to_text()
            for row in faulted.pairs:
                assert row["passed"] == (branch not in row["pair"]), row
                if branch in row["pair"]:
                    assert row["max_abs"] < 1e-12 < 2e-12 < row["tv"]

    @pytest.mark.parametrize("branch", ["conventional", "spectral", "collider"])
    def test_fault_no_verdict_can_show_is_refused(self, branch):
        # x_1 is nearly frozen at +1, so the fault moves the table by a TV of
        # 6.8e-14, below twice the 1e-12 bound; a verdict would read PASS.
        with pytest.raises(
            ValueError,
            match=rf"^a fault of eps 1e-06 in the {branch} branch has a predicted tv shift of "
            r"6\.79\de-14, below twice its bound 1e-12; no verdict could show it$",
        ):
            it.verify_representations(frozen_site_spec(), fault=it.BranchFault(branch=branch))

    def test_fault_on_a_model_without_items_is_refused(self):
        # No intercept to move, so the fault perturbs nothing.
        spec = it.ModelSpec(delta=np.zeros(0), sigma=np.zeros((0, 0)))
        with pytest.raises(ValueError, match="predicted tv shift of 0.000e[+]00, below twice"):
            it.verify_representations(spec, fault=it.BranchFault(branch="spectral"))

    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_predicted_shift_matches_the_faulted_pairs_tv(self, n):
        rng = np.random.default_rng([38, n])
        spec = random_spec(rng, n, field_scale=2.0)
        for branch, other in (("conventional", "spectral"), ("spectral", "collider"),
                              ("collider", "conventional")):
            report = it.verify_representations(spec, fault=it.BranchFault(branch=branch))
            tv = next(d.tv for pair, d in report.distances.items() if {branch, other} == set(pair))
            assert report.fault_shift == pytest.approx(tv, rel=1e-3)
            assert f"predicted tv shift {report.fault_shift:.3e}" in report.to_text()

    # A first-order shift read from the faulted table predicted 1.4e-12 at
    # eps 15, against a TV of 0.33, and refused the fault; the exact shift is
    # the TV itself.
    @pytest.mark.parametrize("eps", [1.0, 15.0, -15.0, 40.0])
    @pytest.mark.parametrize("branch", list(it.equivalence.BRANCHES))
    def test_shift_is_the_tv_from_an_unfaulted_exact_table(self, branch, eps):
        spec = rank2_spec()
        report = it.verify_representations(spec, fault=it.BranchFault(branch=branch, eps=eps))
        faulted_delta = spec.delta + np.eye(spec.n)[0] * eps
        faulted = it.equivalence.BRANCHES[branch](replace(spec, delta=faulted_delta),
                                                  it.QuadratureRule())
        assert report.fault_shift == pytest.approx(
            it.pmf_distance(faulted, it.ising_pmf(spec)).tv, abs=1e-14
        )
        assert not report.all_pass
        assert all(row["passed"] == (branch not in row["pair"]) for row in report.pairs)

    # x_1 is +1 but for odds of about 1e-26, far below the rounding of
    # P(x_1 = +1), so a shift read through 1 - P(x_1 = +1) is rounding noise.
    @pytest.mark.parametrize("eps", [-20.0, -40.0])
    @pytest.mark.parametrize("branch", list(it.equivalence.BRANCHES))
    def test_shift_of_a_site_whose_probability_rounds_to_one(self, branch, eps):
        spec = random_spec(np.random.default_rng(30), 4)
        spec = replace(spec, delta=spec.delta + np.eye(4)[0] * 30.0)
        assert it.ising_pmf(spec).probs[0::2].sum() < 1e-20
        report = it.verify_representations(spec, fault=it.BranchFault(branch=branch, eps=eps))
        faulted = it.ising_pmf(replace(spec, delta=spec.delta + np.eye(4)[0] * eps))
        tv = it.pmf_distance(faulted, it.ising_pmf(spec)).tv
        assert report.fault_shift == pytest.approx(tv, abs=1e-14) and tv > 1e-9
        assert not report.all_pass


class TestReportSerialization:
    def test_dictionary_structure(self, rng):
        report = it.verify_representations(random_spec(rng, 3))
        d = report.to_dict()
        assert d["n"] == 3
        assert d["all_pass"] is True
        assert d["fault"] is None
        assert [b["name"] for b in d["branches"]] == list(it.equivalence.BRANCHES)
        assert d["fault_shift"] is None
        assert set(d) == {"n", "rank", "all_pass", "fault", "fault_shift", "branches", "pairs"}
        estimates = {b["name"]: b["error_estimate"] for b in d["branches"] if b["evaluated"]}
        for pair in d["pairs"]:
            # One distance judges every pair; the bound reads its two tables' estimates.
            assert set(pair) == {"pair", "tv", "max_abs", "tolerance", "passed"}
            expected_tol = max(1e-12, 10.0 * max(estimates[name] for name in pair["pair"]))
            assert pair["tolerance"] == expected_tol
            assert pair["passed"] == (pair["tv"] <= expected_tol)

    def test_json_round_trips(self, rng):
        report = it.verify_representations(
            random_spec(rng, 2), fault=it.BranchFault(branch="collider")
        )
        d = json.loads(report.to_json())
        assert d["fault"] == {"branch": "collider", "eps": 1e-6}
        assert d["fault_shift"] == report.fault_shift > 2e-12
        assert d["all_pass"] is False

    def test_text_lists_pairs_and_verdict(self, rng):
        report = it.verify_representations(random_spec(rng, 2))
        text = report.to_text()
        assert "conventional vs spectral" in text
        assert "overall: PASS" in text
        assert "PASS" in text and "FAIL" not in text

    def test_text_shows_skip_and_failure(self, rng):
        spec = random_spec(rng, 6)
        report = it.verify_representations(spec, fault=it.BranchFault(branch="collider"))
        text = report.to_text()
        assert "not evaluated" in text
        assert "overall: FAIL" in text

    def test_latent_trust_numbers(self, rng):
        evaluated = it.verify_representations(low_rank_spec(rng, 6, 2))
        d = evaluated.to_dict()
        estimates = {b["name"]: b["error_estimate"] for b in d["branches"]}
        assert estimates == {name: b.error_estimate for name, b in evaluated.branches.items()}
        est = estimates.pop("latent")
        assert 0.0 <= est <= 1e-8
        assert set(estimates.values()) == {0.0}
        for row in d["pairs"]:
            latent = "latent" in row["pair"]
            assert row["tolerance"] == (max(1e-12, 10.0 * est) if latent else 1e-12)
        text = evaluated.to_text()
        seconds = {name: b.seconds for name, b in evaluated.branches.items()}
        assert f"latent ({seconds['latent']:.3f}s, error estimate {est:.3e})" in text
        assert f"collider ({seconds['collider']:.3f}s, error estimate 0.000e+00)" in text
        # A branch that is not evaluated has no estimate, and no latent pair
        # has a tolerance to apply.
        skipped = it.verify_representations(random_spec(rng, 6))
        assert not skipped.branches["latent"].evaluated
        d = json.loads(skipped.to_json())
        assert [b["error_estimate"] for b in d["branches"]] == [0.0, 0.0, 0.0, None]
        assert skipped.branches["latent"].error_estimate is None
        assert skipped.to_text().count("error estimate") == 3

    def test_the_report_is_frozen(self, rng):
        report = it.verify_representations(
            random_spec(rng, 2), fault=it.BranchFault(branch="collider")
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.fault_shift = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.branches["collider"].seconds = 0.0

    # Clean; the latent branch refused above rank 3; refused for its estimate.
    # Every branch, refused ones included, reports the seconds it took.
    @pytest.mark.parametrize("case", ["clean", "rank", "estimate"])
    def test_each_branch_outcome_is_its_json_entry(self, case):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 6) if case == "rank" else low_rank_spec(rng, 6, 2)
        rule = it.QuadratureRule(2) if case == "estimate" else it.QuadratureRule()
        report = it.verify_representations(spec, rule)
        assert report.branches["latent"].evaluated == (case == "clean")
        entries = json.loads(report.to_json())["branches"]
        assert [entry["name"] for entry in entries] == list(report.branches)
        assert list(report.branches) == list(it.equivalence.BRANCHES)
        for entry in entries:
            branch = report.branches[entry["name"]]
            assert entry == {
                "name": entry["name"],
                "evaluated": branch.evaluated,
                "seconds": branch.seconds,
                "error_estimate": branch.error_estimate,
                "skipped_reason": branch.skipped_reason,
            }
            assert isinstance(entry["seconds"], float) and entry["seconds"] >= 0.0


# Low-rank models as perfbench's verify ladder draws them, six per (n, rank).
LADDER = [(10, 1), (10, 2), (10, 3), (12, 1), (12, 2)]


@pytest.mark.parametrize("n, rank", LADDER)
def test_latent_tables_are_within_ten_estimates_and_faults_are_caught(n, rank):
    rng = np.random.default_rng([1, n, rank])
    for _ in range(6):
        spec = low_rank_spec(rng, n, rank)
        clean = it.verify_representations(spec)
        est = clean.branches["latent"].error_estimate
        # The conventional branch is the exact table.
        true_tv = clean.distances[("conventional", "latent")].tv
        assert true_tv <= max(1e-13, 10.0 * est), (true_tv, est)
        assert clean.all_pass, clean.to_text()
        faulted = it.verify_representations(spec, fault=it.BranchFault(branch="latent"))
        for row in faulted.pairs:
            assert row["passed"] == ("latent" not in row["pair"]), faulted.to_text()


class TestTolerances:
    def test_custom_tolerances_are_applied(self, monkeypatch):
        # EXACT_TOL bounds the exact pairs and floors the latent pairs' bound.
        spec = unit_coupling_spec(2)
        monkeypatch.setattr(it.equivalence, "EXACT_TOL", 1e-18)
        strict = it.verify_representations(spec)
        # Machine-precision agreement is not zero; absurdly strict bounds fail.
        assert not strict.all_pass
        assert not all(row["passed"] for row in strict.pairs if "latent" not in row["pair"])
        # Above the floor, ten estimates bound the latent pairs; the report
        # states the bound applied.
        latent_bound = 10.0 * strict.branches["latent"].error_estimate
        assert latent_bound > 1e-18
        assert {row["tolerance"] for row in strict.to_dict()["pairs"]} == {1e-18, latent_bound}
        monkeypatch.setattr(it.equivalence, "EXACT_TOL", 1e-6)
        loose = it.verify_representations(spec)
        assert loose.all_pass
        # Below the floor, the floor bounds the latent pairs too.
        assert 10.0 * loose.branches["latent"].error_estimate < 1e-6
        assert loose.bound("conventional") == loose.bound("latent") == 1e-6
        assert {row["tolerance"] for row in loose.to_dict()["pairs"]} == {1e-6}

    def test_the_bound_follows_the_estimate_not_the_name(self, monkeypatch):
        # A spectral table that carries an estimate is held to ten of them,
        # while the pair of exact tables keeps the floor.
        monkeypatch.setitem(
            it.equivalence.BRANCHES, "spectral",
            lambda spec, rule: replace(it.ising_pmf(spec), error_estimate=1e-9),
        )
        spec = unit_coupling_spec(2)
        report = it.verify_representations(spec)
        tolerances = {tuple(row["pair"]): row["tolerance"] for row in report.pairs}
        assert tolerances[("conventional", "spectral")] == 1e-8
        assert tolerances[("spectral", "collider")] == 1e-8
        assert tolerances[("conventional", "collider")] == 1e-12
        assert report.to_dict()["branches"][1]["error_estimate"] == 1e-9
        # The fault refusal reads the same bound: a shift of 5e-9 is below
        # twice 1e-8.
        with pytest.raises(ValueError, match="shift of 5.000e-09, below twice its bound 1e-08"):
            it.verify_representations(spec, fault=it.BranchFault("spectral", 1e-8))

    def test_latent_bound_stays_at_most_1e_7(self):
        # The latent module refuses estimates above ESTIMATE_TOL, so the
        # largest bound a latent pair can get is exactly 1e-7.
        assert max(it.equivalence.EXACT_TOL, 10.0 * it.latent.ESTIMATE_TOL) == 1e-7
        assert not hasattr(it.equivalence, "QUAD_TOL")
        assert not hasattr(it.EquivalenceReport, "quad_tol")
        # The exact bound is the latent pairs' one floor.
        assert not hasattr(it.equivalence, "QUAD_FLOOR")

    def test_coarse_quadrature_is_caught_not_tolerated(self):
        # A rule too coarse for the model must not be judged by its table:
        # the latent branch is not evaluated, and the reason is its estimate.
        spec = unit_coupling_spec(2)
        report = it.verify_representations(spec, rule=it.QuadratureRule(4))
        assert report.branches["latent"].evaluated is False
        assert all("latent" not in pair for pair in report.distances)
        assert report.branches["latent"].error_estimate is None
        assert re.fullmatch(
            r"latent table error estimate 0\.\d+ \(.*\) exceeds 1e-08; refine the rule \(more nodes\)",
            report.branches["latent"].skipped_reason,
        )
