import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ising_trinity as it
from ising_trinity import sampling
from ising_trinity.cli import _pmf_blocks, build_parser, main
from ising_trinity.equivalence import BRANCHES
from ising_trinity.graphs import VIEWS
from oracles import pmf_csv_text, pmf_json_text

AGREE = 0.4
MIXED = 0.1

QUAD_NODES_MESSAGE = (
    "latent rules take 1 to 128 nodes (each latent output also builds a reference "
    "rule of 1.5 times its nodes, rounded up)"
)


def write_spec(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def paired_spec(tmp_path):
    """n = 2, coupling log 2: agreeing configurations get probability 0.4."""
    return write_spec(
        tmp_path,
        {
            "n": 2,
            "delta": [0.0, 0.0],
            "sigma": [[0.0, math.log(2.0)], [math.log(2.0), 0.0]],
        },
    )


def read_pmf_csv(text):
    lines = text.strip().split("\n")
    probs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    return lines[0], np.array(probs)


class TestPmfCommand:
    def test_csv_table(self, tmp_path, capsys):
        assert main(["pmf", paired_spec(tmp_path)]) == 0
        header, probs = read_pmf_csv(capsys.readouterr().out)
        assert header == "x_1,x_2,probability"
        np.testing.assert_allclose(probs, [AGREE, MIXED, MIXED, AGREE], atol=1e-15)

    def test_seventeen_digits_round_trip(self, tmp_path, capsys):
        assert main(["pmf", paired_spec(tmp_path)]) == 0
        _, probs = read_pmf_csv(capsys.readouterr().out)
        pmf = it.ising_pmf(it.load_model_spec(paired_spec(tmp_path)))
        np.testing.assert_array_equal(probs, pmf.probs)

    @pytest.mark.parametrize("representation", ["spectral", "collider", "latent"])
    def test_all_representations_agree(self, tmp_path, capsys, representation):
        spec = paired_spec(tmp_path)
        assert main(["pmf", spec]) == 0
        _, base = read_pmf_csv(capsys.readouterr().out)
        assert main(["pmf", spec, "--representation", representation]) == 0
        _, probs = read_pmf_csv(capsys.readouterr().out)
        np.testing.assert_allclose(probs, base, atol=1e-12)

    def test_json_format(self, tmp_path, capsys):
        assert main(["pmf", paired_spec(tmp_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2
        assert doc["representation"] == "conventional"
        assert doc["log_z"] == pytest.approx(math.log(5.0), abs=1e-12)
        assert doc["columns"] == ["x_1", "x_2", "probability"]
        assert doc["rows"][0][:2] == [-1, -1]
        assert doc["rows"][0][2] == pytest.approx(AGREE, abs=1e-15)

    @pytest.mark.parametrize("representation", tuple(BRANCHES))
    def test_json_head_carries_the_tables_estimate(self, rng, tmp_path, capsys, representation):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 6, 2), path)
        assert main(["pmf", str(path), "-r", representation, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[:4] == ["n", "representation", "log_z", "error_estimate"]
        if representation != "latent":
            assert doc["error_estimate"] == 0.0
            return
        spec = it.load_model_spec(path)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        assert doc["error_estimate"] == it.mirt_marginal_pmf(lf).error_estimate > 0.0

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["pmf", paired_spec(tmp_path), "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        header, probs = read_pmf_csv(out.read_text())
        assert header == "x_1,x_2,probability"
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_too_many_items_exit_code(self, tmp_path, capsys):
        doc = {"n": 21, "delta": [0.0] * 21, "sigma": [[0.0] * 21 for _ in range(21)]}
        assert main(["pmf", write_spec(tmp_path, doc)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_latent_needs_low_rank(self, rng, tmp_path, capsys):
        from conftest import random_spec

        spec = random_spec(rng, 6)
        path = tmp_path / "model.json"
        it.save_model_spec(spec, path)
        assert main(["pmf", str(path), "-r", "latent"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_latent_limited_to_twenty_items(self, rng, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 21, 1), path)
        assert main(["pmf", str(path), "-r", "latent"]) == 3
        assert "n = 21 is too large for exact enumeration (limit 20)" in capsys.readouterr().err

    def test_only_the_latent_table_builds_a_quadrature_rule(self, tmp_path):
        # Building a Gauss-Hermite rule imports numpy.polynomial (about 1.8 MB
        # of memory per process), which the exact tables never need.
        argv = ["pmf", paired_spec(tmp_path), "-o", str(tmp_path / "table.csv")]
        code = (
            "import sys\nfrom ising_trinity.cli import main\n"
            f"for r in ('conventional', 'spectral', 'collider', 'latent'):\n"
            f"    main({argv!r} + ['-r', r])\n"
            "    print(r, 'numpy.polynomial' in sys.modules)\n"
        )
        src = str(Path(it.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.split("\n") == [
            "conventional False", "spectral False", "collider False", "latent True", ""
        ]

    def test_quad_nodes_refine_the_latent_rule(self, rng, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 12, 1), path)
        out = tmp_path / "table.csv"
        argv = ["pmf", str(path), "-r", "latent", "-o", str(out)]
        assert main([*argv, "--quad-nodes", "8"]) == 2
        assert "refine the rule" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0
        capsys.readouterr()
        _, probs = read_pmf_csv(out.read_text())
        spec = it.load_model_spec(path)
        np.testing.assert_allclose(probs, it.ising_pmf(spec).probs, rtol=0, atol=1e-12)


def pmf_text(pmf, representation, fmt):
    return b"".join(_pmf_blocks(pmf, representation, fmt)).decode()


def expected_pmf_text(pmf, representation, fmt):
    if fmt == "csv":
        return pmf_csv_text(pmf.n, pmf.probs.tolist())
    return pmf_json_text(
        pmf.n, representation, pmf.log_z, pmf.error_estimate, pmf.probs.tolist()
    )


def assert_json_rows_parse_back(pmf, text):
    """``json.loads`` of the written table returns exactly ``pmf.probs``."""
    probs = np.array([row[-1] for row in json.loads(text)["rows"]], dtype=np.float64)
    assert np.array_equal(probs.view(np.int64), pmf.probs.view(np.int64))


@st.composite
def tables(draw):
    """Tables over 1..10 variables with entries from 1 down to 1e-300, some exactly 0,
    and error estimates from 0 to the latent module's limit."""
    n = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    weights = rng.random(1 << n) * 10.0 ** rng.integers(-300, 1, 1 << n)
    weights[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    weights[rng.integers(1 << n)] = 1.0
    log_z = draw(st.floats(allow_nan=False, allow_infinity=False))
    error_estimate = draw(st.floats(min_value=0.0, max_value=1e-8))
    return it.Pmf(weights / weights.sum(), log_z, error_estimate)


class TestPmfBytes:
    """The table writer against the same document formatted cell by cell."""

    @settings(max_examples=60, deadline=None)
    @given(
        pmf=tables(),
        representation=st.sampled_from(tuple(BRANCHES)),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_text_matches_the_per_cell_reference(self, pmf, representation, fmt):
        text = pmf_text(pmf, representation, fmt)
        assert text == expected_pmf_text(pmf, representation, fmt)
        if fmt == "json":
            assert_json_rows_parse_back(pmf, text)

    # n = 0 has no configuration cells, so each row is the probability alone;
    # n = 10 is one full block of rows; n = 11 is the first table with a second
    # block, under the other cell of its high variable; n = 16 is the size of
    # the benchmark's tables, split 10 + 6.
    @pytest.mark.parametrize("n", [0, 10, 11, 16])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_sizes_match_the_per_cell_reference(self, n, fmt):
        rng = np.random.default_rng(n)
        weights = rng.random(1 << n) * 10.0 ** rng.integers(-300, 1, 1 << n)
        weights[rng.random(1 << n) < 0.1] = 0.0
        weights[0] = 1.0
        pmf = it.Pmf(weights / weights.sum(), -1.5)
        text = pmf_text(pmf, "collider", fmt)
        assert text == expected_pmf_text(pmf, "collider", fmt)
        if fmt == "json":
            assert json.loads(text)["rows"][0] == [*[-1] * n, pmf.probs[0]]
            assert_json_rows_parse_back(pmf, text)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        representation=st.sampled_from(tuple(BRANCHES)),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_command_output_matches_the_reference(
        self, tmp_path_factory, n, seed, representation, fmt
    ):
        # Couplings 0.3 s_i s_j: shifted by 0.3, they have rank one for the latent form.
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], n)
        sigma = 0.3 * np.outer(signs, signs)
        np.fill_diagonal(sigma, 0.0)
        spec = it.ModelSpec(delta=rng.uniform(-1.0, 1.0, n), sigma=sigma)
        tmp_path = tmp_path_factory.mktemp("pmf")
        it.save_model_spec(spec, tmp_path / "model.json")
        out = tmp_path / f"table.{fmt}"
        argv = ["pmf", str(tmp_path / "model.json"), "-r", representation, "--format", fmt]
        assert main([*argv, "-o", str(out)]) == 0
        pmf = BRANCHES[representation](spec, it.QuadratureRule())
        assert out.read_text(encoding="utf-8") == expected_pmf_text(pmf, representation, fmt)

    def test_writing_the_n16_json_table_keeps_a_small_peak(self, tmp_path):
        # Formatting the whole table as one string peaked at 27.7 MiB traced here.
        rng = np.random.default_rng(16)
        upper = np.triu(rng.uniform(-1.0, 1.0, (16, 16)), 1)
        spec = it.ModelSpec(rng.uniform(-1.0, 1.0, 16), upper + upper.T)
        it.save_model_spec(spec, tmp_path / "m.json")
        out = tmp_path / "t.json"
        argv = ["pmf", str(tmp_path / "m.json"), "--format", "json", "-o", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert len(json.loads(out.read_text())["rows"]) == 1 << 16


class TestSpecErrors:
    def test_asymmetric_sigma(self, tmp_path, capsys):
        doc = {"n": 2, "delta": [0, 0], "sigma": [[0, 0.7], [0.3, 0]]}
        assert main(["pmf", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "sigma[0][1]" in err and "sigma[1][0]" in err

    def test_unknown_field(self, tmp_path, capsys):
        doc = {"n": 1, "delta": [0], "sigma": [[0]], "beta": 1.0}
        assert main(["pmf", write_spec(tmp_path, doc)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("{oops")
        assert main(["pmf", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["pmf", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diagonal_is_tolerated_with_warning(self, tmp_path):
        doc = {"n": 2, "delta": [0, 0], "sigma": [[5.0, 0.1], [0.1, 5.0]]}
        with pytest.warns(UserWarning, match="diagonal"):
            assert main(["pmf", write_spec(tmp_path, doc), "-o", "/dev/null"]) == 0

    def test_diagonal_warning_is_one_line_without_package_paths(self, tmp_path):
        doc = {"n": 2, "delta": [0, 0], "sigma": [[5.0, 0.1], [0.1, 5.0]]}
        src = str(Path(it.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-m", "ising_trinity.cli", "pmf", write_spec(tmp_path, doc)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stderr == (
            "warning: nonzero sigma diagonal ignored: the diagonal never affects "
            "probabilities; zeroing it\n"
        )
        assert run.stdout.startswith("x_1,x_2,probability\n")

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        assert main(["pmf", paired_spec(tmp_path), "-r", "quantum"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field", ["delta", "sigma", "extra_shift"])
    def test_integer_beyond_the_float_range(self, tmp_path, capsys, field):
        # JSON integers are exact, so 10**400 parses; it is invalid input
        # (exit 2), not a verification failure (exit 1).
        doc = {"n": 2, "delta": [0, 0], "sigma": [[0, 0], [0, 0]]}
        where = {"delta": "delta[0]", "sigma": "sigma[0][1]", "extra_shift": "extra_shift"}[field]
        if field == "delta":
            doc["delta"][0] = 10**400
        elif field == "sigma":
            doc["sigma"][0][1] = doc["sigma"][1][0] = 10**400
        else:
            doc["extra_shift"] = 10**400
        assert main(["pmf", write_spec(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {where} must be finite, got an integer beyond the float range\n"
        )
        assert captured.out == ""


# Couplings near the float limit: the eigenvalues of the n = 2 matrix shift to
# 2e308, and the n = 3 one has an eigenvalue of -2e308.
HUGE_COUPLINGS = {
    "n2": {"n": 2, "delta": [0.0, 0.0], "sigma": [[0.0, 1e308], [1e308, 0.0]]},
    "n3": {
        "n": 3,
        "delta": [0.1, -0.2, 0.3],
        "sigma": [[0.0, 1e308, -1e308], [1e308, 0.0, 1e308], [-1e308, 1e308, 0.0]],
    },
}


@pytest.mark.parametrize("doc", HUGE_COUPLINGS.values(), ids=HUGE_COUPLINGS)
@pytest.mark.parametrize(
    "command",
    [["pmf", "-r", r] for r in BRANCHES] + [["verify"]],
    ids=[*(f"pmf-{r}" for r in BRANCHES), "verify"],
)
def test_non_finite_eigenvalues_exit_2(tmp_path, capsys, doc, command):
    # No eigen-based table (once uniform from NaN eigenvalues) and no verdict
    # is written.  The network table needs no eigenvalues and is exact.  At n = 3 the six
    # configurations that satisfy two couplings of three weigh 1e308 and the
    # two that satisfy none -3e308, beyond the float range: a weight of 0.
    conventional = command[1:] == ["-r", "conventional"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], write_spec(tmp_path, doc), *command[1:]])
    captured = capsys.readouterr()
    if conventional:
        assert (code, captured.err) == (0, "")
        sixth = 1.0 / 6.0
        probs = {2: [0.5, 0.0, 0.0, 0.5], 3: [sixth, sixth, 0.0, sixth, sixth, 0.0, sixth, sixth]}
        assert captured.out == pmf_csv_text(doc["n"], probs[doc["n"]])
        return
    assert code == 2
    assert "eigendecomposition of the coupling matrix failed" in captured.err
    assert "are not finite" in captured.err
    assert captured.out == ""


class TestVerifyCommand:
    def test_clean_model_passes(self, tmp_path, capsys):
        assert main(["verify", paired_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert out.count(" vs ") == 6

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["verify", paired_spec(tmp_path), "--json-report", str(report_path)]) == 0
        capsys.readouterr()
        doc = json.loads(report_path.read_text())
        assert doc["all_pass"] is True
        assert len(doc["pairs"]) == 6
        assert doc["rank"] == 1

    def test_json_report_dash_prints_after_the_text(self, tmp_path, capsys):
        spec = paired_spec(tmp_path)
        assert main(["verify", spec, "--json-report", "-"]) == 0
        text, _, report = capsys.readouterr().out.partition("\n{")
        assert text.endswith("overall: PASS")
        assert main(["verify", spec, "--json-report", str(tmp_path / "report.json")]) == 0
        written = (tmp_path / "report.json").read_text()
        seconds = re.compile(r'"seconds": [^,]*,')
        assert seconds.sub("", "{" + report) == seconds.sub("", written)
        assert not (tmp_path / "-").exists()

    def test_extra_shift_reaches_every_branch(self, tmp_path, capsys, monkeypatch):
        # Canonical rank 2; the file's shift makes every eigenvalue positive.
        doc = {
            "n": 3,
            "delta": [0.2, -0.1, 0.3],
            "sigma": [[0.0, 0.5, -0.3], [0.5, 0.0, 0.4], [-0.3, 0.4, 0.0]],
            "extra_shift": 2.0,
        }
        path, report_path = write_spec(tmp_path, doc), tmp_path / "report.json"
        tables = {}
        with monkeypatch.context() as patch:
            for name in ("spectral", "collider"):
                def record(spec, rule, name=name, build=BRANCHES[name]):
                    tables[name] = build(spec, rule)
                    return tables[name]

                patch.setitem(BRANCHES, name, record)
            assert main(["verify", path, "--json-report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n = 3, canonical rank = 3\n")
        assert "latent (" in out and "not evaluated" not in out
        assert json.loads(report_path.read_text())["rank"] == 3
        for name in ("spectral", "collider"):
            assert main(["pmf", path, "-r", name]) == 0
            _, probs = read_pmf_csv(capsys.readouterr().out)
            np.testing.assert_array_equal(probs, tables[name].probs)

    @pytest.mark.parametrize(
        "branch", ["conventional", "spectral", "collider", "latent"]
    )
    def test_fault_injection_fails_verification(self, tmp_path, capsys, branch):
        code = main(["verify", paired_spec(tmp_path), "--inject-fault", branch])
        out = capsys.readouterr().out
        assert code == 1
        assert "overall: FAIL" in out
        assert f"fault injected: branch {branch}" in out

    def test_fault_on_unavailable_branch(self, rng, tmp_path, capsys):
        from conftest import random_spec

        path = tmp_path / "model.json"
        it.save_model_spec(random_spec(rng, 6), path)
        assert main(["verify", str(path), "--inject-fault", "latent"]) == 2
        assert "not evaluated" in capsys.readouterr().err

    def test_runs_to_the_enumeration_limit(self, rng, tmp_path, capsys):
        from conftest import random_spec

        for n, code in ((20, 0), (21, 3)):
            path = tmp_path / f"model{n}.json"
            it.save_model_spec(random_spec(rng, n), path)
            assert main(["verify", str(path)]) == code
        captured = capsys.readouterr()
        assert "latent (not evaluated: tensor quadrature supports" in captured.out
        assert "overall: PASS" in captured.out
        assert "n = 21 is too large for exact enumeration" in captured.err

    def test_fault_on_branch_refused_by_its_rule(self, tmp_path, capsys):
        argv = ["verify", paired_spec(tmp_path), "--quad-nodes", "4", "--inject-fault", "latent"]
        assert main(argv) == 2
        assert "not evaluated: latent table error estimate" in capsys.readouterr().err

    def test_rank_two_at_twenty_items_runs_every_branch(self, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(np.random.default_rng([24, 20, 2]), 20, 2), path)
        report_path = tmp_path / "report.json"
        assert main(["verify", str(path), "--json-report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert all(branch["evaluated"] for branch in report["branches"])
        assert len(report["pairs"]) == 6 and report["all_pass"]
        assert main(["verify", str(path), "--inject-fault", "latent"]) == 1
        out = capsys.readouterr().out
        assert "fault injected: branch latent" in out and "overall: FAIL" in out

    def test_unresolved_latent_branch_is_not_evaluated(self, tmp_path, capsys):
        from conftest import low_rank_spec

        # Loadings of norm 3: the 64-node rule's estimate is about 2e-3.
        spec = low_rank_spec(np.random.default_rng([0, 14, 2]), 14, 2)
        path = tmp_path / "model.json"
        it.save_model_spec(it.ModelSpec(spec.delta, 9.0 * spec.sigma), path)
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"latent \(not evaluated: latent table error estimate 0\.\d+ \(.*\) exceeds 1e-08", out
        )
        assert "overall: PASS" in out

    def test_rank_one_at_twelve_items_passes_with_its_trust_numbers(self, rng, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 12, 1), path)
        report_path = tmp_path / "report.json"
        assert main(["verify", str(path), "--json-report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        est = {b["name"]: b["error_estimate"] for b in report["branches"]}["latent"]
        assert 0.0 <= est <= 1e-8
        tol = max(1e-12, 10.0 * est)
        latent_rows = [row for row in report["pairs"] if "latent" in row["pair"]]
        assert len(latent_rows) == 3 and all(row["tolerance"] == tol for row in latent_rows)
        out = capsys.readouterr().out
        assert re.search(rf"latent \(\d+\.\d{{3}}s, error estimate {re.escape(f'{est:.3e}')}\)", out)
        latent_lines = [line for line in out.splitlines() if " vs latent: " in line]
        assert len(latent_lines) == 3
        assert all(line.endswith(f"[PASS tv <= {tol:g}]") for line in latent_lines)
        assert "overall: PASS" in out

    def test_too_coarse_quadrature(self, tmp_path, capsys):
        # The latent branch is not evaluated, and the reason says why.
        assert main(["verify", paired_spec(tmp_path), "--quad-nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "refine" in out
        # The estimate prints as a plain number, not as numpy's scalar repr.
        assert re.search(r"latent table error estimate 0\.\d+ \(.*\) exceeds 1e-08", out)
        assert "np.float64" not in out

    def test_zero_fault_eps_exits_2(self, tmp_path, capsys):
        # A zero fault perturbs nothing, so it could only report PASS.
        argv = ["verify", paired_spec(tmp_path), "--inject-fault", "spectral", "--fault-eps", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "fault epsilon must be finite and nonzero, got 0.0" in captured.err
        assert captured.out == ""

    def test_fault_that_rounds_away_exits_2(self, tmp_path, capsys):
        # delta[0] + 1e-300 == delta[0]: the faulted branch would equal the
        # original and verify would print PASS under a "fault injected" line.
        rng = np.random.default_rng(0)
        upper = np.triu(rng.uniform(-1.0, 1.0, (6, 6)), 1)
        path = tmp_path / "model.json"
        it.save_model_spec(it.ModelSpec(rng.uniform(-1.0, 1.0, 6), upper + upper.T), path)
        argv = ["verify", str(path), "--inject-fault", "spectral", "--fault-eps", "1e-300"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: a fault of eps 1e-300 in the spectral branch has a predicted tv shift of "
            "0.000e+00, below twice its bound 1e-12; no verdict could show it\n"
        )
        assert captured.out == ""

    def test_fault_at_twenty_near_uniform_items_exits_1(self, tmp_path, capsys):
        from conftest import near_uniform_spec

        path = tmp_path / "model.json"
        it.save_model_spec(near_uniform_spec(), path)
        assert main(["verify", str(path), "--inject-fault", "spectral"]) == 1
        out = capsys.readouterr().out
        assert "fault injected: branch spectral, eps 1e-06, predicted tv shift 5.000e-07" in out
        assert "[FAIL tv <= 1e-12]" in out and "overall: FAIL" in out

    def test_large_fault_exits_1_with_its_exact_shift(self, tmp_path, capsys):
        # The first-order shift of this fault read 1.380e-12 and verify exited 2.
        from conftest import rank2_spec

        path, report_path = tmp_path / "rank2.json", tmp_path / "report.json"
        it.save_model_spec(rank2_spec(), path)
        argv = ["verify", str(path), "--inject-fault", "spectral", "--fault-eps", "15"]
        assert main([*argv, "--json-report", str(report_path)]) == 1
        assert "overall: FAIL" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        tv = next(row["tv"] for row in report["pairs"] if row["pair"] == ["conventional", "spectral"])
        assert report["fault_shift"] == pytest.approx(tv, abs=1e-12)
        assert report["fault_shift"] == pytest.approx(0.3296, abs=1e-4)

    def test_fault_no_verdict_can_show_exits_2(self, tmp_path, capsys):
        from conftest import frozen_site_spec

        path = tmp_path / "model.json"
        it.save_model_spec(frozen_site_spec(), path)
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), "--inject-fault", "spectral"]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"error: a fault of eps 1e-06 in the spectral branch has a predicted tv shift of "
            r"6\.79\de-14, below twice its bound 1e-12; no verdict could show it\n",
            captured.err,
        )
        assert captured.out == ""

    @pytest.mark.parametrize("nodes, got", [("256", "got 256"), ("300", "got 300")])
    def test_quadrature_rule_above_the_limit(self, tmp_path, capsys, nodes, got):
        # The message names the count asked for, and the CLI stops before
        # numpy builds a rule.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", paired_spec(tmp_path), "--quad-nodes", nodes]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {QUAD_NODES_MESSAGE}, {got}\n"


LATENT_COMMANDS = {
    "pmf": ["pmf", "-r", "latent"],
    "verify": ["verify"],
    "sample": ["sample", "--method", "latent-first", "--m", "5"],
}


@pytest.mark.parametrize("nodes", ["0", "129"])
@pytest.mark.parametrize("command", sorted(LATENT_COMMANDS))
def test_quad_nodes_outside_one_to_128_exit_2(tmp_path, capsys, command, nodes):
    name, *flags = LATENT_COMMANDS[command]
    out = tmp_path / "out.csv"
    argv = [name, paired_spec(tmp_path), *flags, "--quad-nodes", nodes]
    if name == "sample":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {QUAD_NODES_MESSAGE}, got {nodes}\n"
    assert captured.out == "" and not out.exists()


def test_only_the_latent_table_reads_quad_nodes(tmp_path, capsys):
    argv = ["pmf", paired_spec(tmp_path), "--quad-nodes", "0"]
    for representation in ("conventional", "spectral", "collider"):
        assert main([*argv, "-r", representation]) == 0
    capsys.readouterr()


class TestSampleCommand:
    def test_exact_is_deterministic(self, tmp_path, capsys):
        spec = paired_spec(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            assert main(
                ["sample", spec, "--method", "exact", "--m", "50", "--seed", "7", "--out", out]
            ) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        side = json.loads((tmp_path / "a.meta.json").read_text())
        assert side["method"] == "exact" and side["seed"] == 7 and side["m"] == 50

    def test_gibbs_writes_meta(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        code = main(
            [
                "sample", paired_spec(tmp_path), "--method", "gibbs",
                "--m", "20", "--out", out, "--burn-in", "50", "--thin", "2",
            ]
        )
        assert code == 0
        assert "wrote 20 draws via gibbs" in capsys.readouterr().out
        side = json.loads((tmp_path / "g.meta.json").read_text())
        # 20 chains of one draw each are too short for the diagnostics.
        assert side["meta"] == {
            "burn_in": 50, "thin": 2, "chains": 20, "rhat_max": None, "ess_min": None
        }

    def test_gibbs_that_does_not_mix_prints_one_warning(self, tmp_path):
        from conftest import low_rank_spec

        spec = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(np.random.default_rng(3), 12, 1), spec)
        argv = ["sample", str(spec), "--method", "gibbs", "--m", "20032", "--seed", "3"]
        src = str(Path(it.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-m", "ising_trinity.cli", *argv, "--out", str(tmp_path / "g.csv")],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stderr == (
            "warning: Gibbs chains have not mixed: split R-hat inf exceeds 1.01, "
            "so the draws may not follow the model\n"
        )
        assert json.loads((tmp_path / "g.meta.json").read_text())["meta"]["rhat_max"] == math.inf

    def test_rejection_reports_acceptance_rate(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        code = main(
            ["sample", paired_spec(tmp_path), "--method", "collider-rejection",
             "--m", "500", "--out", out]
        )
        assert code == 0
        assert "acceptance rate" in capsys.readouterr().out
        side = json.loads((tmp_path / "r.meta.json").read_text())
        assert 0.0 < side["meta"]["acceptance_rate"] <= 1.0
        # Coupling log 2 is the single effect lam = 2 log 2 along (1, 1)/sqrt(2),
        # which accepts agreeing fair coins surely and the others with 1/4.
        assert side["meta"]["predicted_acceptance"] == pytest.approx(0.625, rel=1e-14)

    def test_rejection_over_budget_exits_2_before_drawing(self, tmp_path, capsys):
        # Coupling 2 between ten causes, fields +-1.25: acceptance rate 3.4e-6,
        # so 3000 draws would take about 8.9e8 proposals.
        n = 10
        delta = [1.25] * 5 + [-1.25] * 5
        sigma = (2.0 * (np.ones((n, n)) - np.eye(n))).tolist()
        spec = write_spec(tmp_path, {"n": n, "delta": delta, "sigma": sigma})
        out = tmp_path / "r.csv"
        code = main(
            ["sample", spec, "--method", "collider-rejection", "--m", "3000", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 3000 draws at the predicted acceptance rate 3.39e-06")
        assert "more than the budget of 134217728" in err
        assert not out.exists()

    def test_rejection_stops_at_the_budget_above_the_enumeration_limit(
        self, tmp_path, capsys, monkeypatch
    ):
        # Coupling 4 between 23 causes, fields alternating +-3: the one effect
        # accepts little but agreement, which the fields make rare (about
        # 2e-29), and above n = 20 no rate is predicted, so the run spends the
        # budget.
        n = 23
        delta = [3.0 if i % 2 == 0 else -3.0 for i in range(n)]
        sigma = (4.0 * (np.ones((n, n)) - np.eye(n))).tolist()
        spec = write_spec(tmp_path, {"n": n, "delta": delta, "sigma": sigma})
        rows = sampling._UNIFORM_BLOCK // 7
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", rows + 1)
        out = tmp_path / "r.csv"
        code = main(
            ["sample", spec, "--method", "collider-rejection", "--m", "10", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: 0 of 10 draws kept after {2 * rows} proposals, the budget of "
            f"{rows + 1}; conditioning is too severe for rejection sampling\n"
        )
        assert not out.exists() and not it.sidecar_path(out).exists()

    def test_latent_first_works_on_rank_one(self, tmp_path, capsys):
        out = str(tmp_path / "l.csv")
        code = main(
            ["sample", paired_spec(tmp_path), "--method", "latent-first",
             "--m", "30", "--out", out]
        )
        assert code == 0
        capsys.readouterr()
        sample = it.load_sample_set(out)
        assert sample.m == 30 and sample.method == "latent-first"

    def test_latent_first_works_on_rank_two(self, rng, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 5, 2), path)
        out = str(tmp_path / "l.csv")
        code = main(
            ["sample", str(path), "--method", "latent-first", "--m", "30",
             "--seed", "3", "--out", out]
        )
        assert code == 0
        capsys.readouterr()
        side = json.loads((tmp_path / "l.meta.json").read_text())
        assert side["meta"] == {"quad_nodes": 64} and side["n"] == 5

    def test_latent_first_quad_nodes(self, rng, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 12, 1), path)
        out = tmp_path / "l.csv"
        argv = ["sample", str(path), "--method", "latent-first", "--m", "40", "--out", str(out)]
        assert main([*argv, "--quad-nodes", "32"]) == 2
        assert "refine the rule" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--quad-nodes", "128"]) == 0
        capsys.readouterr()
        side = json.loads((tmp_path / "l.meta.json").read_text())
        assert side["meta"] == {"quad_nodes": 128} and side["n"] == 12
        spec = it.load_model_spec(path)
        lf = it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
        ref = it.sample_latent_first(lf, it.QuadratureRule(128), 40, 0)
        assert np.array_equal(it.load_sample_set(out).draws, ref.draws)

    def test_latent_first_rejects_wide_models(self, rng, tmp_path, capsys):
        from conftest import low_rank_spec

        path = tmp_path / "model.json"
        it.save_model_spec(low_rank_spec(rng, 6, 4), path)
        code = main(
            ["sample", str(path), "--method", "latent-first", "--m", "5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: tensor quadrature supports a latent rank of at most 3, got rank 4\n"
        )

    def test_latent_first_refuses_node_weights_beyond_the_float_range(self, tmp_path, capsys):
        # The model's E[x_3] is tanh(1), but draws from the overflowed mixture
        # have mean 1.0.  Numpy's overflow warnings, ignored here, print first.
        path, out = tmp_path / "over.json", tmp_path / "over.csv"
        path.write_text(json.dumps({
            "n": 3, "delta": [1e308, 1e308, 0.0],
            "sigma": [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]],
        }))
        argv = ["sample", str(path), "--method", "latent-first", "--m", "2000", "--seed", "1",
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: quadrature node weights are not finite: they overflow the float range\n"
        )
        assert not out.exists() and not it.sidecar_path(out).exists()

    def test_out_dash_is_refused_before_drawing(self, tmp_path, capsys, monkeypatch):
        # A sample is a CSV plus its sidecar, which stdout cannot hold.
        spec = paired_spec(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["sample", spec, "--method", "exact", "--m", "3", "--out", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: sample writes a CSV and its sidecar, so --out must be a file, not -\n"
        assert sorted(tmp_path.iterdir()) == before

    # 10**17 draws need at least 4.4e17 bytes, beyond any 57-bit address
    # space, so no overcommit policy grants them; numpy refuses no count below
    # 2**63 before it allocates.
    @pytest.mark.parametrize("method", ["exact", "gibbs", "latent-first"])
    def test_a_draw_count_beyond_memory_exits_2(self, tmp_path, capsys, method):
        from conftest import rank2_spec

        path, out = tmp_path / "rank2.json", tmp_path / "huge.csv"
        it.save_model_spec(rank2_spec(), path)
        argv = ["sample", str(path), "--method", method, "--m", str(10**17), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: Unable to allocate [^\n]*\n", captured.err)
        assert not out.exists() and not it.sidecar_path(out).exists()

    @pytest.mark.parametrize("option", ["--burn-in", "--thin"])
    def test_gibbs_beyond_its_budget_exits_2(self, tmp_path, capsys, option):
        from conftest import rank2_spec

        path, out = tmp_path / "rank2.json", tmp_path / "g.csv"
        it.save_model_spec(rank2_spec(), path)
        argv = ["sample", str(path), "--method", "gibbs", "--m", "10", option, str(10**15),
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*, more than the budget of 134217728\n", captured.err)
        assert not out.exists() and not it.sidecar_path(out).exists()

    def test_zero_draws(self, tmp_path, capsys):
        code = main(
            ["sample", paired_spec(tmp_path), "--method", "gibbs", "--m", "0",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "at least 1" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_from_sampled_draws(self, tmp_path, capsys):
        spec = paired_spec(tmp_path)
        draws = str(tmp_path / "draws.csv")
        assert main(
            ["sample", spec, "--method", "exact", "--m", "4000", "--seed", "1",
             "--out", draws]
        ) == 0
        capsys.readouterr()
        assert main(["fit", draws]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["sigma"][0][1] == pytest.approx(math.log(2.0), abs=0.12)
        assert doc["delta"][0] == pytest.approx(0.0, abs=0.12)

    def test_weight_column_population_fit(self, tmp_path, capsys):
        table = tmp_path / "population.csv"
        table.write_text(
            "x_1,x_2,weight\n"
            f"-1,-1,{AGREE}\n1,-1,{MIXED}\n-1,1,{MIXED}\n1,1,{AGREE}\n"
        )
        assert main(["fit", str(table)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["sigma"][0][1] == pytest.approx(math.log(2.0), abs=1e-5)
        assert doc["delta"] == pytest.approx([0.0, 0.0], abs=1e-5)

    def test_output_file_and_summary_line(self, tmp_path, capsys):
        table = tmp_path / "population.csv"
        table.write_text(
            "x_1,x_2,weight\n"
            f"-1,-1,{AGREE}\n1,-1,{MIXED}\n-1,1,{MIXED}\n1,1,{AGREE}\n"
        )
        out = tmp_path / "fit.json"
        assert main(["fit", str(table), "--out", str(out)]) == 0
        assert "converged" in capsys.readouterr().out
        assert json.loads(out.read_text())["converged"] is True

    @pytest.mark.parametrize(
        "rows, init, decrement",
        [
            ("x_1,x_2,weight\n1,-1,0.25\n-1,1,0.75\n", None, r"Newton decrement \d\.\d{3}e-\d\d\)"),
            ("x_1,x_2\n1,1\n1,-1\n1,1\n", None, r"Newton decrement \d\.\d{3}e-\d\d\)"),
            ("x_1,x_2\n1,1\n1,-1\n1,1\n", [400.0, 0.0], r"Newton decrement n/a\)"),
        ],
        ids=["separable", "constant column", "unusable hessian"],
    )
    def test_maximum_at_infinity_stops_at_the_cap(self, tmp_path, capsys, rows, init, decrement):
        """Separable rows (maximum at sigma_12 = -infinity) and a constant column
        (delta_1 = +infinity) take Newton steps, since every site's block has
        full rank; from delta_1 = 400 site 1's weight underflows, the Hessian
        has no Cholesky factor, and the fit takes gradient steps."""
        table = tmp_path / "data.csv"
        table.write_text(rows)
        args = ["fit", str(table), "--max-iter", "5", "--out", str(tmp_path / "fit.json")]
        if init is not None:
            doc = {"n": 2, "delta": init, "sigma": [[0, 0], [0, 0]]}
            args += ["--init", write_spec(tmp_path, doc)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0
        summary = capsys.readouterr().out
        assert "did not converge after 5 iterations" in summary
        assert re.search(decrement, summary)
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["converged"] is False
        assert (doc["newton_decrement"] is None) == (init is not None)
        assert np.all(np.diff(doc["objective_trace"]) >= 0.0)

    def test_iteration_cap_still_reports(self, tmp_path, capsys):
        table = tmp_path / "population.csv"
        table.write_text(
            "x_1,x_2,weight\n"
            f"-1,-1,{AGREE}\n1,-1,{MIXED}\n-1,1,{MIXED}\n1,1,{AGREE}\n"
        )
        assert main(["fit", str(table), "--max-iter", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["iterations"] == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--grad-tol", "inf"), ("--grad-tol", "nan"), ("--grad-tol", "0"), ("--max-iter", "-5")],
    )
    def test_invalid_stopping_rule_exits_2(self, tmp_path, capsys, flag, value):
        table = tmp_path / "population.csv"
        table.write_text(
            "x_1,x_2,weight\n"
            f"-1,-1,{AGREE}\n1,-1,{MIXED}\n-1,1,{MIXED}\n1,1,{AGREE}\n"
        )
        out = tmp_path / "fit.json"
        assert main(["fit", str(table), flag, value, "--out", str(out)]) == 2
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_data_file(self, tmp_path, capsys):
        table = tmp_path / "empty.csv"
        table.write_text("")
        assert main(["fit", str(table)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_malformed_row(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("x_1,x_2\n1,up\n")
        assert main(["fit", str(table)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_header_only(self, tmp_path, capsys):
        table = tmp_path / "empty.csv"
        table.write_text("x_1,x_2\n")
        assert main(["fit", str(table)]) == 2
        assert "no rows" in capsys.readouterr().err

    def test_init_spec(self, tmp_path, capsys):
        spec = paired_spec(tmp_path)
        table = tmp_path / "population.csv"
        table.write_text(
            "x_1,x_2,weight\n"
            f"-1,-1,{AGREE}\n1,-1,{MIXED}\n-1,1,{MIXED}\n1,1,{AGREE}\n"
        )
        assert main(["fit", str(table), "--init", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 0
        assert doc["converged"] is True


class TestExportGraphCommand:
    def test_network_view(self, tmp_path, capsys):
        assert main(["export-graph", paired_spec(tmp_path), "--view", "network"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph network {")
        assert "x1 -- x2" in out

    def test_common_cause_view(self, tmp_path, capsys):
        assert main(["export-graph", paired_spec(tmp_path), "--view", "common-cause"]) == 0
        out = capsys.readouterr().out
        assert "theta1 [shape=circle];" in out
        assert "theta1 -> x2;" in out
        assert "theta2" not in out

    def test_collider_view_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "graph.dot"
        assert main(
            ["export-graph", paired_spec(tmp_path), "--view", "collider",
             "--out", str(out_path)]
        ) == 0
        text = out_path.read_text()
        assert "e1 [shape=box];" in text
        assert "x1 -> e1;" in text


# Each command that writes to a path or to stdout for "-": its arguments,
# with "{spec}" for an n = 11 model (two blocks of pmf rows) and "{data}" for
# a weighted data table, and its output flag.
WRITERS = {
    "pmf-csv": (["pmf", "{spec}", "-r", "spectral"], "-o"),
    "pmf-json": (["pmf", "{spec}", "--format", "json"], "-o"),
    "fit": (["fit", "{data}"], "--out"),
    **{f"graph-{view}": (["export-graph", "{spec}", "--view", view], "--out") for view in VIEWS},
}


@pytest.mark.parametrize("argv, flag", WRITERS.values(), ids=WRITERS)
def test_stdout_holds_the_bytes_written_to_a_file(tmp_path, capsysbinary, argv, flag):
    rng = np.random.default_rng(11)
    upper = np.triu(rng.uniform(-1.0, 1.0, (11, 11)), 1)
    spec = it.ModelSpec(rng.uniform(-1.0, 1.0, 11), upper + upper.T)
    it.save_model_spec(spec, tmp_path / "m.json")
    data = tmp_path / "population.csv"
    data.write_text(
        f"x_1,x_2,weight\n-1,-1,{AGREE}\n1,-1,{MIXED}\n-1,1,{MIXED}\n1,1,{AGREE}\n"
    )
    argv = [arg.format(spec=tmp_path / "m.json", data=data) for arg in argv]
    assert main([*argv, flag, "-"]) == 0
    printed = capsysbinary.readouterr().out
    assert main([*argv, flag, str(tmp_path / "out")]) == 0
    assert printed == (tmp_path / "out").read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [(["pmf"], 0), (["verify", "--inject-fault", "spectral"], 1)],
    ids=["pmf", "verify"],
)
def test_a_reader_that_stops_early_leaves_the_exit_code(tmp_path, argv, code):
    # As `| head -1` does: read one line, then close the pipe. The n = 12
    # table is larger than a pipe's buffer, so pmf still has rows to write.
    doc = {"n": 12, "delta": [0.1] * 12, "sigma": np.zeros((12, 12)).tolist()}
    src = str(Path(it.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    command = [sys.executable, "-m", "ising_trinity.cli", argv[0], write_spec(tmp_path, doc)]
    with subprocess.Popen(
        command + argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    ) as run:
        run.stdout.readline()
        run.stdout.close()
        assert (run.wait(timeout=60), run.stderr.read()) == (code, b"")


def test_flag_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    gibbs = parse(["sample", "s.json", "--method", "gibbs", "--m", "1", "--out", "o.csv"])
    assert (gibbs.burn_in, gibbs.thin) == (1000, 1)
    assert parse(["verify", "s.json"]).fault_eps == it.BranchFault("spectral").eps == 1e-6
    fit = parse(["fit", "d.csv"])
    assert (fit.grad_tol, fit.max_iter) == (1e-6, 5000)
