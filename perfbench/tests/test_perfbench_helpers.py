"""Tests of the benchmark's own helpers: spans, tail percentile, output checks."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from load import import_package  # noqa: E402

it = import_package()

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Tables, cli_failures  # noqa: E402


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "session": 0, "attrs": {}}


def test_self_time_subtracts_nested_children_once():
    recorded = [
        _span("outer", 0.0, 10.0),
        _span("child", 1.0, 4.0, parent=0),
        _span("grandchild", 2.0, 3.0, parent=1),
        _span("child", 6.0, 7.5, parent=0),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_as_their_union():
    recorded = [_span("outer", 0.0, 10.0), _span("a", 1.0, 5.0, 0), _span("b", 3.0, 6.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(5.0)


def test_tracer_records_parents_and_sessions():
    tracer = spans.Tracer()
    tracer.active, tracer.session = True, 3
    with tracer.span("outer"):
        with tracer.span("inner", rows=7):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert inner["session"] == 3 and inner["attrs"] == {"rows": 7}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_install_wraps_every_binding_and_uninstall_restores():
    import ising_trinity.cli as cli
    import ising_trinity.equivalence as equivalence
    import ising_trinity.latent as latent

    original = it.ising_pmf
    tracer = spans.Tracer()
    patched = spans.install(tracer, it, metrics.READERS)
    try:
        assert cli.ising_pmf.__wrapped__ is original and it.ising_pmf is cli.ising_pmf
        assert equivalence.mirt_marginal_pmf.__wrapped__ is it.mirt_marginal_pmf.__wrapped__
        assert latent.mirt_marginal_pmf is equivalence.mirt_marginal_pmf
        tracer.active = True
        cli.ising_pmf(it.ModelSpec(delta=np.zeros(3), sigma=np.zeros((3, 3))))
    finally:
        tracer.active = False
        spans.uninstall(patched)
    assert cli.ising_pmf is original and it.ising_pmf is original
    outer = tracer.spans[0]
    assert outer["name"] == "core.ising_pmf" and outer["attrs"] == {"n": 3}
    assert all(s["parent"] == 0 for s in tracer.spans[1:])


def test_tail_is_the_highest_value_with_ten_beyond():
    values = [float(v) for v in range(1, 26)]  # 25 sessions
    value, pct = metrics.tail_percentile(values)
    assert value == 15.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(60.0)
    assert metrics.tail_percentile(values[:11])[0] == 1.0


def test_tail_needs_more_than_ten_sessions():
    with pytest.raises(ValueError):
        metrics.tail_percentile([1.0] * 10)


def test_session_count_follows_seconds_and_always_allows_a_tail():
    assert run.session_count(30, 2.0) == 15
    assert run.session_count(30, 3.5) == run.MIN_SESSIONS > metrics.TAIL_BEYOND


def test_table_check_rejects_a_corrupted_probability():
    tables = Tables()
    n = 3
    tables.N_CLI = n
    delta, sigma = np.array([0.1, -0.2, 0.3]), np.zeros((n, n))
    ref, _ = checks.reference_pmf(delta, sigma)
    grid = checks.configs(n)
    header = [f"x_{i + 1}" for i in range(n)] + ["probability"]
    table = np.column_stack([grid, ref])
    assert tables._table_failures("pmf csv", header, table, ref, grid) == []
    table[5, n] += 1e-9
    assert tables._table_failures("pmf csv", header, table, ref, grid)
    table = np.column_stack([grid[::-1], ref])
    assert tables._table_failures("pmf csv", header, table, ref, grid)


def test_spot_check_rejects_a_perturbed_branch():
    spec = it.ModelSpec(delta=np.array([0.2, -0.1, 0.4, 0.0]),
                        sigma=0.3 * (np.ones((4, 4)) - np.eye(4)))
    idx = np.arange(16)
    ref_logw = checks.log_weights(spec.delta, spec.sigma, checks.configs(4))
    assert Tables._spot_check("ising_pmf", it.ising_pmf(spec), idx, ref_logw) == []
    shifted = it.ModelSpec(delta=spec.delta + np.array([1e-6, 0, 0, 0]), sigma=spec.sigma)
    assert Tables._spot_check("ising_pmf", it.ising_pmf(shifted), idx, ref_logw)


def test_exit_code_check_rejects_an_unexpected_code():
    ok = {"rc": 1, "stdout": "", "stderr": ""}
    assert cli_failures("verify --inject-fault latent", ok, expected=1) == []
    bad = {"rc": 2, "stdout": "", "stderr": "error: mass 0.9999 deviates from 1\n"}
    (reason,) = cli_failures("verify n=12 rank 1", bad)
    assert "exit 2, expected 0" in reason and "0.9999" not in reason


def test_chi_square_accepts_the_table_and_rejects_a_wrong_one():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(0)
    counts = rng.multinomial(20_000, probs)
    stat, df, threshold = checks.chi_square_gof(counts, probs)
    assert df == 3 and stat < threshold
    stat, _, threshold = checks.chi_square_gof(counts, np.array([0.15, 0.2, 0.25, 0.4]))
    assert stat > threshold


def test_op_log_separates_errors_from_wrong_values():
    log = checks.OpLog()
    log.record()
    log.record(errors=["verify: exit 2, expected 0"])
    log.record(wrong=["pmf csv: wrong header"])
    assert (log.attempted, log.failed, log.wrong) == (3, 2, 1)
    assert log.reasons["wrong output: pmf csv: wrong header"] == 1


def test_moment_check_rejects_a_wrong_second_moment():
    spec = it.ModelSpec(delta=np.array([0.3, -0.2, 0.1, 0.5]),
                        sigma=0.2 * (np.ones((4, 4)) - np.eye(4)))
    pmf = it.ising_pmf(spec)
    first, second = it.pmf_moments(pmf)
    rng = np.random.default_rng(0)
    assert Tables()._moment_check(pmf, (first, second), rng) == []
    wrong = second + 1e-9
    assert Tables()._moment_check(pmf, (first, wrong), rng)
    assert Tables()._moment_check(pmf, (first + 1e-9, second), rng)
