"""The three workloads: inputs, one timed session, and the output checks.

A session is one fixed unit of user work on inputs freshly drawn from the
run's seed and the session index.  It goes through the two public entry
points, the package API and ``ising_trinity.cli.main(argv)`` in process, and
records each operation's outcome.  Checks run after the session's clock has
stopped.

- ``tables``: the n = 20 enumeration limit through three branches plus
  distances and moments, and an n = 16 table written as CSV and JSON.
  Enumeration and table formatting do the work; quadrature does none.
- ``verify``: the CLI verifier over a rank ladder at n = 10 and 12 plus one
  injected latent fault.  Tensor quadrature does the work, and enumeration
  runs many times at small n.
- ``simulate-fit``: four samplers at n = 10 and a pseudo-likelihood fit of the
  Gibbs draws.  Sampler loops, CSV writing and reading, and the fit loop do
  the work.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import ising_trinity as it
from ising_trinity import cli

import checks

# Each workload's ``NOMINAL_SESSION_S`` is its session time when the benchmark
# was defined (2-CPU VM); it sets how many sessions a run of ``--seconds``
# makes, and stays fixed so that runs of later versions make the same sessions.

EXACT_TOL = 1e-12
# Log-probability agreement for spot checks of the n = 20 tables.
LOG_TOL = 1e-9


def run_cli(tracer, argv: list[str], **attrs) -> dict:
    """One in-process CLI call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with tracer.span("cli." + argv[0], **attrs), redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def attempt(fn, *args):
    """``(value, None)`` or ``(None, reason)`` when the API call raises."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def cli_failures(op: str, result: dict, expected: int = 0) -> list[str]:
    """The reason a CLI call failed, or none when it exited as expected.

    The reason quotes the last line of standard error without the words that
    hold numbers, so that repeats of one failure tally together.
    """
    if result["rc"] == expected:
        return []
    lines = result["stderr"].strip().splitlines()
    gist = " ".join(w for w in lines[-1].split() if not any(c.isdigit() for c in w)) if lines else ""
    return [f"{op}: exit {result['rc']}, expected {expected}" + (f" ({gist[:100]})" if gist else "")]


def output_failures(op: str, result: dict, inspect) -> tuple[list[str], list[str]]:
    """``(errors, wrong)`` of a CLI call whose written output ``inspect()`` checks.

    An output that cannot be read back is a wrong output, not a crash of the
    benchmark.
    """
    errors = cli_failures(op, result)
    if errors:
        return errors, []
    try:
        return [], inspect()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [], [f"{op}: unreadable output ({type(exc).__name__})"]


def random_spec(rng, n: int, coupling_scale: float = 1.0, field_scale: float = 1.0):
    """A random full-rank model: couplings and fields uniform in +/-scale."""
    sigma = np.triu(rng.uniform(-coupling_scale, coupling_scale, (n, n)), k=1)
    return it.ModelSpec(delta=rng.uniform(-field_scale, field_scale, n), sigma=sigma + sigma.T)


def low_rank_spec(rng, n: int, rank: int, field_scale: float = 1.0):
    """Couplings from unit-norm loadings, so the canonical shift is 1 and the
    shifted rank is ``rank`` (the construction the package's tests use)."""
    loadings = rng.normal(size=(n, rank))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    sigma = loadings @ loadings.T
    np.fill_diagonal(sigma, 0.0)
    return it.ModelSpec(delta=rng.uniform(-field_scale, field_scale, n), sigma=sigma)


def counts_of(draws: np.ndarray) -> np.ndarray:
    n = draws.shape[1]
    idx = (draws > 0).astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    return np.bincount(idx, minlength=1 << n)


class Tables:
    name = "tables"
    NOMINAL_SESSION_S = 3.5
    N_API = 20
    N_CLI = 16
    REPRESENTATIONS = ("conventional", "spectral", "collider")
    SPOT_CHECKS = 512
    MOMENT_PAIRS = 4

    def make_inputs(self, rng, workdir: Path, index: int) -> dict:
        spec = random_spec(rng, self.N_API)
        small = random_spec(rng, self.N_CLI)
        path = workdir / "tables16.json"
        it.save_model_spec(small, path)
        return {
            "spec": spec,
            "small": small,
            "spec_path": str(path),
            "representation": self.REPRESENTATIONS[index % len(self.REPRESENTATIONS)],
            "csv": str(workdir / "tables16.csv"),
            "json": str(workdir / "tables16.json.out"),
            "check_rng": np.random.default_rng(rng.integers(2**63)),
        }

    def session(self, inp: dict, tracer) -> dict:
        spec = inp["spec"]
        res = {}
        res["ising_pmf"] = attempt(it.ising_pmf, spec)
        form, err = attempt(it.to_spectral, spec)
        if err is None:
            res["spectral_pmf"] = attempt(it.spectral_pmf, form, spec.delta)
            res["conditioned_pmf"] = attempt(
                lambda: it.conditioned_pmf(it.spectral_to_collider(form, spec.delta))
            )
        else:
            res["spectral_pmf"] = res["conditioned_pmf"] = (None, err)
        tables = [res[k][0] for k in ("ising_pmf", "spectral_pmf", "conditioned_pmf")]
        res["distances"] = [
            attempt(it.pmf_distance, a, b) if a is not None and b is not None
            else (None, "table missing")
            for a, b in ((tables[0], tables[1]), (tables[0], tables[2]), (tables[1], tables[2]))
        ]
        res["pmf_moments"] = (
            attempt(it.pmf_moments, tables[0]) if tables[0] is not None
            else (None, "table missing")
        )
        rep = inp["representation"]
        rows = 1 << self.N_CLI
        res["cli_csv"] = run_cli(
            tracer, ["pmf", inp["spec_path"], "-r", rep, "-o", inp["csv"]], rows=rows
        )
        res["cli_json"] = run_cli(
            tracer, ["pmf", inp["spec_path"], "-r", rep, "--format", "json", "-o", inp["json"]],
            rows=rows,
        )
        return res

    def check(self, inp: dict, res: dict, log: checks.OpLog, counts: dict) -> None:
        spec, rng = inp["spec"], inp["check_rng"]
        n = spec.n
        idx = rng.choice(1 << n, self.SPOT_CHECKS, replace=False)
        x = 2.0 * ((idx[:, None] >> np.arange(n)) & 1) - 1.0
        ref_logw = checks.log_weights(spec.delta, spec.sigma, x)
        for op in ("ising_pmf", "spectral_pmf", "conditioned_pmf"):
            pmf, err = res[op]
            if err:
                log.record(errors=[f"{op}: {err}"])
            else:
                log.record(wrong=self._spot_check(op, pmf, idx, ref_logw))
        tables = [res[k][0] for k in ("ising_pmf", "spectral_pmf", "conditioned_pmf")]
        names = ("ising-spectral", "ising-collider", "spectral-collider")
        pairs = ((0, 1), (0, 2), (1, 2))
        for name, (i, j), (dist, err) in zip(names, pairs, res["distances"]):
            if err:
                log.record(errors=[f"pmf_distance {name}: {err}"])
                continue
            diff = np.abs(tables[i].probs - tables[j].probs)
            failures = []
            if diff.max() > EXACT_TOL:
                failures.append(f"pmf_distance {name}: branches disagree beyond {EXACT_TOL:g}")
            if dist.max_abs != diff.max() or abs(dist.tv - 0.5 * diff.sum()) > EXACT_TOL:
                failures.append(f"pmf_distance {name}: reported distance is wrong")
            log.record(wrong=failures)
        moments, err = res["pmf_moments"]
        if err:
            log.record(errors=[f"pmf_moments: {err}"])
        else:
            log.record(wrong=self._moment_check(tables[0], moments, rng))

        ref, _ = checks.reference_pmf(inp["small"].delta, inp["small"].sigma)
        grid = checks.configs(self.N_CLI)
        for key, op, read in (("cli_csv", "pmf csv", self._read_csv),
                              ("cli_json", "pmf json", self._read_json)):
            log.record(*output_failures(
                op, res[key], lambda: self._table_failures(op, *read(inp), ref, grid)
            ))

    @staticmethod
    def _spot_check(op, pmf, idx, ref_logw) -> list[str]:
        """Ratios of sampled entries must match the reference log weights."""
        logp = np.log(pmf.probs[idx])
        top = int(np.argmax(logp))
        gap = (logp - logp[top]) - (ref_logw - ref_logw[top])
        if not np.all(np.isfinite(gap)) or np.abs(gap).max() > LOG_TOL:
            return [f"{op}: table entries disagree with the reference weights"]
        return []

    def _moment_check(self, pmf, moments, rng) -> list[str]:
        n = pmf.n
        first, second = moments

        def split(bit: int) -> np.ndarray:
            # Probability mass with bit ``bit`` of the index clear (0) or set (1).
            return pmf.probs.reshape(-1, 2, 1 << bit).sum(axis=(0, 2))

        own_first = np.array([np.diff(split(i))[0] for i in range(n)])
        failures = []
        if np.abs(own_first - first).max() > EXACT_TOL:
            failures.append("pmf_moments: first moments are wrong")
        for _ in range(self.MOMENT_PAIRS):
            i, j = sorted(rng.choice(n, 2, replace=False))
            plane = pmf.probs.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i).sum(axis=(0, 2, 4))
            own = plane[0, 0] + plane[1, 1] - plane[0, 1] - plane[1, 0]
            if abs(own - second[i, j]) > EXACT_TOL or abs(own - second[j, i]) > EXACT_TOL:
                failures.append("pmf_moments: second moments are wrong")
                break
        return failures

    @staticmethod
    def _read_csv(inp: dict) -> tuple[list, np.ndarray]:
        with open(inp["csv"], encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        return header, np.loadtxt(inp["csv"], delimiter=",", skiprows=1, ndmin=2)

    @staticmethod
    def _read_json(inp: dict) -> tuple[list, np.ndarray]:
        with open(inp["json"], encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc["columns"], np.array(doc["rows"], dtype=np.float64, ndmin=2)

    def _table_failures(self, op, header, table, ref, grid) -> list[str]:
        n = self.N_CLI
        if header != [f"x_{i + 1}" for i in range(n)] + ["probability"]:
            return [f"{op}: wrong header"]
        if table.shape != (1 << n, n + 1) or not np.array_equal(table[:, :n], grid):
            return [f"{op}: wrong configuration rows"]
        if np.abs(table[:, n] - ref).max() > EXACT_TOL:
            return [f"{op}: probabilities disagree with the reference table"]
        return []


class Verify:
    name = "verify"
    NOMINAL_SESSION_S = 2.5
    # (n, rank) of the clean calls; rank None is a random full-rank model,
    # whose latent branch the verifier skips.  n = 12 rank 1 exits 2 today:
    # the 64-node rule misses mass of the exchangeable-like density.
    LADDER = ((10, 1), (10, 2), (10, 3), (10, None), (12, 1), (12, 2))
    FAULT = (10, 2)

    def make_inputs(self, rng, workdir: Path, index: int) -> dict:
        calls = []
        for n, rank in self.LADDER + (self.FAULT,):
            spec = random_spec(rng, n) if rank is None else low_rank_spec(rng, n, rank)
            path = workdir / f"verify_{len(calls)}.json"
            it.save_model_spec(spec, path)
            calls.append((n, rank, str(path)))
        return {"calls": calls}

    def session(self, inp: dict, tracer) -> dict:
        results = []
        for k, (_, _, path) in enumerate(inp["calls"]):
            argv = ["verify", path]
            if k == len(self.LADDER):
                argv += ["--inject-fault", "latent"]
            results.append(run_cli(tracer, argv))
        return {"calls": results}

    def check(self, inp: dict, res: dict, log: checks.OpLog, counts: dict) -> None:
        for k, ((n, rank, _), result) in enumerate(zip(inp["calls"], res["calls"])):
            label = f"rank {rank}" if rank is not None else "full rank"
            if k < len(self.LADDER):
                log.record(errors=cli_failures(f"verify n={n} {label}", result))
                continue
            counts["faults_injected"] += 1
            counts["faults_caught"] += result["rc"] == 1
            op = f"verify --inject-fault latent n={n} {label}"
            if result["rc"] == 0:
                log.record(errors=[f"{op}: exit 0, fault missed"])
            else:
                log.record(errors=cli_failures(op, result, 1))


class SimulateFit:
    name = "simulate-fit"
    NOMINAL_SESSION_S = 2.0
    N = 10
    COUPLING = 0.1
    FIELD = 0.5
    M = 20_000
    METHODS = ("exact", "gibbs", "collider-rejection", "latent-first")
    # Gradient ascent needs from 40 to over 3000 iterations on this family,
    # so an uncapped fit makes session time depend on which models a seed
    # draws.  The estimate reaches its sampling error within 30 iterations.
    FIT_MAX_ITER = 30
    # About ten standard errors of a pseudo-likelihood estimate at M draws.
    FIT_TOL = 0.08
    # Gibbs draws are autocorrelated; every tenth sweep is close to independent
    # at this coupling, which the chi-square test assumes.
    GIBBS_CHECK_THIN = 10

    def make_inputs(self, rng, workdir: Path, index: int) -> dict:
        n = self.N
        sigma = self.COUPLING * (np.ones((n, n)) - np.eye(n))
        spec = it.ModelSpec(delta=rng.uniform(-self.FIELD, self.FIELD, n), sigma=sigma)
        path = workdir / "simfit.json"
        it.save_model_spec(spec, path)
        return {
            "spec": spec,
            "spec_path": str(path),
            "seeds": [int(s) for s in rng.integers(0, 2**31, len(self.METHODS))],
            "csv": {m: str(workdir / f"draws_{m}.csv") for m in self.METHODS},
            "fit": str(workdir / "fit.json"),
        }

    def session(self, inp: dict, tracer) -> dict:
        res = {}
        for method, seed in zip(self.METHODS, inp["seeds"]):
            res[method] = run_cli(tracer, [
                "sample", inp["spec_path"], "--method", method, "--m", str(self.M),
                "--seed", str(seed), "--out", inp["csv"][method],
            ])
        res["fit"] = run_cli(tracer, [
            "fit", inp["csv"]["gibbs"], "--out", inp["fit"],
            "--max-iter", str(self.FIT_MAX_ITER),
        ])
        return res

    def check(self, inp: dict, res: dict, log: checks.OpLog, counts: dict) -> None:
        spec = inp["spec"]
        probs, _ = checks.reference_pmf(spec.delta, spec.sigma)
        for method in self.METHODS:
            log.record(*output_failures(
                f"sample {method}", res[method],
                lambda: self._sample_failures(method, inp["csv"][method], spec, probs),
            ))
        log.record(*output_failures("fit", res["fit"], lambda: self._fit_failures(inp["fit"], spec)))

    def _fit_failures(self, path, spec) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            fit = json.load(fh)
        iu = np.triu_indices(self.N, k=1)
        gap = max(
            np.abs(np.array(fit["sigma"])[iu] - spec.sigma[iu]).max(),
            np.abs(np.array(fit["delta"]) - spec.delta).max(),
        )
        if not gap <= self.FIT_TOL:
            return [f"fit: estimate off by more than {self.FIT_TOL:g}"]
        return []

    def _sample_failures(self, method, path, spec, probs) -> list[str]:
        draws = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        if draws.shape != (self.M, self.N) or not np.all(np.abs(draws) == 1):
            return [f"sample {method}: wrong draws shape or values"]
        if method == "gibbs":
            draws = draws[:: self.GIBBS_CHECK_THIN]
        stat, _, threshold = checks.chi_square_gof(counts_of(draws), probs)
        if stat > threshold:
            return [f"sample {method}: chi-square goodness of fit rejected"]
        if method == "collider-rejection":
            with open(it.sidecar_path(path), encoding="utf-8") as fh:
                meta = json.load(fh)["meta"]
            form = it.to_spectral(spec)
            cf = it.spectral_to_collider(form, spec.delta)
            rate = float(np.exp(it.conditioned_pmf(cf).log_z))
            z = checks.binomial_z(meta["accepted"], meta["proposals"], rate)
            if abs(z) > checks.binomial_z_limit():
                return [f"sample {method}: acceptance rate off its exact value"]
        return []


WORKLOADS = {w.name: w for w in (Tables(), Verify(), SimulateFit())}
