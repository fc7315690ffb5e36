"""Benchmark of ising-trinity: one closed-loop workload per run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One client runs sessions back to back; each session is a fixed unit of user
work on inputs drawn from ``--seed`` and the session index (see
``workloads.py``).  A run makes a fixed number of sessions, ``--seconds``
divided by the workload's nominal session time and at least eleven, so that
a tail percentile with ten sessions beyond it exists.  The count does not
depend on how fast the sessions run: the operations a run attempts, and
those that fail, depend on the seed alone.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``session_s``: median session wall time;
- ``session_s_tail``: the highest percentile of session time with at least
  ten sessions beyond it (the percentile and count are printed beside it);
- ``setup_s``: median over five fresh processes of the time from process
  start to the first session's inputs being written;
- ``peak_rss_mb``: peak resident memory of this process;
- ``success_ratio``: one minus the failed share of attempted operations.

``--trace 1`` alternates untraced and traced sessions, reports the per-layer
metrics from the spans of the traced ones, and writes those spans to
``.bench_work/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an output check finds a wrong value; operations that raise or exit with
an unexpected code count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from load import ROOT, WORK, import_package, session_rng

MIN_SESSIONS = 11
SETUP_PROBES = 5
THREAD_ENV = (
    "ISING_TRINITY_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "commit": git_commit(),
    }
    env.update({name: os.environ.get(name, "unset") for name in THREAD_ENV})
    return env


def session_count(seconds: float, nominal_s: float) -> int:
    """Sessions in one run: about ``seconds`` of work at the nominal session
    time, and at least `MIN_SESSIONS`."""
    return max(MIN_SESSIONS, round(seconds / nominal_s))


def setup_times(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of fresh processes that each import the package and write
    the first session's inputs."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(probe), "--workload", workload, "--seed", str(seed),
                "--workdir", str(workdir / f"probe{k}")]
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms, which
        # quantizes the measured time.
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    args = parse_args()
    package = import_package()
    import numpy as np

    import metrics
    import spans
    from checks import OpLog
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    for key, value in environment(np).items():
        print(f"env {key} = {value}")

    inputs = workload.make_inputs(session_rng(args.seed, 0), workdir, 0)

    tracer = spans.Tracer()
    log = OpLog()
    counts = {"faults_injected": 0, "faults_caught": 0}
    plain: list[float] = []
    traced: list[float] = []
    sessions = session_count(args.seconds, workload.NOMINAL_SESSION_S)
    for index in range(sessions):
        if index:
            inputs = workload.make_inputs(session_rng(args.seed, index), workdir, index)
        tracing = bool(args.trace) and index % 2 == 1
        patched = []
        if tracing:
            patched = spans.install(tracer, package, metrics.READERS)
            tracer.session, tracer.active = index, True
        t0 = time.perf_counter()
        results = workload.session(inputs, tracer)
        seconds = time.perf_counter() - t0
        tracer.active = False
        spans.uninstall(patched)
        (traced if tracing else plain).append(seconds)
        workload.check(inputs, results, log, counts)

    if args.trace:
        values = metrics.layer_metrics(
            tracer.spans, len(traced), counts["faults_injected"], counts["faults_caught"]
        )
        values["trace.overhead_ratio"] = metrics.overhead_ratio(traced, plain)
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"{len(tracer.spans)} spans of {len(traced)} traced sessions written to {span_file}")
    else:
        tail, pct = metrics.tail_percentile(plain)
        values = {
            "session_s": median(plain),
            "session_s_tail": tail,
            "setup_s": median(setup_times(args.workload, args.seed, workdir)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": 1.0 - log.failed / log.attempted,
        }
        print(f"session_s_tail is p{pct:.1f} of {len(plain)} sessions, "
              f"{metrics.TAIL_BEYOND} beyond it")
    shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(f"sessions: {len(plain)} untraced, {len(traced)} traced")
    print("untraced session times (s): " + " ".join(f"{t:.3f}" for t in plain))
    print(f"fail_ratio = {log.failed}/{log.attempted} = {log.failed / log.attempted:.4f}")
    if counts["faults_injected"]:
        print(f"faults caught = {counts['faults_caught']}/{counts['faults_injected']}")
    for reason, count in log.reasons.most_common():
        print(f"failed x{count}: {reason}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": log.wrong == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
