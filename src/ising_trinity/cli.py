"""Command-line interface: pmf, verify, sample, fit, export-graph.

Exit codes: 0 on success, 1 when verification finds disagreement, 2 on
invalid input (bad files, bad parameters, runtime aborts, a request beyond
memory), 3 when a size or rank limit is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from ._decimal import decimal_text
from ._enum import BLOCK_WIDTH, config_text
from .collider import spectral_to_collider
from .core import Pmf, ising_pmf
from .equivalence import BRANCHES, BranchFault, verify_representations
from .errors import EnumerationLimitError, IsingTrinityError, RankLimitError
from .estimation import fit_pseudo_likelihood
from .graphs import VIEWS, graph_dot
from .latent import DEFAULT_QUAD_NODES, LatentForm, QuadratureRule
from .sampling import (
    METHODS,
    read_csv_table,
    sample_collider_rejection,
    sample_exact,
    sample_gibbs,
    sample_latent_first,
    save_sample_set,
)
from .specfile import load_model_spec
from .spectral import to_spectral

# Table format -> (separator after each configuration cell; row template of
# the low-half cells, the high-half cells and the probability; separator
# between rows). Both formats write each probability as "%.17g", which
# `json.loads` parses back to the same float.
ROW_TEMPLATES = {
    "csv": (",", b"%s%s%s\n", b""),
    "json": (",\n      ", b"    [\n      %s%s%s\n    ]", b",\n"),
}

def _write_out(chunks: Iterable[bytes], path: str) -> None:
    """Write UTF-8 chunks to stdout for ``-``, else to the file at ``path``, opened only here.

    When the reader of stdout has gone (``| head``), the rest of the output
    goes to the null device, so the command still returns its own exit code
    and no later write or flush fails.
    """
    if path == "-":
        try:
            for chunk in chunks:
                sys.stdout.write(chunk.decode())
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(path, "wb") as out:
            out.writelines(chunks)


def _pmf_blocks(pmf: Pmf, representation: str, fmt: str) -> Iterator[bytes]:
    """The table as CSV, or as JSON rows after a dumped head, in blocks of ``2**min(n, 10)`` rows.

    Block ``b`` holds every configuration of the low ``min(n, 10)``
    variables, in index order, under configuration ``b`` of the variables
    above them, so its cells come from two `config_text` tables: one list
    for the low variables and one cell of the high.  The row template is
    built once per table: each row's low cells in place, a NUL where the
    block's high cell goes, and ``%s`` for its probability.  Each block is
    that template with its high cell put in, then one ``%`` format over the
    probabilities that `decimal_text` writes; the separator between blocks
    is yielded on its own.  The JSON head carries the table's
    ``error_estimate``: 0 for an enumerated table, the quadrature estimate
    for a latent one.
    """
    header = [f"x_{i + 1}" for i in range(pmf.n)] + ["probability"]
    sep, row, between = ROW_TEMPLATES[fmt]
    if fmt == "csv":
        yield (",".join(header) + "\n").encode()
    else:
        head = dict(n=pmf.n, representation=representation, log_z=pmf.log_z,
                    error_estimate=pmf.error_estimate, columns=header)
        yield f'{json.dumps(head, indent=2)[:-2]},\n  "rows": [\n'.encode()
    # Each cell followed by ``sep``; no variables have the one empty cell.
    lo, hi = ([(c + sep).encode() if k else b"" for c in config_text(k, sep)]
              for k in (min(pmf.n, BLOCK_WIDTH), max(pmf.n - BLOCK_WIDTH, 0)))
    template = between.join([row % (cell, b"\0", b"%s") for cell in lo])
    for b, (high, probs) in enumerate(zip(hi, pmf.probs.reshape(len(hi), -1))):
        if b:
            yield between
        yield template.replace(b"\0", high) % tuple(decimal_text(probs))
    if fmt == "json":
        yield b"\n  ]\n}\n"


def _cmd_pmf(args: argparse.Namespace) -> int:
    spec = load_model_spec(args.spec)
    # Only the latent table reads the rule, so only it checks --quad-nodes.
    latent = args.representation == "latent"
    rule = QuadratureRule(args.quad_nodes) if latent else QuadratureRule()
    pmf = BRANCHES[args.representation](spec, rule)
    _write_out(_pmf_blocks(pmf, args.representation, args.format), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_model_spec(args.spec)
    fault = None
    if args.inject_fault is not None:
        fault = BranchFault(branch=args.inject_fault, eps=args.fault_eps)
    rule = QuadratureRule(args.quad_nodes)
    report = verify_representations(spec, rule, fault=fault)
    _write_out([(report.to_text() + "\n").encode()], "-")
    if args.json_report is not None:
        _write_out([(report.to_json() + "\n").encode()], args.json_report)
    return 0 if report.all_pass else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise ValueError("sample writes a CSV and its sidecar, so --out must be a file, not -")
    spec = load_model_spec(args.spec)
    if args.method == "exact":
        sample = sample_exact(ising_pmf(spec), args.m, args.seed)
    elif args.method == "gibbs":
        sample = sample_gibbs(spec, args.m, args.seed, burn_in=args.burn_in, thin=args.thin)
    elif args.method == "collider-rejection":
        cf = spectral_to_collider(to_spectral(spec), spec.delta)
        sample = sample_collider_rejection(cf, args.m, args.seed)
    else:
        lf = LatentForm.from_spectral(to_spectral(spec), spec.delta)
        rule = QuadratureRule(args.quad_nodes)
        sample = sample_latent_first(lf, rule, args.m, args.seed)
    save_sample_set(sample, args.out)
    note = ""
    if "acceptance_rate" in sample.meta:
        note = f" (acceptance rate {sample.meta['acceptance_rate']:.4f})"
    _write_out([f"wrote {sample.m} draws via {sample.method} to {args.out}{note}\n".encode()], "-")
    return 0


def _read_config_table(path: str) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The rows of a data file, or ``(configs, weights)`` when its last column is ``weight``."""
    header, table = read_csv_table(path, np.float64)
    if header[-1].lower() == "weight":
        return table[:, :-1], table[:, -1]
    return table


def _cmd_fit(args: argparse.Namespace) -> int:
    data = _read_config_table(args.data)
    init = None if args.init is None else load_model_spec(args.init)
    result = fit_pseudo_likelihood(
        data, init, grad_tol=args.grad_tol, max_iter=args.max_iter
    )
    _write_out([(json.dumps(result.to_dict(), indent=2) + "\n").encode()], args.out)
    if args.out != "-":
        decrement = result.newton_decrement
        summary = (
            f"fit {'converged' if result.converged else 'did not converge'} after "
            f"{result.iterations} iterations (final gradient norm "
            f"{result.grad_norm_final:.3e}, Newton decrement "
            f"{'n/a' if decrement is None else format(decrement, '.3e')})\n"
        )
        _write_out([summary.encode()], "-")
    return 0


def _cmd_export_graph(args: argparse.Namespace) -> int:
    _write_out([graph_dot(load_model_spec(args.spec), args.view).encode()], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ising-trinity",
        description=(
            "Binary +/-1 pairwise models through their network, latent-variable, "
            "and collider representations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    quad_nodes = {"type": int, "default": DEFAULT_QUAD_NODES}

    p_pmf = sub.add_parser("pmf", help="write the exact probability table")
    p_pmf.add_argument("spec", help="model-spec JSON file")
    p_pmf.add_argument(
        "--representation",
        "-r",
        choices=tuple(BRANCHES),
        default="conventional",
        help="code path used to compute the table",
    )
    p_pmf.add_argument("--format", choices=tuple(ROW_TEMPLATES), default="csv")
    p_pmf.add_argument("--quad-nodes", **quad_nodes, help="Gauss-Hermite nodes for -r latent")
    p_pmf.add_argument("--output", "-o", default="-", help="output path or - for stdout")
    p_pmf.set_defaults(handler=_cmd_pmf)

    p_verify = sub.add_parser(
        "verify", help="compare the PMF across all applicable representations"
    )
    p_verify.add_argument("spec", help="model-spec JSON file")
    p_verify.add_argument("--quad-nodes", **quad_nodes)
    p_verify.add_argument("--json-report", help="also write the report as JSON (- for stdout)")
    p_verify.add_argument(
        "--inject-fault",
        choices=tuple(BRANCHES),
        help="perturb one branch to demonstrate the verifier notices",
    )
    p_verify.add_argument("--fault-eps", type=float, default=BranchFault.eps)
    p_verify.set_defaults(handler=_cmd_verify)

    p_sample = sub.add_parser("sample", help="draw configurations from the model")
    p_sample.add_argument("spec", help="model-spec JSON file")
    p_sample.add_argument("--method", choices=METHODS, required=True)
    p_sample.add_argument("--m", type=int, required=True, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True, help="output CSV path (not -)")
    # The library signatures' defaults; `inspect` sees through `functools.wraps`.
    gibbs = inspect.signature(sample_gibbs).parameters
    p_sample.add_argument("--burn-in", type=int, default=gibbs["burn_in"].default)
    p_sample.add_argument("--thin", type=int, default=gibbs["thin"].default)
    p_sample.add_argument(
        "--quad-nodes", **quad_nodes, help="Gauss-Hermite nodes for latent-first"
    )
    p_sample.set_defaults(handler=_cmd_sample)

    p_fit = sub.add_parser(
        "fit", help="fit the network form to data by pseudo-likelihood"
    )
    p_fit.add_argument("data", help="CSV of +/-1 draws (optional final weight column)")
    p_fit.add_argument("--init", help="model-spec JSON file to start from")
    p_fit.add_argument("--out", default="-", help="output JSON path or - for stdout")
    fit = inspect.signature(fit_pseudo_likelihood).parameters
    p_fit.add_argument("--grad-tol", type=float, default=fit["grad_tol"].default)
    p_fit.add_argument("--max-iter", type=int, default=fit["max_iter"].default)
    p_fit.set_defaults(handler=_cmd_fit)

    p_graph = sub.add_parser("export-graph", help="write a DOT view of the model")
    p_graph.add_argument("spec", help="model-spec JSON file")
    p_graph.add_argument("--view", choices=VIEWS, required=True)
    p_graph.add_argument("--out", default="-", help="output path or - for stdout")
    p_graph.set_defaults(handler=_cmd_export_graph)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused by every `main` call."""
    return build_parser()


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: one line, without the package's file and line."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    library_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.handler(args)
    except (EnumerationLimitError, RankLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IsingTrinityError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = library_format


if __name__ == "__main__":
    sys.exit(main())
