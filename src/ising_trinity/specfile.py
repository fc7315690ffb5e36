"""JSON model-spec files: validation-first parsing and faithful serialization.

A file holds one `ModelSpec`, ``extra_shift`` included: its ``n``, ``delta``,
``sigma`` and optional ``extra_shift`` (0 when absent, and omitted when 0).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .core import ModelSpec, require_number
from .errors import SpecValidationError


def model_spec_from_dict(data: dict) -> ModelSpec:
    """Validate a parsed spec document and return its spec.

    Any nonzero coupling diagonal is zeroed with a `UserWarning` naming the
    caller's line: the diagonal never affects probabilities.
    """
    return _spec_from_dict(data)


def _spec_from_dict(data) -> ModelSpec:
    """`model_spec_from_dict`, warning at the line that called its public caller."""
    if not isinstance(data, dict):
        raise SpecValidationError(
            f"spec document must be a JSON object, got {type(data).__name__}"
        )
    unknown = set(data) - {"n", "delta", "sigma", "extra_shift"}
    if unknown:
        raise SpecValidationError(f"unknown spec fields: {sorted(unknown)}")
    for key in ("n", "delta", "sigma"):
        if key not in data:
            raise SpecValidationError(f"spec is missing required field {key!r}")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecValidationError(f"'n' must be a positive integer, got {n!r}")

    delta_raw = data["delta"]
    if not isinstance(delta_raw, list) or len(delta_raw) != n:
        raise SpecValidationError(f"'delta' must be a list of {n} numbers")
    delta = np.array(
        [require_number(v, f"delta[{i}]") for i, v in enumerate(delta_raw)]
    )

    sigma_raw = data["sigma"]
    if not isinstance(sigma_raw, list) or len(sigma_raw) != n:
        raise SpecValidationError(f"'sigma' must be a list of {n} rows")
    rows = []
    for i, row in enumerate(sigma_raw):
        if not isinstance(row, list) or len(row) != n:
            raise SpecValidationError(f"sigma[{i}] must be a list of {n} numbers")
        rows.append([require_number(v, f"sigma[{i}][{j}]") for j, v in enumerate(row)])
    sigma = np.array(rows)

    if np.any(np.diag(sigma) != 0.0):
        warnings.warn(
            "nonzero sigma diagonal ignored: the diagonal never affects "
            "probabilities; zeroing it",
            stacklevel=3,
        )
    return ModelSpec(delta=delta, sigma=sigma, extra_shift=data.get("extra_shift", 0.0))


def model_spec_to_dict(spec: ModelSpec) -> dict:
    out = {
        "n": spec.n,
        "delta": spec.delta.tolist(),
        "sigma": spec.sigma.tolist(),
    }
    if spec.extra_shift != 0.0:
        out["extra_shift"] = spec.extra_shift
    return out


def load_model_spec(path) -> ModelSpec:
    """Read and validate a JSON model-spec file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"{path} is not valid JSON: {exc}") from exc
    return _spec_from_dict(data)


def save_model_spec(spec: ModelSpec, path) -> None:
    """Write a spec as JSON; parsing the result reproduces the spec exactly."""
    doc = model_spec_to_dict(spec)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
