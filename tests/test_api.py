"""Every public name is used by something other than the unit tests, and every
public record's arrays are read-only."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import ising_trinity as it
from conftest import low_rank_spec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ising_trinity"


def _without_definition(path: Path, name: str) -> str:
    """The file's text with a Python file's top-level definition of ``name`` cut out."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return text
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            del lines[first - 1 : node.end_lineno]
            break
    return "\n".join(lines)


def _callers(name: str) -> list[str]:
    """The places besides its definition and ``__init__.py`` that use ``name``."""
    places = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    places += sorted((ROOT / "perfbench").rglob("*.py"))
    places += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    word = re.compile(rf"\b{re.escape(name)}\b")
    return [
        str(p.relative_to(ROOT)) for p in places if word.search(_without_definition(p, name))
    ]


@pytest.mark.parametrize("name", sorted(it.__all__))
def test_public_name_has_a_caller(name):
    assert _callers(name), (
        f"{name} is used only by its definition, __init__.py or the unit tests"
    )


def test_every_record_array_is_read_only(rng):
    spec = low_rank_spec(rng, 4, 2)
    sigma = np.array(spec.sigma)
    form = it.to_spectral(it.ModelSpec(delta=spec.delta, sigma=sigma))
    cf = it.spectral_to_collider(form, spec.delta)
    lf = it.LatentForm.from_spectral(form, spec.delta)
    sample = it.sample_exact(it.ising_pmf(spec), 50, seed=1)
    records = [
        spec, it.ising_pmf(spec), form, cf, it.QuadratureRule.gauss_hermite(8),
        lf, sample, it.fit_pseudo_likelihood(sample, max_iter=2),
    ]
    kinds = set()
    for record in records:
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if isinstance(value, np.ndarray):
                kinds.add(type(record).__name__)
                assert not value.flags.writeable, (type(record).__name__, f.name)
    assert len(kinds) == 8
    # The couplings are stored symmetrized, so the caller's array is left writable.
    assert sigma.flags.writeable
