"""Every public name is used by something other than the unit tests, and every
public record's arrays are read-only copies of what its caller gave it."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
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
        spec, it.ising_pmf(spec), form, cf, lf, sample,
        it.fit_pseudo_likelihood(sample, max_iter=2),
    ]
    kinds = set()
    for record in records:
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if isinstance(value, np.ndarray):
                kinds.add(type(record).__name__)
                assert not value.flags.writeable, (type(record).__name__, f.name)
    assert len(kinds) == 7
    # The record holds its own copy, so the caller's array is left writable.
    assert sigma.flags.writeable


DELTA = [0.3, -0.2, 0.1]


def read_only_view(a):
    """A read-only view of ``a``, which its owner can still write through."""
    view = a.view()
    view.flags.writeable = False
    return view


CALLER_ARRAYS = {
    "read-only view": (
        lambda d, s: it.ModelSpec(delta=read_only_view(d), sigma=s), DELTA, np.zeros((3, 3))
    ),
    "ModelSpec": (
        lambda d, s: it.ModelSpec(delta=d, sigma=s), DELTA, 0.4 * (np.ones((3, 3)) - np.eye(3))
    ),
    "ColliderForm": (
        lambda d, lams, dirs: it.ColliderForm(delta=d, lams=lams, dirs=dirs),
        DELTA, [1.0, 0.5], [[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]],
    ),
    "simple_collider": (it.simple_collider, DELTA),
    "LatentForm": (
        lambda d, a: it.LatentForm(delta=d, loadings=a), DELTA, [[0.5], [0.4], [-0.3]]
    ),
    "rasch_marginal_pmf": (it.rasch_marginal_pmf, DELTA),
    "SpectralForm": (
        lambda lams, q: it.SpectralForm(lambdas=lams, q=q), [2.0, 1.0, 0.5], np.eye(3)
    ),
    "SampleSet": (
        lambda x: it.SampleSet(draws=x, seed=0, method="exact"),
        np.array([[1, -1], [-1, -1]], dtype=np.int8),
    ),
    "Pmf": (lambda p: it.Pmf(p, 0.0), [0.25, 0.75]),
}


@pytest.mark.parametrize("kind", sorted(CALLER_ARRAYS))
def test_records_copy_the_callers_arrays(kind):
    build, *given = CALLER_ARRAYS[kind]
    arrays = [np.array(a) for a in given]
    record = build(*arrays)
    stored = {
        f.name: np.array(getattr(record, f.name))
        for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)
    }
    assert stored
    for a in arrays:
        assert a.flags.writeable
        a *= -1
    for name, value in stored.items():
        npt.assert_array_equal(getattr(record, name), value, err_msg=f"{kind}.{name}")
        assert not getattr(record, name).flags.writeable


# Each story of a model without items, from its spec: a one-entry table, a
# sample of m rows and no columns, or a report whose every branch agrees.
EMPTY_MODEL_STORIES = {
    "ising_pmf": it.ising_pmf,
    "spectral_pmf": lambda spec: it.spectral_pmf(it.to_spectral(spec), spec.delta),
    "conditioned_pmf": lambda spec: it.conditioned_pmf(
        it.spectral_to_collider(it.to_spectral(spec), spec.delta)
    ),
    "mirt_marginal_pmf": lambda spec: it.mirt_marginal_pmf(
        it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta)
    ),
    "rasch_marginal_pmf": lambda spec: it.rasch_marginal_pmf(spec.delta),
    "verify_representations": it.verify_representations,
    "sample_exact": lambda spec: it.sample_exact(it.ising_pmf(spec), 7, 0),
    "sample_gibbs": lambda spec: it.sample_gibbs(spec, 7, 0),
    "sample_collider_rejection": lambda spec: it.sample_collider_rejection(
        it.spectral_to_collider(it.to_spectral(spec), spec.delta), 7, 0
    ),
    "sample_latent_first": lambda spec: it.sample_latent_first(
        it.LatentForm.from_spectral(it.to_spectral(spec), spec.delta), it.QuadratureRule(), 7, 0
    ),
}


@pytest.mark.parametrize("story", EMPTY_MODEL_STORIES)
def test_a_model_without_items_runs_in_every_story(story):
    out = EMPTY_MODEL_STORIES[story](it.ModelSpec(delta=np.zeros(0), sigma=np.zeros((0, 0))))
    if isinstance(out, it.Pmf):
        assert out.probs.tolist() == [1.0]
    elif isinstance(out, it.SampleSet):
        assert out.draws.shape == (7, 0)
    else:
        assert out.n == 0 and out.all_pass and all(out.evaluated.values())
