"""Every public name is used by something other than the unit tests."""

import ast
import re
from pathlib import Path

import pytest

import ising_trinity as it

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
