"""In-memory span recorder and the wrapping that attaches it to the package.

Modules bind imported names when they load, so ``ising_trinity.cli`` holds
its own reference to ``ising_pmf``.  `install` therefore replaces a public
function under its name in every loaded ``ising_trinity`` module that holds
it, and `uninstall` puts the originals back.  Each span records
``{name, start, end, parent, session}`` plus attributes read from the call's
arguments or result after the span has ended.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# Attributes taken from a call, keyed by the wrapped function's name.  Each
# reader gets ``(args, kwargs, result)``; ``result`` is None when the call
# raised.  Readers run after the span's end time is taken.
AttrReader = Callable[[tuple, dict, object], dict]


class Tracer:
    """Collects spans for one benchmark process; inactive until `activate`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.session: int | None = None
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body while the tracer is active."""
        if not self.active:
            yield None
            return
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)
            record["attrs"].update(attrs)

    def _open(self, name: str) -> dict:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "session": self.session,
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, reader: AttrReader | None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                record["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self._close(record)
                if reader is not None:
                    record["attrs"].update(reader(args, kwargs, result))

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def public_functions(package) -> dict[int, tuple[Callable, str]]:
    """``id(fn) -> (fn, "module.name")`` for every function in ``package.__all__``."""
    found = {}
    for name in package.__all__:
        fn = getattr(package, name)
        if inspect.isfunction(fn):
            module = fn.__module__.rsplit(".", 1)[-1]
            found[id(fn)] = (fn, f"{module}.{name}")
    return found


def install(tracer: Tracer, package, readers: dict[str, AttrReader]) -> list[tuple]:
    """Wrap every public function wherever a package module binds it.

    Returns the ``(module, attribute, original)`` triples that `uninstall`
    needs.  ``readers`` maps a span name to its attribute reader.
    """
    originals = public_functions(package)
    wrappers = {
        key: tracer.wrap(fn, name, readers.get(name))
        for key, (fn, name) in originals.items()
    }
    prefix = package.__name__
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and value is originals[id(value)][0]:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    out = []
    for idx, record in enumerate(spans):
        lo, hi = record["start"], record["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(idx, [])):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out
