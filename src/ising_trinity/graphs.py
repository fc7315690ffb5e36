"""DOT exports of the three graphical views of one model.

The network view is an undirected graph over the items with one labeled edge
per nonzero coupling.  The common-cause view adds one latent parent per
non-zero eigenvalue of the shifted coupling matrix; the collider view adds one
observed common effect per non-zero eigenvalue instead, with arrows reversed.
Both count the eigenvalues `to_spectral` keeps, so they show the rank that
every eigen-based story and the verifier use.
"""

from __future__ import annotations

from .core import ModelSpec
from .spectral import to_spectral

VIEWS = ("network", "common-cause", "collider")


def graph_dot(spec: ModelSpec, view: str) -> str:
    """Render one of the three views as DOT text.

    The latent and effect nodes are one per eigenpair of `to_spectral`'s
    form, its ``rank``: the positive eigenvalues of the couplings under the
    spec's own shift, ``extra_shift`` included.
    """
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}; expected one of {VIEWS}")
    n = spec.n
    items = [f"x{i + 1}" for i in range(n)]
    plain = [f"  {name};" for name in items]

    if view == "network":
        lines = ["graph network {", *plain]
        for i in range(n):
            for j in range(i + 1, n):
                if spec.sigma[i, j] != 0.0:
                    lines.append(
                        f'  {items[i]} -- {items[j]} [label="{spec.sigma[i, j]:g}"];'
                    )
    else:
        collider = view == "collider"
        name, shape = ("e", "box") if collider else ("theta", "circle")
        hidden = [f"{name}{r + 1}" for r in range(to_spectral(spec).rank)]
        marked = [f"  {node} [shape={shape}];" for node in hidden]
        lines = [f"digraph {view.replace('-', '_')} {{"]
        lines += (plain + marked) if collider else (marked + plain)
        for node in hidden:
            lines.extend(f"  {item} -> {node};" if collider else f"  {node} -> {item};"
                         for item in items)
    lines.append("}")
    return "\n".join(lines) + "\n"
