"""DOT (graphviz) emission with optional label annotations."""

from __future__ import annotations

from typing import Optional

from .errors import OrderMismatchError
from .graph import Graph
from .labeling import CenteredLabeling


def export_dot(g: Graph, lab: Optional[CenteredLabeling] = None, qw_rows: bool = False) -> str:
    """Render as an undirected DOT document.

    With qw_rows, vertices 0..m-1 (x row) and m..2m-1 (y row) are ranked
    separately, matching the two-cycle layout of quasi wreath graphs.
    """
    if lab is not None and lab.order != g.n:
        raise OrderMismatchError(f"labeling order {lab.order} != graph order {g.n}")
    lines = ["graph dmlab {"]
    if qw_rows and g.n % 2 == 0:
        m = g.n // 2
        lines.append("  { rank=same; " + "; ".join(str(v) for v in range(m)) + "; }")
        lines.append("  { rank=same; " + "; ".join(str(v) for v in range(m, g.n)) + "; }")
    for v in range(g.n):
        if lab is not None:
            lines.append(f'  {v} [label="{lab.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, nb in enumerate(g.neighbors):
        lines.extend(f"  {u} -- {w};" for w in nb if w > u)
    lines.append("}")
    return "\n".join(lines) + "\n"
