"""ASCII and LaTeX rendering of tables in the two-subcolumn layout.

Base tables print one row per line with (a, b) pairs per column.  Tensor
tables carry the multidegree header (c_i on the left subcolumn, 2d - c_{i+1}
on the right) and shade the cells covered by potential sections: brackets in
ASCII, ``\\cellcolor`` in LaTeX.
"""

from __future__ import annotations

from .multidegree import TwistVector
from .table import VanishingTable
from .tensor import TensorTable, extract_potential_sections


def render_table_ascii(table: VanishingTable) -> str:
    n, r = table.n_columns, table.r
    width = len(str(table.d))
    lines = []
    for j in range(r + 1):
        cells = [
            f"{table.a[i][j]:>{width}} {table.b[i][j]:>{width}}" for i in range(n)
        ]
        lines.append(f"j={j}: " + " | ".join(cells))
    return "\n".join(lines)


def render_table_latex(table: VanishingTable) -> str:
    n, r = table.n_columns, table.r
    colspec = "|".join(["lr"] * n)
    lines = [f"\\begin{{tabular}}{{{colspec}}}"]
    for j in range(r + 1):
        cells = []
        for i in range(n):
            cells.append(f"${table.a[i][j]}$ & ${table.b[i][j]}$")
        lines.append(" & ".join(cells) + r" \\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def multidegree_header(w: TwistVector) -> list[tuple[str, str]]:
    """Per-column (c_i, 2d - c_{i+1}) header cells; blank at the chain ends."""
    ext = w.extended()
    n = w.n_components
    out = []
    for i in range(1, n + 1):
        left = "" if i == 1 else str(ext[i])
        right = "" if i == n else str(w.D - ext[i + 1])
        out.append((left, right))
    return out


def render_multidegree_ascii(w: TwistVector) -> str:
    cells = multidegree_header(w)
    width = len(str(w.D))
    return " | ".join(f"{a:>{width}} {b:>{width}}" for a, b in cells)


def _covered(sections) -> set[tuple[int, int, int]]:
    cover: set[tuple[int, int, int]] = set()
    for s in sections:
        for i in range(s.start, s.end + 1):
            cover.add((s.row[0], s.row[1], i))
    return cover


def render_tensor_ascii(tt: TensorTable, w: TwistVector) -> str:
    sections = extract_potential_sections(tt.base, w)
    cover = _covered(sections)
    width = len(str(tt.d2))
    lines = ["w:      " + render_multidegree_ascii(w)]
    for p, (j1, j2) in enumerate(tt.pairs):
        cells = []
        for i in range(tt.n_columns):
            a, b = tt.ta[i][p], tt.tb[i][p]
            if (j1, j2, i + 1) in cover:
                cells.append(f"[{a:>{width}} {b:>{width}}]")
            else:
                cells.append(f" {a:>{width}} {b:>{width}} ")
        lines.append(f"({j1},{j2}): " + "|".join(cells))
    return "\n".join(lines)


def render_tensor_latex(tt: TensorTable, w: TwistVector) -> str:
    sections = extract_potential_sections(tt.base, w)
    cover = _covered(sections)
    n = tt.n_columns
    header = multidegree_header(w)
    colspec = "l" + "|".join(["lr"] * n)
    lines = [f"\\begin{{tabular}}{{{colspec}}}"]
    head = [" "] + [f"${a}$ & ${b}$" for a, b in header]
    lines.append(" & ".join(head) + r" \\")
    lines.append("\\hline")
    for p, (j1, j2) in enumerate(tt.pairs):
        cells = [f"$({j1},{j2})$"]
        for i in range(tt.n_columns):
            a, b = tt.ta[i][p], tt.tb[i][p]
            if (j1, j2, i + 1) in cover:
                cells.append(
                    f"\\cellcolor[gray]{{.8}} ${a}$ & \\cellcolor[gray]{{.8}} ${b}$"
                )
            else:
                cells.append(f"${a}$ & ${b}$")
        lines.append(" & ".join(cells) + r" \\")
    lines.append("\\hline")
    lines.append(" & ".join(head) + r" \\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)
