"""Chart rendering for generator tables.

Conventions: x increases rightward with degree, y increases upward with
Adams weight, one grid unit = 24 px, labels at 10 pt.  Entries occupying the
same (degree, weight) spot are nudged apart deterministically, in table
order.  The ASCII renderer draws the same grid with occupancy counts.
"""

from __future__ import annotations

from . import __version__
from .graded import VerificationError, record_repr, superscript

UNIT = 24
LABEL_PT = 10
_GLYPH_NAMES = {"t": "t", "mu": "μ", "lambda1": "λ₁",
                "lambda2": "λ₂", "del": "∂"}


def label_for(name: str) -> str:
    """Unicode chart label for an ASCII monomial name.

    >>> label_for("del*lambda1*lambda2")
    '∂λ₁λ₂'
    >>> label_for("t^-4*lambda1")
    't⁻⁴λ₁'
    >>> label_for("1")
    '1'
    """
    if name == "1":
        return "1"
    out = []
    for part in name.split("*"):
        base, _, exp = part.partition("^")
        if base not in _GLYPH_NAMES:
            raise VerificationError(f"unknown chart symbol {base!r}")
        try:
            sup = superscript(int(exp)) if exp else ""
        except ValueError:
            raise VerificationError(
                f"chart symbol {base!r} has a non-integer exponent {exp!r}"
            ) from None
        out.append(_GLYPH_NAMES[base] + sup)
    return "".join(out)


class ChartLayout:
    """Placed glyphs: one per table entry, with deterministic nudges for
    coincident (degree, weight) spots."""

    __slots__ = ("deg_range", "weight_range", "glyphs")

    def __init__(self, deg_range: tuple[int, int],
                 weight_range: tuple[int, int]) -> None:
        self.deg_range, self.weight_range = deg_range, weight_range
        # per entry: (name, degree, weight, origin, label, nudge_px)
        self.glyphs: list[tuple[str, int, int, str, str, int]] = []

    __repr__ = record_repr

    @classmethod
    def from_table(cls, table) -> "ChartLayout":
        if not table.entries:
            layout = cls((0, 0), (0, 0))
            return layout
        degs = [e.degree for e in table.entries]
        ws = [e.weight for e in table.entries]
        layout = cls((min(degs), max(degs)), (min(ws), max(ws)))
        seen: dict[tuple[int, int], int] = {}
        names = set()
        for e in table.entries:
            if e.name in names:
                raise VerificationError(f"duplicate chart entry {e.name}")
            names.add(e.name)
            spot = (e.degree, e.weight)
            k = seen.get(spot, 0)
            seen[spot] = k + 1
            layout.glyphs.append((e.name, e.degree, e.weight, e.origin,
                                  label_for(e.name), k * 11))
        return layout


def svg_chart(table) -> str:
    """Standalone SVG document for a generator table."""
    layout = ChartLayout.from_table(table)
    dlo, dhi = layout.deg_range
    wlo, whi = layout.weight_range
    ml, mr, mt, mb = 46, 130, 26, 40
    width = ml + mr + (dhi - dlo + 2) * UNIT
    height = mt + mb + (whi - wlo + 2) * UNIT

    def x(deg):
        return ml + (deg - dlo + 1) * UNIT

    def y(w):
        return height - mb - (w - wlo + 1) * UNIT

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<!-- generated_by synto {__version__} -->',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    grid = []
    for d in range(dlo - 1, dhi + 2):
        grid.append(f'<line x1="{x(d)}" y1="{mt}" x2="{x(d)}" '
                    f'y2="{height - mb}" stroke="#eeeeee"/>')
    for w in range(wlo - 1, whi + 2):
        grid.append(f'<line x1="{ml}" y1="{y(w)}" x2="{width - mr}" '
                    f'y2="{y(w)}" stroke="#eeeeee"/>')
    lines.extend(grid)
    step = 2 if dhi - dlo <= 30 else 5
    for d in range(dlo - dlo % step, dhi + 1, step):
        lines.append(f'<text x="{x(d)}" y="{height - mb + 16}" '
                     f'font-size="{LABEL_PT}" text-anchor="middle" '
                     f'font-family="sans-serif">{d}</text>')
    for w in range(wlo, whi + 1):
        lines.append(f'<text x="{ml - 8}" y="{y(w) + 3}" '
                     f'font-size="{LABEL_PT}" text-anchor="end" '
                     f'font-family="sans-serif">{w}</text>')
    for name, deg, w, origin, label, nudge in layout.glyphs:
        cx, cy = x(deg), y(w) - nudge
        fill = "#1f3b73" if origin == "kernel" else "#a33b3b"
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="3.5" fill="{fill}"/>')
        lines.append(f'<text x="{cx + 6}" y="{cy - 5}" '
                     f'font-size="{LABEL_PT}" font-family="sans-serif">'
                     f'{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def ascii_chart(table) -> str:
    """Plain-text grid fallback: one row per weight, one column per degree,
    cells showing the number of classes ("*" for one), plus a legend."""
    layout = ChartLayout.from_table(table)
    if not layout.glyphs:
        return "(empty chart)\n"
    dlo, dhi = layout.deg_range
    wlo, whi = layout.weight_range
    counts: dict[tuple[int, int], int] = {}
    for _name, deg, w, _origin, _label, _n in layout.glyphs:
        counts[(deg, w)] = counts.get((deg, w), 0) + 1
    rows = []
    for w in range(whi, wlo - 1, -1):
        cells = []
        for d in range(dlo, dhi + 1):
            c = counts.get((d, w), 0)
            cells.append("." if not c else ("*" if c == 1 else str(min(c, 9))))
        rows.append(f"w{w:<2}|" + "".join(cells))
    axis = "   +" + "-" * (dhi - dlo + 1)
    ticks = [" "] * (dhi - dlo + 3)
    for d in range(dlo, dhi + 1):
        if d % 10 == 0:
            s = str(d)
            i = d - dlo
            for j, ch in enumerate(s):
                if 0 <= i + j < len(ticks):
                    ticks[i + j] = ch
    rows.append(axis)
    rows.append("    " + "".join(ticks))
    rows.append("")
    for w in range(whi, wlo - 1, -1):
        names = [f"{label_for(n)}({d})" for n, d, ww, _o, _l, _nu
                 in layout.glyphs if ww == w]
        if names:
            rows.append(f"w{w}: " + "  ".join(names))
    return "\n".join(rows) + "\n"
