"""Sparse exact linear algebra over F_p.

Vectors are dicts from integer coordinate to nonzero canonical residue.
They are values: nothing here changes a vector it was given or has stored
(`vec_addmul`, `vec_scale` and `Span.insert` always build new dicts, and
`Span.reduce` copies a vector only when a pivot meets it), and callers keep
to the same rule.  So `Span.reduce` may return its argument itself, and
copies of a `Span` or of a list of vectors may share the vectors themselves.

The workhorse is `Span`, a row space kept in fully reduced RREF with the
pivot of each row at its smallest nonzero coordinate.  RREF is canonical
for a subspace, so spans built from the same vectors in any order agree,
which is what makes page-turning representatives deterministic.  A new row
is back-eliminated only from the rows that hold its pivot, which a private
coordinate -> rows index names (see `Span`), so an insert costs the rows it
changes, not the rows it keeps.

`kernel_basis` is the package's one labelled elimination (col ⊕ e_{off+j}).

Desk-scale sizes only (hundreds of coordinates): no Markowitz scoring
beyond the min-pivot rule.
"""

from __future__ import annotations

from typing import Optional

Vec = dict[int, int]


def vec_addmul(p: int, u: Vec, v: Vec, c: int) -> Vec:
    """u + c*v, canonicalized."""
    out = dict(u)
    for i, a in v.items():
        b = (out.get(i, 0) + c * a) % p
        if b:
            out[i] = b
        else:
            out.pop(i, None)
    return out


def vec_scale(p: int, v: Vec, c: int) -> Vec:
    c %= p
    return {i: (a * c) % p for i, a in v.items()} if c else {}


class Span:
    """An F_p row space in reduced row echelon form, empty when made;
    `insert` adds a vector.

    rows maps pivot coordinate -> vector with 1 at the pivot and support
    only on non-pivot coordinates otherwise, so reduction is a single pass.

    A private index maps each non-pivot coordinate to the set of pivots
    whose rows have a nonzero entry there, so that adding a row rewrites
    only the rows that hold its pivot.  It is derived from rows, so it is
    kept lazily: it is None on a new `Span`, on a `copy()` and after
    `kernel_basis`, and it is rebuilt from rows by the first insert that
    adds a row.  Code outside this module may assign rows, or a row, only
    while the index is None, that is, before any insert that added a row.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, Vec] = {}
        self._holders: Optional[dict[int, set[int]]] = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        hit = v.keys() & self.rows.keys()
        if not hit:
            return v
        p, rows, out = self.p, self.rows, dict(v)
        for piv in sorted(hit):
            c = out.get(piv)
            if c:
                for i, a in rows[piv].items():
                    b = (out.get(i, 0) - c * a) % p
                    if b:
                        out[i] = b
                    else:
                        del out[i]
        return out

    def insert(self, v: Vec) -> Optional[int]:
        """Add v to the span; returns the new pivot, or None if dependent."""
        r = self.reduce(v)
        return self._add(r) if r else None

    def _add(self, r: Vec) -> int:
        """Add r, nonzero and already reduced by this span; returns its
        pivot."""
        p, rows, holders = self.p, self.rows, self._holders
        if holders is None:
            holders = self._holders = {}
            for q, row in rows.items():
                for i in row:
                    if i != q:
                        holders.setdefault(i, set()).add(q)
        piv = min(r)
        r = vec_scale(p, r, pow(r[piv], -1, p))
        for q in holders.pop(piv, ()):
            row = rows[q]
            rows[q] = new = vec_addmul(p, row, r, -row[piv])
            # an entry cancels only where r has one, so r's row keeps i held
            for i in row.keys() - new.keys():
                if i != piv:
                    holders[i].remove(q)
            for i in new.keys() - row.keys():
                holders.setdefault(i, set()).add(q)
        for i in r:
            if i != piv:
                holders.setdefault(i, set()).add(piv)
        rows[piv] = r
        return piv

    def copy(self) -> "Span":
        out = Span(self.p)
        out.rows = dict(self.rows)
        return out


def kernel_basis(p: int, cols: list[Vec], span: Optional[Span] = None) -> list[Vec]:
    """Kernel of the matrix with the given columns modulo ``span``, over
    column coordinates.

    One basis vector per column j that lies in ``span`` plus the columns
    before it, with coefficient 1 at j and support only on earlier columns:
    the standard special solutions, in a deterministic order.  Column j
    enters as col ⊕ e_{off+j}; when its reduction has no coordinate below
    ``off``, the label part of the reduction is the special solution.  The
    other columns extend ``span`` (empty by default) in place, and its rows
    are stripped of their labels at the end, which drops its index.
    """
    span = Span(p) if span is None else span
    off = 1 + max((max(v) for v in (*cols, *span.rows.values()) if v), default=-1)
    before = dict(span.rows)
    out = []
    for j, col in enumerate(cols):
        r = span.reduce({**col, off + j: 1})
        if min(r) >= off:
            out.append({i - off: c for i, c in r.items()})
        else:
            span._add(r)
    for q, row in span.rows.items():
        if row is not before.get(q):
            span.rows[q] = {i: c for i, c in row.items() if i < off}
    span._holders = None
    return out
