"""Shared test utilities: dense F_p linear algebra used as an independent
oracle for the sparse spectral-sequence engine, a per-monomial d² = 0
oracle, the Koszul product of monomials, a generator of random
square-zero differential specs (square-zero by triangularity:
differentials only hit generators that themselves map to zero), and a
presentation with one generator moved to another degree."""

from __future__ import annotations

import importlib.util
import io
import itertools
import math
import operator
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from synto.cli import main
from synto.fgl import (compose, exp_coefficients, formal_sum_of, log_t,
                       pipeline_catalog, reduce_ideal, required_depth)
from synto.graded import (CoeffRing, GeneratorSymbol, Poly, VerificationError,
                          canonical_catalog)
from synto.linalg import Span, vec_addmul, vec_scale
from synto.spectral import (ADAMS_RULE, BidegreeData, DiffEntry,
                            DifferentialSpec, Presentation, SSPage, Window,
                            leibniz_extend)

SRC = Path(__file__).resolve().parent.parent / "src"


def with_degree(make, name, degree):
    """``make`` with generator ``name`` moved to ``degree``."""
    def patched(p):
        pres = make(p)
        gens = [GeneratorSymbol(name, degree, g.weight, g.invertible)
                if g.name == name else g for g in pres.gens]
        rels = [{g.name: e for g, e in zip(pres.gens, rel) if e}
                for rel in pres.relations]
        return Presentation(p, gens, rels)
    return patched


def source_env() -> dict[str, str]:
    """The environment for a child Python process, with this checkout's
    `src` first on PYTHONPATH, so the child runs this source tree whatever
    is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def enumerate_basis(pres, window):
    """Every monomial of the quotient in the window, in catalog order; the
    walk never reaches one that `killed` would reject."""
    return [m for m, _ in pres._walk(pres.exponent_ranges(window),
                                     pres._gradings(window))]


def window_contains(window, deg, weight):
    return (window.deg_min <= deg <= window.deg_max
            and window.weight_min <= weight <= window.weight_max)


def formal_sum(p, trunc, vars=("x", "y"), cat=None):
    """F(x, y) = exp(log x + log y), truncated at total (x,y)-exponent trunc."""
    cat = cat or canonical_catalog(p, depth=max(2, required_depth(p, trunc)),
                                   orientations=("t",) + vars)
    ring = CoeffRing(0, p)
    F = formal_sum_of(p, trunc, [Poly.gen(cat, ring, v) for v in vars], cat)
    F.assert_p_integral(p)
    return F


def reference_p_series(p, trunc, ideal=()):
    """[p](t) mod ideal as exp composed with p * log t: Horner over p * log t
    by ``compose``, the reference for ``fgl.p_series``, which sums the exp
    solve's own products instead."""
    cat = pipeline_catalog(p, trunc)
    _ls, L = log_t(p, trunc, cat, ideal)
    p_log = Poly.from_terms(cat, L.ring, [(cat.one, p)]) * L
    return reduce_ideal(compose(exp_coefficients(p, L), p_log), p, ideal)


def check_square_zero(page, spec, r):
    """d_r(d_r(m)) = 0 for every window monomial in the derivation's domain:
    the per-monomial reference for the generator-level check that
    `DifferentialSpec` makes.

    Returns the map it filled, monomial -> d_r(m) (None outside the domain).
    Its keys are every window monomial and every term of their images, and
    each d_r(m) is computed once.
    """
    cat = page.pres.catalog
    dmap = {}

    def d(m):
        if m not in dmap:
            dmap[m] = leibniz_extend(spec, r, m)
        return dmap[m]

    for b in sorted(page.data):
        for m in page.data[b].monos:
            first = d(m)
            if first is None:
                continue
            acc = {}
            for m1, c1 in first.items():
                second = d(m1)
                if second is None:
                    raise VerificationError(
                        f"d_{r} image of {cat.mono_str(m)} leaves the "
                        f"derivation's domain at {cat.mono_str(m1)}")
                acc = vec_addmul(page.pres.p, acc, second, c1)
            if acc:
                raise VerificationError(
                    f"d_{r} squared is nonzero on {cat.mono_str(m)}")
    return dmap


def mono_mul(cat, a, b):
    """(sign, a*b) in the graded-commutative algebra on ``cat``, or None
    when an odd generator would square: the Koszul rule written factor by
    factor, the reference that `leibniz_extend`'s compiled signs are tested
    against.

    The sign counts the transpositions needed to interleave the odd part
    of b into the odd part of a, i.e. pairs (i in a, j in b) of odd
    generator positions with i > j.
    """
    sign = 1
    for i in cat.odd:
        if a[i] and b[i]:
            return None
        if b[i]:
            # moving b's odd factor at i past every odd factor of a
            # sitting at a later catalog position
            swaps = sum(1 for j in cat.odd if j > i and a[j])
            if swaps & 1:
                sign = -sign
    return sign, tuple(map(operator.add, a, b))


def unchecked_spec(pres, entries):
    """The spec of ``entries`` with no d² = 0 refusal, so that a test can
    hand the engine or the oracle a d whose square is nonzero: each entry is
    compiled in a spec of its own and the compiled pages are joined."""
    spec = DifferentialSpec(pres, [])
    for e in entries:
        one = DifferentialSpec(pres, [e])
        spec._by_page.setdefault(e.page, {}).update(one._by_page[e.page])
        spec._rows[e.page] = spec._rows.get(e.page, ()) + one._rows[e.page]
    return spec


def load_grid():
    """scripts/grid.py as a module: its command lists and its `run`."""
    path = SRC.parent / "scripts" / "grid.py"
    spec = importlib.util.spec_from_file_location("grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def values(poly) -> dict:
    """{monomial: coefficient} of a Poly, each coefficient an int or a
    Fraction, whatever den the poly is held over."""
    return {m: poly.coefficient(m) for m in poly.terms}


def run_cli(argv, env=None):
    """main() in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    patched = dict(os.environ)
    patched.pop("SYNTO_COLOR", None)
    patched.update(env or {})
    with mock.patch.dict(os.environ, patched, clear=True):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse --version/--help
                code = e.code or 0
    return code, out.getvalue(), err.getvalue()


def dense_rank(p: int, cols: list[dict[int, int]], nrows: int) -> int:
    """Rank of the matrix with the given sparse columns, by plain dense
    Gaussian elimination over F_p (no pivoting cleverness on purpose)."""
    mat = [[0] * nrows for _ in cols]
    for j, col in enumerate(cols):
        for i, c in col.items():
            mat[j][i] = c % p
    rank = 0
    row = 0
    for i in range(nrows):
        pivot = None
        for j in range(row, len(mat)):
            if mat[j][i]:
                pivot = j
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][i], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for j in range(len(mat)):
            if j != row and mat[j][i]:
                c = mat[j][i]
                mat[j] = [(a - c * b) % p for a, b in zip(mat[j], mat[row])]
        row += 1
        rank += 1
    return rank


def dense_kernel(p: int, cols: list[dict[int, int]],
                 nrows: int) -> list[dict[int, int]]:
    """A basis of the kernel of the matrix with the given sparse columns, by
    plain dense Gauss-Jordan elimination over F_p."""
    mat = [[col.get(i, 0) % p for col in cols] for i in range(nrows)]
    pivots = []  # pivots[k]: the pivot column of row k
    for j in range(len(cols)):
        row = len(pivots)
        pivot = next((i for i in range(row, nrows) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][j], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for i in range(nrows):
            if i != row and mat[i][j]:
                c = mat[i][j]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[row])]
        pivots.append(j)
    kernel = []
    for j in range(len(cols)):
        if j in pivots:
            continue
        v = {j: 1}
        for k, pj in enumerate(pivots):
            if mat[k][j]:
                v[pj] = -mat[k][j] % p
        kernel.append(v)
    return kernel


def dense_matrix(spec, r, src_monos, tgt_index):
    """Columns of d_r from a source monomial list into a target index map."""
    cols = []
    for m in src_monos:
        img = leibniz_extend(spec, r, m)
        assert img is not None, "oracle only handles base_exp = 1 specs"
        cols.append({tgt_index[m1]: c for m1, c in img.items()})
    return cols


def dense_page_dims(pres, window, spec, r):
    """Per-bidegree homology dimensions of (page-1 monomials, d_r), computed
    densely, with the same window convention as the engine: differentials
    whose target bidegree holds no window monomials are zero."""
    basis = enumerate_basis(pres, window)
    cat = pres.catalog
    by_b: dict[tuple[int, int], list] = {}
    for m in basis:
        by_b.setdefault(cat.bidegree(m), []).append(m)
    shift = spec.rule.shift(r)
    kdim: dict[tuple[int, int], int] = {}
    bdim: dict[tuple[int, int], int] = {}
    for b, monos in by_b.items():
        tb = (b[0] + shift[0], b[1] + shift[1])
        if tb not in by_b:
            kdim[b] = len(monos)
            continue
        tindex = {m: i for i, m in enumerate(by_b[tb])}
        cols = dense_matrix(spec, r, monos, tindex)
        rk = dense_rank(pres.p, cols, len(by_b[tb]))
        kdim[b] = len(monos) - rk
        bdim[tb] = bdim.get(tb, 0) + rk
    return {b: kdim[b] - bdim.get(b, 0) for b in by_b}


def dense_two_page_dims(pres, window, spec, r, r2):
    """Per-bidegree dimensions of E_{r2+1} for a spec with differentials on
    pages r < r2 only, computed densely with the window convention of
    `dense_page_dims`.

    With Z and B the cycles and boundaries of d_r, d_{r2} acts on
    E_{r+1} = ... = E_{r2} = Z/B.  At a bidegree b, with t = b + shift(r2)
    and s = b - shift(r2), kernel minus image is

        dim E_{r2+1}(b) = dim Z(b) - rank(d_{r2} Z(b) + B(t)) + rank B(t)
                          - rank(d_{r2} Z(s) + B(b)).
    """
    p, cat = pres.p, pres.catalog
    by_b: dict[tuple[int, int], list] = {}
    for m in enumerate_basis(pres, window):
        by_b.setdefault(cat.bidegree(m), []).append(m)
    index = {b: {m: i for i, m in enumerate(ms)} for b, ms in by_b.items()}

    def ahead(b, k, sign=1):
        shift = spec.rule.shift(k)
        return (b[0] + sign * shift[0], b[1] + sign * shift[1])

    cycles: dict[tuple[int, int], list[dict[int, int]]] = {}
    bounds: dict[tuple[int, int], list[dict[int, int]]] = {}
    for b, monos in by_b.items():
        t = ahead(b, r)
        if t not in by_b:
            cycles[b] = [{i: 1} for i in range(len(monos))]
            continue
        cols = dense_matrix(spec, r, monos, index[t])
        cycles[b] = dense_kernel(p, cols, len(by_b[t]))
        bounds[t] = cols

    def image(b):
        """d_{r2} Z(b), as vectors over the monomials of b + shift(r2)."""
        t = ahead(b, r2)
        if b not in by_b or t not in by_b:
            return []
        cols = dense_matrix(spec, r2, by_b[b], index[t])
        out = []
        for z in cycles[b]:
            v: dict[int, int] = {}
            for i, c in z.items():
                for j, a in cols[i].items():
                    v[j] = (v.get(j, 0) + c * a) % p
            out.append(v)
        return out

    def rank(b, vecs):
        """rank(vecs + B(b)) at a bidegree b of the window."""
        return dense_rank(p, vecs + bounds.get(b, []), len(by_b[b]))

    dims = {}
    for b in by_b:
        t = ahead(b, r2)
        dims[b] = len(cycles[b]) - rank(b, image(ahead(b, r2, -1)))
        if t in by_b:
            dims[b] += rank(t, []) - rank(t, image(b))
    return dims


def _box(points):
    """(deg_min, deg_max, weight_min, weight_max) of the smallest window
    holding every (degree, weight) point."""
    degs, weights = zip(*points)
    return min(degs), max(degs), min(weights), max(weights)


def random_square_zero_case(rng: random.Random):
    """(presentation, window, spec, r) with <= 50 window monomials and a
    page-r differential that squares to zero by construction.

    A generator's degree decides its parity, as in any graded-commutative
    algebra, so a generator of odd degree is exterior.  The triangular
    construction relies on it: the Koszul cancellation in d² runs on
    degree parity.

    Total by construction, with no rejection loop:

    - each source generator takes the bidegree of an image monomial in the
      cycle generators, drawn first, minus shift(r);
    - at most one generator is invertible, so the window bounds every
      exponent;
    - each even generator but the unit is capped by a relation g^(c+1); a
      source's cap has p | c + 1, so that d(g^(c+1)) = (c+1)·g^c·d(g) = 0:
      d preserves every relation and is defined on the quotient;
    - the prime is drawn among those whose smallest source caps fit, and
      the caps keep the even part of the bounded algebra to at most 50
      monomials, or 12 beside an invertible generator; the odd generators
      can double that, so the box around the first source s and its image
      m can hold over 50 (0.3 % of seeds, e.g. 825);
    - a relation x*y ties two cycles, on which d vanishes;
    - the window holds the distinct nonzero monomials 1, s, m and s*m, so
      d_r(s) has a target in it.  Where it holds over 50, it is shrunk
      towards the box around s and m, and no further.
    """
    r = rng.randint(1, 3)
    shift = ADAMS_RULE.shift(r)
    n = rng.randint(2, 4)
    sources = rng.sample(range(n), rng.randint(1, n - 1))
    cycles = [i for i in range(n) if i not in sources]
    bideg: list[tuple[int, int]] = [(0, 0)] * n
    inv = None  # index of the one invertible generator, if any

    def maybe_invertible(i: int) -> None:
        nonlocal inv
        deg, weight = bideg[i]
        if (inv is None and deg % 2 == 0 and (deg, weight) != (0, 0)
                and rng.random() < 0.15):
            inv = i

    for i in cycles:
        bideg[i] = (rng.randint(-4, 4), rng.randint(-2, 2))
        maybe_invertible(i)
    images = {}
    for i in sources:
        support = rng.sample(cycles, rng.randint(1, len(cycles)))
        img = tuple(0 if j not in support else rng.choice((-1, 1))
                    if j == inv else 1 for j in range(n))
        images[i] = img
        bideg[i] = (sum(e * bideg[j][0] for j, e in enumerate(img)) - shift[0],
                    sum(e * bideg[j][1] for j, e in enumerate(img)) - shift[1])
        maybe_invertible(i)

    budget = 50 if inv is None else 12
    gens = [GeneratorSymbol(f"g{i}", deg, weight, invertible=i == inv)
            for i, (deg, weight) in enumerate(bideg)]
    capped = [i for i, (deg, _w) in enumerate(bideg) if deg % 2 == 0 and i != inv]

    def least(q, i):  # the fewest exponents that generator i takes at prime q
        return q if i in sources else 2

    p = rng.choice([q for q in (2, 3, 5)
                    if math.prod(least(q, i) for i in capped) <= budget])
    size = math.prod(least(p, i) for i in capped)
    rels = []
    for i in capped:
        rest = size // least(p, i)
        count = (p * min(rng.randint(1, 2), budget // rest // p) if i in sources
                 else min(rng.randint(2, 4), budget // rest))
        size = rest * count
        rels.append({gens[i].name: count})

    if rng.random() < 0.3:
        pairs = [(a, b) for a, b in itertools.combinations(cycles, 2)
                 if inv not in (a, b)
                 and not any(img[a] and img[b] for img in images.values())]
        if pairs:
            a, b = rng.choice(pairs)
            rels.append({gens[a].name: 1, gens[b].name: 1})
    pres = Presentation(p, gens, relations=rels)

    s = bideg[sources[0]]  # bidegrees of the first source s and its image m
    m = (s[0] + shift[0], s[1] + shift[1])
    core = _box([s, m])
    floor = _box([(0, 0), s, m, (s[0] + m[0], s[1] + m[1])])
    dw = max(rng.randint(4, 8), floor[1] - floor[0])
    ww = max(rng.randint(3, 6), floor[3] - floor[2])
    d0 = rng.randint(floor[1] - dw, floor[0])
    w0 = rng.randint(floor[3] - ww, floor[2])
    edges = [d0, d0 + dw, w0, w0 + ww]
    basis = enumerate_basis(pres, Window(*edges))
    while len(basis) > 50:
        movable = [k for k in range(4) if edges[k] != core[k]]
        if not movable:
            # the caps bound only the even generators: the odd ones can
            # double the box around s and m past 50
            break
        k = rng.choice(movable)
        edges[k] += -1 if k % 2 else 1
        basis = enumerate_basis(pres, Window(*edges))

    cat = pres.catalog
    entries = []
    for i in sources:
        target = (bideg[i][0] + shift[0], bideg[i][1] + shift[1])
        candidates = [mono for mono in basis
                      if cat.bidegree(mono) == target
                      and all(mono[j] == 0 for j in sources)]
        if not candidates:
            continue
        picks = rng.sample(candidates,
                           min(len(candidates), rng.randint(1, 2)))
        image = tuple((mono, rng.randint(1, p - 1)) for mono in picks)
        entries.append(DiffEntry(r, gens[i].name, 1, image))
    return pres, Window(*edges), DifferentialSpec(pres, entries), r


def random_two_page_case(rng: random.Random):
    """(presentation, window, spec, r, r2): a `random_square_zero_case`
    plus one or two new generators h_k, each with a d_{r2}, r < r2 <= r + 2.

    The page-r sources are banned from the d_{r2} images, which otherwise
    lie in the window's monomials.  So d_{r2} vanishes on every d_r image
    and d_r on every d_{r2} image: on generators, hence everywhere,
    d_r d_{r2} = -d_{r2} d_r, and d_{r2} descends to E_{r+1}.  Each h_k is
    odd or capped by the relation h_k^p, which d_{r2} preserves, and takes
    the bidegree of its image minus shift(r2), inside the window where some
    allowed image permits it.
    """
    pres, window, spec, r = random_square_zero_case(rng)
    r2 = r + rng.randint(1, 2)
    shift = ADAMS_RULE.shift(r2)
    cat, p = pres.catalog, pres.p
    sources = set(spec.by_page(r))
    allowed = [m for m in enumerate_basis(pres, window)
               if not any(m[i] for i in sources)]  # never empty: 1 is there

    def source_bidegree(m):
        deg, weight = cat.bidegree(m)
        return deg - shift[0], weight - shift[1]

    inside = [m for m in allowed if window_contains(window, *source_bidegree(m))]
    new = rng.randint(1, 2)
    gens = list(pres.gens)
    entries = [DiffEntry(e.page, e.gen, e.base_exp,
                         tuple((m + (0,) * new, c) for m, c in e.image))
               for e in spec.entries]
    rels = [{cat.symbols[i].name: e for i, e in enumerate(rel) if e}
            for rel in pres.relations]
    for k in range(new):
        target = cat.bidegree(rng.choice(inside or allowed))
        same = [m for m in allowed if cat.bidegree(m) == target]
        picks = rng.sample(same, min(len(same), rng.randint(1, 2)))
        deg, weight = source_bidegree(picks[0])
        name = f"h{k}"
        gens.append(GeneratorSymbol(name, deg, weight))
        if deg % 2 == 0:
            rels.append({name: p})
        entries.append(DiffEntry(r2, name, 1, tuple(
            (m + (0,) * new, rng.randint(1, p - 1)) for m in picks)))
    pres2 = Presentation(p, gens, relations=rels)
    return pres2, window, DifferentialSpec(pres2, entries), r, r2


class ScanSpan(Span):
    """A `Span` that back-eliminates a new pivot by scanning every row for
    an entry there, with no index: the reference for `Span`'s index."""

    def _add(self, r):
        piv = min(r)
        r = vec_scale(self.p, r, pow(r[piv], -1, self.p))
        for q, row in self.rows.items():
            c = row.get(piv)
            if c:
                self.rows[q] = vec_addmul(self.p, row, r, -c)
        self.rows[piv] = r
        return piv


def support_index(span):
    """{coordinate: pivots of the rows with a nonzero entry there}, over
    the non-pivot coordinates of span's rows."""
    out = {}
    for q, row in span.rows.items():
        for i in row:
            if i != q:
                out.setdefault(i, set()).add(q)
    return out


def reference_kernel_basis(p, cols):
    """Special solutions of the matrix with the given columns, by the
    labelled elimination over an empty span."""
    off = 1 + max((max(c) for c in cols if c), default=-1)
    span = Span(p)
    out = []
    for j, col in enumerate(cols):
        r = span.reduce({**col, off + j: 1})
        if min(r) >= off:
            out.append({i - off: c for i, c in r.items()})
        else:
            span.insert(r)
    return out


def _reference_clone(d):
    c = BidegreeData.__new__(BidegreeData)
    c.monos = d.monos
    c.alive = list(d.alive)
    c.boundaries = None if d.boundaries is None else d.boundaries.copy()
    return c


def reference_turn_page(page, spec):
    """Page r+1 the long way: every bidegree cloned, the target's classes
    re-inserted into a labelled span to read class coordinates, the kernel
    found on those coordinates, the images inserted again as boundaries,
    and the cycles of every bidegree re-inserted."""
    r = page.r
    if not spec.by_page(r):
        return SSPage(page.pres, page.window, r + 1, page.data, page.flags)
    dmap = check_square_zero(page, spec, r)
    p = page.pres.p
    cat = page.pres.catalog
    shift = spec.rule.shift(r)
    data = {b: _reference_clone(d) for b, d in page.data.items()}
    kernels = {}
    ranks_in = {}
    for b in sorted(data):
        d = data[b]
        if not d.alive:
            continue
        tb = (b[0] + shift[0], b[1] + shift[1])
        td = data.get(tb)
        if td is None or not td.alive:
            kernels[b] = [{j: 1} for j in range(len(d.alive))]
            continue
        images = []
        for v in d.alive:
            dv = {}
            for i, c in v.items():
                h = dmap[d.monos[i]]
                if h is None:
                    if b in page.flags:
                        dv = {}
                        break
                    raise VerificationError(
                        f"alive class {cat.mono_str(d.monos[i])} is outside "
                        f"the domain of d_{r}")
                for m1, c1 in h.items():
                    j = td.index.get(m1)
                    if j is None:
                        raise VerificationError(
                            f"d_{r} image term {cat.mono_str(m1)} missing from "
                            f"target bidegree {tb}")
                    dv = vec_addmul(p, dv, {j: 1}, c * c1)
            images.append(dv)
        span = Span(p) if td.boundaries is None else td.boundaries.copy()
        off = len(td.monos)
        for i, v in enumerate(td.alive):
            if span.insert({**v, off + i: 1}) >= off:
                raise VerificationError(
                    f"stale representative in bidegree {tb}")
        cols = []
        for dv in images:
            red = span.reduce(dv)
            if min(red, default=off) < off:
                raise VerificationError(
                    f"d_{r} image not a cycle mod boundaries at {tb}")
            cols.append({i - off: -c % p for i, c in red.items()})
        kernels[b] = reference_kernel_basis(p, cols)
        if td.boundaries is None:
            td.boundaries = Span(p)
        before = td.boundaries.dim
        for dv in images:
            if dv:
                td.boundaries.insert(dv)
        ranks_in[tb] = td.boundaries.dim - before

    for b in sorted(data):
        d = data[b]
        if not d.alive:
            continue
        old_dim = len(d.alive)
        cycles = []
        for k in kernels[b]:
            vec = {}
            for j, c in k.items():
                vec = vec_addmul(p, vec, d.alive[j], c)
            cycles.append(vec)
        base = Span(p) if d.boundaries is None else d.boundaries.copy()
        pivots = []
        for v in cycles:
            piv = base.insert(v)
            if piv is not None:
                pivots.append(piv)
        d.alive = [base.rows[piv] for piv in sorted(pivots)]
        rank_out, rank_in = old_dim - len(kernels[b]), ranks_in.get(b, 0)
        if len(d.alive) != old_dim - rank_out - rank_in:
            raise VerificationError(
                f"rank bookkeeping failed at bidegree {b} page {r}: "
                f"{old_dim} - {rank_out} - {rank_in} != {len(d.alive)}")
    return SSPage(page.pres, page.window, r + 1, data, page.flags)


def reference_collapse_witnesses(entries, rule, r_min, period):
    """`collapse_check`'s witnesses the long way: every (source, target)
    pair in entry order, r solved from the weights, then a stable sort by
    r."""
    span = max(e.weight for e in entries) - min(e.weight for e in entries)
    r_max = span // rule.weight_per_r
    witnesses = []
    for src in entries:
        for tgt in entries:
            r, rem = divmod(tgt.weight - src.weight, rule.weight_per_r)
            if rem or not r_min <= r <= r_max:
                continue
            c = src.degree + rule.shift(r)[0] - tgt.degree
            if (c % period if period else c) == 0:
                witnesses.append((r, src.name, tgt.name))
    witnesses.sort(key=lambda wit: wit[0])
    return witnesses


def reference_flag_boundary(page, spec):
    """`flag_boundary` the long way: a populated bidegree is a seed when
    b + s or b - s lies past a binding edge for some spec shift s, tested
    shift by shift; the flags then spread along every shift."""
    binding = page.pres.binding_edges(page.window)
    if not binding:
        return frozenset()
    w = page.window
    pop = {b for b, d in page.data.items() if d.monos}
    shifts = [spec.rule.shift(r) for r in spec.pages]

    def crosses_binding(deg, weight):
        return ((deg < w.deg_min and "deg_min" in binding)
                or (deg > w.deg_max and "deg_max" in binding)
                or (weight < w.weight_min and "weight_min" in binding)
                or (weight > w.weight_max and "weight_max" in binding))

    seeds = set()
    for (d0, w0) in pop:
        for sd, sw in shifts:
            if crosses_binding(d0 + sd, w0 + sw) or crosses_binding(d0 - sd, w0 - sw):
                seeds.add((d0, w0))
    flagged = set(seeds)
    frontier = list(seeds)
    while frontier:
        d0, w0 = frontier.pop()
        for sd, sw in shifts:
            for nb in ((d0 + sd, w0 + sw), (d0 - sd, w0 - sw)):
                if nb in pop and nb not in flagged:
                    flagged.add(nb)
                    frontier.append(nb)
    return frozenset(flagged)
