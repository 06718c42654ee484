"""Multiplicative monomial-basis spectral sequence engine over F_p.

A page is a finite bidegree window full of monomials in a presented
graded-commutative algebra (polynomial, exterior, Laurent and truncated
generators, monomial relations like t*mu = 0).  Differentials are given on
generators ("d_p(t) = t^{p+1} lambda1", possibly on a power of the
generator, like d_{p^2}(t^p)) and extended to monomials by the graded
Leibniz rule.  Page turning is exact sparse linear algebra over F_p:
per-bidegree homology with canonical RREF representatives, so output is
deterministic down to the choice of basis vectors.

A `DifferentialSpec` is checked once, on generators, when it is built: each
d_r has degree -1, so it is an odd derivation, and d_r² is then an even
derivation in any characteristic.  So d_r is a differential on the quotient
once it preserves each relation (`check_relation`) and d_r² kills each
generator g^e₀ of its domain.  No page turn checks d_r² again, and a d
whose square is nonzero only outside the window is refused too.

Windowing is honest: classes whose (potential) differentials cross a window
edge that actually cuts the quotient are flagged boundary-uncertain, and
stability beyond the last specified page is certified by checking that no
pair of populated bidegrees sits in d_r position for any larger r.

The bidegree convention is Adams-style: d_r moves (degree, weight) by
(-1, +r).  `BidegreeRule` generalizes this to (n*r + c, a*r + b) so that
other Bockstein-style conventions (e.g. a v2-Bockstein with v2 in bidegree
(2p^2-2, p^2-1)) reuse the same collapse checker.
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from synto.graded import (Catalog, GeneratorSymbol, Mono, VerificationError,
                          record_repr)
from synto.linalg import Span, Vec, kernel_basis, vec_addmul


class WindowInconclusiveError(VerificationError):
    """The window cannot certify the claim (too small or unstable)."""


class Window:
    __slots__ = ("deg_min", "deg_max", "weight_min", "weight_max")

    def __init__(self, deg_min: int, deg_max: int, weight_min: int,
                 weight_max: int) -> None:
        if deg_min > deg_max or weight_min > weight_max:
            raise ValueError("empty window bounds")
        self.deg_min, self.deg_max = deg_min, deg_max
        self.weight_min, self.weight_max = weight_min, weight_max

    __repr__ = record_repr


class BidegreeRule:
    """d_r shifts (degree, weight) by (deg_per_r*r + deg_const, weight_per_r*r + weight_const)."""

    __slots__ = ("deg_per_r", "deg_const", "weight_per_r", "weight_const")

    def __init__(self, deg_per_r: int = 0, deg_const: int = -1,
                 weight_per_r: int = 1, weight_const: int = 0) -> None:
        self.deg_per_r, self.deg_const = deg_per_r, deg_const
        self.weight_per_r, self.weight_const = weight_per_r, weight_const

    __repr__ = record_repr

    def shift(self, r: int) -> tuple[int, int]:
        return (self.deg_per_r * r + self.deg_const,
                self.weight_per_r * r + self.weight_const)


ADAMS_RULE = BidegreeRule()


def _extent(ranges: Sequence[tuple[Optional[int], Optional[int]]],
            coeffs: Sequence[int]) -> tuple[Optional[int], Optional[int]]:
    """Min and max of sum(e_i * c_i) over e_i in ranges[i] = (lo, hi), where
    None is an unbounded end; None where the sum is unbounded."""
    lo: Optional[int] = 0
    hi: Optional[int] = 0
    for (a, b), c in zip(ranges, coeffs):
        if c == 0:
            continue
        if c < 0:
            a, b = b, a
        lo = None if lo is None or a is None else lo + a * c
        hi = None if hi is None or b is None else hi + b * c
    return lo, hi


class Presentation:
    """Generators and monomial relations, a cap x^k = 0 among them: a quotient
    of the graded-commutative algebra.  `_structural_ranges` bounds each
    exponent, and `_walk` gives E₁ and the binding window edges."""

    def __init__(self, p: int, gens: Sequence[GeneratorSymbol],
                 relations: Iterable[dict[str, int]] = ()):
        self.p = p
        self.catalog = Catalog(gens)
        self.gens = self.catalog.symbols
        for i in self.catalog.odd:
            if self.gens[i].invertible:
                raise ValueError(f"odd generator {self.gens[i].name} must have exponent <= 1")
        self.relations: tuple[Mono, ...] = tuple(
            self.catalog.mono(r) for r in relations)
        for rel in self.relations:
            if any(e < 0 for e in rel):
                raise ValueError("relations must have non-negative exponents")
            for e, g in zip(rel, self.gens):
                if e and g.invertible:
                    raise ValueError(f"relation {self.catalog.mono_str(rel)} "
                                     f"kills the unit {g.name}, so every class")

    def killed(self, m: Mono) -> bool:
        """Zero in the quotient: divisible by a relation."""
        return any(all(x >= e for x, e in zip(m, rel) if e > 0)
                   for rel in self.relations)

    def _structural_ranges(self) -> list[tuple[Optional[int], Optional[int]]]:
        """Per-generator exponent interval of the quotient (None = unbounded).
        An odd degree and a pure-power relation x^k each cap it."""
        ranges = []
        for i, g in enumerate(self.gens):
            # x^k caps x below k, an odd x at 1; the relation 1 caps all below 0
            caps = [rel[i] - 1 for rel in self.relations
                    if not any(rel[:i] + rel[i + 1:])] + [1] * (i in self.catalog.odd)
            hi = min(caps, default=None)
            # a unit can only be capped by the relation 1, which empties it
            ranges.append((None if g.invertible and hi is None else 0, hi))
        return ranges

    def _gradings(self, window: Window) -> list[tuple[list[int], int, int]]:
        return [([g.degree for g in self.gens], window.deg_min, window.deg_max),
                ([g.weight for g in self.gens], window.weight_min, window.weight_max)]

    def exponent_ranges(self, window: Window) -> list[tuple[int, int]]:
        """Finite per-generator exponent bounds: the structural ranges, cut by
        the window's two gradings to an interval-arithmetic fixpoint.  One left
        unbounded (e.g. a unit of bidegree (0,0)) is an enumeration error."""
        ranges = self._structural_ranges()
        gradings = self._gradings(window)
        for _ in range(4 * len(ranges) + 8):
            changed = False
            for coeffs, gmin, gmax in gradings:
                snap = list(ranges)
                for i, c in enumerate(coeffs):
                    if c == 0:
                        continue
                    # e_i*|c| = s*(g - sum_{j != i} e_j*c_j), g in [gmin, gmax]
                    s, k = (1, c) if c > 0 else (-1, -c)
                    a, b = _extent(snap[:i] + snap[i + 1:] + [(gmin, gmax)],
                                   [-s * x for x in coeffs[:i] + coeffs[i + 1:]] + [s])
                    lo, hi = ranges[i]
                    if a is not None and (lo is None or -(-a // k) > lo):
                        lo = -(-a // k)
                    if b is not None and (hi is None or b // k < hi):
                        hi = b // k
                    if (lo, hi) != ranges[i]:
                        ranges[i], changed = (lo, hi), True
            if not changed:
                break
        bad = [g.name for g, (lo, hi) in zip(self.gens, ranges)
               if lo is None or hi is None]
        if bad:
            raise WindowInconclusiveError(
                f"window does not bound exponents of {', '.join(bad)}")
        return ranges

    def _walk(self, ranges: Sequence[tuple[int, int]],
              gradings: Sequence[tuple[list[int], int, int]]
              ) -> Iterator[tuple[Mono, tuple[int, int]]]:
        """The quotient's monomials with exponents in the finite ranges and
        both gradings (coeffs, min, max) in range, in catalog order, each
        with its two gradings.  Once the exponents before a relation's last
        generator meet the relation's, the walk caps that generator below the
        relation's exponent, so it never reaches a monomial that a relation
        kills."""
        n = len(ranges)
        # extremes of each grading over the exponents not yet chosen
        suffix = [[_extent(ranges[i:], coeffs[i:]) for coeffs, _, _ in gradings]
                  for i in range(n + 1)]
        (degs, dmin, dmax), (wts, wmin, wmax) = gradings
        # the relations whose last generator is generator i
        ends = [[rel for rel in self.relations if rel[i] and not any(rel[i + 1:])]
                for i in range(n)]
        exps = [0] * n

        def walk(i: int, d: int, w: int) -> Iterator[tuple[Mono, tuple[int, int]]]:
            (dlo, dhi), (wlo, whi) = suffix[i]
            if d + dlo > dmax or d + dhi < dmin or w + wlo > wmax or w + whi < wmin:
                return
            if i == n:
                yield tuple(exps), (d, w)
                return
            lo, hi = ranges[i]
            for rel in ends[i]:
                # zero entries are skipped, as a unit's exponent can be negative
                if all(x >= e for x, e in zip(exps, rel[:i]) if e):
                    hi = min(hi, rel[i] - 1)
            for e in range(lo, hi + 1):
                exps[i] = e
                yield from walk(i + 1, d + e * degs[i], w + e * wts[i])
            exps[i] = 0

        return walk(0, 0, 0)

    def binding_edges(self, window: Window) -> set[str]:
        """Window edges beyond which the quotient has a monomial.  Lowering an
        exponent toward 0 keeps a monomial alive, so for each edge a generator
        keeps only the exponents that push past it, else 0 (a unit with a
        negative coefficient pushes a max edge through its negative ones).  The
        edge binds when those are unbounded or the walk finds a monomial past it."""
        ranges = self._structural_ranges()
        zero = ([0] * len(ranges), 0, 0)
        edges = set()
        (degs, dmin, dmax), (wts, wmin, wmax) = self._gradings(window)
        # each edge as a max: sum(e_i * c_i) > bound
        for edge, cs, bound in (("deg_min", [-c for c in degs], -dmin), ("deg_max", degs, dmax),
                                ("weight_min", [-c for c in wts], -wmin),
                                ("weight_max", wts, wmax)):
            push = [(lo if c < 0 else 0, hi if c > 0 else min(hi or 0, 0))
                    for (lo, hi), c in zip(ranges, cs)]
            top = _extent(push, cs)[1]
            # a monomial past the edge settles it, even () with no generators
            if top is None or any(True for _ in self._walk(push, [(cs, bound + 1, top), zero])):
                edges.add(edge)
        return edges


# one row of a compiled page, as DifferentialSpec._compile builds it
_Terms = tuple[tuple[Mono, int, tuple[int, ...], tuple[int, ...]], ...]
_Row = tuple[int, int, _Terms, tuple[int, ...], _Terms]


class DiffEntry:
    """d_{page}(gen^base_exp) = image (terms as (monomial, coefficient))."""

    __slots__ = ("page", "gen", "base_exp", "image")

    def __init__(self, page: int, gen: str, base_exp: int,
                 image: tuple[tuple[Mono, int], ...]) -> None:
        self.page, self.gen = page, gen
        self.base_exp, self.image = base_exp, image

    __repr__ = record_repr


class RelationError(ValueError):
    """Some d_r does not preserve ``relation``, so it is not defined on the
    quotient."""

    def __init__(self, message: str, relation: Mono):
        super().__init__(message)
        self.relation = relation


class DifferentialSpec:
    """Generator-level differentials; anything unlisted at a page is a cycle.
    Each page is compiled once into the rows `leibniz_extend` reads.

    The spec is refused (ValueError) unless each d_r is a differential on
    the quotient.  Every relation must pass `check_relation` (else a
    `RelationError`), so that d_r is defined on the quotient, and
    d_r(d_r(g^e₀)) must vanish there for every entry.  That is enough: d_r
    has degree -1, so it is an odd derivation, and d_r² is then a derivation
    in any characteristic, as the cross terms ±d_r(a)·d_r(b) of d_r²(a·b)
    cancel.  The g^e₀ and the unlisted generators generate d_r's domain, so
    d_r² is zero on all of it."""

    def __init__(self, pres: Presentation, entries: Iterable[DiffEntry]):
        self.pres = pres
        self.rule = ADAMS_RULE
        self.entries = tuple(entries)
        self._by_page: dict[int, dict[int, tuple[int, tuple[tuple[Mono, int], ...]]]] = {}
        cat = pres.catalog
        for e in self.entries:
            if e.page < 1 or e.base_exp < 1:
                raise ValueError("pages and base exponents are positive")
            gi = cat.index[e.gen]
            if e.base_exp > 1 and gi in cat.odd:
                raise ValueError(f"odd generator {e.gen} has no power {e.base_exp}")
            base = cat.mono({e.gen: e.base_exp})
            want = (cat.degree(base) + self.rule.shift(e.page)[0],
                    cat.weight(base) + self.rule.shift(e.page)[1])
            image = tuple((m, c % pres.p) for m, c in e.image if c % pres.p)
            for m, _ in image:
                if cat.bidegree(m) != want:
                    raise ValueError(
                        f"image term {cat.mono_str(m)} of d_{e.page}({e.gen}^{e.base_exp}) "
                        f"has bidegree {cat.bidegree(m)}, expected {want}")
            # a term that a relation kills, or with an odd generator squared,
            # is zero; it is still refused in the wrong bidegree
            image = tuple(t for t in image if not pres.killed(t[0])
                          and all(t[0][k] < 2 for k in cat.odd))
            page = self._by_page.setdefault(e.page, {})
            if gi in page:
                raise ValueError(f"duplicate differential for {e.gen} at page {e.page}")
            page[gi] = (e.base_exp, image)
        self._rows = {r: self._compile(r, ents) for r, ents in self._by_page.items()}
        for rel in pres.relations:
            check_relation(self, rel)
        for r, ents in self._by_page.items():
            for i, (e0, image) in ents.items():
                square: dict[Mono, int] = {}
                for m, c in image:
                    # _compile keeps each image term in d_r's domain
                    square = vec_addmul(pres.p, square, leibniz_extend(self, r, m), c)
                if square:
                    base = cat.mono_str(cat.mono({cat.symbols[i].name: e0}))
                    raise ValueError(f"d_{r} squared is nonzero on {base}: d_{r} of "
                                     f"its image has the term {cat.mono_str(min(square))}")

    def _compile(self, r: int, ents: dict[int, tuple[int, tuple[tuple[Mono, int], ...]]]
                 ) -> tuple[_Row, ...]:
        """Page r's rows for `leibniz_extend`, one per generator g_i that d_r
        acts on: (i, e₀, terms, the odd positions before i, squared).  Each
        term is (δ, coefficient, the odd factors k ≠ i of its image, and for
        each k the odd positions j with k < j < i or i < j < k), where
        δ = image − e₀·g_i shifts m to the term.  An odd g_i has e₀ = 1 and
        is gone from m / g_i, so i is in neither list.  squared is the terms
        for an m that holds an odd g_i squared, which is zero and on no page:
        a g_i is left in m / g_i, so the terms whose image holds g_i drop
        and each odd factor of the image before g_i flips the sign; for an
        even g_i it is the terms.  An image term outside d_r's own domain is
        refused, so d_r never leaves it."""
        cat = self.pres.catalog
        rows = []
        for i, (e0, image) in ents.items():
            terms = []
            squared = []
            for m, c in image:
                for j, (ej, _) in ents.items():
                    if m[j] % ej:
                        raise ValueError(
                            f"image term {cat.mono_str(m)} of d_{r}({cat.symbols[i].name}^{e0}) "
                            f"is outside the domain of d_{r}: its exponent of "
                            f"{cat.symbols[j].name} is not a multiple of {ej}")
                delta = tuple(x - e0 if j == i else x for j, x in enumerate(m))
                odd = tuple(k for k in cat.odd if m[k] and k != i)
                flips = tuple(j for k in odd for j in cat.odd
                              if k < j < i or i < j < k)
                terms.append((delta, c, odd, flips))
                if not m[i]:
                    flip = sum(k < i for k in odd) % 2
                    squared.append((delta, -c if flip else c, odd, flips))
            rows.append((i, e0, tuple(terms), tuple(j for j in cat.odd if j < i),
                         tuple(squared) if i in cat.odd else tuple(terms)))
        return tuple(rows)

    @property
    def pages(self) -> list[int]:
        return sorted(self._by_page)

    def by_page(self, r: int) -> dict[int, tuple[int, tuple[tuple[Mono, int], ...]]]:
        return self._by_page.get(r, {})


def leibniz_extend(spec: DifferentialSpec, r: int, m: Mono) -> Optional[dict[Mono, int]]:
    """d_r(m) by the Leibniz rule, or None when m is outside the derivation's
    domain (a specified generator appears to an exponent not divisible by its
    base power, e.g. d_{p^2} is only defined on multiples of t^p).

    Each generator g_i that d_r acts on, with base exponent e₀ and m[i] = a,
    gives (a/e₀)·(m / g_i^e₀)·image: one term m + δ per image term, where
    the compiled shift δ = image − e₀·g_i.  Signs: writing m = f_1 ... f_k
    in catalog order, differentiating the factor of g_i costs (-1)^{Σ m[j]
    over odd j < i}.  A term is zero when an odd factor k ≠ i of the image
    has m[k] ≠ 0.  Otherwise moving each odd factor k of the image to its
    catalog place flips the sign once for each odd j ≠ i with m[j] ≠ 0 and
    k < j < i (a factor of m it passes leftwards) or i < j < k
    (rightwards).  An odd g_i leaves no factor g_i in m / g_i, as e₀ = 1
    and a = 1 on any page, so i is never tested.  An m with a > 1 there is
    zero and on no page; it reads the row's squared terms, which give the
    answer of multiplying out factor by factor, as before the shifts.
    `Presentation.killed` runs only when there are relations.
    """
    rows = spec._rows.get(r)
    if not rows:
        return {}
    pres, p = spec.pres, spec.pres.p
    killed = pres.killed if pres.relations else None
    total: dict[Mono, int] = {}
    for i, e0, terms, before, squared in rows:
        a = m[i]
        if not a:
            continue
        if a % e0:
            return None
        q = (a // e0) % p
        if not q:
            continue
        if a > e0:
            terms = squared
        if before and sum(m[j] for j in before) % 2:
            q = -q
        for delta, c, odd, flips in terms:
            for k in odd:
                if m[k]:
                    break
            else:
                full = tuple(map(add, m, delta))
                if killed is not None and killed(full):
                    continue
                s = q * c
                for j in flips:
                    if m[j]:
                        s = -s
                coeff = (total.get(full, 0) + s) % p
                if coeff:
                    total[full] = coeff
                else:
                    total.pop(full, None)
    return total


def check_relation(spec: DifferentialSpec, rel: Mono) -> None:
    """Raise `RelationError` unless every d_r maps the relation ``rel`` into
    the quotient's ideal, so that d_r is defined on the quotient; one with
    an odd square, like y^2, holds in any graded-commutative algebra.
    `DifferentialSpec` runs it on every relation of its presentation.

    On page r, ρ′ raises each generator that d_r acts on to the next
    multiple of its base exponent: the least multiple of ρ in d_r's domain.
    Any multiple of ρ in that domain is m·ρ′ with m in it too, and
    d_r(m·ρ′) = d_r(m)·ρ′ ± m·d_r(ρ′), so d_r(ρ′) = 0 in the quotient
    settles the relation on that page.
    """
    cat = spec.pres.catalog
    if any(rel[i] > 1 for i in cat.odd):
        return
    for r in spec.pages:
        lifted = list(rel)
        for i, (e0, _image) in spec.by_page(r).items():
            lifted[i] = -(-rel[i] // e0) * e0
        image = leibniz_extend(spec, r, tuple(lifted))
        if image:
            raise RelationError(
                f"d_{r} does not preserve the relation {cat.mono_str(rel)}: "
                f"d_{r}({cat.mono_str(tuple(lifted))}) has the term "
                f"{cat.mono_str(min(image))}", rel)


class BidegreeData:
    """The monomials of one bidegree, the alive classes over them and the
    boundary span (None while empty).  Pages share these and never write a
    stored one, so `build_page` gives all its one-monomial bidegrees the same
    alive list [{0: 1}] and builds their index as {m: 0}."""

    __slots__ = ("monos", "index", "alive", "boundaries")

    def __init__(self, monos: list[Mono], alive: Optional[list[Vec]] = None,
                 boundaries: Optional[Span] = None,
                 index: Optional[dict[Mono, int]] = None):
        self.monos = monos
        self.index = {m: i for i, m in enumerate(monos)} if index is None else index
        self.alive = [{i: 1} for i in range(len(monos))] if alive is None else alive
        self.boundaries = boundaries


class SSPage:
    """One page: surviving classes per bidegree, with canonical representatives."""

    def __init__(self, pres: Presentation, window: Window, r: int,
                 data: dict[tuple[int, int], BidegreeData],
                 flags: frozenset[tuple[int, int]] = frozenset()):
        self.pres = pres
        self.window = window
        self.r = r
        self.data = data
        self.flags = flags

    def dims(self) -> dict[tuple[int, int], int]:
        return {b: len(d.alive) for b, d in sorted(self.data.items()) if d.alive}

    def total_dim(self) -> int:
        return sum(len(d.alive) for d in self.data.values())

    def class_reps(self, include_flagged: bool = True) -> list[tuple[tuple[int, int], Mono, Vec]]:
        """(bidegree, representative monomial, vector) for every class, sorted."""
        out = []
        for b in sorted(self.data):
            if not include_flagged and b in self.flags:
                continue
            d = self.data[b]
            for v in d.alive:
                out.append((b, d.monos[min(v)], v))
        return out

    def rep_names(self, include_flagged: bool = True) -> list[str]:
        cat = self.pres.catalog
        return [cat.mono_str(m) for _, m, _ in self.class_reps(include_flagged)]


def build_page(pres: Presentation, window: Window) -> SSPage:
    """Page 1: every relation-free window monomial is a class of its own,
    grouped by the (degree, weight) the walk reaches it at."""
    data: dict[tuple[int, int], list[Mono]] = {}
    for m, b in pres._walk(pres.exponent_ranges(window), pres._gradings(window)):
        data.setdefault(b, []).append(m)
    one = [{0: 1}]  # shared, see BidegreeData
    return SSPage(pres, window, 1, {
        b: BidegreeData(ms, one, None, {ms[0]: 0}) if len(ms) == 1 else BidegreeData(ms)
        for b, ms in sorted(data.items())})


def turn_page(page: SSPage, spec: DifferentialSpec) -> SSPage:
    """Homology with respect to d_{page.r}; returns page r+1.

    Every page keeps one invariant: each alive vector is a row of the fully
    reduced RREF of (boundaries + cycles), with 1 at its pivot min(v) and 0
    at every boundary pivot and every other class's pivot.  So the classes
    are canonical, whatever the processing order, and class coordinates are
    read off at their pivots.  The representative monomial is the pivot,
    the smallest basis monomial in catalog order.

    Each source b with alive classes in its target tb costs one labelled
    elimination of its images over tb's boundaries (`kernel_basis`): the
    special solutions are the kernel, and the span it leaves is tb's new
    boundaries.  A bidegree that loses no class to the kernel and gains no
    boundary keeps the previous page's `BidegreeData`.

    A pair of one-monomial bidegrees whose alive lists are both [{0: 1}],
    with no boundaries at the target, is decided by d_r's one coefficient c
    there: that elimination on a 1 x 1 matrix.  With c ≠ 0 the source class
    is in no kernel and the target gains the boundary row {0: 1}; with c = 0
    both stay as they are.  Such a target's single class covers its one
    coordinate, so the stale-representative and cycle checks cannot fail;
    the domain and missing-term checks stay.  Likewise a one-monomial
    bidegree that loses or gains a class is left with none, where the
    general insert would find every cycle dependent.

    d_r(m) is computed only for the monomials of an alive source class whose
    target has alive classes, and at most once per page.  d_r² = 0 needs no
    check here: `DifferentialSpec` checked it once, on the generators.
    """
    r = page.r
    if not spec.by_page(r):
        return SSPage(page.pres, page.window, r + 1, page.data, page.flags)
    p, cat = page.pres.p, page.pres.catalog
    shift = spec.rule.shift(r)
    dmap: dict[Mono, Optional[dict[Mono, int]]] = {}

    def image(b: tuple[int, int], d: BidegreeData, v: Vec,
              tb: tuple[int, int], td: BidegreeData) -> Vec:
        """d_r of the class v at b, over tb's monomials.  A one-entry class
        maps to its column times c as it is: distinct monomials have
        distinct indices, and c·c₁ ≢ 0 (mod p)."""
        dv: Vec = {}
        one = len(v) == 1
        for i, c in v.items():
            m = d.monos[i]
            if m not in dmap:
                dmap[m] = leibniz_extend(spec, r, m)
            h = dmap[m]
            if h is None:
                # Boundary-corrupted survivors (a killer fell outside the
                # window) can sit outside the derivation's domain; they
                # carry no certificate, so a zero differential is sound.
                if b in page.flags:
                    return {}
                raise VerificationError(
                    f"alive class {cat.mono_str(m)} is outside the domain of d_{r}")
            for m1, c1 in h.items():
                j = td.index.get(m1)
                if j is None:
                    raise VerificationError(
                        f"d_{r} image term {cat.mono_str(m1)} missing from "
                        f"target bidegree {tb}")
                dv[j] = c * c1 % p if one else (dv.get(j, 0) + c * c1) % p
        return dv if one else {j: x for j, x in dv.items() if x}

    # every read is of the input page, and tb = b + shift is injective
    kernels: dict[tuple[int, int], list[Vec]] = {}
    grown: dict[tuple[int, int], tuple[Span, int]] = {}
    one = [{0: 1}]
    for b in sorted(page.data):
        d = page.data[b]
        tb = (b[0] + shift[0], b[1] + shift[1])
        td = page.data.get(tb)
        if not d.alive or td is None or not td.alive:
            # the differential leaves the window (flagged separately), or
            # the target group is zero, so the induced map is zero
            continue
        if (td.boundaries is None and len(td.monos) == 1
                and d.alive == one == td.alive and len(d.monos) == 1):
            # a 1 x 1 pair: d_r is the scalar c of the target's monomial
            if image(b, d, one[0], tb, td):
                kernels[b] = []
                span = Span(p)
                span.rows = {0: {0: 1}}
                grown[tb] = span, 1
            continue
        bounds = td.boundaries or Span(p)
        classes = Span(p)
        classes.rows = {min(v): v for v in td.alive if v}
        pivots = classes.rows.keys() | bounds.rows.keys()
        if (len(pivots) != len(td.alive) + bounds.dim
                or any(v[q] != 1 or len(v.keys() & pivots) > 1
                       for q, v in classes.rows.items())):
            raise VerificationError(f"stale representative in bidegree {tb}")
        images = []
        for v in d.alive:
            # reducing mod tb's boundaries changes neither the kernel nor the
            # new span; what is left must be a combination of classes
            dv = image(b, d, v, tb, td)
            if bounds.rows:
                dv = bounds.reduce(dv)
            if classes.reduce(dv):
                raise VerificationError(
                    f"d_{r} image not a cycle mod boundaries at {tb}")
            images.append(dv)
        span = bounds.copy()
        kernels[b] = kernel_basis(p, images, span)
        if span.dim > bounds.dim:
            grown[tb] = span, span.dim - bounds.dim

    # new representatives: RREF(boundaries + cycles) rows outside boundaries
    data = dict(page.data)
    for b in sorted(kernels.keys() | grown.keys()):
        d = page.data[b]
        old_dim = len(d.alive)
        ker = kernels[b] if b in kernels else [{j: 1} for j in range(old_dim)]
        span, rank_in = grown.get(b, (d.boundaries, 0))
        rank_out = old_dim - len(ker)
        if not (rank_out or rank_in):
            continue
        alive: list[Vec] = []
        # one monomial that lost or gained a class keeps none
        if len(d.monos) > 1:
            base = span.copy() if span else Span(p)
            pivots = []
            for k in ker:
                vec: Vec = {}
                for j, c in k.items():
                    vec = vec_addmul(p, vec, d.alive[j], c)
                piv = base.insert(vec)
                if piv is not None:
                    pivots.append(piv)
            alive = [base.rows[piv] for piv in sorted(pivots)]
        if len(alive) != old_dim - rank_out - rank_in:
            raise VerificationError(
                f"rank bookkeeping failed at bidegree {b} page {r}: "
                f"{old_dim} - {rank_out} - {rank_in} != {len(alive)}")
        data[b] = BidegreeData(d.monos, alive, span, d.index)
    return SSPage(page.pres, page.window, r + 1, data, page.flags)


def flag_boundary(page: SSPage, spec: DifferentialSpec) -> frozenset[tuple[int, int]]:
    """Bidegrees whose fate could depend on classes outside the window.

    Seeds: populated bidegrees with a potential d_r (either direction, any
    spec page) crossing a binding window edge.  Flags propagate through the
    populated-bidegree graph, since a wrongly-killed killer falsifies its
    whole differential chain.
    """
    binding = page.pres.binding_edges(page.window)
    if not binding:
        return frozenset()
    w = page.window
    pop = {b for b, d in page.data.items() if d.monos}
    shifts = [spec.rule.shift(r) for r in spec.pages]

    def crosses_binding(deg: int, weight: int) -> bool:
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


def run_to_stable(page: SSPage, spec: DifferentialSpec) -> tuple[SSPage, list[dict]]:
    """Turn every specified page, then certify stability.

    A page that carries no d_r leaves the classes as they are, so only the
    spec pages are turned.  Stability = no pair of surviving populated
    bidegrees sits in d_r position for any r beyond the last specified page;
    failing that the window is inconclusive (hard error), because out-of-spec
    differentials could not be ruled out.
    """
    flags = flag_boundary(page, spec)
    current = SSPage(page.pres, page.window, page.r, page.data, flags)
    log: list[dict] = []
    last = max(spec.pages, default=0)
    # a page with no d_r keeps the classes, so page r starts with the count
    # the last turned page ended with
    classes = current.total_dim()
    for r in spec.pages:
        if r < current.r:
            continue
        current = SSPage(current.pres, current.window, r, current.data, flags)
        current = turn_page(current, spec)
        after = current.total_dim()
        log.append({"page": r, "classes_before": classes,
                    "classes_after": after})
        classes = after
    beyond = collapse_check([ChartEntry(str(b), *b) for b, d in current.data.items()
                             if d.alive], spec.rule, r_min=last + 1)
    if not beyond.collapses:
        raise WindowInconclusiveError(
            f"window inconclusive: populated bidegree pairs beyond page {last} "
            f"at pages {sorted({r for r, _, _ in beyond.witnesses})}")
    log.append({"page": "stable", "classes": classes})
    return current, log


class ChartEntry:
    """A named chart class, optionally a degreewise-periodic family."""

    __slots__ = ("name", "degree", "weight", "period")

    def __init__(self, name: str, degree: int, weight: int,
                 period: Optional[int] = None) -> None:
        self.name, self.degree, self.weight = name, degree, weight
        self.period = period  # degrees degree + k*period for all k >= 0

    __repr__ = record_repr


class CollapseReport:
    __slots__ = ("collapses", "rule", "r_range", "witnesses", "notes")

    def __init__(self, collapses: bool, rule: BidegreeRule,
                 r_range: tuple[int, int],
                 witnesses: list[tuple[int, str, str]],
                 notes: list[str]) -> None:
        self.collapses, self.rule, self.r_range = collapses, rule, r_range
        self.witnesses, self.notes = witnesses, notes

    __repr__ = record_repr


def _degrees_can_match(src: ChartEntry, tgt: ChartEntry, dshift: int) -> bool:
    """Is deg(src) + k_s*P_s + dshift = deg(tgt) + k_t*P_t solvable, k >= 0?"""
    c = src.degree + dshift - tgt.degree
    if src.period is None and tgt.period is None:
        return c == 0
    if src.period is not None and tgt.period is None:
        return c <= 0 and c % src.period == 0
    if src.period is None and tgt.period is not None:
        return c >= 0 and c % tgt.period == 0
    return c % math.gcd(src.period, tgt.period) == 0


def collapse_check(entries: Sequence[ChartEntry], rule: BidegreeRule,
                   r_min: int = 1, r_max: Optional[int] = None) -> CollapseReport:
    """Bidegree-arithmetic collapse detector.

    For every pair of chart entries, solves r from their weights (so the
    rule needs weight_per_r > 0) and checks whether a d_r with r in [r_min,
    r_max] could connect them; collapse means no pair can.  Witnesses are
    sorted by r.  r_max defaults to the largest r whose weight shift still
    fits inside the chart's weight span."""
    if rule.weight_per_r <= 0:
        raise ValueError("need weight_per_r > 0: the weights decide r")
    notes = []
    if not entries:
        return CollapseReport(True, rule, (r_min, r_min - 1), [], ["empty chart"])
    if r_max is None:
        span = (max(e.weight for e in entries) - min(e.weight for e in entries))
        r_max = (span - rule.weight_const) // rule.weight_per_r
        notes.append(f"r_max = {r_max} from weight span {span}")
    witnesses = []
    for src in entries:
        for tgt in entries:
            r, rem = divmod(tgt.weight - src.weight - rule.weight_const, rule.weight_per_r)
            if (not rem and r_min <= r <= r_max
                    and _degrees_can_match(src, tgt, rule.shift(r)[0])):
                witnesses.append((r, src.name, tgt.name))
    witnesses.sort(key=lambda wit: wit[0])
    return CollapseReport(not witnesses, rule, (r_min, r_max), witnesses, notes)
