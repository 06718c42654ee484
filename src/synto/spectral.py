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
(-1, +r).  `BidegreeRule` generalizes this to (n*r - 1, a*r) so that
other Bockstein-style conventions (e.g. a v2-Bockstein with v2 in bidegree
(2p^2-2, p^2-1)) reuse the same collapse checker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from synto.graded import Catalog, GeneratorSymbol, Mono, VerificationError
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


class BidegreeRule:
    """d_r shifts (degree, weight) by (deg_per_r*r - 1, weight_per_r*r).
    With deg_per_r = 0, as in `ADAMS_RULE`, every d_r has degree -1, which
    `DifferentialSpec`'s check of d² on the generators relies on."""

    __slots__ = ("deg_per_r", "weight_per_r")

    def __init__(self, deg_per_r: int = 0, weight_per_r: int = 1) -> None:
        self.deg_per_r, self.weight_per_r = deg_per_r, weight_per_r

    def shift(self, r: int) -> tuple[int, int]:
        return self.deg_per_r * r - 1, self.weight_per_r * r


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
        if not n and self.relations:
            # with no generator, the one monomial 1 is killed by the relation 1
            return iter(())
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
_Row = tuple[int, int, _Terms, tuple[int, ...]]


class DiffEntry:
    """d_{page}(gen^base_exp) = image (terms as (monomial, coefficient))."""

    __slots__ = ("page", "gen", "base_exp", "image")

    def __init__(self, page: int, gen: str, base_exp: int,
                 image: tuple[tuple[Mono, int], ...]) -> None:
        self.page, self.gen = page, gen
        self.base_exp, self.image = base_exp, image


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
        acts on: (i, e₀, terms, the odd positions before i).  Each term is
        (δ, coefficient, the odd factors k ≠ i of its image, and for each k
        the odd positions j with k < j < i or i < j < k), where
        δ = image − e₀·g_i shifts m to the term.  An odd g_i has e₀ = 1 and
        is gone from m / g_i, so i is in neither list.  An image term outside
        d_r's own domain is refused, so d_r never leaves it."""
        cat = self.pres.catalog
        rows = []
        for i, (e0, image) in ents.items():
            terms = []
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
            rows.append((i, e0, tuple(terms), tuple(j for j in cat.odd if j < i)))
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

    m must hold each odd generator at most once; for an m with an odd square,
    which is zero, the result is not d_r(m).  Every m the engine passes
    keeps to this: `_structural_ranges` caps odd exponents at 1, so every E₁
    monomial does, `DifferentialSpec` drops an image term with an odd
    square, and `check_relation` lifts no relation with one.

    Each generator g_i that d_r acts on, with base exponent e₀ and m[i] = a,
    gives (a/e₀)·(m / g_i^e₀)·image: one term m + δ per image term, where
    the compiled shift δ = image − e₀·g_i.  Signs: writing m = f_1 ... f_k
    in catalog order, differentiating the factor of g_i costs (-1)^{Σ m[j]
    over odd j < i}.  A term is zero when an odd factor k ≠ i of the image
    has m[k] ≠ 0.  Otherwise moving each odd factor k of the image to its
    catalog place flips the sign once for each odd j ≠ i with m[j] ≠ 0 and
    k < j < i (a factor of m it passes leftwards) or i < j < k
    (rightwards).  An odd g_i leaves no factor g_i in m / g_i, as e₀ = 1
    and a = 1, so i is never tested.
    `Presentation.killed` runs only when there are relations.
    """
    rows = spec._rows.get(r)
    if not rows:
        return {}
    pres, p = spec.pres, spec.pres.p
    killed = pres.killed if pres.relations else None
    total: dict[Mono, int] = {}
    for i, e0, terms, before in rows:
        a = m[i]
        if not a:
            continue
        if a % e0:
            return None
        q = (a // e0) % p
        if not q:
            continue
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


_ONE: list[Vec] = [{0: 1}]  # the E₁ classes of every one-monomial bidegree


class BidegreeData:
    """The monomials of one bidegree, the alive classes over them and the
    boundary span.  Pages share records and never write a stored one, and a
    record keeps only what a later turn reads.  `index` is derived from
    `monos` when read.  A one-monomial bidegree starts with the shared
    alive list `_ONE`, so `turn_page` knows an untouched one by identity.
    Every record holds at least one class: a page has no record for a
    bidegree with none."""

    __slots__ = ("monos", "alive", "boundaries")

    def __init__(self, monos: list[Mono], alive: Optional[list[Vec]] = None,
                 boundaries: Optional[Span] = None):
        self.monos = monos
        if alive is None:
            alive = _ONE if len(monos) == 1 else [{i: 1} for i in range(len(monos))]
        self.alive = alive
        self.boundaries = boundaries

    @property
    def index(self) -> dict[Mono, int]:
        """Each monomial's position in `monos`."""
        return {m: i for i, m in enumerate(self.monos)}


class SSPage:
    """One page: surviving classes per bidegree, with canonical
    representatives.  `data` maps each bidegree that has at least one class
    to its record; a bidegree with no class has no record, so a turned page
    lists only the bidegrees that still have classes."""

    def __init__(self, pres: Presentation, window: Window, r: int,
                 data: dict[tuple[int, int], BidegreeData],
                 flags: frozenset[tuple[int, int]] = frozenset()):
        self.pres = pres
        self.window = window
        self.r = r
        self.data = data
        self.flags = flags

    def dims(self) -> dict[tuple[int, int], int]:
        return {b: len(d.alive) for b, d in sorted(self.data.items())}

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
    grouped by the (degree, weight) the walk reaches it at, in one
    `BidegreeData` with the default alive list per bidegree."""
    data: dict[tuple[int, int], list[Mono]] = {}
    for m, b in pres._walk(pres.exponent_ranges(window), pres._gradings(window)):
        data.setdefault(b, []).append(m)
    return SSPage(pres, window, 1,
                  {b: BidegreeData(ms) for b, ms in sorted(data.items())})


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

    A bidegree that a turn leaves with no class is deleted from the new
    page.  A pair of untouched one-monomial bidegrees, both alive lists the
    shared `_ONE`, is decided by d_r's one coefficient c: with c ≠ 0 both
    lose their class and both records, with no span built, and with c = 0
    both stay as they are.  A one-monomial bidegree that loses or gains a
    class is left with none without an insert: a killing pair builds no
    span, so the insert would keep the hit target's class.

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
              tb: tuple[int, int], tindex: dict[Mono, int]) -> Vec:
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
                j = tindex.get(m1)
                if j is None:
                    raise VerificationError(
                        f"d_{r} image term {cat.mono_str(m1)} missing from "
                        f"target bidegree {tb}")
                dv[j] = c * c1 % p if one else (dv.get(j, 0) + c * c1) % p
        return dv if one else {j: x for j, x in dv.items() if x}

    # every read is of the input page, and tb = b + shift is injective
    kernels: dict[tuple[int, int], list[Vec]] = {}
    grown: dict[tuple[int, int], tuple[Optional[Span], int]] = {}
    for b in sorted(page.data):
        d = page.data[b]
        tb = (b[0] + shift[0], b[1] + shift[1])
        td = page.data.get(tb)
        if td is None:
            # the differential leaves the window (flagged separately), or
            # the target group is zero, so the induced map is zero
            continue
        tindex = td.index
        if d.alive is _ONE is td.alive:
            # a 1 x 1 pair: d_r is the scalar c of the target's monomial
            if image(b, d, _ONE[0], tb, tindex):
                kernels[b] = []
                grown[tb] = None, 1
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
            dv = image(b, d, v, tb, tindex)
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
        alive = []
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
        if alive:
            data[b] = BidegreeData(d.monos, alive, span)
        else:
            del data[b]
    return SSPage(page.pres, page.window, r + 1, data, page.flags)


def flag_boundary(page: SSPage, spec: DifferentialSpec) -> frozenset[tuple[int, int]]:
    """Bidegrees of page 1 whose fate could depend on classes outside the
    window.

    Seeds: populated bidegrees with a potential d_r (either direction, any
    spec page) crossing a binding window edge, that is, within the largest
    |shift| in that grading of the edge.  Flags propagate through the
    populated-bidegree graph, since a wrongly-killed killer falsifies its
    whole differential chain.
    """
    binding = page.pres.binding_edges(page.window)
    shifts = [spec.rule.shift(r) for r in spec.pages]
    if not binding or not shifts:
        return frozenset()
    w = page.window
    pop = page.data  # page 1 lists every bidegree that holds a monomial
    dd = max(abs(sd) for sd, _ in shifts)
    dw = max(abs(sw) for _, sw in shifts)
    flagged = {(d0, w0) for d0, w0 in pop
               if ("deg_min" in binding and d0 - dd < w.deg_min)
               or ("deg_max" in binding and d0 + dd > w.deg_max)
               or ("weight_min" in binding and w0 - dw < w.weight_min)
               or ("weight_max" in binding and w0 + dw > w.weight_max)}
    frontier = list(flagged)
    while frontier:
        d0, w0 = frontier.pop()
        for sd, sw in shifts:
            for nb in ((d0 + sd, w0 + sw), (d0 - sd, w0 - sw)):
                if nb in pop and nb not in flagged:
                    flagged.add(nb)
                    frontier.append(nb)
    return frozenset(flagged)


def run_to_stable(page: SSPage, spec: DifferentialSpec) -> tuple[SSPage, list[dict]]:
    """Turn page 1, as `build_page` gives it, through every specified page,
    then certify stability; `flag_boundary` reads page 1's bidegrees.

    A page that carries no d_r leaves the classes as they are, so only the
    spec pages are turned.  Stability = no pair of surviving bidegrees sits
    in d_r position for any r beyond the last specified page; failing that
    the window is inconclusive (hard error), because out-of-spec
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
        current = SSPage(current.pres, current.window, r, current.data, flags)
        current = turn_page(current, spec)
        after = current.total_dim()
        log.append({"page": r, "classes_before": classes,
                    "classes_after": after})
        classes = after
    beyond = collapse_check([ChartEntry(str(b), *b) for b in current.data],
                            spec.rule, r_min=last + 1)
    if not beyond.collapses:
        raise WindowInconclusiveError(
            f"window inconclusive: populated bidegree pairs beyond page {last} "
            f"at pages {sorted({r for r, _, _ in beyond.witnesses})}")
    log.append({"page": "stable", "classes": classes})
    return current, log


class ChartEntry:
    """A named chart class at (degree, weight); under `collapse_check`'s
    period it stands for a degreewise-periodic family."""

    __slots__ = ("name", "degree", "weight")

    def __init__(self, name: str, degree: int, weight: int) -> None:
        self.name, self.degree, self.weight = name, degree, weight


class CollapseReport:
    __slots__ = ("collapses", "r_range", "witnesses", "notes")

    def __init__(self, collapses: bool, r_range: tuple[int, int],
                 witnesses: list[tuple[int, str, str]],
                 notes: list[str]) -> None:
        self.collapses, self.r_range = collapses, r_range
        self.witnesses, self.notes = witnesses, notes


def collapse_check(entries: Sequence[ChartEntry], rule: BidegreeRule,
                   r_min: int = 1, period: Optional[int] = None) -> CollapseReport:
    """Bidegree-arithmetic collapse detector.

    For every pair of chart entries, solves r from their weights (so the
    rule needs weight_per_r > 0) and checks whether a d_r with r in [r_min,
    r_max] could connect them; collapse means no pair can.  r_max is the
    largest r whose weight shift still fits inside the chart's weight span.
    With a ``period``, every entry stands for the family of degrees
    degree + k*period, k >= 0 (a v2-tower), so a pair can connect when the
    degrees agree mod period; without one they must be equal.  Witnesses
    are sorted by r, then by source and target position in ``entries``.

    The targets are grouped by weight, then by degree (mod period), and the
    weights by residue mod weight_per_r, in order.  A source finds the
    weights src.weight + r*weight_per_r, r in [r_min, r_max], by bisection,
    and looks up at each only the degree a d_r would reach; so it costs one
    dict lookup per weight in reach, not a pass over every entry."""
    if rule.weight_per_r <= 0:
        raise ValueError("need weight_per_r > 0: the weights decide r")
    if not entries:
        return CollapseReport(True, (r_min, r_min - 1), [], ["empty chart"])
    span = (max(e.weight for e in entries) - min(e.weight for e in entries))
    step = rule.weight_per_r
    r_max = span // step
    notes = [f"r_max = {r_max} from weight span {span}"]

    def key(degree: int) -> int:
        return degree % period if period else degree

    targets: dict[int, dict[int, list[int]]] = {}
    for j, tgt in enumerate(entries):
        targets.setdefault(tgt.weight, {}).setdefault(
            key(tgt.degree), []).append(j)
    ladders: dict[int, list[int]] = {}
    for weight in sorted(targets):
        ladders.setdefault(weight % step, []).append(weight)
    found = []
    for i, src in enumerate(entries):
        ladder = ladders.get(src.weight % step, [])
        for weight in ladder[bisect_left(ladder, src.weight + r_min * step):
                             bisect_right(ladder, src.weight + r_max * step)]:
            r = (weight - src.weight) // step
            for j in targets[weight].get(key(src.degree + rule.shift(r)[0]),
                                         ()):
                found.append((r, i, j))
    found.sort()
    witnesses = [(r, entries[i].name, entries[j].name) for r, i, j in found]
    return CollapseReport(not witnesses, (r_min, r_max), witnesses, notes)
