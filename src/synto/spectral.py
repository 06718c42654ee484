"""Multiplicative monomial-basis spectral sequence engine over F_p.

A page is a finite bidegree window full of monomials in a presented
graded-commutative algebra (polynomial, exterior, Laurent and truncated
generators, monomial relations like t*mu = 0).  Differentials are given on
generators ("d_p(t) = t^{p+1} lambda1", possibly on a power of the
generator, like d_{p^2}(t^p)) and extended to monomials by the graded
Leibniz rule.  Page turning is exact sparse linear algebra over F_p:
per-bidegree homology with canonical RREF representatives, so output is
deterministic down to the choice of basis vectors.

Windowing is honest: classes whose (potential) differentials cross a window
edge that actually cuts the algebra are flagged boundary-uncertain, and
stability beyond the last specified page is certified by checking that no
pair of populated bidegrees sits in d_r position for any larger r.

The bidegree convention is Adams-style: d_r moves (degree, weight) by
(-1, +r).  `BidegreeRule` generalizes this to (n*r + c, a*r + b) so that
other Bockstein-style conventions (e.g. a v2-Bockstein with v2 in bidegree
(2p^2-2, p^2-1)) reuse the same collapse checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from synto.graded import Catalog, GeneratorSymbol, Mono, VerificationError
from synto.linalg import Span, Vec, kernel_basis, vec_addmul


class WindowInconclusiveError(VerificationError):
    """The window cannot certify the claim (too small or unstable)."""


@dataclass(frozen=True)
class Window:
    deg_min: int
    deg_max: int
    weight_min: int
    weight_max: int

    def __post_init__(self) -> None:
        if self.deg_min > self.deg_max or self.weight_min > self.weight_max:
            raise ValueError("empty window bounds")

    def contains(self, deg: int, weight: int) -> bool:
        return (self.deg_min <= deg <= self.deg_max
                and self.weight_min <= weight <= self.weight_max)


@dataclass(frozen=True)
class BidegreeRule:
    """d_r shifts (degree, weight) by (deg_per_r*r + deg_const, weight_per_r*r + weight_const)."""

    deg_per_r: int = 0
    deg_const: int = -1
    weight_per_r: int = 1
    weight_const: int = 0

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
    """Generators with exponent bounds plus monomial-kill relations."""

    def __init__(self, p: int, gens: Sequence[GeneratorSymbol],
                 relations: Iterable[dict[str, int]] = ()):
        self.p = p
        self.catalog = Catalog(gens)
        self.gens = self.catalog.symbols
        for g in self.gens:
            if g.max_exp is not None and g.max_exp < 0:
                raise ValueError(f"generator {g.name} has negative max_exp")
            if g.max_exp is not None and g.invertible:
                raise ValueError(f"invertible generator {g.name} has a max_exp")
            if g.degree % 2 and (g.invertible or (g.max_exp or 1) > 1):
                raise ValueError(f"odd generator {g.name} must have exponent <= 1")
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
        """Zero in the quotient: divisible by a relation, or over an exponent cap."""
        for i, e in enumerate(m):
            cap = self.gens[i].max_exp
            if cap is not None and e > cap:
                return True
        return any(all(x >= e for x, e in zip(m, rel) if e > 0)
                   for rel in self.relations)

    def _structural_ranges(self) -> list[tuple[Optional[int], Optional[int]]]:
        """Per-generator exponent interval of the algebra (None = unbounded)."""
        return [(0, 1) if g.degree % 2
                else (None if g.invertible else 0, g.max_exp)
                for g in self.gens]

    def _gradings(self, window: Window) -> list[tuple[list[int], int, int]]:
        return [([g.degree for g in self.gens], window.deg_min, window.deg_max),
                ([g.weight for g in self.gens], window.weight_min, window.weight_max)]

    def exponent_ranges(self, window: Window) -> list[tuple[int, int]]:
        """Finite per-generator exponent bounds implied by the window.

        Interval-arithmetic fixpoint over the two grading constraints; a
        generator no constraint can bound (e.g. an invertible generator of
        bidegree (0,0)) is an enumeration error.
        """
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

    def enumerate_basis(self, window: Window) -> list[Mono]:
        """All relation-free monomials in the window, in catalog order."""
        n = len(self.gens)
        ranges = self.exponent_ranges(window)
        gradings = self._gradings(window)
        # extremes of each grading over the exponents not yet chosen
        suffix = [[_extent(ranges[i:], coeffs[i:]) for coeffs, _, _ in gradings]
                  for i in range(n + 1)]
        (degs, dmin, dmax), (wts, wmin, wmax) = gradings
        out: list[Mono] = []
        exps = [0] * n

        def walk(i: int, d: int, w: int) -> None:
            (dlo, dhi), (wlo, whi) = suffix[i]
            if d + dlo > dmax or d + dhi < dmin or w + wlo > wmax or w + whi < wmin:
                return
            if i == n:
                m = tuple(exps)
                if not self.killed(m):
                    out.append(m)
                return
            lo, hi = ranges[i]
            for e in range(lo, hi + 1):
                exps[i] = e
                walk(i + 1, d + e * degs[i], w + e * wts[i])
            exps[i] = 0

        walk(0, 0, 0)  # depth-first in increasing exponents: catalog order
        return out

    def grading_extremes(self) -> dict[str, Optional[int]]:
        """Structural sup/inf of degree and weight over all monomials (None = unbounded)."""
        ranges = self._structural_ranges()
        dmin, dmax = _extent(ranges, [g.degree for g in self.gens])
        wmin, wmax = _extent(ranges, [g.weight for g in self.gens])
        return {"deg_min": dmin, "deg_max": dmax,
                "weight_min": wmin, "weight_max": wmax}

    def binding_edges(self, window: Window) -> set[str]:
        """Window edges that actually cut the algebra."""
        edges = set()
        for edge, v in self.grading_extremes().items():
            bound = getattr(window, edge)
            if v is None or (v < bound if edge.endswith("min") else v > bound):
                edges.add(edge)
        return edges


@dataclass(frozen=True)
class DiffEntry:
    """d_{page}(gen^base_exp) = image (terms as (monomial, coefficient))."""

    page: int
    gen: str
    base_exp: int
    image: tuple[tuple[Mono, int], ...]


class DifferentialSpec:
    """Generator-level differentials; anything unlisted at a page is a cycle."""

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
            if e.base_exp > 1 and cat.symbols[gi].degree % 2:
                raise ValueError(f"odd generator {e.gen} has no power {e.base_exp}")
            base = cat.mono({e.gen: e.base_exp})
            want = (cat.degree(base) + self.rule.shift(e.page)[0],
                    cat.weight(base) + self.rule.shift(e.page)[1])
            image = tuple((m, c % pres.p) for m, c in e.image
                          if c % pres.p and not pres.killed(m))
            for m, _ in image:
                if cat.bidegree(m) != want:
                    raise ValueError(
                        f"image term {cat.mono_str(m)} of d_{e.page}({e.gen}^{e.base_exp}) "
                        f"has bidegree {cat.bidegree(m)}, expected {want}")
            page = self._by_page.setdefault(e.page, {})
            if gi in page:
                raise ValueError(f"duplicate differential for {e.gen} at page {e.page}")
            page[gi] = (e.base_exp, image)

    @property
    def pages(self) -> list[int]:
        return sorted(self._by_page)

    def by_page(self, r: int) -> dict[int, tuple[int, tuple[tuple[Mono, int], ...]]]:
        return self._by_page.get(r, {})


def leibniz_extend(spec: DifferentialSpec, r: int, m: Mono) -> Optional[dict[Mono, int]]:
    """d_r(m) by the Leibniz rule, or None when m is outside the derivation's
    domain (a specified generator appears to an exponent not divisible by its
    base power, e.g. d_{p^2} is only defined on multiples of t^p).

    Signs: writing m = f_1 ... f_k in catalog order, differentiating f_i
    costs (-1)^{deg(f_1...f_{i-1})}; re-sorting the image factors costs the
    usual Koszul signs, delegated to monomial multiplication.
    """
    ents = spec.by_page(r)
    if not ents:
        return {}
    pres, cat, p = spec.pres, spec.pres.catalog, spec.pres.p
    zeros = (0,) * len(m)
    total: dict[Mono, int] = {}
    for i, (e0, image) in ents.items():
        a = m[i]
        if not a:
            continue
        if a % e0:
            return None
        q = (a // e0) % p
        if not q:
            continue
        front = m[:i] + (a - e0,) + zeros[i + 1:]
        back = zeros[:i + 1] + m[i + 1:]
        sign = -1 if sum(m[j] for j in cat._odd if j < i) % 2 else 1
        for mono_img, c in image:
            s1 = cat.mono_mul(front, mono_img)
            if s1 is None:
                continue
            sg1, fm = s1
            s2 = cat.mono_mul(fm, back)
            if s2 is None:
                continue
            sg2, full = s2
            if pres.killed(full):
                continue
            coeff = (total.get(full, 0) + q * c * sign * sg1 * sg2) % p
            if coeff:
                total[full] = coeff
            else:
                total.pop(full, None)
    return total


class BidegreeData:
    """The monomials of one bidegree, the alive classes over them and the
    boundary span (None while empty).  Pages share these and never write a
    stored one."""

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
    """Page 1: every relation-free window monomial is a class of its own."""
    basis = pres.enumerate_basis(window)
    data: dict[tuple[int, int], list[Mono]] = {}
    cat = pres.catalog
    for m in basis:
        data.setdefault(cat.bidegree(m), []).append(m)
    return SSPage(pres, window, 1,
                  {b: BidegreeData(ms) for b, ms in sorted(data.items())})


def check_square_zero(page: SSPage, spec: DifferentialSpec,
                      r: int) -> dict[Mono, Optional[dict[Mono, int]]]:
    """d_r(d_r(m)) = 0 for every window monomial in the derivation's domain.

    Returns the map it filled, monomial -> d_r(m) (None outside the domain).
    Its keys are every window monomial and every term of their images, and
    each d_r(m) is computed once.
    """
    cat = page.pres.catalog
    dmap: dict[Mono, Optional[dict[Mono, int]]] = {}

    def d(m: Mono) -> Optional[dict[Mono, int]]:
        if m not in dmap:
            dmap[m] = leibniz_extend(spec, r, m)
        return dmap[m]

    for b in sorted(page.data):
        for m in page.data[b].monos:
            first = d(m)
            if first is None:
                continue
            acc: dict[Mono, int] = {}
            for m1, c1 in first.items():
                second = d(m1)
                if second is None:
                    raise VerificationError(
                        f"d_{r} image of {cat.mono_str(m)} leaves the "
                        f"derivation's domain at {cat.mono_str(m1)}")
                for m2, c2 in second.items():
                    v = (acc.get(m2, 0) + c1 * c2) % page.pres.p
                    if v:
                        acc[m2] = v
                    else:
                        acc.pop(m2, None)
            if acc:
                bad = cat.mono_str(m)
                raise VerificationError(f"d_{r} squared is nonzero on {bad}")
    return dmap


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
    """
    r = page.r
    if not spec.by_page(r):
        return SSPage(page.pres, page.window, r + 1, page.data, page.flags)
    dmap = check_square_zero(page, spec, r)
    p, cat = page.pres.p, page.pres.catalog
    shift = spec.rule.shift(r)
    # every read is of the input page, and tb = b + shift is injective
    kernels: dict[tuple[int, int], list[Vec]] = {}
    grown: dict[tuple[int, int], tuple[Span, int]] = {}
    for b in sorted(page.data):
        d = page.data[b]
        tb = (b[0] + shift[0], b[1] + shift[1])
        td = page.data.get(tb)
        if not d.alive or td is None or not td.alive:
            # the differential leaves the window (flagged separately), or
            # the target group is zero, so the induced map is zero
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
            dv: Vec = {}
            for i, c in v.items():
                h = dmap[d.monos[i]]
                if h is None:
                    # Boundary-corrupted survivors (a killer fell outside the
                    # window) can sit outside the derivation's domain; they
                    # carry no certificate, so a zero differential is sound.
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
                    dv[j] = (dv.get(j, 0) + c * c1) % p
            # reducing mod tb's boundaries changes neither the kernel nor the
            # new span; what is left must be a combination of classes
            dv = bounds.reduce({j: x for j, x in dv.items() if x})
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
    for b, d in page.data.items():
        old_dim = len(d.alive)
        ker = kernels[b] if b in kernels else [{j: 1} for j in range(old_dim)]
        span, rank_in = grown.get(b, (d.boundaries, 0))
        rank_out = old_dim - len(ker)
        if not (rank_out or rank_in):
            continue
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


def possible_pages(page: SSPage, rule: BidegreeRule) -> dict[int, int]:
    """r -> number of populated bidegree pairs in d_r position.

    Only rules with weight_per_r > 0 terminate (the weight span bounds r).
    """
    if rule.weight_per_r <= 0:
        raise ValueError("need weight_per_r > 0 to enumerate candidate pages")
    pop = {b for b, d in page.data.items() if d.alive}
    weights = sorted({w for _, w in pop})
    by_r: dict[int, int] = {}
    for d1, w1 in pop:
        for w2 in weights:
            r, rem = divmod(w2 - w1 - rule.weight_const, rule.weight_per_r)
            if rem or r < 1:
                continue
            if (d1 + rule.deg_per_r * r + rule.deg_const, w2) in pop:
                by_r[r] = by_r.get(r, 0) + 1
    return dict(sorted(by_r.items()))


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
        if w.contains(deg, weight):
            return False
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
    for r in spec.pages:
        if r < current.r:
            continue
        current = SSPage(current.pres, current.window, r, current.data, flags)
        before = current.total_dim()
        current = turn_page(current, spec)
        log.append({"page": r, "classes_before": before,
                    "classes_after": current.total_dim()})
    beyond = {r: c for r, c in possible_pages(current, spec.rule).items() if r > last}
    if beyond:
        raise WindowInconclusiveError(
            f"window inconclusive: populated bidegree pairs beyond page {last} "
            f"at pages {sorted(beyond)}")
    log.append({"page": "stable", "classes": current.total_dim()})
    return current, log


@dataclass(frozen=True)
class ChartEntry:
    """A named chart class, optionally a degreewise-periodic family."""

    name: str
    degree: int
    weight: int
    period: Optional[int] = None  # degrees degree + k*period for all k >= 0


@dataclass
class CollapseReport:
    collapses: bool
    rule: BidegreeRule
    r_range: tuple[int, int]
    witnesses: list[tuple[int, str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _degrees_can_match(src: ChartEntry, tgt: ChartEntry, dshift: int) -> bool:
    """Is deg(src) + k_s*P_s + dshift = deg(tgt) + k_t*P_t solvable, k >= 0?"""
    c = src.degree + dshift - tgt.degree
    if src.period is None and tgt.period is None:
        return c == 0
    if src.period is not None and tgt.period is None:
        return c <= 0 and c % src.period == 0
    if src.period is None and tgt.period is not None:
        return c >= 0 and c % tgt.period == 0
    import math
    return c % math.gcd(src.period, tgt.period) == 0


def collapse_check(entries: Sequence[ChartEntry], rule: BidegreeRule,
                   r_min: int = 1, r_max: Optional[int] = None) -> CollapseReport:
    """Bidegree-arithmetic collapse detector.

    For every page r in [r_min, r_max] and every pair of chart entries,
    checks whether a d_r could connect them under the rule; collapse means
    no pair exists.  r_max defaults to the largest r whose weight shift
    still fits inside the chart's weight span (requires weight_per_r > 0).
    """
    notes = []
    if not entries:
        return CollapseReport(True, rule, (r_min, r_min - 1),
                              notes=["empty chart"])
    if r_max is None:
        if rule.weight_per_r <= 0:
            raise ValueError("r_max required when the weight shift does not grow")
        span = (max(e.weight for e in entries) - min(e.weight for e in entries))
        r_max = (span - rule.weight_const) // rule.weight_per_r
        notes.append(f"r_max = {r_max} from weight span {span}")
    witnesses = []
    for r in range(r_min, r_max + 1):
        dshift, wshift = rule.shift(r)
        for src in entries:
            for tgt in entries:
                if tgt.weight - src.weight != wshift:
                    continue
                if _degrees_can_match(src, tgt, dshift):
                    witnesses.append((r, src.name, tgt.name))
    return CollapseReport(not witnesses, rule, (r_min, r_max), witnesses, notes)
