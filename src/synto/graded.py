"""Exact commutative polynomial algebra: the ring of the formal-group series.

Everything on the series side (formal group arithmetic, the right unit and
the p-series) runs over one data structure: sparse polynomials in a fixed
ordered tuple of generators, each generator carrying an integer (degree,
weight) bidegree.  The degree decides the parity: a generator of odd degree
is odd.  Every generator the series use is even, so `Poly` is a commutative
ring and a product refuses a catalog with an odd generator; the graded sign
rule and the odd squares live in the spectral sequence engine
(``spectral``), whose presentations share `Catalog`.  Coefficients are
exact, in one ring per prime p: Z[1/p], where each polynomial holds int
numerators over a single power p^den, or F_p, held as canonical residues.
A coefficient enters as an int, and a p-power denominator only by
`Poly.over_p`.  No operation takes a gcd, and `fractions.Fraction` appears
only where a non-integral coefficient is read out (`Poly.coefficient`) or
in an error message.

A series is a power series in the orientation t, cut at some t^N: its
truncation is the int N, a bound on the catalog's orientation degree (the
total exponent over the degree -2 generators, `Catalog.orient`).

Monomials are exponent tuples aligned with the catalog, so the zero tuple is
1 and negative exponents are legal (used for Laurent generators like t^{-1}
on the periodic page).  There is deliberately no Groebner machinery: the only
ideals the pipeline quotients by are generated by (p, v1, v2), and the only
multiplicative relations are "this monomial is zero" (e.g. t*mu, x^p), so
reduction is a per-monomial filter.

>>> cat, FP3 = canonical_catalog(3), CoeffRing(3)
>>> t, v1 = Poly.gen(cat, FP3, "t"), Poly.gen(cat, FP3, "v1")
>>> ((t + v1) ** 3).terms == {cat.mono({"t": 3}): 1, cat.mono({"v1": 3}): 1}
True
>>> lam = Catalog([GeneratorSymbol("lambda1", 5, 0)])
>>> Poly.gen(lam, FP3, "lambda1") ** 2
Traceback (most recent call last):
    ...
ValueError: cannot multiply over the odd generator lambda1: the series ring is commutative
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional

Mono = tuple[int, ...]


class VerificationError(Exception):
    """An internal exactness or consistency check failed (hard error)."""


class InputError(ValueError):
    """A refused input of `Catalog`, `spectral.Presentation` or
    `spectral.DifferentialSpec`.  ``where`` is ("gen", i), ("rel", j) or
    ("diff", n): the position of the refused generator, relation or entry
    in the sequence the caller gave."""

    def __init__(self, message: str, where: tuple[str, int]) -> None:
        super().__init__(message)
        self.where = where


class GeneratorSymbol:
    """A generator of bidegree (degree, weight).  `invertible` lets exponents
    go negative on a page of `spectral.Presentation`; the series ignores it."""

    __slots__ = ("name", "degree", "weight", "invertible")

    def __init__(self, name: str, degree: int, weight: int,
                 invertible: bool = False) -> None:
        self.name, self.degree, self.weight = name, degree, weight
        self.invertible = invertible


class CoeffRing:
    """Coefficient ring tag, one per prime p.

    ``CoeffRing(p)`` is F_p, held as canonical residues.  ``CoeffRing(0, p)``
    is Z[1/p], the integers with p inverted, where the Hazewinkel series
    live: a `Poly` over it holds plain int numerators over one power p^den,
    so no operation takes a gcd.  A coefficient enters either ring as an
    int (see `Poly.from_terms`).
    """

    # p is the prime: char itself for F_p, the inverted one for Z[1/p]
    __slots__ = ("char", "p")

    def __init__(self, char: int, p: int = 0) -> None:
        if char:
            if p not in (0, char):
                raise ValueError(f"F_{char} has no second prime {p}")
            p = char
        elif p < 2:
            raise ValueError("characteristic 0 needs the prime p that "
                             "Z[1/p] inverts: CoeffRing(0, p)")
        self.char, self.p = char, p

    # every sum and product of two Polys compares their rings
    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not CoeffRing:
            return NotImplemented
        return self.char == other.char and self.p == other.p

    def __str__(self) -> str:
        return f"F_{self.p}" if self.char else f"Z[1/{self.p}]"


class Catalog:
    """Ordered generator list: names, bidegrees, the positions `odd` of
    the generators of odd degree, the one place parity is read off a degree,
    and the positions `orient` of the degree -2 orientation generators, the
    ones a truncation counts (see `orientation_degree`).

    The catalog order is the canonical monomial order everywhere: a monomial
    is its exponent tuple, tuples compare lexicographically, and "smallest
    monomial" always means smallest in this order.
    """

    def __init__(self, symbols: Iterable[GeneratorSymbol]):
        self.symbols: tuple[GeneratorSymbol, ...] = tuple(symbols)
        self.index: dict[str, int] = {}
        for i, s in enumerate(self.symbols):
            if self.index.setdefault(s.name, i) != i:
                raise InputError(f"duplicate generator name {s.name!r}", ("gen", i))
        self.n = len(self.symbols)
        self.odd = tuple(i for i, s in enumerate(self.symbols) if s.degree % 2)
        self.orient = tuple(i for i, s in enumerate(self.symbols)
                            if s.degree == -2)
        self.one: Mono = (0,) * self.n
        self.degrees = tuple(s.degree for s in self.symbols)

    def mono(self, exps: dict[str, int]) -> Mono:
        out = [0] * self.n
        for name, e in exps.items():
            out[self.index[name]] = e
        return tuple(out)

    def unit_mono(self, name: str) -> Mono:
        return self.mono({name: 1})

    def orientation_degree(self, m: Mono) -> int:
        """Total exponent of m over `orient`, the degree a truncation
        bounds; additive under products."""
        return sum([m[i] for i in self.orient])

    def degree(self, m: Mono) -> int:
        return sum(map(operator.mul, m, self.degrees))

    def weight(self, m: Mono) -> int:
        return sum(e * s.weight for e, s in zip(m, self.symbols) if e)

    def bidegree(self, m: Mono) -> tuple[int, int]:
        return self.degree(m), self.weight(m)

    def mono_str(self, m: Mono) -> str:
        if not any(m):
            return "1"
        return "*".join(s.name if e == 1 else f"{s.name}^{e}"
                        for e, s in zip(m, self.symbols) if e)


_SUPS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def superscript(e: int) -> str:
    return str(e).translate(_SUPS)


def canonical_catalog(p: int, depth: int = 2, orientations: tuple[str, ...] = ("t",)) -> Catalog:
    """The fixed generator catalog for the Adams summand pipeline at p.

    Orientation variables (t and any auxiliaries like x, y) sit in degree -2
    and weight 1.  v_i and t_i both sit in degree 2p^i - 2; v_i has weight 0,
    t_i weight 1.  sigma2t1 (degree 2p) and sigma2v2 (degree 2p^2) are the
    weight-0 suspension classes; t*sigma2t1 has the bidegree of t1, which
    is how ``summand`` reads the right unit's t1-terms.  Every generator has
    even degree: λ₁, λ₂ and μ are declared by the engine's presentations
    (``summand.tp_presentation`` and ``summand.tcminus_presentation``), not
    here.
    """
    syms = [GeneratorSymbol(o, -2, 1) for o in orientations]
    for i in range(1, depth + 1):
        syms.append(GeneratorSymbol(f"v{i}", 2 * p**i - 2, 0))
    for i in range(1, depth + 1):
        syms.append(GeneratorSymbol(f"t{i}", 2 * p**i - 2, 1))
    syms.append(GeneratorSymbol("sigma2t1", 2 * p, 0))
    syms.append(GeneratorSymbol("sigma2v2", 2 * p**2, 0))
    return Catalog(syms)


def _tighter(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The truncation of a sum or product: the smaller bound, where None
    is no bound."""
    if a is None:
        return b
    return a if b is None else min(a, b)


def _common_ring(a: "Poly", b: "Poly") -> CoeffRing:
    """The ring of a sum or product, which both operands must share."""
    if a.ring != b.ring:
        raise ValueError(f"cannot combine polynomials over {a.ring} and "
                         f"{b.ring}")
    return a.ring


def _p_power_log(q: int, p: int) -> int:
    """The k with q = p^k, for q a power of p: q is divided by p^(2^i)
    for each i from the largest that fits down, which reads off k's binary
    digits, so a large k costs about log2(k) big-int divisions, not k."""
    squares = [p]
    while squares[-1] <= q // squares[-1]:
        squares.append(squares[-1] * squares[-1])
    k = 0
    for i in reversed(range(len(squares))):
        if q >= squares[i]:
            q //= squares[i]
            k += 1 << i
    return k


class Poly:
    """Sparse bigraded polynomial: the coefficient on monomial m is
    terms[m] / p^den.

    Over F_p den is 0 and terms hold residues.  Over Z[1/p] terms hold int
    numerators over the one power p^den: a product adds the two dens and a
    sum aligns them with a power of p, so the arithmetic is plain int
    arithmetic.  `normalized` strips the common power of p; a normalized
    poly has den 0 exactly when every coefficient is an integer, and then
    terms holds the coefficients themselves.

    `trunc` is None or an int N: a term whose orientation degree reaches N
    is dropped, so the poly is exact modulo t^N.
    """

    __slots__ = ("catalog", "ring", "terms", "trunc", "den")

    def __init__(self, catalog: Catalog, ring: CoeffRing,
                 terms: dict[Mono, int], trunc: Optional[int] = None,
                 den: int = 0):
        self.catalog = catalog
        self.ring = ring
        self.trunc = trunc
        self.terms = terms  # nonzero numerators; use from_terms otherwise
        self.den = den

    @classmethod
    def from_terms(cls, catalog: Catalog, ring: CoeffRing,
                   pairs: Iterable[tuple[Mono, int]],
                   trunc: Optional[int] = None) -> "Poly":
        """The sum of the (monomial, int coefficient) pairs whose orientation
        degree is below trunc, with den 0: reduced mod p over F_p, the ints
        themselves over Z[1/p].  A p-power denominator comes from
        `over_p`."""
        deg, mod = catalog.orientation_degree, ring.char
        acc: dict[Mono, int] = {}
        for m, c in pairs:
            if trunc is not None and deg(m) >= trunc:
                continue
            c += acc.get(m, 0)
            if mod:
                c %= mod
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
        return cls(catalog, ring, acc, trunc)

    @classmethod
    def zero(cls, catalog: Catalog, ring: CoeffRing,
             trunc: Optional[int] = None) -> "Poly":
        return cls(catalog, ring, {}, trunc)

    @classmethod
    def unit(cls, catalog: Catalog, ring: CoeffRing,
             trunc: Optional[int] = None) -> "Poly":
        return cls.from_terms(catalog, ring, [(catalog.one, 1)], trunc)

    @classmethod
    def gen(cls, catalog: Catalog, ring: CoeffRing, name: str,
            trunc: Optional[int] = None) -> "Poly":
        return cls.from_terms(catalog, ring, [(catalog.unit_mono(name), 1)], trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        """Equal values over the same ring, whatever the two dens."""
        if not isinstance(other, Poly) or self.ring != other.ring:
            return False
        den = max(self.den, other.den)
        return (dict(self._kept(self.trunc, den))
                == dict(other._kept(other.trunc, den)))

    def _wrap(self, terms: dict[Mono, int]) -> "Poly":
        return Poly(self.catalog, self.ring, terms, self.trunc, self.den)

    def _kept(self, trunc: Optional[int], den: int):
        """The (monomial, numerator over p^den) pairs of self that trunc
        keeps; den is at least self.den."""
        items = self.terms.items()
        if trunc != self.trunc:
            deg = self.catalog.orientation_degree
            items = [(m, c) for m, c in items if deg(m) < trunc]
        if den != self.den:
            f = self.ring.p ** (den - self.den)
            items = [(m, c * f) for m, c in items]
        return items

    def normalized(self) -> "Poly":
        """The same value over the least den: the largest power of p that
        divides every numerator, up to p^den, is stripped."""
        if not self.den:
            return self
        p = self.ring.p
        q = math.gcd(p ** self.den, *self.terms.values())
        if q == 1:
            return self
        return Poly(self.catalog, self.ring,
                    {m: c // q for m, c in self.terms.items()}, self.trunc,
                    self.den - _p_power_log(q, p))

    def __add__(self, other: "Poly") -> "Poly":
        """Sum under the tighter of the two truncations (see `_tighter`),
        keeping only the terms it keeps, so that a + b == b + a."""
        ring = _common_ring(self, other)
        trunc, den = _tighter(self.trunc, other.trunc), max(self.den, other.den)
        mod = ring.char
        acc = dict(self._kept(trunc, den))
        for m, c in other._kept(trunc, den):
            if m in acc:
                c += acc[m]
                if mod:
                    c %= mod
                if not c:
                    del acc[m]
                    continue
            acc[m] = c
        return Poly(self.catalog, ring, acc, trunc, den)

    def __neg__(self) -> "Poly":
        mod = self.ring.char
        return self._wrap({m: -c % mod if mod else -c
                           for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def over_p(self, k: int = 1) -> "Poly":
        """self / p^k over Z[1/p]: den grows by k, and no numerator moves."""
        if self.ring.char:
            raise ValueError(f"p = {self.ring.p} is not invertible in "
                             f"F_{self.ring.p}")
        return Poly(self.catalog, self.ring, self.terms, self.trunc,
                    self.den + k)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product under the tighter of the two truncations (see `_tighter`),
        so that the order of the factors cannot change which terms are kept.
        The exponents add, the numerators multiply and the dens add.  A
        catalog with an odd generator is refused (ValueError): the series
        ring is commutative.

        The orientation degree of a product is the sum of its factors', so
        other's terms are sorted by it once, and for each term of self the
        inner loop stops at the first term of other whose product would
        reach the bound: a pair the truncation drops is never formed.
        Without a truncation every degree counts as 0 against a room of 1,
        so the loop never breaks.
        """
        cat, ring = self.catalog, _common_ring(self, other)
        if cat.odd:
            raise ValueError(f"cannot multiply over the odd generator "
                             f"{cat.symbols[cat.odd[0]].name}: the series "
                             f"ring is commutative")
        mod, trunc = ring.char, _tighter(self.trunc, other.trunc)
        deg = cat.orientation_degree
        if trunc is None:
            right = [(0, m, c) for m, c in other.terms.items()]
        else:
            right = sorted(((deg(m), m, c) for m, c in other.terms.items()),
                           key=operator.itemgetter(0))
        add = operator.add
        acc: dict[Mono, int] = {}
        for ma, ca in self.terms.items():
            room = 1 if trunc is None else trunc - deg(ma)
            for db, mb, cb in right:
                if db >= room:
                    break
                m = tuple(map(add, ma, mb))
                c = acc.get(m, 0) + ca * cb
                if mod:
                    c %= mod
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
        return Poly(cat, ring, acc, trunc, self.den + other.den)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.unit(self.catalog, self.ring, self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def with_trunc(self, trunc: Optional[int]) -> "Poly":
        deg = self.catalog.orientation_degree
        terms = (dict(self.terms) if trunc is None else
                 {m: c for m, c in self.terms.items() if deg(m) < trunc})
        return Poly(self.catalog, self.ring, terms, trunc, self.den)

    def coefficient(self, m: Mono):
        """The coefficient on m: an int, or a Fraction if it is not one."""
        c, q = self.terms.get(m, 0), self.ring.p ** self.den
        return c // q if c % q == 0 else Fraction(c, q)

    def _non_integral(self) -> Optional[tuple[Mono, Fraction]]:
        """The first term whose coefficient has p in its denominator, if
        any; over F_p there is none."""
        poly = self.normalized()
        if not poly.den:
            return None
        q = poly.ring.p ** poly.den
        for m, c in poly.terms.items():
            if c % q:
                return m, Fraction(c, q)

    def reduce_mod_p(self, p: int) -> "Poly":
        """Change coefficients to F_p.  Every denominator must be prime to
        p, so over Z[1/p] the normalized den must be 0."""
        poly = self.normalized()
        if p == poly.ring.p and (bad := poly._non_integral()):
            raise VerificationError(
                f"coefficient {bad[1]} is not p-integral at p={p}")
        inv = pow(poly.ring.p, -poly.den, p)
        return Poly.from_terms(self.catalog, CoeffRing(p),
                               ((m, c * inv) for m, c in poly.terms.items()),
                               self.trunc)

    def kill_generators(self, names: Iterable[str]) -> "Poly":
        """Quotient by the monomial ideal (names): drop any monomial with a
        positive exponent on one of them."""
        idxs = [self.catalog.index[n] for n in names]
        return self._wrap({m: c for m, c in self.terms.items()
                           if not any(m[i] > 0 for i in idxs)})

    def assert_p_integral(self, p: int) -> None:
        """Over Z[1/p], this holds exactly when the normalized den is 0."""
        if p == self.ring.p and (bad := self._non_integral()):
            raise VerificationError(
                f"non p-integral coefficient {bad[1]} on "
                f"{self.catalog.mono_str(bad[0])} at p={p}")
