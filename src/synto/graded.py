"""Exact bigraded-commutative polynomial algebra.

Everything downstream (formal group arithmetic, Bockstein spectral sequence
pages, the syntomic generator table) runs over one data structure: sparse
polynomials in a fixed ordered tuple of generators, each generator carrying
an integer (degree, weight) bidegree and a parity.  Products follow the
Koszul convention: transposing two odd factors costs a sign, and odd
generators square to zero.  Coefficients are exact -- `fractions.Fraction`
in characteristic zero, canonical residues in F_p otherwise.

Monomials are exponent tuples aligned with the catalog, so the zero tuple is
1 and negative exponents are legal (used for Laurent generators like t^{-1}
on the periodic page).  There is deliberately no Groebner machinery: the only
ideals the pipeline quotients by are generated by (p, v1, v2), and the only
multiplicative relations are "this monomial is zero" (e.g. t*mu), so
reduction is a per-monomial filter.

>>> cat = Catalog([GeneratorSymbol("t", -2, 1, "even"),
...                GeneratorSymbol("lambda1", 5, 0, "odd"),
...                GeneratorSymbol("lambda2", 17, 0, "odd")])
>>> lam1, lam2 = cat.unit_mono("lambda1"), cat.unit_mono("lambda2")
>>> P = Poly.from_terms(cat, FP3 := CoeffRing(3), [(lam2, 1)])
>>> Q = Poly.from_terms(cat, FP3, [(lam1, 1)])
>>> (P * Q).terms
{(0, 1, 1): 2}
>>> (P * P).is_zero()
True
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

Mono = tuple[int, ...]


class VerificationError(Exception):
    """An internal exactness or consistency check failed (hard error)."""


@dataclass(frozen=True)
class GeneratorSymbol:
    name: str
    degree: int
    weight: int
    parity: str  # "even" | "odd"

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"bad parity {self.parity!r} for generator {self.name}")


@dataclass(frozen=True)
class CoeffRing:
    """Coefficient ring tag: char 0 means Fraction arithmetic, else F_p."""

    char: int = 0

    def normalize(self, c):
        if self.char:
            return c % self.char
        return c if isinstance(c, Fraction) else Fraction(c)

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a


QQ = CoeffRing(0)


class Catalog:
    """Ordered generator list; owns monomial arithmetic and Koszul signs.

    The catalog order is the canonical monomial order everywhere: a monomial
    is its exponent tuple, tuples compare lexicographically, and "smallest
    monomial" always means smallest in this order.
    """

    def __init__(self, symbols: Iterable[GeneratorSymbol]):
        self.symbols: tuple[GeneratorSymbol, ...] = tuple(symbols)
        self.index: dict[str, int] = {s.name: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise ValueError("duplicate generator name in catalog")
        self.n = len(self.symbols)
        self._odd = tuple(i for i, s in enumerate(self.symbols) if s.parity == "odd")
        self.one: Mono = (0,) * self.n

    def __len__(self) -> int:
        return self.n

    def mono(self, exps: dict[str, int]) -> Mono:
        out = [0] * self.n
        for name, e in exps.items():
            out[self.index[name]] = e
        return tuple(out)

    def unit_mono(self, name: str) -> Mono:
        return self.mono({name: 1})

    def degree(self, m: Mono) -> int:
        return sum(e * s.degree for e, s in zip(m, self.symbols) if e)

    def weight(self, m: Mono) -> int:
        return sum(e * s.weight for e, s in zip(m, self.symbols) if e)

    def bidegree(self, m: Mono) -> tuple[int, int]:
        return self.degree(m), self.weight(m)

    def mono_mul(self, a: Mono, b: Mono) -> Optional[tuple[int, Mono]]:
        """(sign, a*b), or None when an odd generator would square.

        The sign counts the transpositions needed to interleave the odd part
        of b into the odd part of a, i.e. pairs (i in a, j in b) of odd
        generator positions with i > j.
        """
        sign = 1
        for i in self._odd:
            if a[i] and b[i]:
                return None
            if b[i]:
                # moving b's odd factor at i past every odd factor of a
                # sitting at a later catalog position
                swaps = sum(1 for j in self._odd if j > i and a[j])
                if swaps & 1:
                    sign = -sign
        return sign, tuple(map(operator.add, a, b))

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
    is how ``summand`` reads the right unit's t1-terms.  Every generator is
    even: λ₁, λ₂ and μ are declared by the engine's presentations
    (``summand.tp_presentation`` and ``summand.tcminus_presentation``), not
    here.
    """
    syms = [GeneratorSymbol(o, -2, 1, "even") for o in orientations]
    for i in range(1, depth + 1):
        syms.append(GeneratorSymbol(f"v{i}", 2 * p**i - 2, 0, "even"))
    for i in range(1, depth + 1):
        syms.append(GeneratorSymbol(f"t{i}", 2 * p**i - 2, 1, "even"))
    syms.append(GeneratorSymbol("sigma2t1", 2 * p, 0, "even"))
    syms.append(GeneratorSymbol("sigma2v2", 2 * p**2, 0, "even"))
    cat = Catalog(syms)
    for s in cat.symbols:
        if (s.degree % 2 == 0) != (s.parity == "even"):
            raise VerificationError(f"parity/degree mismatch for {s.name}")
    return cat


@dataclass(frozen=True)
class Truncation:
    """Drop monomials whose total exponent over `vars` reaches `bound`.

    Keeping exponents < bound matches the usual O(t^N) convention: a series
    truncated at bound N is exact modulo t^N.
    """

    vars: frozenset[int]
    bound: int

    def degree(self, m: Mono) -> int:
        """Total exponent of m over `vars`; additive under products."""
        return sum(m[i] for i in self.vars)

    def keeps(self, m: Mono) -> bool:
        return self.degree(m) < self.bound


def _tighter(a: Optional[Truncation],
             b: Optional[Truncation]) -> Optional[Truncation]:
    """The truncation of a sum or product: the one that keeps less.
    Truncations over different variables keep incomparable sets, so they
    cannot be met."""
    if a is None or a == b:
        return b
    if b is None:
        return a
    if a.vars != b.vars:
        raise ValueError("cannot combine polynomials truncated over "
                         "different variables")
    return a if a.bound <= b.bound else b


class Poly:
    """Sparse bigraded polynomial: dict from exponent tuple to coefficient."""

    __slots__ = ("catalog", "ring", "terms", "trunc")

    def __init__(self, catalog: Catalog, ring: CoeffRing,
                 terms: dict[Mono, object], trunc: Optional[Truncation] = None):
        self.catalog = catalog
        self.ring = ring
        self.trunc = trunc
        self.terms = terms  # assumed normalized; use from_terms otherwise

    @classmethod
    def from_terms(cls, catalog: Catalog, ring: CoeffRing,
                   pairs: Iterable[tuple[Mono, object]],
                   trunc: Optional[Truncation] = None) -> "Poly":
        acc: dict[Mono, object] = {}
        for m, c in pairs:
            if trunc is not None and not trunc.keeps(m):
                continue
            c = ring.normalize(c)
            if m in acc:
                c = ring.add(acc[m], c)
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
        return cls(catalog, ring, acc, trunc)

    @classmethod
    def zero(cls, catalog: Catalog, ring: CoeffRing,
             trunc: Optional[Truncation] = None) -> "Poly":
        return cls(catalog, ring, {}, trunc)

    @classmethod
    def unit(cls, catalog: Catalog, ring: CoeffRing,
             trunc: Optional[Truncation] = None) -> "Poly":
        return cls.from_terms(catalog, ring, [(catalog.one, 1)], trunc)

    @classmethod
    def gen(cls, catalog: Catalog, ring: CoeffRing, name: str,
            trunc: Optional[Truncation] = None) -> "Poly":
        return cls.from_terms(catalog, ring, [(catalog.unit_mono(name), 1)], trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.terms == other.terms
                and self.ring == other.ring)

    def _wrap(self, terms: dict[Mono, object]) -> "Poly":
        return Poly(self.catalog, self.ring, terms, self.trunc)

    def _kept(self, trunc: Optional[Truncation]):
        """The (monomial, coefficient) pairs of self that trunc keeps."""
        if trunc == self.trunc:
            return self.terms.items()
        return [(m, c) for m, c in self.terms.items() if trunc.keeps(m)]

    def __add__(self, other: "Poly") -> "Poly":
        """Sum under the tighter of the two truncations (see `_tighter`),
        keeping only the terms it keeps, so that a + b == b + a."""
        ring, trunc = self.ring, _tighter(self.trunc, other.trunc)
        acc = dict(self._kept(trunc))
        for m, c in other._kept(trunc):
            s = ring.add(acc.get(m, ring.normalize(0)), c) if m in acc else c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return Poly(self.catalog, ring, acc, trunc)

    def __neg__(self) -> "Poly":
        ring = self.ring
        return self._wrap({m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        ring = self.ring
        c = ring.normalize(c)
        if not c:
            return self._wrap({})
        out = {}
        for m, a in self.terms.items():
            v = ring.mul(a, c)
            if v:
                out[m] = v
        return self._wrap(out)

    def __mul__(self, other: "Poly") -> "Poly":
        """Koszul-signed product under the tighter of the two truncations
        (see `_tighter`), so that the order of the factors cannot change
        which terms are kept.

        The truncation degree of a product is the sum of its factors', so
        other's terms are sorted by it once, and for each term of self the
        inner loop stops at the first term of other whose product would
        reach the bound: a pair the truncation drops is never formed.
        Without a truncation every degree counts as 0 against a room of 1,
        so the loop never breaks.
        """
        cat, ring = self.catalog, self.ring
        trunc = _tighter(self.trunc, other.trunc)
        if trunc is None:
            right = [(0, m, c) for m, c in other.terms.items()]
        else:
            right = sorted(((trunc.degree(m), m, c)
                            for m, c in other.terms.items()),
                           key=operator.itemgetter(0))
        acc: dict[Mono, object] = {}
        for ma, ca in self.terms.items():
            room = 1 if trunc is None else trunc.bound - trunc.degree(ma)
            for db, mb, cb in right:
                if db >= room:
                    break
                sm = cat.mono_mul(ma, mb)
                if sm is None:
                    continue
                sign, m = sm
                c = ring.mul(ca, cb)
                if sign < 0:
                    c = ring.neg(c)
                if m in acc:
                    c = ring.add(acc[m], c)
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
        return Poly(cat, ring, acc, trunc)

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

    def with_trunc(self, trunc: Optional[Truncation]) -> "Poly":
        if trunc is None:
            return Poly(self.catalog, self.ring, dict(self.terms), None)
        return Poly.from_terms(self.catalog, self.ring, self.terms.items(), trunc)

    def coefficient(self, m: Mono):
        return self.terms.get(m, self.ring.normalize(0))

    def reduce_mod_p(self, p: int) -> "Poly":
        """Change coefficients to F_p.  Every denominator must be prime to p."""
        def red(c):
            if isinstance(c, Fraction):
                if c.denominator % p == 0:
                    raise VerificationError(
                        f"coefficient {c} is not p-integral at p={p}")
                return c.numerator * pow(c.denominator, -1, p)
            return c
        return Poly.from_terms(self.catalog, CoeffRing(p),
                               ((m, red(c)) for m, c in self.terms.items()),
                               self.trunc)

    def kill_generators(self, names: Iterable[str]) -> "Poly":
        """Quotient by the monomial ideal (names): drop any monomial with a
        positive exponent on one of them."""
        idxs = [self.catalog.index[n] for n in names]
        return self._wrap({m: c for m, c in self.terms.items()
                           if not any(m[i] > 0 for i in idxs)})

    def assert_p_integral(self, p: int) -> None:
        for m, c in self.terms.items():
            if isinstance(c, Fraction) and c.denominator % p == 0:
                raise VerificationError(
                    f"non p-integral coefficient {c} on "
                    f"{self.catalog.mono_str(m)} at p={p}")

