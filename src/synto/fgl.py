"""p-typical formal group law arithmetic over Hazewinkel generators.

The logarithm is built from the Hazewinkel recursion

    l_0 = 1,    p * l_n = sum_{0 <= i < n} l_i * v_{n-i}^{p^i},

so l_1 = v1/p, l_2 = v2/p + v1^{p+1}/p^2, and so on.  The exponential is the
compositional inverse of log, solved degree by degree (the system is
triangular because log is monic).  The formal sum and the right unit are
compositions with it:

    F(x, y)  = exp(log x + log y)          the formal sum,
    eta_R(t) = exp(log t + log(t1 t^p) + log(t2 t^{p^2}) + ...)
                                           the right unit on the orientation.

The p-series t +_G ... +_G t needs no composition:

    [p](t)   = exp(p * log t) = sum_k p^k * e_k * (log t)^k,

and the solve for the e_k already forms each product e_k * (log t)^k, so
[p](t) is the sum of those products, each times p^k.

Intermediate coefficients lie in Z[1/p] (``CoeffRing(0, p)``): a series
holds int numerators over one power p^den, a product adds dens, and the
division by p in the recursion only shifts den.  Left alone, den grows with
every product while the true denominators stay bounded by the truncation,
so the powers of log and the products of the exp solve and each Horner
step of ``compose`` are normalized (the common power of p is stripped).  A
finished series therefore comes back normalized; it must be p-integral,
that is den 0, and this is asserted, never rounded.

A quotient is taken in two steps.  The generators it names are killed
before the arithmetic: setting v_n = 0 is a ring map, so it commutes with
log, exp and composition, and the Hazewinkel recursion simply leaves v_n
out.  The series is then built over Z[1/p][the other v_n], p-integrality is
asserted on it, and the reduction mod p, the one step that needs it, comes
last.  So mod (p, v1) the arithmetic never carries a v1 term.

Every series is homogeneous: with |t| = -2 and |v_n| = |t_n| = 2(p^n - 1)
(``Catalog.degree``), each term of log t, [p](t) and eta_R(t) has total
degree -2.  Every v_n has degree divisible by 2(p - 1), and e_k, the k-th
exp coefficient, has degree 2(k - 1); so e_k = 0 unless k = 1 (mod p - 1).
The exp solve (``_exp_terms``) forms only those k, ``compose`` steps over
that support, and ``_mod_p_last`` asserts the degree on every finished
series as a hard error.

Every series is truncated at an int bound on its catalog's orientation
degree (``Catalog.orientation_degree``), the total exponent over the
degree -2 generators, and the arithmetic does only the work the truncation
keeps.  A product never forms a pair of terms whose degrees sum to the
bound or more (``Poly.__mul__``).  ``compose``, which only the formal sum
(and so the right unit) uses, also cuts its Horner accumulator.  There the
coefficients e_k are supported on k = a + jg, and Horner runs over
w = inner^g before one last product with inner^a.  The inner series has no
constant term, so each of the k factors of inner still ahead of the
accumulator at e_k (j of them in w^j, a in inner^a) raises its degree by at
least inner's least degree `low`: a term at or above bound - k*low can only
feed terms the final truncation drops, and the accumulator is cut there.
Both skip only terms the truncation would discard, so every series is
exact.

>>> from synto.cli import format_series
>>> print(format_series(p_series(2, 3), 3))
2t - v1·t^2 + O(t^3)
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from synto.graded import (
    Catalog,
    CoeffRing,
    Poly,
    VerificationError,
    canonical_catalog,
)


def required_depth(p: int, trunc: int) -> int:
    """Largest n with p^n < trunc (at least 1): how many l_n/v_n/t_n matter."""
    n = 1
    while p ** (n + 1) < trunc:
        n += 1
    return n


def pipeline_catalog(p: int, trunc: int) -> Catalog:
    return canonical_catalog(p, depth=max(2, required_depth(p, trunc)))


def log_coefficients(p: int, depth: int, cat: Catalog,
                     ideal: Iterable[str] = ()) -> list[Poly]:
    """l_0 .. l_depth as exact polynomials in v1..v_depth over Z[1/p], with
    every v_n that the ideal names set to zero.  Dividing by p shifts den."""
    ideal, ring = frozenset(ideal), CoeffRing(0, p)
    ls = [Poly.unit(cat, ring)]
    for n in range(1, depth + 1):
        s = Poly.zero(cat, ring)
        for i in range(n):
            if f"v{n - i}" not in ideal:
                s = s + ls[i] * (Poly.gen(cat, ring, f"v{n - i}") ** (p ** i))
        ls.append(s.over_p())
    return ls


def log_of(summand: Poly, p: int, ls: Sequence[Poly], trunc: int) -> Poly:
    """log(s) = sum_n l_n * s^{p^n}, for s with zero constant term."""
    out = Poly.zero(summand.catalog, summand.ring, trunc)
    for n, ln in enumerate(ls):
        if ln.is_zero():
            continue
        power = (summand ** (p ** n)) if n else summand
        if power.is_zero():
            break
        out = out + ln * power
    return out


def _exp_terms(p: int, L: Poly):
    """Yield (k, e_k, e_k * L^k) for each k >= p with e_k nonzero, in
    order, where e_k are the coefficients of exp(u) = sum e_k u^k, inverse
    to L = log t, as ``log_t`` builds it, through L's truncation; e_1 = 1.

    Solved by forcing exp(log t) = t one t-degree at a time; e_k is minus
    the degree-k defect of the partial composition, which the product
    e_k * L^k then cancels.  By homogeneity (see the module docstring)
    only k = 1 + j(p - 1) can carry one, so only those k are solved: L^k
    steps by one product with L^{p-1}.  Exactness of the arithmetic makes
    this the whole verification story: the round-trip identities are
    separate tests, not part of the solve.

    L^k, each product and the partial composition are normalized at every
    step: each product adds dens, so den(L^k) would grow as k times
    den(L), while the true denominators stay bounded by the truncation.
    """
    cat, ring, trunc = L.catalog, L.ring, L.trunc
    t_idx = cat.index["t"]
    comp = L
    lpow = L
    stride = (L ** (p - 1)).normalized()
    for k in range(p, trunc, p - 1):
        lpow = (lpow * stride).normalized()
        defect = {m[:t_idx] + (0,) + m[t_idx + 1:]: -c
                  for m, c in comp.terms.items() if m[t_idx] == k}
        ek = Poly(cat, ring, defect, None, comp.den).normalized()
        if ek.terms:
            term = (ek * lpow).normalized()
            yield k, ek, term
            comp = (comp + term).normalized()


def exp_coefficients(p: int, L: Poly) -> list[Poly]:
    """Coefficients e_k of exp(u) = sum e_k u^k, inverse to L = log t, as
    ``log_t`` builds it, through L's truncation: e_1 = 1, the e_k that
    ``_exp_terms`` solves, and zero at every other k."""
    cat, ring = L.catalog, L.ring
    zero = Poly.zero(cat, ring)
    es = [zero, Poly.unit(cat, ring)] + [zero] * (L.trunc - 2)
    for k, ek, _term in _exp_terms(p, L):
        es[k] = ek
    return es


def compose(coeffs: Sequence[Poly], inner: Poly) -> Poly:
    """sum_k coeffs[k] * inner^k by Horner over the support of coeffs,
    under inner's truncation.

    With a the least k of a nonzero coefficient and g the gcd of the
    differences of such k, the sum is inner^a * sum_j coeffs[a+jg] * w^j
    with w = inner^g; with g = 1 this is Horner over inner itself.  The
    step for coeffs[k] cuts its accumulator at bound - k*low, by the window
    rule of the module docstring; an inner with a constant or Laurent term
    has low = 0 and tightens nothing.

    inner and every step are normalized, since every multiplication adds
    the factor's den; so the result comes back normalized.
    """
    inner = inner.normalized()
    cat, ring, trunc = inner.catalog, inner.ring, inner.trunc
    support = [k for k, c in enumerate(coeffs) if c.terms]
    if not support:
        return Poly.zero(cat, ring, trunc)
    a = support[0]
    g = math.gcd(*(k - a for k in support)) or 1
    low = 0 if trunc is None else max(
        0, min(map(cat.orientation_degree, inner.terms), default=0))
    w = (inner ** g).normalized()
    acc = Poly.zero(cat, ring, trunc)
    for k in range(support[-1], a - 1, -g):
        step = None if trunc is None else trunc - k * low
        acc = (Poly(cat, ring, acc.terms, step, acc.den) * w
               + coeffs[k].with_trunc(step)).normalized()
    return (Poly(cat, ring, acc.terms, trunc, acc.den)
            * (inner ** a).normalized()).normalized()


def _generators(ideal: Sequence[str]) -> list[str]:
    """The generator names of an ideal, that is, all but the prime "p"."""
    return [g for g in ideal if g != "p"]


def _mod_p_last(series: Poly, p: int, ideal: Iterable[str]) -> Poly:
    """The last step of every exported series, whose named generators are
    already killed: assert it homogeneous of degree -2 and p-integral, then
    reduce mod p if the ideal names p."""
    cat = series.catalog
    for m in series.terms:
        if (d := cat.degree(m)) != -2:
            raise VerificationError(
                f"series term {cat.mono_str(m)} has degree {d}, not -2")
    series.assert_p_integral(p)
    return series.reduce_mod_p(p) if "p" in ideal else series


def reduce_ideal(poly: Poly, p: int, ideal: Iterable[str]) -> Poly:
    """Quotient of a finished series by the monomial ideal: generator names
    and/or the prime "p".  This is the late quotient, the reference that
    the early one of ``formal_sum_of`` is checked against."""
    ideal = tuple(ideal)
    out = poly.kill_generators(_generators(ideal))
    return out.reduce_mod_p(p) if "p" in ideal else out


def log_t(p: int, trunc: int, cat: Catalog,
          ideal: Iterable[str] = ()) -> tuple[list[Poly], Poly]:
    """The log coefficients with every generator that the ideal names
    killed, and log t through t^{trunc-1} by them: what ``exp_coefficients``
    inverts."""
    ls = log_coefficients(p, required_depth(p, trunc), cat, ideal)
    return ls, log_of(Poly.gen(cat, CoeffRing(0, p), "t", trunc), p, ls, trunc)


def formal_sum_of(p: int, trunc: int, summands: Sequence[Poly],
                  cat: Catalog, ideal: Iterable[str] = ()) -> Poly:
    """exp(sum log(s_i)): the iterated formal sum s_1 +_G s_2 +_G ..., with
    every generator that the ideal names killed before the arithmetic.  The
    prime is not reduced here (see ``_mod_p_last``)."""
    ideal = tuple(ideal)
    ls, L = log_t(p, trunc, cat, ideal)
    names = _generators(ideal)
    total = Poly.zero(cat, L.ring, trunc)
    for s in summands:
        total = total + log_of(s.kill_generators(names).with_trunc(trunc),
                               p, ls, trunc)
    return compose(exp_coefficients(p, L), total)


def p_series(p: int, trunc: int, ideal: Iterable[str] = ()) -> Poly:
    """[p](t) = t +_G ... +_G t (p summands), reduced mod ideal, exact
    through t^{trunc-1}.  Built as exp(p * log t) = p * log t +
    sum_{k >= p} p^k * (e_k * (log t)^k), from one log t, by summing the
    products that ``_exp_terms`` forms while it solves for the e_k: no
    composition."""
    ideal = tuple(ideal)
    if "p" in ideal and "v1" in ideal and trunc < p ** 2 + 1:
        raise ValueError(
            f"window too small: need trunc >= {p ** 2 + 1} to exhibit the "
            f"v2*t^{p ** 2} leading term mod (p, v1)")
    if "p" in ideal and trunc < p + 1:
        raise ValueError(
            f"window too small: need trunc >= {p + 1} to exhibit the "
            f"v1*t^{p} leading term mod (p)")
    cat = pipeline_catalog(p, trunc)
    _ls, L = log_t(p, trunc, cat, ideal)
    series = Poly.from_terms(cat, L.ring, [(cat.one, p)]) * L
    for k, _ek, term in _exp_terms(p, L):
        # p^k * term: den drops by k, and the numerators take what it cannot
        shift = min(k, term.den)
        q = p ** (k - shift)
        series = series + Poly(cat, L.ring,
                               {m: c * q for m, c in term.terms.items()},
                               term.trunc, term.den - shift)
    return _mod_p_last(series.normalized(), p, ideal)


def right_unit_t(p: int, trunc: int, ideal: Iterable[str] = ()) -> Poly:
    """eta_R(t) = t +_G t1 t^p +_G t2 t^{p^2} +_G ..., reduced mod ideal.

    The orientation is normalized so that the expansion starts t + t1 t^p
    with coefficient +1 (the conjugate convention differs by units on the
    t_i; downstream only this normalization is used, and derive_differentials
    hard-errors if it ever fails to hold).
    """
    cat = pipeline_catalog(p, trunc)
    ring = CoeffRing(0, p)
    summands = [Poly.gen(cat, ring, "t", trunc)]
    i = 1
    while p ** i < trunc:
        s = Poly.from_terms(
            cat, ring, [(cat.mono({f"t{i}": 1, "t": p ** i}), 1)], trunc)
        summands.append(s)
        i += 1
    ideal = tuple(ideal)
    eta = formal_sum_of(p, trunc, summands, cat, ideal)
    if trunc > 1 and eta.coefficient(cat.unit_mono("t")) != 1:
        raise VerificationError("right unit lost its linear normalization")
    return _mod_p_last(eta, p, ideal)


def coefficientwise_frobenius(poly: Poly, p: int, e: int = 1) -> Poly:
    """x -> x^{p^e} termwise, valid over F_p: exponents scale, coefficients
    fix, and so does the truncation, by p^e."""
    if poly.ring.char != p:
        raise ValueError("coefficientwise Frobenius needs F_p coefficients")
    q = p ** e
    return Poly.from_terms(
        poly.catalog, poly.ring,
        ((tuple(x * q for x in m), c) for m, c in poly.terms.items()),
        None if poly.trunc is None else poly.trunc * q)
