"""p-typical formal group law arithmetic over Hazewinkel generators.

The logarithm is built from the Hazewinkel recursion

    l_0 = 1,    p * l_n = sum_{0 <= i < n} l_i * v_{n-i}^{p^i},

so l_1 = v1/p, l_2 = v2/p + v1^{p+1}/p^2, and so on.  The exponential is the
compositional inverse of log, solved degree by degree (the system is
triangular because log is monic).  Everything else is composition:

    F(x, y)  = exp(log x + log y)          the formal sum,
    [p](t)   = exp(p * log t)              the p-series t +_G ... +_G t,
    eta_R(t) = exp(log t + log(t1 t^p) + log(t2 t^{p^2}) + ...)
                                           the right unit on the orientation.

Intermediate coefficients are rational with p-power denominators; exported
series must be p-integral and this is asserted, never rounded.  Reducing mod
(p, v1) then lands in honest F_p arithmetic.

Every series is truncated in the orientation variables, and the arithmetic
does only the work the truncation keeps.  A product never forms a pair of
terms whose degrees sum to the bound or more (``Poly.__mul__``).  In
``compose`` the inner series has no constant term, so each of the k
multiplications still ahead of Horner's accumulator at e_k raises its
degree by at least inner's least degree `low`: a term at or above
bound - k*low can only feed terms the final truncation drops, and the
accumulator is cut there.  Both skip only terms the truncation would
discard, so every series is exact.

>>> from synto.cli import format_series
>>> print(format_series(p_series(2, 3), 3))
2t - v1·t^2 + O(t^3)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from synto.graded import (
    QQ,
    Catalog,
    Poly,
    Truncation,
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


def orientation_truncation(cat: Catalog, trunc: int) -> Truncation:
    """Truncation over the catalog's orientation generators, the symbols of
    degree -2 (see ``canonical_catalog``)."""
    return Truncation(frozenset(i for i, s in enumerate(cat.symbols)
                                if s.degree == -2), trunc)


def log_coefficients(p: int, depth: int, cat: Catalog) -> list[Poly]:
    """l_0 .. l_depth as exact rational polynomials in v1..v_depth."""
    ls = [Poly.unit(cat, QQ)]
    for n in range(1, depth + 1):
        s = Poly.zero(cat, QQ)
        for i in range(n):
            s = s + ls[i] * (Poly.gen(cat, QQ, f"v{n - i}") ** (p ** i))
        ls.append(s.scale(Fraction(1, p)))
    return ls


def log_of(summand: Poly, p: int, ls: Sequence[Poly], trunc: Truncation) -> Poly:
    """log(s) = sum_n l_n * s^{p^n}, for s with zero constant term."""
    out = Poly.zero(summand.catalog, QQ, trunc)
    for n, ln in enumerate(ls):
        power = (summand ** (p ** n)) if n else summand
        if power.is_zero():
            break
        out = out + ln * power
    return out


def exp_coefficients(p: int, trunc: int, cat: Catalog) -> list[Poly]:
    """Coefficients e_k of exp(u) = sum e_k u^k, inverse to log.

    Solved by forcing exp(log t) = t one t-degree at a time; e_k is minus
    the degree-k defect of the partial composition.  Exactness of the
    rational arithmetic makes this the whole verification story: the
    round-trip identities are separate tests, not part of the solve.
    """
    trc = orientation_truncation(cat, trunc)
    ls = log_coefficients(p, required_depth(p, trunc), cat)
    t = Poly.gen(cat, QQ, "t", trc)
    L = log_of(t, p, ls, trc)
    t_idx = cat.index["t"]
    es = [Poly.zero(cat, QQ), Poly.unit(cat, QQ)]
    comp = L
    lpow = L
    for k in range(2, trunc):
        lpow = lpow * L
        defect = [(m[:t_idx] + (0,) + m[t_idx + 1:], c)
                  for m, c in comp.terms.items() if m[t_idx] == k]
        ek = Poly.from_terms(cat, QQ, ((m, -c) for m, c in defect))
        es.append(ek)
        if ek.terms:
            comp = comp + ek * lpow
    return es


def compose(coeffs: Sequence[Poly], inner: Poly) -> Poly:
    """sum_k coeffs[k] * inner^k by Horner, under inner's truncation.

    Horner's accumulator after coeffs[k] is multiplied by inner k more
    times, and each factor raises the truncation degree by at least `low`,
    the least degree of inner's terms (clamped at 0).  So only its terms
    below bound - k*low can reach the result, and the step for coeffs[k]
    keeps just those.  The window grows back to the full bound at k = 0;
    an inner with a constant or Laurent term has low = 0 and tightens
    nothing.
    """
    cat, trunc = inner.catalog, inner.trunc
    low = 0 if trunc is None else max(
        0, min(map(trunc.degree, inner.terms), default=0))
    acc = Poly.zero(cat, QQ, trunc)
    for k in reversed(range(len(coeffs))):
        step = None if trunc is None else Truncation(trunc.vars,
                                                     trunc.bound - k * low)
        acc = (Poly(cat, QQ, acc.terms, step) * inner
               + coeffs[k].with_trunc(step))
    return acc


def reduce_ideal(poly: Poly, p: int, ideal: Iterable[str]) -> Poly:
    """Quotient by the monomial ideal: generator names and/or the prime "p"."""
    ideal = tuple(ideal)
    names = [g for g in ideal if g != "p"]
    out = poly.kill_generators(names) if names else poly
    if "p" in ideal:
        out = out.reduce_mod_p(p)
    return out


def formal_sum_of(p: int, trunc: int, summands: Sequence[Poly],
                  cat: Catalog) -> Poly:
    """exp(sum log(s_i)): the iterated formal sum s_1 +_G s_2 +_G ..."""
    trc = orientation_truncation(cat, trunc)
    ls = log_coefficients(p, required_depth(p, trunc), cat)
    total = Poly.zero(cat, QQ, trc)
    for s in summands:
        total = total + log_of(s.with_trunc(trc), p, ls, trc)
    return compose(exp_coefficients(p, trunc, cat), total)


def formal_sum(p: int, trunc: int, vars: tuple[str, str] = ("x", "y"),
               cat: Optional[Catalog] = None) -> Poly:
    """F(x, y) = exp(log x + log y), truncated at total (x,y)-exponent trunc."""
    cat = cat or canonical_catalog(p, depth=max(2, required_depth(p, trunc)),
                                   orientations=("t",) + vars)
    F = formal_sum_of(p, trunc, [Poly.gen(cat, QQ, v) for v in vars], cat)
    F.assert_p_integral(p)
    return F


def p_series(p: int, trunc: int, ideal: Iterable[str] = ()) -> Poly:
    """[p](t) = t +_G ... +_G t (p summands), reduced mod ideal, exact
    through t^{trunc-1}."""
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
    series = formal_sum_of(p, trunc, [Poly.gen(cat, QQ, "t")] * p, cat)
    series.assert_p_integral(p)
    return reduce_ideal(series, p, ideal)


def right_unit_t(p: int, trunc: int, ideal: Iterable[str] = ()) -> Poly:
    """eta_R(t) = t +_G t1 t^p +_G t2 t^{p^2} +_G ..., reduced mod ideal.

    The orientation is normalized so that the expansion starts t + t1 t^p
    with coefficient +1 (the conjugate convention differs by units on the
    t_i; downstream only this normalization is used, and derive_differentials
    hard-errors if it ever fails to hold).
    """
    cat = pipeline_catalog(p, trunc)
    trc = orientation_truncation(cat, trunc)
    summands = [Poly.gen(cat, QQ, "t", trc)]
    i = 1
    while p ** i < trunc:
        s = Poly.from_terms(cat, QQ, [(cat.mono({f"t{i}": 1, "t": p ** i}), 1)], trc)
        summands.append(s)
        i += 1
    eta = formal_sum_of(p, trunc, summands, cat)
    eta.assert_p_integral(p)
    if trunc > 1 and eta.coefficient(cat.unit_mono("t")) != 1:
        raise VerificationError("right unit lost its linear normalization")
    return reduce_ideal(eta, p, ideal)


def coefficientwise_frobenius(poly: Poly, p: int, e: int = 1) -> Poly:
    """x -> x^{p^e} termwise, valid over F_p: exponents scale, coefficients fix."""
    if poly.ring.char != p:
        raise ValueError("coefficientwise Frobenius needs F_p coefficients")
    q = p ** e
    return Poly.from_terms(
        poly.catalog, poly.ring,
        ((tuple(x * q for x in m), c) for m, c in poly.terms.items()),
        None if poly.trunc is None else Truncation(poly.trunc.vars,
                                                   poly.trunc.bound * q))
