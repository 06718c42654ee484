"""Formal-group arithmetic: Hazewinkel log/exp, p-series, right unit.

The frozen values here were derived once by hand or by independent
low-truncation expansion and are asserted exactly; any drift means a sign or
normalization convention moved upstream.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import formal_sum, values
from synto import fgl
from synto.cli import format_series
from synto.fgl import (coefficientwise_frobenius, compose, exp_coefficients,
                       formal_sum_of, log_coefficients, log_of, log_t,
                       p_series, pipeline_catalog, reduce_ideal,
                       required_depth, right_unit_t)
from synto.graded import (Catalog, CoeffRing, GeneratorSymbol, Poly,
                          VerificationError, canonical_catalog)
from synto.summand import _rewrite_through_suspension


class TestLogCoefficients:
    def test_l1_is_v1_over_p(self):
        for p in (2, 3, 5):
            cat = pipeline_catalog(p, 8)
            ls = log_coefficients(p, 2, cat)
            assert ls[1].ring == CoeffRing(0, p)
            assert values(ls[1]) == {cat.mono({"v1": 1}): Fraction(1, p)}
            # held as the numerator 1 over p^1: dividing by p shifts den
            assert ls[1].terms == {cat.mono({"v1": 1}): 1} and ls[1].den == 1

    def test_l2_hazewinkel_p3(self):
        # p*l_2 = l_0*v2 + l_1*v1^p  =>  l_2 = v2/3 + v1^4/9 at p = 3
        cat = pipeline_catalog(3, 12)
        ls = log_coefficients(3, 2, cat)
        assert values(ls[2]) == {cat.mono({"v2": 1}): Fraction(1, 3),
                                 cat.mono({"v1": 4}): Fraction(1, 9)}

    def test_required_depth(self):
        assert required_depth(2, 3) == 1
        assert required_depth(2, 5) == 2
        assert required_depth(2, 9) == 3
        assert required_depth(3, 10) == 2


class TestExpLog:
    @pytest.mark.parametrize("p,trunc", [(2, 10), (3, 10), (5, 8), (5, 20),
                                         (7, 26)])
    def test_exp_log_roundtrip(self, p, trunc):
        cat = pipeline_catalog(p, trunc)
        ls = log_coefficients(p, required_depth(p, trunc), cat)
        t = Poly.gen(cat, CoeffRing(0, p), "t", trunc)
        L = log_of(t, p, ls, trunc)
        es = exp_coefficients(p, L)
        # exp(log t) = t
        assert compose(es, L) == t
        # log(exp t) = t
        E = compose(es, t)
        assert log_of(E, p, ls, trunc) == t

    @pytest.mark.parametrize("ideal", [(), ("v1",), ("p",), ("v2",),
                                       ("p", "v1")])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_exp_is_supported_on_one_mod_p_minus_1(self, p, ideal):
        # homogeneity: e_k has degree 2(k - 1), and every v_n has degree
        # divisible by 2(p - 1)
        trunc = 2 * p * p  # killing v1 leaves e_1, e_{p^2}, e_{2p^2-1}
        cat = pipeline_catalog(p, trunc)
        es = exp_coefficients(p, log_t(p, trunc, cat, ideal)[1])
        assert len(es) == trunc
        support = [k for k, ek in enumerate(es) if not ek.is_zero()]
        assert support[0] == 1 and len(support) > 2
        assert all(k % (p - 1) == 1 for k in support)
        assert all(cat.degree(m) == 2 * (k - 1)
                   for k in support for m in es[k].terms)


# orientation variables x, y, coefficients v1, v2, and an even generator mu
# outside the canonical catalog, drawn with Laurent exponents
CAT_XY = Catalog(canonical_catalog(3, orientations=("x", "y")).symbols + (
    GeneratorSymbol("mu", 18, 0),))
ZP3 = CoeffRing(0, 3)  # Z[1/3], the ring of CAT_XY's prime


def random_series(rng, lowest, size):
    """A Z[1/3] polynomial in CAT_XY whose terms have (x, y)-degree >=
    lowest, the first term exactly lowest; each coefficient is n/1, n/3 or
    n/9, held as the numerator 9n, 3n or n over 3^2."""
    x, y, mu = (CAT_XY.index[n] for n in ("x", "y", "mu"))
    acc = {}
    for i in range(size):
        m = [rng.choice((0, 0, 1)) for _ in CAT_XY.symbols]
        m[mu] = rng.choice((-1, 0, 1))
        m[x], m[y] = (lowest, 0) if i == 0 else (rng.randint(0, 3),
                                                 rng.randint(0, 2))
        if m[x] + m[y] < lowest:
            m[x] += lowest - m[x] - m[y]
        m = tuple(m)
        acc[m] = acc.get(m, 0) + (rng.choice((-3, -1, 1, 2, 4))
                                  * rng.choice((9, 3, 1)))
    return Poly(CAT_XY, ZP3, {m: c for m, c in acc.items() if c},
                None, 2).normalized()


def assert_compose_is_naive(coeffs, inner, trunc):
    """compose(coeffs, inner cut at trunc) equals the naive
    sum_k coeffs[k] * inner^k, computed without truncation and truncated
    once at the end over both orientations x and y."""
    naive, power = Poly.zero(CAT_XY, ZP3), Poly.unit(CAT_XY, ZP3)
    for ek in coeffs:
        naive = naive + ek * power
        power = power * inner
    got = compose(coeffs, inner.with_trunc(trunc))
    x, y = CAT_XY.index["x"], CAT_XY.index["y"]
    assert values(got) == {m: c for m, c in values(naive).items()
                           if trunc is None or m[x] + m[y] < trunc}
    assert got.trunc == trunc
    assert got.den == got.normalized().den  # compose normalizes


class TestComposeOracle:
    """compose shrinks Horner's window by the least degree of inner and
    steps over the support of its coefficients; it must equal the naive
    sum for any coefficient list."""

    @pytest.mark.parametrize("lowest", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_sum(self, seed, lowest):
        rng = random.Random(1000 * lowest + seed)
        trunc = None if seed % 4 == 0 else rng.randint(1, 7)
        inner = random_series(rng, lowest, rng.randint(1, 4))
        if lowest == 0:  # a degree-0 term, so nothing is tightened
            inner = inner + Poly.from_terms(CAT_XY, ZP3, [(CAT_XY.one, 2)])
        coeffs = [random_series(rng, 0, rng.randint(0, 3))
                  for _ in range(rng.randint(1, 7 if trunc else 4))]
        assert_compose_is_naive(coeffs, inner, trunc)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_strided_support_matches_naive_sum(self, seed, g, a):
        # coefficients supported on k = a (mod g), k >= a, with e_a nonzero
        rng = random.Random(100 * g + 10 * a + seed)
        trunc = None if seed == 0 else rng.randint(2, 9)
        inner = random_series(rng, 1 + seed % 2, rng.randint(1, 3))
        coeffs = [random_series(rng, 0, rng.randint(1, 3))
                  if k >= a and (k - a) % g == 0 else Poly.zero(CAT_XY, ZP3)
                  for k in range(a + g * rng.randint(1, 3 if trunc else 2)
                                 + 1)]
        assert coeffs[a].terms
        assert_compose_is_naive(coeffs, inner, trunc)

    def test_all_zero_coefficients(self):
        inner = Poly.gen(CAT_XY, ZP3, "x", 4)
        got = compose([Poly.zero(CAT_XY, ZP3)] * 3, inner)
        assert got.is_zero() and got.trunc == 4


class TestFormalSum:
    @pytest.mark.parametrize("p", [2, 3])
    def test_unit(self, p):
        F = formal_sum(p, 8)
        x = Poly.gen(F.catalog, CoeffRing(0, p), "x", F.trunc)
        assert F.kill_generators(["y"]) == x
        y = Poly.gen(F.catalog, CoeffRing(0, p), "y", F.trunc)
        assert F.kill_generators(["x"]) == y

    @pytest.mark.parametrize("p", [2, 3])
    def test_commutative(self, p):
        F = formal_sum(p, 8)
        cat = F.catalog
        xi, yi = cat.index["x"], cat.index["y"]

        def swap(m):
            m = list(m)
            m[xi], m[yi] = m[yi], m[xi]
            return tuple(m)

        assert {swap(m): c for m, c in F.terms.items()} == dict(F.terms)

    def test_quadratic_coefficient_p2(self):
        # F(x,y) = x + y - v1*x*y + ... at p = 2; the xy coefficient is a
        # unit times v1 mod 2
        F = formal_sum(2, 3)
        cat = F.catalog
        xy_v1 = cat.mono({"x": 1, "y": 1, "v1": 1})
        assert F.coefficient(xy_v1) == -1
        assert F.reduce_mod_p(2).coefficient(xy_v1) == 1

    @pytest.mark.parametrize("p,trunc", [(2, 6), (3, 5)])
    def test_associative(self, p, trunc):
        cat = canonical_catalog(p, depth=max(2, required_depth(p, trunc)),
                                orientations=("t", "x", "y", "z"))
        ring = CoeffRing(0, p)
        x = Poly.gen(cat, ring, "x", trunc)
        y = Poly.gen(cat, ring, "y", trunc)
        z = Poly.gen(cat, ring, "z", trunc)
        Fxy = formal_sum_of(p, trunc, [x, y], cat)
        Fyz = formal_sum_of(p, trunc, [y, z], cat)
        lhs = formal_sum_of(p, trunc, [Fxy, z], cat)
        rhs = formal_sum_of(p, trunc, [x, Fyz], cat)
        assert lhs == rhs

    def test_p_integrality(self):
        for p in (2, 3):
            formal_sum(p, 10).assert_p_integral(p)


class TestPSeries:
    def test_p2_low_terms(self):
        s = p_series(2, 3)
        assert format_series(s) == "2t - v1·t^2"

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mod_p_leading_term(self, p):
        # the unit in front of v1*t^p is 1 at every prime (at p = 2 the
        # exact coefficient is -1, which is 1 mod 2)
        s = p_series(p, p + 1, ideal=("p",))
        cat = s.catalog
        lead = cat.mono({"v1": 1, "t": p})
        assert dict(s.terms) == {lead: 1}

    @pytest.mark.parametrize("p", [2, 3])
    def test_mod_p_v1_leading_term(self, p):
        s = p_series(p, p * p + 1, ideal=("p", "v1"))
        cat = s.catalog
        lead = cat.mono({"v2": 1, "t": p * p})
        assert dict(s.terms) == {lead: 1}

    def test_height_filtration(self):
        # below t^p nothing survives mod p; below t^{p^2} nothing mod (p, v1)
        for p in (2, 3):
            s = p_series(p, p * p + 2, ideal=("p",))
            ti = s.catalog.index["t"]
            assert min(m[ti] for m in s.terms) == p
            s2 = p_series(p, p * p + 2, ideal=("p", "v1"))
            assert min(m[ti] for m in s2.terms) == p * p

    def test_window_guards(self):
        with pytest.raises(ValueError):
            p_series(3, 9, ideal=("p", "v1"))  # needs trunc >= 10
        with pytest.raises(ValueError):
            p_series(3, 3, ideal=("p",))  # needs trunc >= 4

    def test_exact_integrality(self):
        p_series(3, 12).assert_p_integral(3)

    @pytest.mark.parametrize("ideal", [
        c for r in range(4) for c in itertools.combinations(("p", "v1", "v2"), r)])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_equals_the_formal_sum_of_p_copies_of_t(self, p, ideal):
        # exp(p * log t) against the definition t +_G ... +_G t
        trunc = p * p + 2
        cat = pipeline_catalog(p, trunc)
        t = Poly.gen(cat, CoeffRing(0, p), "t")
        want = reduce_ideal(formal_sum_of(p, trunc, [t] * p, cat, ideal),
                            p, ideal)
        assert p_series(p, trunc, ideal) == want

    def test_log_t_is_computed_once(self, monkeypatch):
        calls = []
        real = fgl.log_of

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(fgl, "log_of", counted)
        p_series(5, 27, ("p", "v1"))
        assert len(calls) == 1

    @pytest.mark.parametrize("series", [p_series, right_unit_t],
                             ids=["p-series", "right-unit"])
    def test_a_term_of_another_degree_is_a_hard_error(self, series,
                                                      monkeypatch):
        # the composed series with a stray v1*t^2, of degree 2p - 6
        real = fgl.compose

        def stray(*args):
            s = real(*args)
            cat = s.catalog
            return s + Poly.from_terms(
                cat, s.ring, [(cat.mono({"v1": 1, "t": 2}), 1)], s.trunc)

        monkeypatch.setattr(fgl, "compose", stray)
        with pytest.raises(VerificationError,
                           match="^series term t\\^2\\*v1 has degree 0, "
                                 "not -2$"):
            series(3, 4)


class TestRightUnit:
    @pytest.mark.parametrize("p", [2, 3])
    def test_leading_congruence(self, p):
        eta = right_unit_t(p, p + 2, ideal=("p", "v1"))
        cat = eta.catalog
        assert dict(eta.terms) == {cat.mono({"t": 1}): 1,
                                   cat.mono({"t1": 1, "t": p}): 1}

    @pytest.mark.parametrize("p", [2, 3])
    def test_pth_power_congruence(self, p):
        eta = right_unit_t(p, p * p + 2 * p, ideal=("p", "v1"))
        cat = eta.catalog
        tp = Poly.from_terms(cat, eta.ring, [(cat.mono({"t": p}), 1)],
                             eta.trunc)
        dev = eta ** p - tp
        assert dict(dev.terms) == {cat.mono({"t1": p, "t": p * p}): 1}

    def test_linear_normalization_guard(self):
        eta = right_unit_t(5, 4)
        assert eta.coefficient(eta.catalog.unit_mono("t")) == 1

    def test_lost_normalization_is_a_hard_error(self, monkeypatch):
        # the formal sum's series with its linear coefficient doubled
        real = fgl.formal_sum_of

        def doubled(*args):
            eta = real(*args)
            return eta + eta

        monkeypatch.setattr(fgl, "formal_sum_of", doubled)
        with pytest.raises(VerificationError,
                           match="^right unit lost its linear normalization$"):
            right_unit_t(5, 4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cut_series_is_the_short_right_unit(self, p):
        # the one right unit summand certifies, cut to t^{p+2}, is the
        # right unit computed at truncation p+2
        ideal = ("p", "v1")
        eta = right_unit_t(p, p * p + 2 * p, ideal=ideal)
        cut = eta.with_trunc(p + 2)
        short = right_unit_t(p, p + 2, ideal=ideal)
        assert cut == short and cut.trunc == short.trunc
        assert ([(s.name, s.degree, s.weight) for s in cut.catalog.symbols]
                == [(s.name, s.degree, s.weight)
                    for s in short.catalog.symbols])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cobar_leading_term(self, p):
        d = cobar_deviation(p, p + 2)
        cat = d.catalog
        assert dict(d.terms) == {cat.mono({"t": p + 1, "sigma2t1": 1}): 1}

    def test_cobar_longer_window_p2(self):
        # beyond the leading term the deviation keeps only t1-divisible
        # monomials (all rewritten through sigma2t1)
        d = cobar_deviation(2, 6)
        cat = d.catalog
        assert cat.mono({"t": 3, "sigma2t1": 1}) in d.terms
        ti = cat.index["t1"]
        assert all(m[ti] == 0 for m in d.terms)


class TestEarlyQuotientOracle:
    """Killing generators before the series arithmetic is a ring map, so it
    commutes with log, exp and composition: each series mod an ideal must
    equal the quotient of the full rational series taken afterwards, by
    ``reduce_ideal``."""

    IDEALS = [c for r in (1, 2, 3)
              for c in itertools.combinations(("p", "v1", "v2"), r)]

    @pytest.mark.parametrize("series", [p_series, right_unit_t],
                             ids=["p-series", "right-unit"])
    @pytest.mark.parametrize("window", ["p+2", "p^2+2", "p^2+2p"])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_early_equals_late(self, p, window, series):
        trunc = {"p+2": p + 2, "p^2+2": p * p + 2, "p^2+2p": p * p + 2 * p}[
            window]
        full = series(p, trunc)
        for ideal in self.IDEALS:
            if series is p_series and {"p", "v1"} <= set(ideal) \
                    and trunc <= p * p:
                with pytest.raises(ValueError, match="window too small"):
                    series(p, trunc, ideal)
                continue
            early = series(p, trunc, ideal)
            late = reduce_ideal(full, p, ideal)
            assert early == late, ideal
            assert early.trunc == late.trunc, ideal

    @pytest.mark.parametrize("p", [2, 3])
    def test_summands_are_reduced_too(self, p):
        # x +_G v1*y: the ideal reaches the summands, not only the log
        cat = canonical_catalog(p, orientations=("t", "x", "y"))
        x = Poly.gen(cat, CoeffRing(0, p), "x")
        v1y = Poly.from_terms(cat, CoeffRing(0, p),
                              [(cat.mono({"v1": 1, "y": 1}), 1)])
        full = formal_sum_of(p, 6, [x, v1y], cat)
        early = formal_sum_of(p, 6, [x, v1y], cat, ("v1",))
        assert early == reduce_ideal(full, p, ("v1",))
        assert early == x.with_trunc(full.trunc)


def cobar_deviation(p, trunc):
    """eta_R(t) - t mod (p, v1), cut to t^trunc from the right unit at
    t^{p^2+2p}, with t1 rewritten as t*sigma2t1 as summand rewrites it."""
    eta = right_unit_t(p, p * p + 2 * p, ideal=("p", "v1"))
    cut = eta.with_trunc(trunc)
    return _rewrite_through_suspension(
        cut - Poly.gen(cut.catalog, cut.ring, "t", cut.trunc))


class TestFrobenius:
    def test_exponents_scale(self):
        f = p_series(2, 4, ideal=("p",))
        g = coefficientwise_frobenius(f, 2, e=1)
        cat = f.catalog
        assert dict(g.terms) == {
            tuple(2 * e for e in m): c for m, c in f.terms.items()}
        assert g.trunc == f.trunc * 2

    def test_requires_fp_coefficients(self):
        with pytest.raises(ValueError):
            coefficientwise_frobenius(p_series(2, 4), 2)
