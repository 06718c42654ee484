"""Formal-group arithmetic: Hazewinkel log/exp, p-series, right unit.

The frozen values here were derived once by hand or by independent
low-truncation expansion and are asserted exactly; any drift means a sign or
normalization convention moved upstream.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import values
from synto.cli import format_series
from synto.fgl import (coefficientwise_frobenius, compose, exp_coefficients,
                       formal_sum, formal_sum_of, log_coefficients, log_of,
                       orientation_truncation, p_series, pipeline_catalog,
                       reduce_ideal, required_depth, right_unit_t)
from synto.graded import (Catalog, CoeffRing, GeneratorSymbol, Poly,
                          Truncation, VerificationError, canonical_catalog)
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
    @pytest.mark.parametrize("p,trunc", [(2, 10), (3, 10), (5, 8)])
    def test_exp_log_roundtrip(self, p, trunc):
        cat = pipeline_catalog(p, trunc)
        trc = orientation_truncation(cat, trunc)
        ls = log_coefficients(p, required_depth(p, trunc), cat)
        es = exp_coefficients(p, trunc, cat)
        t = Poly.gen(cat, CoeffRing(0, p), "t", trc)
        L = log_of(t, p, ls, trc)
        # exp(log t) = t
        assert compose(es, L) == t
        # log(exp t) = t
        E = compose(es, t)
        assert log_of(E, p, ls, trc) == t


# orientation variables x, y, coefficients v1, v2, and two odd generators,
# so that compositions meet Koszul signs and odd squares
CAT_XY = Catalog(canonical_catalog(3, orientations=("x", "y")).symbols + (
    GeneratorSymbol("lambda1", 5, 0),
    GeneratorSymbol("lambda2", 17, 0)))
ZP3 = CoeffRing(0, 3)  # Z[1/3], the ring of CAT_XY's prime


def random_series(rng, lowest, size):
    """A Z[1/3] polynomial in CAT_XY whose terms have (x, y)-degree >=
    lowest, the first term exactly lowest."""
    x, y = CAT_XY.index["x"], CAT_XY.index["y"]
    terms = []
    for i in range(size):
        m = [rng.choice((0, 0, 1)) for _ in CAT_XY.symbols]
        m[x], m[y] = (lowest, 0) if i == 0 else (rng.randint(0, 3),
                                                 rng.randint(0, 2))
        if m[x] + m[y] < lowest:
            m[x] += lowest - m[x] - m[y]
        terms.append((tuple(m), Fraction(rng.choice((-3, -1, 1, 2, 4)),
                                         rng.choice((1, 3, 9)))))
    return Poly.from_terms(CAT_XY, ZP3, terms)


class TestComposeOracle:
    """compose shrinks Horner's window by the least degree of inner; it must
    equal the naive sum_k e_k * inner^k computed without truncation and
    truncated once at the end."""

    @pytest.mark.parametrize("lowest", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_sum(self, seed, lowest):
        rng = random.Random(1000 * lowest + seed)
        names = rng.choice((("x",), ("x", "y")))
        trunc = (None if seed % 4 == 0 else
                 Truncation(frozenset(CAT_XY.index[n] for n in names),
                            rng.randint(1, 7)))
        inner = random_series(rng, lowest, rng.randint(1, 4))
        if lowest == 0:  # a degree-0 term, so nothing is tightened
            inner = inner + Poly.from_terms(CAT_XY, ZP3, [(CAT_XY.one, 2)])
        coeffs = [random_series(rng, 0, rng.randint(0, 3))
                  for _ in range(rng.randint(1, 7 if trunc else 4))]
        naive, power = Poly.zero(CAT_XY, ZP3), Poly.unit(CAT_XY, ZP3)
        for ek in coeffs:
            naive = naive + ek * power
            power = power * inner
        got = compose(coeffs, inner.with_trunc(trunc))
        assert values(got) == values(naive.with_trunc(trunc))
        assert got.trunc == trunc
        assert got.den == got.normalized().den  # compose normalizes


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
        trc, ring = orientation_truncation(cat, trunc), CoeffRing(0, p)
        x = Poly.gen(cat, ring, "x", trc)
        y = Poly.gen(cat, ring, "y", trc)
        z = Poly.gen(cat, ring, "z", trc)
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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cut_series_is_the_short_right_unit(self, p):
        # the one right unit summand certifies, cut to t^{p+2}, is the
        # right unit computed at truncation p+2
        ideal = ("p", "v1")
        eta = right_unit_t(p, p * p + 2 * p, ideal=ideal)
        cut = eta.with_trunc(orientation_truncation(eta.catalog, p + 2))
        short = right_unit_t(p, p + 2, ideal=ideal)
        assert cut == short and cut.trunc == short.trunc
        assert cut.catalog.symbols == short.catalog.symbols

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
    t^{p^2+2p} as summand certifies it, with t1 rewritten as t*sigma2t1."""
    eta = right_unit_t(p, p * p + 2 * p, ideal=("p", "v1"))
    cut = eta.with_trunc(orientation_truncation(eta.catalog, trunc))
    return _rewrite_through_suspension(
        cut - Poly.gen(cut.catalog, cut.ring, "t", cut.trunc))


class TestFrobenius:
    def test_exponents_scale(self):
        f = p_series(2, 4, ideal=("p",))
        g = coefficientwise_frobenius(f, 2, e=1)
        cat = f.catalog
        assert dict(g.terms) == {
            tuple(2 * e for e in m): c for m, c in f.terms.items()}
        assert g.trunc.bound == f.trunc.bound * 2

    def test_requires_fp_coefficients(self):
        with pytest.raises(ValueError):
            coefficientwise_frobenius(p_series(2, 4), 2)
