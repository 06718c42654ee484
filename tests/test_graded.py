"""Unit and property tests for the exact bigraded algebra core."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from synto.graded import (QQ, Catalog, CoeffRing, GeneratorSymbol, Poly,
                          Truncation, VerificationError, canonical_catalog,
                          superscript)
from synto.fgl import compose, orientation_truncation
from synto.summand import _rewrite_through_suspension

# the canonical catalog at p = 3, which is all even, followed by odd
# generators of the tests' own, so that Koszul signs and odd squares are
# exercised
CAT3 = Catalog(canonical_catalog(3).symbols + (
    GeneratorSymbol("lambda1", 5, 1, "odd"),
    GeneratorSymbol("lambda2", 17, 1, "odd"),
    GeneratorSymbol("mu", 18, 0, "even")))
FP3 = CoeffRing(3)


def mono(**exps):
    return CAT3.mono(exps)


class TestCatalog:
    def test_canonical_symbols(self):
        names = tuple(s.name for s in CAT3.symbols)
        assert names == ("t", "v1", "v2", "t1", "t2",
                         "sigma2t1", "sigma2v2", "lambda1", "lambda2", "mu")
        assert CAT3.symbols[CAT3.index["t"]].degree == -2
        assert CAT3.symbols[CAT3.index["v1"]].degree == 4
        assert CAT3.symbols[CAT3.index["t2"]].degree == 16
        assert CAT3.symbols[CAT3.index["lambda2"]].parity == "odd"

    def test_bidegree(self):
        m = mono(t=2, v1=1, lambda1=1)
        assert CAT3.degree(m) == -4 + 4 + 5
        assert CAT3.weight(m) == 2 + 0 + 1
        assert CAT3.bidegree(CAT3.one) == (0, 0)

    def test_mono_mul_even(self):
        s, m = CAT3.mono_mul(mono(t=2), mono(t=-1, v1=1))
        assert s == 1 and m == mono(t=1, v1=1)

    def test_mono_mul_odd_square_is_none(self):
        assert CAT3.mono_mul(mono(lambda1=1), mono(lambda1=1)) is None

    def test_mono_mul_koszul_sign(self):
        # lambda2 * lambda1 = -lambda1 * lambda2 (catalog order fixed)
        s, m = CAT3.mono_mul(mono(lambda2=1), mono(lambda1=1))
        assert s == -1 and m == mono(lambda1=1, lambda2=1)
        s, m = CAT3.mono_mul(mono(lambda1=1), mono(lambda2=1))
        assert s == 1 and m == mono(lambda1=1, lambda2=1)

    def test_mono_str(self):
        assert CAT3.mono_str(mono(t=-3, lambda1=1)) == "t^-3*lambda1"
        assert CAT3.mono_str(CAT3.one) == "1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Catalog([GeneratorSymbol("a", 0, 0, "even"),
                     GeneratorSymbol("a", 2, 0, "even")])

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSymbol("a", 0, 0, "oddish")

    def test_superscript(self):
        assert superscript(-12) == "⁻¹²"


class TestPoly:
    def test_from_terms_merges_and_cancels(self):
        m = mono(t=1)
        P = Poly.from_terms(CAT3, FP3, [(m, 2), (m, 1)])
        assert P.is_zero()
        Q = Poly.from_terms(CAT3, QQ, [(m, 1), (m, Fraction(1, 2))])
        assert Q.coefficient(m) == Fraction(3, 2)

    def test_add_sub_scale(self):
        t, v = Poly.gen(CAT3, FP3, "t"), Poly.gen(CAT3, FP3, "v1")
        assert (t + v - t) == v
        assert (t.scale(3)).is_zero()
        assert (-t).coefficient(mono(t=1)) == 2

    def test_mul_with_truncation(self):
        trc = Truncation(frozenset([CAT3.index["t"]]), 3)
        t = Poly.gen(CAT3, FP3, "t", trc)
        cube = t * t * t
        assert cube.is_zero()
        assert (t * t).coefficient(mono(t=2)) == 1

    def test_pow_matches_repeated_mul(self):
        f = Poly.from_terms(CAT3, QQ, [(mono(t=1), 1), (mono(v1=1), 2)])
        assert f ** 3 == f * f * f
        with pytest.raises(ValueError):
            f ** -1

    def test_pow_zero_is_unit(self):
        f = Poly.gen(CAT3, QQ, "t")
        assert f ** 0 == Poly.unit(CAT3, QQ)

    def test_odd_square_vanishes_in_any_characteristic(self):
        for ring in (QQ, FP3, CoeffRing(2)):
            lam = (Poly.gen(CAT3, ring, "lambda1")
                   + Poly.gen(CAT3, ring, "lambda2"))
            assert (lam * lam).is_zero()

    def test_reduce_mod_p(self):
        f = Poly.from_terms(CAT3, QQ, [(mono(v1=1), Fraction(1, 2)),
                                       (mono(t=1), 4)])
        g = f.reduce_mod_p(3)
        assert g.coefficient(mono(v1=1)) == 2  # 1/2 = 2 mod 3
        assert g.coefficient(mono(t=1)) == 1

    def test_reduce_mod_p_rejects_non_integral(self):
        f = Poly.from_terms(CAT3, QQ, [(mono(v1=1), Fraction(1, 3))])
        with pytest.raises(VerificationError):
            f.reduce_mod_p(3)
        f.assert_p_integral(2)
        with pytest.raises(VerificationError):
            f.assert_p_integral(3)

    def test_kill_generators(self):
        f = Poly.from_terms(CAT3, QQ, [(mono(v1=1, t=2), 1), (mono(t=1), 5)])
        g = f.kill_generators(["v1"])
        assert dict(g.terms) == {mono(t=1): Fraction(5)}

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Poly.gen(CAT3, QQ, "t"))


class TestAddTruncation:
    """A sum is truncated by the tighter of its operands' truncations."""

    def test_truncated_left_drops_the_right_operands_terms(self):
        cat = canonical_catalog(2)
        tr = orientation_truncation(cat, 3)
        t = Poly.gen(cat, QQ, "t", tr)
        t5 = Poly.gen(cat, QQ, "t") ** 5
        for total in (t + t5, t5 + t):
            assert dict(total.terms) == {cat.unit_mono("t"): 1}
            assert total.trunc == tr

    def test_tighter_bound_wins(self):
        ti = frozenset([CAT3.index["t"]])
        f = Poly.from_terms(CAT3, QQ, [(mono(t=k), k + 1) for k in range(6)],
                            Truncation(ti, 6))
        g = Poly.from_terms(CAT3, QQ, [(mono(t=1), 1)], Truncation(ti, 3))
        for total in (f + g, g + f):
            assert total.trunc == Truncation(ti, 3)
            assert dict(total.terms) == {mono(): 1, mono(t=1): 3,
                                         mono(t=2): 3}

    def test_different_variable_sets_are_refused(self):
        f = Poly.gen(CAT3, QQ, "t",
                     Truncation(frozenset([CAT3.index["t"]]), 3))
        g = Poly.gen(CAT3, QQ, "v1",
                     Truncation(frozenset([CAT3.index["v1"]]), 3))
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            g - f

    def test_products_never_add_across_variable_sets(self):
        # a product, a power and a composition take the left operand's (or
        # inner's) truncation, and every sum they form is between operands
        # under that one truncation, so mixing variable sets never raises
        tt = Truncation(frozenset([CAT3.index["t"]]), 4)
        tv = Truncation(frozenset([CAT3.index["v1"]]), 2)
        f = Poly.from_terms(CAT3, QQ, [(mono(t=1), 1), (mono(v1=1), 2)], tt)
        g = Poly.from_terms(CAT3, QQ, [(mono(t=1), 3), (mono(v1=1), 1)], tv)
        assert (f * g).trunc == tt and (g * f).trunc == tv
        assert (f ** 3).trunc == tt
        assert compose([f, g, f * g], g).trunc == tv

    @pytest.mark.parametrize("seed", range(20))
    def test_add_commutes_with_equal_truncation(self, seed):
        rng = random.Random(seed)
        ti = frozenset([CAT3.index["t"]])
        truncs = [None] + [Truncation(ti, b) for b in (-1, 0, 2, 4)]
        f = random_poly(rng, QQ, trunc=rng.choice(truncs))
        g = random_poly(rng, QQ, trunc=rng.choice(truncs))
        fg, gf = f + g, g + f
        assert fg == gf and fg.trunc == gf.trunc
        if fg.trunc is not None:
            assert all(fg.trunc.keeps(m) for m in fg.terms)


def random_mono(rng):
    """A CAT3 monomial: odd generators 0 or 1, t and mu Laurent."""
    exps = []
    for s in CAT3.symbols:
        if s.parity == "odd":
            exps.append(rng.randint(0, 1))
        elif s.name in ("t", "mu"):
            exps.append(rng.randint(-2, 3))
        else:
            exps.append(rng.choice((0, 0, 1, 2)))
    return tuple(exps)


def random_poly(rng, ring, trunc=None, size=6):
    return Poly.from_terms(CAT3, ring,
                           [(random_mono(rng), rng.randint(-5, 5))
                            for _ in range(rng.randint(0, size))], trunc)


def brute_product(f, g):
    """f * g over every pair of terms, filtered through mono_mul and the
    left operand's truncation after the product is formed."""
    ring, trunc, acc = f.ring, f.trunc, {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            sm = CAT3.mono_mul(ma, mb)
            if sm is None or (trunc is not None and not trunc.keeps(sm[1])):
                continue
            c = ring.mul(ca, cb)
            acc[sm[1]] = ring.add(acc.get(sm[1], ring.normalize(0)),
                                  c if sm[0] > 0 else ring.neg(c))
    return {m: c for m, c in acc.items() if c}


class TestMulOracle:
    """Poly.__mul__ stops each row at the truncation bound; a brute-force
    product over all pairs must agree, with Koszul signs, odd squares,
    Laurent exponents inside the truncated variables, and no truncation."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_all_pairs_product(self, seed):
        rng = random.Random(seed)
        ring = rng.choice((QQ, FP3))
        if rng.random() < 0.2:
            trunc = None
        else:
            names = rng.sample(("t", "mu", "v1", "lambda1", "sigma2t1"),
                               rng.randint(1, 2))
            trunc = Truncation(frozenset(CAT3.index[n] for n in names),
                               rng.randint(-2, 5))
        # the left operand's own terms may lie past its truncation
        f = random_poly(rng, ring, size=10)
        f = Poly(CAT3, ring, dict(f.terms), trunc)
        g = random_poly(rng, ring, size=10)
        prod = f * g
        assert prod.terms == brute_product(f, g)
        assert prod.trunc == trunc


class TestRewrite:
    def test_t1_to_suspension(self):
        f = Poly.from_terms(CAT3, FP3, [(mono(t1=1, t=4), 1)])
        g = _rewrite_through_suspension(f)
        assert dict(g.terms) == {mono(t=5, sigma2t1=1): 1}

    def test_repeated_application(self):
        f = Poly.from_terms(CAT3, FP3, [(mono(t1=2), 1)])
        g = _rewrite_through_suspension(f)
        assert dict(g.terms) == {mono(t=2, sigma2t1=2): 1}


# ---------------------------------------------------------------------------
# properties

@st.composite
def monomials(draw):
    exps = []
    for s in CAT3.symbols:
        if s.parity == "odd":
            exps.append(draw(st.integers(0, 1)))
        elif s.name == "t":
            exps.append(draw(st.integers(-2, 2)))
        else:
            exps.append(draw(st.integers(0, 2)))
    return tuple(exps)


@st.composite
def polys(draw, ring):
    pairs = draw(st.lists(
        st.tuples(monomials(), st.integers(-6, 6)), max_size=5))
    return Poly.from_terms(CAT3, ring, pairs)


@st.composite
def series_polys(draw, ring):
    """Polynomials with non-negative t-exponent: honest truncated series.

    (Laurent monomials break t-adic truncation: t^-1 * t re-enters below any
    bound.  The engine never truncates Laurent pages, so the multiplication
    invariant is stated on series only.)"""
    f = draw(polys(ring))
    ti = CAT3.index["t"]
    return Poly.from_terms(CAT3, ring,
                           ((m, c) for m, c in f.terms.items() if m[ti] >= 0))


class TestProperties:
    @given(monomials(), monomials())
    def test_graded_commutativity(self, m1, m2):
        x = Poly.from_terms(CAT3, QQ, [(m1, 1)])
        y = Poly.from_terms(CAT3, QQ, [(m2, 1)])
        sign = -1 if (CAT3.degree(m1) * CAT3.degree(m2)) % 2 else 1
        assert x * y == (y * x).scale(sign)

    @given(monomials(), monomials())
    def test_bidegree_additive(self, m1, m2):
        prod = CAT3.mono_mul(m1, m2)
        if prod is None:
            return
        _, m = prod
        assert CAT3.degree(m) == CAT3.degree(m1) + CAT3.degree(m2)
        assert CAT3.weight(m) == CAT3.weight(m1) + CAT3.weight(m2)

    @settings(max_examples=60)
    @given(series_polys(QQ), series_polys(QQ), st.integers(1, 6))
    def test_truncation_commutes_with_mul(self, f, g, bound):
        trc = Truncation(frozenset([CAT3.index["t"]]), bound)
        lhs = (f * g).with_trunc(trc)
        rhs = f.with_trunc(trc) * g.with_trunc(trc)
        assert lhs.terms == rhs.terms

    @settings(max_examples=60)
    @given(polys(QQ), polys(QQ))
    def test_reduce_mod_p_is_multiplicative(self, f, g):
        assert (f * g).reduce_mod_p(3) == f.reduce_mod_p(3) * g.reduce_mod_p(3)

    @settings(max_examples=60)
    @given(polys(FP3), polys(FP3), polys(FP3))
    def test_associativity(self, f, g, h):
        assert (f * g) * h == f * (g * h)
