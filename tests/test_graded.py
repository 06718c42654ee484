"""Unit and property tests for the exact bigraded algebra core."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import values
from synto.graded import (Catalog, CoeffRing, GeneratorSymbol, Poly,
                          VerificationError, canonical_catalog, superscript)
from synto.summand import _rewrite_through_suspension

# the canonical catalog at p = 3 followed by an even Laurent generator of
# the tests' own; the series ring has no odd generator
CAT3 = Catalog(canonical_catalog(3).symbols + (
    GeneratorSymbol("mu", 18, 0),))
FP3 = CoeffRing(3)
ZP3 = CoeffRing(0, 3)  # Z[1/3]
# two orientations, t and x, so a truncation counts both
CATX = Catalog(canonical_catalog(3, orientations=("t", "x")).symbols + (
    GeneratorSymbol("mu", 18, 0),))


def mono(**exps):
    return CAT3.mono(exps)


def from_pairs(ring, triples, trunc=None, cat=CAT3):
    """The normalized sum of the terms n/p^k * m over (m, n, k): the int n
    enters by `Poly.from_terms`, and p^k by `Poly.over_p`."""
    total = Poly.zero(cat, ring, trunc)
    for m, n, k in triples:
        f = Poly.from_terms(cat, ring, [(m, n)], trunc)
        total = total + (f.over_p(k) if k else f)
    return total.normalized()


class TestCatalog:
    def test_canonical_symbols(self):
        names = tuple(s.name for s in CAT3.symbols)
        assert names == ("t", "v1", "v2", "t1", "t2",
                         "sigma2t1", "sigma2v2", "mu")
        # the orientations are the degree -2 generators
        assert CAT3.orient == (0,) and CATX.orient == (0, 1)
        m = CATX.mono({"t": 2, "x": -1, "v1": 3, "mu": 1})
        assert CATX.orientation_degree(m) == 1
        assert CAT3.symbols[CAT3.index["t"]].degree == -2
        assert CAT3.symbols[CAT3.index["v1"]].degree == 4
        assert CAT3.symbols[CAT3.index["t2"]].degree == 16
        assert CAT3.odd == ()
        # the odd generators are exactly those of odd degree
        cat = Catalog([GeneratorSymbol("a", 1, 0), GeneratorSymbol("b", 2, 0),
                       GeneratorSymbol("c", -3, 1)])
        assert cat.odd == (0, 2)

    def test_bidegree(self):
        m = mono(t=2, v1=1, mu=1)
        assert CAT3.degree(m) == -4 + 4 + 18
        assert CAT3.weight(m) == 2 + 0 + 0
        assert CAT3.bidegree(CAT3.one) == (0, 0)

    def test_mono_str(self):
        assert CAT3.mono_str(mono(t=-3, mu=1)) == "t^-3*mu"
        assert CAT3.mono_str(CAT3.one) == "1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Catalog([GeneratorSymbol("a", 0, 0),
                     GeneratorSymbol("a", 2, 0)])

    def test_superscript(self):
        assert superscript(-12) == "⁻¹²"


class TestPoly:
    def test_from_terms_merges_and_cancels(self):
        m = mono(t=1)
        P = Poly.from_terms(CAT3, FP3, [(m, 2), (m, 1)])
        assert P.is_zero()
        # an int is reduced mod p over F_p and kept over Z[1/p], at den 0
        assert Poly.from_terms(CAT3, FP3, [(m, 5)]).terms == {m: 2}
        Q = Poly.from_terms(CAT3, CoeffRing(0, 2), [(m, 1), (m, 2)])
        assert Q.terms == {m: 3} and Q.den == 0
        assert Q.over_p().coefficient(m) == Fraction(3, 2)

    def test_add_sub_scale(self):
        t, v = Poly.gen(CAT3, FP3, "t"), Poly.gen(CAT3, FP3, "v1")
        assert (t + v - t) == v
        assert (t + t + t).is_zero()
        assert (-t).coefficient(mono(t=1)) == 2

    def test_mul_with_truncation(self):
        t = Poly.gen(CAT3, FP3, "t", 3)
        cube = t * t * t
        assert cube.is_zero()
        assert (t * t).coefficient(mono(t=2)) == 1

    def test_pow_matches_repeated_mul(self):
        f = Poly.from_terms(CAT3, ZP3, [(mono(t=1), 1), (mono(v1=1), 2)])
        assert f ** 3 == f * f * f
        with pytest.raises(ValueError):
            f ** -1

    def test_pow_zero_is_unit(self):
        f = Poly.gen(CAT3, ZP3, "t")
        assert f ** 0 == Poly.unit(CAT3, ZP3)

    def test_product_over_an_odd_generator_is_refused(self):
        # the graded sign rule lives in the engine; a series never has an
        # odd generator, so a product over one is refused, not signed
        cat = Catalog(CAT3.symbols + (GeneratorSymbol("lambda1", 5, 1),))
        lam, t = Poly.gen(cat, ZP3, "lambda1"), Poly.gen(cat, ZP3, "t")
        for a, b in ((lam, lam), (t, t), (t, Poly.unit(cat, ZP3))):
            with pytest.raises(ValueError,
                               match="^cannot multiply over the odd generator "
                                     "lambda1: the series ring is "
                                     "commutative$"):
                a * b
        # a sum, a negation and the zeroth power form no product
        assert (lam + t) + (lam + t) - (lam + lam) == t + t
        assert lam ** 0 == Poly.unit(cat, ZP3)

    def test_reduce_mod_p(self):
        f = from_pairs(CoeffRing(0, 2), [(mono(v1=1), 1, 1), (mono(t=1), 4, 0)])
        g = f.reduce_mod_p(3)
        assert g.coefficient(mono(v1=1)) == 2  # 1/2 = 2 mod 3
        assert g.coefficient(mono(t=1)) == 1

    def test_reduce_mod_p_rejects_non_integral(self):
        f = Poly.gen(CAT3, ZP3, "v1").over_p()
        with pytest.raises(VerificationError):
            f.reduce_mod_p(3)
        f.assert_p_integral(2)
        with pytest.raises(VerificationError):
            f.assert_p_integral(3)

    def test_kill_generators(self):
        f = Poly.from_terms(CAT3, ZP3, [(mono(v1=1, t=2), 1), (mono(t=1), 5)])
        g = f.kill_generators(["v1"])
        assert values(g) == {mono(t=1): 5}

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Poly.gen(CAT3, ZP3, "t"))


class TestRingOracle:
    """Z[1/p] against Fraction arithmetic on the same values, for p = 2, 3,
    5: a poly holds int numerators over one power p^den, and every result
    must have the value the Fraction computation gives."""

    @staticmethod
    def case(seed, p):
        rng = random.Random(100 * p + seed)
        ring = CoeffRing(0, p)
        triples = [(random_mono(rng), *random_coefficient(rng, ring))
                   for _ in range(rng.randint(1, 8))]
        want = {}
        for m, n, k in triples:
            want[m] = want.get(m, 0) + Fraction(n, p ** k)
        return rng, ring, from_pairs(ring, triples), {
            m: c for m, c in want.items() if c}

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_add_mul_neg(self, p, seed):
        rng, ring, f, fv = self.case(seed, p)
        g = random_poly(rng, ring, size=8)
        assert values(f) == fv
        total = {m: fv.get(m, 0) + values(g).get(m, 0)
                 for m in {*fv, *g.terms}}
        assert values(f + g) == {m: c for m, c in total.items() if c}
        assert values(f * g) == brute_product(f, g)
        assert values(-f) == {m: -c for m, c in fv.items()}
        assert (f - f).is_zero() and (f + -f).is_zero()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_scale(self, p, seed):
        # a constant factor n/p^k scales every coefficient
        rng, ring, f, fv = self.case(seed, p)
        for n, k in ((rng.randint(-9, 9), 0),
                     (rng.choice((-1, 1, 2)), rng.randint(1, 3)), (0, 0)):
            c = from_pairs(ring, [(CAT3.one, n, k)])
            assert values(f * c) == {m: Fraction(n, p ** k) * v
                                     for m, v in fv.items() if n}
        assert values(f.over_p(2)) == {m: v / p ** 2 for m, v in fv.items()}
        assert f * from_pairs(ring, [(CAT3.one, 1, 1)]) == f.over_p()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_normalize_and_equality_across_dens(self, p, seed):
        _, ring, f, fv = self.case(seed, p)
        # the same value held over p^(den+3): numerators times p^3
        wide = Poly(CAT3, ring, {m: c * p ** 3 for m, c in f.terms.items()},
                    None, f.den + 3)
        assert wide == f and f == wide and values(wide) == fv
        assert wide != f + f or f.is_zero()
        norm = wide.normalized()
        assert (norm.terms, norm.den) == (f.terms, f.den)
        # normalized: den 0, or some numerator not divisible by p
        assert norm.den == 0 or any(c % p for c in norm.terms.values())
        assert norm.den == max((_p_adic_order(Fraction(v).denominator, p)
                                for v in fv.values()), default=0)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reduce_mod_p(self, p, seed):
        _, ring, f, fv = self.case(seed, p)
        # at another prime q every denominator p^k is a unit
        q = {2: 3, 3: 5, 5: 2}[p]
        want = {m: Fraction(v).numerator
                * pow(Fraction(v).denominator, -1, q) % q
                for m, v in fv.items()}
        assert values(f.reduce_mod_p(q)) == {m: c for m, c in want.items()
                                             if c}
        # at p itself only an integral value reduces
        integral = f * Poly.from_terms(CAT3, ring, [(CAT3.one, p ** 2)])
        assert values(integral.reduce_mod_p(p)) == {
            m: int(v * p ** 2) % p for m, v in fv.items()
            if int(v * p ** 2) % p}
        bad = [v for v in values(f).values() if Fraction(v).denominator > 1]
        if bad:
            with pytest.raises(VerificationError,
                               match=f"coefficient {bad[0]} is not "
                                     f"p-integral at p={p}"):
                f.reduce_mod_p(p)

    @pytest.mark.parametrize("den", [0, 2])
    def test_assert_p_integral_message(self, den):
        ring = CoeffRing(0, 2)
        m = mono(t=3, v1=1, t1=1)
        f = from_pairs(ring, [(mono(t=1), 1, 0), (m, -1, 1)])
        # the same value held over a wider den reports the same coefficient
        f = Poly(CAT3, ring, {k: c * 2 ** den for k, c in f.terms.items()},
                 None, f.den + den)
        f.assert_p_integral(3)
        with pytest.raises(VerificationError,
                           match=r"^non p-integral coefficient -1/2 on "
                                 r"t\^3\*v1\*t1 at p=2$"):
            f.assert_p_integral(2)

    def test_coefficient_outside_the_ring_is_refused(self):
        with pytest.raises(ValueError, match="not invertible"):
            Poly.gen(CAT3, FP3, "t").over_p()
        with pytest.raises(ValueError, match="needs the prime"):
            CoeffRing(0)

    def test_rings_do_not_mix(self):
        # an F_3 sum with a Z[1/3] poly over p^1 used to read 2/3 in F_3
        f = Poly.from_terms(CAT3, FP3, [(mono(t=1), 2)])
        g = from_pairs(ZP3, [(mono(t=1), 2, 1)])
        for a, b, names in ((f, g, "F_3 and Z[1/3]"),
                            (g, f, "Z[1/3] and F_3")):
            with pytest.raises(ValueError, match=rf"^cannot combine "
                               rf"polynomials over {re.escape(names)}$"):
                a + b
            with pytest.raises(ValueError, match="cannot combine"):
                a * b

    def test_f_p_has_one_prime(self):
        with pytest.raises(ValueError, match="^F_3 has no second prime 5$"):
            CoeffRing(3, 5)

    def test_rings_are_per_prime(self):
        assert CoeffRing(3) == CoeffRing(3, 3) and CoeffRing(3).p == 3
        assert CoeffRing(0, 3) != CoeffRing(0, 2) != CoeffRing(2)
        assert Poly.gen(CAT3, ZP3, "t") != Poly.gen(CAT3, CoeffRing(0, 2), "t")


class TestRecords:
    """Rings are compared by value: `_common_ring` meets rings built
    apart."""

    def test_fresh_records_are_equal(self):
        for a, b in ((CoeffRing(0, 3), CoeffRing(0, 3)),
                     (CoeffRing(3), CoeffRing(3, 3))):
            assert a is not b and a == b
            assert not a != b

    def test_polys_over_fresh_records_combine(self):
        f = Poly.gen(CAT3, CoeffRing(0, 3), "t", 4)
        g = Poly.gen(CAT3, CoeffRing(0, 3), "t", 4)
        for total in (f + g, f * g):
            assert total.ring == ZP3 and total.trunc == 4

    def test_records_of_different_types_are_unequal(self):
        assert CoeffRing(0, 3) != (0, 3)


def _p_adic_order(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class TestAddTruncation:
    """A sum is truncated by the tighter of its operands' truncations."""

    def test_truncated_left_drops_the_right_operands_terms(self):
        cat, ring = canonical_catalog(2), CoeffRing(0, 2)
        t = Poly.gen(cat, ring, "t", 3)
        t5 = Poly.gen(cat, ring, "t") ** 5
        for total in (t + t5, t5 + t):
            assert values(total) == {cat.unit_mono("t"): 1}
            assert total.trunc == 3

    def test_tighter_bound_wins(self):
        f = Poly.from_terms(CAT3, ZP3, [(mono(t=k), k + 1) for k in range(6)],
                            6)
        g = Poly.from_terms(CAT3, ZP3, [(mono(t=1), 1)], 3)
        for total in (f + g, g + f):
            assert total.trunc == 3
            assert values(total) == {mono(): 1, mono(t=1): 3, mono(t=2): 3}

    def test_truncated_factor_cuts_the_product_in_either_order(self):
        cat, ring = canonical_catalog(2), CoeffRing(0, 2)
        t = Poly.gen(cat, ring, "t", 3)
        t5 = Poly.gen(cat, ring, "t") ** 5
        for product in (t5 * t, t * t5):
            assert product.is_zero() and product.trunc == 3
        assert (t ** 3).trunc == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_add_commutes_with_equal_truncation(self, seed):
        rng = random.Random(seed)
        truncs = [None, -1, 0, 2, 4]
        f = random_poly(rng, ZP3, trunc=rng.choice(truncs))
        g = random_poly(rng, ZP3, trunc=rng.choice(truncs))
        fg, gf = f + g, g + f
        assert fg == gf and fg.trunc == gf.trunc
        if fg.trunc is not None:
            assert all(CAT3.orientation_degree(m) < fg.trunc
                       for m in fg.terms)


def random_mono(rng, cat=CAT3):
    """A CAT3 or CATX monomial: the orientations and mu Laurent."""
    exps = []
    for s in cat.symbols:
        if s.name in ("t", "x", "mu"):
            exps.append(rng.randint(-2, 3))
        else:
            exps.append(rng.choice((0, 0, 1, 2)))
    return tuple(exps)


def random_coefficient(rng, ring):
    """(n, k) for the coefficient n/p^k: k is 0 over F_p and 0..2 over
    Z[1/p]."""
    n = rng.randint(-5, 5)
    return (n, 0) if ring.char else (n, rng.randint(0, 2))


def random_poly(rng, ring, trunc=None, size=6, cat=CAT3):
    return from_pairs(ring, [(random_mono(rng, cat),
                              *random_coefficient(rng, ring))
                             for _ in range(rng.randint(0, size))],
                      trunc, cat)


def brute_product(f, g):
    """The values of f * g: every pair of coefficient values multiplied
    as Fractions at the sum of the exponents, filtered through the left
    operand's truncation after the product is formed, then reduced mod
    char over F_p.  The orientation degree is summed here over the
    degree -2 symbols, apart from `Catalog.orientation_degree`."""
    mod, trunc, acc = f.ring.char, f.trunc, {}
    symbols = f.catalog.symbols
    for ma, ca in values(f).items():
        for mb, cb in values(g).items():
            m = tuple(a + b for a, b in zip(ma, mb))
            if trunc is not None and sum(
                    e for e, s in zip(m, symbols) if s.degree == -2) >= trunc:
                continue
            acc[m] = acc.get(m, 0) + Fraction(ca) * cb
    if mod:
        acc = {m: c % mod for m, c in acc.items()}
    return {m: c for m, c in acc.items() if c}


class TestMulOracle:
    """Poly.__mul__ stops each row at the truncation bound; a brute-force
    product over all pairs must agree, over CATX's two orientations t and
    x with Laurent exponents in both, and a truncation on
    either factor, on both (the tighter wins) or on neither."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_all_pairs_product(self, seed):
        rng = random.Random(seed)
        ring = rng.choice((ZP3, CoeffRing(0, 2), FP3))
        trunc = None if rng.random() < 0.2 else rng.randint(-2, 5)
        # either operand's own terms may lie past its truncation
        f = random_poly(rng, ring, size=10, cat=CATX)
        f = Poly(CATX, ring, dict(f.terms), trunc, f.den)
        g = random_poly(rng, ring, size=10, cat=CATX)
        if rng.random() < 0.5:
            g = Poly(CATX, ring, dict(g.terms), rng.randint(-2, 5), g.den)
        want = min((t for t in (trunc, g.trunc) if t is not None),
                   default=None)
        prod = f * g
        assert values(prod) == brute_product(
            Poly(CATX, ring, dict(f.terms), want, f.den), g)
        assert prod.trunc == want
        assert prod.den == f.den + g.den


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
def monomials(draw, cat=CAT3):
    """A monomial of cat: the orientations Laurent."""
    exps = []
    for s in cat.symbols:
        if s.degree == -2:
            exps.append(draw(st.integers(-2, 2)))
        else:
            exps.append(draw(st.integers(0, 2)))
    return tuple(exps)


@st.composite
def polys(draw, ring, max_k=0, cat=CAT3):
    """Polynomials over ring whose coefficients have denominators p^0 ..
    p^max_k."""
    triples = draw(st.lists(
        st.tuples(monomials(cat), st.integers(-6, 6), st.integers(0, max_k)),
        max_size=5))
    return from_pairs(ring, triples, cat=cat)


@st.composite
def series_polys(draw, ring):
    """CATX polynomials with non-negative t- and x-exponents: honest
    truncated series in both orientations.

    (Laurent monomials break t-adic truncation: t^-1 * t re-enters below any
    bound.  The engine never truncates Laurent pages, so the multiplication
    invariant is stated on series only.)"""
    f = draw(polys(ring, cat=CATX))
    return Poly.from_terms(CATX, ring,
                           ((m, c) for m, c in f.terms.items()
                            if all(m[i] >= 0 for i in CATX.orient)))


class TestProperties:
    @given(monomials(), monomials())
    def test_graded_commutativity(self, m1, m2):
        # every generator is even, so graded commutativity is commutativity
        x = Poly.from_terms(CAT3, ZP3, [(m1, 1)])
        y = Poly.from_terms(CAT3, ZP3, [(m2, 1)])
        assert x * y == y * x

    @given(monomials(), monomials())
    def test_bidegree_additive(self, m1, m2):
        (m,) = (Poly.from_terms(CAT3, ZP3, [(m1, 1)])
                * Poly.from_terms(CAT3, ZP3, [(m2, 1)])).terms
        assert CAT3.degree(m) == CAT3.degree(m1) + CAT3.degree(m2)
        assert CAT3.weight(m) == CAT3.weight(m1) + CAT3.weight(m2)

    @settings(max_examples=60)
    @given(series_polys(ZP3), series_polys(ZP3), st.integers(1, 6))
    def test_truncation_commutes_with_mul(self, f, g, bound):
        lhs = (f * g).with_trunc(bound)
        rhs = f.with_trunc(bound) * g.with_trunc(bound)
        assert values(lhs) == values(rhs)

    @settings(max_examples=60)
    @given(polys(ZP3), polys(ZP3))
    def test_reduce_mod_p_is_multiplicative(self, f, g):
        assert (f * g).reduce_mod_p(3) == f.reduce_mod_p(3) * g.reduce_mod_p(3)

    @settings(max_examples=60)
    @given(polys(CoeffRing(0, 2), max_k=2), polys(CoeffRing(0, 2), max_k=2))
    def test_reduce_at_another_prime_is_multiplicative(self, f, g):
        # 1/2 is a unit mod 3, so every Z[1/2] poly reduces mod 3
        assert (f * g).reduce_mod_p(3) == f.reduce_mod_p(3) * g.reduce_mod_p(3)

    @settings(max_examples=60)
    @given(polys(FP3), polys(FP3), polys(FP3))
    def test_associativity(self, f, g, h):
        assert (f * g) * h == f * (g * h)
