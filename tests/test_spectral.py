"""Spectral sequence engine: enumeration, Leibniz differentials, page
turning against a dense oracle, windowing honesty, collapse checking."""

import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (check_square_zero, dense_matrix, dense_page_dims,
                     dense_rank, dense_two_page_dims, enumerate_basis,
                     random_square_zero_case, random_two_page_case,
                     load_grid, mono_mul, reference_collapse_witnesses,
                     reference_flag_boundary, reference_killed,
                     reference_turn_page, run_cli,
                     unchecked_spec, window_contains)
from synto import spectral
from synto.cli import parse_presentation
from synto.graded import Catalog, GeneratorSymbol, VerificationError
from synto.linalg import vec_addmul
from synto.spectral import (ADAMS_RULE, BidegreeRule, ChartEntry, DiffEntry,
                            DifferentialSpec, InputError, Presentation,
                            SSPage, Window,
                            WindowInconclusiveError, build_page,
                            check_relation, collapse_check,
                            flag_boundary,
                            leibniz_extend, run_to_stable, turn_page)
from synto.summand import (default_table_window, derive_differentials, run_window,
                           tcminus_presentation, tp_presentation)


class TestWindow:
    def test_contains(self):
        w = Window(-4, 4, 0, 2)
        assert window_contains(w, 0, 0) and window_contains(w, -4, 2)
        assert not window_contains(w, 5, 0) and not window_contains(w, 0, 3)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Window(1, 0, 0, 0)
        with pytest.raises(ValueError, match="^empty window bounds$"):
            Window(0, 0, 1, 0)


class TestBidegreeRule:
    def test_adams_shift(self):
        assert ADAMS_RULE.shift(2) == (-1, 2)
        assert ADAMS_RULE.shift(7) == (-1, 7)

    def test_v2_style_shift(self):
        rule = BidegreeRule(deg_per_r=16, weight_per_r=8)
        assert rule.shift(1) == (15, 8)
        assert rule.shift(2) == (31, 16)


class TestPresentation:
    def test_laurent_enumeration_p2(self):
        # F_2[t^{±1}] ⊗ Λ(λ1, λ2), window deg [-4, 4] weight [-2, 2]:
        # t^k for k in -2..2, t^k·λ1 for k in 0..2, t^2·λ2 — nine monomials
        pres = tp_presentation(2)
        basis = enumerate_basis(pres, Window(-4, 4, -2, 2))
        cat = pres.catalog
        names = sorted(cat.mono_str(m) for m in basis)
        assert names == sorted([
            "t^-2", "t^-1", "1", "t", "t^2",
            "lambda1", "t*lambda1", "t^2*lambda1",
            "t^2*lambda2",
        ])
        assert len(basis) == 9

    def test_relation_kills_monomials(self):
        pres = tcminus_presentation(3)
        cat = pres.catalog
        assert pres.killed(cat.mono({"t": 1, "mu": 1}))
        assert pres.killed(cat.mono({"t": 2, "mu": 1, "lambda1": 1}))
        assert not pres.killed(cat.mono({"t": 2}))
        assert not pres.killed(cat.mono({"mu": 2}))

    def test_pure_power_relation_kills(self):
        # a cap x^3 = 0 is the relation x^3, and nothing else bounds x
        pres = Presentation(3, [GeneratorSymbol("x", 2, 1)], [{"x": 3}])
        assert pres.killed((3,)) and pres.killed((4,))
        assert not pres.killed((2,))
        assert pres._structural_ranges() == [(0, 2)]

    def test_killed_matches_the_reference(self):
        # relations over several generators, and monomials with a negative
        # exponent on a unit, which no relation may mention
        rng = random.Random(39)
        several = killed = unit_below_zero = 0
        for _ in range(300):
            gens = [GeneratorSymbol(f"g{i}", 2 * rng.randint(-2, 2), rng.randint(-3, 3),
                                    invertible=rng.random() < 0.3)
                    for i in range(rng.randint(1, 5))]
            bounded = [g.name for g in gens if not g.invertible]
            rels = [{name: rng.randint(0, 3)
                     for name in rng.sample(bounded, rng.randint(1, len(bounded)))}
                    for _ in range(rng.randint(0, 3) if bounded else 0)]
            pres = Presentation(3, gens, rels)
            several += any(sum(map(bool, rel)) > 1 for rel in pres.relations)
            for _ in range(20):
                m = tuple(rng.randint(-3, 4) for _ in gens)
                got = pres.killed(m)
                assert got == reference_killed(pres, m), (gens, pres.relations, m)
                killed += got
                unit_below_zero += got and any(g.invertible and e < 0
                                               for g, e in zip(gens, m))
        assert several >= 50 and 500 <= killed <= 5500 and unit_below_zero >= 100

    def test_odd_generator_exponent_guard(self):
        with pytest.raises(ValueError):
            Presentation(3, [GeneratorSymbol("a", 1, 0, invertible=True)])

    @pytest.mark.parametrize("gen, rel", [
        (GeneratorSymbol("x", 2, 1), {"x": -1}),
        (GeneratorSymbol("x", 1, 1, invertible=True), {}),
        (GeneratorSymbol("x", 2, 1, invertible=True), {"x": 1}),
    ])
    def test_bounds_that_describe_no_algebra(self, gen, rel):
        with pytest.raises(ValueError):
            Presentation(3, [gen], [rel] if rel else [])

    def test_unbounded_generator_is_inconclusive(self):
        pres = Presentation(3, [GeneratorSymbol("u", 0, 0, invertible=True)])
        with pytest.raises(WindowInconclusiveError):
            enumerate_basis(pres, Window(-2, 2, -2, 2))

    def test_binding_edges(self):
        pres = tp_presentation(2)
        # t is invertible: every edge in a finite window cuts the algebra
        # except the ones the exterior part cannot cross
        edges = pres.binding_edges(Window(-4, 4, -2, 2))
        assert "deg_min" in edges and "deg_max" in edges
        assert "weight_min" in edges and "weight_max" in edges

    def test_no_binding_edges_when_window_covers_algebra(self):
        pres = Presentation(3, [GeneratorSymbol("x", 0, 1),
                                GeneratorSymbol("y", -1, 2)], [{"x": 4}])
        assert pres.binding_edges(Window(-1, 0, 0, 5)) == set()
        # the algebra reaches each edge of that window: one step in binds it
        assert pres.binding_edges(Window(0, 0, 0, 5)) == {"deg_min"}
        assert pres.binding_edges(Window(-1, -1, 0, 5)) == {"deg_max"}
        assert pres.binding_edges(Window(-1, 0, 1, 5)) == {"weight_min"}
        assert pres.binding_edges(Window(-1, 0, 0, 4)) == {"weight_max"}

    def test_relations_bound_the_edges(self):
        # F_3[x, y]/(x^3, y^3, xy) in degree 2 ends in degree 4 (x^2, y^2)
        pres = Presentation(3, [GeneratorSymbol("x", 2, 0), GeneratorSymbol("y", 2, 0)],
                            [{"x": 3}, {"y": 3}, {"x": 1, "y": 1}])
        assert pres.binding_edges(Window(0, 4, 0, 0)) == set()
        assert pres.binding_edges(Window(0, 3, 0, 0)) == {"deg_max"}
        # Λ(x, y)/(xy) in degree 1 ends in degree 1
        pres = Presentation(3, [GeneratorSymbol("x", 1, 0), GeneratorSymbol("y", 1, 0)],
                            [{"x": 1, "y": 1}])
        assert pres.binding_edges(Window(0, 1, 0, 0)) == set()

    def test_a_capped_odd_generator_bounds_the_edges(self):
        # the relation y caps y at 0, so every monomial x^a has degree 0
        pres = Presentation(3, [GeneratorSymbol("x", 0, 1),
                                GeneratorSymbol("y", 1, 0)], [{"x": 3}, {"y": 1}])
        assert pres.binding_edges(Window(0, 0, 0, 2)) == set()
        assert enumerate_basis(pres, Window(-4, 4, -4, 4)) == [(0, 0), (1, 0), (2, 0)]

    def test_units_push_through_negative_exponents(self):
        # t^k for k < 0 reaches degrees above any bound and weights below
        pres = tp_presentation(2)
        assert pres.binding_edges(Window(-40, 40, -20, 20)) == {
            "deg_min", "deg_max", "weight_min", "weight_max"}

    def test_pure_power_relation_bounds_the_window(self):
        # x in bidegree (0, 0): only the relation x^3 bounds its exponent
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0), GeneratorSymbol("y", 1, 1)],
                            [{"x": 3}])
        assert len(enumerate_basis(pres, Window(0, 5, 0, 1))) == 6

    def test_relation_one_kills_every_monomial(self):
        for gens in ([], [GeneratorSymbol("x", 2, 0)],
                     [GeneratorSymbol("u", 0, 0, invertible=True),
                      GeneratorSymbol("y", 1, 1)]):
            pres = Presentation(3, gens, [{}])
            assert enumerate_basis(pres, Window(-4, 4, -4, 4)) == []
            assert pres.binding_edges(Window(1, 1, 1, 1)) == set()

    def test_no_generators_leave_f_p_in_bidegree_zero(self):
        pres = Presentation(3, [])
        assert enumerate_basis(pres, Window(0, 0, 0, 0)) == [()]
        assert pres.binding_edges(Window(1, 1, 0, 0)) == {"deg_min"}

    def test_enumeration_never_calls_killed(self, monkeypatch):
        def refuse(self, m):
            raise AssertionError("enumerate_basis called killed")

        monkeypatch.setattr(Presentation, "killed", refuse)
        pres = tcminus_presentation(5)
        window = Window(-2, 2 * 25 + 2 * 5 + 2, 0, 50)
        basis = enumerate_basis(pres, window)
        cat = pres.catalog
        t, mu = cat.index["t"], cat.index["mu"]
        assert basis and not any(m[t] and m[mu] for m in basis)


def _random_presentation(rng):
    """1–4 generators, each odd (capped at exponent 0 or 1 or not capped),
    invertible, capped or plain, with degrees and weights in −4..4 (odd
    degree for the odd kind only), a cap c as the relation x^(c+1), up to
    two more monomial relations (none on an invertible generator), and a
    window inside ±8."""
    gens = []
    rels = []
    for name in "abcd"[:rng.randint(1, 4)]:
        kind = rng.choice(("odd", "invertible", "capped", "plain"))
        # the degree decides the parity: odd for the odd kind, else even
        deg = rng.choice((-3, -1, 1, 3) if kind == "odd" else (-4, -2, 0, 2, 4))
        wt = rng.randint(-4, 4)
        gens.append(GeneratorSymbol(name, deg, wt, invertible=kind == "invertible"))
        cap = (rng.randint(0, 4) if kind == "capped"
               else rng.choice((None, 0, 1)) if kind == "odd" else None)
        if cap is not None:
            rels.append({name: cap + 1})
    # a relation on an invertible generator would kill the unit
    bounded = [g for g in gens if not g.invertible]
    for _ in range(rng.choice((0, 0, 1, 2)) if bounded else 0):
        rel = {g.name: rng.randint(0, 2) for g in bounded}
        rel[rng.choice(bounded).name] = rng.randint(1, 2)
        rels.append(rel)
    d0, d1 = sorted(rng.randint(-8, 8) for _ in range(2))
    w0, w1 = sorted(rng.randint(-8, 8) for _ in range(2))
    return Presentation(3, gens, rels), Window(d0, d1, w0, w1)


def _structural(g, lo, hi):
    """The exponents of g in [lo, hi] that the free graded-commutative
    algebra allows; `killed` is left to apply the relations, caps among them."""
    if g.degree % 2:
        lo, hi = max(lo, 0), min(hi, 1)
    elif not g.invertible:
        lo = max(lo, 0)
    return range(lo, hi + 1)


def _edges_reached(pres, win, monos):
    """The edges of win beyond which one of monos lies."""
    cat = pres.catalog
    edges = set()
    for m in monos:
        d, w = cat.bidegree(m)
        edges |= {e for e, beyond in (("deg_min", d < win.deg_min),
                                      ("deg_max", d > win.deg_max),
                                      ("weight_min", w < win.weight_min),
                                      ("weight_max", w > win.weight_max)) if beyond}
    return edges


class TestEnumerationOracle:
    """enumerate_basis and binding_edges against brute force that honours
    `killed`, over random presentations with relations and capped odd
    generators."""

    def test_random_presentations(self):
        rng = random.Random(7)
        runs, enumerated, exact = 300, 0, 0
        for _ in range(runs):
            pres, win = _random_presentation(rng)
            cat = pres.catalog
            try:
                basis = enumerate_basis(pres, win)
            except WindowInconclusiveError:
                basis = None
            if basis is not None:
                enumerated += 1
                # a box twice as wide as the claimed ranges, plus 4
                axes = []
                for g, (lo, hi) in zip(pres.gens, pres.exponent_ranges(win)):
                    pad = max(hi - lo, 0) // 2 + 2
                    axes.append(_structural(g, lo - pad, hi + pad))
                want = sorted(m for m in itertools.product(*axes)
                              if window_contains(win, *cat.bidegree(m))
                              and not pres.killed(m))
                assert basis == want, (pres.gens, pres.relations, win)
            # the quotient's monomials with exponents in -5..5; an exponent
            # at ±5 means the quotient may go on beyond the box
            alive = [m for m in itertools.product(
                *(_structural(g, -5, 5) for g in pres.gens)) if not pres.killed(m)]
            edges = pres.binding_edges(win)
            reached = _edges_reached(pres, win, alive)
            assert reached <= edges, (pres.gens, pres.relations, win)
            if not any(abs(e) == 5 for m in alive for e in m):
                exact += 1
                assert edges == reached, (pres.gens, pres.relations, win)
        assert enumerated >= runs // 2
        assert exact >= runs // 5


def xy_complex():
    """d(x) = y on F_3[x]/(x^3) ⊗ Λ(y), a quotient d preserves, as
    d(x^3) = 3x^2·y = 0: homology is {1, x^2y}.

    By hand: d(x^a) = a·x^(a-1)·y, so x and x^2 map onto y and 2xy, and
    d(x^a·y) = a·x^(a-1)·y^2 = 0.  The cycles are 1, y, xy and x^2y, the
    boundaries y and xy.  The window (-1, 0, 0, 5) holds all six monomials,
    x^a at (0, a) and x^a·y at (-1, a + 2)."""
    pres = Presentation(3, [GeneratorSymbol("x", 0, 1),
                            GeneratorSymbol("y", -1, 2)], [{"x": 3}])
    spec = DifferentialSpec(pres, [
        DiffEntry(1, "x", 1, (({"y": 1}, 1),))])
    return pres, Window(-1, 0, 0, 5), spec


class TestMonoMulReference:
    """The Koszul product of monomials in `helpers`, the reference that the
    Leibniz tests multiply by."""

    CAT = Catalog([GeneratorSymbol("t", -2, 1), GeneratorSymbol("v1", 4, 0),
                   GeneratorSymbol("lambda1", 5, 1),
                   GeneratorSymbol("lambda2", 17, 1)])

    def mono(self, **exps):
        return self.CAT.mono(exps)

    def test_mono_mul_even(self):
        s, m = mono_mul(self.CAT, self.mono(t=2), self.mono(t=-1, v1=1))
        assert s == 1 and m == self.mono(t=1, v1=1)

    def test_mono_mul_odd_square_is_none(self):
        lam = self.mono(lambda1=1)
        assert mono_mul(self.CAT, lam, lam) is None

    def test_mono_mul_koszul_sign(self):
        # lambda2 * lambda1 = -lambda1 * lambda2 (catalog order fixed)
        l1, l2 = self.mono(lambda1=1), self.mono(lambda2=1)
        s, m = mono_mul(self.CAT, l2, l1)
        assert s == -1 and m == self.mono(lambda1=1, lambda2=1)
        s, m = mono_mul(self.CAT, l1, l2)
        assert s == 1 and m == self.mono(lambda1=1, lambda2=1)


class TestLeibniz:
    def test_dt_squared(self):
        # d_p(t^2) = 2 t^{p+2} λ1: zero at p = 2, alive at p = 3
        for p, want in ((2, {}), (3, None)):
            spec = derive_differentials(p, "tp")
            cat = spec.pres.catalog
            got = leibniz_extend(spec, p, cat.mono({"t": 2}))
            if p == 2:
                assert got == {}
            else:
                assert got == {cat.mono({"t": p + 2, "lambda1": 1}): 2}

    def test_out_of_domain_returns_none(self):
        # d_{p^2} is defined on powers of t^p only
        spec = derive_differentials(2, "tp")
        cat = spec.pres.catalog
        assert leibniz_extend(spec, 4, cat.mono({"t": 3})) is None
        assert leibniz_extend(spec, 4, cat.mono({"t": 4})) is not None

    def test_no_entries_means_zero(self):
        spec = derive_differentials(2, "tp")
        cat = spec.pres.catalog
        assert leibniz_extend(spec, 3, cat.mono({"t": 5})) == {}

    def test_koszul_sign_past_odd_factor(self):
        # d(a·b) = -a·d(b) when a is odd of degree 1
        pres = Presentation(3, [GeneratorSymbol("a", 1, 0),
                                GeneratorSymbol("b", 1, 1),
                                GeneratorSymbol("e", 0, 2)], [{"e": 3}])
        cat = pres.catalog
        spec = DifferentialSpec(pres, [
            DiffEntry(1, "b", 1, (({"e": 1}, 1),))])
        got = leibniz_extend(spec, 1, cat.mono({"a": 1, "b": 1}))
        assert got == {cat.mono({"a": 1, "e": 1}): 2}

    def test_odd_square_vanishes_in_any_characteristic(self):
        # d(x) = l1 + l2, so d(x*l1) = l1*l1 + l2*l1 = -l1*l2: the odd
        # square is zero at p = 2 too, where the sign rule alone says
        # nothing
        for p in (2, 3, 5):
            pres = Presentation(p, [GeneratorSymbol("x", 2, 0),
                                    GeneratorSymbol("l1", 1, 1),
                                    GeneratorSymbol("l2", 1, 1)])
            cat = pres.catalog
            spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
                ({"l1": 1}, 1), ({"l2": 1}, 1)))])
            got = leibniz_extend(spec, 1, cat.mono({"x": 1, "l1": 1}))
            assert got == {cat.mono({"l1": 1, "l2": 1}): p - 1}

    @pytest.mark.parametrize("p", [2, 3])
    def test_image_term_with_an_odd_square_is_dropped(self, p):
        # y^2*z is zero, so d_1(x) = y^2*z is d_1(x) = 0, as a killed term
        # would be; the page then keeps every class
        pres = Presentation(p, [GeneratorSymbol("x", 2, 0),
                                GeneratorSymbol("y", 1, 1),
                                GeneratorSymbol("z", -1, -1)])
        cat = pres.catalog
        spec = DifferentialSpec(pres, [
            DiffEntry(1, "x", 1, (({"y": 2, "z": 1}, 1),))])
        assert spec.by_page(1) == {cat.index["x"]: (1, ())}
        assert leibniz_extend(spec, 1, cat.mono({"x": 1})) == {}
        page = build_page(pres, Window(-1, 6, -1, 2))
        assert turn_page(page, spec).dims() == page.dims()
        # a zero term is still refused in the wrong bidegree
        with pytest.raises(ValueError, match=r"^image term y\^2 of d_1\(x\^1\) "
                                             r"has bidegree \(2, 2\), "
                                             r"expected \(1, 1\)$"):
            DifferentialSpec(pres, [DiffEntry(1, "x", 1, (({"y": 2}, 1),))])

    @pytest.mark.parametrize("case", [*range(60), "odd-source", "even-source"])
    def test_matches_the_factor_by_factor_rule(self, case):
        if isinstance(case, int):
            pres, window, spec, r = random_square_zero_case(random.Random(case))
        else:
            pres, window, spec, r = _odd_factors_on_both_sides(case)
        for m in enumerate_basis(pres, window):
            assert leibniz_extend(spec, r, m) == _factor_by_factor(spec, r, m), \
                pres.catalog.mono_str(m)

    @pytest.mark.parametrize("image", [
        {"a": 1, "e": 1}, {"a": 1, "h": 1}, {"a": 1, "b": 1, "e": 1, "h": 1},
        {"a": 1, "c": 1, "e": 1, "h": 1}, {"a": 1, "e": 1, "f": 1, "h": 1},
        {"g": 1, "y": 1}])
    def test_odd_source_matches_the_factor_by_factor_rule(self, image):
        # d_1 of the odd g, whose image has odd factors before and after g:
        # leibniz_extend never tests g and flips no sign for it.  Every m
        # holds each odd generator at most once, as on any page
        spec = _odd_source_spec(image)
        for m in itertools.product((0, 1), repeat=8):
            assert leibniz_extend(spec, 1, m) == _factor_by_factor(spec, 1, m), m

    def test_never_multiplies_monomials_or_tests_absent_relations(self, monkeypatch):
        # leibniz_extend forms each term from its compiled page, with no
        # product of monomials, so without relations Presentation.killed
        # never runs
        tp = derive_differentials(5, "tp")
        tp_window = run_window(5, "tp", *default_table_window(5))
        _, derham_pres, derham, derham_window = parse_presentation(DERHAM_SMALL)
        tcminus = derive_differentials(5, "tcminus")
        cat = tcminus.pres.catalog
        real_killed = Presentation.killed
        killed_calls = []

        def counted(pres, m):
            if not pres.relations:
                raise AssertionError("leibniz_extend tested an absent relation")
            killed_calls.append(m)
            return real_killed(pres, m)

        monkeypatch.setattr(Presentation, "killed", counted)
        for pres, spec, window in ((tp.pres, tp, tp_window),
                                   (derham_pres, derham, derham_window)):
            page = build_page(pres, window)
            for r in spec.pages:
                dmap = check_square_zero(page, spec, r)
                assert any(dmap.values())
        assert not killed_calls
        # TC^-'s relation t*mu still drops the term t^6*mu*lambda1 of d_5(t*mu)
        assert leibniz_extend(tcminus, 5, cat.mono({"t": 1, "mu": 1})) == {}
        assert killed_calls == [cat.mono({"t": 6, "mu": 1, "lambda1": 1})]

    @settings(max_examples=80)
    @given(st.integers(0, 4), st.integers(0, 1), st.integers(0, 1),
           st.integers(0, 4), st.integers(0, 1), st.integers(0, 1))
    def test_product_rule(self, a1, e1, f1, a2, e2, f2):
        p = 3
        spec = derive_differentials(p, "tp")
        cat = spec.pres.catalog
        m1 = cat.mono({"t": a1, "lambda1": e1, "lambda2": f1})
        m2 = cat.mono({"t": a2, "lambda1": e2, "lambda2": f2})
        lhs, rhs = _product_rule_sides(spec, p, m1, m2)
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(60))
    def test_product_rule_on_random_presentations(self, seed):
        # several odd generators, caps and relations: d_r is a derivation
        # only if the reference mono_mul and leibniz_extend read one odd set
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        basis = enumerate_basis(pres, window)
        for m1 in basis:
            for m2 in basis:
                lhs, rhs = _product_rule_sides(spec, r, m1, m2)
                assert lhs == rhs, (pres.catalog.mono_str(m1),
                                    pres.catalog.mono_str(m2))


def _factor_by_factor(spec, r, m):
    """d_r(m) with each Leibniz term multiplied out factor by factor with
    `mono_mul`: m / g_i^e₀ cut before and after g_i, the image between
    them; None outside the domain."""
    pres, cat, p = spec.pres, spec.pres.catalog, spec.pres.p
    want = {}
    for i, (e0, image) in spec.by_page(r).items():
        if not m[i]:
            continue
        if m[i] % e0:
            return None
        front = tuple(m[j] if j < i else m[i] - e0 if j == i else 0
                      for j in range(len(m)))
        back = tuple(m[j] if j > i else 0 for j in range(len(m)))
        sign = (-1) ** sum(m[j] * cat.symbols[j].degree for j in range(i))
        for mono, c in image:
            s1 = mono_mul(cat, front, mono)
            s2 = s1 and mono_mul(cat, s1[1], back)
            if s2 and not pres.killed(s2[1]):
                k = (want.get(s2[1], 0)
                     + m[i] // e0 * c * sign * s1[0] * s2[0]) % p
                want[s2[1]] = k
    return {mono: c for mono, c in want.items() if c}


def _odd_source_spec(image):
    """d_1(g) = image over eight odd generators a, b, g, c, e, f, h, y at
    p = 3, where g sits between a, b and c, e, f, h."""
    gens = [GeneratorSymbol("a", 1, 1), GeneratorSymbol("b", 1, 0),
            GeneratorSymbol("g", 1, 0), GeneratorSymbol("c", 1, 0),
            GeneratorSymbol("e", -1, 0), GeneratorSymbol("f", 1, 0),
            GeneratorSymbol("h", -1, 0), GeneratorSymbol("y", -1, 1)]
    pres = Presentation(3, gens)
    return DifferentialSpec(pres, [
        DiffEntry(1, "g", 1, ((image, 1),))])


def _odd_factors_on_both_sides(source):
    """d_1 of g on odd a, b, then g, then odd c, e, f, h: the image a·e (g
    odd) or a·e·h (g even) has odd factors before and after g, and each odd
    b, c or f between g and an image factor flips the sign when present."""
    odd = source == "odd-source"
    gens = [GeneratorSymbol("a", 1, 1), GeneratorSymbol("b", 1, 0),
            GeneratorSymbol("g", 1 if odd else 2, 0), GeneratorSymbol("c", 1, 0),
            GeneratorSymbol("e", -1, 0), GeneratorSymbol("f", 1, 0),
            GeneratorSymbol("h", 1, 0)]
    pres = Presentation(3, gens)
    image = {"a": 1, "e": 1} if odd else {"a": 1, "e": 1, "h": 1}
    spec = DifferentialSpec(pres, [
        DiffEntry(1, "g", 1, ((image, 1),))])
    return pres, Window(-2, 9, 0, 1), spec, 1


def _product_rule_sides(spec, r, m1, m2):
    """d_r(m1·m2) and d_r(m1)·m2 + (-1)^|m1| m1·d_r(m2), each with the
    terms the presentation kills dropped; both are {} when m1·m2 is an odd
    square.  A killed monomial stays killed under a product, so dropping
    terms before or after multiplying gives the same sum."""
    pres, cat, p = spec.pres, spec.pres.catalog, spec.pres.p
    prod = mono_mul(cat, m1, m2)
    if prod is None:
        return {}, {}
    sign12, m12 = prod
    lhs = {m: (c * sign12) % p
           for m, c in leibniz_extend(spec, r, m12).items()}

    def times(dm, mono, side):
        out = {}
        for m, c in dm.items():
            rr = mono_mul(cat, m, mono) if side == "right" \
                else mono_mul(cat, mono, m)
            if rr is None or pres.killed(rr[1]):
                continue
            s, mm = rr
            v = (out.get(mm, 0) + c * s) % p
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
        return out

    rhs = times(leibniz_extend(spec, r, m1), m2, "right")
    sgn = -1 if cat.degree(m1) % 2 else 1
    for m, c in times(leibniz_extend(spec, r, m2), m1, "left").items():
        v = (rhs.get(m, 0) + sgn * c) % p
        if v:
            rhs[m] = v
        else:
            rhs.pop(m, None)
    return lhs, rhs


class TestNoOddSquare:
    """`leibniz_extend` assumes that m holds each odd generator at most
    once.  No E₁ monomial and no compiled image term breaks that: the
    monomials a page turn reads and those `DifferentialSpec` and
    `check_relation` hand it."""

    @staticmethod
    def odd_squares(pres, window, spec):
        """The E₁ monomials and compiled image terms with an odd square."""
        odd = pres.catalog.odd
        monos = [m for d in build_page(pres, window).data.values() for m in d.monos]
        for rows in spec._rows.values():
            for i, e0, terms, _before in rows:
                for delta, *_ in terms:
                    monos.append(tuple(x + e0 if j == i else x
                                       for j, x in enumerate(delta)))
        return [m for m in monos if any(m[k] > 1 for k in odd)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("structure", ["tp", "tcminus"])
    def test_presets(self, structure, p):
        spec = derive_differentials(p, structure)
        window = run_window(p, structure, *default_table_window(p))
        assert spec.pres.catalog.odd
        assert not self.odd_squares(spec.pres, window, spec)

    def test_derham_files_and_quotients(self):
        files = 0
        for _argv, text in load_grid().ss_commands():
            if text is not None:
                _prime, pres, spec, window = parse_presentation(text)
                assert not self.odd_squares(pres, window, spec), text
                files += 1
        assert files == 71

    @pytest.mark.parametrize("draw", [random_square_zero_case,
                                      random_two_page_case])
    def test_random_draws(self, draw):
        odd = 0
        for seed in range(300):
            pres, window, spec, *_pages = draw(random.Random(seed))
            assert not self.odd_squares(pres, window, spec), seed
            odd += bool(pres.catalog.odd)
        assert odd >= 100


class TestDiffEntryRefusals:
    """DifferentialSpec refuses an entry that names no d_r of a power."""

    @staticmethod
    def pres():
        return Presentation(3, [GeneratorSymbol("x", 2, 0),
                                GeneratorSymbol("y", 1, 1)])

    @pytest.mark.parametrize("page, base_exp", [(0, 1), (1, 0)])
    def test_pages_and_base_exponents_are_positive(self, page, base_exp):
        with pytest.raises(ValueError,
                           match="^pages and base exponents are positive$"):
            DifferentialSpec(self.pres(), [DiffEntry(page, "x", base_exp, ())])

    def test_odd_generator_has_no_square(self):
        with pytest.raises(ValueError, match="^odd generator y has no power 2$"):
            DifferentialSpec(self.pres(), [DiffEntry(1, "y", 2, ())])


class TestCheckRelation:
    """d_r must map each relation into the relation ideal."""

    @staticmethod
    def spec(relation):
        # F_3[t, s] with s odd and d_2(t^3) = s; d_2 acts on powers of t^3
        pres = Presentation(3, [GeneratorSymbol("t", 2, 0),
                                GeneratorSymbol("s", 5, 2)], [relation])
        return DifferentialSpec(
            pres, [DiffEntry(2, "t", 3, (({"s": 1}, 1),))])

    @pytest.mark.parametrize("relation", [{"t": 2}, {"t": 3}])
    def test_relation_lifted_into_the_domain(self, relation):
        # t^2 is outside d_2's domain; its least multiple inside is t^3,
        # and d_2(t^3) = s is not a multiple of the relation.  The spec
        # checks every relation when it is built
        with pytest.raises(InputError, match=r"d_2\(t\^3\) has the term s") as e:
            self.spec(relation)
        assert e.value.where == ("rel", 0)

    def test_preserved_relation(self):
        # d_2(t^3*s) = s^2 = 0
        spec = self.spec({"t": 3, "s": 1})
        check_relation(spec, spec.pres.relations[0])

    def test_odd_square_relation_holds(self):
        # y^2 = 0 in the free algebra already, though the power rule
        # d(y^2) = 2y*d(y) gives 2x*y
        pres = Presentation(3, [GeneratorSymbol("x", 0, 1),
                                GeneratorSymbol("y", 1, 0)], [{"y": 2}])
        spec = DifferentialSpec(pres, [
            DiffEntry(1, "y", 1, (({"x": 1}, 1),))])
        check_relation(spec, pres.relations[0])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_t_mu_is_preserved_on_every_page(self, p):
        spec = derive_differentials(p, "tcminus")
        check_relation(spec, spec.pres.relations[0])

    @pytest.mark.parametrize("draw", [random_square_zero_case,
                                      random_two_page_case])
    def test_random_oracles_draw_preserved_quotients(self, draw):
        # caps and relations alike: d is defined on every drawn quotient
        for seed in range(300):
            pres, _window, spec, *_pages = draw(random.Random(seed))
            for rel in pres.relations:
                check_relation(spec, rel)


class TestSquareZero:
    """DifferentialSpec refuses d_r² ≠ 0 on the generators; the per-monomial
    oracle (helpers.py) agrees on each case."""

    def test_good_spec_passes(self):
        pres, window, spec = xy_complex()
        check_square_zero(build_page(pres, window), spec, 1)

    def test_bad_spec_raises(self):
        # d(x) = y, d(y) = z with matching bidegrees: d² (x) = z ≠ 0.  d
        # preserves x^3 (d(x^3) = 3x^2·y = 0) and z^2, as d(z) = 0
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0),
                                GeneratorSymbol("y", -1, 1),
                                GeneratorSymbol("z", -2, 2)], [{"x": 3}, {"z": 2}])
        entries = [DiffEntry(1, "x", 1, (({"y": 1}, 1),)),
                   DiffEntry(1, "y", 1, (({"z": 1}, 1),))]
        with pytest.raises(ValueError, match="^d_1 squared is nonzero on x: "
                                             "d_1 of its image has the term z$"):
            DifferentialSpec(pres, entries)
        page = build_page(pres, Window(-3, 0, 0, 3))
        with pytest.raises(VerificationError, match="squared"):
            check_square_zero(page, unchecked_spec(pres, entries), 1)

    def test_base_power_is_named(self):
        # d_1(x^2) = y and d_1(y) = z: d² (x^2) = z ≠ 0.  With u = x^2,
        # d(u^3) = 3u^2·y = 0 preserves x^6
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0),
                                GeneratorSymbol("y", -1, 1),
                                GeneratorSymbol("z", -2, 2)], [{"x": 6}])
        with pytest.raises(ValueError, match=r"^d_1 squared is nonzero on x\^2: "
                                             "d_1 of its image has the term z$"):
            DifferentialSpec(pres, [
                DiffEntry(1, "x", 2, (({"y": 1}, 1),)),
                DiffEntry(1, "y", 1, (({"z": 1}, 1),))])

    def test_square_nonzero_only_outside_the_window(self):
        # d(x) = y and d(y) = w: the window of weight 1 and 2 holds y and w
        # but not x, at weight 0, and d² is zero on y and w, so the
        # per-monomial oracle passes; but d² (x) = w ≠ 0 in the algebra, and
        # the spec is refused
        pres = Presentation(3, [GeneratorSymbol("x", 2, 0),
                                GeneratorSymbol("y", 1, 1),
                                GeneratorSymbol("w", 0, 2)])
        entries = [DiffEntry(1, "x", 1, (({"y": 1}, 1),)),
                   DiffEntry(1, "y", 1, (({"w": 1}, 1),))]
        page = build_page(pres, Window(0, 1, 1, 2))
        assert sorted(page.data) == [(0, 2), (1, 1)]
        check_square_zero(page, unchecked_spec(pres, entries), 1)
        with pytest.raises(ValueError, match="^d_1 squared is nonzero on x"):
            DifferentialSpec(pres, entries)


class TestSquareZeroOracle:
    """Whatever DifferentialSpec's generator-level check accepts, the
    per-monomial oracle (helpers.py) accepts too, on each spec page over the
    input's whole window."""

    @staticmethod
    def oracle_passes(spec, window):
        page = build_page(spec.pres, window)
        for r in spec.pages:
            check_square_zero(page, spec, r)

    @pytest.mark.parametrize("draw", [random_square_zero_case,
                                      random_two_page_case])
    def test_random_draws(self, draw):
        for seed in range(300):
            _pres, window, spec, *_pages = draw(random.Random(seed))
            self.oracle_passes(spec, window)

    def test_ss_grid_inputs_and_presets_to_41(self):
        # the ss grid holds tp and tcminus at every prime up to 41 and every
        # de Rham file and quotient, each with the window `ss` runs it on
        presets = files = 0
        for argv, text in load_grid().ss_commands():
            if text is None:
                structure, p = argv[2], int(argv[4])
                spec = derive_differentials(p, structure)
                window = run_window(p, structure, *default_table_window(p))
                presets += 1
            else:
                _prime, _pres, spec, window = parse_presentation(text)
                files += 1
            self.oracle_passes(spec, window)
        assert (presets, files) == (26, 71)


# Omega(F_3[x1, x2]) in degrees 0..8, with the one page d_1
DERHAM_SMALL = """prime 3
gen x1 deg 2 weight 0 parity even
gen x2 deg 2 weight 0 parity even
gen dx1 deg 1 weight 1 parity odd
gen dx2 deg 1 weight 1 parity odd
diff page 1 x1 -> dx1
diff page 1 x2 -> dx2
window deg 0 8 weight 0 2
"""


def _shared_support_case():
    """(pres, spec, window): a, b and c in (2, 0), each cubed to zero, odd w
    in (1, 1) and v in (1, 2), with d_1 a = d_1 b = d_1 c = w and d_2 c = v
    at p = 3; the window holds the whole algebra.  The d_1 cycles at (2, 0)
    are b - c and a - c, so E_2 there has two classes whose RREF rows share
    a coordinate, and d_2 reads that monomial for both."""
    pres = Presentation(3, [GeneratorSymbol(n, 2, 0) for n in "abc"]
                        + [GeneratorSymbol("w", 1, 1), GeneratorSymbol("v", 1, 2)],
                        [{n: 3} for n in "abc"])
    w, v = {"w": 1}, {"v": 1}
    spec = DifferentialSpec(pres, [*(DiffEntry(1, n, 1, ((w, 1),)) for n in "abc"),
                                   DiffEntry(2, "c", 1, ((v, 1),))])
    return pres, spec, Window(0, 14, 0, 3)


class TestDifferentialMap:
    """turn_page computes d_r(m) only for a monomial of an alive source class
    whose target has alive classes, and at most once per page."""

    @pytest.mark.parametrize("source", ["preset-tp-p3", "derham", "shared-support"])
    def test_leibniz_once_per_page_and_monomial(self, source, monkeypatch):
        if source == "derham":
            _, pres, spec, window = parse_presentation(DERHAM_SMALL)
        elif source == "shared-support":
            pres, spec, window = _shared_support_case()
        else:
            spec = derive_differentials(3, "tp")
            pres, window = spec.pres, run_window(3, "tp", *default_table_window(3))
        calls = collections.Counter()

        def counted(spec, r, m):
            calls[r, m] += 1
            return leibniz_extend(spec, r, m)

        monkeypatch.setattr(spectral, "leibniz_extend", counted)
        page = e1 = build_page(pres, window)
        flags = flag_boundary(page, spec)
        shared = False
        for r in spec.pages:
            page = SSPage(pres, window, r, page.data, flags)
            shift = spec.rule.shift(r)
            want = set()
            for b, d in page.data.items():
                target = page.data.get((b[0] + shift[0], b[1] + shift[1]))
                if d.alive and target is not None and target.alive:
                    support = [i for v in d.alive for i in v]
                    shared |= len(support) > len(set(support))
                    want |= {d.monos[i] for i in support}
            page = turn_page(page, spec)
            got = {m for rr, m in calls if rr == r}
            # a flagged class outside d_r's domain stops at its first such
            # monomial, so a flagged source may leave some unread
            flagged = {m for b in flags for m in e1.data[b].monos}
            assert want - flagged <= got <= want
            assert got < {m for d in e1.data.values() for m in d.monos}
        assert calls and max(calls.values()) == 1
        assert shared == (source == "shared-support")


def _snapshot(page):
    """Deep copy of every alive vector and boundary row of a page."""
    return {b: ([dict(v) for v in d.alive],
                None if d.boundaries is None
                else {k: dict(v) for k, v in d.boundaries.rows.items()})
            for b, d in page.data.items()}


def _turn_keeping_input(page, spec):
    before = _snapshot(page)
    nxt = turn_page(page, spec)
    assert _snapshot(page) == before, "turn_page changed its input page"
    return nxt


class TestTurnPageKeepsInput:
    """A turned page shares alive vectors and boundary rows with its input
    (vectors are values, see linalg), so turn_page must change none of the
    input's."""

    def test_xy_complex(self):
        pres, window, spec = xy_complex()
        page2 = _turn_keeping_input(build_page(pres, window), spec)
        # a real page 2 over the boundaries page 1 left behind
        _turn_keeping_input(page2, DifferentialSpec(pres, [
            DiffEntry(2, "x", 1, ())]))

    def test_two_term_boundary(self):
        # d(x) = y + z: the boundary row y + z has a term at the pivot of the
        # survivor y, so inserting y into a copy of the boundaries rewrites
        # that row, which the copy shares with the page it was copied from.
        # x^3 = 0 is preserved, as d(x^3) = 3x^2(y + z) = 0.
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0),
                                GeneratorSymbol("y", -1, 1),
                                GeneratorSymbol("z", -1, 1)], [{"x": 3}])
        spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
            ({"y": 1}, 1), ({"z": 1}, 1)))])
        page2 = _turn_keeping_input(build_page(pres, Window(-2, 0, 0, 2)), spec)
        # by hand: d(x^a) = a·x^(a-1)(y + z), d(x^a·y) = -a·x^(a-1)·yz and
        # d(x^a·z) = a·x^(a-1)·yz.  (0, 0) keeps 1.  (-1, 1) has the cycles
        # z, y, x(y + z) and x^2(y + z) over the boundaries y + z and
        # x(y + z): classes y and x^2(y + z), whose pivot is x^2z.  (-2, 2)
        # holds yz, xyz and x^2yz over the boundaries yz and xyz.
        assert sorted(page2.rep_names()) == ["1", "x^2*y*z", "x^2*z", "y"]
        # (-1, 1) holds z < y < xz < xy < x^2z < x^2y in catalog order
        assert page2.data[(-1, 1)].boundaries.rows == {0: {0: 1, 1: 1},
                                                       2: {2: 1, 3: 1}}
        _turn_keeping_input(page2, DifferentialSpec(pres, [
            DiffEntry(2, "x", 1, ())]))

    @pytest.mark.parametrize("seed", [943, 1318, 2572, 4396012, *range(40)])
    def test_random_oracle_seeds(self, seed):
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r < r:
            page = turn_page(page, spec)
        nxt = _turn_keeping_input(page, spec)
        # d_r once more, on the homology page and its boundaries
        again = _turn_keeping_input(
            SSPage(pres, window, r, nxt.data, nxt.flags), spec)
        assert again.dims() == nxt.dims()

    def test_tp_p3_preset(self, monkeypatch):
        monkeypatch.setattr(spectral, "turn_page", _turn_keeping_input)
        code, _out, err = run_cli(["ss", "--preset", "tp", "--prime", "3"])
        assert code == 0, err


class TestTurnPage:
    def test_hand_computed_homology(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        assert page.total_dim() == 6
        nxt = turn_page(page, spec)
        assert nxt.r == 2
        assert sorted(nxt.rep_names()) == ["1", "x^2*y"]
        assert nxt.dims() == {(0, 0): 1, (-1, 4): 1}

    def test_page_without_entries_is_identity(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        page2 = turn_page(turn_page(page, spec), spec)  # page 2 -> 3: no d_2
        assert page2.r == 3
        assert page2.total_dim() == 2

    def test_representatives_are_smallest_monomials(self):
        pres, window, spec = xy_complex()
        nxt = turn_page(build_page(pres, window), spec)
        for b, mono, vec in nxt.class_reps():
            assert mono == nxt.data[b].monos[min(vec)]

    def test_rank_bookkeeping_raises_on_stale_state(self):
        # x is its own representative twice in (0, 0), which no d_1 hits:
        # the kernel counts two classes but their one cycle is zero
        page, spec, i = _xy_page()
        page.data[(0, 0)].alive = [{i["x"]: 1}, {i["x"]: 1}]
        with pytest.raises(VerificationError,
                           match=r"rank bookkeeping failed at bidegree \(0, 0\)"):
            turn_page(page, spec)

    def test_stale_representative_raises(self):
        # after d_1(x) = y and d_1(x^2) = 2xy, the class of y is a boundary,
        # yet it is alive
        page, spec, i = _xy_page()
        page2 = turn_page(page, spec)
        page2.data[(-1, 1)].alive = [{i["y"]: 1}]
        with pytest.raises(VerificationError,
                           match=r"stale representative in bidegree \(-1, 1\)"):
            turn_page(SSPage(page2.pres, page2.window, 1, page2.data), spec)

    def test_image_outside_the_classes_raises(self):
        # y is neither alive nor a boundary, so d_1(x) = y has no class
        page, spec, i = _xy_page()
        page.data[(-1, 1)].alive = [{i["x*y"]: 1}]
        with pytest.raises(VerificationError,
                           match=r"d_1 image not a cycle mod boundaries at \(-1, 1\)"):
            turn_page(page, spec)

    def test_image_term_missing_from_target_raises(self):
        page, spec, i = _xy_page()
        xy = page.data[(-1, 1)].monos[i["x*y"]]
        page.data[(-1, 1)] = spectral.BidegreeData([xy])
        with pytest.raises(VerificationError,
                           match=r"d_1 image term y missing from target bidegree"):
            turn_page(page, spec)

    def test_alive_class_outside_the_domain_raises(self):
        # d_1 is given on x^2 only, so the alive class x has no d_1.  With
        # u = x^2, x^6 = u^3 = 0 is preserved: d(u^3) = 3u^2·y = 0
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0),
                                GeneratorSymbol("y", -1, 1)], [{"x": 6}])
        spec = DifferentialSpec(pres, [DiffEntry(1, "x", 2, (
            ({"y": 1}, 1),))])
        page = build_page(pres, Window(-1, 0, 0, 1))
        with pytest.raises(VerificationError,
                           match="alive class x is outside the domain of d_1"):
            turn_page(page, spec)


def _xy_page():
    """Page 1 of x in (0, 0), x^3 = 0, and odd y in (-1, 1), with
    d_1(x) = y, which preserves x^3 as d(x^3) = 3x^2·y = 0; and the index of
    each window monomial, by name, in its bidegree.  (0, 0) holds 1, x and
    x^2, with d_1 0, y and 2xy; (-1, 1) holds y, xy and x^2y, all cycles."""
    pres = Presentation(3, [GeneratorSymbol("x", 0, 0),
                            GeneratorSymbol("y", -1, 1)], [{"x": 3}])
    cat = pres.catalog
    spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
        ({"y": 1}, 1),))])
    page = build_page(pres, Window(-1, 0, 0, 1))
    index = {cat.mono_str(m): j for d in page.data.values()
             for m, j in d.index.items()}
    return page, spec, index


class TestRandomOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    # seeds at which the generator used to give up after 200 rejections
    @example(943)
    @example(1318)
    @example(2572)
    @example(4396012)
    # seeds whose box around s and m holds over 50 monomials
    @example(825)
    @example(228642946)
    def test_turn_page_matches_dense_homology(self, seed):
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r < r:
            page = turn_page(page, spec)
        nxt = turn_page(page, spec)
        dense = dense_page_dims(pres, window, spec, r)
        assert nxt.dims() == {b: n for b, n in dense.items() if n}

    @pytest.mark.parametrize("seed", range(100))
    def test_two_pages_match_dense_homology(self, seed):
        pres, window, spec, r, r2 = random_two_page_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r <= r2:
            page = turn_page(page, spec)
        dense = dense_two_page_dims(pres, window, spec, r, r2)
        assert page.dims() == {b: n for b, n in dense.items() if n}

    def test_two_page_seeds_turn_over_rewritable_boundaries(self):
        # a boundary row with a term at a survivor's pivot is what an
        # in-place back-substitution in Span.insert would rewrite
        hits = 0
        for seed in range(100):
            pres, window, spec, r, r2 = random_two_page_case(
                random.Random(seed))
            page = build_page(pres, window)
            while page.r < r2:
                page = turn_page(page, spec)
            hits += any(
                set(row) & {min(v) for v in d.alive}
                for d in page.data.values() if d.boundaries is not None
                for row in d.boundaries.rows.values())
        assert hits >= 10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9))
    @example(943)
    @example(1318)
    @example(2572)
    @example(4396012)
    def test_survivors_are_cycles_independent_of_boundaries(self, seed):
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r < r:
            page = turn_page(page, spec)
        nxt = turn_page(page, spec)
        cat = pres.catalog
        shift = spec.rule.shift(r)
        p = pres.p
        for b, d in nxt.data.items():
            monos = page.data[b].monos
            tb = (b[0] + shift[0], b[1] + shift[1])
            if tb in page.data:
                tindex = page.data[tb].index
                cols = dense_matrix(spec, r, monos, tindex)
                for v in d.alive:
                    img = {}
                    for i, c in v.items():
                        img = vec_addmul(p, img, cols[i], c)
                    assert img == {}, "alive class is not a cycle"
            sb = (b[0] - shift[0], b[1] - shift[1])
            bcols = []
            if sb in page.data:
                tindex = {m: i for i, m in enumerate(monos)}
                bcols = dense_matrix(spec, r, page.data[sb].monos, tindex)
            base = dense_rank(p, bcols, len(monos))
            joint = dense_rank(p, bcols + list(d.alive), len(monos))
            assert joint == base + len(d.alive), \
                "alive classes are dependent modulo boundaries"


def _turn_against_reference(page, spec):
    """turn_page, checked against the reference: the same representatives,
    a record exactly where a class is left, with the same boundary rows,
    and the input's BidegreeData kept exactly where d_r changes nothing."""
    nxt = turn_page(page, spec)
    ref = reference_turn_page(page, spec)
    assert nxt.class_reps() == ref.class_reps()
    assert nxt.data.keys() == {b for b, d in ref.data.items() if d.alive}
    for b, d in nxt.data.items():
        rows = {} if d.boundaries is None else d.boundaries.rows
        want = ref.data[b].boundaries
        assert rows == ({} if want is None else want.rows)
        untouched = len(ref.data[b].alive) == len(page.data[b].alive)
        assert (d is page.data[b]) == untouched
    return nxt


class TestReferenceOracle:
    """Representatives, not only their counts, against the page turn that
    re-inserts every class into a labelled span (helpers.py)."""

    @pytest.mark.parametrize("seed", range(300))
    def test_one_page(self, seed):
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r <= r:
            page = _turn_against_reference(page, spec)

    @pytest.mark.parametrize("seed", range(300))
    def test_two_pages(self, seed):
        pres, window, spec, r, r2 = random_two_page_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r <= r2:
            page = _turn_against_reference(page, spec)

    def test_some_bidegrees_are_shared_and_some_new(self):
        shared = new = 0
        for seed in range(100):
            pres, window, spec, r = random_square_zero_case(random.Random(seed))
            page = build_page(pres, window)
            while page.r < r:
                page = turn_page(page, spec)
            nxt = turn_page(page, spec)
            for b, d in nxt.data.items():
                if d.alive:
                    shared += d is page.data[b]
                    new += d is not page.data[b]
        assert shared >= 50 and new >= 50


def _line_page():
    """Page 1 of x in (2, 0), x^3 = 0, and odd y in (1, 1), with
    d_1(x) = y, which preserves x^3: four bidegrees of one monomial each,
    1, x, y and x*y (x^2 lies past degree 3), and one pair in d_1 position,
    x -> y."""
    pres = Presentation(3, [GeneratorSymbol("x", 2, 0),
                            GeneratorSymbol("y", 1, 1)], [{"x": 3}])
    spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
        ({"y": 1}, 1),))])
    return build_page(pres, Window(0, 3, 0, 1)), spec


def _outside_domain_page(flags):
    """Page 1, flagged at ``flags``, of x in (2, 0) with x^6 = 0, odd y in
    (3, 1) and odd z in (1, 1), with d_1 given on x^2 only: the
    one-monomial pair x -> z has x outside the domain of d_1.  With
    u = x^2, d(u^3) = 3u^2·y = 0 preserves x^6, which lies past the window."""
    pres = Presentation(3, [GeneratorSymbol("x", 2, 0),
                            GeneratorSymbol("y", 3, 1),
                            GeneratorSymbol("z", 1, 1)], [{"x": 6}])
    spec = DifferentialSpec(pres, [DiffEntry(1, "x", 2, (
        ({"y": 1}, 1),))])
    page = build_page(pres, Window(0, 4, 0, 1))
    assert [len(page.data[b].monos) for b in ((2, 0), (1, 1))] == [1, 1]
    return SSPage(pres, page.window, 1, page.data, flags), spec


def _mixed_page():
    """Page 1 of x in (2, 0), odd y in (1, 1), and z and w in (0, 2), with
    d_1(x) = y: one-monomial bidegrees 1, x and y, and two of two
    monomials, (0, 2) with z and w and (2, 2) with x*z and x*w."""
    pres = Presentation(3, [GeneratorSymbol("x", 2, 0),
                            GeneratorSymbol("y", 1, 1),
                            GeneratorSymbol("z", 0, 2),
                            GeneratorSymbol("w", 0, 2)])
    spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (({"y": 1}, 1),))])
    return build_page(pres, Window(0, 2, 0, 2)), spec


class TestOneMonomialPairs:
    """A pair of one-monomial bidegrees is decided by d_r's one coefficient;
    each hard check of the general turn still fires on that shape."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("structure", ["tp", "tcminus"])
    def test_presets_match_the_reference(self, structure, p):
        spec = derive_differentials(p, structure)
        page = build_page(spec.pres, run_window(p, structure,
                                                *default_table_window(p)))
        assert all(len(d.monos) == 1 for d in page.data.values())
        page = SSPage(page.pres, page.window, 1, page.data,
                      flag_boundary(page, spec))
        classes = page.total_dim()
        while page.r <= spec.pages[-1]:
            page = _turn_against_reference(page, spec)
        assert page.total_dim() < classes

    @pytest.mark.parametrize("structure", ["tp", "tcminus"])
    def test_presets_never_call_kernel_basis(self, structure, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel_basis on a one-monomial page")

        monkeypatch.setattr(spectral, "kernel_basis", refuse)
        code, out, err = run_cli(["ss", "--preset", structure, "--prime", "5"])
        assert code == 0, err
        assert "stable:" in out

    def test_de_rham_still_eliminates(self, tmp_path, monkeypatch):
        calls = []
        real = spectral.kernel_basis

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spectral, "kernel_basis", counted)
        path = tmp_path / "derham.ss"
        path.write_text(DERHAM_SMALL, encoding="utf-8")
        code, _out, err = run_cli(["ss", "--file", str(path)])
        assert code == 0, err
        assert calls

    def test_hand_computed_pair(self):
        # d_1(x) = y with coefficient 1: x is in no kernel, y is a boundary
        page, spec = _line_page()
        nxt = turn_page(page, spec)
        assert sorted(nxt.rep_names()) == ["1", "x*y"]
        # both bidegrees of the pair are left with no class, so no record
        assert (2, 0) not in nxt.data
        assert (1, 1) not in nxt.data
        for b in ((0, 0), (3, 1)):
            assert nxt.data[b] is page.data[b]

    def test_image_term_missing_from_target_raises(self):
        # the target (1, 1) holds the one monomial x*y, not y
        page, spec = _line_page()
        xy = page.data[(3, 1)].monos[0]
        page.data[(1, 1)] = spectral.BidegreeData([xy])
        with pytest.raises(VerificationError, match=r"d_1 image term y missing "
                                                    r"from target bidegree \(1, 1\)"):
            turn_page(page, spec)

    def test_alive_class_outside_the_domain_raises(self):
        page, spec = _outside_domain_page(frozenset())
        with pytest.raises(VerificationError,
                           match="alive class x is outside the domain of d_1"):
            turn_page(page, spec)

    def test_flagged_class_outside_the_domain_has_zero_differential(self):
        page, spec = _outside_domain_page(frozenset({(2, 0)}))
        nxt = turn_page(page, spec)
        for b in ((2, 0), (1, 1)):
            assert nxt.data[b] is page.data[b]
        # d_1(x^2) = y still kills the pair (4, 0) -> (3, 1)
        assert (4, 0) not in nxt.data

    def test_stale_representative_next_to_a_boundary_raises(self):
        # y is alive and a boundary at once
        page, spec = _line_page()
        y = page.data[(1, 1)].monos[0]
        boundaries = spectral.Span(3)
        boundaries.insert({0: 1})
        page.data[(1, 1)] = spectral.BidegreeData([y], [{0: 1}], boundaries)
        with pytest.raises(VerificationError,
                           match=r"stale representative in bidegree \(1, 1\)"):
            turn_page(page, spec)

    def test_unnormalised_alive_vector_raises(self):
        # {0: 2} is a class of y, but not the RREF row {0: 1}
        page, spec = _line_page()
        y = page.data[(1, 1)].monos[0]
        page.data[(1, 1)] = spectral.BidegreeData([y], [{0: 2}])
        with pytest.raises(VerificationError,
                           match=r"stale representative in bidegree \(1, 1\)"):
            turn_page(page, spec)

    def test_hit_class_that_is_a_cycle_into_a_wider_target(self):
        # x -> y is a 1 x 1 pair, and y's own class maps by zero into
        # (0, 2), which holds z and w: y is hit and is a cycle, as legal
        # as on any page
        page, spec = _mixed_page()
        assert [len(page.data[b].monos) for b in ((2, 0), (1, 1), (0, 2))] == [1, 1, 2]
        nxt = _turn_against_reference(page, spec)
        assert sorted(nxt.rep_names()) == ["1", "w", "x*w", "x*z", "z"]
        assert (2, 0) not in nxt.data and (1, 1) not in nxt.data

    def test_image_with_a_second_term_raises(self):
        # d_1(x) = y + z, but the target (1, 1) is left holding y alone
        pres = Presentation(3, [GeneratorSymbol("x", 2, 0),
                                GeneratorSymbol("y", 1, 1),
                                GeneratorSymbol("z", 1, 1)])
        spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
            ({"y": 1}, 1), ({"z": 1}, 1)))])
        page = build_page(pres, Window(0, 2, 0, 1))
        assert len(page.data[(2, 0)].monos) == 1
        y = pres.catalog.mono({"y": 1})
        page.data[(1, 1)] = spectral.BidegreeData([y])
        with pytest.raises(VerificationError, match=r"d_1 image term z missing "
                                                    r"from target bidegree \(1, 1\)"):
            turn_page(page, spec)

    def test_class_lost_and_gained_fails_rank_bookkeeping(self):
        # d_1(x) = y and d_1(y) = w, so d_1 squared is w on x; with the
        # square-zero check skipped, y both loses and gains its one class
        pres = Presentation(3, [GeneratorSymbol("x", 2, 0),
                                GeneratorSymbol("y", 1, 1),
                                GeneratorSymbol("w", 0, 2)])
        entries = [DiffEntry(1, "x", 1, (({"y": 1}, 1),)),
                   DiffEntry(1, "y", 1, (({"w": 1}, 1),))]
        page = build_page(pres, Window(0, 2, 0, 2))
        assert all(len(d.monos) == 1 for d in page.data.values())
        with pytest.raises(ValueError, match="d_1 squared is nonzero on x"):
            DifferentialSpec(pres, entries)
        spec = unchecked_spec(pres, entries)
        with pytest.raises(VerificationError, match="d_1 squared is nonzero on x"):
            check_square_zero(page, spec, 1)
        with pytest.raises(VerificationError,
                           match=r"rank bookkeeping failed at bidegree \(1, 1\) "
                                 r"page 1: 1 - 1 - 1 != 0"):
            turn_page(page, spec)

    @pytest.mark.parametrize("wide", ["source", "target"])
    def test_pair_and_wider_pair_at_one_class_fail_rank_bookkeeping(self, wide):
        # y in (1, 1) is in a 1 x 1 pair on one side and meets a bidegree
        # of two monomials on the other: with d_1(x_i) = y and d_1(y) = w_1,
        # y both loses and gains its one class, whichever side is wide
        names = {"source": ("x1", "x2", "w1"), "target": ("x1", "w1", "w2")}[wide]
        at = {"x1": (2, 0), "x2": (2, 0), "w1": (0, 2), "w2": (0, 2)}
        pres = Presentation(3, [GeneratorSymbol(n, *at[n]) for n in names]
                            + [GeneratorSymbol("y", 1, 1)])
        entries = [DiffEntry(1, n, 1, (({"y": 1}, 1),)) for n in names if n[0] == "x"]
        entries.append(DiffEntry(1, "y", 1, (({"w1": 1}, 1),)))
        page = build_page(pres, Window(0, 2, 0, 2))
        monos = [len(page.data[b].monos) for b in ((2, 0), (1, 1), (0, 2))]
        assert monos == ([2, 1, 1] if wide == "source" else [1, 1, 2])
        with pytest.raises(VerificationError,
                           match=r"rank bookkeeping failed at bidegree \(1, 1\) "
                                 r"page 1: 1 - 1 - 1 != 0"):
            turn_page(page, unchecked_spec(pres, entries))


def _reversed(page):
    """``page`` with its records in the reverse of its page order."""
    return SSPage(page.pres, page.window, page.r,
                  dict(reversed(page.data.items())), page.flags)


class TestPageOrder:
    """Page order is the walk's, and no result may be read off it: a turn
    keeps its input's order, and a page whose records come in reverse turns
    to the same classes, flags and log."""

    @staticmethod
    def inputs(source):
        if source == "mixed":
            return _mixed_page()
        if source == "derham":
            _p, pres, spec, window = parse_presentation(DERHAM_SMALL)
        else:
            spec = derive_differentials(5, source)
            pres, window = spec.pres, run_window(5, source, *default_table_window(5))
        return build_page(pres, window), spec

    @pytest.mark.parametrize("source", ["tp", "tcminus", "derham", "mixed"])
    def test_reversed_page_turns_alike(self, source):
        page, spec = self.inputs(source)
        page = SSPage(page.pres, page.window, page.r, page.data,
                      flag_boundary(page, spec))
        back = _reversed(page)
        while page.r <= spec.pages[-1]:
            page, back = turn_page(page, spec), turn_page(back, spec)
            assert page.dims() == back.dims()
            assert page.class_reps() == back.class_reps()
            assert page.flags == back.flags
            # each turn keeps the order of the records it leaves
            assert list(back.data) == list(reversed(page.data))

    @pytest.mark.parametrize("source", ["tp", "tcminus", "derham", "mixed"])
    def test_reversed_page_runs_to_the_same_stable_page(self, source):
        page, spec = self.inputs(source)
        final, log = run_to_stable(page, spec)
        back, back_log = run_to_stable(_reversed(page), spec)
        assert back_log == log
        assert back.dims() == final.dims()
        assert back.class_reps() == final.class_reps()
        assert back.flags == final.flags


class TestPageRecords:
    """A page record keeps only what a later turn reads: no record where no
    class is left, the one shared alive list on every one-monomial bidegree
    no turn has touched, and an index derived from its monomials."""

    @staticmethod
    def inputs(source, p=5):
        """(presentation, spec, window) of DERHAM_SMALL or a preset at p."""
        if source == "derham":
            return parse_presentation(DERHAM_SMALL)[1:]
        spec = derive_differentials(p, source)
        return spec.pres, spec, run_window(p, source, *default_table_window(p))

    def stable(self, source):
        pres, spec, window = self.inputs(source)
        page = build_page(pres, window)
        return page, run_to_stable(page, spec)[0]

    @pytest.mark.parametrize("source, p", [
        *((s, p) for s in ("tp", "tcminus") for p in (2, 3, 5, 7)), ("derham", 3)])
    def test_every_record_holds_a_class(self, source, p, monkeypatch):
        pres, spec, window = self.inputs(source, p)
        real, turns = spectral.turn_page, []

        def checked(page, spec):
            nxt = real(page, spec)
            assert all(d.alive for d in nxt.data.values())
            turns.append(nxt.r)
            return nxt

        monkeypatch.setattr(spectral, "turn_page", checked)
        e1 = build_page(pres, window)
        final, _log = run_to_stable(e1, spec)
        assert turns == [r + 1 for r in spec.pages]
        assert len(final.data) == len(final.dims()) < len(e1.data)

    @pytest.mark.parametrize("source", ["tp", "tcminus", "derham"])
    def test_records_keep_only_what_a_turn_reads(self, source):
        e1, final = self.stable(source)
        assert final.data.keys() < e1.data.keys()
        dead = e1.data.keys() - final.data.keys()
        assert all(d.alive for d in final.data.values())
        for b, d in e1.data.items():
            if len(d.monos) == 1:
                assert d.alive is spectral._ONE
                kept = final.data.get(b)
                # a one-monomial bidegree a turn touched has no class left
                assert (kept is d) == (kept is not None)
        for d in final.data.values():
            assert d.index == {m: i for i, m in enumerate(d.monos)}
            assert [d.index[m] for m in d.monos] == list(range(len(d.monos)))
        # the rule holds for every shape: de Rham's (1, 1) held dx1 and
        # dx2, and both became boundaries
        biggest = max(len(e1.data[b].monos) for b in dead)
        assert (biggest > 1) == (source == "derham")

    @pytest.mark.parametrize("source", ["tp", "tcminus", "derham"])
    def test_unturned_records_hold_the_shared_units(self, source, monkeypatch):
        # every E₁ record of n monomials holds the one list _units(n), and
        # no record that a turn wrote does
        pres, spec, window = self.inputs(source)
        e1 = build_page(pres, window)
        assert spectral._units(1) is spectral._ONE
        for d in e1.data.values():
            assert d.alive is spectral._units(len(d.monos))
            assert d.alive == [{i: 1} for i in range(len(d.monos))]
            assert d.boundaries is None and d.unturned
        real, rewritten = spectral.turn_page, []

        def checked(page, spec):
            nxt = real(page, spec)
            for b, d in nxt.data.items():
                if d is not page.data.get(b):
                    assert d.alive is not spectral._units(len(d.monos))
                    assert not d.unturned
                    rewritten.append(len(d.monos))
            return nxt

        monkeypatch.setattr(spectral, "turn_page", checked)
        run_to_stable(e1, spec)
        # a one-monomial record a turn touches is deleted, never rewritten
        assert bool(rewritten) == (source == "derham")
        assert all(n > 1 for n in rewritten)

    def test_target_with_a_new_alive_list_is_checked(self):
        # (-1, 1) holds y, xy and x^2y; a list that drops y is no longer the
        # shared one, so d_1(x) = y is checked against it and refused
        page, spec, i = _xy_page()
        td = page.data[(-1, 1)]
        td.alive = [{i["x*y"]: 1}, {i["x^2*y"]: 1}]
        assert not td.unturned
        with pytest.raises(VerificationError,
                           match=r"d_1 image not a cycle mod boundaries at \(-1, 1\)"):
            turn_page(page, spec)

    def test_equal_list_that_is_not_shared_is_checked_alike(self):
        # the unit list by value, not by identity: every check runs and
        # passes, and the turn gives the same classes
        page, spec, _i = _xy_page()
        want = turn_page(page, spec).dims()
        for b, d in page.data.items():
            page.data[b] = spectral.BidegreeData(d.monos, [dict(v) for v in d.alive])
            assert not page.data[b].unturned
        assert turn_page(page, spec).dims() == want

    def test_shared_units_next_to_boundaries_is_stale(self):
        # the shared unit list with a boundary span is not unturned, so the
        # stale-representative check runs and finds y alive and a boundary
        page, spec, i = _xy_page()
        boundaries = spectral.Span(3)
        boundaries.insert({i["y"]: 1})
        monos = page.data[(-1, 1)].monos
        page.data[(-1, 1)] = spectral.BidegreeData(monos, None, boundaries)
        assert page.data[(-1, 1)].alive is spectral._units(len(monos))
        with pytest.raises(VerificationError,
                           match=r"stale representative in bidegree \(-1, 1\)"):
            turn_page(page, spec)


class TestRunToStable:
    def test_tp_p2_full_run(self):
        spec = derive_differentials(2, "tp")
        win = Window(-20, 20, -25, 30)
        page = build_page(spec.pres, win)
        assert page.total_dim() == 82
        final, log = run_to_stable(page, spec)
        assert log == [
            {"page": 2, "classes_before": 82, "classes_after": 42},
            {"page": 4, "classes_before": 42, "classes_after": 22},
            {"page": "stable", "classes": 22},
        ]
        assert len(final.flags) == 10
        cat = spec.pres.catalog
        ti = cat.index["t"]
        safe = [(b, m) for b, m, _ in final.class_reps(include_flagged=False)]
        assert len(safe) == 18
        assert all(m[ti] % 4 == 0 for _b, m in safe)
        # two-sided: every unflagged window monomial with t^4 | t-part survives
        want = set()
        for b in final.data:
            if b in final.flags:
                continue
            for m in final.data[b].monos:
                if m[ti] % 4 == 0:
                    want.add((b, m))
        assert set(safe) == want

    def test_window_independence_in_the_interior(self):
        spec = derive_differentials(2, "tp")

        def interior(win):
            page = build_page(spec.pres, win)
            final, _ = run_to_stable(page, spec)
            return {(b, m) for b, m, _ in final.class_reps(False)
                    if -8 <= b[0] <= 8}

        small = interior(Window(-12, 12, -17, 22))
        large = interior(Window(-20, 20, -25, 30))
        assert small == large

    def test_unstable_window_is_inconclusive(self):
        # no differentials specified, but two bidegrees sit in d_1 position
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0),
                                GeneratorSymbol("y", -1, 1)], [{"x": 2}])
        spec = DifferentialSpec(pres, [])
        page = build_page(pres, Window(-1, 0, 0, 1))
        with pytest.raises(WindowInconclusiveError):
            run_to_stable(page, spec)


class TestPopulatedPairs:
    """collapse_check on a page's populated bidegrees, as run_to_stable
    certifies stability."""

    @staticmethod
    def pairs(page, rule=ADAMS_RULE):
        entries = [ChartEntry(str(b), *b) for b, d in page.data.items() if d.alive]
        report = collapse_check(entries, rule, r_min=1)
        return collections.Counter(r for r, _src, _tgt in report.witnesses)

    def test_xy_complex_candidates(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        # x^a and x^{a-1}y sit one degree and one weight apart
        assert self.pairs(page)[1] > 0
        final = turn_page(page, spec)
        # the two survivors still pair up arithmetically: 1 at (0, 0) and
        # x^2y at (-1, 4) are in d_4 position, and x^2y -> 1 lowers the
        # weight; this tiny window cannot certify stability, by design
        assert self.pairs(final) == {4: 1}

    def test_needs_growing_weight(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        for rule in (BidegreeRule(weight_per_r=0),
                     BidegreeRule(weight_per_r=-1)):
            with pytest.raises(ValueError, match="weight_per_r > 0"):
                self.pairs(page, rule)
        with pytest.raises(ValueError):
            collapse_check([], BidegreeRule(weight_per_r=0))

    def test_unstable_window_names_the_pages(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        with pytest.raises(WindowInconclusiveError,
                           match=r"beyond page 1 at pages \[4\]"):
            run_to_stable(page, spec)


class TestFlagBoundary:
    def test_no_flags_for_covered_algebra(self):
        pres, window, spec = xy_complex()
        assert flag_boundary(build_page(pres, window), spec) == frozenset()

    def test_laurent_page_flags_near_edges(self):
        spec = derive_differentials(2, "tp")
        win = Window(-8, 8, -6, 8)
        page = build_page(spec.pres, win)
        flags = flag_boundary(page, spec)
        assert flags
        # seeds sit where a d_2 or d_4 would cross the window edge
        for b in flags:
            assert b in page.data

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("structure", ["tp", "tcminus"])
    def test_presets_match_the_per_shift_reference(self, structure, p):
        spec = derive_differentials(p, structure)
        lo, hi = default_table_window(p)
        windows = (run_window(p, structure, lo, hi),
                   run_window(p, structure, lo, hi // 3),
                   Window(-2 * p, 4 * p, -p * p, p * p))
        partly = 0
        for window in windows:
            page = build_page(spec.pres, window)
            flags = flag_boundary(page, spec)
            assert flags == reference_flag_boundary(page, spec)
            assert flags
            partly += flags < page.data.keys()
        assert partly

    def test_random_specs_match_the_per_shift_reference(self):
        flagged = 0
        for seed in range(200):
            pres, window, spec, _r = random_square_zero_case(random.Random(seed))
            page = build_page(pres, window)
            flags = flag_boundary(page, spec)
            assert flags == reference_flag_boundary(page, spec)
            flagged += bool(flags)
        assert flagged >= 20


class TestCollapseCheck:
    def test_empty_chart_collapses(self):
        report = collapse_check([], ADAMS_RULE)
        assert report.collapses and report.notes == ["empty chart"]

    def test_plain_pair_witness(self):
        entries = [ChartEntry("a", 0, 0), ChartEntry("b", -1, 2)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1)
        assert not report.collapses
        assert (2, "a", "b") in report.witnesses

    def test_periodic_source_matches(self):
        # src degrees 0, 4, 8, ...; target 3, 7, ...: d_1 hits 4 -> 3
        entries = [ChartEntry("tower", 0, 0), ChartEntry("cls", 3, 1)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1, period=4)
        assert report.witnesses == [(1, "tower", "cls")]

    def test_periodic_no_match_collapses(self):
        entries = [ChartEntry("tower", 0, 0), ChartEntry("cls", 2, 1)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1, period=4)
        assert report.collapses

    def test_witnesses_sorted_by_r(self):
        # r is solved per pair, in entry order; the report lists it by r
        entries = [ChartEntry("c", -2, 3), ChartEntry("b", -1, 2),
                   ChartEntry("a", 0, 0)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1)
        assert report.witnesses == [(1, "b", "c"), (2, "a", "b")]

    @pytest.mark.parametrize("period", [None, 3, 7])
    @pytest.mark.parametrize("r_min", [-1, 1, 2])
    def test_random_charts_match_the_all_pairs_reference(self, r_min,
                                                          period):
        # small ranges, so that pairs match often and bidegrees repeat
        witnessed = 0
        for seed in range(60):
            rng = random.Random(seed)
            rule = BidegreeRule(rng.randint(-2, 2), rng.randint(1, 3))
            entries = [ChartEntry(f"e{i}", rng.randint(-6, 6),
                                  rng.randint(-4, 6))
                       for i in range(rng.randint(1, 14))]
            report = collapse_check(entries, rule, r_min, period)
            want = reference_collapse_witnesses(entries, rule, r_min, period)
            assert report.witnesses == want
            assert report.collapses is not want
            witnessed += bool(want)
        assert witnessed >= 20

    def test_r_max_from_weight_span(self):
        entries = [ChartEntry("a", 0, 0), ChartEntry("b", 5, 3)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1)
        assert report.r_range == (1, 3)
        assert any("weight span" in n for n in report.notes)
