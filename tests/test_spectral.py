"""Spectral sequence engine: enumeration, Leibniz differentials, page
turning against a dense oracle, windowing honesty, collapse checking."""

import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (dense_matrix, dense_page_dims, dense_rank,
                     dense_two_page_dims, random_square_zero_case,
                     random_two_page_case, reference_turn_page, run_cli)
from synto import spectral
from synto.graded import GeneratorSymbol, VerificationError
from synto.linalg import vec_addmul
from synto.spectral import (ADAMS_RULE, BidegreeRule, ChartEntry, DiffEntry,
                            DifferentialSpec, Presentation, SSPage, Window,
                            WindowInconclusiveError, build_page,
                            check_square_zero, collapse_check, flag_boundary,
                            leibniz_extend, possible_pages, run_to_stable,
                            turn_page)
from synto.summand import derive_differentials, tcminus_presentation, tp_presentation


class TestWindow:
    def test_contains(self):
        w = Window(-4, 4, 0, 2)
        assert w.contains(0, 0) and w.contains(-4, 2)
        assert not w.contains(5, 0) and not w.contains(0, 3)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Window(1, 0, 0, 0)


class TestBidegreeRule:
    def test_adams_shift(self):
        assert ADAMS_RULE.shift(2) == (-1, 2)
        assert ADAMS_RULE.shift(7) == (-1, 7)

    def test_v2_style_shift(self):
        rule = BidegreeRule(deg_per_r=16, deg_const=-1, weight_per_r=8)
        assert rule.shift(1) == (15, 8)
        assert rule.shift(2) == (31, 16)


class TestPresentation:
    def test_laurent_enumeration_p2(self):
        # F_2[t^{±1}] ⊗ Λ(λ1, λ2), window deg [-4, 4] weight [-2, 2]:
        # t^k for k in -2..2, t^k·λ1 for k in 0..2, t^2·λ2 — nine monomials
        pres = tp_presentation(2)
        basis = pres.enumerate_basis(Window(-4, 4, -2, 2))
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

    def test_max_exp_kills(self):
        pres = Presentation(3, [GeneratorSymbol("x", 2, 1, max_exp=2)])
        assert pres.killed((3,))
        assert not pres.killed((2,))

    def test_odd_generator_exponent_guard(self):
        with pytest.raises(ValueError):
            Presentation(3, [GeneratorSymbol("a", 1, 0, max_exp=2)])
        with pytest.raises(ValueError):
            Presentation(3, [GeneratorSymbol("a", 1, 0, invertible=True)])

    @pytest.mark.parametrize("gen, rel", [
        (GeneratorSymbol("x", 2, 1, max_exp=-1), {}),
        (GeneratorSymbol("x", 2, 1, invertible=True, max_exp=1), {}),
        (GeneratorSymbol("x", 2, 1, invertible=True), {"x": 1}),
    ])
    def test_bounds_that_describe_no_algebra(self, gen, rel):
        with pytest.raises(ValueError):
            Presentation(3, [gen], [rel] if rel else [])

    def test_unbounded_generator_is_inconclusive(self):
        pres = Presentation(3, [GeneratorSymbol("u", 0, 0, invertible=True)])
        with pytest.raises(WindowInconclusiveError):
            pres.enumerate_basis(Window(-2, 2, -2, 2))

    def test_binding_edges(self):
        pres = tp_presentation(2)
        # t is invertible: every edge in a finite window cuts the algebra
        # except the ones the exterior part cannot cross
        edges = pres.binding_edges(Window(-4, 4, -2, 2))
        assert "deg_min" in edges and "deg_max" in edges
        assert "weight_min" in edges and "weight_max" in edges

    def test_no_binding_edges_when_window_covers_algebra(self):
        pres = Presentation(3, [GeneratorSymbol("x", 0, 1, max_exp=3),
                                GeneratorSymbol("y", -1, 2)])
        assert pres.binding_edges(Window(-1, 0, 0, 5)) == set()
        ext = pres.grading_extremes()
        assert ext == {"deg_min": -1, "deg_max": 0,
                       "weight_min": 0, "weight_max": 5}


def _random_presentation(rng):
    """1–4 generators, each odd, invertible, capped or plain, with degrees
    and weights in −4..4 (odd degree for the odd kind only), at most one
    monomial relation (none on an invertible generator), and a window
    inside ±8."""
    gens = []
    for name in "abcd"[:rng.randint(1, 4)]:
        kind = rng.choice(("odd", "invertible", "max_exp", "plain"))
        # the degree decides the parity: odd for the odd kind, else even
        deg = rng.choice((-3, -1, 1, 3) if kind == "odd" else (-4, -2, 0, 2, 4))
        wt = rng.randint(-4, 4)
        if kind == "invertible":
            gens.append(GeneratorSymbol(name, deg, wt, invertible=True))
        elif kind == "max_exp":
            gens.append(GeneratorSymbol(name, deg, wt, max_exp=rng.randint(0, 4)))
        else:
            gens.append(GeneratorSymbol(name, deg, wt))
    rels = []
    # a relation on an invertible generator would kill the unit
    bounded = [g for g in gens if not g.invertible]
    if bounded and rng.random() < 0.5:
        rel = {g.name: rng.randint(0, 2) for g in bounded}
        rel[rng.choice(bounded).name] = rng.randint(1, 2)
        rels.append(rel)
    d0, d1 = sorted(rng.randint(-8, 8) for _ in range(2))
    w0, w1 = sorted(rng.randint(-8, 8) for _ in range(2))
    return Presentation(3, gens, rels), Window(d0, d1, w0, w1)


def _structural(g, lo, hi):
    """The exponents of g in [lo, hi] that the algebra allows."""
    if g.degree % 2:
        lo, hi = max(lo, 0), min(hi, 1)
    elif not g.invertible:
        lo = max(lo, 0)
    if g.max_exp is not None:
        hi = min(hi, g.max_exp)
    return range(lo, hi + 1)


class TestEnumerationOracle:
    """enumerate_basis and grading_extremes against brute force over random
    presentations."""

    def test_random_presentations(self):
        rng = random.Random(7)
        runs, enumerated = 300, 0
        for _ in range(runs):
            pres, win = _random_presentation(rng)
            cat = pres.catalog
            try:
                basis = pres.enumerate_basis(win)
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
                              if win.contains(*cat.bidegree(m))
                              and not pres.killed(m))
                assert basis == want, (pres.gens, pres.relations, win)
            if all(g.degree % 2 or (not g.invertible and g.max_exp is not None)
                   for g in pres.gens):
                monos = list(itertools.product(
                    *(_structural(g, 0, 4) for g in pres.gens)))
                degs = [cat.degree(m) for m in monos]
                wts = [cat.weight(m) for m in monos]
                assert pres.grading_extremes() == {
                    "deg_min": min(degs), "deg_max": max(degs),
                    "weight_min": min(wts), "weight_max": max(wts)}
        assert enumerated >= runs // 2


def xy_complex():
    """d(x) = y on F_3[x]/(x^4) ⊗ Λ(y): homology is {1, x^3, x^2y, x^3y}."""
    pres = Presentation(3, [GeneratorSymbol("x", 0, 1, max_exp=3),
                            GeneratorSymbol("y", -1, 2)])
    cat = pres.catalog
    spec = DifferentialSpec(pres, [
        DiffEntry(1, "x", 1, ((cat.mono({"y": 1}), 1),))])
    return pres, Window(-1, 0, 0, 5), spec


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
                                GeneratorSymbol("e", 0, 2, max_exp=2)])
        cat = pres.catalog
        spec = DifferentialSpec(pres, [
            DiffEntry(1, "b", 1, ((cat.mono({"e": 1}), 1),))])
        got = leibniz_extend(spec, 1, cat.mono({"a": 1, "b": 1}))
        assert got == {cat.mono({"a": 1, "e": 1}): 2}

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_factor_by_factor_rule(self, seed):
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        cat, p = pres.catalog, pres.p
        for m in pres.enumerate_basis(window):
            want = {}
            for i, (e0, image) in spec.by_page(r).items():
                if not m[i]:
                    continue
                if m[i] % e0:
                    want = None
                    break
                front = tuple(m[j] if j < i else m[i] - e0 if j == i else 0
                              for j in range(len(m)))
                back = tuple(m[j] if j > i else 0 for j in range(len(m)))
                sign = (-1) ** sum(m[j] * cat.symbols[j].degree
                                   for j in range(i))
                for mono, c in image:
                    s1 = cat.mono_mul(front, mono)
                    s2 = s1 and cat.mono_mul(s1[1], back)
                    if s2 and not pres.killed(s2[1]):
                        k = (want.get(s2[1], 0)
                             + m[i] // e0 * c * sign * s1[0] * s2[0]) % p
                        want[s2[1]] = k
            if want is not None:
                want = {mono: c for mono, c in want.items() if c}
            assert leibniz_extend(spec, r, m) == want

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
        # only if mono_mul and leibniz_extend read one odd set
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        basis = pres.enumerate_basis(window)
        for m1 in basis:
            for m2 in basis:
                lhs, rhs = _product_rule_sides(spec, r, m1, m2)
                assert lhs == rhs, (pres.catalog.mono_str(m1),
                                    pres.catalog.mono_str(m2))


def _product_rule_sides(spec, r, m1, m2):
    """d_r(m1·m2) and d_r(m1)·m2 + (-1)^|m1| m1·d_r(m2), each with the
    terms the presentation kills dropped; both are {} when m1·m2 is an odd
    square.  A killed monomial stays killed under a product, so dropping
    terms before or after multiplying gives the same sum."""
    pres, cat, p = spec.pres, spec.pres.catalog, spec.pres.p
    prod = cat.mono_mul(m1, m2)
    if prod is None:
        return {}, {}
    sign12, m12 = prod
    lhs = {m: (c * sign12) % p
           for m, c in leibniz_extend(spec, r, m12).items()}

    def times(dm, mono, side):
        out = {}
        for m, c in dm.items():
            rr = cat.mono_mul(m, mono) if side == "right" \
                else cat.mono_mul(mono, m)
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


class TestSquareZero:
    def test_good_spec_passes(self):
        pres, window, spec = xy_complex()
        check_square_zero(build_page(pres, window), spec, 1)

    def test_bad_spec_raises(self):
        # d(x) = y, d(y) = z with matching bidegrees: d² (x) = z ≠ 0
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0, max_exp=1),
                                GeneratorSymbol("y", -1, 1, max_exp=1),
                                GeneratorSymbol("z", -2, 2, max_exp=1)])
        cat = pres.catalog
        spec = DifferentialSpec(pres, [
            DiffEntry(1, "x", 1, ((cat.mono({"y": 1}), 1),)),
            DiffEntry(1, "y", 1, ((cat.mono({"z": 1}), 1),))])
        page = build_page(pres, Window(-3, 0, 0, 3))
        with pytest.raises(VerificationError, match="squared"):
            check_square_zero(page, spec, 1)


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


class TestDifferentialMap:
    """turn_page reads d_r off the map check_square_zero fills, so each
    d_r(m) is computed once per page."""

    @pytest.mark.parametrize("source", ["preset-tp-p3", "derham"])
    def test_leibniz_once_per_page_and_monomial(self, source, monkeypatch,
                                                tmp_path):
        if source == "derham":
            path = tmp_path / "derham.ss"
            path.write_text(DERHAM_SMALL, encoding="utf-8")
            argv = ["ss", "--file", str(path)]
        else:
            argv = ["ss", "--preset", "tp", "--prime", "3"]
        calls = collections.Counter()
        maps = []
        real_check = spectral.check_square_zero

        def counted(spec, r, m):
            calls[r, m] += 1
            return leibniz_extend(spec, r, m)

        def captured(page, spec, r):
            dmap = real_check(page, spec, r)
            maps.append((page, spec, r, dmap))
            return dmap

        monkeypatch.setattr(spectral, "leibniz_extend", counted)
        monkeypatch.setattr(spectral, "check_square_zero", captured)
        code, _out, err = run_cli(argv)
        assert code == 0, err
        assert calls and max(calls.values()) == 1
        assert maps
        for page, spec, r, dmap in maps:
            for d in page.data.values():
                for m in d.monos:
                    assert dmap[m] == leibniz_extend(spec, r, m)


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
        # that row, which the copy shares with the page it was copied from
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0, max_exp=1),
                                GeneratorSymbol("y", -1, 1),
                                GeneratorSymbol("z", -1, 1)])
        cat = pres.catalog
        spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
            (cat.mono({"y": 1}), 1), (cat.mono({"z": 1}), 1)))])
        page2 = _turn_keeping_input(build_page(pres, Window(-2, 0, 0, 2)), spec)
        assert sorted(page2.rep_names()) == ["1", "x*y*z", "x*z", "y"]
        # (-1, 1) holds z < y < xz < xy in catalog order
        assert page2.data[(-1, 1)].boundaries.rows == {0: {0: 1, 1: 1}}
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
        assert page.total_dim() == 8
        nxt = turn_page(page, spec)
        assert nxt.r == 2
        assert sorted(nxt.rep_names()) == ["1", "x^2*y", "x^3", "x^3*y"]
        assert nxt.dims() == {(0, 0): 1, (0, 3): 1, (-1, 4): 1, (-1, 5): 1}

    def test_page_without_entries_is_identity(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        page2 = turn_page(turn_page(page, spec), spec)  # page 2 -> 3: no d_2
        assert page2.r == 3
        assert page2.total_dim() == 4

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
        # after d_1(x) = y, the class of y is a boundary, yet it is alive
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
        # d_1 is given on x^2 only, so the alive class x has no d_1
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0, max_exp=2),
                                GeneratorSymbol("y", -1, 1)])
        spec = DifferentialSpec(pres, [DiffEntry(1, "x", 2, (
            (pres.catalog.mono({"y": 1}), 1),))])
        page = build_page(pres, Window(-1, 0, 0, 1))
        with pytest.raises(VerificationError,
                           match="alive class x is outside the domain of d_1"):
            turn_page(page, spec)


def _xy_page():
    """Page 1 of x in (0, 0), x^2 = 0, and odd y in (-1, 1), with
    d_1(x) = y; and the index of each window monomial, by name, in its
    bidegree."""
    pres = Presentation(3, [GeneratorSymbol("x", 0, 0, max_exp=1),
                            GeneratorSymbol("y", -1, 1)])
    cat = pres.catalog
    spec = DifferentialSpec(pres, [DiffEntry(1, "x", 1, (
        (cat.mono({"y": 1}), 1),))])
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
    def test_turn_page_matches_dense_homology(self, seed):
        pres, window, spec, r = random_square_zero_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r < r:
            page = turn_page(page, spec)
        nxt = turn_page(page, spec)
        dense = dense_page_dims(pres, window, spec, r)
        got = {b: len(d.alive) for b, d in nxt.data.items()}
        assert got == dense

    @pytest.mark.parametrize("seed", range(100))
    def test_two_pages_match_dense_homology(self, seed):
        pres, window, spec, r, r2 = random_two_page_case(random.Random(seed))
        page = build_page(pres, window)
        while page.r <= r2:
            page = turn_page(page, spec)
        got = {b: len(d.alive) for b, d in page.data.items()}
        assert got == dense_two_page_dims(pres, window, spec, r, r2)

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
    """turn_page, checked against the reference: the same representatives
    and boundary rows, and the input's BidegreeData kept exactly where d_r
    changes nothing."""
    nxt = turn_page(page, spec)
    ref = reference_turn_page(page, spec)
    assert nxt.class_reps() == ref.class_reps()
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
        pres = Presentation(3, [GeneratorSymbol("x", 0, 0, max_exp=1),
                                GeneratorSymbol("y", -1, 1, max_exp=1)])
        spec = DifferentialSpec(pres, [])
        page = build_page(pres, Window(-1, 0, 0, 1))
        with pytest.raises(WindowInconclusiveError):
            run_to_stable(page, spec)


class TestPossiblePages:
    def test_xy_complex_candidates(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        pp = possible_pages(page, ADAMS_RULE)
        # x^a and x^{a-1}y sit one degree and one weight apart
        assert pp.get(1, 0) > 0
        final = turn_page(page, spec)
        # the four survivors still pair up arithmetically (1 -> x^2y needs
        # d_4 etc.); this tiny window cannot certify stability, by design
        assert possible_pages(final, ADAMS_RULE) == {1: 1, 2: 1, 4: 1, 5: 1}

    def test_needs_growing_weight(self):
        pres, window, spec = xy_complex()
        page = build_page(pres, window)
        with pytest.raises(ValueError):
            possible_pages(page, BidegreeRule(weight_per_r=0, weight_const=1))


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
        # src degrees 0, 4, 8, ...; target fixed at 3: d_1 hits 4 -> 3
        entries = [ChartEntry("tower", 0, 0, period=4),
                   ChartEntry("cls", 3, 1)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1, r_max=1)
        assert report.witnesses == [(1, "tower", "cls")]

    def test_periodic_no_match_collapses(self):
        entries = [ChartEntry("tower", 0, 0, period=4),
                   ChartEntry("cls", 2, 1)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1, r_max=1)
        assert report.collapses

    def test_r_max_from_weight_span(self):
        entries = [ChartEntry("a", 0, 0), ChartEntry("b", 5, 3)]
        report = collapse_check(entries, ADAMS_RULE, r_min=1)
        assert report.r_range == (1, 3)
        assert any("weight span" in n for n in report.notes)
