"""The Adams-summand pipeline: derived differentials, certified E∞ pages,
comparison maps, the generator table, and the consistency checkers."""

import json
import random
from dataclasses import replace

import pytest

from synto import summand
from synto.fgl import orientation_truncation
from synto.graded import Poly, VerificationError
from synto.linalg import Span, kernel_basis
from synto.spectral import ChartEntry, Presentation
from synto.summand import (BasisClass, GeneratorTable,
                           GradedLinearMap, SyntomicWindowError, TableEntry,
                           build_can, build_frobenius,
                           default_table_window, derive_differentials,
                           hodge_tate_check, motivic_collapse_check,
                           syntomic_table,
                           tcminus_einfty, tcminus_presentation, tp_einfty,
                           tp_presentation, v2_bockstein_check)

_certificate = summand._formal_group_certificate


def with_degree(make, name, degree):
    """``make`` with generator ``name`` moved to ``degree``."""
    def patched(p):
        pres = make(p)
        gens = [replace(g, degree=degree) if g.name == name else g
                for g in pres.gens]
        rels = [{g.name: e for g, e in zip(pres.gens, rel) if e}
                for rel in pres.relations]
        return Presentation(p, gens, rels)
    return patched


class TestAxioms:
    """λ₁, λ₂ and μ of both presentations against σ²t₁ and σ²v₂."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _certificate.cache_clear()
        yield
        _certificate.cache_clear()

    def test_defaults_validate(self):
        for p in (2, 3, 5):
            _certificate(p)

    def test_degree_mismatch_raises(self, monkeypatch):
        for make, name, message in (
                ("tp_presentation", "lambda1", "lambda1 vs sigma2t1"),
                ("tcminus_presentation", "lambda2", "lambda2 vs sigma2t1"),
                ("tcminus_presentation", "mu", "mu vs sigma2v2")):
            with monkeypatch.context() as m:
                m.setattr(summand, make,
                          with_degree(getattr(summand, make), name, 4))
                with pytest.raises(VerificationError, match=message):
                    _certificate(3)


class TestDeriveDifferentials:
    @pytest.mark.parametrize("p", [2, 3])
    def test_differential_entries(self, p):
        spec = derive_differentials(p, "tp")
        cat = spec.pres.catalog
        assert spec.pages == [p, p * p]
        (e1,) = spec.by_page(p).values()
        assert e1 == (1, ((cat.mono({"t": p + 1, "lambda1": 1}), 1),))
        (e2,) = spec.by_page(p * p).values()
        assert e2 == (p, ((cat.mono({"t": p * p + p, "lambda2": 1}), 1),))

    def test_unknown_structure(self):
        with pytest.raises(ValueError):
            derive_differentials(3, "thh")

    @pytest.mark.parametrize("p", [2, 3])
    def test_t_power_permanence(self, p):
        report = _certificate(p)
        assert report["min_rewritten_degree"] >= p + 1
        assert report["min_frobenius_degree"] >= p ** 3 + p ** 2
        assert report["bound"] == p ** 3 + p ** 2


class TestFormalGroupCertificate:
    """The per-prime certificate behind derive_differentials: one right unit,
    and a hard error from each of its checks."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _certificate.cache_clear()
        yield
        _certificate.cache_clear()

    def test_one_right_unit_per_prime(self, monkeypatch):
        calls = []
        real = summand.right_unit_t

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(summand, "right_unit_t", counted)
        for p in (2, 3):
            derive_differentials(p, "tp")
            derive_differentials(p, "tcminus")
            assert _certificate(p)["bound"] == p ** 3 + p ** 2
        assert calls == [(2, 8), (3, 15)]

    @pytest.mark.parametrize("extra, widen, message", [
        ({"t": 2}, 0, "rewritten term at t-degree 2 < 4"),
        ({"t": 4}, 0, r"cobar differential of t is not t\^\(p\+1\)"),
        # t^5 lies past the cut; its p-th power t^15 shows once the
        # truncation is widened
        ({"t": 5}, 3, "p-th power of the right unit is not"),
    ])
    def test_corrupted_right_unit(self, monkeypatch, extra, widen, message):
        real = summand.right_unit_t

        def corrupted(p, trunc, ideal=()):
            eta = real(p, trunc, ideal)
            cat = eta.catalog
            return Poly.from_terms(
                cat, eta.ring, [*eta.terms.items(), (cat.mono(extra), 1)],
                orientation_truncation(cat, trunc + widen))

        monkeypatch.setattr(summand, "right_unit_t", corrupted)
        with pytest.raises(VerificationError, match=message):
            derive_differentials(3, "tp")

    def test_frobenius_bound(self, monkeypatch):
        # the rewritten-degree bound implies this one for any series, so it
        # is reached through the Frobenius it reads
        monkeypatch.setattr(summand, "coefficientwise_frobenius",
                            lambda poly, p, e=1: poly)
        with pytest.raises(VerificationError, match=r"below t\^36"):
            derive_differentials(3, "tp")

    def test_axiom_degrees(self, monkeypatch):
        monkeypatch.setattr(summand, "tp_presentation",
                            with_degree(tp_presentation, "lambda1", 4))
        with pytest.raises(VerificationError, match="axiom degree mismatch"):
            derive_differentials(3, "tp")


class TestEInfty:
    def test_tp_p2_is_laurent_lattice(self):
        page = tp_einfty(2)
        ti = page.pres.catalog.index["t"]
        reps = page.class_reps(include_flagged=False)
        assert reps
        assert all(m[ti] % 4 == 0 for _b, m, _v in reps)

    def test_tcminus_p3_leftovers(self):
        page = tcminus_einfty(3)
        cat = page.pres.catalog
        ti = cat.index["t"]
        leftovers = sorted(cat.mono_str(m)
                           for _b, m, _v in page.class_reps(False)
                           if m[ti] % 9 != 0)
        assert leftovers == sorted([
            "t*lambda1", "t^2*lambda1",
            "t^3*lambda2", "t^6*lambda2",
            "t*lambda1*lambda2", "t^2*lambda1*lambda2",
            "t^3*lambda1*lambda2", "t^6*lambda1*lambda2",
        ])

    def test_tcminus_p2_mu_and_t_parts(self):
        page = tcminus_einfty(2)
        cat = page.pres.catalog
        names = {cat.mono_str(m) for _b, m, _v in page.class_reps(False)}
        # t^4 itself sits at degree -8, outside the default window; its
        # lambda2 multiple at degree -1 is the witness for the t-lattice
        assert "mu" in names and "t^4*lambda2" in names
        assert "t^4*mu" not in names  # killed by the t*mu relation
        assert "t^2" not in names  # d_2(t) kills everything off-lattice


class TestBases:
    """The comparison bases, read off the certified E∞ pages: can's source
    is the TC⁻ page and its target the TP page."""

    def test_tp_basis_window(self):
        win = (-2, 14, 0, 8)
        basis = build_can(2, win).target
        names = [c.name for c in basis]
        # degree of t^{4k} is -8k: t^-4 sits at degree 8 (inside), t^4 at
        # degree -8 (outside)
        assert "1" in names and "t^-4" in names
        assert "t^4" not in names
        for c in basis:
            assert win[0] <= c.degree <= win[1]
            assert c.t_exp % 4 == 0 and c.mu_exp == 0

    def test_tcminus_basis_has_leftovers(self):
        win = default_table_window(3)
        names = {c.name for c in build_can(3, win).source}
        assert {"t*lambda1", "t^6*lambda2", "mu",
                "lambda1*lambda2"} <= names
        assert "t^-9" not in names  # no negative t-powers on this side

    def test_basis_classes_are_sorted(self):
        win = default_table_window(2)
        basis = build_can(2, win).source
        assert basis == sorted(basis)

    def test_degree_formula(self):
        # |t^d·x| = |x| - 2d: t^2·lambda1 at p=3 has degree 5 - 4 = 1
        (c,) = [c for c in build_can(3, default_table_window(3)).source
                if c.name == "t^2*lambda1"]
        assert (c.degree, c.weight) == (1, 1)


class TestGradedLinearMap:
    def test_bidegree_preservation_enforced(self):
        src = [BasisClass(0, 0, "a", 0, 0, 0, 0)]
        tgt = [BasisClass(2, 0, "b", -1, 0, 0, 0)]
        with pytest.raises(VerificationError, match="bidegree"):
            GradedLinearMap("bad", 3, src, tgt, {"a": {"b": 1}})

    def test_zero_entries_rejected(self):
        src = [BasisClass(0, 0, "a", 0, 0, 0, 0)]
        tgt = [BasisClass(0, 0, "b", 0, 0, 0, 0)]
        with pytest.raises(VerificationError, match="zero"):
            GradedLinearMap("bad", 3, src, tgt, {"a": {"b": 3}})

    def test_block_extraction(self):
        can = build_can(2)
        src, tgt, cols = can.block(0)
        assert [c.name for c in src if can.apply(c.name)] == ["1"]
        assert any(c.name == "1" for c in tgt)
        assert sum(1 for v in cols if v) >= 1


def reference_fiber_parts(p, phi, can):
    """Kernel and cokernel of φ − can with two eliminations per degree: a
    kernel basis of the columns, then a separate span for the image."""
    kernel, cokernel, dims = [], [], {}
    for degree in sorted({c.degree for c in phi.source}
                         | {c.degree for c in phi.target}):
        src, tgt, pcols = phi.block(degree)
        _src, _tgt, ccols = can.block(degree)
        cols = []
        for pv, cv in zip(pcols, ccols):
            v = dict(pv)
            for i, coeff in cv.items():
                v[i] = (v.get(i, 0) - coeff) % p
                if not v[i]:
                    del v[i]
            cols.append(v)
        kers = kernel_basis(p, cols)
        kernel += [src[max(ker)] for ker in kers]
        span = Span(p, cols)
        cokernel += [c for i, c in enumerate(tgt) if i not in span.rows]
        dims[degree] = (len(kers), len(tgt) - span.dim)
    return kernel, cokernel, dims


def random_map(rng, p, name, source, target):
    """A random degree- and weight-preserving map, about half its entries
    zero."""
    columns = {}
    for s in source:
        col = {t.name: rng.randrange(1, p) for t in target
               if (t.degree, t.weight) == (s.degree, s.weight)
               and rng.random() < 0.5}
        if col:
            columns[s.name] = col
    return GradedLinearMap(name, p, source, target, columns)


class TestFiberOracle:
    """The one elimination of ``_fiber_parts`` against a kernel basis and a
    separate image span."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_two_eliminations(self, p):
        rng = random.Random(p)

        def classes(prefix):
            return sorted(BasisClass(rng.randrange(-1, 2), rng.randrange(2),
                                     f"{prefix}{i}", 0, 0, 0, 0)
                          for i in range(rng.randrange(11)))

        for _ in range(60):
            source, target = classes("s"), classes("t")
            phi = random_map(rng, p, "phi", source, target)
            can = random_map(rng, p, "can", source, target)
            assert (summand._fiber_parts(p, phi, can)
                    == reference_fiber_parts(p, phi, can))


class TestComparisonMaps:
    @pytest.mark.parametrize("p", [2, 3])
    def test_can_hits_nonnegative_lattice_only(self, p):
        can = build_can(p)
        for c in can.source:
            col = can.apply(c.name)
            if c.mu_exp == 0 and c.t_exp >= 0 and c.t_exp % (p * p) == 0:
                assert col == {c.name: 1}
            else:
                assert col == {}

    @pytest.mark.parametrize("p", [2, 3])
    def test_frobenius_inverts_mu_powers(self, p):
        phi = build_frobenius(p)
        for c in phi.source:
            col = phi.apply(c.name)
            if c.t_exp == 0:
                assert len(col) == 1
                (tname, u) = next(iter(col.items()))
                if c.mu_exp:
                    assert f"t^{-c.mu_exp * p * p}" in tname
                assert u % p and (c.mu_exp > 0 or u == 1)
            else:
                assert col == {}

    def test_alt_convention_differs_only_in_units(self):
        one = build_frobenius(3, convention="one")
        alt = build_frobenius(3, convention="alt")
        assert {c.name for c in one.source} == {c.name for c in alt.source}
        diffs = 0
        for c in one.source:
            a, b = one.apply(c.name), alt.apply(c.name)
            assert set(a) == set(b)
            diffs += sum(1 for k in a if a[k] != b[k])
        assert diffs > 0  # the conventions genuinely differ at p = 3

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            build_frobenius(3, convention="legendre")


P2_TABLE = [
    # (name, degree, weight, origin) in table order
    ("1", 0, 0, "kernel"),
    ("lambda2", 7, 1, "kernel"),
    ("lambda1", 3, 1, "kernel"),
    ("t^2*lambda2", 3, 1, "kernel"),
    ("t*lambda1", 1, 1, "kernel"),
    ("del", -1, 1, "cokernel"),
    ("lambda1*lambda2", 10, 2, "kernel"),
    ("t*lambda1*lambda2", 8, 2, "kernel"),
    ("t^2*lambda1*lambda2", 6, 2, "kernel"),
    ("del*lambda2", 6, 2, "cokernel"),
    ("del*lambda1", 2, 2, "cokernel"),
    ("del*lambda1*lambda2", 9, 3, "cokernel"),
]


class TestSyntomicTable:
    def test_p2_exact_table(self):
        table = syntomic_table(2)
        got = [(e.name, e.degree, e.weight, e.origin) for e in table.entries]
        assert got == P2_TABLE

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_size_and_weight_histogram(self, p):
        table = syntomic_table(p)
        assert len(table.entries) == 4 * p + 4
        hist = {}
        for e in table.entries:
            hist[e.weight] = hist.get(e.weight, 0) + 1
        assert hist == {0: 1, 1: 2 * p + 1, 2: 2 * p + 1, 3: 1}

    @pytest.mark.parametrize("p", [2, 3])
    def test_boundary_classes(self, p):
        table = syntomic_table(p)
        dels = sorted(e.degree for e in table.entries
                      if e.origin == "cokernel")
        assert dels == sorted([-1, 2 * p - 2, 2 * p * p - 2,
                               2 * p * p + 2 * p - 3])

    def test_window_enlargement_is_invariant(self):
        base = syntomic_table(3)
        d0, d1, w0, w1 = default_table_window(3)
        wide = syntomic_table(3, (d0 - 6, d1 + 10, w0, w1 + 4))
        assert base.entries == wide.entries

    def test_convention_independence(self):
        one = syntomic_table(3, convention="one")
        alt = syntomic_table(3, convention="alt")
        assert one.entries == alt.entries
        assert one.frobenius_unit != alt.frobenius_unit

    def test_cutting_window_is_an_error(self):
        with pytest.raises(SyntomicWindowError, match="enlarge"):
            syntomic_table(2, (-2, 8, 0, 8))

    def test_bad_window_bounds(self):
        with pytest.raises(ValueError):
            syntomic_table(2, (3, -3, 0, 8))

    def test_v2_bidegree(self):
        assert syntomic_table(2).v2_bidegree == (6, 3)
        assert syntomic_table(3).v2_bidegree == (16, 8)


class TestTableSerialization:
    def test_json_roundtrip(self):
        table = syntomic_table(3)
        doc = table.to_json_dict()
        back = GeneratorTable.from_json_dict(doc)
        assert back.entries == table.entries
        assert back.p == 3 and back.frobenius_unit == "one"
        assert back.to_json_dict() == doc

    def test_json_schema_fields(self):
        doc = syntomic_table(2).to_json_dict()
        assert doc["prime"] == 2
        assert doc["convention"] == {"frobenius_unit": "one",
                                     "generators": "hazewinkel"}
        assert doc["module"] == "free_over_v2"
        assert doc["v2_bidegree"] == [6, 3]
        assert len(doc["generators"]) == 12
        assert all(set(g) == {"name", "degree", "weight", "origin"}
                   for g in doc["generators"])
        json.dumps(doc)  # must be serializable as-is

    def test_from_json_validates(self):
        doc = syntomic_table(2).to_json_dict()
        bad = dict(doc, module="free_over_v1")
        with pytest.raises(VerificationError):
            GeneratorTable.from_json_dict(bad)
        bad = dict(doc, v2_bidegree=[5, 3])
        with pytest.raises(VerificationError):
            GeneratorTable.from_json_dict(bad)

    def test_csv_shape(self):
        text = syntomic_table(2).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "name,degree,weight,origin"
        assert lines[1] == "1,0,0,kernel"
        assert len(lines) == 13

    def test_duplicate_names_rejected(self):
        with pytest.raises(VerificationError, match="unique"):
            GeneratorTable(2, "one", [TableEntry("x", 0, 0, "kernel"),
                                      TableEntry("x", 0, 0, "kernel")])

    def test_bad_origin_rejected(self):
        with pytest.raises(VerificationError, match="origin"):
            GeneratorTable(2, "one", [TableEntry("x", 0, 0, "image")])


class TestHodgeTate:
    @pytest.mark.parametrize("p", [2, 3])
    def test_unit_is_one(self, p):
        report = hodge_tate_check(p)
        assert report.ok and report.leading_unit == 1
        assert report.leading_term == f"v2*t^{p * p}"
        assert report.degree_window == (-2 * p * p, 2 * p * p)

    def test_dimensions_cover_window(self):
        report = hodge_tate_check(2)
        assert report.dimensions[0] >= 1
        assert min(report.dimensions) >= -8
        assert max(report.dimensions) <= 8

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_dimensions_match_a_count(self, p):
        # Λ(λ₁, λ₂) sits in degrees 0, 2p-1, 2p²-1 and 2p²+2p-2; each side
        # adds every multiple of 2p², counted over [-2p², 2p²]
        P = 2 * p * p
        want = {}
        for c in (0, 2 * p - 1, P - 1, P + 2 * p - 2):
            for d in range(c - 2 * P, c + 2 * P + 1, P):
                if -P <= d <= P:
                    want[d] = want.get(d, 0) + 1
        report = hodge_tate_check(p)
        assert report.ok and report.degree_window == (-P, P)
        assert report.dimensions == want

    def test_mu_off_the_t_lattice_is_caught(self, monkeypatch):
        # |μ| = 2p² + 2 is not -p²·|t|, so the two sides disagree
        monkeypatch.setattr(
            summand, "tcminus_presentation",
            with_degree(tcminus_presentation, "mu", 2 * 9 + 2))
        with pytest.raises(VerificationError, match="graded dimensions"):
            hodge_tate_check(3)


class TestCollapseCheckers:
    @pytest.mark.parametrize("p", [3, 5])
    def test_motivic_collapse(self, p):
        report = motivic_collapse_check(p)
        assert report.collapses and report.witnesses == []
        assert report.r_range[0] == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_v2_bockstein_collapse(self, p):
        report = v2_bockstein_check(p)
        assert report.collapses and report.witnesses == []
        assert report.rule.deg_per_r == 2 * p * p - 2
        assert report.rule.weight_per_r == p * p - 1

    def test_corrupted_chart_is_detected(self):
        table = syntomic_table(3)
        fake = GeneratorTable(
            3, "one",
            table.entries + [TableEntry("fake", 4, 3, "kernel")])
        report = motivic_collapse_check(3, table=fake)
        assert not report.collapses
        assert any("fake" in (w[1], w[2]) for w in report.witnesses)

    def test_corrupted_v2_chart_is_detected(self):
        table = syntomic_table(3)
        fake = GeneratorTable(
            3, "one",
            table.entries + [TableEntry("fakesrc", 0, 0, "kernel"),
                             TableEntry("faketgt", 15, 8, "kernel")])
        report = v2_bockstein_check(3, table=fake)
        assert not report.collapses
