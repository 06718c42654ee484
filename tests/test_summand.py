"""The Adams-summand pipeline: derived differentials, certified E∞ pages,
comparison maps, the generator table, and the consistency checkers."""

import json
import random
from fractions import Fraction

import pytest

from helpers import run_cli
from synto import fgl, summand
from synto.fgl import orientation_truncation
from synto.graded import GeneratorSymbol, Poly, VerificationError
from synto.linalg import Span, kernel_basis
from synto.spectral import BidegreeData, ChartEntry, Presentation, SSPage
from synto.summand import (BasisClass, GeneratorTable, SyntomicWindowError,
                           TableEntry, comparison_maps,
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
        gens = [GeneratorSymbol(name, degree, g.weight, g.invertible)
                if g.name == name else g for g in pres.gens]
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

    def test_refused_preset_is_a_failed_check(self, monkeypatch):
        # λ₁ at weight 1: the image t^4·λ₁ of d_3(t) lands one weight above
        # (-2, 1) + (-1, 3), so DifferentialSpec refuses the preset, and that
        # is an internal fault (exit 2), not a bad input
        def wrong(p):
            return Presentation(p, [GeneratorSymbol(g.name, g.degree, 1,
                                                    g.invertible)
                                    if g.name == "lambda1" else g
                                    for g in tp_presentation(p).gens])

        monkeypatch.setitem(summand.PRESENTATIONS, "tp", wrong)
        why = ("the tp preset at p = 3 is refused: image term t^4*lambda1 of "
               "d_3(t^1) has bidegree (-3, 5), expected (-3, 4)")
        with pytest.raises(VerificationError) as e:
            derive_differentials(3, "tp")
        assert str(e.value) == why
        assert run_cli(["ss", "--preset", "tp", "--prime", "3"]) == (
            2, "", f"assertion failed: {why}\n")

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

    def test_unreduced_right_unit_is_checked(self, monkeypatch):
        """A fault that only the unreduced series sees: l₁ = v₁/p² in place
        of v₁/p.  Once v₁ is killed the early path never reads l₁, so η
        is unchanged, but the full right unit at t^{p+2} that the
        certificate recomputes carries −v₁/2·t₁t³ at p = 2.  At p ≥ 3 the
        window t^{p+2} does not reach a term that this fault makes
        non-p-integral, so the fault passes there."""
        real = fgl.log_coefficients

        def corrupted(p, depth, cat, ideal=()):
            ls = real(p, depth, cat, ideal)
            ls[1] = ls[1].scale(Fraction(1, p))
            return ls

        monkeypatch.setattr(fgl, "log_coefficients", corrupted)
        with pytest.raises(VerificationError,
                           match=r"non p-integral coefficient -1/2 on "
                                 r"t\^3\*v1\*t1"):
            _certificate(2)

    def test_early_and_late_quotients_are_compared(self, monkeypatch):
        # only the check series, which takes (p, v1) after the arithmetic,
        # gains a term; the certified right unit took it before
        real = fgl.right_unit_t

        def corrupted(p, trunc, ideal=()):
            eta = real(p, trunc, ideal)
            cat = eta.catalog
            return eta + Poly.from_terms(
                cat, eta.ring, [(cat.mono({"t": p + 1}), 1)], eta.trunc)

        monkeypatch.setattr(fgl, "right_unit_t", corrupted)
        with pytest.raises(VerificationError,
                           match=r"^right unit mod \(p, v1\) differs when v1 "
                                 r"is killed before the series arithmetic "
                                 r"and after it$"):
            _certificate(3)

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
    """The comparison bases, read off the certified E∞ pages: the source is
    the TC⁻ page and the target the TP page."""

    def test_tp_basis_window(self):
        win = (-2, 14, 0, 8)
        _source, basis, _can, _phi = comparison_maps(2, win)
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
        names = {c.name for c in comparison_maps(3, win)[0]}
        assert {"t*lambda1", "t^6*lambda2", "mu",
                "lambda1*lambda2"} <= names
        assert "t^-9" not in names  # no negative t-powers on this side

    def test_basis_classes_are_sorted(self):
        source, target, _can, _phi = comparison_maps(2)
        assert source == sorted(source) and target == sorted(target)

    def test_basis_classes_sort_by_their_fields_in_order(self):
        fields = [(0, 1, "b", 0, 0, 1, 0), (0, 1, "a", 2, 0, 0, 1),
                  (-1, 2, "c", 0, 1, 1, 1), (0, 0, "z", 0, 0, 0, 0),
                  (0, 1, "a", 1, 3, 0, 0), (0, 1, "a", 1, 2, 1, 0),
                  (0, 1, "a", 1, 2, 0, 1), (0, 1, "a", 1, 2, 0, 0)]
        classes = [BasisClass(*f) for f in fields]
        assert sorted(classes) == [BasisClass(*f) for f in sorted(fields)]
        again = BasisClass(*fields[0])
        assert again is not classes[0] and again == classes[0]
        assert hash(again) == hash(classes[0])

    def test_record_reprs(self):
        assert (repr(BasisClass(3, 1, "lambda1", 0, 0, 1, 0))
                == "BasisClass(degree=3, weight=1, name='lambda1', t_exp=0, "
                   "mu_exp=0, eps1=1, eps2=0)")
        assert (repr(TableEntry("1", 0, 0, "kernel"))
                == "TableEntry(name='1', degree=0, weight=0, origin='kernel')")
        assert (repr(GeneratorTable(2, "one", [TableEntry("1", 0, 0, "kernel")]))
                == "GeneratorTable(p=2, frobenius_unit='one', entries=["
                   "TableEntry(name='1', degree=0, weight=0, origin='kernel')"
                   "], notes=[])")

    def test_records_of_different_types_are_unequal(self):
        entry = TableEntry("1", 0, 0, "kernel")
        assert entry == TableEntry("1", 0, 0, "kernel")
        assert entry != ("1", 0, 0, "kernel")
        assert entry != BasisClass(0, 0, "1", 0, 0, 0, 0)
        assert BasisClass(0, 0, "1", 0, 0, 0, 0) != (0, 0, "1", 0, 0, 0, 0)

    def test_degree_formula(self):
        # |t^d·x| = |x| - 2d: t^2·lambda1 at p=3 has degree 5 - 4 = 1
        (c,) = [c for c in comparison_maps(3)[0] if c.name == "t^2*lambda1"]
        assert (c.degree, c.weight) == (1, 1)


def basis_class(degree, weight, name):
    return BasisClass(degree, weight, name, 0, 0, 0, 0)


class TestFiberParts:
    """The maps' hard errors, raised where φ − can is assembled."""

    SOURCE = [basis_class(0, 0, "a"), basis_class(0, 0, "b")]
    TARGET = [basis_class(0, 0, "x"), basis_class(0, 0, "y"),
              basis_class(2, 0, "z"), basis_class(0, 1, "w")]

    def fiber(self, phi, can):
        return summand._fiber_parts(3, self.SOURCE, self.TARGET, phi, can)

    def test_missing_image_class(self):
        with pytest.raises(VerificationError,
                           match="phi has no image class on a -> v"):
            self.fiber({"a": {"v": 1}}, {})

    def test_bidegree_preservation_enforced(self):
        with pytest.raises(VerificationError,
                           match="can does not preserve bidegree on a -> z"):
            self.fiber({}, {"a": {"z": 1}})
        with pytest.raises(VerificationError,
                           match="phi does not preserve bidegree on a -> w"):
            self.fiber({"a": {"w": 1}}, {})

    def test_zero_entries_rejected(self):
        with pytest.raises(VerificationError,
                           match="phi stores a zero entry on a -> y"):
            self.fiber({"a": {"x": 1, "y": 3}}, {})

    def test_repeated_target_rejected(self):
        with pytest.raises(VerificationError,
                           match="can is not injective on b -> x"):
            self.fiber({}, {"a": {"x": 1}, "b": {"x": 2}})


def reference_fiber_parts(p, source, target, phi, can):
    """Kernel and cokernel of φ − can with two eliminations per degree: a
    kernel basis of the columns, then a separate span for the image."""
    kernel, cokernel, dims = [], [], {}
    for degree in sorted({c.degree for c in source + target}):
        src = [c for c in source if c.degree == degree]
        tgt = [c for c in target if c.degree == degree]
        tix = {c.name: i for i, c in enumerate(tgt)}
        cols = []
        for c in src:
            v = {}
            for columns, sign in ((phi, 1), (can, -1)):
                for tname, coeff in columns.get(c.name, {}).items():
                    i = tix[tname]
                    v[i] = (v.get(i, 0) + sign * coeff) % p
                    if not v[i]:
                        del v[i]
            cols.append(v)
        kers = kernel_basis(p, cols)
        kernel += [src[max(ker)] for ker in kers]
        span = Span(p, cols)
        cokernel += [c for i, c in enumerate(tgt) if i not in span.rows]
        dims[degree] = (len(kers), len(tgt) - span.dim)
    return kernel, cokernel, dims


def random_map(rng, p, source, target):
    """A random degree- and weight-preserving injective map: the target
    classes of each bidegree are dealt out among its source classes, so a
    column has several entries, each in F_p^×, and no target is hit twice.
    About a third of the target classes are left out."""
    columns = {}
    for s in source:
        pool = [t.name for t in target
                if (t.degree, t.weight) == (s.degree, s.weight)
                and not any(t.name in col for col in columns.values())]
        col = {t: rng.randrange(1, p) for t in pool if rng.random() < 0.5}
        if col:
            columns[s.name] = col
    return columns


class TestFiberOracle:
    """The one elimination of ``_fiber_parts`` against a kernel basis and a
    separate image span."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_two_eliminations(self, p):
        rng = random.Random(p)

        def classes(prefix):
            return sorted(BasisClass(rng.randrange(-1, 2), rng.randrange(2),
                                     f"{prefix}{i}", 0, 0, 0, 0)
                          for i in range(rng.randrange(16)))

        entries = 0
        for _ in range(60):
            source, target = classes("s"), classes("t")
            phi = random_map(rng, p, source, target)
            can = random_map(rng, p, source, target)
            entries = max(entries, *(len(col) for col in
                                     (*phi.values(), *can.values(), {})))
            assert (summand._fiber_parts(p, source, target, phi, can)
                    == reference_fiber_parts(p, source, target, phi, can))
        assert entries >= 3  # columns of several entries were drawn


class TestComparisonMaps:
    @pytest.mark.parametrize("p", [2, 3])
    def test_can_hits_nonnegative_lattice_only(self, p):
        source, _target, can, _phi = comparison_maps(p)
        for c in source:
            col = can.get(c.name, {})
            if c.mu_exp == 0 and c.t_exp >= 0 and c.t_exp % (p * p) == 0:
                assert col == {c.name: 1}
            else:
                assert col == {}

    @pytest.mark.parametrize("p", [2, 3])
    def test_frobenius_inverts_mu_powers(self, p):
        source, _target, _can, phi = comparison_maps(p)
        for c in source:
            col = phi.get(c.name, {})
            if c.t_exp == 0:
                assert len(col) == 1
                (tname, u) = next(iter(col.items()))
                if c.mu_exp:
                    assert f"t^{-c.mu_exp * p * p}" in tname
                assert u % p and (c.mu_exp > 0 or u == 1)
            else:
                assert col == {}

    def test_alt_convention_differs_only_in_units(self):
        source, target, can, one = comparison_maps(3, convention="one")
        *same, alt = comparison_maps(3, convention="alt")
        assert same == [source, target, can]
        assert set(one) == set(alt)
        diffs = 0
        for c in source:
            a, b = one.get(c.name, {}), alt.get(c.name, {})
            assert set(a) == set(b)
            diffs += sum(1 for k in a if a[k] != b[k])
        assert diffs > 0  # the conventions genuinely differ at p = 3

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            comparison_maps(3, convention="legendre")


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


class TestPipelineChecks:
    """Each of the pipeline's own checks fires when the layer before it
    hands on a wrong answer, and exits 2 from the CLI."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        summand._einfty.cache_clear()
        yield
        summand._einfty.cache_clear()

    @staticmethod
    def stable_page(monkeypatch, edit):
        """Make `run_to_stable` hand `edit(page)`'s page to the pipeline."""
        real = summand.run_to_stable

        def patched(page, spec):
            final, log = real(page, spec)
            return edit(final), log

        monkeypatch.setattr(summand, "run_to_stable", patched)

    @staticmethod
    def fiber(monkeypatch, edit):
        """Make `_fiber_parts` hand `edit(kernel, cokernel, dims)` on."""
        real = summand._fiber_parts
        monkeypatch.setattr(summand, "_fiber_parts", lambda *a: edit(*real(*a)))

    @staticmethod
    def fails(call, why):
        """call() raises ``why``, and so does `synto syntomic`, which runs
        TC⁻ first."""
        with pytest.raises(VerificationError) as e:
            call()
        assert str(e.value) == why
        assert run_cli(["syntomic", "--prime", "2"]) == (
            2, "", f"assertion failed: {why}\n")

    def test_einfty_against_the_closed_form(self, monkeypatch):
        # the least unflagged class of the stable page goes missing
        def drop(page):
            b = min(b for b, d in page.data.items() if d.alive and b not in page.flags)
            d = page.data[b]
            data = {**page.data, b: BidegreeData(d.monos, [], d.boundaries, d.index)}
            return SSPage(page.pres, page.window, page.r, data, page.flags)

        self.stable_page(monkeypatch, drop)
        self.fails(lambda: tcminus_einfty(2),
                   "tcminus E-infinity mismatch at bidegree (-1, 4): "
                   "computed [], closed form ['t^4*lambda2']")

    def test_boundary_uncertain_bidegree_in_range(self, monkeypatch):
        # the class 1 at (0, 0), inside the table's degrees, is flagged
        self.stable_page(monkeypatch, lambda page: SSPage(
            page.pres, page.window, page.r, page.data, page.flags | {(0, 0)}))
        self.fails(lambda: tcminus_einfty(2),
                   "tcminus run window leaves bidegree (0, 0) "
                   "boundary-uncertain inside the requested degree range")

    def test_fiber_bookkeeping(self, monkeypatch):
        # one kernel class too many in the least degree
        def extra(kernel, cokernel, dims):
            n = min(dims)
            return kernel, cokernel, {**dims, n: (dims[n][0] + 1, dims[n][1])}

        self.fiber(monkeypatch, extra)
        self.fails(lambda: syntomic_table(2),
                   "fiber bookkeeping fails in degree -1: 1 != 1 + 1")

    def test_del_class_degrees(self, monkeypatch):
        # a kernel class in degree n handed on as a cokernel class in degree
        # n + 1: the same count in each degree, and a fifth ∂-class
        def move(kernel, cokernel, dims):
            c, n = kernel[0], kernel[0].degree
            dims = {**dims, n: (dims[n][0] - 1, dims[n][1])}
            k, co = dims.get(n + 1, (0, 0))
            dims[n + 1] = (k, co + 1)
            ghost = BasisClass(n + 1, c.weight, "ghost", c.t_exp, c.mu_exp,
                               c.eps1, c.eps2)
            return kernel[1:], cokernel + [ghost], dims

        self.fiber(monkeypatch, move)
        self.fails(lambda: syntomic_table(2), "del-classes sit at degrees "
                                              "[-1, 0, 2, 6, 9], expected [-1, 2, 6, 9]")


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

    @pytest.mark.parametrize("kill, extra", [(["v2"], None), ([], {"t": 9})])
    def test_p_series_leading_term_is_checked(self, monkeypatch, kill, extra):
        # [3](t) mod (3, v1) loses its v2*t^9, or gains a bare t^9 beside it
        real = summand.p_series

        def corrupted(p, trunc, ideal=()):
            ps = real(p, trunc, ideal).kill_generators(kill)
            cat = ps.catalog
            return ps + Poly.from_terms(
                cat, ps.ring, [(cat.mono(extra), 1)] if extra else [],
                ps.trunc)

        monkeypatch.setattr(summand, "p_series", corrupted)
        with pytest.raises(VerificationError,
                           match=r"^p-series mod \(p, v1\) does not start "
                                 r"with a unit times v2\*t\^\(p\^2\)$"):
            hodge_tate_check(3)

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
