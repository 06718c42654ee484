"""Acceptance gate: one test per numbered claim, all at exact tolerances.

Each test prints a single ``CRITERION n PASS`` line (visible under -s) once
every assertion in it has held; under ``pytest -v`` the per-test PASSED/FAILED
status is the per-criterion verdict.
"""

import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from helpers import (check_square_zero, dense_matrix, dense_page_dims,
                     dense_rank, enumerate_basis, formal_sum,
                     random_square_zero_case, scale_mu_columns,
                     source_env, with_degree)
from synto import summand
from synto.cli import main
from synto.fgl import (compose, exp_coefficients, formal_sum_of,
                       log_coefficients, log_of, p_series, pipeline_catalog,
                       required_depth, right_unit_t)
from synto.graded import CoeffRing, Poly, VerificationError, canonical_catalog
from synto.linalg import vec_addmul
from synto.spectral import build_page, leibniz_extend, turn_page
from synto.summand import (GeneratorTable, TableEntry, _einfty,
                           _fiber_parts, _formal_group_certificate,
                           comparison_maps, default_table_window,
                           hodge_tate_check, motivic_collapse_check,
                           syntomic_table, tcminus_einfty,
                           tcminus_presentation, tp_einfty,
                           v2_bockstein_check)

PRIMES_SMALL = (2, 3, 5)
PRIMES_ALL = (2, 3, 5, 7)

# (degree, weight) census of the 24-generator table at p = 5, with the
# double occupancies at (9, 1) and (48, 2)
P5_CENSUS = sorted([
    (0, 0),
    (-1, 1), (1, 1), (3, 1), (5, 1), (7, 1), (9, 1), (9, 1),
    (19, 1), (29, 1), (39, 1), (49, 1),
    (8, 2), (18, 2), (28, 2), (38, 2), (48, 2), (48, 2),
    (50, 2), (52, 2), (54, 2), (56, 2), (58, 2),
    (57, 3),
])


def leibniz_or_empty(spec, r, m):
    img = leibniz_extend(spec, r, m)
    return img if img is not None else {}


def cli_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"cli exited {code}"
    return json.loads(out.getvalue())


def cli_text(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"cli exited {code}"
    return out.getvalue()


class TestAcceptance:
    def test_criterion_1_generator_tables_for_all_primes(self):
        timings = {}
        for p in PRIMES_ALL:
            # time the full computation, not a cache
            _einfty.cache_clear()
            _formal_group_certificate.cache_clear()
            t0 = time.monotonic()
            doc = cli_json(["syntomic", "--prime", str(p),
                            "--format", "json"])
            timings[p] = time.monotonic() - t0
            assert len(doc["generators"]) == 4 * p + 4
            assert timings[p] < 10.0
        doc5 = cli_json(["syntomic", "--prime", "5", "--format", "json"])
        census = sorted((g["degree"], g["weight"])
                        for g in doc5["generators"])
        assert census == P5_CENSUS
        assert census.count((9, 1)) == 2
        assert census.count((48, 2)) == 2
        shown = ", ".join(f"p={p}: {4 * p + 4} gens in {timings[p]:.2f}s"
                          for p in PRIMES_ALL)
        print(f"\nCRITERION 1 PASS: {shown}; p=5 census exact")

    def test_criterion_2_p_series_congruences(self):
        units = {}
        for p in PRIMES_SMALL:
            pp = p * p
            runs = [p_series(p, p + 1, ideal=("p",)) for _ in range(2)]
            assert runs[0].terms == runs[1].terms  # stable across runs
            cat = runs[0].catalog
            lead1 = cat.mono({"v1": 1, "t": p})
            u1 = runs[0].coefficient(lead1)
            assert dict(runs[0].terms) == {lead1: u1} and u1 % p != 0

            runs = [p_series(p, pp + 1, ideal=("p", "v1")) for _ in range(2)]
            assert runs[0].terms == runs[1].terms
            cat = runs[0].catalog
            lead2 = cat.mono({"v2": 1, "t": pp})
            u2 = runs[0].coefficient(lead2)
            assert dict(runs[0].terms) == {lead2: u2} and u2 % p != 0
            units[p] = (u1, u2)
        assert all(units[p] == (1, 1) for p in PRIMES_SMALL)
        shown = ", ".join(f"p={p}: units {units[p]}" for p in PRIMES_SMALL)
        print(f"\nCRITERION 2 PASS: [p](t) = u1*v1*t^p mod (p, t^(p+1)) and "
              f"u2*v2*t^(p^2) mod (p, v1, t^(p^2+1)); {shown}")

    def test_criterion_3_right_unit_congruences(self):
        for p in PRIMES_SMALL:
            pp = p * p
            eta = right_unit_t(p, p + 2, ideal=("p", "v1"))
            cat = eta.catalog
            assert dict(eta.terms) == {cat.mono({"t": 1}): 1,
                                       cat.mono({"t1": 1, "t": p}): 1}
            eta = right_unit_t(p, pp + 2 * p, ideal=("p", "v1"))
            cat = eta.catalog
            tp = Poly.from_terms(cat, eta.ring, [(cat.mono({"t": p}), 1)],
                                 eta.trunc)
            dev = eta ** p - tp
            assert dict(dev.terms) == {cat.mono({"t1": p, "t": pp}): 1}
        print(f"\nCRITERION 3 PASS: eta(t) = t + t1*t^p and "
              f"eta(t)^p = t^p + t1^p*t^(p^2) mod (p, v1) for p in "
              f"{PRIMES_SMALL}")

    def test_criterion_4_einfty_closed_forms(self):
        counts = {}
        for p in PRIMES_SMALL:
            pp = p * p
            # TP: the Laurent lattice F_p[t^{+-p^2}] tensor the exterior
            # algebra on lambda1, lambda2
            page = tp_einfty(p, default_table_window(p))
            cat = page.pres.catalog
            ti = cat.index["t"]
            actual = {cat.mono_str(m)
                      for _b, m, _v in page.class_reps(False)}
            predicted = {cat.mono_str(m)
                         for m in enumerate_basis(page.pres, page.window)
                         if cat.bidegree(m) not in page.flags
                         and m[ti] % pp == 0}
            assert actual == predicted and actual
            assert {"1", "lambda1", "lambda2", "lambda1*lambda2"} <= actual
            counts[p] = [len(actual)]

            # TC-: the non-negative lattice, the mu tower, plus the four
            # leftover families t^d*l1, t^(pd)*l2, t^d*l1l2, t^(pd)*l1l2
            # with 0 < d < p
            page = tcminus_einfty(p, default_table_window(p))
            cat = page.pres.catalog
            ti, mi = cat.index["t"], cat.index["mu"]
            l1, l2 = cat.index["lambda1"], cat.index["lambda2"]
            actual = {cat.mono_str(m)
                      for _b, m, _v in page.class_reps(False)}
            predicted = set()
            for m in enumerate_basis(page.pres, page.window):
                if cat.bidegree(m) in page.flags:
                    continue
                a = m[ti]
                if (m[mi] >= 1 or a % pp == 0
                        or (m[l1] and 0 < a < p)
                        or (m[l2] and a % p == 0 and 0 < a < pp)):
                    predicted.add(cat.mono_str(m))
            assert actual == predicted and actual
            for d in range(1, p):
                e1 = "t*" if d == 1 else f"t^{d}*"
                ep = f"t^{p * d}*"
                assert {e1 + "lambda1", ep + "lambda2",
                        e1 + "lambda1*lambda2",
                        ep + "lambda1*lambda2"} <= actual
            counts[p].append(len(actual))
        shown = ", ".join(f"p={p}: TP {c[0]} / TC- {c[1]} classes"
                          for p, c in counts.items())
        print(f"\nCRITERION 4 PASS: exact two-sided basis match; {shown}")

    def test_criterion_5_engine_against_dense_oracle(self):
        biggest = 0
        for seed in range(200):
            pres, window, spec, r = random_square_zero_case(random.Random(seed))
            p = pres.p
            cat = pres.catalog
            basis = enumerate_basis(pres, window)
            assert len(basis) <= 50
            biggest = max(biggest, len(basis))

            # d squared is zero: the engine verifier plus a dense
            # double application free of any window bookkeeping
            page = build_page(pres, window)
            while page.r < r:
                page = turn_page(page, spec)
            check_square_zero(page, spec, r)
            for m in basis:
                acc = {}
                for m1, c1 in leibniz_or_empty(spec, r, m).items():
                    acc = vec_addmul(p, acc, leibniz_or_empty(spec, r, m1),
                                     c1)
                assert acc == {}, f"dense d^2 nonzero on {cat.mono_str(m)}"

            # homology dimensions match the dense oracle bidegree by
            # bidegree
            # a turned page lists only the bidegrees that still have classes
            nxt = turn_page(page, spec)
            got = nxt.dims()
            dense = dense_page_dims(pres, window, spec, r)
            assert got == {b: n for b, n in dense.items() if n}

            # rank bookkeeping: dim E_{r+1} = n - rank(out) - rank(in)
            by_b = {}
            for m in basis:
                by_b.setdefault(cat.bidegree(m), []).append(m)
            shift = spec.rule.shift(r)
            for b, monos in by_b.items():
                tb = (b[0] + shift[0], b[1] + shift[1])
                sb = (b[0] - shift[0], b[1] - shift[1])
                rank_out = rank_in = 0
                if tb in by_b:
                    tindex = {m: i for i, m in enumerate(by_b[tb])}
                    rank_out = dense_rank(
                        p, dense_matrix(spec, r, monos, tindex), len(by_b[tb]))
                if sb in by_b:
                    tindex = {m: i for i, m in enumerate(monos)}
                    rank_in = dense_rank(
                        p, dense_matrix(spec, r, by_b[sb], tindex),
                        len(monos))
                assert got.get(b, 0) == len(monos) - rank_out - rank_in
        print(f"\nCRITERION 5 PASS: 200 random square-zero specs "
              f"(max window basis {biggest} monomials) match the dense "
              f"oracle with d^2 = 0 and exact rank bookkeeping")

    def test_criterion_6_collapse_checkers(self):
        for p in (3, 5, 7):
            report = motivic_collapse_check(p, table=syntomic_table(p))
            assert report.collapses and report.witnesses == []
        for p in PRIMES_ALL:
            report = v2_bockstein_check(p, table=syntomic_table(p))
            assert report.collapses and report.witnesses == []
        table = syntomic_table(3)
        fake = GeneratorTable(
            3, table.entries + [TableEntry("fake", 4, 3, "kernel")])
        report = motivic_collapse_check(3, table=fake)
        assert not report.collapses and len(report.witnesses) >= 1
        print("\nCRITERION 6 PASS: motivic collapse for p in (3, 5, 7), "
              "v2-Bockstein collapse for p in (2, 3, 5, 7), corrupted chart "
              f"flagged with {len(report.witnesses)} witness(es)")

    def test_criterion_7_hodge_tate_comparison(self, monkeypatch):
        for p in PRIMES_ALL:
            report = hodge_tate_check(p)
            assert report.ok and report.leading_term.endswith(f"v2*t^{p * p}")
        # |μ| = 2p² is checked by the certificate: μ at 2p² + 2 and at -2p²
        # are refused
        for degree in (2 * 9 + 2, -2 * 9):
            _formal_group_certificate.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(summand, "tcminus_presentation",
                          with_degree(tcminus_presentation, "mu", degree))
                with pytest.raises(VerificationError,
                                   match=r"^axiom degree mismatch "
                                         r"\(mu vs sigma2v2\)"):
                    _formal_group_certificate(3)
        _formal_group_certificate.cache_clear()
        print(f"\nCRITERION 7 PASS: the p-series mod (p, v1) starts with "
              f"a unit times v2*t^(p^2) for p in {PRIMES_ALL}; mu at "
              f"2p^2 + 2 and at -2p^2 is refused")

    def test_criterion_8_fgl_property_suite(self):
        for p in (2, 3):
            ring = CoeffRing(0, p)
            # unit law
            F = formal_sum(p, 8)
            cat = F.catalog
            x = Poly.gen(cat, ring, "x", F.trunc)
            y = Poly.gen(cat, ring, "y", F.trunc)
            assert F.kill_generators(["y"]) == x
            assert F.kill_generators(["x"]) == y

            # commutativity
            xi, yi = cat.index["x"], cat.index["y"]

            def swap(m):
                m = list(m)
                m[xi], m[yi] = m[yi], m[xi]
                return tuple(m)

            assert {swap(m): c for m, c in F.terms.items()} == dict(F.terms)

            # associativity
            trunc = 6 if p == 2 else 5
            acat = canonical_catalog(p, depth=max(2, required_depth(p, trunc)),
                                     orientations=("t", "x", "y", "z"))
            ax = Poly.gen(acat, ring, "x", trunc)
            ay = Poly.gen(acat, ring, "y", trunc)
            az = Poly.gen(acat, ring, "z", trunc)
            Fxy = formal_sum_of(p, trunc, [ax, ay], acat)
            Fyz = formal_sum_of(p, trunc, [ay, az], acat)
            assert formal_sum_of(p, trunc, [Fxy, az], acat) == \
                formal_sum_of(p, trunc, [ax, Fyz], acat)

            # log/exp inversion
            lcat = pipeline_catalog(p, 10)
            ls = log_coefficients(p, required_depth(p, 10), lcat)
            t = Poly.gen(lcat, ring, "t", 10)
            es = exp_coefficients(p, log_of(t, p, ls, 10))
            assert compose(es, log_of(t, p, ls, 10)) == t
            assert log_of(compose(es, t), p, ls, 10) == t

            # p-integrality of the formal sum at truncation 12
            formal_sum(p, 12).assert_p_integral(p)
        print("\nCRITERION 8 PASS: unit, commutativity, associativity, "
              "log/exp inversion, and p-integrality for p in (2, 3) at "
              "truncation <= 12")

    def test_criterion_9_determinism_and_convention(self):
        # bit-identical across separate processes
        cmd = [sys.executable, "-m", "synto", "syntomic", "--prime", "3",
               "--format", "json"]
        env = source_env()
        a = subprocess.run(cmd, capture_output=True, env=env).stdout
        b = subprocess.run(cmd, capture_output=True, env=env).stdout
        assert a and a == b

        # bit-identical SVG within a process
        svg1 = cli_text(["syntomic", "--prime", "2", "--format", "svg"])
        svg2 = cli_text(["syntomic", "--prime", "2", "--format", "svg"])
        assert svg1 == svg2

        # φ's units on μ^k, k ≥ 1, move no generator: seeded draws from
        # F_p^× on those columns leave the fiber as it is
        for p in (3, 5):
            source, target, can, phi = comparison_maps(p)
            fiber = _fiber_parts(p, source, target, phi=phi, can=can)
            rng = random.Random(90 + p)
            for _ in range(5):
                scaled = scale_mu_columns(p, source, phi, rng)
                assert _fiber_parts(p, source, target, phi=scaled,
                                    can=can) == fiber
        print("\nCRITERION 9 PASS: process-level bit-identical output; "
              "units of phi on mu^k, k >= 1, move no generator at p = 3, 5")
