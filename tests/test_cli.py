"""Command-line surface: exit codes, output formats, golden strings,
presentation-file parsing, and round trips."""

import ast
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest

from helpers import SRC, run_cli, source_env
from synto import summand
from synto.cli import CLIUsageError, format_series, main, parse_presentation
from synto.fgl import p_series, right_unit_t
from synto.summand import _is_prime


class TestFormatSeries:
    def test_symbolic_factor_uses_middle_dot(self):
        poly = p_series(3, 10, ideal=("p", "v1"))
        assert format_series(poly, 10) == "v2·t^9 + O(t^10)"

    def test_right_unit_exact(self):
        poly = right_unit_t(2, 4, ideal=("p", "v1"))
        assert format_series(poly) == "t + t1·t^2"

    def test_numeric_coefficient_abuts(self):
        poly = p_series(2, 2)
        assert format_series(poly, 2) == "2t + O(t^2)"

    def test_zero(self):
        poly = p_series(2, 5).kill_generators(["v1", "v2"]).reduce_mod_p(2)
        assert format_series(poly) == "0"


class TestSyntomicCommand:
    def test_table_output(self):
        code, out, err = run_cli(["syntomic", "--prime", "2"])
        assert code == 0
        assert "mod (2, v1, v2) syntomic cohomology" in out
        assert "free over F_2[v2] on 12 generators" in out
        assert "v2 bidegree (6, 3)" in out
        assert "del*lambda1*lambda2" in out
        assert "\x1b[" not in out  # no color on a non-tty

    def test_json_output(self):
        code, out, _ = run_cli(["syntomic", "--prime", "3",
                                "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["prime"] == 3
        assert len(doc["generators"]) == 16

    def test_csv_output(self):
        code, out, _ = run_cli(["syntomic", "--prime", "2",
                                "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "name,degree,weight,origin"
        assert len(out.strip().splitlines()) == 13

    def test_svg_output(self):
        code, out, _ = run_cli(["syntomic", "--prime", "2",
                                "--format", "svg"])
        assert code == 0
        ET.fromstring(out)

    def test_non_prime_is_usage_error(self):
        code, out, err = run_cli(["syntomic", "--prime", "4"])
        assert code == 1
        assert "error: --prime 4 is not prime" in err

    def test_cutting_window_is_assertion_failure(self, monkeypatch):
        # the fiber loses a kernel class, as one a window cut off did
        real = summand._fiber_parts

        def cut(*args, **kwargs):
            kernel, cokernel, dims = real(*args, **kwargs)
            return kernel[1:], cokernel, dims

        monkeypatch.setattr(summand, "_fiber_parts", cut)
        code, out, err = run_cli(["syntomic", "--prime", "2"])
        assert code == 2 and out == ""
        assert err == ("assertion failed: the fiber yields 11 generators, "
                       "expected 12\n")

    def test_no_verify_is_gone(self):
        # every run checks its whole table, which one window holds, and
        # φ's units on μ^k move no generator, so each prime has one table
        for option in (["--no-verify"], ["--window", "-2", "8", "0", "8"],
                       ["--frobenius-unit", "alt"]):
            code, out, err = run_cli(["syntomic", "--prime", "2", *option])
            assert code == 1 and out == ""
            assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(["syntomic", "--prime", "2", "--format",
                                "json", "--out", str(target)])
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["prime"] == 2

    def test_color_env(self):
        code, out, _ = run_cli(["syntomic", "--prime", "2"],
                               env={"SYNTO_COLOR": "always"})
        assert code == 0 and "\x1b[32m" in out
        code, out, _ = run_cli(["syntomic", "--prime", "2"],
                               env={"SYNTO_COLOR": "never"})
        assert code == 0 and "\x1b[" not in out
        code, _, err = run_cli(["syntomic", "--prime", "2"],
                               env={"SYNTO_COLOR": "sometimes"})
        assert code == 1 and "SYNTO_COLOR" in err

    def test_runs_are_bit_identical(self):
        a = run_cli(["syntomic", "--prime", "3", "--format", "json"])
        b = run_cli(["syntomic", "--prime", "3", "--format", "json"])
        assert a == b


class TestFglCommand:
    def test_p_series_text(self):
        code, out, _ = run_cli(["fgl", "p-series", "--prime", "3",
                                "--mod", "p,v1", "--trunc", "10"])
        assert code == 0
        assert out == "v2·t^9 + O(t^10)\n"

    def test_right_unit_text(self):
        code, out, _ = run_cli(["fgl", "right-unit", "--prime", "2",
                                "--mod", "p,v1", "--trunc", "4"])
        assert code == 0
        assert out == "t + t1·t^2\n"

    def test_json_format(self):
        code, out, _ = run_cli(["fgl", "p-series", "--prime", "2",
                                "--mod", "p", "--trunc", "5",
                                "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["prime"] == 2 and doc["ideal"] == ["p"]
        assert {t["t_exponent"] for t in doc["terms"]} >= {2}

    def test_too_small_window_is_usage_error(self):
        for argv, message in [
            (["p-series", "--prime", "3", "--mod", "p,v1", "--trunc", "4"],
             "window too small"),
            (["p-series", "--prime", "3", "--mod", "p", "--trunc", "3"],
             "error: window too small: need trunc >= 4 to exhibit the "
             "v1*t^3 leading term mod (p)\n"),
            (["p-series", "--prime", "3", "--mod", "p,v1", "--trunc", "9"],
             "error: window too small: need trunc >= 10 to exhibit the "
             "v2*t^9 leading term mod (p, v1)\n"),
            (["p-series", "--prime", "2", "--trunc", "-3"],
             "--trunc must be positive, got -3"),
            (["p-series", "--prime", "2", "--trunc", "0"],
             "--trunc must be positive, got 0"),
            (["right-unit", "--prime", "2", "--trunc", "0"],
             "--trunc must be positive, got 0"),
        ]:
            code, out, err = run_cli(["fgl"] + argv)
            assert (code, out) == (1, ""), argv
            assert message in err, argv

    def test_ideal_without_p_needs_no_leading_term(self):
        # log t = t mod t^3, so [3](t) = exp(3t) = 3t mod t^3
        code, out, err = run_cli(["fgl", "p-series", "--prime", "3",
                                  "--mod", "v2", "--trunc", "3"])
        assert (code, out, err) == (0, "3t + O(t^3)\n", "")

    def test_mod_v1_drops_the_v1_terms(self):
        query = ["fgl", "p-series", "--prime", "3", "--trunc", "9",
                 "--format", "json"]
        code, out, _ = run_cli(query)
        assert code == 0
        full = json.loads(out)["terms"]
        code, out, _ = run_cli(query + ["--mod", "v1"])
        assert code == 0
        kept = [t for t in full if "v1" not in t["coefficient"]]
        assert len(kept) < len(full)
        assert json.loads(out)["terms"] == kept

    def test_bad_ideal_name(self):
        code, _, err = run_cli(["fgl", "p-series", "--prime", "3",
                                "--mod", "p,v9", "--trunc", "10"])
        assert code == 1 and "v9" in err

    def test_repeated_ideal_name(self):
        for series in ("p-series", "right-unit"):
            code, out, err = run_cli(["fgl", series, "--prime", "3",
                                      "--mod", "p,v1,v1", "--trunc", "10",
                                      "--format", "json"])
            assert (code, out) == (1, ""), series
            assert err == "error: --mod names v1 twice\n", series


TOY_PRESENTATION = """\
# truncated polynomial algebra with one differential: d(x^3) = 3x^2*y = 0
prime 3
gen x deg 0 weight 1 parity even maxexp 2
gen y deg -1 weight 2 parity odd
diff page 1 x -> y
window deg -1 0 weight 0 5
"""

# a file's lines after 'prime', with one 'window' line
REPEATED_TAIL = """\
gen t deg -2 weight 1 parity even invertible
gen l deg 5 weight 0 parity odd
diff page 3 t -> t^4*l
window deg -10 10 weight -3 3
"""


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    """`--prime` and the `prime` line of `ss --file` are decided by a
    deterministic Miller-Rabin in bounded time."""

    SEMIPRIME = 10000000019 * 10000000033

    @pytest.mark.parametrize("path", ["fgl", "syntomic", "ss-file"])
    def test_semiprime_is_refused_within_a_second(self, path, tmp_path):
        n = str(self.SEMIPRIME)
        pres = tmp_path / "semiprime.ss"
        pres.write_text(f"prime {n}\n")
        argv = {"fgl": ["fgl", "p-series", "--prime", n, "--trunc", "3"],
                "syntomic": ["syntomic", "--prime", n],
                "ss-file": ["ss", "--file", str(pres)]}[path]
        start = time.monotonic()
        code, out, err = run_cli(argv)
        assert time.monotonic() - start < 1
        assert code == 1 and out == ""
        assert f"{n} is not prime" in err

    def test_agrees_with_trial_division(self):
        assert [n for n in range(20001) if _is_prime(n)] == [
            n for n in range(20001) if trial_division(n)]

    def test_large_primes_and_pseudoprimes(self):
        assert _is_prime(99999999999999999989)
        # strong pseudoprimes to every prime base up to 23 and up to 37
        assert not _is_prime(3825123056546413051)
        assert not _is_prime(318665857834031151167461)

    def test_past_the_exact_bound_is_refused(self):
        # 2^89 - 1 is prime, but too large for the bases to decide
        code, out, err = run_cli(["fgl", "p-series", "--prime",
                                  str(2 ** 89 - 1), "--trunc", "3"])
        assert code == 1 and out == ""
        assert "too large to test for primality" in err
        # a small factor decides at any size
        assert not _is_prime(3 * 2 ** 200)


class TestSsCommand:
    def test_preset_tp_p2(self):
        code, out, _ = run_cli(["ss", "--preset", "tp", "--prime", "2"])
        assert code == 0
        assert "d_2:" in out and "d_4:" in out and "stable:" in out
        assert "survivors (boundary-safe):" in out

    def test_preset_tcminus_p3_verbose(self):
        code, out, _ = run_cli(["ss", "--preset", "tcminus", "--prime", "3",
                                "-v"])
        assert code == 0
        assert "bigraded dimensions" in out
        assert "t^3*lambda2" in out

    def test_file_run_small_window_is_honest(self, tmp_path):
        f = tmp_path / "toy.ss"
        f.write_text(TOY_PRESENTATION)
        code, out, err = run_cli(["ss", "--file", str(f)])
        # the toy window cannot certify stability beyond page 1
        assert code == 2
        assert "assertion failed" in err and "inconclusive" in err
        # x^a*y^e, a <= 2 and e <= 1: degree -e and weight a + 2e, all inside
        assert "E1: 6 classes" in out  # the run log stops where it failed

    def test_max_page_is_gone(self):
        code, out, err = run_cli(["ss", "--preset", "tp", "--prime", "3",
                                  "--max-page", "3"])
        assert code == 1 and out == ""
        assert "unrecognized arguments: --max-page 3" in err

    def test_closed_stdout_exits_1_without_traceback(self):
        # a reader that went away, as in `synto ss ... | head -2`
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as closed:
            with mock.patch.object(sys, "stdout", closed):
                code = main(["ss", "--preset", "tp", "--prime", "2"])
        assert code == 1

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.ss"
        f.write_text("# nothing here\n")
        code, out, _ = run_cli(["ss", "--file", str(f)])
        assert code == 0
        assert "empty presentation: no classes" in out

    @pytest.mark.parametrize("text, why", [
        ("prime 2\nprime 3\n" + REPEATED_TAIL,
         "line 2: repeated 'prime' line (first on line 1)"),
        ("prime 3\n" + REPEATED_TAIL + "window deg -4 4 weight -2 2\n",
         "line 6: repeated 'window' line (first on line 5)"),
    ], ids=["prime", "window"])
    def test_repeated_prime_or_window_line(self, tmp_path, text, why):
        # the last line used to win in silence
        f = tmp_path / "twice.ss"
        f.write_text(text)
        assert run_cli(["ss", "--file", str(f)]) == (1, "", f"error: {why}\n")

    @pytest.mark.parametrize("line, why", [
        ("rel x", "unknown generator 'x' in relation"),
        ("diff page 1 x -> y", "differential on unknown generator 'x'"),
    ], ids=["rel", "diff"])
    def test_no_gen_line_is_not_an_empty_file(self, tmp_path, line, why):
        # a file with no gen line used to print "empty presentation"
        f = tmp_path / "nogen.ss"
        f.write_text(f"prime 2\n{line}\nwindow deg 0 1 weight 0 1\n")
        assert run_cli(["ss", "--file", str(f)]) == (1, "", f"error: line 2: {why}\n")

    def test_relation_one_with_no_generator_leaves_no_class(self, tmp_path):
        f = tmp_path / "one.ss"
        f.write_text("prime 2\nrel 1\nwindow deg 0 0 weight 0 0\n")
        code, out, _ = run_cli(["ss", "--file", str(f)])
        assert code == 0
        assert "E1: 0 classes" in out and "stable: 0 classes" in out

    def test_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.ss"
        f.write_text("prime 3\ngen x deg zero weight 1 parity even\n")
        code, _, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and "line 2" in err

    def test_unknown_directive(self, tmp_path):
        f = tmp_path / "bad.ss"
        f.write_text("prime 3\nfoo bar\n")
        code, _, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and "line 2" in err and "foo" in err

    def test_relation_on_unknown_generator(self, tmp_path):
        f = tmp_path / "bad.ss"
        f.write_text("prime 3\ngen x deg 0 weight 1 parity even\nrel x*y\n")
        code, _, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and "line 3" in err and "'y'" in err

    def test_missing_file(self):
        code, _, err = run_cli(["ss", "--file", "/nonexistent/f.ss"])
        assert code == 1

    def test_non_prime_in_file(self, tmp_path):
        f = tmp_path / "bad.ss"
        f.write_text("prime 6\n")
        code, _, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and "not prime" in err

    @pytest.mark.parametrize("prime", ["3", "7"])
    def test_prime_with_file_is_refused(self, tmp_path, prime):
        # the file's prime line sets the prime, even when --prime agrees
        f = tmp_path / "toy.ss"
        f.write_text(TOY_PRESENTATION)
        code, out, err = run_cli(["ss", "--file", str(f), "--prime", prime])
        assert (code, out) == (1, "")
        assert err == ("error: --prime is for --preset runs; the 'prime' "
                       "line of the --file sets its prime\n")

    def test_preset_prime_defaults_to_2(self):
        code, out, _ = run_cli(["ss", "--preset", "tcminus"])
        assert code == 0 and out.startswith("prime 2, E1:")

    def test_parity_that_disagrees_with_degree(self, tmp_path):
        # a and b have odd degree: declared even, products would commute
        # while d signs by degree, and E∞ would be wrong
        f = tmp_path / "bad.ss"
        f.write_text("prime 3\n"
                     "gen a deg 1 weight 0 parity even maxexp 1\n"
                     "gen b deg 1 weight 0 parity even maxexp 1\n"
                     "gen c deg 0 weight 1 parity even maxexp 1\n"
                     "diff page 1 a -> c\n"
                     "window deg -2 3 weight 0 2\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and out == ""
        assert "line 2: parity even disagrees with deg 1" in err

    @pytest.mark.parametrize("lines, why", [
        (["gen x deg 2 weight 1 parity even maxexp -1"],
         "generator x has negative max_exp"),
        (["gen y deg 2 weight 0 parity even",
          "gen x deg 2 weight 1 parity even invertible maxexp 1"],
         "invertible generator x has a max_exp"),
        (["gen x deg 2 weight 1 parity even invertible", "", "rel x"],
         "relation x kills the unit x"),
        (["gen y deg 1 weight 0 parity odd maxexp 2"],
         "odd generator y must have exponent <= 1"),
        (["gen y deg 1 weight 0 parity odd invertible"],
         "odd generator y must have exponent <= 1"),
    ])
    def test_bounds_that_describe_no_algebra(self, tmp_path, lines, why):
        f = tmp_path / "bad.ss"
        f.write_text("\n".join(["prime 3", *lines,
                                "window deg -8 8 weight -4 4"]) + "\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        # the refused gen or rel is the last of the lines, after `prime`
        assert code == 1 and out == "" and f"line {1 + len(lines)}: {why}" in err

    def test_duplicate_generator_name_names_no_line(self, tmp_path):
        f = tmp_path / "bad.ss"
        f.write_text("prime 3\ngen x deg 2 weight 0 parity even\n"
                     "gen x deg 4 weight 0 parity even\n"
                     "window deg 0 8 weight 0 0\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and out == ""
        assert "bad presentation: duplicate generator name" in err

    # F_3[x]/(x^3) ⊗ Λ(y) with d_1 x = y: E∞ is 1 and x^2*y.  The window
    # holds the whole quotient, so neither class is flagged, whether x^3 = 0
    # is a relation or a cap.
    TRUNCATED = ("prime 3\ngen x deg {xdeg} weight 0 parity even{cap}\n"
                 "gen y deg 1 weight 1 parity odd\n{rel}{diff}"
                 "window deg 0 5 weight 0 1\n")

    @pytest.mark.parametrize("cap, rel", [("", "rel x^3\n"), (" maxexp 2", "")])
    def test_truncation_by_relation_or_cap(self, tmp_path, cap, rel):
        f = tmp_path / "trunc.ss"
        f.write_text(self.TRUNCATED.format(xdeg=2, cap=cap, rel=rel,
                                           diff="diff page 1 x -> y\n"))
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 0, err
        assert out.endswith("survivors (boundary-safe): 2\n  1\n  x^2*y\n")

    def test_relation_bounds_a_generator_of_bidegree_zero(self, tmp_path):
        # with x in (0, 0) only x^3 = 0 bounds its exponent
        f = tmp_path / "trunc.ss"
        f.write_text(self.TRUNCATED.format(xdeg=0, cap="", rel="rel x^3\n",
                                           diff=""))
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 0, err
        assert "E1: 6 classes" in out and "survivors (boundary-safe): 6" in out

    # Omega(F_3[x1, x2]) with x1*x2 = 0: d(x1*x2) = x2*dx1 + x1*dx2 is not
    # zero in the quotient, so d is not defined on it
    DERHAM_XY = ("prime 3\ngen x1 deg 2 weight 0 parity even\n"
                 "gen x2 deg 2 weight 0 parity even\n"
                 "gen dx1 deg 1 weight 1 parity odd\n"
                 "gen dx2 deg 1 weight 1 parity odd\n"
                 "rel x1*x2\ndiff page 1 x1 -> dx1\ndiff page 1 x2 -> dx2\n"
                 "window deg 0 8 weight 0 2\n")

    def test_relation_that_d_does_not_preserve(self, tmp_path):
        f = tmp_path / "rel.ss"
        f.write_text(self.DERHAM_XY)
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and out == ""
        assert err == ("error: line 6: d_1 does not preserve the relation "
                       "x1*x2: d_1(x1*x2) has the term x2*dx1\n")

    def test_relation_holding_an_odd_generator_is_checked(self, tmp_path):
        # d(x1*dx2) = dx1*dx2 is not zero in the quotient by x1*dx2
        f = tmp_path / "rel.ss"
        f.write_text(self.DERHAM_XY.replace("rel x1*x2\n", "").replace(
            "window", "rel x1*dx2\nwindow"))
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and out == ""
        assert err == ("error: line 8: d_1 does not preserve the relation "
                       "x1*dx2: d_1(x1*dx2) has the term dx1*dx2\n")

    def test_cap_that_d_does_not_preserve(self, tmp_path):
        # maxexp 3 is the relation x^4, and d(x^4) = 4x^3*y = x^3*y mod 3
        f = tmp_path / "toy.ss"
        f.write_text(TOY_PRESENTATION.replace("maxexp 2", "maxexp 3"))
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and out == ""
        assert err == ("error: line 3: d_1 does not preserve the relation "
                       "x^4: d_1(x^4) has the term x^3*y\n")

    def test_odd_square_relation_holds(self, tmp_path):
        # y^2 = 0 in any graded-commutative algebra, so the relation y^2
        # changes nothing: F_3[x] ⊗ Λ(y) with d(y) = x has homology 1, and
        # x^3*y, whose d leaves the window, is flagged
        text = ("prime 3\ngen x deg 0 weight 1 parity even\n"
                "gen y deg 1 weight 0 parity odd\n{rel}"
                "diff page 1 y -> x\nwindow deg 0 1 weight 0 3\n")
        runs = []
        for name, rel in (("rel.ss", "rel y^2\n"), ("free.ss", "")):
            f = tmp_path / name
            f.write_text(text.format(rel=rel))
            runs.append(run_cli(["ss", "--file", str(f)]))
        code, out, err = runs[0]
        assert code == 0, err
        assert runs[0] == runs[1]
        assert "E1: 8 classes" in out
        assert out.endswith("survivors (boundary-safe): 1\n  1\n"
                            "(+ 1 classes too close to the window edge to certify)\n")

    def test_image_term_with_an_odd_square_is_zero(self, tmp_path):
        # y^2*z is zero in any graded-commutative algebra, so d_1(x) = 0;
        # the term used to reach turn_page, which failed with exit 2
        f = tmp_path / "square.ss"
        f.write_text("prime 3\ngen x deg 2 weight 0 parity even\n"
                     "gen y deg 1 weight 1 parity odd\n"
                     "gen z deg -1 weight -1 parity odd\n"
                     "diff page 1 x -> y^2*z\n"
                     "window deg -1 6 weight -1 2\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert (code, err) == (0, "")
        assert "d_1: 15 -> 15 classes\n" in out
        assert "survivors (boundary-safe): 12\n" in out

    @pytest.mark.parametrize("rel", ["rel y*z\n", ""], ids=["killed", "unkilled"])
    def test_killed_image_term_in_the_wrong_bidegree(self, tmp_path, rel):
        # y*z sits at (2, 2), not at d_1(x)'s (1, 1): a typo, refused
        # whether or not a relation kills it
        f = tmp_path / "killed.ss"
        f.write_text("prime 3\ngen x deg 2 weight 0 parity even\n"
                     "gen y deg 1 weight 1 parity odd\n"
                     "gen z deg 1 weight 1 parity odd\n"
                     f"{rel}diff page 1 x -> y*z\n"
                     "window deg 0 6 weight 0 2\n")
        assert run_cli(["ss", "--file", str(f)]) == (
            1, "", "error: bad differential: image term y*z of d_1(x^1) "
                   "has bidegree (2, 2), expected (1, 1)\n")

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_p_th_power_relation_is_accepted(self, tmp_path, p):
        # d(x^p) = p*x^(p-1)*dx = 0
        f = tmp_path / "rel.ss"
        f.write_text(f"prime {p}\ngen x deg 2 weight 0 parity even\n"
                     "gen dx deg 1 weight 1 parity odd\n"
                     f"rel x^{p}\ndiff page 1 x -> dx\n"
                     "window deg 0 12 weight 0 1\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 0, err
        top = "x" if p == 2 else f"x^{p - 1}"
        assert out.endswith(f"survivors (boundary-safe): 2\n  1\n  {top}*dx\n")

    def test_t_mu_relation_is_accepted(self, tmp_path):
        # TC^- at p = 3: d_3(t*mu) and d_9(t^3*mu) are multiples of t*mu
        f = tmp_path / "tcminus.ss"
        f.write_text("prime 3\ngen t deg -2 weight 1 parity even\n"
                     "gen mu deg 18 weight 0 parity even\n"
                     "gen lambda1 deg 5 weight 0 parity odd\n"
                     "gen lambda2 deg 17 weight 0 parity odd\n"
                     "rel t*mu\ndiff page 3 t -> t^4*lambda1\n"
                     "diff page 9 t^3 -> t^12*lambda2\n"
                     "window deg -6 24 weight 0 14\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 0, err
        assert "  mu\n" in out

    # x in (2, 0), odd y in (1, 1) and w in (0, 2) with d_1 x = y and
    # d_1 y = w: d_1 squared is w on x, so d is no differential
    SQUARE = ("prime 3\ngen x deg 2 weight 0 parity even\n"
              "gen y deg 1 weight 1 parity odd\n"
              "gen w deg 0 weight 2 parity even\n"
              "diff page 1 x -> y\ndiff page 1 y -> w\n{window}\n")

    @pytest.mark.parametrize("window", ["window deg 0 2 weight 0 2",
                                        "window deg 0 1 weight 1 2"])
    def test_nonzero_square_is_refused(self, tmp_path, window):
        # the second window holds y and w but not x, so d² is zero on every
        # monomial in it; the spec is refused all the same
        f = tmp_path / "square.ss"
        f.write_text(self.SQUARE.format(window=window))
        assert run_cli(["ss", "--file", str(f)]) == (
            1, "", "error: bad differential: d_1 squared is nonzero on x: "
                   "d_1 of its image has the term w\n")

    def test_image_outside_its_own_pages_domain(self, tmp_path):
        # d_1 acts on powers of x^2, so x*y is outside its domain: a bad
        # input, not a failed check
        f = tmp_path / "domain.ss"
        f.write_text("prime 3\ngen x deg 2 weight 0 parity even\n"
                     "gen y deg 1 weight 1 parity odd\n"
                     "diff page 1 x^2 -> x*y\nwindow deg 0 8 weight 0 2\n")
        code, out, err = run_cli(["ss", "--file", str(f)])
        assert code == 1 and out == ""
        assert err == ("error: bad differential: image term x*y of d_1(x^2) "
                       "is outside the domain of d_1: its exponent of x is "
                       "not a multiple of 2\n")


# t is not invertible: a relation on a unit kills the whole algebra, which
# Presentation refuses
FUZZ_BASE = """\
prime 2
gen t deg -2 weight 1 parity even
gen mu deg 8 weight 0 parity even maxexp 2
gen l1 deg 3 weight 0 parity odd
gen l2 deg 7 weight 0 parity odd
rel t*mu
diff page 2 t -> t^3*l1
diff page 4 t^2 -> t^6*l2 + t^6*l2
window deg -4 12 weight -2 6
"""

# Substitutes hold no number above 3, so no mutant window grows past the
# base one and every case runs in milliseconds.
FUZZ_TOKENS = ("0", "1", "-1", "2", "3", "t", "mu", "l1", "->", "t^-1",
               "t^2", "*", "+", "-", "even", "odd", "invertible", "maxexp",
               "page", "weight", "deg", "window", "gen", "rel", "diff",
               "prime", "#", "x^")


def mutate(rng, text):
    """One to three random edits: delete, duplicate or swap a line; delete,
    swap or substitute a token."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        op = rng.randrange(6)
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif toks:
            k = rng.randrange(len(toks))
            if op == 3:
                del toks[k]
            elif op == 4:
                j = rng.randrange(len(toks))
                toks[k], toks[j] = toks[j], toks[k]
            else:
                toks[k] = rng.choice(FUZZ_TOKENS)
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


class TestSsFileFuzz:
    def test_mutants_exit_cleanly(self, tmp_path):
        # every mutant is a result (0), a usage error (1) or a failed check
        # (2), never a traceback
        rng = random.Random(20240)
        f = tmp_path / "mutant.ss"
        codes = set()
        for case in range(300):
            text = mutate(rng, FUZZ_BASE)
            f.write_text(text)
            code, _out, _err = run_cli(["ss", "--file", str(f)])
            assert code in (0, 1, 2), (case, text)
            codes.add(code)
        assert codes == {0, 1, 2}


class TestParseRefusals:
    """Each refusal of the `ss --file` parser, with its whole message."""

    @pytest.mark.parametrize("line, why", [
        ("rel x^a", "bad exponent 'a'"),
        ("rel x**x", "empty factor"),
        ("rel 2x", "bad generator name '2x'"),
        ("rel 2*x", "relations are monomial (no coefficients)"),
        ("window deg 4 0 weight 0 1", "window bounds must satisfy min <= max"),
        ("window deg 0 4 weight 1 0", "window bounds must satisfy min <= max"),
        ("diff page 1 x -> x^y", "bad exponent 'y'"),
        ("gen y deg 2 weight 0 parity even maxexp two", "maxexp needs an integer"),
        ("gen y deg 2 weight 0 parity even maxexp", "maxexp needs an integer"),
        ("gen y deg 2 weight 0 parity even maxexp 2 maxexp 1",
         "repeated gen option 'maxexp'"),
        ("gen y deg -2 weight 1 parity even invertible invertible",
         "repeated gen option 'invertible'"),
        # '²'.isdigit() holds, but int() refuses it
        ("prime ²", "usage: prime <p>"),
    ])
    def test_line_is_refused(self, tmp_path, line, why):
        text, ln = f"prime 3\ngen x deg 2 weight 0 parity even\n{line}\n", 3
        if line.startswith("prime "):  # in place of the file's prime line
            text, ln = f"{line}\ngen x deg 2 weight 0 parity even\n", 1
        f = tmp_path / "bad.ss"
        f.write_text(text, encoding="utf-8")
        assert run_cli(["ss", "--file", str(f)]) == (1, "", f"error: line {ln}: {why}\n")

    def test_unreadable_chart_input(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert run_cli(["chart", "--in", str(missing)]) == (
            1, "", f"error: [Errno 2] No such file or directory: '{missing}'\n")

    DECODE = ("'utf-8' codec can't decode byte 0xff in position 8: invalid "
              "start byte")

    def test_ss_file_that_is_not_utf8(self, tmp_path):
        f = tmp_path / "bad.ss"
        f.write_bytes(b"prime 3\n\xff\n")
        assert run_cli(["ss", "--file", str(f)]) == (
            1, "", f"error: {f} is not UTF-8: {self.DECODE}\n")

    def test_chart_input_that_is_not_utf8(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_bytes(b'{"a": 1,\xff}')
        assert run_cli(["chart", "--in", str(f)]) == (
            1, "", f"error: bad table JSON: {self.DECODE}\n")

    def test_chart_input_with_an_int_past_the_digit_limit(self, tmp_path):
        # json.load takes an int of more than 4300 digits as a ValueError
        doc = json.loads(run_cli(["syntomic", "--prime", "2", "--format",
                                  "json"])[1])
        doc["generators"][0]["degree"] = "DEGREE"
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc).replace('"DEGREE"', "7" * 5000))
        code, out, err = run_cli(["chart", "--in", str(f)])
        assert (code, out) == (1, "")
        assert err.startswith("error: bad table JSON: ")


class TestParsePresentation:
    def test_round_trip_through_engine(self):
        parsed = parse_presentation(TOY_PRESENTATION)
        assert parsed is not None
        prime, pres, spec, window = parsed
        assert prime == 3
        assert [g.name for g in pres.gens] == ["x", "y"]
        assert pres.relations == (pres.catalog.mono({"x": 3}),)
        assert spec.pages == [1]
        assert (window.deg_min, window.deg_max) == (-1, 0)

    def test_negative_exponents_in_images(self):
        text = (
            "prime 2\n"
            "gen t deg -2 weight 1 parity even invertible\n"
            "gen l deg 3 weight 0 parity odd\n"
            "diff page 2 t -> t^3*l\n"
            "window deg -4 4 weight -2 2\n"
        )
        parsed = parse_presentation(text)
        assert parsed is not None
        _, pres, spec, _ = parsed
        assert pres.gens[0].invertible
        (entry,) = spec.by_page(2).values()
        assert entry[1][0][0] == pres.catalog.mono({"t": 3, "l": 1})

    def test_combination_with_signs(self):
        text = (
            "prime 5\n"
            "gen a deg 0 weight 0 parity even maxexp 4\n"
            "gen b deg -1 weight 1 parity odd\n"
            "gen c deg -1 weight 1 parity odd\n"
            "diff page 1 a -> 2*b - c\n"
            "window deg -1 0 weight 0 4\n"
        )
        parsed = parse_presentation(text)
        _, pres, spec, _ = parsed
        (entry,) = spec.by_page(1).values()
        image = dict(entry[1])
        assert image[pres.catalog.mono({"b": 1})] == 2
        assert image[pres.catalog.mono({"c": 1})] == 4  # -1 mod 5

    def test_mismatched_image_bidegree(self):
        text = (
            "prime 3\n"
            "gen x deg 0 weight 1 parity even maxexp 2\n"
            "gen y deg 4 weight 2 parity even maxexp 2\n"
            "diff page 1 x -> y\n"
            "window deg 0 8 weight 0 6\n"
        )
        with pytest.raises(CLIUsageError, match="bidegree"):
            parse_presentation(text)


class TestChartCommand:
    def test_svg_round_trip(self, tmp_path):
        table_json = tmp_path / "t.json"
        code, out, _ = run_cli(["syntomic", "--prime", "2", "--format",
                                "json", "--out", str(table_json)])
        assert code == 0
        code, out, _ = run_cli(["chart", "--in", str(table_json)])
        assert code == 0
        ET.fromstring(out)
        # identical to rendering the table directly
        direct = run_cli(["syntomic", "--prime", "2", "--format", "svg"])
        assert out == direct[1]

    def test_ascii_format(self, tmp_path):
        table_json = tmp_path / "t.json"
        run_cli(["syntomic", "--prime", "2", "--format", "json",
                 "--out", str(table_json)])
        code, out, _ = run_cli(["chart", "--in", str(table_json),
                                "--format", "ascii"])
        assert code == 0 and "w3" in out

    def test_bad_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["chart", "--in", str(bad)])
        assert code == 1 and "bad table JSON" in err

    @pytest.mark.parametrize("name, why", [
        ("t^x", "non-integer exponent 'x'"),
        ("zz", "unknown chart symbol 'zz'"),
    ])
    def test_name_the_chart_cannot_label(self, tmp_path, name, why):
        doc = json.loads(run_cli(["syntomic", "--prime", "2", "--format",
                                  "json"])[1])
        doc["generators"][0]["name"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for fmt in ("svg", "ascii"):
            code, out, err = run_cli(["chart", "--in", str(bad),
                                      "--format", fmt])
            assert (code, out) == (1, "")
            assert err.startswith("error: bad table JSON: ") and why in err

    @pytest.mark.parametrize("field, value, why", [
        ("name", 5, "generator 0 (5): name 5 is not a string"),
        ("degree", True, "generator 0 ('1'): degree True is not an int"),
        ("weight", "0", "generator 0 ('1'): weight '0' is not an int"),
        ("origin", None, "bad origin None"),
        # of the right type, outside the degrees of default_table_window(2)
        # or the chart's weights; a degree of 10^4 draws 10^4 grid lines
        ("degree", 10 ** 4, "generator 0 ('1'): degree 10000 is outside "
                            "-2..14"),
        ("degree", -3, "generator 0 ('1'): degree -3 is outside -2..14"),
        ("weight", 4, "generator 0 ('1'): weight 4 is outside 0..3"),
        ("weight", -1, "generator 0 ('1'): weight -1 is outside 0..3"),
    ])
    def test_generator_field_of_the_wrong_type(self, tmp_path, field, value,
                                               why):
        doc = json.loads(run_cli(["syntomic", "--prime", "2", "--format",
                                  "json"])[1])
        doc["generators"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for fmt in ("svg", "ascii"):
            code, out, err = run_cli(["chart", "--in", str(bad),
                                      "--format", fmt])
            assert (code, out) == (1, "")
            assert err == f"error: bad table JSON: {why}\n"

    @pytest.mark.parametrize("prime, v2", [(4, [30, 15]), (1, [0, 0]),
                                           (0, [-2, -1])])
    def test_prime_that_is_not_prime(self, tmp_path, prime, v2):
        # the v2 bidegree (2p^2 - 2, p^2 - 1) matches the prime, which
        # `synto syntomic --prime` would refuse
        doc = json.loads(run_cli(["syntomic", "--prime", "2", "--format",
                                  "json"])[1])
        doc.update(prime=prime, v2_bidegree=v2)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for fmt in ("svg", "ascii"):
            code, out, err = run_cli(["chart", "--in", str(bad),
                                      "--format", fmt])
            assert (code, out) == (1, "")
            assert err == f"error: bad table JSON: {prime} is not prime\n"

    @pytest.mark.parametrize("key, value, why", [
        ("prime", 2.0, "prime 2.0 is not an int"),
        ("prime", True, "prime True is not an int"),
        ("frobenius_unit", "x", "frobenius_unit 'x' is not 'one'"),
        ("frobenius_unit", None, "frobenius_unit None is not 'one'"),
        # synto syntomic no longer writes it: φ's units move no generator
        ("frobenius_unit", "alt", "frobenius_unit 'alt' is not 'one'"),
    ])
    def test_prime_or_unit_of_the_wrong_type(self, tmp_path, key, value,
                                             why):
        doc = json.loads(run_cli(["syntomic", "--prime", "2", "--format",
                                  "json"])[1])
        if key == "prime":
            doc["prime"] = value
        else:
            doc["convention"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for fmt in ("svg", "ascii"):
            code, out, err = run_cli(["chart", "--in", str(bad),
                                      "--format", fmt])
            assert (code, out) == (1, "")
            assert err == f"error: bad table JSON: {why}\n"

    def test_wrong_schema_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"prime": 2, "module": "free_over_v1",
                                   "generators": []}))
        code, _, err = run_cli(["chart", "--in", str(bad)])
        assert code == 1


class TestOutFlag:
    def test_out_naming_a_directory_is_usage_error(self, tmp_path):
        # in-process, so that scripts/raise_reach.py sees _emit's raise
        code, out, err = run_cli(["fgl", "p-series", "--prime", "3",
                                  "--trunc", "10", "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_unwritable_out_is_usage_error(self, tmp_path):
        table_json = tmp_path / "t.json"
        run_cli(["syntomic", "--prime", "2", "--format", "json",
                 "--out", str(table_json)])
        out = str(tmp_path / "missing" / "x.txt")
        for argv in (["syntomic", "--prime", "3", "--format", "csv"],
                     ["fgl", "p-series", "--prime", "3", "--trunc", "10"],
                     ["chart", "--in", str(table_json)]):
            proc = subprocess.run(
                [sys.executable, "-m", "synto", *argv, "--out", out],
                capture_output=True, text=True, env=source_env())
            assert proc.returncode == 1, argv
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr


def declared_scripts():
    """[project.scripts] of pyproject.toml: console-script name -> "module:attr"."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def run_script(name, args):
    """Run a declared console script from this source tree the way the
    installed wrapper does: sys.exit(func()) with the arguments in sys.argv."""
    module, attr = declared_scripts()[name].split(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = {name!r}; sys.exit({attr}())")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, env=source_env())


class TestInternalChecks:
    def test_no_assert_in_the_package(self):
        # an internal check raises VerificationError (exit 2); an assert
        # vanishes under python -O and an AssertionError exits 1 with a
        # traceback
        found = []
        for path in sorted((SRC / "synto").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                raised = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(raised, ast.Call):
                    raised = raised.func
                if (isinstance(node, ast.Assert)
                        or (isinstance(raised, ast.Name)
                            and raised.id == "AssertionError")):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestEntryPoints:
    def test_import_loads_no_dataclasses(self):
        # every command pays for the import; dataclasses alone would load
        # inspect, ast, dis and tokenize.  -S keeps site-packages' .pth
        # files from importing anything first.
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, synto, synto.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "synto", "syntomic", "--prime", "2",
             "--format", "csv"],
            capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "name,degree,weight,origin"

    def test_console_scripts_exist(self):
        scripts = declared_scripts()
        assert set(scripts) == {"synto", "syntomic"}
        for target in scripts.values():
            module, attr = target.split(":")
            func = getattr(importlib.import_module(module), attr)
            assert callable(func)
            assert Path(inspect.getsourcefile(func)).resolve().is_relative_to(
                SRC / "synto")

    def test_syntomic_alias(self):
        args = ["--prime", "2", "--format", "csv"]
        proc = run_script("syntomic", args)
        assert proc.returncode == 0
        assert b"del*lambda1*lambda2" in proc.stdout
        full = run_script("synto", ["syntomic", *args])
        assert full.returncode == 0
        assert proc.stdout == full.stdout

    def test_version_flag(self):
        code, out, _ = run_cli(["--version"])
        assert code == 0
        assert out.startswith("synto ")
