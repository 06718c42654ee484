"""Command-line front end.

Subcommands: ``syntomic`` (the generator-table pipeline), ``fgl`` (formal
group series), ``ss`` (generic spectral-sequence runs from presentation
files or presets), ``chart`` (SVG/ASCII rendering of table JSON).

Exit codes: 0 success, 1 usage error (including non-prime input and parse
errors), 2 failed internal assertion; assertion messages name the violated
check.  ``SYNTO_COLOR`` ∈ {auto, always, never} controls ANSI color.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from . import __version__
from .graded import GeneratorSymbol, VerificationError
from .fgl import p_series, right_unit_t
from .spectral import (DiffEntry, DifferentialSpec, Presentation,
                       RelationError, Window, build_page, run_to_stable)
from .summand import (PRESENTATIONS, GeneratorTable, _prime_error,
                      default_table_window, derive_differentials,
                      hodge_tate_check, run_window, syntomic_table)
from .chart import ascii_chart, svg_chart


class CLIUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


def _require_prime(n: int) -> int:
    if (why := _prime_error(n)) is not None:
        raise CLIUsageError(f"--prime {why}")
    return n


def _use_color() -> bool:
    mode = os.environ.get("SYNTO_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    if mode == "auto":
        return sys.stdout.isatty()
    raise CLIUsageError(f"SYNTO_COLOR must be auto, always or never, "
                        f"not {mode!r}")


def _sty(s: str, code: str, on: bool) -> str:
    return f"\x1b[{code}m{s}\x1b[0m" if on else s


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CLIUsageError(str(e)) from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# series formatting

def _series_terms(poly) -> list[tuple[int, object, str]]:
    """(t-exponent, coefficient, ASCII coefficient-monomial) per term."""
    cat = poly.catalog
    ti = cat.index["t"]
    return [(m[ti], c, cat.mono_str(m[:ti] + (0,) + m[ti + 1:]))
            for m, c in sorted(poly.terms.items(),
                               key=lambda kv: (kv[0][ti], kv[0]))]


def format_series(poly, order_bound: Optional[int] = None) -> str:
    """Human form: numeric factors abut, symbolic factors join the t-power
    with a middle dot, e.g. ``v2·t^9 + O(t^10)`` or ``t + t1·t^2``."""
    return _format_terms(_series_terms(poly), order_bound)


def _format_terms(terms, order_bound: Optional[int]) -> str:
    """``format_series`` of the terms that ``_series_terms`` lists."""
    pieces = []
    for texp, coeff, rest in terms:
        neg = coeff < 0
        n = -coeff if neg else coeff
        tpart = "" if texp == 0 else ("t" if texp == 1 else f"t^{texp}")
        body = "" if n == 1 and (rest != "1" or tpart) else str(n)
        if rest != "1":
            body += rest
            if tpart:
                body += "·" + tpart
        else:
            body += tpart
        pieces.append(("- " if neg else "+ ") + body)
    if order_bound is not None:
        pieces.append(f"+ O(t^{order_bound})")
    if not pieces:
        return "0"
    head = pieces[0][2:] if pieces[0].startswith("+ ") else "-" + pieces[0][2:]
    return " ".join([head] + pieces[1:])


def _series_json(poly, p, ideal, trunc, order_bound) -> str:
    rows = _series_terms(poly)
    terms = [{"t_exponent": k,
              "coefficient": (f"{c}" if rest == "1"
                              else (rest if c == 1 else f"{c}*{rest}"))}
             for k, c, rest in rows]
    doc = {"prime": p, "ideal": list(ideal), "truncation": trunc,
           "series": _format_terms(rows, order_bound), "terms": terms}
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# generator-table formatting

def format_table(table: GeneratorTable, color: bool = False) -> str:
    p = table.p
    n, a = table.v2_bidegree
    head = _sty(f"mod ({p}, v1, v2) syntomic cohomology of the Adams summand",
                "1", color)
    sub = (f"free over F_{p}[v2] on {len(table.entries)} generators; "
           f"v2 bidegree ({n}, {a}); frobenius unit convention 'one'")
    lines = [head, sub, ""]
    lines.append(f"{'weight':>6}  {'degree':>6}  {'origin':<9} name")
    for e in table.entries:
        origin = _sty(e.origin, "32" if e.origin == "kernel" else "35", color)
        pad = " " * (9 - len(e.origin))
        lines.append(f"{e.weight:>6}  {e.degree:>6}  {origin}{pad} {e.name}")
    lines.append("")
    for note in table.notes:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presentation-file parsing for `ss`

class PresentationParseError(CLIUsageError):
    pass


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")
# every number of a presentation file: ASCII digits, no more of them than
# Python converts from a string by default
_INT_RE = re.compile(r"-?[0-9]{1,4300}")


def _int(tok: str, line: int, msg: str) -> int:
    """The integer ``tok`` writes; ``line {line}: {msg}`` refuses any other
    token."""
    if not _INT_RE.fullmatch(tok):
        raise PresentationParseError(f"line {line}: {msg}")
    return int(tok)


def _parse_factor(tok: str, line: int):
    base, _, exp = tok.partition("^")
    return base, _int(exp, line, f"bad exponent {exp!r}") if exp else 1


def _parse_mono_text(text: str, line: int) -> tuple[int, dict]:
    coeff = 1
    exps: dict[str, int] = {}
    for tok in text.split("*"):
        tok = tok.strip()
        if not tok:
            raise PresentationParseError(f"line {line}: empty factor")
        base, e = _parse_factor(tok, line)
        if _NAME_RE.match(base):
            exps[base] = exps.get(base, 0) + e
        else:  # a factor that is no generator must be a coefficient
            coeff *= _int(tok, line, f"bad generator name {base!r}")
    return coeff, exps


def parse_presentation(text: str):
    """Parse the line-oriented presentation format.

    Lines: ``prime <p>``, ``gen <name> deg <d> weight <w> parity <even|odd>
    [invertible] [maxexp <n>]``, ``rel <monomial>``, ``diff page <r>
    <gen|gen^e> -> <combination>`` (terms separated by `` + ``/`` - ``),
    ``window deg <a> <b> weight <c> <d>``.  ``#`` starts a comment.  Every
    number is ASCII digits, at most 4300 of them (Python's default limit
    on converting a string), after an optional ``-``.  The degree decides a
    generator's parity, so the parity token must agree with it, and
    ``maxexp <n>`` is the relation ``<name>^(n+1)``.  A
    ``prime`` or ``window`` line may appear only once, and so may each
    option of a ``gen`` line.  Returns None for a file with no ``gen``,
    ``rel`` or ``diff`` line.
    """
    prime = None
    gens: list[tuple[int, GeneratorSymbol]] = []
    rels: list[tuple[int, dict]] = []
    diffs: list[tuple[int, int, str, int, str]] = []
    window = None
    first: dict[str, int] = {}  # the line of each 'prime' and 'window'
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw in ("prime", "window"):
            if kw in first:
                raise PresentationParseError(
                    f"line {ln}: repeated {kw!r} line (first on line {first[kw]})")
            first[kw] = ln
        if kw == "prime":
            # a second token joins the first with a space, which no number holds
            prime = _int(" ".join(toks[1:]), ln, "usage: prime <p>")
            if (why := _prime_error(prime)) is not None:
                raise PresentationParseError(f"line {ln}: {why}")
        elif kw == "gen":
            if len(toks) < 8 or toks[2] != "deg" or toks[4] != "weight":
                raise PresentationParseError(
                    f"line {ln}: usage: gen <name> deg <d> weight <w> "
                    f"parity <even|odd> [invertible] [maxexp <n>]")
            name = toks[1]
            if not _NAME_RE.match(name):
                raise PresentationParseError(
                    f"line {ln}: bad generator name {name!r}")
            deg, weight = (_int(toks[i], ln, "deg and weight must be integers")
                           for i in (3, 5))
            if toks[6] != "parity" or toks[7] not in ("even", "odd"):
                raise PresentationParseError(
                    f"line {ln}: parity must be 'even' or 'odd'")
            if toks[7] != ("odd" if deg % 2 else "even"):
                raise PresentationParseError(
                    f"line {ln}: parity {toks[7]} disagrees with deg {deg}")
            invertible = False
            max_exp = None
            rest, seen = toks[8:], set()
            while rest:
                if rest[0] in seen:
                    raise PresentationParseError(
                        f"line {ln}: repeated gen option {rest[0]!r}")
                seen.add(rest[0])
                if rest[0] == "invertible":
                    invertible = True
                    rest = rest[1:]
                elif rest[0] == "maxexp":
                    max_exp = _int(rest[1] if len(rest) > 1 else "", ln,
                                   "maxexp needs an integer")
                    rest = rest[2:]
                else:
                    raise PresentationParseError(
                        f"line {ln}: unknown gen option {rest[0]!r}")
            if max_exp is not None:
                # Presentation refuses the relation on an invertible one
                if why := (f"generator {name} has negative max_exp" if max_exp < 0
                           else f"odd generator {name} must have exponent <= 1"
                           if deg % 2 and max_exp > 1 else None):
                    raise PresentationParseError(f"line {ln}: {why}")
                rels.append((ln, {name: max_exp + 1}))
            gens.append((ln, GeneratorSymbol(name, deg, weight, invertible)))
        elif kw == "rel":
            if len(toks) != 2:
                raise PresentationParseError(
                    f"line {ln}: usage: rel <monomial>")
            coeff, exps = _parse_mono_text(toks[1], ln)
            if coeff != 1:
                raise PresentationParseError(
                    f"line {ln}: relations are monomial (no coefficients)")
            rels.append((ln, exps))
        elif kw == "diff":
            usage = "usage: diff page <r> <gen> -> <image>"
            m = re.match(r"diff\s+page\s+(\S+)\s+(\S+)\s*->\s*(.+)$", line)
            if not m:
                raise PresentationParseError(f"line {ln}: {usage}")
            page = _int(m.group(1), ln, usage)
            base, e0 = _parse_factor(m.group(2), ln)
            diffs.append((ln, page, base, e0, m.group(3)))
        elif kw == "window":
            if len(toks) != 7 or toks[1] != "deg" or toks[4] != "weight":
                raise PresentationParseError(
                    f"line {ln}: usage: window deg <a> <b> weight <c> <d>")
            a, b, c, d = (_int(toks[i], ln, "window bounds must be integers")
                          for i in (2, 3, 5, 6))
            if a > b or c > d:
                raise PresentationParseError(
                    f"line {ln}: window bounds must satisfy min <= max")
            window = Window(a, b, c, d)
        else:
            raise PresentationParseError(
                f"line {ln}: unknown directive {kw!r}")

    if not (gens or rels or diffs):
        return None
    if prime is None:
        raise PresentationParseError("missing 'prime <p>' line")
    syms = [g for _ln, g in gens]
    names = {g.name for g in syms}
    for ln, exps in rels:
        for nm in exps:
            if nm not in names:
                raise PresentationParseError(
                    f"line {ln}: unknown generator {nm!r} in relation")
    # Presentation refuses what describes no algebra.  Each generator and
    # each relation is tried on its own, so that a refusal names its line;
    # a duplicate generator name belongs to no one line.
    for ln, some_gens, some_rels in ([(ln, [g], []) for ln, g in gens]
                                     + [(None, syms, [])]
                                     + [(ln, syms, [r]) for ln, r in rels]):
        try:
            Presentation(prime, some_gens, some_rels)
        except (VerificationError, ValueError) as e:
            raise PresentationParseError(
                f"line {ln}: {e}" if ln else f"bad presentation: {e}") from None
    pres = Presentation(prime, syms, relations=[r for _ln, r in rels])
    cat = pres.catalog

    entries = []
    for ln, page, base, e0, image_text in diffs:
        if base not in cat.index:
            raise PresentationParseError(
                f"line {ln}: differential on unknown generator {base!r}")
        image = []
        for term, sign in _split_combination(image_text):
            coeff, exps = _parse_mono_text(term, ln)
            for nm in exps:
                if nm not in cat.index:
                    raise PresentationParseError(
                        f"line {ln}: unknown generator {nm!r} in image")
            image.append((cat.mono(exps), sign * coeff))
        entries.append(DiffEntry(page, base, e0, tuple(image)))
    try:
        spec = DifferentialSpec(pres, tuple(entries))
    except RelationError as e:
        # relations are checked in order, so a repeated one fails at its first line
        ln = rels[pres.relations.index(e.relation)][0]
        raise PresentationParseError(f"line {ln}: {e}") from None
    except (VerificationError, ValueError) as e:
        raise PresentationParseError(f"bad differential: {e}") from None
    if window is None:
        raise PresentationParseError("missing 'window' line")
    return prime, pres, spec, window


def _split_combination(text: str) -> list[tuple[str, int]]:
    """Split ``a + 2*b - c`` into [(a,1), (2*b,1), (c,-1)]; operators must
    be surrounded by spaces so t^-2 style exponents survive.  No term is
    blank: ``text`` is stripped, and each split eats all the whitespace
    around its operator."""
    toks = re.split(r"\s+([+-])\s+", text.strip())
    out = [(toks[0], 1)]
    for op, term in zip(toks[1::2], toks[2::2]):
        out.append((term, 1 if op == "+" else -1))
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_syntomic(args) -> int:
    p = _require_prime(args.prime)
    table = syntomic_table(p)
    hodge_tate_check(p)
    if args.verbose:
        print(f"# {len(table.entries)} generators, window "
              f"{default_table_window(p)}", file=sys.stderr)
    if args.format == "table":
        _emit(format_table(table, color=_use_color() and not args.out),
              args.out)
    elif args.format == "json":
        _emit(json.dumps(table.to_json_dict(), indent=1) + "\n", args.out)
    elif args.format == "csv":
        _emit(table.to_csv(), args.out)
    elif args.format == "svg":
        _emit(svg_chart(table), args.out)
    return 0


def cmd_fgl(args) -> int:
    p = _require_prime(args.prime)
    ideal = tuple(x for x in args.mod.split(",") if x) if args.mod else ()
    for i, name in enumerate(ideal):
        if name not in ("p", "v1", "v2"):
            raise CLIUsageError(f"--mod accepts p, v1, v2; got {name!r}")
        if name in ideal[:i]:
            raise CLIUsageError(f"--mod names {name} twice")
    trunc = args.trunc
    if trunc < 1:
        raise CLIUsageError(f"--trunc must be positive, got {trunc}")
    try:
        if args.series == "p-series":
            poly = p_series(p, trunc, ideal)
            bound = trunc
        else:
            poly = right_unit_t(p, trunc, ideal)
            bound = None  # exact truncated representative
    except ValueError as e:
        raise CLIUsageError(str(e)) from None
    if args.format == "json":
        _emit(_series_json(poly, p, ideal, trunc, bound), args.out)
    else:
        _emit(format_series(poly, bound) + "\n", args.out)
    return 0


def cmd_ss(args) -> int:
    if args.file:
        if args.prime is not None:
            raise CLIUsageError("--prime is for --preset runs; the 'prime' "
                                "line of the --file sets its prime")
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CLIUsageError(str(e)) from None
        except UnicodeDecodeError as e:
            raise CLIUsageError(f"{args.file} is not UTF-8: {e}") from None
        parsed = parse_presentation(text)
        if parsed is None:
            print("empty presentation: no classes")
            return 0
        prime, pres, spec, window = parsed
    else:
        prime = _require_prime(2 if args.prime is None else args.prime)
        structure = args.preset
        spec = derive_differentials(prime, structure)
        pres = spec.pres
        window = run_window(prime, structure, *default_table_window(prime))
    page = build_page(pres, window)
    print(f"prime {prime}, E1: {page.total_dim()} classes, window "
          f"deg [{window.deg_min}, {window.deg_max}] "
          f"weight [{window.weight_min}, {window.weight_max}]")
    final, log = run_to_stable(page, spec)
    for entry in log:
        if entry["page"] == "stable":
            print(f"stable: {entry['classes']} classes")
        else:
            print(f"d_{entry['page']}: {entry['classes_before']} -> "
                  f"{entry['classes_after']} classes")
    if args.verbose:
        dims = final.dims()
        print("bigraded dimensions (stable page):")
        for b in sorted(dims):
            print(f"  deg {b[0]:>4} weight {b[1]:>4}: {dims[b]}")
    names = sorted(final.rep_names(include_flagged=False))
    flagged = log[-1]["classes"] - len(names)
    print(f"survivors (boundary-safe): {len(names)}")
    for name in names:
        print(f"  {name}")
    if flagged:
        print(f"(+ {flagged} classes too close to the window edge to "
              f"certify)")
    return 0


def cmd_chart(args) -> int:
    try:
        with open(args.infile, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CLIUsageError(str(e)) from None
    except ValueError as e:  # bad JSON or UTF-8, or an int past int()'s limit
        raise CLIUsageError(f"bad table JSON: {e}") from None
    try:
        table = GeneratorTable.from_json_dict(data)
        # a name the chart cannot label is a fault of the file, too
        text = svg_chart(table) if args.format == "svg" else ascii_chart(table)
    except (KeyError, TypeError, VerificationError) as e:
        raise CLIUsageError(f"bad table JSON: {e}") from None
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> _Parser:
    parser = _Parser(prog="synto",
                     description="syntomic cohomology of the Adams summand "
                                 "and its t-Bockstein machinery")
    parser.add_argument("--version", action="version",
                        version=f"synto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("syntomic", help="compute the generator table")
    ps.add_argument("--prime", type=int, required=True)
    ps.add_argument("--format", choices=("table", "json", "csv", "svg"),
                    default="table")
    ps.add_argument("--out", help="write output to a file")
    ps.add_argument("--verbose", "-v", action="count", default=0)
    ps.set_defaults(func=cmd_syntomic)

    pf = sub.add_parser("fgl", help="formal-group series")
    pf.add_argument("series", choices=("p-series", "right-unit"))
    pf.add_argument("--prime", type=int, required=True)
    pf.add_argument("--mod", default="",
                    help="comma-separated ideal generators among p, v1, v2")
    pf.add_argument("--trunc", type=int, required=True,
                    help="truncate at t^N")
    pf.add_argument("--format", choices=("text", "json"), default="text")
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_fgl)

    pss = sub.add_parser("ss", help="run a spectral sequence")
    src = pss.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="presentation file")
    src.add_argument("--preset", choices=tuple(PRESENTATIONS))
    pss.add_argument("--prime", type=int,
                     help="prime for --preset runs (default 2)")
    pss.add_argument("--verbose", "-v", action="count", default=0)
    pss.set_defaults(func=cmd_ss)

    pc = sub.add_parser("chart", help="render a table JSON as a chart")
    pc.add_argument("--in", dest="infile", required=True,
                    help="GeneratorTable JSON file")
    pc.add_argument("--format", choices=("svg", "ascii"), default="svg")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_chart)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except CLIUsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except VerificationError as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1


def main_syntomic() -> int:
    """Entry point for the `syntomic` console script."""
    return main(["syntomic"] + sys.argv[1:])
