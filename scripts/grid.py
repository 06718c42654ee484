#!/usr/bin/env python3
"""Byte-identity check of `synto` outputs over four fixed grids of commands.

``fgl``: 288 commands.  ``p-series`` and ``right-unit`` at p = 2, 3, 5,
``--trunc`` 8, 16 and 22, with no ``--mod`` and with every nonempty subset
of {p, v1, v2}, as text and as JSON.

``ss``: 97 commands of ``ss -v``.  ``--preset tp`` and ``--preset tcminus``
at every prime up to 41, and the de Rham complexes Omega(F_p[x_1..x_k]) at
p = 2, 3, 5, 7, k = 1..4, cut off above degree D = 8 and D = 18.  Then come
quotients of them: Omega(F_p[x_1..x_k]/(x_i^p)) for k = 1, 2, written once
with ``rel x_i^p`` and once with ``maxexp p-1``, and
Omega(F_p[x_1, x_2])/(dx_1 dx_2), at the same p and D.  A presentation is
written to a file in a temporary directory; its line names the file by its
base name only.

``syntomic``: 52 commands.  Every prime up to 41, as table, JSON, CSV and
SVG.

``scale``: 4 commands at the primes where the cost of the table shows.
``syntomic --format json`` at p = 101 and 151, and ``ss --preset tp`` and
``ss --preset tcminus`` at p = 101 with ``-v``, which print every E1 and d_r
count.  They take a few seconds together.

Each command runs ``synto.cli.main`` in this process and gives one line: its
argv, its exit code, and the sha256 of its stdout and its stderr.

    PYTHONPATH=src python scripts/grid.py fgl > grid.sha256
    PYTHONPATH=src python scripts/grid.py ss --check tests/golden/ss-grid.sha256

With ``--check FILE`` the lines are compared with FILE instead of printed;
the first command whose line differs is named and the exit code is 1.
"""

import argparse
import hashlib
import io
import itertools
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from synto.cli import main

PRIMES_TO_41 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

IDEALS = [None] + [",".join(c) for r in (1, 2, 3)
                   for c in itertools.combinations(("p", "v1", "v2"), r)]


def fgl_commands():
    for series in ("p-series", "right-unit"):
        for p in (2, 3, 5):
            for trunc in (8, 16, 22):
                for ideal in IDEALS:
                    for fmt in ("text", "json"):
                        argv = ["fgl", series, "--prime", str(p),
                                "--trunc", str(trunc), "--format", fmt]
                        if ideal:
                            argv += ["--mod", ideal]
                        yield argv, None


DERHAM_PRIMES = (2, 3, 5, 7)
DERHAM_RANKS = (1, 2, 3, 4)
DERHAM_TOPS = (8, 18)


def derham_text(p: int, k: int, top: int) -> str:
    """Omega(F_p[x_1..x_k]) with d_1 x_i = dx_i, in the window deg [0, top]
    x weight [0, k]."""
    lines = [f"prime {p}"]
    lines += [f"gen x{i} deg 2 weight 0 parity even" for i in range(1, k + 1)]
    lines += [f"gen dx{i} deg 1 weight 1 parity odd" for i in range(1, k + 1)]
    lines += [f"diff page 1 x{i} -> dx{i}" for i in range(1, k + 1)]
    lines.append(f"window deg 0 {top} weight 0 {k}")
    return "\n".join(lines) + "\n"


def quotient_text(p: int, k: int, top: int, kind: str) -> str:
    """derham_text with x_i^p = 0 as a relation or a cap (kind "rel",
    "maxexp"), or with dx_1 dx_2 = 0 (kind "wedge")."""
    lines = derham_text(p, k, top).splitlines()
    if kind == "maxexp":
        return "\n".join(ln + f" maxexp {p - 1}" if ln.startswith("gen x")
                         else ln for ln in lines) + "\n"
    rels = (["rel dx1*dx2"] if kind == "wedge"
            else [f"rel x{i}^{p}" for i in range(1, k + 1)])
    return "\n".join(lines[:-1] + rels + lines[-1:]) + "\n"


# (p, k, top, kind) of the quotients above.  Each line was hashed before
# relations bounded the binding edges, and still matches.  Left out:
# (5, 2, 18, "rel"), whose top class x1^4*x2^4*dx1*dx2 is certified since
# then, as no monomial of the quotient lies past deg 18.
QUOTIENTS = [
    *((p, k, top, kind) for kind in ("rel", "maxexp") for p in DERHAM_PRIMES
      for k in (1, 2) for top in DERHAM_TOPS
      if (p, k, top, kind) != (5, 2, 18, "rel")),
    *((p, 2, top, "wedge") for p in DERHAM_PRIMES for top in DERHAM_TOPS),
]


def ss_commands():
    for structure in ("tp", "tcminus"):
        for p in PRIMES_TO_41:
            yield ["ss", "--preset", structure, "--prime", str(p), "-v"], None
    for p in DERHAM_PRIMES:
        for k in DERHAM_RANKS:
            for top in DERHAM_TOPS:
                yield (["ss", "--file", f"derham-p{p}-k{k}-D{top}.ss", "-v"],
                       derham_text(p, k, top))
    for p, k, top, kind in QUOTIENTS:
        yield (["ss", "--file", f"derham-{kind}-p{p}-k{k}-D{top}.ss", "-v"],
               quotient_text(p, k, top, kind))


def syntomic_commands():
    for p in PRIMES_TO_41:
        for fmt in ("table", "json", "csv", "svg"):
            yield ["syntomic", "--prime", str(p), "--format", fmt], None


def scale_commands():
    for p in (101, 151):
        yield ["syntomic", "--prime", str(p), "--format", "json"], None
    for structure in ("tp", "tcminus"):
        yield ["ss", "--preset", structure, "--prime", "101", "-v"], None


# each grid yields (argv as its line shows it, presentation text or None)
GRIDS = {"fgl": fgl_commands, "ss": ss_commands,
         "syntomic": syntomic_commands, "scale": scale_commands}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv, text, tmp: Path) -> str:
    """The grid line of one command: argv, exit code, sha256 of stdout and
    of stderr, tab-separated.  A presentation text is written to ``tmp``
    under the file name in argv[2]."""
    real = list(argv)
    if text is not None:
        path = tmp / argv[2]
        path.write_text(text, encoding="utf-8")
        real[2] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(real)
    return "\t".join((" ".join(argv), str(code), _sha(out.getvalue()),
                      _sha(err.getvalue())))


def main_grid(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("grid", choices=tuple(GRIDS))
    ap.add_argument("--check", metavar="FILE",
                    help="compare with FILE instead of printing")
    opts = ap.parse_args(args)
    os.environ["SYNTO_COLOR"] = "never"
    commands = GRIDS[opts.grid]
    with tempfile.TemporaryDirectory() as tmp:
        if opts.check is None:
            for argv, text in commands():
                print(run(argv, text, Path(tmp)))
            return 0
        with open(opts.check, encoding="utf-8") as f:
            expected = f.read().splitlines()
        got = 0
        for cmd, want in itertools.zip_longest(commands(), expected):
            line = None if cmd is None else run(*cmd, Path(tmp))
            if line != want:
                name = (" ".join(cmd[0]) if cmd
                        else f"line {got + 1} of {opts.check}")
                print(f"{opts.grid} grid differs at: {name}\n"
                      f"  expected: {want or '(no line)'}\n"
                      f"  got:      {line or '(no command)'}", file=sys.stderr)
                return 1
            got += 1
    print(f"{opts.grid} grid: {got} commands identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_grid())
