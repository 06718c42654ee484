#!/usr/bin/env python3
"""Byte-identity check of `synto fgl` over a fixed grid of 288 commands.

Runs ``synto.cli.main`` in this process for ``p-series`` and ``right-unit``
at p = 2, 3, 5, ``--trunc`` 8, 16 and 22, with no ``--mod`` and with every
nonempty subset of {p, v1, v2}, as text and as JSON.  Each command gives one
line: its argv, its exit code, and the sha256 of its stdout and its stderr.

    PYTHONPATH=src python scripts/fgl_grid.py > grid.sha256
    PYTHONPATH=src python scripts/fgl_grid.py --check tests/golden/fgl-grid.sha256

With ``--check FILE`` the lines are compared with FILE instead of printed;
the first command whose line differs is named and the exit code is 1.
"""

import argparse
import hashlib
import io
import itertools
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from synto.cli import main

IDEALS = [None] + [",".join(c) for r in (1, 2, 3)
                   for c in itertools.combinations(("p", "v1", "v2"), r)]


def commands():
    for series in ("p-series", "right-unit"):
        for p in (2, 3, 5):
            for trunc in (8, 16, 22):
                for ideal in IDEALS:
                    for fmt in ("text", "json"):
                        argv = ["fgl", series, "--prime", str(p),
                                "--trunc", str(trunc), "--format", fmt]
                        if ideal:
                            argv += ["--mod", ideal]
                        yield argv


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv) -> str:
    """The grid line of one command: argv, exit code, sha256 of stdout and
    of stderr, tab-separated."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return "\t".join((" ".join(argv), str(code), _sha(out.getvalue()),
                      _sha(err.getvalue())))


def main_grid(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--check", metavar="FILE",
                    help="compare with FILE instead of printing")
    opts = ap.parse_args(args)
    os.environ["SYNTO_COLOR"] = "never"
    if opts.check is None:
        for argv in commands():
            print(run(argv))
        return 0
    with open(opts.check, encoding="utf-8") as f:
        expected = f.read().splitlines()
    got = 0
    for argv, want in itertools.zip_longest(commands(), expected):
        line = None if argv is None else run(argv)
        if line != want:
            name = " ".join(argv) if argv else f"line {got + 1} of {opts.check}"
            print(f"fgl grid differs at: {name}\n"
                  f"  expected: {want or '(no line)'}\n"
                  f"  got:      {line or '(no command)'}", file=sys.stderr)
            return 1
        got += 1
    print(f"fgl grid: {got} commands identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_grid())
