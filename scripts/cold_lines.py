#!/usr/bin/env python3
"""List each statement in ``src/synto`` that a fixed traffic never runs.

The traffic is what a user and the CI scripts run, not the tests:

- every command of the ``fgl`` grid of ``scripts/grid.py``;
- the ``ss`` and ``syntomic`` grid commands whose prime is at most 13;
- ``scripts/run_all_primes.py --ascii`` at p = 2, 3, 5, 7, 11 and 13;
- ``synto chart --in`` on each table JSON that run wrote, as SVG and as
  ASCII.

All of it runs in this process under ``raise_reach.py``'s line tracer,
which records only frames of ``src/synto``.  The script then prints, as
``path:line: source``, every statement none of whose lines ran, and a count
per file.  For a compound statement (``def``, ``if``, ``for``, ``try``, ...)
only its header lines count; its body is listed statement by statement.
Docstrings and ``raise`` statements are skipped: a docstring runs no code,
and ``scripts/raise_reach.py`` shows which tests reach each raise.

    python scripts/cold_lines.py

The exit code is 1 if a grid command fails an internal check (exit 2), or
if ``run_all_primes.py`` or a chart command exits nonzero, since a failed
run says nothing about what a working one needs.  It takes about 10 s.
"""

import argparse
import ast
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from raise_reach import PACKAGE, ROOT, traced

MAX_PRIME = 13


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, lines that count as run) of each statement of a source
    file, without docstrings and raise statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = (max(first, body[0].lineno - 1) if body
                else node.end_lineno)
        out.append((first, range(first, last + 1)))
    return sorted(out, key=lambda s: s[0])


def _prime(argv: list[str]) -> int:
    return int(argv[argv.index("--prime") + 1]) if "--prime" in argv else 0


def traffic(tmp: Path) -> list[str]:
    """Run the traffic; returns a line per command that failed."""
    import grid
    import run_all_primes
    from synto.cli import main

    failed = []
    for name, commands in grid.GRIDS.items():
        for argv, text in commands():
            if name != "fgl" and _prime(argv) > MAX_PRIME:
                continue
            # some fgl commands exit 1 by design; 2 is a failed check
            line = grid.run(argv, text, tmp)
            if line.split("\t")[1] == "2":
                failed.append(line)
    primes = [str(p) for p in grid.PRIMES_TO_41 if p <= MAX_PRIME]
    out = tmp / "tables"
    with redirect_stdout(io.StringIO()):
        if run_all_primes.main(["--primes", *primes, "--outdir", str(out),
                                "--ascii"]):
            failed.append("run_all_primes.py")
    for table in sorted(out.glob("table-p*.json")):
        for fmt in ("svg", "ascii"):
            argv = ["chart", "--in", str(table), "--format", fmt]
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                if main(argv):
                    failed.append(" ".join(argv))
    return failed


def traced_traffic() -> tuple[list[str], dict[str, set[int]]]:
    """The failed commands of the traffic, and the lines run in each file of
    the package.  The package is imported under the tracer, so module-level
    statements count."""
    sys.path[:0] = [str(ROOT / "src")]
    os.environ["SYNTO_COLOR"] = "never"
    with tempfile.TemporaryDirectory() as tmp:
        return traced(lambda: traffic(Path(tmp)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.parse_args(argv)
    failed, lines = traced_traffic()
    cold: dict[str, int] = {}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        ran = lines.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, span in statements(path):
            total += 1
            if ran.isdisjoint(span):
                cold[rel] = cold.get(rel, 0) + 1
                print(f"{rel}:{first}: {source[first - 1].strip()}")
    print(f"{total - sum(cold.values())} of {total} statements run; "
          f"cold per file: "
          + (", ".join(f"{f} {n}" for f, n in cold.items()) or "none"))
    for line in failed:
        print(f"traffic command failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
