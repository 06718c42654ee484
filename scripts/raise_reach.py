#!/usr/bin/env python3
"""List each ``raise`` in ``src/synto`` that no tier-1 test reaches.

Runs pytest in this process under a ``sys.settrace`` line tracer that
records only frames of ``src/synto``, then prints every ``raise`` statement
none of whose lines ran, as ``path:line: statement``, and a count per file.
Only in-process code is traced, so a raise that only a subprocess test
reaches counts as unreached.

    python scripts/raise_reach.py
    python scripts/raise_reach.py --require src/synto/spectral.py
    python scripts/raise_reach.py tests/test_cli.py

With ``--require FILE`` (repeatable) the exit code is 1 if a raise in FILE
is unreached.  It is 1 too if the tests fail, since a failed run says
nothing about reach.  The trace makes the run about three times slower than
plain tier-1.
"""

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "synto"


def raises(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each raise statement in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def traced(run):
    """``run()``'s result, and the lines it ran in each file of the
    package."""
    prefix = str(PACKAGE) + os.sep
    lines: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run in each file of the package."""
    import pytest

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    code, lines = traced(lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", *pytest_args]))
    return int(code), lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--require", action="append", default=[], metavar="FILE",
                    help="fail if a raise in FILE is unreached")
    ap.add_argument("pytest_args", nargs="*", default=["tests"],
                    help="what pytest runs (default: tests)")
    opts = ap.parse_args(argv)
    os.chdir(ROOT)
    code, lines = traced_run(opts.pytest_args)
    missed: dict[str, list[int]] = {}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        ran = lines.get(str(path), set())
        found = raises(path)
        total += len(found)
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in found:
            if ran.isdisjoint(range(first, last + 1)):
                missed.setdefault(rel, []).append(first)
                print(f"{rel}:{first}: {source[first - 1].strip()}")
    count = sum(map(len, missed.values()))
    print(f"{total - count} of {total} raise statements reached; "
          f"unreached per file: "
          + (", ".join(f"{f} {len(n)}" for f, n in missed.items()) or "none"))
    if code:
        print(f"the tests failed (pytest exit {code})", file=sys.stderr)
        return 1
    bad = [f for f in opts.require if missed.get(str(Path(f)))]
    if bad:
        print(f"unreached raise in {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
