"""Self-test of the benchmark's checks: each accepts the real output of a
small operation and rejects that output once it is corrupted.

    python3 benchmark/selftest.py

Run it from the root of a source checkout.  Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def edit_table(out: dict, edit) -> dict:
    doc = json.loads(out["json"])
    edit(doc["generators"])
    bad = dict(out, json=json.dumps(doc))
    bad["csv"] = "name,degree,weight,origin\n" + "".join(
        f"{g['name']},{g['degree']},{g['weight']},{g['origin']}\n"
        for g in doc["generators"])
    return bad


def edit_survivors(out: dict, edit) -> dict:
    """Apply `edit` to the survivor names, keeping the listing well-formed."""
    lines = out["stdout"].splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("survivors (boundary-safe): "))
    n = int(lines[at].rsplit(" ", 1)[1])
    names = [line.strip() for line in lines[at + 1:at + 1 + n]]
    edit(names)
    new = (lines[:at] + [f"survivors (boundary-safe): {len(names)}"]
           + [f"  {name}" for name in names] + lines[at + 1 + n:])
    return dict(out, stdout="\n".join(new) + "\n")


def edit_series(out: dict, edit) -> dict:
    doc = json.loads(out["stdout"])
    edit(doc["terms"])
    return dict(out, stdout=json.dumps(doc))


def bump_coefficient(terms: list) -> None:
    """Add 1 to the numeric factor of the fourth term."""
    head, _, rest = terms[3]["coefficient"].partition("*")
    if head.lstrip("-").isdigit():
        bumped = str(int(head) + 1)
        terms[3]["coefficient"] = f"{bumped}*{rest}" if rest else bumped
    else:
        terms[3]["coefficient"] = f"2*{terms[3]['coefficient']}"


def main() -> int:
    env = run.child_env()
    failures = 0
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        indir = Path(tmp)
        cases = [
            ({"name": "table-p3", "kind": "table", "p": 3, "outdir": tmp}, [
                ("generator dropped",
                 lambda o: edit_table(o, lambda g: g.pop(3))),
                ("degree shifted", lambda o: edit_table(
                    o, lambda g: g[5].update(degree=g[5]["degree"] + 2))),
                ("motivic check failed", lambda o: dict(o, motivic=False)),
            ]),
            (workloads.ss_op(indir, "tp-p5", workloads.preset_text(5, "tp"),
                             check="preset", p=5, structure="tp"), [
                ("survivor dropped", lambda o: edit_survivors(
                    o, lambda n: n.remove("1"))),
                ("non-closed-form survivor added", lambda o: edit_survivors(
                    o, lambda n: n.append("t*lambda1"))),
            ]),
            (workloads.ss_op(indir, "tcminus-p5",
                             workloads.preset_text(5, "tcminus"),
                             check="preset", p=5, structure="tcminus"), [
                ("leftover family class dropped", lambda o: edit_survivors(
                    o, lambda n: n.remove("t^2*lambda1"))),
            ]),
            (workloads.ss_op(indir, "derham-p3-k2",
                             workloads.derham_text(3, 2, 14),
                             check="derham", p=3, k=2, top=14), [
                ("non-Cartier survivor added", lambda o: edit_survivors(
                    o, lambda n: n.append("x1^2*dx2"))),
                ("Cartier class dropped", lambda o: edit_survivors(
                    o, lambda n: n.remove("x1^3"))),
            ]),
            ({"name": "p-series-p2-t10", "kind": "fgl", "series": "p-series",
              "p": 2, "trunc": 10}, [
                ("one coefficient changed",
                 lambda o: edit_series(o, bump_coefficient)),
                ("coefficient not 2-integral", lambda o: edit_series(
                    o, lambda t: t[1].update(coefficient="1/2*v1"))),
            ]),
            ({"name": "right-unit-p3-t12", "kind": "fgl", "series": "right-unit",
              "p": 3, "trunc": 12}, [
                ("one coefficient changed",
                 lambda o: edit_series(o, bump_coefficient)),
                ("term dropped", lambda o: edit_series(o, lambda t: t.pop())),
            ]),
        ]
        for op, corruptions in cases:
            report, error = run.run_op(op, 0, env)
            if report is None:
                print(f"FAIL {op['name']}: {error}")
                failures += 1
                continue
            out = report["output"]
            problems = checks.check(op, out)
            print(f"{'ok  ' if not problems else 'FAIL'} {op['name']}: real "
                  f"output {'accepted' if not problems else problems}")
            failures += bool(problems)
            for what, corrupt in corruptions:
                problems = checks.check(op, corrupt(copy.deepcopy(out)))
                print(f"{'ok  ' if problems else 'FAIL'} {op['name']}: {what} "
                      f"-> {problems[0] if problems else 'accepted'}")
                failures += not problems
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
