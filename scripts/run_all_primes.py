#!/usr/bin/env python3
"""Full pipeline over several primes: generator tables, consistency
checkers, and chart files.

Writes table-p<p>.json / .csv / .svg into --outdir and prints one summary
line per prime.  Exits nonzero if any checker fails.

    python3 scripts/run_all_primes.py --primes 2 3 5 7 --outdir out
"""

import argparse
import json
import sys
import time
from pathlib import Path

from synto.chart import ascii_chart, svg_chart
from synto.summand import (hodge_tate_check, motivic_collapse_check,
                           syntomic_table, v2_bockstein_check)


def run_prime(p: int, outdir: Path, show_ascii: bool) -> bool:
    t0 = time.monotonic()
    table = syntomic_table(p)
    # the paper states the motivic E2 collapse for p >= 3 only; at p = 2 the
    # check shows no more than that the chart's bidegrees admit no d_r
    motivic = "motivic" if p > 2 else "motivic chart arithmetic"
    checks = [
        ("hodge-tate", hodge_tate_check(p).ok),
        ("v2-bockstein", v2_bockstein_check(p, table=table).collapses),
        (motivic, motivic_collapse_check(p, table=table).collapses),
    ]
    elapsed = time.monotonic() - t0

    outdir.mkdir(parents=True, exist_ok=True)
    base = outdir / f"table-p{p}"
    base.with_suffix(".json").write_text(
        json.dumps(table.to_json_dict(), indent=1) + "\n", encoding="utf-8")
    base.with_suffix(".csv").write_text(table.to_csv(), encoding="utf-8")
    base.with_suffix(".svg").write_text(svg_chart(table), encoding="utf-8")

    ok = all(flag for _name, flag in checks)
    status = ", ".join(f"{name} {'ok' if flag else 'FAIL'}"
                       for name, flag in checks)
    weights = {}
    for e in table.entries:
        weights[e.weight] = weights.get(e.weight, 0) + 1
    print(f"p={p}: {len(table.entries)} generators "
          f"(by weight {weights}), {status}, {elapsed:.2f}s "
          f"-> {base}.{{json,csv,svg}}")
    if show_ascii:
        print(ascii_chart(table))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    ap.add_argument("--ascii", action="store_true",
                    help="also print each chart to the terminal")
    args = ap.parse_args(argv)
    ok = True
    for p in args.primes:
        ok = run_prime(p, args.outdir, args.ascii) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
