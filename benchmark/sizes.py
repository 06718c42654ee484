"""Print the make-up and size of every benchmark input.

    python3 benchmark/sizes.py

Run it from the root of a source checkout.  For `ss` inputs it reports E_1
classes, populated bidegrees, the largest bidegree, the pages that carry a
differential, the boundary-flagged classes on the stable page and the
boundary-safe survivors; for the table, the same for the TP and TC^- runs
behind each prime; for the series, the number of terms.  Nothing here is
timed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from synto import cli, spectral, summand  # noqa: E402

import op as op_module  # noqa: E402
import workloads  # noqa: E402


def page_sizes(page: spectral.SSPage, pages: list[int]) -> str:
    sizes = {b: len(d.monos) for b, d in page.data.items()}
    big = min(sizes, key=lambda b: (-sizes[b], b))
    flagged = sum(len(d.alive) for b, d in page.data.items() if b in page.flags)
    safe = page.total_dim() - flagged
    return (f"E1 {sum(sizes.values())} classes in {len(sizes)} bidegrees, "
            f"largest {sizes[big]} at {big}; d_r on pages {pages}; "
            f"stable: {safe} safe + {flagged} flagged classes")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in ("table", "engine_presets", "derham_dense",
                         "fgl_series"):
            print(f"{workload}:")
            for op in workloads.operations(workload, Path(tmp)):
                if op["kind"] == "table":
                    p = op["p"]
                    win = summand.default_table_window(p)[:2]
                    for structure, run in (("tp", summand.tp_einfty),
                                           ("tcminus", summand.tcminus_einfty)):
                        spec = summand.derive_differentials(p, structure)
                        print(f"  {op['name']} {structure}: "
                              f"{page_sizes(run(p, win), spec.pages)}")
                elif op["kind"] == "ss":
                    text = Path(op["file"]).read_text(encoding="utf-8")
                    _p, pres, spec, window = cli.parse_presentation(text)
                    page = spectral.build_page(pres, window)
                    final, _log = spectral.run_to_stable(page, spec)
                    print(f"  {op['name']}: {page_sizes(final, spec.pages)}")
                else:
                    out = op_module.run_op(op, op_module.Spans(False))
                    terms = json.loads(out["stdout"])["terms"]
                    print(f"  {op['name']}: {len(terms)} terms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
