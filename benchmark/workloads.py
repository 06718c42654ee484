"""The benchmark's inputs: one list of operations per workload.

Every input is fixed here; nothing is drawn at random.  The run's seed only
sets the order of the operations inside each round (see run.py), so any
seed does the same work.  An operation is a dict:

    name     label, unique within its workload
    kind     "table" | "ss" | "fgl": what the child process does (op.py)
    ...      the arguments of that kind, and what checks.py needs

The `ss` inputs are presentation files in the format `synto ss --file`
reads.  `preset_text` and `derham_text` write them from the parameters
below and know nothing of the program beyond that file format.
"""

from __future__ import annotations

from pathlib import Path

# p of each generator-table operation (scripts/run_all_primes.py, one prime).
TABLE_PRIMES = (2, 3, 5, 7, 11)

# Primes of the TP and TC^- presets written as presentation files.
PRESET_PRIMES = (31, 41)

# (p, k, top degree D) of each de Rham complex Omega(F_p[x_1..x_k]), with the
# x_i in bidegree (2, 0), dx_i in (1, 1), and the window deg [0, D] x
# weight [0, k].
DERHAM_CASES = ((2, 4, 18), (3, 4, 18), (5, 3, 32), (7, 3, 32))

# (series, p, truncation) of each `synto fgl` query; the ideal is empty.
FGL_QUERIES = (("p-series", 2, 22), ("right-unit", 2, 16),
               ("p-series", 3, 50), ("right-unit", 3, 28),
               ("p-series", 5, 60))

# The operation each workload reports as largest_op_s: its largest input.
LARGEST = {"table": "table-p11", "engine_presets": "tp-p41",
           "derham_dense": "derham-p3-k4", "fgl_series": "right-unit-p2-t16"}


def preset_window(p: int, structure: str) -> tuple[int, int, int, int]:
    """The window `synto ss --preset` runs on: degrees [-2, 2p^2+2p+2]
    widened so that no class in that range is boundary-flagged."""
    deg_lo, deg_hi = -2, 2 * p * p + 2 * p + 2
    top = 2 * p * p + 2 * p - 2
    slack = 2 * (p * p + p) + 2
    a_lo = -(deg_hi // 2) - 1
    a_hi = (top - deg_lo) // 2 + 1
    if structure == "tcminus":
        return (deg_lo - 4, deg_hi + 4, 0, a_hi + slack)
    return (deg_lo - 4, deg_hi + 4, a_lo - slack, a_hi + slack)


def preset_text(p: int, structure: str) -> str:
    """E_1 = F_p[t^{+-1}] (x) L(l1, l2) for TP, F_p[t, mu]/(t mu) (x) L(l1, l2)
    for TC^-, with d_p(t) = t^{p+1} l1 and d_{p^2}(t^p) = t^{p^2+p} l2."""
    tp = structure == "tp"
    lines = [f"prime {p}",
             "gen t deg -2 weight 1 parity even" + (" invertible" if tp else "")]
    if not tp:
        lines.append(f"gen mu deg {2 * p * p} weight 0 parity even")
    lines += [f"gen lambda1 deg {2 * p - 1} weight 0 parity odd",
              f"gen lambda2 deg {2 * p * p - 1} weight 0 parity odd"]
    if not tp:
        lines.append("rel t*mu")
    lines += [f"diff page {p} t -> t^{p + 1}*lambda1",
              f"diff page {p * p} t^{p} -> t^{p * p + p}*lambda2"]
    dlo, dhi, wlo, whi = preset_window(p, structure)
    lines.append(f"window deg {dlo} {dhi} weight {wlo} {whi}")
    return "\n".join(lines) + "\n"


def derham_text(p: int, k: int, top: int) -> str:
    """Omega(F_p[x_1..x_k]) with d_1 x_i = dx_i, cut off above degree `top`."""
    lines = [f"prime {p}"]
    lines += [f"gen x{i} deg 2 weight 0 parity even" for i in range(1, k + 1)]
    lines += [f"gen dx{i} deg 1 weight 1 parity odd" for i in range(1, k + 1)]
    lines += [f"diff page 1 x{i} -> dx{i}" for i in range(1, k + 1)]
    lines.append(f"window deg 0 {top} weight 0 {k}")
    return "\n".join(lines) + "\n"


def operations(workload: str, indir: Path) -> list[dict]:
    """The operations of one round of `workload`, writing any input files
    into `indir`.  Raises KeyError for an unknown workload."""
    if workload == "table":
        return [{"name": f"table-p{p}", "kind": "table", "p": p}
                for p in TABLE_PRIMES]
    if workload == "engine_presets":
        ops = []
        for p in PRESET_PRIMES:
            for structure in ("tp", "tcminus"):
                ops.append(ss_op(indir, f"{structure}-p{p}",
                                  preset_text(p, structure),
                                  check="preset", p=p, structure=structure))
        return ops
    if workload == "derham_dense":
        return [ss_op(indir, f"derham-p{p}-k{k}", derham_text(p, k, top),
                       check="derham", p=p, k=k, top=top)
                for p, k, top in DERHAM_CASES]
    if workload == "fgl_series":
        return [{"name": f"{series}-p{p}-t{trunc}", "kind": "fgl",
                 "series": series, "p": p, "trunc": trunc}
                for series, p, trunc in FGL_QUERIES]
    raise KeyError(workload)


def ss_op(indir: Path, name: str, text: str, **check) -> dict:
    path = indir / f"{name}.pres"
    path.write_text(text, encoding="utf-8")
    return {"name": name, "kind": "ss", "file": str(path), **check}
