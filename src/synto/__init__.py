"""synto: exact-arithmetic syntomic cohomology tables for the Adams summand.

The pipeline runs entirely over exact coefficients (Z[1/p], then F_p):

1.  `fgl` builds the p-typical formal group law on Hazewinkel generators,
    its p-series, and the right unit on the dual Steenrod-style generators.
2.  `spectral` is a small t-Bockstein spectral sequence engine (pages,
    Leibniz differentials, canonical homology representatives).
3.  `summand` specializes the engine to TP and TC^- of the Adams summand
    mod (p, v1, v2), builds the canonical and Frobenius maps, and assembles
    the syntomic generator table (4p + 4 classes at every prime).
4.  `chart` renders the table as SVG or ASCII; `cli` is the console entry
    point (`synto syntomic --prime 3`, `synto fgl p-series --prime 2
    --mod p,v1 --trunc 10`, ...).
"""

from synto.fgl import p_series, right_unit_t
from synto.graded import (
    Catalog,
    CoeffRing,
    GeneratorSymbol,
    Poly,
    canonical_catalog,
)
from synto.summand import (
    GeneratorTable,
    hodge_tate_check,
    motivic_collapse_check,
    syntomic_table,
    v2_bockstein_check,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "CoeffRing",
    "GeneratorSymbol",
    "GeneratorTable",
    "Poly",
    "canonical_catalog",
    "hodge_tate_check",
    "motivic_collapse_check",
    "p_series",
    "right_unit_t",
    "syntomic_table",
    "v2_bockstein_check",
    "__version__",
]
