"""Syntomic cohomology of the Adams summand mod (p, v1, v2).

The pipeline, per prime p:

1. ``derive_differentials`` turns formal-group data into t-Bockstein
   differentials: the right-unit deviation gives d_p(t) = t^{p+1}·λ₁ through
   the circle-suspension class σ²t₁, and its p-th power gives
   d_{p²}(t^p) = t^{p²+p}·λ₂.  One right unit per prime carries every such
   fact; it is certified once and the report cached, for both structures.
2. ``tp_einfty`` / ``tcminus_einfty`` run the spectral sequence engine on
   E₁ = F_p[t^{±1}]⊗Λ(λ₁,λ₂) resp. F_p[t,μ]/(tμ)⊗Λ(λ₁,λ₂) and certify the
   closed-form answers on the boundary-safe part of the window.
3. ``build_can`` / ``build_frobenius`` assemble the two comparison maps on
   bases read off the certified E∞ pages, so the closed forms serve only as
   certificates and never as a second list of classes.
4. ``syntomic_table`` takes the degreewise fiber of (φ − can): kernel classes
   keep their names, cokernel classes acquire a ∂ prefix, and the result is
   the mod (p, v1, v2) generator table, free over F_p[v₂] on 4p+4 classes.

Collapse checkers (`motivic_collapse_check`, `v2_bockstein_check`) and the
Hodge–Tate comparison (`hodge_tate_check`) validate the surrounding claims.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import fgl
from .graded import (GeneratorSymbol, Poly, VerificationError,
                     canonical_catalog)
from .fgl import (coefficientwise_frobenius, orientation_truncation, p_series,
                  reduce_ideal, right_unit_t)
from .spectral import (ADAMS_RULE, BidegreeRule, ChartEntry, CollapseReport,
                       DiffEntry, DifferentialSpec, Presentation, SSPage,
                       Window, build_page, collapse_check, run_to_stable)
from .linalg import Span, kernel_basis, vec_addmul

__all__ = [
    "derive_differentials",
    "tp_presentation", "tcminus_presentation", "tp_einfty", "tcminus_einfty",
    "BasisClass", "GradedLinearMap", "build_can", "build_frobenius",
    "TableEntry", "GeneratorTable", "SyntomicWindowError", "syntomic_table",
    "default_table_window", "run_window", "HodgeTateReport",
    "hodge_tate_check",
    "motivic_collapse_check", "v2_bockstein_check", "PRESENTATIONS",
    "FROBENIUS_CONVENTIONS",
]


# ---------------------------------------------------------------------------
# presentations and derived differentials

def _lambdas(p: int) -> list[GeneratorSymbol]:
    """λ₁ and λ₂, the exterior generators of both presentations."""
    return [GeneratorSymbol("lambda1", 2 * p - 1, 0),
            GeneratorSymbol("lambda2", 2 * p * p - 1, 0)]


def tp_presentation(p: int) -> Presentation:
    """E₁ of the t-Bockstein sequence for the periodic structure:
    F_p[t^{±1}] ⊗ Λ(λ₁, λ₂)."""
    return Presentation(p, [GeneratorSymbol("t", -2, 1, invertible=True),
                            *_lambdas(p)])


def tcminus_presentation(p: int) -> Presentation:
    """E₁ for the negative cyclic structure: F_p[t, μ]/(tμ) ⊗ Λ(λ₁, λ₂)."""
    return Presentation(p, [GeneratorSymbol("t", -2, 1),
                            GeneratorSymbol("mu", 2 * p * p, 0),
                            *_lambdas(p)], relations=[{"t": 1, "mu": 1}])


def _rewrite_through_suspension(poly):
    """Replace t₁ by t·σ²t₁ so cobar terms read off differentials: each
    monomial's t₁-exponent moves onto t and onto σ²t₁."""
    cat = poly.catalog
    t, t1, s2t1 = (cat.index[n] for n in ("t", "t1", "sigma2t1"))

    def move(m):
        out = list(m)
        e, out[t1] = out[t1], 0
        out[t] += e
        out[s2t1] += e
        return tuple(out)

    return Poly.from_terms(cat, poly.ring,
                           ((move(m), c) for m, c in poly.terms.items()),
                           poly.trunc)


@functools.cache
def _formal_group_certificate(p: int) -> dict:
    """Every formal-group fact behind the two differentials, checked on one
    right unit η = η_R(t) mod (p, v₁, t^{p²+2p}); returns the permanence
    report.  Any failure is a hard error.

    The engine's generators must match formal-group classes in both
    presentations: λ₁ the circle suspension σ²t₁ one degree down (as a
    cocycle representative), λ₂ likewise (σ²t₁)^p, and μ the class σ²v₂.

    Cut to t^{p+2}, η − t rewrites (t₁ ↦ t·σ²t₁) to exactly t^{p+1}·σ²t₁,
    so every term has t-degree ≥ p+1 and the truncated tail sits at ≥ p+2.
    Raising to the p²-th power is exponentwise mod p, so η_R(t^{p²}) − t^{p²}
    has t-degree ≥ (p+1)p² = p³ + p² and t^{p²} is a permanent cycle.  The
    p-th power η^p − t^p rewrites to exactly t^{p²+p}·(σ²t₁)^p.  At this
    truncation, over F_p, η^p − t^p is the Frobenius image of the cut η − t,
    so the p-th-power check passes exactly when the d_p check does.  Both
    are kept, since every internal check stays a hard error (ROADMAP.md).

    η is computed with v₁ killed before the series arithmetic (see
    ``fgl``), so the last check recomputes the right unit without the
    quotient, over Z₍ₚ₎[v₁, v₂, …], on the window d_p is read from,
    t^{p+2}.  ``right_unit_t`` asserts that full series p-integral, and its
    quotient mod (p, v₁) must equal the cut η.  A fault that only the full
    series sees is caught as far as that window reaches: l₁ scaled by 1/p
    shows at p = 2 as −v₁/2·t₁t³, while at p ≥ 3 the window holds no term
    that it makes non-p-integral.
    """
    fcat = canonical_catalog(p)
    s2t1, s2v2 = (fcat.symbols[fcat.index[n]].degree
                  for n in ("sigma2t1", "sigma2v2"))
    want = {"lambda1": (s2t1 - 1, "lambda1 vs sigma2t1"),
            "lambda2": (p * s2t1 - 1, "lambda2 vs sigma2t1^p"),
            "mu": (s2v2, "mu vs sigma2v2")}
    for pres in (tp_presentation(p), tcminus_presentation(p)):
        for g in pres.gens:
            degree, what = want.get(g.name, (g.degree, None))
            if g.degree != degree:
                raise VerificationError(
                    f"axiom degree mismatch ({what}): {g.degree} != {degree}")
    # the two permanence bounds come first: the exact leading term implies
    # them, and in this order a fault trips the weakest check that sees it
    eta = right_unit_t(p, p * p + 2 * p, ideal=("p", "v1"))
    cat, ring = eta.catalog, eta.ring
    cut = eta.with_trunc(orientation_truncation(cat, p + 2))
    dev = _rewrite_through_suspension(cut - Poly.gen(cat, ring, "t", cut.trunc))
    degrees = sorted({m[cat.index["t"]] for m in dev.terms})
    if degrees and degrees[0] < p + 1:
        raise VerificationError(
            f"right-unit deviation has a rewritten term at t-degree "
            f"{degrees[0]} < {p + 1}; t^(p^2) permanence fails")
    frob = coefficientwise_frobenius(dev, p, e=2)
    fdeg = sorted({m[cat.index["t"]] for m in frob.terms})
    bound = p ** 3 + p ** 2
    if fdeg and fdeg[0] < bound:
        raise VerificationError(
            f"eta_R(t^(p^2)) deviates from t^(p^2) below t^{bound}")
    if dict(dev.terms) != {cat.mono({"t": p + 1, "sigma2t1": 1}): 1}:
        raise VerificationError(
            "cobar differential of t is not t^(p+1)*sigma2t1; "
            "formal-group sign convention mismatch")
    tp = Poly.from_terms(cat, ring, [(cat.mono({"t": p}), 1)], eta.trunc)
    devp = _rewrite_through_suspension(eta ** p - tp)
    if dict(devp.terms) != {cat.mono({"t": p * p + p, "sigma2t1": p}): 1}:
        raise VerificationError(
            "p-th power of the right unit is not t^p + t^(p^2+p)*sigma2t1^p; "
            "formal-group sign convention mismatch")
    # the check series, beside the one right unit η that the report reads
    full = fgl.right_unit_t(p, p + 2)
    if reduce_ideal(full, p, ("p", "v1")) != cut:
        raise VerificationError(
            "right unit mod (p, v1) differs when v1 is killed before the "
            "series arithmetic and after it")
    return {
        "p": p,
        "min_rewritten_degree": degrees[0] if degrees else None,
        "min_frobenius_degree": fdeg[0] if fdeg else None,
        "bound": bound,
        "tail_degree": (p + 2) * p * p,
    }


PRESENTATIONS = {"tp": tp_presentation, "tcminus": tcminus_presentation}


def derive_differentials(p: int, structure: str = "tp") -> DifferentialSpec:
    """t-Bockstein differentials from the formal-group right unit.

    d_p(t) = t^{p+1}·λ₁ comes from η_R(t) − t ≡ t^{p+1}·σ²t₁ and the
    identification λ₁ ↔ σ²t₁; d_{p²}(t^p) = t^{p²+p}·λ₂ from the p-th power
    and λ₂ ↔ (σ²t₁)^p.  t^{p²}, λ₁, λ₂ and μ are permanent cycles.  Both
    structures read these facts off one right unit per prime, certified once
    and cached by ``_formal_group_certificate``; a mismatch there is a hard
    error, meaning the sign conventions upstream are misconfigured.
    """
    if structure not in PRESENTATIONS:
        raise ValueError(f"unknown structure {structure!r}")
    _formal_group_certificate(p)
    pres = PRESENTATIONS[structure](p)
    pcat = pres.catalog
    entries = (
        DiffEntry(p, "t", 1, ((pcat.mono({"t": p + 1, "lambda1": 1}), 1),)),
        DiffEntry(p * p, "t", p,
                  ((pcat.mono({"t": p * p + p, "lambda2": 1}), 1),)),
    )
    return DifferentialSpec(pres, entries)


# ---------------------------------------------------------------------------
# closed-form E-infinity answers and certified runs

def _tp_closed_form(pres: Presentation, p: int, m) -> bool:
    """Membership in F_p[t^{±p²}] ⊗ Λ(λ₁, λ₂)."""
    return m[pres.catalog.index["t"]] % (p * p) == 0


def _tcminus_closed_form(pres: Presentation, p: int, m) -> bool:
    """Membership in F_p[t^{p²}, μ]/(t^{p²}μ) ⊗ Λ(λ₁, λ₂) plus the leftover
    families t^d·λ₁, t^{pd}·λ₂, t^d·λ₁λ₂, t^{pd}·λ₁λ₂ with 0 < d < p."""
    cat = pres.catalog
    a = m[cat.index["t"]]
    e1 = m[cat.index["lambda1"]]
    e2 = m[cat.index["lambda2"]]
    if a % (p * p) == 0:
        return True
    if e1 and not e2:
        return 0 < a < p
    if e2 and not e1:
        return a % p == 0 and 0 < a // p < p
    if e1 and e2:
        return 0 < a < p or (a % p == 0 and 0 < a // p < p)
    return False


_CLOSED_FORMS = {"tp": _tp_closed_form, "tcminus": _tcminus_closed_form}


def run_window(p: int, structure: str, deg_lo: int, deg_hi: int) -> Window:
    """A window around [deg_lo, deg_hi] wide enough that every bidegree with
    a degree in that range sits more than two differentials away from any
    binding edge, so its classes come out unflagged."""
    # largest generator degree above a t-power: |λ₁λ₂|
    top = sum(g.degree for g in _lambdas(p))
    slack = 2 * (p * p + p) + 2
    a_lo = -(deg_hi // 2) - 1
    a_hi = (top - deg_lo) // 2 + 1
    if structure == "tcminus":
        return Window(deg_lo - 4, deg_hi + 4, 0, a_hi + slack)
    return Window(deg_lo - 4, deg_hi + 4, a_lo - slack, a_hi + slack)


def _certify(page: SSPage, p: int, structure: str) -> None:
    """Exact two-sided comparison with the closed form on every unflagged
    bidegree: survivors there must be named by closed-form monomials and
    every closed-form monomial must survive."""
    pres = page.pres
    member = _CLOSED_FORMS[structure]
    alive: dict[tuple[int, int], set] = {}
    for b, mono, _vec in page.class_reps(include_flagged=True):
        alive.setdefault(b, set()).add(mono)
    for b in sorted(page.data):
        if b in page.flags:
            continue
        got = alive.get(b, set())
        want = {m for m in page.data[b].monos if member(pres, p, m)}
        if got != want:
            gs = sorted(pres.catalog.mono_str(m) for m in got)
            ws = sorted(pres.catalog.mono_str(m) for m in want)
            raise VerificationError(
                f"{structure} E-infinity mismatch at bidegree {b}: "
                f"computed {gs}, closed form {ws}")


@functools.cache
def _einfty(p: int, structure: str, deg_lo: int, deg_hi: int) -> SSPage:
    spec = derive_differentials(p, structure)
    win = run_window(p, structure, deg_lo, deg_hi)
    page = build_page(spec.pres, win)
    final, _log = run_to_stable(page, spec)
    _certify(final, p, structure)
    # the requested degree range must be fully boundary-safe, so that the
    # bases read off this page over it are certified
    for b in final.flags:
        if deg_lo <= b[0] <= deg_hi and final.data[b].monos:
            raise VerificationError(
                f"{structure} run window leaves bidegree {b} "
                f"boundary-uncertain inside the requested degree range")
    return final


def tp_einfty(p: int, deg_window=None) -> SSPage:
    """Run the periodic-structure t-Bockstein sequence to its stable page and
    certify E∞ = F_p[t^{±p²}] ⊗ Λ(λ₁, λ₂) on the safe part of the window."""
    return _einfty(p, "tp", *(deg_window or default_table_window(p)[:2]))


def tcminus_einfty(p: int, deg_window=None) -> SSPage:
    """Like ``tp_einfty`` for the negative cyclic structure, including the
    truncated leftover families t^d·λ^ε with 0 < d < p."""
    return _einfty(p, "tcminus", *(deg_window or default_table_window(p)[:2]))


# ---------------------------------------------------------------------------
# E-infinity bases over a table window

@dataclass(frozen=True, order=True)
class BasisClass:
    """A named E∞ basis class.  ``weight`` is the Adams weight ε₁+ε₂ (t and μ
    do not contribute), which both comparison maps preserve."""

    degree: int
    weight: int
    name: str
    t_exp: int
    mu_exp: int
    eps1: int
    eps2: int


def _einfty_basis(p: int, structure: str, win) -> list[BasisClass]:
    """The certified E∞ classes of ``structure`` whose degree and Adams
    weight lie in ``win`` = (deg_min, deg_max, weight_min, weight_max),
    sorted by degree, weight and name.  At p = 2 the TP classes are
    t^{4k}·λ^ε with |t^4| = −8, |λ₁| = 3 and |λ₂| = 7:

    >>> [c.name for c in _einfty_basis(2, "tp", (-2, 8, 0, 2))]
    ['t^4*lambda2', '1', 't^4*lambda1*lambda2', 'lambda1', 'lambda2', 't^-4']
    """
    page = _einfty(p, structure, *win[:2])
    cat = page.pres.catalog
    ix = cat.index
    dlo, dhi, wlo, whi = win
    out = []
    for _b, m, _vec in page.class_reps(include_flagged=False):
        eps1, eps2 = m[ix["lambda1"]], m[ix["lambda2"]]
        c = BasisClass(cat.degree(m), eps1 + eps2, cat.mono_str(m),
                       m[ix["t"]], m[ix["mu"]] if "mu" in ix else 0,
                       eps1, eps2)
        if dlo <= c.degree <= dhi and wlo <= c.weight <= whi:
            out.append(c)
    return sorted(out)


# ---------------------------------------------------------------------------
# the comparison maps

# The unit u(p, k, ε₁, ε₂) ∈ F_p^× of φ on λ₁^{ε₁}λ₂^{ε₂}·μ^k, k ≥ 1, per
# convention; the first is the default.  "alt" is a deliberately different
# choice, used to show that the table does not depend on it; at p = 2, where
# F_2^× is trivial, it is 1.
_FROBENIUS_UNITS = {
    "one": lambda p, k, eps1, eps2: 1,
    "alt": lambda p, k, eps1, eps2: (k + eps1 + eps2) % (p - 1) + 1,
}
FROBENIUS_CONVENTIONS = tuple(_FROBENIUS_UNITS)


def _on_can_lattice(p: int, c: BasisClass) -> bool:
    """μ⁰·t^{kp²} with k ≥ 0 (times any λ): where can is nonzero."""
    return c.mu_exp == 0 and c.t_exp >= 0 and c.t_exp % (p * p) == 0


def _on_mu_tower(c: BasisClass) -> bool:
    """t⁰ (μ^k times any λ): where φ is nonzero."""
    return c.t_exp == 0


@dataclass
class GradedLinearMap:
    """A degree- and weight-preserving F_p-linear map between monomial-named
    bigraded bases, stored as a sparse matrix bundled per degree."""

    name: str
    p: int
    source: list[BasisClass]
    target: list[BasisClass]
    columns: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        self._tgt = {c.name: c for c in self.target}
        self._src = {c.name: c for c in self.source}
        for sname, col in self.columns.items():
            s = self._src[sname]
            for tname, coeff in col.items():
                t = self._tgt[tname]
                if (s.degree, s.weight) != (t.degree, t.weight):
                    raise VerificationError(
                        f"{self.name} does not preserve bidegree on "
                        f"{sname} -> {tname}")
                if coeff % self.p == 0:
                    raise VerificationError(
                        f"{self.name} stores a zero entry at {sname}")

    def apply(self, name: str) -> dict[str, int]:
        return dict(self.columns.get(name, {}))

    def block(self, degree: int):
        """(source classes, target classes, dense column list) in degree."""
        src = [c for c in self.source if c.degree == degree]
        tgt = [c for c in self.target if c.degree == degree]
        tix = {c.name: i for i, c in enumerate(tgt)}
        cols = []
        for c in src:
            v = {}
            for tname, coeff in self.columns.get(c.name, {}).items():
                v[tix[tname]] = coeff % self.p
            cols.append(v)
        return src, tgt, cols


def build_can(p: int, window=None) -> GradedLinearMap:
    """The canonical comparison map.  It sends λ₁^{ε₁}λ₂^{ε₂}·t^{kp²} with
    k ≥ 0 to the class of the same name and is zero on every other class."""
    win = window or default_table_window(p)
    target = _einfty_basis(p, "tp", win)
    source = _einfty_basis(p, "tcminus", win)
    tgt_names = {c.name for c in target}
    columns = {}
    for c in source:
        if _on_can_lattice(p, c):
            if c.name not in tgt_names:
                raise VerificationError(
                    f"can: target basis has no class named {c.name}")
            columns[c.name] = {c.name: 1}
    return GradedLinearMap("can", p, source, target, columns)


def build_frobenius(p: int, window=None,
                    convention: str = FROBENIUS_CONVENTIONS[0],
                    ) -> GradedLinearMap:
    """The Frobenius comparison map.  It sends λ₁^{ε₁}λ₂^{ε₂}·μ^k to
    u(k,ε₁,ε₂)·λ₁^{ε₁}λ₂^{ε₂}·t^{−kp²} and is zero elsewhere.  u(0,·) = 1
    always (the map is unital on the λ-subalgebra); the convention only
    picks the units for k ≥ 1, which are not pinned down by the structure.
    """
    unit = _FROBENIUS_UNITS.get(convention)
    if unit is None:
        raise ValueError(f"unknown Frobenius unit convention {convention!r}")
    win = window or default_table_window(p)
    target = _einfty_basis(p, "tp", win)
    source = _einfty_basis(p, "tcminus", win)
    by_exps = {(c.t_exp, c.eps1, c.eps2): c for c in target}
    columns = {}
    for c in source:
        if _on_mu_tower(c):
            k = c.mu_exp
            u = 1 if k == 0 else unit(p, k, c.eps1, c.eps2) % p
            if u == 0:
                raise VerificationError("Frobenius unit must lie in F_p^x")
            t = by_exps.get((-k * p * p, c.eps1, c.eps2))
            if t is None:
                raise VerificationError(
                    f"phi: target basis has no image class for {c.name}")
            columns[c.name] = {t.name: u}
    return GradedLinearMap("phi", p, source, target, columns)


# ---------------------------------------------------------------------------
# the generator table

class SyntomicWindowError(VerificationError):
    """The requested window cuts off part of the generator table."""


def _v2_bidegree(p: int) -> tuple[int, int]:
    """(degree, weight) of v₂, the step of every v₂-tower."""
    return (2 * p * p - 2, p * p - 1)


def default_table_window(p: int) -> tuple[int, int, int, int]:
    """Degrees [−2, 2p²+2p+2], weights [0, 2p²]: every base generator plus
    one v₂-tower step."""
    return (-2, 2 * p * p + 2 * p + 2, 0, 2 * p * p)


@dataclass(frozen=True)
class TableEntry:
    name: str
    degree: int
    weight: int
    origin: str  # "kernel" | "cokernel"

    def sort_key(self):
        return (self.weight, -self.degree, self.origin == "cokernel",
                self.name)


@dataclass
class GeneratorTable:
    """The mod (p, v1, v2) generator table: a finite F_p-basis of the
    degreewise fiber of (φ − can), free over F_p[v₂]."""

    p: int
    frobenius_unit: str
    entries: list[TableEntry]
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.entries = sorted(self.entries, key=TableEntry.sort_key)
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise VerificationError("generator names are not unique")
        for e in self.entries:
            if e.origin not in ("kernel", "cokernel"):
                raise VerificationError(f"bad origin {e.origin!r}")

    @property
    def v2_bidegree(self) -> tuple[int, int]:
        return _v2_bidegree(self.p)

    def to_json_dict(self) -> dict:
        return {
            "prime": self.p,
            "convention": {
                "frobenius_unit": self.frobenius_unit,
                "generators": "hazewinkel",
            },
            "module": "free_over_v2",
            "v2_bidegree": list(self.v2_bidegree),
            "generators": [
                {"name": e.name, "degree": e.degree, "weight": e.weight,
                 "origin": e.origin}
                for e in self.entries
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratorTable":
        p = data["prime"]
        if data.get("module") != "free_over_v2":
            raise VerificationError("unknown module statement in table JSON")
        if list(data.get("v2_bidegree", [])) != list(_v2_bidegree(p)):
            raise VerificationError("v2 bidegree does not match the prime")
        entries = [TableEntry(g["name"], g["degree"], g["weight"], g["origin"])
                   for g in data["generators"]]
        return cls(p, data["convention"]["frobenius_unit"], entries,
                   list(data.get("notes", [])))

    def to_csv(self) -> str:
        lines = ["name,degree,weight,origin"]
        for e in self.entries:
            lines.append(f"{e.name},{e.degree},{e.weight},{e.origin}")
        return "\n".join(lines) + "\n"


def _fiber_parts(p: int, phi: GradedLinearMap, can: GradedLinearMap):
    """Degreewise kernel and cokernel of (φ − can), by one elimination.

    `kernel_basis` gives one special solution per column that depends on
    the columns before it, with its leading 1 at that column: its source
    class names a kernel class.  The target classes at no pivot of the span
    it leaves are the cokernel.  Both are canonical for the fixed basis
    enumeration.
    """
    kernel: list[BasisClass] = []
    cokernel: list[BasisClass] = []
    dims: dict[int, tuple[int, int]] = {}
    for degree in sorted({c.degree for c in phi.source}
                         | {c.degree for c in phi.target}):
        src, tgt, pcols = phi.block(degree)
        csrc, ctgt, ccols = can.block(degree)
        if (csrc, ctgt) != (src, tgt):
            raise VerificationError(
                f"phi and can have different bases in degree {degree}")
        span = Span(p)
        ker = [src[max(k)] for k in kernel_basis(
            p, [vec_addmul(p, pv, cv, -1) for pv, cv in zip(pcols, ccols)], span)]
        coker = [c for i, c in enumerate(tgt) if i not in span.rows]
        kernel += ker
        cokernel += coker
        dims[degree] = (len(ker), len(coker))
    return kernel, cokernel, dims


def _table_notes(p: int) -> list[str]:
    n, a = _v2_bidegree(p)
    return [
        "v2 acts on the kernel part through the identification v2 = t*mu; "
        f"one v2-tower step shifts (degree, weight) by ({n}, {a}).",
        "leftover-family degrees use |t^d*x| = |x| - 2d, so "
        "|t^d*lambda1*lambda2| = 2p^2 + 2p - 2 - 2d; the variant reading "
        "2p^2 - 2p - 2 - 2d is inconsistent with the weight-2 positions "
        "and is not used.",
        "the d = 0 members of the two lambda1*lambda2 leftover families "
        "coincide; the table lists that class once.",
    ]


def syntomic_table(p: int, window=None,
                   convention: str = FROBENIUS_CONVENTIONS[0],
                   ) -> GeneratorTable:
    """The mod (p, v1, v2) syntomic generator table for the Adams summand.

    Kernel classes of (φ − can) in degree n contribute generators (n, ε₁+ε₂);
    cokernel classes in degree n+1 contribute ∂-prefixed generators of degree
    n and weight ε₁+ε₂+1.  The result is free over F_p[v₂] on 4p+4
    generators; a window too small to contain them all is an error.
    """
    win = window or default_table_window(p)
    if win[0] > win[1] or win[2] > win[3]:
        raise ValueError("window bounds must satisfy min <= max")
    can = build_can(p, win)
    phi = build_frobenius(p, win, convention)
    kernel, cokernel, dims = _fiber_parts(p, phi, can)

    entries = [TableEntry(c.name, c.degree, c.weight, "kernel")
               for c in kernel]
    for c in cokernel:
        name = "del" if c.name == "1" else "del*" + c.name
        entries.append(TableEntry(name, c.degree - 1, c.weight + 1,
                                  "cokernel"))
    table = GeneratorTable(p, convention, entries, _table_notes(p))
    expected = 4 * p + 4
    if len(entries) != expected:
        raise SyntomicWindowError(
            f"window {win} yields {len(entries)} generators, expected "
            f"{expected}; enlarge the window to cover the full table")
    _verify_table(p, table, phi, can, dims)
    return table


def _verify_table(p, table, phi, can, dims) -> None:
    """Bookkeeping invariants tying the table back to the matrices."""
    # degreewise: #generators of degree n = dim ker_n + dim coker_{n+1}
    per_degree: dict[int, int] = {}
    for e in table.entries:
        per_degree[e.degree] = per_degree.get(e.degree, 0) + 1
    degrees = set(per_degree) | set(dims) | {n - 1 for n in dims}
    for n in sorted(degrees):
        count = per_degree.get(n, 0)
        k = dims.get(n, (0, 0))[0]
        c = dims.get(n + 1, (0, 0))[1]
        if count != k + c:
            raise VerificationError(
                f"fiber bookkeeping fails in degree {n}: "
                f"{count} != {k} + {c}")
    # can is injective on the non-negative t^{p^2}-power part
    seen = set()
    for c in can.source:
        col = can.apply(c.name)
        if _on_can_lattice(p, c):
            if not col:
                raise VerificationError(f"can vanishes on {c.name}")
            tgt = frozenset(col.items())
            if tgt in seen:
                raise VerificationError("can is not injective on t-powers")
            seen.add(tgt)
    # phi is injective on mu-power classes
    seen = set()
    for c in phi.source:
        if _on_mu_tower(c):
            col = frozenset(phi.apply(c.name).items())
            if not col:
                raise VerificationError(f"phi vanishes on {c.name}")
            if col in seen:
                raise VerificationError("phi is not injective on mu-powers")
            seen.add(col)
    # the four del-classes and their degrees
    dels = [e for e in table.entries if e.origin == "cokernel"]
    got = sorted(e.degree for e in dels)
    want = sorted((-1, 2 * p - 2, 2 * p * p - 2, 2 * p * p + 2 * p - 3))
    if len(dels) != 4 or got != want:
        raise VerificationError(
            f"del-classes sit at degrees {got}, expected {want}")


# ---------------------------------------------------------------------------
# consistency checkers

@dataclass
class HodgeTateReport:
    p: int
    leading_unit: int
    leading_term: str
    degree_window: tuple[int, int]
    dimensions: dict[int, int]
    ok: bool


def _exterior_laurent_dims(pres: Presentation, x: str, power: int, lo: int,
                           hi: int) -> dict[int, int]:
    """Graded dimensions over [lo, hi] of Λ(λ₁, λ₂) ⊗ F_p[y^{±1}] with
    y = x^power, every degree read off ``pres``."""
    deg = {g.name: g.degree for g in pres.gens}
    l1, l2, step = deg["lambda1"], deg["lambda2"], abs(power * deg[x])
    dims: dict[int, int] = {}
    for c0 in (0, l1, l2, l1 + l2):
        for d in range(lo + (c0 - lo) % step, hi + 1, step):
            dims[d] = dims.get(d, 0) + 1
    return dict(sorted(dims.items()))


def hodge_tate_check(p: int) -> HodgeTateReport:
    """Two facts feeding the periodic-structure identification.

    (i) mod (p, v₁) the p-series reads (unit)·v₂·t^{p²} + O(t^{p²+1}), so v₂
    is a unit multiple of t^{−p²}·[p](t); (ii) F_p[t^{±p²}]⊗Λ(λ₁,λ₂) and
    Λ(λ₁,λ₂)⊗F_p[μ^{±1}] have equal graded dimensions over [−2p², 2p²],
    with every degree read off ``tp_presentation`` and
    ``tcminus_presentation``: this holds when |μ| = −p²·|t|.  Either failure
    is a hard error.
    """
    ps = p_series(p, p * p + 2, ideal=("p", "v1"))
    cat = ps.catalog
    lead = cat.mono({"v2": 1, "t": p * p})
    unit = ps.terms.get(lead)
    others = {m for m in ps.terms
              if m[cat.index["t"]] <= p * p and m != lead}
    if unit is None or others:
        raise VerificationError(
            "p-series mod (p, v1) does not start with a unit times "
            "v2*t^(p^2)")
    unit = int(unit) % p
    if unit == 0:
        raise VerificationError("p-series leading coefficient is not a unit")

    lo, hi = -2 * p * p, 2 * p * p
    left = _exterior_laurent_dims(tp_presentation(p), "t", p * p, lo, hi)
    right = _exterior_laurent_dims(tcminus_presentation(p), "mu", 1, lo, hi)
    if left != right:
        diff = sorted(d for d in left.keys() | right.keys()
                      if left.get(d) != right.get(d))
        raise VerificationError(
            f"graded dimensions disagree at degrees {diff}")
    leading = f"v2*t^{p * p}" if unit == 1 else f"{unit}*v2*t^{p * p}"
    return HodgeTateReport(p, unit, leading, (lo, hi), left, True)


def _chart_entries(table: GeneratorTable, period=None) -> list[ChartEntry]:
    return [ChartEntry(e.name, e.degree, e.weight, period)
            for e in table.entries]


def motivic_collapse_check(p: int, table: GeneratorTable | None = None,
                           ) -> CollapseReport:
    """No differentials on the four-line chart of the motivic sequence.

    Entries are the table generators extended by their v₂-towers (period
    2p²−2 in degree, constant line).  A d_r moves (−1, +r); the first page
    carrying one is r = 2, so r starts there.  Lines 0 and 2 sit in even
    degrees and lines 1 and 3 in odd degrees, so parity rules out every even
    r, and r = 3 fails the residue test mod 2p²−2; the checker verifies this
    exhaustively and reports any witness pair.
    """
    if table is None:
        table = syntomic_table(p)
    entries = _chart_entries(table, period=_v2_bidegree(p)[0])
    report = collapse_check(entries, ADAMS_RULE, r_min=2)
    report.notes.append(
        "lines 0 and 2 are even-degree, lines 1 and 3 odd-degree: parity "
        "excludes even r; r = 3 needs a degree match mod 2p^2-2 that the "
        "chart does not contain")
    return report


def v2_bockstein_check(p: int, table: GeneratorTable | None = None,
                       ) -> CollapseReport:
    """No differentials in the v₂-Bockstein sequence over the table chart.

    A d_r moves (degree, weight) by (r(2p²−2) − 1, r(p²−1)).  Chart weights
    span 0..3, so p ≥ 3 rules out every r ≥ 1 outright; at p = 2 only r = 1
    is possible and fails on degrees.
    """
    if table is None:
        table = syntomic_table(p)
    n, a = _v2_bidegree(p)
    rule = BidegreeRule(deg_per_r=n, deg_const=-1, weight_per_r=a,
                        weight_const=0)
    report = collapse_check(_chart_entries(table), rule, r_min=1)
    report.notes.append(
        f"a d_r raises weight by r*{a}; chart weights span 0..3")
    return report
