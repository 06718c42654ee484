"""Syntomic cohomology of the Adams summand mod (p, v1, v2).

The pipeline, per prime p:

1. ``derive_differentials`` turns formal-group data into t-Bockstein
   differentials: the right-unit deviation gives d_p(t) = t^{p+1}·λ₁ through
   the circle-suspension class σ²t₁, and its p-th power gives
   d_{p²}(t^p) = t^{p²+p}·λ₂.  One right unit per prime, to t^{p+2}, carries
   both (its p-th power by Frobenius), certified once for both structures.
2. ``tp_einfty`` / ``tcminus_einfty`` run the spectral sequence engine on
   E₁ = F_p[t^{±1}]⊗Λ(λ₁,λ₂) resp. F_p[t,μ]/(tμ)⊗Λ(λ₁,λ₂) and certify the
   closed-form answers on the boundary-safe part of the window.
3. ``comparison_maps`` reads each certified E∞ basis once and names can and
   φ on that one pair of bases, so the closed forms serve only as
   certificates and never as a second list of classes.  φ carries unit 1
   on every μ^k: a unit on μ^k with k ≥ 1 would scale a column of φ − can
   and move no generator, so each prime has one table.
4. ``syntomic_table`` takes the degreewise fiber of (φ − can): kernel classes
   keep their names, cokernel classes acquire a ∂ prefix, and the result is
   the mod (p, v1, v2) generator table, free over F_p[v₂] on 4p+4 classes.
   They all lie in the degrees that ``default_table_window`` gives 3 and 4.

Collapse checkers (`motivic_collapse_check`, `v2_bockstein_check`) and the
Hodge–Tate check of the p-series leading term (`hodge_tate_check`) validate
the surrounding claims.  |μ| = 2p², which identifies F_p[t^{±p²}] with
F_p[μ^{±1}] degreewise, is checked once, in the formal-group certificate.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import fgl
from .graded import GeneratorSymbol, Poly, VerificationError, canonical_catalog
from .fgl import (coefficientwise_frobenius, p_series, reduce_ideal,
                  right_unit_t)
from .spectral import (ADAMS_RULE, BidegreeRule, ChartEntry, CollapseReport,
                       DiffEntry, DifferentialSpec, Presentation, SSPage,
                       Window, build_page, collapse_check, run_to_stable)
from .linalg import Span, kernel_basis, vec_addmul

__all__ = [
    "derive_differentials",
    "tp_presentation", "tcminus_presentation", "tp_einfty", "tcminus_einfty",
    "BasisClass", "comparison_maps",
    "TableEntry", "GeneratorTable", "syntomic_table",
    "default_table_window", "run_window", "HodgeTateReport",
    "hodge_tate_check",
    "motivic_collapse_check", "v2_bockstein_check", "PRESENTATIONS",
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
    right unit η = η_R(t) mod (p, v₁, t^{p+2}); returns the permanence
    report.  Any failure is a hard error.

    The engine's generators must match formal-group classes in both
    presentations: λ₁ the circle suspension σ²t₁ one degree down (as a
    cocycle representative), λ₂ likewise (σ²t₁)^p, and μ the class σ²v₂.
    That last check, |μ| = 2p², is the only one of μ's degree.

    η − t rewrites (t₁ ↦ t·σ²t₁) to exactly t^{p+1}·σ²t₁, so every term has
    t-degree ≥ p+1 and the truncated tail sits at ≥ p+2.  Raising to the
    p²-th power is exponentwise mod p, so η_R(t^{p²}) − t^{p²} has t-degree
    ≥ (p+1)p² = p³ + p² and t^{p²} is a permanent cycle.  Over F_p the p-th
    power is Frobenius, so η^p mod t^{p(p+2)} depends only on η mod t^{p+2}:
    η^p − t^p, taken at t^{p²+2p}, rewrites to exactly t^{p²+p}·(σ²t₁)^p, and
    the p-th-power check passes exactly when the d_p check does.  Both are
    kept, since every internal check stays a hard error (ROADMAP.md).

    η is computed with v₁ killed before the series arithmetic (see
    ``fgl``), so the last check recomputes the right unit without the
    quotient, over Z₍ₚ₎[v₁, v₂, …], to the same t^{p+2}.  ``right_unit_t``
    asserts that full series p-integral, and its quotient mod (p, v₁) must
    equal η.  A fault that only the full series sees is caught as far as
    that window reaches: l₁ scaled by 1/p shows at p = 2 as −v₁/2·t₁t³,
    while at p ≥ 3 the window holds no term that it makes non-p-integral.
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
    eta = right_unit_t(p, p + 2, ideal=("p", "v1"))
    cat, ring = eta.catalog, eta.ring
    dev = _rewrite_through_suspension(eta - Poly.gen(cat, ring, "t", eta.trunc))
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
    wide = p * p + 2 * p
    tp = Poly.from_terms(cat, ring, [(cat.mono({"t": p}), 1)], wide)
    devp = _rewrite_through_suspension(eta.with_trunc(wide) ** p - tp)
    if dict(devp.terms) != {cat.mono({"t": p * p + p, "sigma2t1": p}): 1}:
        raise VerificationError(
            "p-th power of the right unit is not t^p + t^(p^2+p)*sigma2t1^p; "
            "formal-group sign convention mismatch")
    # the check series, beside the one right unit η that the report reads
    full = fgl.right_unit_t(p, p + 2)
    if reduce_ideal(full, p, ("p", "v1")) != eta:
        raise VerificationError(
            "right unit mod (p, v1) differs when v1 is killed before the "
            "series arithmetic and after it")
    return {
        "p": p,
        "min_rewritten_degree": degrees[0] if degrees else None,
        "min_frobenius_degree": fdeg[0] if fdeg else None,
        "bound": bound,
    }


PRESENTATIONS = {"tp": tp_presentation, "tcminus": tcminus_presentation}


def derive_differentials(p: int, structure: str = "tp") -> DifferentialSpec:
    """t-Bockstein differentials from the formal-group right unit.

    d_p(t) = t^{p+1}·λ₁ comes from η_R(t) − t ≡ t^{p+1}·σ²t₁ and the
    identification λ₁ ↔ σ²t₁; d_{p²}(t^p) = t^{p²+p}·λ₂ from the p-th power
    and λ₂ ↔ (σ²t₁)^p.  t^{p²}, λ₁, λ₂ and μ are permanent cycles.  Both
    structures read these facts off one right unit per prime, certified once
    and cached by ``_formal_group_certificate``; a mismatch there is a hard
    error, meaning the sign conventions upstream are misconfigured.  So is a
    preset that `DifferentialSpec` refuses.
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
    try:
        return DifferentialSpec(pres, entries)
    except ValueError as e:
        raise VerificationError(f"the {structure} preset at p = {p} is refused: {e}") from None


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


def _certify(page: SSPage, final: SSPage, p: int, structure: str) -> None:
    """Exact two-sided comparison with the closed form on every unflagged
    bidegree: survivors there must be named by closed-form monomials and
    every closed-form monomial must survive.  The closed form is read off
    E₁, ``page``, as the stable page ``final`` has no record of a bidegree
    whose classes all died."""
    pres = page.pres
    member = _CLOSED_FORMS[structure]
    alive: dict[tuple[int, int], set] = {}
    for b, mono, _vec in final.class_reps(include_flagged=True):
        alive.setdefault(b, set()).add(mono)
    for b in sorted(page.data):
        if b in final.flags:
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
    _certify(page, final, p, structure)
    # the requested degree range must be fully boundary-safe, so that the
    # bases read off this page over it are certified
    for b in final.flags:
        if deg_lo <= b[0] <= deg_hi:
            raise VerificationError(
                f"{structure} run window leaves bidegree {b} "
                f"boundary-uncertain inside the requested degree range")
    return final


def tp_einfty(p: int, deg_window: tuple[int, int]) -> SSPage:
    """Run the periodic-structure t-Bockstein sequence to its stable page and
    certify E∞ = F_p[t^{±p²}] ⊗ Λ(λ₁, λ₂) on the safe part of the window
    around the degrees ``deg_window``."""
    return _einfty(p, "tp", *deg_window)


def tcminus_einfty(p: int, deg_window: tuple[int, int]) -> SSPage:
    """Like ``tp_einfty`` for the negative cyclic structure, including the
    truncated leftover families t^d·λ^ε with 0 < d < p."""
    return _einfty(p, "tcminus", *deg_window)


# ---------------------------------------------------------------------------
# E-infinity bases over the table's degrees

class BasisClass:
    """A named E∞ basis class.  ``weight`` is the Adams weight ε₁+ε₂ (t and μ
    do not contribute), which both comparison maps preserve.  Classes sort
    by the tuple of their fields, degree first."""

    __slots__ = ("degree", "weight", "name", "t_exp", "mu_exp", "eps1",
                 "eps2")

    def __init__(self, degree: int, weight: int, name: str, t_exp: int,
                 mu_exp: int, eps1: int, eps2: int) -> None:
        self.degree, self.weight, self.name = degree, weight, name
        self.t_exp, self.mu_exp = t_exp, mu_exp
        self.eps1, self.eps2 = eps1, eps2

    def _fields(self) -> tuple:
        return (self.degree, self.weight, self.name, self.t_exp,
                self.mu_exp, self.eps1, self.eps2)

    def __lt__(self, other):
        if type(other) is not BasisClass:
            return NotImplemented
        return self._fields() < other._fields()


def _einfty_basis(p: int, structure: str) -> list[BasisClass]:
    """The certified E∞ classes of ``structure`` whose degree lies in
    ``default_table_window(p)``, sorted by degree, weight and name.  At
    p = 2 the TP classes are t^{4k}·λ^ε with |t^4| = −8, |λ₁| = 3 and
    |λ₂| = 7, and the degrees are [−2, 14]:

    >>> [c.name for c in _einfty_basis(2, "tp")]  # doctest: +NORMALIZE_WHITESPACE
    ['t^4*lambda2', '1', 't^4*lambda1*lambda2', 'lambda1', 'lambda2', 't^-4',
     'lambda1*lambda2', 't^-4*lambda1']
    """
    dlo, dhi = default_table_window(p)
    page = _einfty(p, structure, dlo, dhi)
    cat = page.pres.catalog
    ix = cat.index
    out = []
    for _b, m, _vec in page.class_reps(include_flagged=False):
        eps1, eps2 = m[ix["lambda1"]], m[ix["lambda2"]]
        c = BasisClass(cat.degree(m), eps1 + eps2, cat.mono_str(m),
                       m[ix["t"]], m[ix["mu"]] if "mu" in ix else 0,
                       eps1, eps2)
        if dlo <= c.degree <= dhi:
            out.append(c)
    return sorted(out)


# ---------------------------------------------------------------------------
# the comparison maps

def comparison_maps(p: int):
    """(source, target, can, phi): the certified TC⁻ and TP bases over the
    degrees of ``default_table_window(p)``, each read once, and the
    comparison maps between them, each {source name: {target name: unit}}
    with no column where it is zero.

    can sends λ₁^{ε₁}λ₂^{ε₂}·t^{kp²} with k ≥ 0 to the class of the same
    name.  φ sends λ₁^{ε₁}λ₂^{ε₂}·μ^k to λ₁^{ε₁}λ₂^{ε₂}·t^{−kp²} with unit
    1.  At k = 0 the structure fixes it, as φ is unital on the
    λ-subalgebra.  For k ≥ 1 it is a choice that moves no generator: can
    is zero on μ^k, so a unit there scales the whole column of φ − can,
    which leaves its kernel and cokernel classes where they are.  The
    images are checked where φ − can is assembled, in ``_fiber_parts``.
    """
    source = _einfty_basis(p, "tcminus")
    target = _einfty_basis(p, "tp")
    tp = tp_presentation(p).catalog
    can, phi = {}, {}
    for c in source:
        if c.mu_exp == 0 and c.t_exp >= 0 and c.t_exp % (p * p) == 0:
            can[c.name] = {c.name: 1}
        if c.t_exp == 0:
            image = tp.mono({"t": -c.mu_exp * p * p, "lambda1": c.eps1,
                             "lambda2": c.eps2})
            phi[c.name] = {tp.mono_str(image): 1}
    return source, target, can, phi


# ---------------------------------------------------------------------------
# the generator table

# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2015; the bases up to 37 only reach 3.18e23)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, in time polynomial in the digits of n.
    A composite n with a factor up to 41 is answered at any size; any
    other n from _MR_BOUND on raises ValueError."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(the test is exact below {_MR_BOUND})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_error(n: int) -> Optional[str]:
    """Why n is refused as a prime, or None if it is prime."""
    try:
        return None if _is_prime(n) else f"{n} is not prime"
    except ValueError as e:
        return str(e)


def _v2_bidegree(p: int) -> tuple[int, int]:
    """(degree, weight) of v₂, the step of every v₂-tower."""
    return (2 * p * p - 2, p * p - 1)


def default_table_window(p: int) -> tuple[int, int]:
    """The degrees [−2, 2p²+2p+2]: every base generator plus one v₂-tower
    step.  No weight bound is needed, as every E∞ class has Adams weight
    ε₁ + ε₂ ∈ {0, 1, 2}."""
    return (-2, 2 * p * p + 2 * p + 2)


# the typed fields of a table entry in JSON; GeneratorTable checks the
# origin by its value
_ENTRY_FIELDS = (("name", str, "a string"), ("degree", int, "an int"),
                 ("weight", int, "an int"))


class TableEntry:
    __slots__ = ("name", "degree", "weight", "origin")

    def __init__(self, name: str, degree: int, weight: int,
                 origin: str) -> None:
        self.name, self.degree, self.weight = name, degree, weight
        self.origin = origin  # "kernel" | "cokernel"

    def sort_key(self):
        return (self.weight, -self.degree, self.origin == "cokernel",
                self.name)


class GeneratorTable:
    """The mod (p, v1, v2) generator table: a finite F_p-basis of the
    degreewise fiber of (φ − can), free over F_p[v₂]."""

    __slots__ = ("p", "entries", "notes")

    def __init__(self, p: int, entries: list[TableEntry],
                 notes: Optional[list[str]] = None) -> None:
        self.p = p
        self.entries = sorted(entries, key=TableEntry.sort_key)
        self.notes = [] if notes is None else notes
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
                "frobenius_unit": "one",
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
        if type(p) is not int:  # 2.0 would pass every check below
            raise VerificationError(f"prime {p!r} is not an int")
        if (why := _prime_error(p)) is not None:
            raise VerificationError(why)
        if (unit := data["convention"]["frobenius_unit"]) != "one":
            raise VerificationError(f"frobenius_unit {unit!r} is not 'one'")
        if data.get("module") != "free_over_v2":
            raise VerificationError("unknown module statement in table JSON")
        if list(data.get("v2_bidegree", [])) != list(_v2_bidegree(p)):
            raise VerificationError("v2 bidegree does not match the prime")
        # every table the pipeline writes lies in these bounds; a degree
        # far outside them would make the chart draw that many grid lines
        bounds = {"degree": default_table_window(p), "weight": (0, 3)}
        entries = []
        for i, g in enumerate(data["generators"]):
            # type(...) is int: a JSON true is a bool, not a degree
            for field, kind, what in _ENTRY_FIELDS:
                if type(g[field]) is not kind:
                    raise VerificationError(
                        f"generator {i} ({g['name']!r}): {field} "
                        f"{g[field]!r} is not {what}")
            for field, (lo, hi) in bounds.items():
                if not lo <= g[field] <= hi:
                    raise VerificationError(
                        f"generator {i} ({g['name']!r}): {field} "
                        f"{g[field]} is outside {lo}..{hi}")
            entries.append(TableEntry(g["name"], g["degree"], g["weight"],
                                      g["origin"]))
        return cls(p, entries, list(data.get("notes", [])))

    def to_csv(self) -> str:
        lines = ["name,degree,weight,origin"]
        for e in self.entries:
            lines.append(f"{e.name},{e.degree},{e.weight},{e.origin}")
        return "\n".join(lines) + "\n"


def _fiber_parts(p: int, source: list[BasisClass], target: list[BasisClass],
                 phi: dict, can: dict):
    """Degreewise kernel and cokernel of (φ − can) from ``source`` to
    ``target``, by one elimination.

    Every hard error on the maps is raised here, as the matrix is assembled:
    an image class that is missing or of another bidegree, a unit that is 0
    mod p, and a target class hit twice by one map.

    `kernel_basis` gives one special solution per column that depends on
    the columns before it, with its leading 1 at that column: its source
    class names a kernel class.  The target classes at no pivot of the span
    it leaves are the cokernel.  Both are canonical for the fixed basis
    enumeration.
    """
    blocks: dict[int, tuple[list, list]] = {}
    for c in source:
        blocks.setdefault(c.degree, ([], []))[0].append(c)
    named, row = {}, {}  # target class and its index in its degree's block
    for c in target:
        tgt = blocks.setdefault(c.degree, ([], []))[1]
        named[c.name], row[c.name] = c, len(tgt)
        tgt.append(c)
    cols = {c.name: {} for c in source}  # φ − can, over those indices
    for name, columns, sign in (("phi", phi, 1), ("can", can, -1)):
        hit = set()
        for s in source:
            for tname, unit in columns.get(s.name, {}).items():
                t = named.get(tname)
                fault = ("has no image class" if t is None
                         else "does not preserve bidegree"
                         if (t.degree, t.weight) != (s.degree, s.weight)
                         else "stores a zero entry" if unit % p == 0
                         else "is not injective" if tname in hit else None)
                if fault:
                    raise VerificationError(
                        f"{name} {fault} on {s.name} -> {tname}")
                hit.add(tname)
                cols[s.name] = vec_addmul(p, cols[s.name],
                                          {row[tname]: unit}, sign)
    kernel: list[BasisClass] = []
    cokernel: list[BasisClass] = []
    dims: dict[int, tuple[int, int]] = {}
    for degree in sorted(blocks):
        src, tgt = blocks[degree]
        span = Span(p)
        ker = [src[max(k)] for k in kernel_basis(
            p, [cols[c.name] for c in src], span)]
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


def syntomic_table(p: int) -> GeneratorTable:
    """The mod (p, v1, v2) syntomic generator table for the Adams summand.

    Kernel classes of (φ − can) in degree n contribute generators (n, ε₁+ε₂);
    cokernel classes in degree n+1 contribute ∂-prefixed generators of degree
    n and weight ε₁+ε₂+1.  The result is free over F_p[v₂] on 4p+4
    generators, all of them inside ``default_table_window(p)``; any other
    count is a hard error.  It is the one table of p: φ's units on μ^k,
    fixed at 1 by ``comparison_maps``, move no generator.
    """
    source, target, can, phi = comparison_maps(p)
    kernel, cokernel, dims = _fiber_parts(p, source, target, can=can, phi=phi)

    entries = [TableEntry(c.name, c.degree, c.weight, "kernel")
               for c in kernel]
    for c in cokernel:
        name = "del" if c.name == "1" else "del*" + c.name
        entries.append(TableEntry(name, c.degree - 1, c.weight + 1,
                                  "cokernel"))
    table = GeneratorTable(p, entries, _table_notes(p))
    expected = 4 * p + 4
    if len(entries) != expected:
        raise VerificationError(
            f"the fiber yields {len(entries)} generators, expected "
            f"{expected}")
    _verify_table(p, table, dims)
    return table


def _verify_table(p, table, dims) -> None:
    """Bookkeeping invariants tying the table back to the fiber."""
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
    # the four del-classes and their degrees
    got = sorted(e.degree for e in table.entries if e.origin == "cokernel")
    want = sorted((-1, 2 * p - 2, 2 * p * p - 2, 2 * p * p + 2 * p - 3))
    if got != want:
        raise VerificationError(
            f"del-classes sit at degrees {got}, expected {want}")


# ---------------------------------------------------------------------------
# consistency checkers

class HodgeTateReport:
    __slots__ = ("p", "leading_unit", "leading_term", "ok")

    def __init__(self, p: int, leading_unit: int, leading_term: str,
                 ok: bool) -> None:
        self.p, self.leading_unit = p, leading_unit
        self.leading_term, self.ok = leading_term, ok


def hodge_tate_check(p: int) -> HodgeTateReport:
    """The p-series fact feeding the periodic-structure identification: mod
    (p, v₁) the p-series reads (unit)·v₂·t^{p²} + O(t^{p²+1}), so v₂ is a
    unit multiple of t^{−p²}·[p](t).  A failure is a hard error.

    The degree this gives μ, |μ| = −p²·|t| = 2p² = |σ²v₂|, is checked once,
    as "mu vs sigma2v2" in ``_formal_group_certificate``.
    """
    ps = p_series(p, p * p + 1, ideal=("p", "v1"))
    lead = ps.catalog.mono({"v2": 1, "t": p * p})
    if ps.terms.keys() != {lead}:
        raise VerificationError(
            "p-series mod (p, v1) does not start with a unit times "
            "v2*t^(p^2)")
    unit = ps.terms[lead]  # over F_p, so a unit
    leading = f"v2*t^{p * p}" if unit == 1 else f"{unit}*v2*t^{p * p}"
    return HodgeTateReport(p, unit, leading, True)


def _chart_entries(table: GeneratorTable) -> list[ChartEntry]:
    return [ChartEntry(e.name, e.degree, e.weight) for e in table.entries]


def motivic_collapse_check(p: int, table: GeneratorTable) -> CollapseReport:
    """No differentials on the four-line chart of the motivic sequence.

    Entries are the table generators, and the chart's one period 2p²−2
    extends each to its v₂-tower (constant line).  A d_r moves (−1, +r);
    the first page carrying one is r = 2, so r starts there.  Lines 0 and 2
    sit in even degrees and lines 1 and 3 in odd degrees, so parity rules
    out every even r, and r = 3 fails the residue test mod 2p²−2; the
    checker verifies this exhaustively and reports any witness pair.
    """
    report = collapse_check(_chart_entries(table), ADAMS_RULE, r_min=2,
                            period=_v2_bidegree(p)[0])
    report.notes.append(
        "lines 0 and 2 are even-degree, lines 1 and 3 odd-degree: parity "
        "excludes even r; r = 3 needs a degree match mod 2p^2-2 that the "
        "chart does not contain")
    return report


def v2_bockstein_check(p: int, table: GeneratorTable) -> CollapseReport:
    """No differentials in the v₂-Bockstein sequence over the table chart.

    A d_r moves (degree, weight) by (r(2p²−2) − 1, r(p²−1)).  Chart weights
    span 0..3, so p ≥ 3 rules out every r ≥ 1 outright; at p = 2 only r = 1
    is possible and fails on degrees.
    """
    n, a = _v2_bidegree(p)
    rule = BidegreeRule(deg_per_r=n, weight_per_r=a)
    report = collapse_check(_chart_entries(table), rule, r_min=1)
    report.notes.append(
        f"a d_r raises weight by r*{a}; chart weights span 0..3")
    return report
