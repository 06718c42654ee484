"""Checks of each operation's output against answers computed here.

Nothing in this file imports synto.  Each check takes the operation (from
workloads.py) and the output its process reported (op.py), and returns a
list of problems; an empty list means the output is right.

- table:  the (degree, weight, origin) multiset of the generator table is
  the closed-form list of 4p + 4 classes (Ausoni-Rognes), the CSV agrees
  with the JSON, and the Hodge-Tate, v2-Bockstein and (p >= 3) motivic
  checks passed.
- preset: E_1 has as many classes as the window holds, every boundary-safe
  survivor is in the closed-form E-infinity, and every closed-form class in
  the degrees the preset window is built to certify is a survivor.
- derham: E_1 has as many classes as the window holds, every survivor is a
  Cartier class x^a dx^e (a_i = 0 mod p where e_i = 0, a_i = p-1 mod p
  where e_i = 1) below the top degree, and every Cartier class on a
  diagonal wholly inside the window is a survivor.
- fgl:    coefficients are p-integral, and the benchmark's own Hazewinkel
  logarithm gives log([p](t)) = p log t, resp. log(eta_R(t)) = log t +
  sum_i log(t_i t^{p^i}), through the full truncation.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb

from workloads import preset_window

# ---------------------------------------------------------------------------
# generator table


def table_closed_form(p: int) -> list[tuple[int, int, str]]:
    """(degree, weight, origin) of the 4p + 4 generators of the mod (p, v1)
    syntomic cohomology of l over F_p[v2]."""
    out = [(0, 0, "kernel"), (2 * p - 1, 1, "kernel"),
           (2 * p * p - 1, 1, "kernel"), (2 * p * p + 2 * p - 2, 2, "kernel")]
    for d in range(1, p):
        out += [(2 * p - 1 - 2 * d, 1, "kernel"),
                (2 * p * p - 1 - 2 * p * d, 1, "kernel"),
                (2 * p * p + 2 * p - 2 - 2 * d, 2, "kernel"),
                (2 * p * p + 2 * p - 2 - 2 * p * d, 2, "kernel")]
    out += [(-1, 1, "cokernel"), (2 * p - 2, 2, "cokernel"),
            (2 * p * p - 2, 2, "cokernel"),
            (2 * p * p + 2 * p - 3, 3, "cokernel")]
    return sorted(out)


def check_table(op: dict, out: dict) -> list[str]:
    p = op["p"]
    problems = []
    gens = json.loads(out["json"])["generators"]
    got = sorted((g["degree"], g["weight"], g["origin"]) for g in gens)
    want = table_closed_form(p)
    if got != want:
        missing = sorted((Counter(want) - Counter(got)).elements())
        extra = sorted((Counter(got) - Counter(want)).elements())
        problems.append(f"generators differ from the closed form: "
                        f"missing {missing}, extra {extra}")
    csv_rows = out["csv"].splitlines()[1:]
    json_rows = [f"{g['name']},{g['degree']},{g['weight']},{g['origin']}"
                 for g in gens]
    if csv_rows != json_rows:
        problems.append("CSV rows differ from the JSON generators")
    if not (out["svg_chars"] and out["txt_chars"]):
        problems.append("empty chart output")
    if not out["hodge_tate"]:
        problems.append("Hodge-Tate check failed")
    if not out["v2_bockstein"]:
        problems.append("v2-Bockstein sequence does not collapse")
    if p >= 3 and not out["motivic"]:
        problems.append("motivic sequence does not collapse")
    return problems


# ---------------------------------------------------------------------------
# `synto ss` output


def parse_ss(stdout: str) -> tuple[int, list[str]]:
    """(E_1 class count, boundary-safe survivor names) from `synto ss`."""
    lines = stdout.splitlines()
    e1 = int(lines[0].split("E1: ")[1].split()[0])
    at = next(i for i, line in enumerate(lines)
              if line.startswith("survivors (boundary-safe): "))
    n = int(lines[at].rsplit(" ", 1)[1])
    names = [line.strip() for line in lines[at + 1:at + 1 + n]]
    if len(names) != n or any(not line.startswith("  ") for line in
                              lines[at + 1:at + 1 + n]):
        raise ValueError("survivor list is shorter than its count")
    return e1, names


def parse_monomial(name: str) -> dict[str, int]:
    """'t^-4*lambda1' -> {'t': -4, 'lambda1': 1}; '1' -> {}."""
    if name == "1":
        return {}
    exps = {}
    for part in name.split("*"):
        base, _, e = part.partition("^")
        exps[base] = int(e) if e else 1
    return exps


def _key(exps: dict[str, int]) -> tuple:
    return tuple(sorted((k, v) for k, v in exps.items() if v))


def preset_monomials(p: int, structure: str, window) -> list[dict[str, int]]:
    """Every E_1 monomial t^a mu^j l1^e1 l2^e2 of the preset in the window;
    its weight is a, and TC^- has a, j >= 0 with a*j = 0."""
    dlo, dhi, wlo, whi = window
    out = []
    for a in range(wlo, whi + 1):
        mus = [0]
        if structure == "tcminus" and a == 0:
            mus = range(dhi // (2 * p * p) + 2)
        for j in mus:
            for e1, e2 in itertools.product((0, 1), repeat=2):
                m = {"t": a, "mu": j, "lambda1": e1, "lambda2": e2}
                if dlo <= _preset_degree(p, m) <= dhi:
                    out.append(m)
    return out


def _preset_degree(p: int, m: dict[str, int]) -> int:
    return (-2 * m.get("t", 0) + 2 * p * p * m.get("mu", 0)
            + (2 * p - 1) * m.get("lambda1", 0)
            + (2 * p * p - 1) * m.get("lambda2", 0))


def preset_closed_form(p: int, structure: str, m: dict[str, int]) -> bool:
    """E-infinity: F_p[t^{+-p^2}] (x) L(l1, l2) for TP; for TC^-,
    F_p[t^{p^2}, mu]/(t^{p^2} mu) (x) L(l1, l2) plus t^d l1, t^{pd} l2,
    t^d l1 l2 and t^{pd} l1 l2 with 0 < d < p."""
    a, e1, e2 = m.get("t", 0), m.get("lambda1", 0), m.get("lambda2", 0)
    if a % (p * p) == 0:
        return True
    if structure == "tp":
        return False
    t_d = 0 < a < p
    t_pd = a % p == 0 and 0 < a // p < p
    if e1 and e2:
        return t_d or t_pd
    if e1:
        return t_d
    if e2:
        return t_pd
    return False


def check_preset(op: dict, out: dict) -> list[str]:
    p, structure = op["p"], op["structure"]
    window = preset_window(p, structure)
    e1, names = parse_ss(out["stdout"])
    monos = preset_monomials(p, structure, window)
    problems = []
    if e1 != len(monos):
        problems.append(f"E1 has {e1} classes, the window holds {len(monos)}")
    got = {_key(parse_monomial(n)) for n in names}
    if len(got) != len(names):
        problems.append("a survivor is listed twice")
    closed = [m for m in monos if preset_closed_form(p, structure, m)]
    # the preset window is built to certify the degrees [-2, 2p^2+2p+2]
    safe = {_key(m) for m in closed
            if window[0] + 4 <= _preset_degree(p, m) <= window[1] - 4}
    outside = got - {_key(m) for m in closed}
    if outside:
        problems.append(f"survivors outside the closed form: "
                        f"{sorted(outside)[:5]}")
    if safe - got:
        problems.append(f"closed-form classes missing: {sorted(safe - got)[:5]}")
    return problems


def derham_e1_count(k: int, top: int) -> int:
    """Monomials x^a dx^e with 2|a| + |e| <= top."""
    return sum(comb(k, j) * comb((top - j) // 2 + k, k)
               for j in range(min(k, top) + 1))


def cartier_classes(p: int, k: int, total: int) -> set[tuple]:
    """Cartier classes x^a dx^e with |a| + |e| <= total, as (a, e)."""
    out = set()
    for e in itertools.product((0, 1), repeat=k):
        base = [(p - 1) * ei for ei in e]
        budget = total - sum(base) - sum(e)
        if budget < 0:
            continue
        for q in _compositions_upto(k, budget // p):
            out.add((tuple(b + p * qi for b, qi in zip(base, q)), e))
    return out


def _compositions_upto(k: int, n: int):
    if k == 0:
        yield ()
        return
    for first in range(n + 1):
        for rest in _compositions_upto(k - 1, n - first):
            yield (first,) + rest


def derham_exponents(name: str, k: int) -> tuple[tuple, tuple]:
    """'x1^2*dx3' -> (a, e) = ((2, 0, 0), (0, 0, 1)) for k = 3."""
    exps = parse_monomial(name)
    xs = [f"x{i}" for i in range(1, k + 1)]
    dxs = [f"dx{i}" for i in range(1, k + 1)]
    if not set(exps) <= set(xs) | set(dxs):
        raise ValueError(f"unknown generator in {name!r}")
    return (tuple(exps.get(x, 0) for x in xs),
            tuple(exps.get(dx, 0) for dx in dxs))


def is_cartier(p: int, a: tuple, e: tuple) -> bool:
    return all(ai % p == (p - 1 if ei else 0) for ai, ei in zip(a, e))


def check_derham(op: dict, out: dict) -> list[str]:
    p, k, top = op["p"], op["k"], op["top"]
    e1, names = parse_ss(out["stdout"])
    problems = []
    if e1 != derham_e1_count(k, top):
        problems.append(f"E1 has {e1} classes, the window holds "
                        f"{derham_e1_count(k, top)}")
    got = {derham_exponents(n, k) for n in names}
    if len(got) != len(names):
        problems.append("a survivor is listed twice")
    bad = [(a, e) for a, e in got
           if not is_cartier(p, a, e) or 2 * sum(a) + sum(e) >= top]
    if bad:
        problems.append(f"non-Cartier or uncertifiable survivors: {bad[:5]}")
    # d preserves m = |a| + |e|; the diagonal m lies wholly in the window,
    # away from its top degree, when 2m < top.
    safe = cartier_classes(p, k, (top - 1) // 2)
    if safe - got:
        problems.append(f"Cartier classes missing: {sorted(safe - got)[:5]}")
    return problems


# ---------------------------------------------------------------------------
# formal-group series


def parse_series(text: str) -> dict[tuple, Fraction]:
    """`synto fgl --format json` -> {(t-exponent, other monomial): coeff},
    the other monomial a sorted tuple of (generator, exponent)."""
    doc = json.loads(text)
    series: dict[tuple, Fraction] = {}
    for term in doc["terms"]:
        exps: dict[str, int] = {}
        coeff = Fraction(1)
        for i, part in enumerate(term["coefficient"].split("*")):
            if i == 0 and part[0] in "-0123456789":
                coeff = Fraction(part)
                continue
            base, _, e = part.partition("^")
            exps[base] = exps.get(base, 0) + (int(e) if e else 1)
        key = (term["t_exponent"], _key(exps))
        series[key] = series.get(key, 0) + coeff
    return {m: c for m, c in series.items() if c}


class Series:
    """A power series in t over Q[v_i, t_i], exact below t^bound:
    {(t-exponent, other monomial): Fraction}."""

    def __init__(self, terms: dict[tuple, Fraction], bound: int):
        self.bound = bound
        self.terms = {m: c for m, c in terms.items() if c and m[0] < bound}

    def __add__(self, other: "Series") -> "Series":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Series(out, min(self.bound, other.bound))

    def __mul__(self, other: "Series") -> "Series":
        bound = min(self.bound, other.bound)
        right = sorted(other.terms.items())
        out: dict[tuple, Fraction] = {}
        for (t1, m1), c1 in self.terms.items():
            for (t2, m2), c2 in right:
                if t1 + t2 >= bound:
                    break
                m = (t1 + t2, _mono_mul(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Series(out, bound)

    def scale(self, c) -> "Series":
        return Series({m: c * x for m, x in self.terms.items()}, self.bound)

    def power(self, n: int) -> "Series":
        out = Series({(0, ()): Fraction(1)}, self.bound)
        for _ in range(n):
            out = out * self
        return out


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    exps = dict(a)
    for k, v in b:
        exps[k] = exps.get(k, 0) + v
    return tuple(sorted(exps.items()))


def hazewinkel_log_coefficients(p: int, depth: int, bound: int) -> list[Series]:
    """l_0 = 1 and p l_n = sum_{i<n} l_i v_{n-i}^{p^i} (Ravenel, A2.2.1)."""
    ls = [Series({(0, ()): Fraction(1)}, bound)]
    for n in range(1, depth + 1):
        s = Series({}, bound)
        for i in range(n):
            v = Series({(0, ((f"v{n - i}", p ** i),)): Fraction(1)}, bound)
            s = s + ls[i] * v
        ls.append(s.scale(Fraction(1, p)))
    return ls


def series_log(x: Series, p: int) -> Series:
    """log(x) = sum_n l_n x^{p^n}, for x without constant term."""
    depth = 0
    while p ** (depth + 1) < x.bound:
        depth += 1
    out = Series({}, x.bound)
    power = x
    for n, ln in enumerate(hazewinkel_log_coefficients(p, depth, x.bound)):
        if n:
            power = power.power(p)
        out = out + ln * power
    return out


def check_fgl(op: dict, out: dict) -> list[str]:
    p, trunc = op["p"], op["trunc"]
    terms = parse_series(out["stdout"])
    problems = [f"coefficient {c} of {m} is not p-integral"
                for m, c in terms.items() if c.denominator % p == 0]
    series = Series(terms, trunc)
    t = Series({(1, ()): Fraction(1)}, trunc)
    if op["series"] == "p-series":
        want = series_log(t, p).scale(p)
    else:
        want = series_log(t, p)
        i = 1
        while p ** i < trunc:
            s = Series({(p ** i, ((f"t{i}", 1),)): Fraction(1)}, trunc)
            want = want + series_log(s, p)
            i += 1
    got = series_log(series, p)
    diff = (got + want.scale(-1)).terms
    if diff:
        m = min(diff)
        problems.append(f"log identity fails at t^{m[0]}*{m[1]}: "
                        f"off by {diff[m]}")
    return problems


CHECKS = {"table": check_table, "preset": check_preset,
          "derham": check_derham, "fgl": check_fgl}


def check(op: dict, out: dict) -> list[str]:
    """Problems with `out`, the output of operation `op`."""
    if out.get("status", 0) != 0:
        return [f"synto {op['kind']} exited {out['status']}"]
    name = op["check"] if op["kind"] == "ss" else op["kind"]
    try:
        return CHECKS[name](op, out)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as e:
        return [f"unreadable output: {e!r}"]
