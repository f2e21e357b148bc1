"""Checks computed apart from the program.

Nothing here imports ``thetaforms``.  The benchmark parent runs these
checks on the outputs its worker passes return, outside every timed region:

* direct lattice counts of representation numbers for seeded (form, M)
  pairs taken from the ternary entries of the registry text;
* direct counts of seeded coefficients of every scanned positivity product;
* automorphism orders, found by a search written here, for seeded cells of
  the S-genus, and the genus cells and masses printed in the paper;
* perturbed copies of registry entries, each with one integer altered so
  that the identity becomes false, which the program must report failing.
"""

from __future__ import annotations

import random
import re
from math import isqrt

# the workloads' inputs: S values of the S-genus, and the positivity scans
SHIFTS = (3, 5, 7, 11, 13, 15, 21, 33, 35)
SCAN_LIMIT = 40000
SCAN_SHIFTS = (3, 5, 7, 15)

# ---------------------------------------------------------------------------
# registry text
# ---------------------------------------------------------------------------


def registry_entries(text: str) -> list[tuple[str, str, str]]:
    """(name, mode, full entry text) for each entry, continuation lines joined."""
    entries: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] in " \t":
            entries[-1].append(line.strip())
        else:
            entries.append([line.strip()])
    out = []
    for parts in entries:
        whole = " ".join(parts)
        name, mode, _ = (p.strip() for p in whole.split(":", 2))
        out.append((name, mode, whole))
    return out


_FORM_RE = re.compile(r"(?<![\w])\((\d+(?:,-?\d+){5})\)\(M")


def ternary_forms(text: str) -> list[tuple[int, ...]]:
    """Sorted distinct sextuples counted by ``(a,b,c,d,e,f)(M...)`` atoms."""
    forms = set()
    for _, mode, whole in registry_entries(text):
        if mode == "ternary":
            for match in _FORM_RE.finditer(whole):
                forms.add(tuple(int(v) for v in match.group(1).split(",")))
    return sorted(forms)


def _split_statement(whole: str) -> tuple[int, int]:
    """Character span of the statement (after 'name: mode:', before 'where')."""
    start = whole.index(":", whole.index(":") + 1) + 1
    where = re.search(r"\bwhere\b", whole[start:])
    end = start + where.start() if where else len(whole)
    return start, end


def perturbation_sites(whole: str) -> list[tuple[int, int]]:
    """Spans of integers whose increment by one makes the entry false.

    A site is an integer at bracket depth 0 of a side that is either the
    coefficient of a summand (followed by ``*``) or a bare constant summand.
    Raising it by one adds one copy of that summand to its side.  Summands
    that contain a sift ``S[t,s]`` are skipped, because a sift of a nonzero
    series can vanish; every other summand is a nonzero product of theta
    series, q-powers, eta quotients, representation counts or rational
    functions, so the altered identity no longer holds.
    """
    start, end = _split_statement(whole)
    stmt = whole[start:end]
    # depth of every character and the summands at depth 0
    depth = 0
    depths = []
    for ch in stmt:
        if ch in "([{":
            depth += 1
        depths.append(depth)
        if ch in ")]}":
            depth -= 1
    sites = []
    for match in re.finditer(r"\d+", stmt):
        i, j = match.span()
        if depths[i] != 0:
            continue
        before = stmt[i - 1] if i else " "
        after = stmt[j] if j < len(stmt) else " "
        if before.isalnum() or before in "^/._":
            continue
        if after != "*" and (after.isalnum() or after in "/^(._"):
            continue
        # the summand this literal belongs to, at depth 0
        lo = i
        while lo > 0 and not (depths[lo - 1] == 0 and stmt[lo - 1] in "+-="):
            lo -= 1
        hi = j
        while hi < len(stmt) and not (depths[hi] == 0 and stmt[hi] in "+-="):
            hi += 1
        if "S[" in stmt[lo:hi]:
            continue
        sites.append((start + i, start + j))
    return sites


def perturbed_entries(text: str, seed: int, count: int) -> list[dict]:
    """Seeded copies of registry entries with one integer raised by one.

    One entry is drawn for each mode that has sites, then more at random,
    up to ``count``.  Each copy keeps its mode and gets a new name.
    """
    rng = random.Random(seed * 7919 + 17)
    by_mode: dict[str, list] = {}
    for name, mode, whole in registry_entries(text):
        for site in perturbation_sites(whole):
            by_mode.setdefault(mode, []).append((name, mode, whole, site))
    picks = [rng.choice(by_mode[mode]) for mode in sorted(by_mode)]
    pool = [c for cands in by_mode.values() for c in cands if c not in picks]
    picks += rng.sample(pool, max(0, count - len(picks)))
    out = []
    for name, mode, whole, (i, j) in picks:
        old = int(whole[i:j])
        altered = whole[:i] + str(old + 1) + whole[j:]
        new_name = f"perturbed.{name}"
        altered = new_name + altered[len(name):]
        out.append({"name": new_name, "source": name, "mode": mode,
                    "text": altered, "altered": f"{old} -> {old + 1}"})
    return out


# ---------------------------------------------------------------------------
# representation counts
# ---------------------------------------------------------------------------

def _gram(form):
    a, b, c, d, e, f = form
    return ((2 * a, f, e), (f, 2 * b, d), (e, d, 2 * c))


def _det3(g) -> int:
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def _box(form, bound: int) -> tuple[int, int, int]:
    """|v_i| limits for Q(v) <= bound: v_i^2 <= 2*bound*cof_ii(G)/det(G)."""
    g = _gram(form)
    det = _det3(g)
    cof = (g[1][1] * g[2][2] - g[1][2] ** 2,
           g[0][0] * g[2][2] - g[0][2] ** 2,
           g[0][0] * g[1][1] - g[0][1] ** 2)
    return tuple(isqrt(2 * bound * cof[i] // det) + 1 for i in range(3))


def lattice_count(form, m: int) -> int:
    """#{(x, y, z) in Z^3 : Q(x, y, z) = m}, over the box of the form.

    x and y run over their full box; z solves c z^2 + (d y + e x) z + r = 0
    with an exact integer square root.
    """
    a, b, c, d, e, f = form
    if m == 0:
        return 1
    xb, yb, _ = _box(form, m)
    total = 0
    for x in range(-xb, xb + 1):
        for y in range(-yb, yb + 1):
            lin = d * y + e * x
            rest = a * x * x + b * y * y + f * x * y - m
            disc = lin * lin - 4 * c * rest
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            for num in {-lin + root, -lin - root}:
                if num % (2 * c) == 0:
                    total += 1
    return total


def seeded_pairs(forms, seed: int, count: int, mmax: int) -> list[tuple]:
    rng = random.Random(seed * 104729 + 3)
    return [(tuple(rng.choice(forms)), rng.randrange(1, mmax + 1))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# positivity products as signed counts of quadratic shapes
# ---------------------------------------------------------------------------
# A shape is (shift, [(kind, scale), ...]); kind 'sq' is scale*y^2 over all
# integers y and 'tri' is scale*x(x+1)/2 over x >= 0, which is the exponent
# set of psi(q^scale).  A product is a list of (sign, shape).

def _shift_product(s: int, psi_scale: int = 1):
    """psi(q^k)*(phi(q)^2 - phi(q^S)^2)."""
    return [(1, (0, [("tri", psi_scale), ("sq", 1), ("sq", 1)])),
            (-1, (0, [("tri", psi_scale), ("sq", s), ("sq", s)]))]


POSITIVITY_PRODUCTS = {
    "1.13": _shift_product(7),
    "2.11": _shift_product(3),
    "2.12": _shift_product(3, psi_scale=2),
    "2.p1": [(1, (0, [("sq", 1), ("tri", 2), ("tri", 2)])),
             (-1, (1, [("sq", 1), ("tri", 6), ("tri", 6)]))],
    "3.1": _shift_product(5),
    "5.p1": _shift_product(15),
    "ctl.phi7": [(1, (0, [("sq", 1), ("sq", 1)])),
                 (-1, (0, [("sq", 7), ("sq", 7)]))],
    "ctl.psi6": [(1, (0, [("tri", 2), ("tri", 2)])),
                 (-1, (1, [("tri", 6), ("tri", 6)]))],
    "shift.3": _shift_product(3),
    "shift.5": _shift_product(5),
    "shift.7": _shift_product(7),
    "shift.15": _shift_product(15),
}

# first negative exponent of each negative control
CONTROL_WITNESSES = {"ctl.phi7": 7, "ctl.psi6": 1}


def _values(kind: str, scale: int, bound: int) -> list[int]:
    """Exponents (with multiplicity) of one factor, up to bound."""
    out = []
    if kind == "sq":
        y = 0
        while scale * y * y <= bound:
            out += [scale * y * y] * (1 if y == 0 else 2)
            y += 1
    else:
        x = 0
        while scale * x * (x + 1) // 2 <= bound:
            out.append(scale * x * (x + 1) // 2)
            x += 1
    return out


def _shape_count(shape, n: int) -> int:
    shift, factors = shape
    target = n - shift
    if target < 0:
        return 0
    *outer, (kind, scale) = factors
    last = {}
    for v in _values(kind, scale, target):
        last[v] = last.get(v, 0) + 1
    partial = {0: 1}
    for kind_o, scale_o in outer:
        vals = _values(kind_o, scale_o, target)
        nxt: dict[int, int] = {}
        for s, mult in partial.items():
            for v in vals:
                if s + v > target:
                    continue
                nxt[s + v] = nxt.get(s + v, 0) + mult
        partial = nxt
    return sum(mult * last.get(target - s, 0) for s, mult in partial.items())


def product_coefficient(name: str, n: int) -> int:
    return sum(sign * _shape_count(shape, n)
               for sign, shape in POSITIVITY_PRODUCTS[name])


def seeded_indices(names, seed: int, limit: int) -> dict[str, list[int]]:
    """Per product: one exponent below 100 and one anywhere below the limit."""
    rng = random.Random(seed * 15485863 + 11)
    return {name: [rng.randrange(0, 100), rng.randrange(0, limit)]
            for name in names}


# ---------------------------------------------------------------------------
# the S-genus
# ---------------------------------------------------------------------------


# Genus cells of the lifted union at discriminant 16 S^2 as printed in the
# paper (144, 400, 784 and 3600), with the mass 16 * sum 1/|Aut| of each.
PAPER_CELLS = {
    3: {((1, 6, 6, 0, 0, 0),): 1, ((2, 3, 6, 0, 0, 0),): 2},
    5: {((1, 10, 10, 0, 0, 0), (4, 5, 6, 0, 4, 0)): 3,
        ((2, 5, 10, 0, 0, 0),): 2},
    7: {((1, 14, 14, 0, 0, 0), (2, 7, 14, 0, 0, 0)): 3,
        ((3, 5, 14, 0, 0, 2),): 4},
    15: {((1, 30, 30, 0, 0, 0), (6, 10, 15, 0, 0, 0)): 3,
         ((3, 10, 30, 0, 0, 0),): 2,
         ((5, 6, 30, 0, 0, 0), (9, 11, 11, 2, 6, 6)): 6,
         ((2, 15, 30, 0, 0, 0), (5, 12, 18, 12, 0, 0)): 4},
}


def _vectors_of_value(form, value: int) -> list[tuple[int, int, int]]:
    a, b, c, d, e, f = form
    xb, yb, zb = _box(form, value)
    out = []
    for x in range(-xb, xb + 1):
        for y in range(-yb, yb + 1):
            for z in range(-zb, zb + 1):
                if (a * x * x + b * y * y + c * z * z
                        + d * y * z + e * z * x + f * x * y) == value:
                    out.append((x, y, z))
    return out


def automorph_order(form) -> int:
    """#{U in GL3(Z) : U^T G U = G}, by a search over vector triples."""
    g = _gram(form)

    def bil(u, v):
        return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))

    a, b, c, d, e, f = form
    col1 = _vectors_of_value(form, a)
    col2 = _vectors_of_value(form, b)
    col3 = _vectors_of_value(form, c)
    count = 0
    for u in col1:
        for v in col2:
            if bil(u, v) != f:
                continue
            for w in col3:
                if bil(u, w) != e or bil(v, w) != d:
                    continue
                det = (u[0] * (v[1] * w[2] - v[2] * w[1])
                       - v[0] * (u[1] * w[2] - u[2] * w[1])
                       + w[0] * (u[1] * v[2] - u[2] * v[1]))
                if abs(det) == 1:
                    count += 1
    return count


def seeded_sample(items: list, seed: int, count: int) -> list:
    rng = random.Random(seed * 32452843 + 5)
    return rng.sample(items, min(count, len(items)))


def discriminant(form) -> int:
    return _det3(_gram(form)) // 2


def cell_mass(cell) -> int:
    return sum(16 // automorph_order(form) for form in cell)


def prime_factors(s: int) -> list[int]:
    out, p = [], 2
    while p * p <= s:
        if s % p == 0:
            out.append(p)
            s //= p
        else:
            p += 1
    if s > 1:
        out.append(s)
    return out
