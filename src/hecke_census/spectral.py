"""Characteristic polynomial of the class-count recurrence and its roots.

The polynomial is ``p(x) = x^(r+1) - 2*(x^(r-1) + ... + x) - 1``.  The
dominant root is isolated by bisection with exact rational evaluation;
the full root set comes from a deterministic simultaneous iteration;
squarefreeness and the maximum root multiplicity come from exact
polynomial gcds over the rationals.  The sign probes at sqrt(2) are
computed in the ring Z[sqrt(2)], no floating point involved.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .words import DomainError


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, constant term first."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(
            tuple(i * c for i, c in enumerate(self.coefficients))[1:] or (0,)
        )

    def shift(self, a: int) -> "IntPoly":
        """Coefficients of p(x + a), exactly."""
        n = self.degree
        out = [0] * (n + 1)
        for i, c in enumerate(self.coefficients):
            for j in range(i + 1):
                out[j] += c * math.comb(i, j) * a ** (i - j)
        return IntPoly(tuple(out))


def build_growth_poly(r: int) -> IntPoly:
    if r < 2:
        raise DomainError("r must be >= 2")
    coeffs = [0] * (r + 2)
    coeffs[r + 1] = 1
    coeffs[0] = -1
    for j in range(1, r):
        coeffs[r - j] = -2
    return IntPoly(tuple(coeffs))


def eval_at_sqrt2(poly: IntPoly) -> tuple[int, int]:
    """Exact value at sqrt(2) as (a, b) meaning a + b*sqrt(2)."""
    a = b = 0
    for i, c in enumerate(poly.coefficients):
        if i % 2 == 0:
            a += c * 2 ** (i // 2)
        else:
            b += c * 2 ** (i // 2)
    return a, b


def sqrt2_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(2), exactly."""
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1 if (a or b) else 0
    # opposite signs: compare a^2 with 2 b^2
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else (-1 if a * a < 2 * b * b else 0)
    return -1 if a * a > 2 * b * b else (1 if a * a < 2 * b * b else 0)


def dominant_root(poly: IntPoly, tol: float = 1e-12) -> float:
    """Unique positive real root, by exact rational bisection on [1, 2]."""
    a2, b2 = eval_at_sqrt2(poly)
    if sqrt2_sign(a2, b2) >= 0 or poly(2) <= 0:
        raise DomainError("no sign change on [sqrt2, 2]")
    lo, hi = Fraction(1), Fraction(2)
    assert poly(lo) < 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = poly(mid)
        if v == 0:
            lo = hi = mid
            break
        if v < 0:
            lo = mid
        else:
            hi = mid
    # a real root of a monic integer polynomial is an integer or
    # irrational; the enclosure must therefore avoid integers
    assert math.floor(hi) < lo, "enclosure contains an integer"
    return float((lo + hi) / 2)


def all_roots(poly: IntPoly, tol: float = 1e-10, max_iter: int = 1000) -> list[complex]:
    """All complex roots by simultaneous (Durand-Kerner) iteration.

    Deterministic start: points on the circle of radius 1 + max |coeff|
    with a fixed angular offset, so root ordering is stable across runs.
    """
    deg = poly.degree
    if deg < 1:
        raise DomainError("degree must be >= 1")
    lead = poly.coefficients[-1]
    monic = [Fraction(c, lead) for c in poly.coefficients]
    radius = 1 + max(abs(float(c)) for c in monic)
    zs = [
        radius * cmath.exp(1j * (2 * math.pi * k / deg + 0.4)) for k in range(deg)
    ]
    fm = [float(c) for c in monic]

    def peval(z: complex) -> complex:
        acc = 0j
        for c in reversed(fm):
            acc = acc * z + c
        return acc

    for _ in range(max_iter):
        shift = 0.0
        new = []
        for i, z in enumerate(zs):
            denom = 1.0 + 0j
            for j, w in enumerate(zs):
                if j != i:
                    denom *= z - w
            dz = peval(z) / denom
            new.append(z - dz)
            shift = max(shift, abs(dz))
        zs = new
        if shift < 1e-15:
            break
    worst = max(abs(peval(z)) for z in zs)
    if worst > tol:
        raise ArithmeticError(
            f"root iteration residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _strip(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _rem(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    f = _strip(list(f))
    while len(f) >= len(g) and f != [Fraction(0)]:
        factor = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f = _strip(f)
    return f


def _frac_gcd(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Monic gcd of dense rational polynomials (constant first)."""
    f, g = _strip(list(f)), _strip(list(g))
    while g != [Fraction(0)]:
        f, g = g, _rem(f, g)
    if f[-1] != 0:
        f = [c / f[-1] for c in f]
    return f


def squarefree_multiplicity(poly: IntPoly) -> tuple[bool, int]:
    """(squarefree, max root multiplicity) by repeated exact gcd."""
    cur = [Fraction(c) for c in poly.coefficients]
    s = 0
    while len(cur) > 1:
        deriv = [i * c for i, c in enumerate(cur)][1:] or [Fraction(0)]
        cur = _frac_gcd(cur, deriv)
        s += 1
    return s == 1, s


def eisenstein_check(poly: IntPoly, prime: int = 2) -> dict:
    """Eisenstein criterion for p(x+1) at the given prime."""
    if prime < 2:
        raise DomainError("prime must be >= 2")
    shifted = poly.shift(1)
    coeffs = shifted.coefficients
    for i in range(len(coeffs) - 1):
        if coeffs[i] % prime != 0:
            return {
                "satisfied": False,
                "prime": prime,
                "shifted_coefficients": list(coeffs),
                "reason": f"coefficient {coeffs[i]} at degree {i} not divisible by {prime}",
            }
    if coeffs[0] % (prime * prime) == 0:
        return {
            "satisfied": False,
            "prime": prime,
            "shifted_coefficients": list(coeffs),
            "reason": f"constant term {coeffs[0]} divisible by {prime}^2",
        }
    return {"satisfied": True, "prime": prime, "shifted_coefficients": list(coeffs)}


@dataclass(frozen=True)
class GrowthReport:
    r: int
    poly: IntPoly
    rho: float
    roots: tuple[complex, ...]
    s: int
    squarefree: bool
    eisenstein: dict
    ratio_trace: tuple[tuple[int, float], ...] = ()

    def to_json(self) -> str:
        doc = {
            "r": self.r,
            "coefficients": list(self.poly.coefficients),
            "rho": repr(self.rho),
            "s": self.s,
            "squarefree": self.squarefree,
            "eisenstein": {
                "satisfied": self.eisenstein["satisfied"],
                "prime": self.eisenstein["prime"],
                "shifted_coefficients": self.eisenstein["shifted_coefficients"],
                "reason": self.eisenstein.get("reason"),
            },
            "roots": [[z.real, z.imag] for z in self.roots],
            "ratio_trace": [[i, repr(v)] for i, v in self.ratio_trace],
        }
        return json.dumps(doc, indent=2) + "\n"


def analyze_growth(r: int, tol: float = 1e-12) -> GrowthReport:
    poly = build_growth_poly(r)
    rho = dominant_root(poly, tol)
    roots = tuple(all_roots(poly))
    squarefree, s = squarefree_multiplicity(poly)
    return GrowthReport(
        r=r,
        poly=poly,
        rho=rho,
        roots=roots,
        s=s,
        squarefree=squarefree,
        eisenstein=eisenstein_check(poly, 2),
    )


def growth_estimate(
    seq: Sequence[int], rho: float, s: int, tol: float = 1e-6
) -> dict:
    """Ratio diagnostics of a count sequence against the dominant root.

    Returns the consecutive-ratio trace, the normalized trace
    ``a_l / (l^(s-1) rho^l)`` with its running maximum, and a verdict on
    whether the final ratio is within ``tol`` of rho.  Leading terms up
    to and including the last zero are excluded (small lengths may sit
    outside the recurrence regime).
    """
    base = 0
    for i, v in enumerate(seq):
        if v == 0:
            base = i + 1
    tail = seq[base:]
    if len(tail) < 2:
        raise DomainError("sequence has fewer than two trailing nonzero terms")
    ratios = []
    for i in range(1, len(tail)):
        ratios.append((base + i, tail[i] / tail[i - 1]))
    normalized = []
    running_max = 0.0
    for i, v in enumerate(tail):
        l = base + i + 1
        logn = math.log(v) - l * math.log(rho) - (s - 1) * math.log(l)
        val = math.exp(logn)
        running_max = max(running_max, val)
        normalized.append((l, val))
    final = ratios[-1][1]
    return {
        "ratio_trace": ratios,
        "normalized_trace": normalized,
        "normalized_max": running_max,
        "final_ratio": final,
        "converged": abs(final - rho) < tol,
    }
