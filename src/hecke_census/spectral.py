"""Characteristic polynomial of the class-count recurrence and its roots.

The polynomial is ``p(x) = x^(r+1) - 2*(x^(r-1) + ... + x) - 1``, built as
``x^(r+1) (1 - B(1/x))`` from the block series ``B`` of p = 2r
(``GroupParams.block_weights``).  So the dominant root rho is the
reciprocal of the dominant zero of ``1 - B``, and the class-count
recurrence is that of the census series ``h = 1/(1 - B)``, which
``census.block_series`` runs.  The dominant root is the midpoint of the
cell of width 2^-40 where the polynomial changes sign, found from a float
Newton estimate and confirmed by exact integer signs; the full root set comes
from a deterministic Aberth-Ehrlich iteration that holds the real zeros on
the real axis and each pair of conjugate zeros as one upper iterate, started
on [-1, 1] and on the upper half of the unit circle; its real zeros are then
correctly rounded by exact integer signs.  Its Newton correction reads the
shorter of the term lists of p and (x - 1)*p: for r >= 5 the five terms
x^(r+2) - x^(r+1) - 2x^r + x + 1, which are x^(r+2) S_p(1/x) for
S_p = (1 - x)(1 - B); its Aberth sum runs in C, through ``map``.  The
maximum root multiplicity s and the number of real zeros come from one walk
of the gcd chain p, gcd(p, p'), ... over Z, each gcd the last member of a
primitive Sturm sequence (pseudo-remainders that keep their signs).  The
sign probes at sqrt(2) are computed in the ring Z[sqrt(2)], no floating
point involved.

Each fact has one home: a ``GrowthReport`` derives squarefreeness from s
and holds the record of ``eisenstein_check`` as it is, the last pair of the
``growth_estimate`` trace is the growth estimate, and ``writers`` writes the
report.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import sub, truediv
from typing import NamedTuple, Sequence

from .words import DomainError, make_params
from .writers import growth_to_json


class IntPoly(NamedTuple):
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

    def shift(self) -> "IntPoly":
        """Coefficients of p(x + 1), by repeated synthetic division by x - 1:
        additions only."""
        c = list(self.coefficients)
        for i in range(self.degree):
            for j in range(self.degree - 1, i - 1, -1):
                c[j] += c[j + 1]
        return IntPoly(tuple(c))


def build_growth_poly(r: int) -> IntPoly:
    """``x^(r+1) (1 - B(1/x))`` for the block series B of p = 2r."""
    if r < 2:
        raise DomainError("r must be >= 2")
    coeffs = [0] * (r + 1) + [1]
    for w, c in make_params(2 * r).block_weights(r + 1).items():
        coeffs[r + 1 - w] = -c
    return IntPoly(tuple(coeffs))


def _at_two(coefficients: Sequence[int]) -> int:
    """``sum(c << j for j, c in enumerate(coefficients))``, by halves: the
    upper half's value shifted past the lower half's length.  Each sum is
    as wide as its half, so the cost is n log n in the bit length where a
    single accumulator costs n^2."""
    n = len(coefficients)
    if n <= 64:
        acc = 0
        for c in reversed(coefficients):
            acc = (acc << 1) + c
        return acc
    h = n // 2
    return _at_two(coefficients[:h]) + (_at_two(coefficients[h:]) << h)


def eval_at_sqrt2(poly: IntPoly) -> tuple[int, int]:
    """Exact value at sqrt(2) as (a, b) meaning a + b*sqrt(2): a sums the
    even coefficients c_2j * 2^j, b the odd ones c_(2j+1) * 2^j."""
    c = poly.coefficients
    return _at_two(c[0::2]), _at_two(c[1::2])


def sqrt2_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(2), exactly.  sqrt(2) is irrational, so
    a^2 = 2 b^2 only at a = b = 0, and the term of larger modulus decides
    the sign."""
    lead = a if a * a > 2 * b * b else b
    return (lead > 0) - (lead < 0)


def _dyadic_sign(poly: IntPoly, m: int, k: int) -> int:
    """Sign of poly(m / 2^k), read from the integer 2^(k*deg) * poly(m / 2^k)
    by homogeneous Horner evaluation."""
    acc = 0
    for j, c in enumerate(reversed(poly.coefficients)):
        acc = acc * m + (c << (k * j))
    return (acc > 0) - (acc < 0)


def _root_estimate(poly: IntPoly) -> float:
    """A float estimate of the root in [1, 2] that ``dominant_root`` isolates.

    Newton's method from y = 1/2 on y^d p(1/y), the polynomial of the
    reversed coefficients, whose terms stay bounded for y in [1/2, 1] at any
    degree.  On growth polynomials it is 1 - B(y), concave and decreasing,
    so the iterates fall monotonically to its zero after the first step.  A
    run that leaves [1/2, 1] or overflows gives 1.5: the exact search
    corrects any estimate."""
    try:
        coeffs = [float(c) for c in poly.coefficients]
    except OverflowError:
        return 1.5
    y = 0.5
    for _ in range(64):
        q = dq = 0.0
        for c in coeffs:
            dq = dq * y + q
            q = q * y + c
        if not dq:
            break
        step = q / dq
        y -= step
        if not 0.5 <= y <= 1.0:  # also NaN
            return 1.5
        if abs(step) <= 1e-16 * y:
            break
    return 1.0 / y


def dominant_root(poly: IntPoly) -> float:
    """Unique positive real root: the midpoint of the cell [lo, lo + 1] / 2^40
    of [1, 2] with p(lo / 2^40) < 0 <= p((lo + 1) / 2^40), the cell where
    exact bisection of [1, 2] ends after 40 halvings.

    The cell is found from a float estimate (``_root_estimate``), and every
    sign is exact.  Where the estimate is right, the two ends of its cell
    are the only signs taken.  Otherwise bisection finishes inside the
    bracket that those two signs leave: at most 2 + 40 signs, and one more
    at an end of [1, 2], whose sign bisection takes on trust until the
    final check; 43 whatever the estimate."""
    a2, b2 = eval_at_sqrt2(poly)
    if sqrt2_sign(a2, b2) >= 0 or poly(2) <= 0:
        raise DomainError("no sign change on [sqrt2, 2]")
    k = 40
    lo, hi = 1 << k, 2 << k  # bisection's bracket [1, 2], its end signs taken as < 0 and >= 0
    signs: dict[int, int] = {}

    def sign(m: int) -> int:
        if m not in signs:
            signs[m] = _dyadic_sign(poly, m, k)
        return signs[m]

    def below(m: int) -> bool:
        """Whether the sign change lies above m; narrows the bracket to it."""
        nonlocal lo, hi
        if sign(m) < 0:
            lo = m
            return True
        hi = m
        return False

    m = min(max(int(math.ldexp(_root_estimate(poly), k)), lo + 1), hi - 1)
    x = m + 1 if below(m) else m - 1  # the neighbour on the side of the sign change
    if lo < x < hi:
        below(x)
    while hi - lo > 1:
        below((lo + hi) // 2)
    # the root is bracketed strictly.  A rational root of a monic integer
    # polynomial is an integer, so the search never meets a root of the
    # polynomials built here; a dyadic root of any other input becomes hi,
    # and this check raises
    if not sign(lo) < 0 < sign(hi):
        raise ArithmeticError(
            f"bisection lost the sign change on [{lo / 2**k}, {hi / 2**k}]"
        )
    return (lo + hi) / 2 ** (k + 1)


def _float_sign(poly: IntPoly, x: float) -> int:
    """Sign of poly(x) at a double x, exactly: x is m / 2^k."""
    m, d = x.as_integer_ratio()
    return _dyadic_sign(poly, m, d.bit_length() - 1)


def _round_real_zero(poly: IntPoly, x: float) -> float | None:
    """The double nearest a real zero of poly within 64 ulps of x, or None.

    Walks outward from x, one ulp each way per step, to the first pair of
    adjacent doubles a, b across which poly changes sign (or a double where
    it vanishes), and returns the one of a, b on the zero's side of their
    midpoint.  Every sign is exact."""
    s = _float_sign(poly, x)
    if s == 0:
        return x
    lo = hi = x
    for _ in range(64):
        below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        for a, b in ((lo, below), (hi, above)):
            sb = _float_sign(poly, b)
            if sb == 0:
                return b
            if sb != s:
                ma, da = a.as_integer_ratio()
                mb, db = b.as_integer_ratio()
                d = max(da, db)  # 2^k, and (a + b) / 2 = (ma*d/da + mb*d/db) / 2^(k+1)
                mid = _dyadic_sign(poly, ma * (d // da) + mb * (d // db), d.bit_length())
                return a if mid == sb else b
        lo, hi = below, above
    return None


def _newton_terms(poly: IntPoly) -> tuple[tuple[tuple[int, int], ...], bool]:
    """The terms ``(k, c_k)``, highest degree first, from which ``all_roots``
    takes its Newton correction, and whether they are those of (x - 1)*poly.

    The nonzero terms of poly and of (x - 1)*poly, whichever list is strictly
    shorter.  For the growth polynomials with r >= 5 that is
    x^(r+2) - x^(r+1) - 2x^r + x + 1, the five terms of x^(r+2) S_p(1/x)
    for S_p = (1 - x)(1 - B); for r <= 4, and for a dense polynomial, the
    polynomial's own terms."""
    c = poly.coefficients
    own = tuple((k, a) for k, a in enumerate(c) if a)[::-1]
    shifted = tuple((k, a - b) for k, (a, b) in enumerate(zip((0, *c), (*c, 0))) if a != b)[::-1]
    return (shifted, True) if len(shifted) < len(own) else (own, False)


def all_roots(poly: IntPoly, tol: float = 1e-10, max_iter: int = 1000) -> list[complex]:
    """All complex roots by Aberth-Ehrlich iteration (Bini, Numer.
    Algorithms 13, 1996), real zeros correctly rounded by exact signs.

    The coefficients are real, so the zeros are k real ones and m pairs of
    conjugates; k, with multiplicity, is exact (``real_zero_count``).  The
    iteration holds k real iterates and m upper ones, each upper iterate
    with its conjugate beside it.  Deterministic start: the real iterates at
    cos(pi (j + 1/2) / k + 0.2) on [-1, 1], never at 0, the upper ones at
    exp(i pi (j + 1/2) / m) on the upper half of the unit circle, so root
    ordering is stable across runs.  Every zero of the growth polynomials
    but rho < 2 lies in the closed unit disk, and they crowd its boundary.
    The Newton correction p/p' reads the term list of ``_newton_terms``,
    the terms of f = q*p for q = x - 1 or q = 1: f and z*f' by Horner over
    the gaps between its exponents, then p/p' = f*q*z / (z*f'*q - f*z*q').
    On a growth polynomial with r >= 5 that is five terms, where a dense
    Horner pass reads deg + 1.  The Aberth sum over all other iterates,
    conjugates included, runs in C, through ``map``.  The iterates are
    updated in place (Gauss-Seidel): a real iterate takes the real part of
    its step, and an upper one writes its conjugate too.  An iterate freezes
    once its step falls to 4e-16 of its modulus, or stops shrinking below
    1e-8 of it.  Each finite real iterate then moves to the double nearest
    the real zero beside it (``_round_real_zero``).  The residual check is
    absolute, on the dense monic polynomial: every |p(z)| must be at most
    ``tol``, a NaN residual (an overflow) counting as infinite.  It reads
    the real and the upper iterates alone: for real coefficients, Horner
    at the conjugate of z is bitwise the conjugate of Horner at z.
    """
    import cmath  # imported here, so that a command without roots never loads it

    deg = poly.degree
    if deg < 1:
        raise DomainError("degree must be >= 1")
    lead = poly.coefficients[-1]
    if not lead:
        raise DomainError("leading coefficient must be nonzero")
    rev = [c / lead for c in reversed(poly.coefficients)]
    k = real_zero_count(poly)
    m = (deg - k) // 2
    upper = [cmath.exp(1j * math.pi * (j + 0.5) / m) for j in range(m)]
    zs = [complex(math.cos(math.pi * (j + 0.5) / k + 0.2), 0.0) for j in range(k)]
    zs += upper + [z.conjugate() for z in upper]
    terms, shifted = _newton_terms(poly)
    # f and z*f' by Horner over the gaps between the exponents, from the top
    # term down, then times z^low for the lowest exponent low
    (top, c_top), *rest = terms
    f0, zdf0 = complex(c_top / lead), complex(top * c_top / lead)
    steps = [(j - i, c / lead, i * c / lead) for (j, _), (i, c) in zip(terms, rest)]
    low = terms[-1][0]

    def peval(z: complex) -> complex:
        acc = 0j
        for c in rev:
            acc = acc * z + c
        return acc

    last_step = [math.inf] * (k + m)
    active = range(k + m)
    for _ in range(max_iter):
        if not active:
            break
        moving = []
        for i in active:
            z = zs[i]
            f, zdf = f0, zdf0
            for g, c, kc in steps:
                w = z**g
                f = f * w + c
                zdf = zdf * w + kc
            if low:
                w = z**low
                f *= w
                zdf *= w
            q, dq = (z - 1, 1) if shifted else (1, 0)
            fz = f * z
            d = zdf * q - fz * dq  # z*p'*q^2: where it is 0, the iterate takes no step
            n = fz * q / d if d else 0j
            s = sum(map(truediv, repeat(1 + 0j), map(sub, repeat(z), zs[:i] + zs[i + 1:])))
            dz = n / (1 - n * s)
            if i < k:  # a real iterate takes the real part of its step
                dz = complex(dz.real, 0.0)
            zs[i] = z - dz
            if i >= k:
                zs[i + m] = zs[i].conjugate()
            step = abs(dz)
            size = abs(z)
            if step > 4e-16 * size and not (last_step[i] <= step < 1e-8 * size):
                moving.append(i)
            last_step[i] = step
        active = moving
    for i in range(k):
        x = zs[i].real
        if math.isfinite(x):  # as_integer_ratio raises on NaN and on an infinity
            x = _round_real_zero(poly, x)
            if x is not None:
                zs[i] = complex(x, 0.0)
    residuals = [abs(peval(z)) for z in zs[:k + m]]
    # max() skips a NaN after the first residual: a NaN (an overflow) counts as infinite
    worst = math.inf if any(map(math.isnan, residuals)) else max(residuals)
    if worst > tol:
        raise ArithmeticError(
            f"root iteration residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _strip(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content (the gcd of its coefficients)."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(f: list[int], g: list[int]) -> list[int]:
    """A pseudo-remainder of f by g: |lc(g)|^e * f mod g for some e >= 0, a
    positive multiple of the remainder over the rationals, so its signs are
    those of the remainder."""
    f = _strip(list(f))
    lead = abs(g[-1])
    sign = 1 if g[-1] > 0 else -1
    while len(f) >= len(g) and f != [0]:
        factor = sign * f[-1]
        shift = len(f) - len(g)
        f = [lead * c for c in f]
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f = _strip(f)
    return f


def _sturm_chain(f: Sequence[int], g: Sequence[int]) -> list[list[int]]:
    """The primitive Sturm sequence of f and g: f and g made primitive, then
    each next member the negated primitive pseudo-remainder of the two
    before it, up to the last nonzero one, which is a gcd of f and g over
    the rationals.  Every member is a positive multiple of the one that
    Euclid's algorithm with negated remainders gives, so for g = f' the
    sign changes at -inf less those at +inf count the distinct real zeros
    of f (Sturm's theorem)."""
    chain = [_primitive(_strip(list(f))), _primitive(_strip(list(g)))]
    while chain[-1] != [0]:
        chain.append([-c for c in _primitive(_prem(chain[-2], chain[-1]))])
    chain.pop()
    return chain


def _sign_changes(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


@functools.lru_cache(maxsize=1)
def _gcd_chain(coefficients: tuple[int, ...]) -> tuple[int, int]:
    """``(s, k)`` for the polynomial with these coefficients: the largest
    root multiplicity s and the number k of real zeros, with multiplicity.

    Walks the chain p_0 = p, p_(j+1) = gcd(p_j, p_j'), whose p_j has the
    distinct zeros of p of multiplicity above j; s is its length, and k
    sums the Sturm counts of the distinct real zeros of its members.  Kept
    for the last polynomial, so that ``analyze_growth`` walks the chain once
    for ``all_roots`` and ``squarefree_multiplicity`` together."""
    cur = IntPoly(coefficients)
    s = k = 0
    while cur.degree > 0:
        chain = _sturm_chain(cur.coefficients, cur.derivative().coefficients)
        at_top = [c[-1] > 0 for c in chain]
        at_bottom = [(c[-1] > 0) != (len(c) % 2 == 0) for c in chain]  # lc * (-1)^degree
        k += _sign_changes(at_bottom) - _sign_changes(at_top)
        cur = IntPoly(tuple(chain[-1]))
        s += 1
    return s, k


def squarefree_multiplicity(poly: IntPoly) -> int:
    """The largest root multiplicity s, by repeated exact gcd; the polynomial
    is squarefree exactly when s is 1."""
    return _gcd_chain(poly.coefficients)[0]


def real_zero_count(poly: IntPoly) -> int:
    """The number of real zeros, with multiplicity, by Sturm's theorem on
    each polynomial of the gcd chain of ``squarefree_multiplicity``."""
    return _gcd_chain(poly.coefficients)[1]


def eisenstein_reason(poly: IntPoly) -> str | None:
    """Why the Eisenstein criterion at 2 fails for p(x+1), or None when it
    holds, without computing p(x+1).

    Its coefficient at degree i is sum_j c_j C(j, i), and by Lucas's theorem
    C(j, i) is odd exactly when the bits of i are among those of j; so the
    odd c_j locate the first odd coefficient below the leading one, and only
    that one is computed.  The constant term is p(1)."""
    coeffs = poly.coefficients
    odd = [j for j, c in enumerate(coeffs) if c & 1]
    first = next((i for i in range(poly.degree) if sum(j & i == i for j in odd) & 1), None)
    if first is not None:
        value, binom = 0, 1  # C(j, first), from j = first up
        for j in range(first, len(coeffs)):
            value += coeffs[j] * binom
            binom = binom * (j + 1) // (j + 1 - first)
        return f"coefficient {value} at degree {first} not divisible by 2"
    if poly(1) % 4 == 0:
        return f"constant term {poly(1)} divisible by 2^2"
    return None


def eisenstein_check(poly: IntPoly) -> dict:
    """Eisenstein criterion for p(x+1) at the prime 2, as the record
    ``{satisfied, prime, shifted_coefficients, reason}``; ``reason`` is None
    exactly when the criterion holds."""
    reason = eisenstein_reason(poly)
    return {"satisfied": reason is None, "prime": 2,
            "shifted_coefficients": list(poly.shift().coefficients), "reason": reason}


class GrowthReport(NamedTuple):
    """The spectral facts of the growth polynomial of r.  ``eisenstein`` is
    the record of ``eisenstein_check``, the one shape that ``to_json``
    writes."""

    r: int
    poly: IntPoly
    rho: float
    roots: tuple[complex, ...]
    s: int  # the largest root multiplicity
    eisenstein: dict
    ratio_trace: tuple[tuple[int, float], ...] = ()

    @property
    def squarefree(self) -> bool:
        return self.s == 1

    def to_json(self) -> str:
        """The report as ``json.dumps(doc, indent=2)`` writes it, plus a newline."""
        return growth_to_json(self)


def analyze_growth(r: int) -> GrowthReport:
    poly = build_growth_poly(r)
    rho = dominant_root(poly)
    roots = tuple(all_roots(poly))
    return GrowthReport(
        r=r,
        poly=poly,
        rho=rho,
        roots=roots,
        s=squarefree_multiplicity(poly),
        eisenstein=eisenstein_check(poly),
    )


def growth_estimate(seq: Sequence[int]) -> tuple[tuple[int, float], ...]:
    """Consecutive-ratio trace of a count sequence: the pairs
    ``(i, seq[i] / seq[i - 1])``, whose last ratio estimates the growth rate.

    Leading terms up to and including the last zero are excluded (small
    lengths may sit outside the recurrence regime).
    """
    base = 0
    for i, v in enumerate(seq):
        if v == 0:
            base = i + 1
    tail = seq[base:]
    if len(tail) < 2:
        raise DomainError("sequence has fewer than two trailing nonzero terms")
    return tuple((base + i, tail[i] / tail[i - 1]) for i in range(1, len(tail)))
