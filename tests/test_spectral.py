"""Spectral layer: polynomial construction, exact root isolation, diagnostics."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_census.spectral import (
    GrowthReport,
    IntPoly,
    all_roots,
    analyze_growth,
    build_growth_poly,
    dominant_root,
    eisenstein_check,
    eval_at_sqrt2,
    growth_estimate,
    sqrt2_sign,
    squarefree_multiplicity,
)
from hecke_census.words import DomainError, make_params


# References: the rational arithmetic the spectral layer used before it
# moved to integers.  The integer versions must agree with them exactly.


def fraction_dominant_root(poly: IntPoly) -> float:
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        v = poly(mid)
        if v == 0:
            lo = hi = mid
            break
        if v < 0:
            lo = mid
        else:
            hi = mid
    assert poly(lo) < 0 < poly(hi)
    return float((lo + hi) / 2)


def _strip(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _frac_rem(f, g):
    f = _strip(list(f))
    while len(f) >= len(g) and f != [Fraction(0)]:
        factor = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f = _strip(f)
    return f


def _frac_gcd(f, g):
    f, g = _strip(list(f)), _strip(list(g))
    while g != [Fraction(0)]:
        f, g = g, _frac_rem(f, g)
    if f[-1] != 0:
        f = [c / f[-1] for c in f]
    return f


def fraction_squarefree_multiplicity(poly: IntPoly) -> int:
    cur = [Fraction(c) for c in poly.coefficients]
    s = 0
    while len(cur) > 1:
        deriv = [i * c for i, c in enumerate(cur)][1:] or [Fraction(0)]
        cur = _frac_gcd(cur, deriv)
        s += 1
    return s


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_build_poly_r2():
    assert build_growth_poly(2).coefficients == (-1, -2, 0, 1)


def test_build_poly_r3():
    # x^4 - 2x^2 - 2x - 1
    assert build_growth_poly(3).coefficients == (-1, -2, -2, 0, 1)


def test_build_poly_rejects_small_r():
    with pytest.raises(DomainError):
        build_growth_poly(1)


def test_poly_evaluation_and_shift():
    p = IntPoly((1, 2, 1))  # (x+1)^2
    assert p(3) == 16
    assert p.shift().coefficients == (4, 4, 1)  # (x+2)^2
    assert p.derivative().coefficients == (2, 2)


def _binomial_shift(poly, a):
    """Coefficients of p(x + a) by expanding every binomial (x + a)^i."""
    out = [0] * (poly.degree + 1)
    for i, c in enumerate(poly.coefficients):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * a ** (i - j)
    return tuple(out)


def test_shift_matches_binomial_expansion():
    for r in range(2, 131):
        poly = build_growth_poly(r)
        assert poly.shift().coefficients == _binomial_shift(poly, 1), r
    for poly in [IntPoly((5,)), IntPoly((0, 1)), IntPoly((3, -1, 4, -1, 5))]:
        assert poly.shift().coefficients == _binomial_shift(poly, 1)


@pytest.mark.parametrize("r", range(2, 11))
def test_value_at_two_is_three(r):
    assert build_growth_poly(r)(2) == 3


@pytest.mark.parametrize("r", range(2, 11))
def test_negative_at_sqrt2(r):
    a, b = eval_at_sqrt2(build_growth_poly(r))
    assert sqrt2_sign(a, b) < 0


def test_sqrt2_sign_cases():
    assert sqrt2_sign(0, 0) == 0
    assert sqrt2_sign(3, -2) > 0  # 3 > 2*sqrt2 = 2.828...
    assert sqrt2_sign(2, -2) < 0
    assert sqrt2_sign(-3, 2) < 0
    assert sqrt2_sign(-2, 2) > 0
    # a nonzero a + b*sqrt2 has modulus at least 1/(|a| + |b|*sqrt2) > 1/100
    # here, far above the float's rounding error, so its sign is exact
    for a in range(-50, 51):
        for b in range(-50, 51):
            x = a + b * math.sqrt(2)
            assert sqrt2_sign(a, b) == (x > 0) - (x < 0), (a, b)


def test_dominant_root_golden_values():
    assert abs(dominant_root(build_growth_poly(2)) - 1.6180339887) < 1e-9
    assert abs(dominant_root(build_growth_poly(3)) - 1.8392867552) < 1e-9


def test_dominant_root_rejects_a_dyadic_root():
    # 2x - 3 is not monic: its root 3/2 is the first bisection midpoint
    with pytest.raises(ArithmeticError):
        dominant_root(IntPoly((-3, 2)))


def test_dominant_root_of_a_non_monic_quadratic():
    assert abs(dominant_root(IntPoly((-5, 0, 2))) - math.sqrt(5 / 2)) < 1e-12


def test_dominant_root_is_a_root():
    for r in range(2, 7):
        poly = build_growth_poly(r)
        rho = dominant_root(poly)
        assert abs(poly(rho)) < 1e-9


def correctly_rounded_rho(poly: IntPoly) -> float:
    """The double nearest the irrational zero of poly in (1, 2): integer
    bisection to a bracket [lo, hi] / 2^k of at least 80 bits whose ends
    ``Fraction`` rounds to one double."""
    deg = poly.degree

    def sign(m, k):  # of poly(m / 2^k), from 2^(k*deg) * poly(m / 2^k)
        v = sum(c * m**i << (k * (deg - i)) for i, c in enumerate(poly.coefficients))
        return (v > 0) - (v < 0)

    lo, hi, k = 1, 2, 0
    assert sign(lo, 0) < 0 < sign(hi, 0)
    # rho_53 lies about 2^-101 below the rounding boundary 2 - 2^-53
    while k < 80 or float(Fraction(lo, 2**k)) != float(Fraction(hi, 2**k)):
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        if sign(lo + 1, k) < 0:
            lo += 1
        else:
            hi -= 1
    return float(Fraction(lo, 2**k))


def test_all_roots_residual_and_count():
    # every r with a growth polynomial that all_roots solves at the default tol
    for r in [*range(2, 20), *range(21, 26), *range(38, 53)]:
        poly = build_growth_poly(r)
        roots = all_roots(poly)
        assert len(roots) == r + 1
        for z in roots:
            assert abs(poly(z)) < 1e-8
            assert min(abs(z.conjugate() - w) for w in roots) <= 1e-12, r
        # Vieta: P_r has no x^r term, and its roots multiply to (-1)^(r+1) c_0
        assert abs(sum(roots)) <= 1e-12 * (r + 1), r
        assert abs(math.prod(roots) - (-1) ** (r + 1) * poly.coefficients[0]) <= 1e-9, r


def test_all_roots_failures_are_those_of_the_rounded_rho():
    # the residual check is absolute, and near rho ~ 2 one ulp of rho moves
    # P_r by P_r'(rho) * 2^-52 ~ 3 * 2^(r-52): whether all_roots fails is a
    # property of P_r at the double nearest rho, not of the iteration path
    for r in range(2, 61):
        poly = build_growth_poly(r)
        rho = correctly_rounded_rho(poly)
        if abs(poly(rho)) > 1e-10:
            with pytest.raises(ArithmeticError):
                all_roots(poly)
        else:
            all_roots(poly)
        roots = all_roots(poly, tol=math.inf)
        assert max(z.real for z in roots if z.imag == 0) == rho, r
        assert complex(-1.0, 0.0) in roots, r


def test_all_roots_failure_residuals_are_finite():
    for r in range(41, 131):
        try:
            all_roots(build_growth_poly(r))
        except ArithmeticError as exc:
            residual = float(str(exc).split()[3])
            assert math.isfinite(residual), (r, str(exc))


def test_all_roots_within_dominant_modulus():
    for r in range(2, 7):
        poly = build_growth_poly(r)
        rho = dominant_root(poly)
        assert max(abs(z) for z in all_roots(poly)) <= rho + 1e-6


def test_all_roots_deterministic():
    poly = build_growth_poly(4)
    assert all_roots(poly) == all_roots(poly)


def test_squarefree_growth_polys():
    for r in range(2, 11):
        assert squarefree_multiplicity(build_growth_poly(r)) == 1


def test_dominant_root_matches_fraction_reference():
    for r in range(2, 131):
        poly = build_growth_poly(r)
        assert dominant_root(poly) == fraction_dominant_root(poly), r


def test_dominance_certificate():
    # B has nonnegative coefficients and its support holds the coprime
    # weights 2 and 3, so 1 - B has a unique dominant zero (the aperiodic
    # supercritical sequence schema); the gcd test proves that it is simple
    for r in range(2, 131):
        weights = make_params(2 * r).block_weights(r + 1)
        assert {2, 3} <= set(weights) and min(weights.values()) > 0, r
        assert squarefree_multiplicity(build_growth_poly(r)) == 1, r


@settings(max_examples=60, deadline=None)
@given(
    linear=st.dictionaries(st.integers(-6, 6), st.integers(1, 3), max_size=3),
    quadratic=st.dictionaries(st.integers(1, 9), st.integers(1, 3), max_size=2),
    lead=st.integers(1, 4),
)
def test_squarefree_matches_fraction_reference(linear, quadratic, lead):
    # distinct a and positive b make the factors pairwise coprime, so the
    # largest multiplicity m is the largest exponent
    coeffs = [lead]
    factors = [([-a, 1], m) for a, m in linear.items()]
    factors += [([b, 0, 1], m) for b, m in quadratic.items()]
    for factor, m in factors:
        for _ in range(m):
            coeffs = _poly_mul(coeffs, factor)
    poly = IntPoly(tuple(coeffs))
    got = squarefree_multiplicity(poly)
    assert got == fraction_squarefree_multiplicity(poly)
    if factors:
        assert got == max(m for _, m in factors)


def test_squarefree_detects_multiplicity():
    assert squarefree_multiplicity(IntPoly((1, 2, 1))) == 2  # (x+1)^2


def test_eisenstein_r2_not_satisfied():
    report = eisenstein_check(build_growth_poly(2))
    assert not report["satisfied"]
    assert report["shifted_coefficients"] == [-2, 1, 3, 1]


def test_eisenstein_positive_case():
    # x^2 + 2x + 2 is Eisenstein at 2 without shifting; feed a poly whose
    # shift by 1 produces it: (x-1)^2 + 2(x-1) + 2 = x^2 + 1
    report = eisenstein_check(IntPoly((1, 0, 1)))
    assert report["satisfied"]


@pytest.mark.parametrize("coefficients", [
    (1, 0, 1),  # satisfied
    (-1, -2, 0, 1),  # r = 2: an odd shifted coefficient
    (3, 0, 1),  # shifted (4, 2, 1): the constant term is divisible by 4
])
def test_eisenstein_record_has_one_shape(coefficients):
    report = eisenstein_check(IntPoly(coefficients))
    assert list(report) == ["satisfied", "prime", "shifted_coefficients", "reason"]
    assert (report["reason"] is None) == report["satisfied"]


def test_growth_report_derives_squarefree_from_s():
    report = analyze_growth(3)
    assert report.squarefree and json.loads(report.to_json())["squarefree"] is True
    assert not report._replace(s=2).squarefree
    with pytest.raises(TypeError):  # no constructor field beside s
        GrowthReport(3, report.poly, report.rho, report.roots, 1,
                     squarefree=True, eisenstein=report.eisenstein)


def test_analyze_growth_report_fields():
    report = analyze_growth(3)
    assert report.r == 3
    assert report.s == 1
    assert abs(report.rho - 1.8392867552) < 1e-9
    doc = json.loads(report.to_json())
    assert doc["coefficients"] == [-1, -2, -2, 0, 1]
    assert float(doc["rho"]) == report.rho


def test_growth_estimate_geometric():
    rho = 1.5
    seq = [round(10 * rho**i) for i in range(40)]
    trace = growth_estimate(seq)
    assert isinstance(trace, tuple) and trace[-1][0] == 39
    assert abs(trace[-1][1] - rho) < 1e-3


def test_growth_estimate_skips_interior_zeros():
    seq = [1, 0, 2, 1, 4, 4, 9, 12, 22, 33, 56, 88]
    trace = growth_estimate(seq)
    assert trace[0] == (3, 1 / 2)  # starts after the last zero


def test_growth_estimate_rejects_tiny_sequences():
    with pytest.raises(DomainError):
        growth_estimate([0, 0, 1])
