"""Spectral layer: polynomial construction, exact root isolation, diagnostics."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecke_census import spectral
from hecke_census.spectral import (
    GrowthReport,
    IntPoly,
    _dyadic_sign,
    _newton_terms,
    _root_estimate,
    _sturm_chain,
    all_roots,
    analyze_growth,
    build_growth_poly,
    dominant_root,
    eisenstein_check,
    eisenstein_reason,
    eval_at_sqrt2,
    growth_estimate,
    json_text,
    real_zero_count,
    sqrt2_sign,
    squarefree_multiplicity,
)
from hecke_census.words import DomainError, make_params
import aberth_reference


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


def bisection_dominant_root(poly: IntPoly) -> float:
    """The 41-step integer bisection of [1, 2] that ``dominant_root`` replaced:
    40 halvings of the bracket [lo, hi] / 2^k, a strict-bracket check, and
    the midpoint of the last cell."""
    a2, b2 = eval_at_sqrt2(poly)
    if sqrt2_sign(a2, b2) >= 0 or poly(2) <= 0:
        raise DomainError("no sign change on [sqrt2, 2]")
    lo, hi = 1, 2
    for k in range(1, 41):
        lo, hi = 2 * lo, 2 * hi
        mid = lo + 1
        if _dyadic_sign(poly, mid, k) < 0:
            lo = mid
        else:
            hi = mid
    if not _dyadic_sign(poly, lo, k) < 0 < _dyadic_sign(poly, hi, k):
        raise ArithmeticError(
            f"bisection lost the sign change on [{lo / 2**k}, {hi / 2**k}]"
        )
    return (lo + hi) / 2 ** (k + 1)


def shift_eisenstein_record(poly: IntPoly) -> dict:
    """The Eisenstein record read off the coefficients of p(x + 1), as
    ``eisenstein_check`` wrote it before it found the reason without them."""
    coeffs = poly.shift().coefficients
    odd = next((i for i, c in enumerate(coeffs[:-1]) if c % 2), None)
    if odd is not None:
        reason = f"coefficient {coeffs[odd]} at degree {odd} not divisible by 2"
    elif coeffs[0] % 4 == 0:
        reason = f"constant term {coeffs[0]} divisible by 2^2"
    else:
        reason = None
    return {"satisfied": reason is None, "prime": 2,
            "shifted_coefficients": list(coeffs), "reason": reason}


def report_doc(report: GrowthReport) -> dict:
    """The document that ``GrowthReport.to_json`` writes, for ``json.dumps``."""
    return {
        "r": report.r,
        "coefficients": list(report.poly.coefficients),
        "rho": repr(report.rho),
        "s": report.s,
        "squarefree": report.squarefree,
        "eisenstein": report.eisenstein,
        "roots": [[z.real, z.imag] for z in report.roots],
        "ratio_trace": [[i, repr(v)] for i, v in report.ratio_trace],
    }


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


def _horner_at_sqrt2(coefficients):
    """p(sqrt2) in Z[sqrt2] by Horner: (a + b*sqrt2)*sqrt2 + c = (2b + c) + a*sqrt2."""
    a = b = 0
    for c in reversed(coefficients):
        a, b = 2 * b + c, a
    return a, b


@settings(max_examples=100, deadline=None)
@given(coefficients=st.integers(0, 400).flatmap(
    lambda degree: st.lists(st.integers(-(2**70), 2**70), min_size=degree + 1,
                            max_size=degree + 1)))
@example(coefficients=list(build_growth_poly(10_000).coefficients))  # halved 7 times
def test_eval_at_sqrt2_is_horner_in_z_sqrt2(coefficients):
    assert eval_at_sqrt2(IntPoly(tuple(coefficients))) == _horner_at_sqrt2(coefficients)


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


GROWTH_POLYS = [build_growth_poly(r) for r in [*range(2, 301), 1024, 2048]]


def test_dominant_root_matches_bisection_reference():
    for poly in [*GROWTH_POLYS, IntPoly((-5, 0, 2)), IntPoly((-5 * 10**400, 0, 2 * 10**400))]:
        assert dominant_root(poly) == bisection_dominant_root(poly), poly.degree


def test_dominant_root_raises_on_a_dyadic_root_as_bisection_does():
    poly = IntPoly((-3, 2))
    with pytest.raises(ArithmeticError) as want:
        bisection_dominant_root(poly)
    with pytest.raises(ArithmeticError) as got:
        dominant_root(poly)
    assert str(got.value) == str(want.value)


def _count_signs(monkeypatch) -> list:
    calls = []

    def counted(poly, m, k):
        calls.append(m)
        return _dyadic_sign(poly, m, k)

    monkeypatch.setattr(spectral, "_dyadic_sign", counted)
    return calls


def test_dominant_root_takes_two_signs_where_the_estimate_hits(monkeypatch):
    calls = _count_signs(monkeypatch)
    for poly in GROWTH_POLYS:
        del calls[:]
        dominant_root(poly)
        assert len(calls) == 2, poly.degree


@pytest.mark.parametrize("estimate", [
    0.5, 1.0, 1.0 + 2**-40, 1.2, 1.5, 1.618, 1.9, 2.0 - 2**-40, 2.0, 3.0,
])
def test_dominant_root_sign_count_is_capped(monkeypatch, estimate):
    # whatever the estimate, the same cell from at most 45 exact signs
    polys = [build_growth_poly(r) for r in (2, 3, 7, 40, 300)] + [IntPoly((-5, 0, 2))]
    want = [bisection_dominant_root(poly) for poly in polys]
    calls = _count_signs(monkeypatch)
    monkeypatch.setattr(spectral, "_root_estimate", lambda poly: estimate)
    for poly, rho in zip(polys, want):
        del calls[:]
        assert dominant_root(poly) == rho, poly.degree
        assert len(calls) <= 45, (poly.degree, len(calls))


def test_root_estimate_is_overflow_safe():
    # x^2001 overflows a double at x = 2; the reversed polynomial does not,
    # and a coefficient past the double range falls back to the midpoint
    poly = build_growth_poly(2000)
    assert abs(_root_estimate(poly) - dominant_root(poly)) < 1e-12
    assert _root_estimate(IntPoly((-5 * 10**400, 0, 2 * 10**400))) == 1.5


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
    accepted = {*range(2, 20), *range(21, 26), *range(38, 53)}
    for r in range(2, 131):
        poly = build_growth_poly(r)
        roots = all_roots(poly, tol=math.inf)
        assert len(roots) == r + 1
        # exactly k real roots, and every other root's conjugate among the
        # roots: a nonzero imaginary part compares equal only to itself, so
        # the closure is bitwise
        assert sum(z.imag == 0.0 for z in roots) == real_zero_count(poly) == 2 + (r % 2 == 0), r
        assert all(z.imag == 0.0 or z.conjugate() in roots for z in roots), r
        if r not in accepted:
            continue
        assert all_roots(poly) == roots, r
        for z in roots:
            assert abs(poly(z)) < 1e-8
        # Vieta: P_r has no x^r term, and its roots multiply to (-1)^(r+1) c_0
        assert abs(sum(roots)) <= 1e-12 * (r + 1), r
        assert abs(math.prod(roots) - (-1) ** (r + 1) * poly.coefficients[0]) <= 1e-9, r


def test_all_roots_failures_are_those_of_the_rounded_rho():
    # the residual check is absolute, and near rho ~ 2 one ulp of rho moves
    # P_r by P_r'(rho) * 2^-52 ~ 3 * 2^(r-52): whether all_roots fails is a
    # property of P_r at the double nearest rho, not of the iteration path
    for r in range(2, 131):
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


def exact_value(poly: IntPoly, z: complex) -> complex:
    """poly(z), each part rounded once from the exact value: z is
    (x + iy) / 2^k for integers x, y, and Horner runs on 2^(k*deg) poly(z)
    in Gaussian integers."""
    (mx, dx), (my, dy) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(dx, dy)
    x, y, k = mx * (d // dx), my * (d // dy), d.bit_length() - 1
    a = b = 0
    for j, c in enumerate(reversed(poly.coefficients)):
        a, b = a * x - b * y + (c << (k * j)), a * y + b * x
    den = 1 << (k * poly.degree)
    return complex(Fraction(a, den), Fraction(b, den))


def test_all_roots_matches_the_dense_horner_reference():
    # the term list and the start on the unit circle move the complex roots
    # by rounding only, and every real root is the same correctly rounded
    # double: rho, -1 and, for even r, the negative zero of Q_r
    for r in range(2, 131):
        poly = build_growth_poly(r)
        roots = all_roots(poly, tol=math.inf)
        want = aberth_reference.all_roots(poly, tol=math.inf)
        assert len(roots) == len(want) == r + 1, r
        assert sum(z.imag == 0 for z in roots) == 2 + (r % 2 == 0), r
        for z, w in zip(roots, want):
            if w.imag == 0:
                assert z == w, r
            else:
                assert abs(z - w) <= 1e-12 * abs(w), (r, z, w)
        for z in roots:
            if abs(z) < 1.5:
                scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(poly.coefficients))
                assert abs(exact_value(poly, z)) <= 1e-14 * scale, (r, z)


def test_newton_terms_of_the_growth_polynomials():
    # x^(r+2) S_p(1/x) = (x - 1) P_r for S_p = (1 - x)(1 - B) of p = 2r
    for r in range(5, 201):
        b = make_params(2 * r).block_weights(r + 1)
        one_minus_b = [1] + [-b.get(w, 0) for w in range(1, r + 2)] + [0]
        s_p = [c - (j and one_minus_b[j - 1]) for j, c in enumerate(one_minus_b)]
        want = tuple((r + 2 - j, c) for j, c in enumerate(s_p) if c)
        assert want == ((r + 2, 1), (r + 1, -1), (r, -2), (1, 1), (0, 1))
        assert _newton_terms(build_growth_poly(r)) == (want, True), r
    for r in range(2, 5):
        poly = build_growth_poly(r)
        terms, shifted = _newton_terms(poly)
        assert not shifted and len(terms) <= 5
        assert terms == tuple((k, c) for k, c in enumerate(poly.coefficients) if c)[::-1]


def test_newton_terms_keep_a_polynomial_that_vanishes_at_one():
    # a dense p and one with a zero at 1 keep their own terms, the (x - 1) p
    # of each being no shorter.  At a zero of p at 1, f = (x - 1) p would
    # have a double zero, where f and f' both vanish and the correction
    # would lose its digits
    for poly in (IntPoly((1, 2, 3, 4, 5, 6)), IntPoly((-3, 2, 0, 1))):  # (x - 1)(x^2 + x + 3)
        terms, shifted = _newton_terms(poly)
        assert not shifted
        assert terms == tuple((k, c) for k, c in enumerate(poly.coefficients) if c)[::-1]
        roots = all_roots(poly)  # at the default tol
        assert len(roots) == poly.degree
    assert complex(1.0, 0.0) in roots


def test_all_roots_of_a_polynomial_with_a_zero_at_zero():
    # at z = 0 the correction f*m*z / (z*f'*m - f*z*m') is 0/0; the iterate
    # that reaches the zero takes no step
    assert all_roots(IntPoly((0, 1, 1))) == [complex(-1.0, 0.0), 0j]
    # the two iterates of a double zero at 0 approach it together until
    # f*z underflows, and freeze there
    roots = all_roots(IntPoly((0, 0, 1, 1)))
    assert roots[0] == complex(-1.0, 0.0) and max(map(abs, roots[1:])) < 1e-100


def test_all_roots_rejects_a_zero_leading_coefficient():
    with pytest.raises(DomainError, match="leading coefficient must be nonzero"):
        all_roots(IntPoly((1, 2, 0)))
    with pytest.raises(DomainError, match="degree must be >= 1"):
        all_roots(IntPoly((5,)))


def test_all_roots_failure_residuals_are_finite():
    for r in range(41, 131):
        try:
            all_roots(build_growth_poly(r))
        except ArithmeticError as exc:
            residual = float(str(exc).split()[3])
            assert math.isfinite(residual), (r, str(exc))


def test_all_roots_rejects_a_nan_residual_wherever_it_is():
    # the root at 1 comes first with a finite residual; the three others overflow
    with pytest.raises(ArithmeticError, match="residual inf exceeds"):
        all_roots(IntPoly((-10**300, 10**300, 0, 0, 1)))


def test_all_roots_keeps_an_overflowed_real_iterate_from_the_exact_rounding():
    # both zeros of x^2 + 10^308 x - 1 are real and doubles (near 10^-308
    # and -10^308), but the real iterates overflow to NaN, on which the
    # exact rounding's float.as_integer_ratio would raise ValueError
    poly = IntPoly((-1, 10**308, 1))
    assert real_zero_count(poly) == 2
    with pytest.raises(ArithmeticError, match="residual inf exceeds"):
        all_roots(poly)
    roots = all_roots(poly, tol=math.inf)
    assert len(roots) == 2 and all(math.isnan(z.real) and z.imag == 0.0 for z in roots)


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


@settings(max_examples=100, deadline=None)
@given(
    linear=st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3).filter(bool),
                              st.integers(1, 3)),
                    max_size=4),
    quadratic=st.lists(st.tuples(st.integers(1, 3), st.integers(-5, 5), st.integers(1, 4),
                                 st.integers(1, 2)), max_size=3),
    lead=st.integers(-4, 4).filter(bool),
)
def test_real_zero_count_of_products_of_known_factors(linear, quadratic, lead):
    # lead times (c*x - a)^m for each linear factor and (a*x^2 + b*x + c)^m
    # with b^2 < 4ac for each quadratic: exactly the linear factors' zeros
    # are real, so their multiplicities sum to the count.  Factors may
    # repeat a zero, and a negative lead or c tests the signs of the chain
    coeffs = [lead]
    for a, c, m in linear:
        for _ in range(m):
            coeffs = _poly_mul(coeffs, [-a, c])
    for a, b, extra, m in quadratic:
        c = b * b // (4 * a) + extra
        for _ in range(m):
            coeffs = _poly_mul(coeffs, [c, b, a])
    poly = IntPoly(tuple(coeffs))
    assert real_zero_count(poly) == sum(m for *_, m in linear)
    assert squarefree_multiplicity(poly) == fraction_squarefree_multiplicity(poly)


def test_real_zero_count_of_the_growth_polynomials():
    # rho, -1 and, for even r, the negative zero of Q_r
    for r in range(2, 131):
        assert real_zero_count(build_growth_poly(r)) == 2 + (r % 2 == 0), r


def test_analyze_growth_runs_the_remainder_chain_once(monkeypatch):
    # all_roots and squarefree_multiplicity share one walk of the gcd chain,
    # which for the squarefree P_r is one Sturm sequence
    calls = []

    def counted(f, g):
        calls.append(len(f))
        return _sturm_chain(f, g)

    monkeypatch.setattr(spectral, "_sturm_chain", counted)
    for r in (3, 40):
        spectral._gcd_chain.cache_clear()
        del calls[:]
        report = analyze_growth(r)
        assert report.s == 1 and calls == [r + 2], r


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


def test_eisenstein_matches_the_shifted_coefficients():
    for r in range(2, 301):
        poly = build_growth_poly(r)
        assert eisenstein_check(poly) == shift_eisenstein_record(poly), r


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=12))
def test_eisenstein_reason_matches_the_shift_on_any_polynomial(coefficients):
    poly = IntPoly(tuple(coefficients))
    assert eisenstein_reason(poly) == shift_eisenstein_record(poly)["reason"]


def test_eisenstein_reason_needs_no_shift(monkeypatch):
    # r + 1 = 3 * 2^11 puts the first odd shifted coefficient at degree 2^11
    poly = build_growth_poly(6143)
    monkeypatch.setattr(IntPoly, "shift", None)
    assert eisenstein_reason(poly).endswith(" at degree 2048 not divisible by 2")


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


def test_growth_report_json_is_that_of_json_dumps():
    report = analyze_growth(3)  # an empty ratio_trace
    nan_roots = all_roots(IntPoly((0, -10**300, 10**300, 1)), tol=math.inf)
    assert any(math.isnan(z.real) for z in nan_roots)
    cases = [
        report,
        report._replace(ratio_trace=((1, 1.5), (2, -0.0), (3, 5e-324), (4, 1e300))),
        report._replace(roots=tuple(nan_roots)),
        report._replace(roots=(complex(-0.0, 5e-324), complex(1e300, -1e300),
                               complex(math.inf, -math.inf))),
        report._replace(eisenstein=eisenstein_check(IntPoly((1, 0, 1)))),  # a None reason
        report._replace(eisenstein={"reason": 'say "q" \\ \t\x00\x1f\x7f é ∞ 𝔽',
                                    "empty": [], "nested": {"": {}}}),
        analyze_growth(40)._replace(ratio_trace=((7, 1.25),)),
    ]
    for case in cases:
        assert case.to_json() == json.dumps(report_doc(case), indent=2) + "\n"
    assert "NaN" in cases[2].to_json() and "-Infinity" in cases[3].to_json()


_REPORT_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])


@settings(max_examples=100, deadline=None)
@given(r=st.integers(2, 19),
       coefficients=st.lists(st.integers(), min_size=1, max_size=8),
       trace=st.lists(st.tuples(st.integers(0, 10**6), _REPORT_FLOATS), max_size=6),
       roots=st.lists(st.builds(complex, _REPORT_FLOATS, _REPORT_FLOATS), max_size=4))
def test_growth_report_json_of_any_trace_and_roots_is_that_of_json_dumps(
        r, coefficients, trace, roots):
    poly = IntPoly(tuple(coefficients))
    report = analyze_growth(r)._replace(poly=poly, eisenstein=eisenstein_check(poly),
                                        ratio_trace=tuple(trace), roots=tuple(roots))
    assert report.to_json() == json.dumps(report_doc(report), indent=2) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(value=_JSON_VALUES, pad=st.sampled_from(["", "  ", "      "]))
def test_json_text_is_that_of_json_dumps(value, pad):
    want = json.dumps(value, indent=2).replace("\n", "\n" + pad)
    assert json_text(value, pad) == want


def test_json_text_hands_other_values_to_json_dumps():
    value = {1: [2.5, None], "k": {True: "v"}}  # keys that json.dumps converts
    assert json_text(value, "  ") == json.dumps(value, indent=2).replace("\n", "\n  ")
    with pytest.raises(TypeError):
        json_text({1, 2})


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
