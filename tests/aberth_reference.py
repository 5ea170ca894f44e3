"""A general root finder, the dense-Horner Aberth-Ehrlich iteration
(Bini, Numer. Algorithms 13, 1996), kept for the tests as the reference
for ``spectral.all_roots``, which solves the growth polynomials alone, each
zero from its own branch map.  It knows nothing of their structure: it
updates both members of every conjugate pair, each on its own, and lets
any iterate leave the real axis.

Start angles on the circle of radius 1.1, Gauss-Seidel updates, the freeze
rule of ``all_roots``, the same exact rounding of the real zeros, but on
the dense signs of ``_dyadic_sign`` where ``all_roots`` reads the
three-term form, and the same absolute residual check; p/p' by a Horner
pass over every coefficient, and the Aberth sum by a generator.
"""

import cmath
import math
from functools import partial

from hecke_census.spectral import IntPoly, _dyadic_sign, _round_real_zero


def all_roots(poly: IntPoly, tol: float = 1e-10, max_iter: int = 1000) -> list[complex]:
    deg = poly.degree
    lead = poly.coefficients[-1]
    rev = [c / lead for c in reversed(poly.coefficients)]
    zs = [1.1 * cmath.exp(1j * (2 * math.pi * k / deg + 0.4)) for k in range(deg)]

    def peval(z: complex) -> complex:
        acc = 0j
        for c in rev:
            acc = acc * z + c
        return acc

    last_step = [math.inf] * deg
    active = range(deg)
    for _ in range(max_iter):
        if not active:
            break
        moving = []
        for i in active:
            z = zs[i]
            p = dp = 0j
            for c in rev:
                dp = dp * z + p
                p = p * z + c
            n = p / dp
            dz = n / (1 - n * sum(1 / (z - w) for j, w in enumerate(zs) if j != i))
            zs[i] = z - dz
            step = abs(dz)
            size = abs(z)
            if step > 4e-16 * size and not (last_step[i] <= step < 1e-8 * size):
                moving.append(i)
            last_step[i] = step
        active = moving
    sign = partial(_dyadic_sign, poly)
    for i, z in enumerate(zs):
        if abs(z.imag) <= 1e-9 * abs(z):
            x = _round_real_zero(sign, z.real)
            if x is not None:
                zs[i] = complex(x, 0.0)
    residuals = [abs(peval(z)) for z in zs]
    worst = math.inf if any(map(math.isnan, residuals)) else max(residuals)
    if worst > tol:
        raise ArithmeticError(
            f"root iteration residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
