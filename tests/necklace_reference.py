"""Reference helpers for the byte-encoded necklace tests.

They compare every rotation, so they are slow but plainly right; the
tests hold the enumeration oracle, the class-key constructor and the
reflection classifier to them.
"""

from hecke_census.necklaces import Category, rev_neg


def minimal_rotation(s: bytes) -> bytes:
    n = len(s)
    if n <= 1:
        return s
    s2 = s + s
    return min(s2[i : i + n] for i in range(n))


def is_minimal_rotation(s: bytes) -> bool:
    return s == minimal_rotation(s)


def reflection_category(r_ord, s: bytes) -> Category:
    """``necklaces.reflection_category`` by comparing all n rotations of
    the inverse class with ``s``; see that function for the rule."""
    n = len(s)
    u2 = rev_neg(s, r_ord) * 2
    iota_t = False
    gamma_t = False
    odd_n = n % 2 == 1
    for t in range(n):
        if u2[t : t + n] != s:
            continue
        c = (-t) % n
        if odd_n:
            pos = c if c % 2 == 1 else c + n
            assert s[(pos - 1) // 2] == r_ord, "fixed gamma block must be g^r"
            iota_t = gamma_t = True
            break
        if c % 2 == 0:
            iota_t = True
        else:
            assert s[(c - 1) // 2] == r_ord and s[((c - 1) // 2 + n // 2) % n] == r_ord
            gamma_t = True
        if iota_t and gamma_t:
            break
    if iota_t and gamma_t:
        return Category.SYMMETRIC_P_RECIPROCAL
    if iota_t:
        return Category.SYMMETRIC
    if gamma_t:
        return Category.P_RECIPROCAL
    return Category.NOT_RECIPROCAL
