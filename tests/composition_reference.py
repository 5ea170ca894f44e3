"""Reference counts of compositions for the formula tests.

``bounded_compositions_dp`` is the dynamic-programming count that
``formulas.bounded_compositions`` replaced with its inclusion-exclusion
closed form; the tests hold the two to each other and to brute force.
"""

from math import comb


def compositions(n: int, x: int) -> int:
    """Number of ordered tuples of n positive integers summing to x."""
    if n == 0:
        return 1 if x == 0 else 0
    if x < n:
        return 0
    return comb(x - 1, n - 1)


def bounded_compositions_dp(n: int, r: int, x: int) -> int:
    """Compositions of x into n parts, each in [1, r], one part at a time."""
    if n == 0:
        return 1 if x == 0 else 0
    if x < n or x > n * r:
        return 0
    row = [0] * (x + 1)
    row[0] = 1
    for _ in range(n):
        nxt = [0] * (x + 1)
        for total in range(1, x + 1):
            nxt[total] = sum(row[total - part] for part in range(1, min(r, total) + 1))
        row = nxt
    return row[x]
