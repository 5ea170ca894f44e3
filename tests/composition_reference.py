"""Reference counts of compositions for the formula tests.

``bounded_compositions_dp`` is the dynamic-programming count that
``formulas.bounded_compositions`` replaced with its inclusion-exclusion
closed form; the tests hold the two to each other and to brute force.

``block_powers`` tabulates B(x)^m, the compositions into m blocks, by
repeated products: a reference for the census series that
``census.block_series`` runs as one recurrence.
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


def block_powers(params, max_len: int) -> list[list[int]]:
    """``powers[m][j] = [x^j] B(x)^m`` for m <= max_len // 2 and j <= max_len:
    the tuples of m blocks ``i g^k`` of total weight j, a block weighing
    1 + |k|.  B is read off ``canonical_exponent``, not ``block_weights``."""
    b = [0] * (max_len + 1)
    for a in range(1, min(params.p // 2, max_len - 1) + 1):
        b[1 + a] = 2 if params.canonical_exponent(-a) == -a else 1
    terms = [(w, c) for w, c in enumerate(b) if c]
    powers = [[1] + [0] * max_len]
    for _ in range(max_len // 2):
        prev, nxt = powers[-1], [0] * (max_len + 1)
        for i, c in enumerate(prev):
            if c:
                for w, bw in terms:
                    if i + w > max_len:
                        break
                    nxt[i + w] += c * bw
        powers.append(nxt)
    return powers
