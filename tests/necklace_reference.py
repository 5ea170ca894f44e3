"""Reference rotation helpers for the byte-encoded necklace tests.

They compare every rotation, so they are slow but plainly right; the
tests hold the enumeration oracle and the class-key constructor to them.
"""


def minimal_rotation(s: bytes) -> bytes:
    n = len(s)
    if n <= 1:
        return s
    s2 = s + s
    return min(s2[i : i + n] for i in range(n))


def is_minimal_rotation(s: bytes) -> bool:
    return s == minimal_rotation(s)
