"""Independent reference implementations used as test oracles.

Everything here works on plain coefficient lists (index i = coefficient of
x^i) or by exhaustive enumeration, deliberately sharing no code with the
library's bit-packed kernels.
"""

from functools import lru_cache


def to_coeffs(n):
    return [(n >> i) & 1 for i in range(n.bit_length())] if n else []


def from_coeffs(cs):
    n = 0
    for i, c in enumerate(cs):
        if c & 1:
            n |= 1 << i
    return n


def horner_conj(n):
    """n(x+1), by Horner's rule one coefficient at a time: r <- r(x+1) + c."""
    r = 0
    for c in reversed(to_coeffs(n)):
        r = (r << 1) ^ r ^ c
    return r


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def school_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] ^= c
    for i, c in enumerate(q):
        out[i] ^= c
    return _trim(out)


def school_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] ^= b
    return _trim(out)


def school_divmod(p, d):
    assert d, "division by zero"
    r = list(p)
    q = [0] * max(len(p) - len(d) + 1, 1)
    while len(r) >= len(d):
        shift = len(r) - len(d)
        q[shift] ^= 1
        for i, c in enumerate(d):
            r[shift + i] ^= c
        _trim(r)
    return _trim(q), r


def school_gcd(p, q):
    while q:
        p, q = q, school_divmod(p, q)[1]
    return p


def divides(d, n):
    return school_divmod(to_coeffs(n), to_coeffs(d))[1] == []


def all_divisors(n):
    """Divisors of n by trial division over every smaller polynomial."""
    return [d for d in range(1, n + 1)
            if d.bit_length() <= n.bit_length() and divides(d, n)]


def unitary_divisors(n):
    out = []
    for d in all_divisors(n):
        cof = from_coeffs(school_divmod(to_coeffs(n), to_coeffs(d))[0])
        if from_coeffs(school_gcd(to_coeffs(d), to_coeffs(cof))) == 1:
            out.append(d)
    return out


def greatest_common_unitary_divisor(a, b):
    common = set(unitary_divisors(a)) & set(unitary_divisors(b))
    return max(common, key=lambda d: (d.bit_length(), d))


def biunitary_divisors_brute(n):
    out = []
    for d in all_divisors(n):
        cof = from_coeffs(school_divmod(to_coeffs(n), to_coeffs(d))[0])
        if greatest_common_unitary_divisor(d, cof) == 1:
            out.append(d)
    return out


def xor_sum(values):
    total = 0
    for v in values:
        total ^= v
    return total


@lru_cache(maxsize=None)
def sigma2star_brute(n):
    """sigma**(n) by definition: the sum of its bi-unitary divisors."""
    return xor_sum(biunitary_divisors_brute(n))
