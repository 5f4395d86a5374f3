"""Mersenne polynomials over GF(2): 1 + x^a (x+1)^b with gcd(a, b) = 1.

A Mersenne prime is an irreducible Mersenne polynomial.  Exactly five have
degree at most 4; they are the distinguished set M1..M5 that carries the
whole bi-unitary search.
"""

from math import gcd as _int_gcd

from .factor import is_irreducible
from .gf2poly import (
    Gf2Poly, _Frozen, _exponents, _int_of, _mul, _nonzero, _pow, _valuations,
)

__all__ = [
    "MersenneForm",
    "mersenne_poly", "is_mersenne_prime", "enumerate_mersenne_primes",
    "in_M5_set",
    "M1", "M2", "M3", "M4", "M5", "M_SET",
]

# enumerate_mersenne_primes refuses degrees above this: its time grows about
# as max_degree^3.4 (0.2 s at 64 and 1.7 to 2.4 s at 128 on a shared 2-core
# Xeon VM, Python 3.11.7), so an unbounded max_degree could run for hours.
_MAX_ENUMERATION_DEGREE = 128


class MersenneForm(_Frozen):
    """Exponent pair (a, b) denoting 1 + x^a (x+1)^b, gcd(a, b) = 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        _exponents((a, b), least=1)
        if _int_gcd(a, b) != 1:
            raise ValueError(f"gcd({a}, {b}) != 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self):
        return self.a + self.b


def mersenne_poly(form):
    """Expand 1 + x^a (x+1)^b."""
    return Gf2Poly(_mul(1 << form.a, _pow(3, form.b)) ^ 1)


def is_mersenne_prime(p):
    """The MersenneForm of p when p is a Mersenne prime, else None."""
    n = _nonzero(p, "Mersenne classification")
    if n.bit_length() < 3:  # minimum Mersenne degree is 2
        return None
    a, b, odd = _valuations(n ^ 1)
    if odd != 1 or a < 1 or b < 1 or _int_gcd(a, b) != 1:
        return None
    if not is_irreducible(n):
        return None
    return MersenneForm(a, b)


def enumerate_mersenne_primes(max_degree):
    """All Mersenne primes of degree <= max_degree, ordered by (degree, a)."""
    _exponents((max_degree,), least=None)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    if max_degree > _MAX_ENUMERATION_DEGREE:
        raise ValueError(f"max_degree {max_degree} exceeds the limit "
                         f"{_MAX_ENUMERATION_DEGREE}")
    out = []
    for degree in range(2, max_degree + 1):
        for a in range(1, degree):
            b = degree - a
            if _int_gcd(a, b) != 1:
                continue
            form = MersenneForm(a, b)
            p = mersenne_poly(form)
            if is_irreducible(p):
                out.append((form, p))
    return out


# x^2+x+1, x^3+x+1, x^3+x^2+1, x^4+x^3+x^2+x+1, x^4+x^3+1: the paper's order
# (by degree, then a), and the unpacking checks that exactly five exist.
M_SET = M1, M2, M3, M4, M5 = tuple(p for _, p in enumerate_mersenne_primes(4))

_M_INDEX = {p.value: i + 1 for i, p in enumerate(M_SET)}


def in_M5_set(p):
    """Index 1..5 when p is one of M1..M5, else None."""
    return _M_INDEX.get(_int_of(p))
