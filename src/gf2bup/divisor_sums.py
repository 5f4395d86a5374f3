"""The divisor-sum functions sigma, sigma* and sigma** over GF(2)[x].

sigma sums all divisors, sigma* the unitary divisors (gcd(D, S/D) = 1) and
sigma** the bi-unitary divisors (gcd_u(D, S/D) = 1, where gcd_u is the
greatest common unitary divisor).  All three are multiplicative, so general
inputs are handled by factoring and combining closed forms on prime powers:

    sigma(P^h)    = 1 + P + ... + P^h
    sigma*(P^h)   = 1 + P^h
    sigma**(P^2n) = (1+P) sigma(P^n) sigma(P^(n-1));  sigma**(P^odd) = sigma(P^odd)

A degree-capped brute-force enumeration of the bi-unitary divisor lattice
is provided as an independent oracle for the closed forms.
"""

from itertools import product as _iproduct

from .factor import _factorize_cached, is_irreducible
from .gf2poly import Gf2Poly, _Frozen, _deg, _exponents, _mul, _nonzero, _pow

__all__ = [
    "PrimePower",
    "sigma_prime_power", "sigma", "sigma_star",
    "sigma_2star_prime_power", "sigma_2star",
    "gcd_unitary", "biunitary_divisors", "odd_exponent_form",
    "ORACLE_DEGREE_BOUND",
]

# biunitary_divisors refuses inputs above this degree unless overridden;
# the divisor lattice grows exponentially with the exponent pattern.
ORACLE_DEGREE_BOUND = 24


class PrimePower(_Frozen):
    """An irreducible base raised to a nonnegative exponent."""

    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        base = Gf2Poly(base)
        _exponents((exp,))
        if not is_irreducible(base):
            raise ValueError(f"base {base} is not irreducible")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)


def _sigma_pp_int(base, exp):
    # Horner: 1 + P(1 + P(...)) has exp+1 terms; the innermost is P + 1.
    if not exp:
        return 1
    r = base ^ 1
    for _ in range(exp - 1):
        r = _mul(r, base) ^ 1
    return r


def _sigma2star_pp_int(base, exp):
    if exp == 0:
        return 1
    if exp & 1:
        return _sigma_pp_int(base, exp)
    n = exp // 2
    r = _mul(base ^ 1, _sigma_pp_int(base, n))
    return _mul(r, _sigma_pp_int(base, n - 1))


def sigma_prime_power(pp):
    """sigma(P^h) = sum of P^l for l = 0..h."""
    return Gf2Poly(_sigma_pp_int(pp.base.value, pp.exp))


def sigma_2star_prime_power(pp):
    """sigma**(P^h) via the closed forms; the base never divides the result."""
    return Gf2Poly(_sigma2star_pp_int(pp.base.value, pp.exp))


def _multiplicative(pairs, pp_func):
    """Product of pp_func(P, e) over the prime powers (P, e) in pairs.

    When pairs is the factorization of n, this is the multiplicative
    function of n with values pp_func on prime powers.
    """
    r = 1
    for base, exp in pairs:
        r = _mul(r, pp_func(base, exp))
    return r


def sigma(s):
    """Sum of all divisors; sigma(1) = 1."""
    return Gf2Poly(_multiplicative(
        _factorize_cached(_nonzero(s, "sigma")), _sigma_pp_int))


def sigma_star(s):
    """Sum of unitary divisors; on prime powers 1 + P^h."""
    return Gf2Poly(_multiplicative(_factorize_cached(_nonzero(s, "sigma*")),
                                   lambda b, e: _pow(b, e) ^ 1))


def sigma_2star(s):
    """Sum of bi-unitary divisors; deg sigma**(s) = deg s."""
    return Gf2Poly(_multiplicative(
        _factorize_cached(_nonzero(s, "sigma**")), _sigma2star_pp_int))


def gcd_unitary(s, t):
    """Greatest common unitary divisor.

    Per irreducible P this keeps P^e when both arguments have exactly
    exponent e, and drops P otherwise; on powers of a single prime that is
    gcd_u(T^k, T^l) = T^k if k = l else 1.
    """
    a = _nonzero(s, "gcd_u")
    b = _nonzero(t, "gcd_u")
    vb = dict(_factorize_cached(b))
    r = 1
    for base, ea in _factorize_cached(a):
        if vb.get(base) == ea:
            r = _mul(r, _pow(base, ea))
    return Gf2Poly(r)


def biunitary_divisors(s, degree_bound=ORACLE_DEGREE_BOUND):
    """All divisors D of s with gcd_u(D, s/D) = 1, in canonical order.

    Brute-force oracle: walks the factorization exponent lattice and tests
    each divisor against its cofactor with gcd_unitary.  Refuses inputs of
    degree above degree_bound.
    """
    _exponents((degree_bound,), least=None)
    n = _nonzero(s, "the bi-unitary divisor list")
    if _deg(n) > degree_bound:
        raise ValueError(
            f"degree {_deg(n)} exceeds the oracle bound {degree_bound}")
    fac = _factorize_cached(n)
    bases = [base for base, _ in fac]
    exps = [exp for _, exp in fac]
    out = []
    for choice in _iproduct(*(range(e + 1) for e in exps)):
        d = 1
        cof = 1
        for base, e, k in zip(bases, exps, choice):
            d = _mul(d, _pow(base, k))
            cof = _mul(cof, _pow(base, e - k))
        if gcd_unitary(Gf2Poly(d), Gf2Poly(cof)) == 1:
            out.append(Gf2Poly(d))
    out.sort()
    return out


def odd_exponent_form(a):
    """Decompose an odd a as 2^alpha * u - 1 with u odd; returns (alpha, u)."""
    _exponents((a,), least=None)
    if a < 1 or a % 2 == 0:
        raise ValueError("argument must be a positive odd integer")
    m = a + 1
    alpha = (m & -m).bit_length() - 1
    return alpha, m >> alpha
