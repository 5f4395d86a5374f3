"""Irreducibility testing and complete factorization over GF(2).

The pipeline is square-free decomposition (formal derivative plus repeated
square roots), distinct-degree splitting driven by the Frobenius map
x -> x^2 (with blocked gcds above a degree crossover), and Cantor-Zassenhaus
equal-degree splitting with random trace polynomials.  The randomness comes
from a generator instantiated per call and seeded deterministically, and
factors are returned in canonical order (ascending degree, then ascending
value), so output never depends on the seed.
"""

import random
from functools import lru_cache, reduce

from .gf2poly import (
    Gf2Poly, _Frozen, _deg, _derivative, _divmod, _gcd, _int_of, _mod,
    _modulus, _mul, _nonzero, _pow, _sq, _sqrt, _valuations,
)

__all__ = [
    "Factorization",
    "factorize", "is_irreducible", "omega", "is_odd", "is_squarefree",
]

DEFAULT_SEED = 0x5EED
_SEED_MIX = 0x9E3779B97F4A7C15

# From this degree of the current modulus on, the Frobenius loops square
# through the fixed-modulus kernels (gf2poly._modulus) and the
# distinct-degree split takes one gcd per block of _DDF_BLOCK steps; below
# it building the tables and the blocked products cost more than they save
# (factoring random inputs both ways breaks even between degrees 120 and
# 136).  The split reads it once, from its input's degree.
# A block of 32 steps beat 16 by 4 to 5% at degree 1024, as squarings are
# cheap next to a gcd.
_FIXED_MODULUS_MIN_DEGREE = 128
_DDF_BLOCK = 32
# is_irreducible squares deg p times modulo the same p, so there the tables
# pay for themselves from a much lower degree (break-even between 36 and 40).
_IRREDUCIBLE_TABLE_MIN_DEGREE = 40


def _prime_divisors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _quotient(a, b):
    """a / b for a divisor b of a; b = 1 takes no division, which would
    walk a bit by bit."""
    return a if b == 1 else _divmod(a, b)[0]


def _sff(f):
    """Square-free decomposition: pairwise coprime (g, m) with f = prod g^m."""
    out = []
    c = _gcd(f, _derivative(f))  # f itself when f is a square
    w = _quotient(f, c)
    i = 1
    while w != 1:
        y = _gcd(w, c)
        z = _quotient(w, y)
        if z != 1:
            out.append((z, i))
        w = y
        c = _quotient(c, y)
        i += 1
    if c != 1:
        for g, m in _sff(_sqrt(c)):
            out.append((g, 2 * m))
    return out


def _ddf(f, w=2, d=0, block=None):
    """Distinct-degree split of a square-free f with no factor of degree
    <= d, given w = x^(2^d) mod f: (product, degree) pairs.

    Each block squares w from its start step to its end, multiplies the
    x^(2^i) - x for i in (skip, end] together mod f, and takes one gcd g
    with f (von zur Gathen and Shoup).  Every factor of degree <= start is
    already divided out, and every k in (start, end] has a multiple in
    (skip, end], so g is the product of f's factors whose degree lies in
    (start, end]; its own call from the start step parts it by degree.
    The f a call starts with fixes its blocks: from
    _FIXED_MODULUS_MIN_DEGREE on, _DDF_BLOCK steps through f's kernels;
    below it, or when parting a block's g, one step squared plainly.  A
    block skips no product (skip = start), except the first one of a
    blocked call with q // 2 > d + _DDF_BLOCK, q = deg f // 4: it closes
    (d, q] with half the products, skip = q // 2, as a k <= q // 2 has its
    largest multiple up to q above q - k >= q // 2.  Its g, which may be
    large, is parted with blocks worked out from g, or, if g = f, the
    blocks start again at step d (its own call would recurse without end).
    The blocks step past deg f / 4 anyway whenever the largest factor has
    over half of f's degree, and then the first block saves q // 2 - d
    products.
    """
    if block is None:
        block = _DDF_BLOCK if f >> _FIXED_MODULUS_MIN_DEGREE else 1
    out = []
    square_f = None  # f's kernels, built again once a block divides f
    low = block > 1 and _deg(f) // 8 > d + block  # the first block is low
    while f != 1 and _deg(f) >= 2 * (d + 1):
        if square_f is None:
            mulmod_f, square_f = (_modulus(f) if block > 1
                                  else (None, lambda a, f=f: _mod(_sq(a), f)))
        start, w_start = d, w
        skip, end = ((_deg(f) // 8, _deg(f) // 4) if low
                     else (d, min(d + block, _deg(f) // 2)))
        while d <= skip:
            d += 1
            w = square_f(w)
        product = w ^ 2
        while d < end:
            d += 1
            w = square_f(w)
            product = mulmod_f(product, w ^ 2)
        g = _gcd(f, product)
        if g == f and low:
            d, w = start, w_start
        elif g != 1:
            f, _ = _divmod(f, g)
            w = _mod(w, f)
            square_f = None  # frees the squaring rows before f's are built
            out += ([(g, d)] if d - start == 1
                    else _ddf(g, _mod(w_start, g), start, None if low else 1))
        low = False
    if f != 1:
        out.append((f, _deg(f)))
    return out


def _edf(f, d, rng):
    """Split f, a product of >= 2 distinct irreducibles of degree d."""
    if _deg(f) == d:
        return [f]
    g = _edf_divisor(f, d, rng)
    q, _ = _divmod(f, g)
    return _edf(g, d, rng) + _edf(q, d, rng)


def _edf_divisor(f, d, rng):
    """A proper divisor of f, as in _edf, from random trace polynomials
    (Cantor and Zassenhaus).  Its squaring rows are freed on return, before
    _edf splits the parts."""
    n = _deg(f)
    square_f = (_modulus(f)[1] if n >= _FIXED_MODULUS_MIN_DEGREE
                else lambda a: _mod(_sq(a), f))
    while True:
        t = rng.getrandbits(n)
        if t < 2:
            continue
        tr = t
        s = t
        for _ in range(d - 1):
            s = square_f(s)
            tr ^= s
        g = _gcd(f, tr)
        if g == 1 or g == f:
            g = _gcd(f, tr ^ 1)
        if g != 1 and g != f:
            return g


def _factorize_int(n, seed):
    counts = {}
    a, b, n = _valuations(n)
    if a:
        counts[2] = a
    if b:
        counts[3] = b
    if n > 1:
        rng = None  # seeded when _edf first needs it; most inputs never do
        for part, mult in _sff(n):
            for prod, d in _ddf(part):
                if _deg(prod) == d:
                    counts[prod] = counts.get(prod, 0) + mult
                else:
                    if rng is None:
                        rng = random.Random(seed * _SEED_MIX + n)
                    for p in _edf(prod, d, rng):
                        counts[p] = counts.get(p, 0) + mult
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=1 << 18)
def _factorize_cached(n):
    return _factorize_int(n, DEFAULT_SEED)


class Factorization(_Frozen):
    """Canonically ordered multiset of (irreducible, exponent) pairs."""

    __slots__ = ("factors",)  # a tuple of (Gf2Poly, int)

    def __init__(self, factors):
        # a tuple, so that equal factorizations hash alike whatever the
        # factors were built from
        object.__setattr__(self, "factors", tuple(factors))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def product(self):
        """Multiply the prime powers back together."""
        n = reduce(_mul, (_pow(p.value, e) for p, e in self.factors), 1)
        return Gf2Poly(n)

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            base = str(p)
            if "+" in base:
                base = f"({base})"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "*".join(parts)


def factorize(p):
    """Complete factorization of a nonzero polynomial."""
    pairs = _factorize_cached(_nonzero(p, "factorization"))
    return Factorization((Gf2Poly(q), e) for q, e in pairs)


def is_irreducible(p):
    """True iff p has no nonconstant proper divisor; p must be nonconstant.

    Uses the Frobenius criterion: x^(2^n) = x mod p together with
    gcd(x^(2^(n/q)) - x, p) = 1 for every prime q dividing n = deg p.
    """
    n = _int_of(p)
    deg = _deg(n)
    if deg < 1:
        raise ValueError("irreducibility is undefined for constants")
    if deg == 1:
        return True
    square_n = (_modulus(n)[1] if deg >= _IRREDUCIBLE_TABLE_MIN_DEGREE
                else lambda a: _mod(_sq(a), n))
    # One pass of squarings keeps x^(2^(n/q)) as it goes past step n/q.
    checkpoints = {deg // q for q in _prime_divisors(deg)}
    kept = []
    w = 2
    for step in range(1, deg + 1):
        w = square_n(w)
        if step in checkpoints:
            kept.append(w)
    if w != 2:
        return False
    return all(_gcd(w_q ^ 2, n) == 1 for w_q in kept)


def omega(p):
    """Number of distinct irreducible factors; omega(1) = 0."""
    return len(_factorize_cached(_nonzero(p, "omega")))


def is_odd(p):
    """True iff gcd(p, x(x+1)) = 1, i.e. neither x nor x+1 divides p."""
    n = _nonzero(p, "parity")
    return bool(n & 1) and bool(n.bit_count() & 1)


def is_squarefree(p):
    """True iff no irreducible factor repeats (derivative criterion)."""
    n = _nonzero(p, "square-freeness")
    d = _derivative(n)
    if d == 0:
        return n == 1  # nonconstant with zero derivative is a perfect square
    return _gcd(n, d) == 1
