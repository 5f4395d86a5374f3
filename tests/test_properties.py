"""Property tests: ring laws, the gcd, the conjugation automorphism, the
text round trip, multiplicativity of sigma**, and factorize against sympy.

Derandomized and without an example database, so every run draws the same
examples; conftest.py keeps hypothesis's other caches out of the checkout.
"""

import random

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gf2bup import (
    ONE, ZERO, Gf2Poly, conjugate, divrem, factorize, format_poly, gcd,
    parse, sigma_2star,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


def polys(max_degree, min_degree=0):
    """Nonzero polynomials; the degree is drawn first, so all are reached."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.integers(1 << d, (2 << d) - 1)).map(Gf2Poly)


nonzero = polys(48)
small = st.just(ZERO) | nonzero


@DETERMINISTIC
@given(small, small, small)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p and p * ONE == p and p * ZERO == ZERO
    assert p + p == ZERO  # characteristic 2


@DETERMINISTIC
@given(small, nonzero)
def test_division_identity(p, d):
    q, r = divrem(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


@DETERMINISTIC
@given(small, small)
def test_conjugate_is_an_involutive_automorphism(p, q):
    assert conjugate(conjugate(p)) == p
    assert conjugate(p + q) == conjugate(p) + conjugate(q)
    assert conjugate(p * q) == conjugate(p) * conjugate(q)
    assert conjugate(ONE) == ONE
    assert conjugate(p).degree == p.degree


@DETERMINISTIC
@given(st.just(ZERO) | polys(160), st.just(ZERO) | polys(160), polys(40))
def test_gcd_divides_both_and_leaves_coprime_cofactors(s, t, c):
    s, t = s * c, t * c  # a common factor, so that gcds are not all 1
    assume(s != ZERO or t != ZERO)
    g = gcd(s, t)
    (s_g, s_r), (t_g, t_r) = divrem(s, g), divrem(t, g)
    assert s_r == ZERO and t_r == ZERO
    assert divrem(g, c)[1] == ZERO
    assert gcd(s_g, t_g) == ONE


@DETERMINISTIC
@given(st.just(ZERO) | polys(200), st.sampled_from(["expanded", "hex"]))
def test_parse_format_round_trip(p, style):
    assert parse(format_poly(p, style)) == p


@DETERMINISTIC
@given(polys(24), polys(24))
def test_sigma_2star_multiplicative_on_coprime_pairs(s, t):
    assume(gcd(s, t) == ONE)
    assert sigma_2star(s * t) == sigma_2star(s) * sigma_2star(t)


def _sympy_factors(p):
    """(int value, exponent) pairs of p's factorization, computed by sympy."""
    x = sympy.Symbol("x")
    coeffs = [(p.value >> i) & 1 for i in range(p.degree, -1, -1)]
    _, factors = sympy.Poly(coeffs, x, modulus=2).factor_list()
    out = []
    for f, e in factors:
        n = 0
        for c in f.all_coeffs():
            n = (n << 1) | (int(c) % 2)
        out.append((n, e))
    return sorted(out)


@settings(DETERMINISTIC, max_examples=40)
@given(polys(64, min_degree=1))
def test_factorize_matches_sympy(p):
    assert [(q.value, e) for q, e in factorize(p)] == _sympy_factors(p)


def test_factorize_matches_sympy_at_degree_256():
    # about 1-2 s of sympy per input
    rng = random.Random(256)
    for _ in range(2):
        p = Gf2Poly((1 << 256) | rng.getrandbits(256))
        assert [(q.value, e) for q, e in factorize(p)] == _sympy_factors(p)
