from math import gcd

import pytest

from gf2bup import (
    MersenneForm, ONE, X, X1, ZERO,
    conjugate, enumerate_mersenne_primes, factorize, in_M5_set, is_irreducible,
    is_mersenne_prime, is_odd, mersenne_poly, parse, power, reciprocal, sigma,
)
from gf2bup import mersenne
from gf2bup.factor import _IRREDUCIBLE_TABLE_MIN_DEGREE
from gf2bup.mersenne import M1, M2, M3, M4, M5, M_SET


class TestMersennePoly:
    def test_m1(self):
        assert mersenne_poly(MersenneForm(1, 1)) == parse("x^2+x+1")

    def test_m2(self):
        assert mersenne_poly(MersenneForm(1, 2)) == parse("x^3+x+1")

    def test_m5(self):
        assert mersenne_poly(MersenneForm(3, 1)) == parse("x^4+x^3+1")

    def test_gcd_constraint(self):
        with pytest.raises(ValueError):
            MersenneForm(2, 2)
        with pytest.raises(ValueError):
            MersenneForm(0, 1)


class TestIsMersennePrime:
    def test_m3(self):
        assert is_mersenne_prime(parse("1+x^2+x^3")) == MersenneForm(2, 1)

    def test_reducible(self):
        assert is_mersenne_prime(parse("x^2+1")) is None

    def test_irreducible_but_not_mersenne(self):
        # 1 + x^5 + x^10 + x^15 + x^20 is irreducible, but adding 1 leaves
        # x^5 (x+1)^5 (x^4+x^3+x^2+x+1)^... with a non-split odd part
        p = parse("1+x^5+x^10+x^15+x^20")
        assert is_irreducible(p)
        stripped = factorize(p + ONE)
        assert any(base not in (X, X1) for base, _ in stripped)
        assert is_mersenne_prime(p) is None

    def test_x_is_not_mersenne(self):
        assert is_mersenne_prime(X) is None
        assert is_mersenne_prime(X1) is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_mersenne_prime(ZERO)

    def test_roundtrip_with_mersenne_poly(self):
        for form, p in enumerate_mersenne_primes(12):
            assert mersenne_poly(form) == p
            assert is_mersenne_prime(p) == form


class TestEnumerate:
    def test_degree_4_census(self):
        # M1..M5 are this enumeration: pin it to the paper's five, in order
        literals = ("x^2+x+1", "x^3+x+1", "x^3+x^2+1", "x^4+x^3+x^2+x+1",
                    "x^4+x^3+1")
        assert M_SET == tuple(parse(s) for s in literals)
        assert [(form.a, form.b) for form, _ in enumerate_mersenne_primes(4)
                ] == [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]

    def test_census_counts(self):
        # 153 at degree 64 was counted with the squaring loop that reduced
        # bit by bit and restarted from x for each prime divisor of the degree
        assert len(enumerate_mersenne_primes(8)) == 13
        assert len(enumerate_mersenne_primes(16)) == 31
        assert len(enumerate_mersenne_primes(64)) == 153

    def test_census_matches_factorize_above_the_table_switch(self):
        found = {p.value for _, p in enumerate_mersenne_primes(64)}
        for degree in range(_IRREDUCIBLE_TABLE_MIN_DEGREE, 65):
            for a in range(1, degree):
                if gcd(a, degree - a) != 1:
                    continue
                p = mersenne_poly(MersenneForm(a, degree - a))
                prime = factorize(p).factors == ((p, 1),)
                assert (p.value in found) == prime

    def test_degree_1_empty(self):
        assert enumerate_mersenne_primes(1) == []

    def test_degree_2(self):
        assert [p for _, p in enumerate_mersenne_primes(2)] == [M1]

    def test_degree_3(self):
        assert [p for _, p in enumerate_mersenne_primes(3)] == [M1, M2, M3]

    def test_canonical_order(self):
        entries = enumerate_mersenne_primes(10)
        keys = [(f.degree, f.a) for f, _ in entries]
        assert keys == sorted(keys)

    def test_enumerated_are_odd_irreducible(self):
        for _, p in enumerate_mersenne_primes(10):
            assert is_odd(p)
            assert is_irreducible(p)

    def test_degree_limit(self, monkeypatch):
        # refused before any irreducibility test runs
        def unreachable(p):
            raise AssertionError("is_irreducible reached")

        monkeypatch.setattr(mersenne, "is_irreducible", unreachable)
        limit = mersenne._MAX_ENUMERATION_DEGREE
        with pytest.raises(ValueError, match=f"exceeds the limit {limit}"):
            enumerate_mersenne_primes(limit + 1)

    def test_conjugation_closure(self):
        entries = dict(enumerate_mersenne_primes(12))
        by_value = {p.value: f for f, p in entries.items()}
        for form, p in entries.items():
            conj = conjugate(p)
            assert by_value[conj.value] == MersenneForm(form.b, form.a)


class TestSelfReciprocal:
    def test_census_to_degree_16(self):
        fixed = [p for _, p in enumerate_mersenne_primes(16)
                 if reciprocal(p) == p]
        assert fixed == [M1, M4]


class TestInM5Set:
    def test_m1(self):
        assert in_M5_set(parse("x^2+x+1")) == 1

    def test_non_mersenne_irreducible(self):
        p = parse("x^4+x+1")
        assert is_irreducible(p)
        assert is_mersenne_prime(p) is None
        assert in_M5_set(p) is None

    def test_x(self):
        assert in_M5_set(X) is None

    def test_all_five(self):
        assert [in_M5_set(p) for p in M_SET] == [1, 2, 3, 4, 5]


class TestSigmaScans:
    def test_sigma_even_power_is_mersenne_prime(self):
        # sigma(x^2r) is itself a Mersenne prime iff 2r in {2, 4}
        hits = {2 * r for r in range(1, 17)
                if is_mersenne_prime(sigma(power(X, 2 * r)))}
        assert hits == {2, 4}

    def test_sigma_even_power_mersenne_only_factors(self):
        # sigma(x^2n) has only Mersenne prime factors iff 2n in {2, 4, 6}
        hits = set()
        for n in range(1, 17):
            fac = factorize(sigma(power(X, 2 * n)))
            if all(is_mersenne_prime(base) for base, _ in fac):
                hits.add(2 * n)
        assert hits == {2, 4, 6}
