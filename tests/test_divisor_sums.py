import random

import pytest

import oracles
from gf2bup import (
    Gf2Poly, ONE, PrimePower, X, X1, ZERO,
    biunitary_divisors, conjugate, factorize, gcd, gcd_unitary,
    is_mersenne_prime, is_odd, odd_exponent_form, parse, power,
    sigma, sigma_2star, sigma_2star_prime_power, sigma_prime_power, sigma_star,
)
from gf2bup.divisor_sums import _sigma_pp_int
from gf2bup.mersenne import M1, M2, M3, M4, M5, M_SET

RNG_SEED = 777001

SUPPORT_T = (X, X1, M1, M2, M3, M4, M5)


def rand_nonzero(rng, max_degree):
    return Gf2Poly(rng.randrange(1, 1 << (max_degree + 1)))


def odd_prime_factors(p):
    return [base for base, _ in factorize(p) if base not in (X, X1)]


class TestSigmaPrimePower:
    def test_sigma_x2_is_m1(self):
        assert sigma_prime_power(PrimePower(X, 2)) == M1

    def test_sigma_x4_is_m4(self):
        assert sigma_prime_power(PrimePower(X, 4)) == M4

    def test_sigma_x6_is_m2_m3(self):
        assert sigma_prime_power(PrimePower(X, 6)) == M2 * M3

    def test_base_must_be_irreducible(self):
        with pytest.raises(ValueError):
            PrimePower(parse("x^2+1"), 2)

    def test_int_base_is_stored_as_a_polynomial(self):
        pp = PrimePower(3, 2)
        assert type(pp.base) is Gf2Poly and pp == PrimePower(X1, 2)
        assert sigma_prime_power(pp) == sigma_prime_power(PrimePower(X1, 2))
        assert sigma_2star_prime_power(pp) \
            == sigma_2star_prime_power(PrimePower(X1, 2))

    @pytest.mark.parametrize("exp", [True, 2.0, "2", None])
    def test_exponent_must_be_an_int(self, exp):
        with pytest.raises(TypeError):
            PrimePower(X, exp)

    @pytest.mark.parametrize("exp", [0, 1, 2])
    def test_low_exponents_match_schoolbook(self, exp):
        # Horner starts from P + 1, not from 1 * P + 1
        for base in (X, X1, M1, M5, parse("x^127+x+1")):
            p = oracles.to_coeffs(base.value)
            expected, term = [1], [1]
            for _ in range(exp):
                term = oracles.school_mul(term, p)
                expected = oracles.school_add(expected, term)
            assert _sigma_pp_int(base.value, exp) \
                == oracles.from_coeffs(expected), (base, exp)


class TestSigma:
    def test_square_product(self):
        # sigma(x^2) * sigma((x+1)^2) = M1 * conjugate(M1) = M1^2
        assert sigma(parse("x^2*(x+1)^2")) == M1 * M1

    def test_unit(self):
        assert sigma(ONE) == ONE

    def test_x_x1(self):
        assert sigma(parse("x^2+x")) == parse("x^2+x")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma(ZERO)

    def test_matches_divisor_sum_oracle(self):
        for n in range(1, 1 << 9):
            expected = oracles.xor_sum(oracles.all_divisors(n))
            assert sigma(Gf2Poly(n)).value == expected


class TestGcdUnitary:
    def test_equal_exponents(self):
        assert gcd_unitary(parse("x^3"), parse("x^3")) == parse("x^3")

    def test_distinct_exponents(self):
        assert gcd_unitary(parse("x^3"), parse("x^5")) == ONE

    def test_mixed(self):
        left = parse("x^2*(x+1)")
        right = parse("x^2*(x+1)^3")
        assert gcd_unitary(left, right) == parse("x^2")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_unitary(ZERO, X)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(RNG_SEED)
        for _ in range(60):
            a = rng.randrange(1, 1 << 9)
            b = rng.randrange(1, 1 << 9)
            got = gcd_unitary(Gf2Poly(a), Gf2Poly(b)).value
            assert got == oracles.greatest_common_unitary_divisor(a, b)
            # every common unitary divisor divides the greatest one
            common = (set(oracles.unitary_divisors(a))
                      & set(oracles.unitary_divisors(b)))
            assert all(oracles.divides(d, got) for d in common)


class TestSigmaStar:
    def test_x_squared(self):
        assert sigma_star(parse("x^2")) == parse("(x+1)^2")

    def test_unit(self):
        assert sigma_star(ONE) == ONE

    def test_x_x1(self):
        assert sigma_star(parse("x^2+x")) == parse("x^2+x")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma_star(ZERO)

    def test_matches_unitary_divisor_sum_oracle(self):
        for n in range(1, 1 << 9):
            expected = oracles.xor_sum(oracles.unitary_divisors(n))
            assert sigma_star(Gf2Poly(n)).value == expected


class TestSigma2StarPrimePower:
    def test_x_squared(self):
        assert sigma_2star_prime_power(PrimePower(X, 2)) == parse("(x+1)^2")

    def test_x_fourth(self):
        assert sigma_2star_prime_power(PrimePower(X, 4)) \
            == parse("(x+1)^2") * M1

    def test_m2_fourth(self):
        expected = parse("x^2*(x+1)^4") * M1 * M5
        assert sigma_2star_prime_power(PrimePower(M2, 4)) == expected

    def test_exponent_zero(self):
        assert sigma_2star_prime_power(PrimePower(X, 0)) == ONE

    def test_degree_preserved_and_base_coprime(self):
        # Corollary: deg sigma**(T^c) = c deg T and T never divides it
        for t in SUPPORT_T:
            for c in range(0, 65):
                s = sigma_2star_prime_power(PrimePower(t, c))
                assert s.degree == c * t.degree if c else s == ONE
                assert s % t != ZERO


class TestSigma2Star:
    def test_fixpoint(self):
        p = parse("x^2*(x+1)^2")
        assert sigma_2star(p) == p

    def test_not_fixpoint(self):
        assert sigma_2star(parse("x*(x+1)^2")) == parse("x^2*(x+1)")

    def test_c1_fixpoint(self):
        c1 = parse("x^3*(x+1)^4*(x^2+x+1)")
        assert sigma_2star(c1) == c1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma_2star(ZERO)

    def test_degree_preserved(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(200):
            p = rand_nonzero(rng, 48)
            assert sigma_2star(p).degree == p.degree

    def test_fully_independent_oracle(self):
        # against trial-division divisor enumeration, nothing shared
        for n in range(1, 1 << 9):
            expected = oracles.sigma2star_brute(n)
            assert sigma_2star(Gf2Poly(n)).value == expected

    def test_multiplicativity(self):
        rng = random.Random(RNG_SEED + 2)
        found = 0
        while found < 60:
            s = rand_nonzero(rng, 20)
            t = rand_nonzero(rng, 20)
            if gcd(s, t) != ONE:
                continue
            found += 1
            assert sigma_2star(s * t) == sigma_2star(s) * sigma_2star(t)
            assert sigma(s * t) == sigma(s) * sigma(t)
            assert sigma_star(s * t) == sigma_star(s) * sigma_star(t)

    def test_even_part_split_matches_closed_forms(self):
        # x^a (x+1)^b q with q coprime to x(x+1): each function is the
        # product of its prime-power closed forms
        rng = random.Random(RNG_SEED + 4)
        closed = {
            sigma: lambda t, e: sigma_prime_power(PrimePower(t, e)),
            sigma_star: lambda t, e: ONE + power(t, e),
            sigma_2star: lambda t, e: sigma_2star_prime_power(
                PrimePower(t, e)),
        }
        for a in range(41):
            for b in range(41):
                q = rand_nonzero(rng, 16)
                while not is_odd(q):
                    q = rand_nonzero(rng, 16)
                pairs = [(t, e) for t, e in [(X, a), (X1, b)] if e]
                pairs += list(factorize(q))
                s = power(X, a) * power(X1, b) * q
                for func, pp in closed.items():
                    expected = ONE
                    for t, e in pairs:
                        expected = expected * pp(t, e)
                    assert func(s) == expected, (func.__name__, a, b, q)

    def test_conjugation_equivariance(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(150):
            s = rand_nonzero(rng, 32)
            assert sigma_2star(conjugate(s)) == conjugate(sigma_2star(s))


class TestBiunitaryDivisors:
    def test_x_squared(self):
        assert biunitary_divisors(parse("x^2")) == [ONE, parse("x^2")]

    def test_x_cubed(self):
        assert biunitary_divisors(parse("x^3")) \
            == [ONE, X, parse("x^2"), parse("x^3")]

    def test_unit(self):
        assert biunitary_divisors(ONE) == [ONE]

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            biunitary_divisors(power(X, 25))
        assert biunitary_divisors(power(X, 25), degree_bound=30)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            biunitary_divisors(ZERO)

    def test_matches_trial_division_oracle(self):
        for n in range(1, 1 << 8):
            got = [d.value for d in biunitary_divisors(Gf2Poly(n))]
            assert got == oracles.biunitary_divisors_brute(n)


class TestOddExponentForm:
    def test_seven(self):
        assert odd_exponent_form(7) == (3, 1)

    def test_eleven(self):
        assert odd_exponent_form(11) == (2, 3)

    def test_fifty_five(self):
        assert odd_exponent_form(55) == (3, 7)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            odd_exponent_form(6)
        with pytest.raises(ValueError):
            odd_exponent_form(0)

    def test_unique_reconstruction(self):
        for a in range(1, 1000, 2):
            alpha, u = odd_exponent_form(a)
            assert a == (1 << alpha) * u - 1
            assert alpha >= 1 and u % 2 == 1


class TestClosedForms:
    def test_equation_table(self):
        # the seven explicit sigma** identities, verbatim for each T
        for t in SUPPORT_T:
            one_t = ONE + t
            s2 = sigma(power(t, 2))
            s4 = sigma(power(t, 4))
            s6 = sigma(power(t, 6))
            table = {
                2: power(one_t, 2),
                4: power(one_t, 2) * s2,
                6: power(one_t, 4) * s2,
                8: power(one_t, 4) * s4,
                10: power(one_t, 2) * s2 * s2 * s4,
                12: power(one_t, 2) * s2 * s2 * s6,
                14: power(one_t, 8) * s6,
            }
            for exp, expected in table.items():
                assert sigma_2star(power(t, exp)) == expected, (t, exp)

    def test_even_odd_split(self):
        # sigma**(T^2n) = (1+T) sigma(T^n) sigma(T^(n-1)); odd exponents
        # reduce to plain sigma
        for t in SUPPORT_T:
            for n in range(1, 13):
                even = sigma_2star_prime_power(PrimePower(t, 2 * n))
                assert even == (ONE + t) * sigma(power(t, n)) \
                    * sigma(power(t, n - 1))
                odd = sigma_2star_prime_power(PrimePower(t, 2 * n + 1))
                assert odd == sigma(power(t, 2 * n + 1))

    def test_exponent_decomposition_forms(self):
        # the three closed forms keyed by a mod 4, for a <= 64
        for t in SUPPORT_T:
            for a in range(1, 65):
                got = sigma_2star_prime_power(PrimePower(t, a))
                if a % 2 == 1:
                    alpha, u = odd_exponent_form(a)
                    expected = power(ONE + t, (1 << alpha) - 1) \
                        * power(sigma(power(t, u - 1)), 1 << alpha)
                else:
                    r = a // 4
                    if a % 4 == 0:
                        alpha, u = odd_exponent_form(2 * r - 1)
                    else:
                        alpha, u = odd_exponent_form(2 * r + 1)
                    expected = power(ONE + t, 1 << alpha) \
                        * sigma(power(t, 2 * r)) \
                        * power(sigma(power(t, u - 1)), 1 << alpha)
                    assert gcd(sigma(power(t, 2 * r)),
                               sigma(power(t, u - 1))) == ONE
                assert got == expected, (t, a)


class TestDivisorLatticeOracles:
    @staticmethod
    def _lattice_sums(p):
        # enumerate the divisor lattice; sum everything (sigma) and the
        # unitary divisors picked by an actual gcd with the cofactor
        from itertools import product as iproduct
        fac = factorize(p)
        bases = [base for base, _ in fac]
        exps = [e for _, e in fac]
        full = 0
        unitary = 0
        for choice in iproduct(*(range(e + 1) for e in exps)):
            d = ONE
            cof = ONE
            for base, e, k in zip(bases, exps, choice):
                d = d * power(base, k)
                cof = cof * power(base, e - k)
            full ^= d.value
            if gcd(d, cof) == ONE:
                unitary ^= d.value
        return full, unitary

    def test_exhaustive_degree_12(self):
        for n in range(1, 1 << 13):
            p = Gf2Poly(n)
            full, unitary = self._lattice_sums(p)
            assert sigma(p).value == full
            assert sigma_star(p).value == unitary

    def test_random_degree_24(self):
        rng = random.Random(RNG_SEED + 4)
        for _ in range(300):
            p = rand_nonzero(rng, 24)
            full, unitary = self._lattice_sums(p)
            assert sigma(p).value == full
            assert sigma_star(p).value == unitary


class TestMersenneBaseCorollaries:
    def test_m2_m3_never_divide_mersenne_power_sums(self):
        # neither M2 nor M3 divides sigma**(Mj^h) for the exponents a
        # fixpoint can carry ({0,2,4,6}, 2^n-1 or 3*2^n-1); outside that
        # set the claim genuinely fails, e.g. M2*M3 | sigma**(M1^12)
        allowed = sorted(({0, 2, 4, 6}
                          | {(1 << n) - 1 for n in range(1, 7)}
                          | {3 * (1 << n) - 1 for n in range(1, 6)})
                         & set(range(65)))
        for m_poly in M_SET:
            for h in allowed:
                s = sigma_2star_prime_power(PrimePower(m_poly, h))
                assert s % M2 != ZERO
                assert s % M3 != ZERO
        outside = sigma_2star(power(M1, 12))
        assert outside % M2 == ZERO and outside % M3 == ZERO

    def test_non_m23_even_powers_have_non_mersenne_divisor(self):
        # for M in {M1, M4, M5} and 2r >= 4, sigma**(M^2r) picks up an
        # odd prime outside the Mersenne family
        for m_poly in (M1, M4, M5):
            for r in range(2, 17):
                odd = odd_prime_factors(sigma_2star(power(m_poly, 2 * r)))
                assert odd
                assert any(is_mersenne_prime(q) is None for q in odd)

    def test_candidate_sums_only_reach_m5_mersennes(self):
        # every Mersenne-prime divisor of sigma** of a sampled candidate
        # already lies in {M1..M5}
        from itertools import islice
        from gf2bup import candidate_tuples
        for case in ("even-even", "odd-odd"):
            for ct in islice(candidate_tuples(case), 0, 20000, 997):
                s = sigma_2star(ct.expand())
                for q in odd_prime_factors(s):
                    if is_mersenne_prime(q):
                        assert q in M_SET


class TestScanLemmas:
    def test_splitting_criterion(self):
        # sigma**(x^a) splits over GF(2) iff a = 2 or a = 2^alpha - 1
        splitting = set()
        for a in range(1, 201):
            s = sigma_2star(power(X, a))
            if all(base in (X, X1) for base, _ in factorize(s)):
                splitting.add(a)
        expected = {2} | {(1 << k) - 1 for k in range(1, 9) if (1 << k) - 1 <= 200}
        assert splitting == expected

    def test_even_exponents_with_mersenne_only_odd_part(self):
        # nonempty odd part, all of it Mersenne, happens iff 2m in 4..14
        hits = set()
        for m in range(1, 33):
            odd = odd_prime_factors(sigma_2star(power(X, 2 * m)))
            if odd and all(is_mersenne_prime(q) for q in odd):
                hits.add(2 * m)
                assert all(q in M_SET for q in odd)
        assert hits == {4, 6, 8, 10, 12, 14}

    def test_odd_exponents_with_mersenne_only_odd_part(self):
        # for odd e, all odd prime divisors Mersenne iff u(e) in {1,3,5,7}
        # (u = 1 leaves a trivial odd part)
        for e in range(1, 128, 2):
            odd = odd_prime_factors(sigma_2star(power(X, e)))
            all_mersenne = all(is_mersenne_prime(q) for q in odd)
            _, u = odd_exponent_form(e)
            assert all_mersenne == (u in (1, 3, 5, 7)), e
            if all_mersenne and odd:
                assert all(q in M_SET for q in odd)

    def test_mersenne_base_even_exponents(self):
        # sigma**(M^2m) has a nonempty all-Mersenne odd part only for
        # M in {M2, M3} with 2m in {4, 6}; divisors land in {M1, M4, M5}
        hits = set()
        for m_poly in M_SET:
            for m in range(1, 33):
                odd = odd_prime_factors(sigma_2star(power(m_poly, 2 * m)))
                if odd and all(is_mersenne_prime(q) for q in odd):
                    hits.add((m_poly, 2 * m))
                    assert set(odd) <= {M1, M4, M5}
        assert hits == {(M2, 4), (M2, 6), (M3, 4), (M3, 6)}

    def test_mersenne_base_odd_exponents(self):
        # nonempty all-Mersenne odd part iff M in {M2, M3} and the exponent
        # is 3*2^alpha - 1
        hits = set()
        for m_poly in M_SET:
            for e in range(1, 65, 2):
                odd = odd_prime_factors(sigma_2star(power(m_poly, e)))
                if odd and all(is_mersenne_prime(q) for q in odd):
                    hits.add((m_poly, e))
                    assert set(odd) <= {M1, M4, M5}
        expected = {(m_poly, 3 * (1 << alpha) - 1)
                    for m_poly in (M2, M3) for alpha in range(1, 5)}
        assert hits == expected

    def test_sigma_symmetric_exponents(self):
        # sigma(x^h) = sigma((x+1)^h) iff h = 2^n - 2
        hits = {h for h in range(1, 63)
                if sigma(power(X, h)) == sigma(power(X1, h))}
        assert hits == {2, 6, 14, 30, 62}

    def test_m2_divisor_of_sigma2star_xa(self):
        # when M2 divides sigma**(x^a) then so does M3 (a <= 200)
        for a in range(1, 201):
            s = sigma_2star(power(X, a))
            if s % M2 == ZERO:
                assert s % M3 == ZERO
