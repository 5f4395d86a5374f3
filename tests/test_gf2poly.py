import copy
import operator
import pickle
import random
import time

import pytest

import oracles
from gf2bup import (
    Gf2Poly, NEG_INF, ONE, ParseError, X, X1, ZERO,
    add, biunitary_divisors, conjugate, divrem, factorize, format_poly, gcd,
    gcd_unitary, in_M5_set, is_bup, is_indecomposable_bup, is_irreducible,
    is_mersenne_prime, is_odd, is_squarefree, mul, omega, parse, power,
    reciprocal, reduction_check, sigma, sigma_2star, sigma_star,
)
from gf2bup.gf2poly import (
    _COMB_MIN_WEIGHT, _conj, _deg, _gcd, _int_of, _mod, _modulus, _mul,
    _pow, _sq,
)
from gf2bup.mersenne import M1, M2, M3, M4, M5

RNG_SEED = 20250809

# every public function that takes a polynomial, each given -5 (or -1)
NEGATIVE_INT_CALLS = [
    (add, (-5, X)), (mul, (X, -5)), (divrem, (-5, X)), (divrem, (X, -5)),
    (gcd, (-1, 3)), (power, (-5, 2)), (conjugate, (-5,)),
    (reciprocal, (-5,)), (format_poly, (-5,)),
    (factorize, (-5,)), (is_irreducible, (-5,)), (omega, (-5,)),
    (is_odd, (-5,)), (is_squarefree, (-5,)),
    (sigma, (-5,)), (sigma_star, (-5,)), (sigma_2star, (-5,)),
    (gcd_unitary, (X, -5)), (biunitary_divisors, (-5,)),
    (is_mersenne_prime, (-5,)), (in_M5_set, (-5,)),
    (is_bup, (-5,)), (is_indecomposable_bup, (-5,)), (reduction_check, (-5,)),
    (operator.add, (X, -5)), (operator.mul, (X, -5)), (divmod, (X, -5)),
    (operator.lt, (X, -5)),
]

# every public function that takes a polynomial and refuses the zero
# polynomial, each given 0
ZERO_CALLS = [
    (reciprocal, (0,)), (Gf2Poly.reciprocal, (ZERO,)), (gcd, (0, 0)),
    (factorize, (0,)), (is_irreducible, (0,)), (omega, (0,)),
    (is_odd, (0,)), (is_squarefree, (0,)),
    (sigma, (0,)), (sigma_star, (0,)), (sigma_2star, (0,)),
    (gcd_unitary, (0, X)), (gcd_unitary, (X, 0)), (biunitary_divisors, (0,)),
    (is_mersenne_prime, (0,)),
    (is_bup, (0,)), (is_indecomposable_bup, (0,)), (reduction_check, (0,)),
]


def rand_poly(rng, max_degree):
    return Gf2Poly(rng.randrange(1 << (max_degree + 1)))


class TestAdd:
    def test_characteristic_two_cancellation(self):
        assert add(parse("x^2+x+1"), parse("x^2+1")) == X

    def test_identity(self):
        p = parse("x^5+x^3+1")
        assert add(p, ZERO) == p

    def test_self_inverse(self):
        assert add(X1, X1) == ZERO

    def test_matches_oracle(self):
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            p, q = rand_poly(rng, 100), rand_poly(rng, 100)
            expected = oracles.from_coeffs(
                oracles.school_add(oracles.to_coeffs(p.value),
                                   oracles.to_coeffs(q.value)))
            assert add(p, q).value == expected


class TestMul:
    def test_frobenius_square(self):
        assert mul(X1, X1) == parse("x^2+1")

    def test_derived_example(self):
        # x * (x+1)^2 expanded by the schoolbook oracle
        expected = oracles.from_coeffs(oracles.school_mul(
            [0, 1], oracles.school_mul([1, 1], [1, 1])))
        assert expected == 0b1010  # x^3 + x
        assert mul(X, power(X1, 2)) == parse("x^3+x")

    def test_identity(self):
        p = parse("x^7+x^2+1")
        assert mul(p, ONE) == p

    def test_matches_schoolbook_to_degree_256(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(200):
            p, q = rand_poly(rng, 256), rand_poly(rng, 256)
            expected = oracles.from_coeffs(
                oracles.school_mul(oracles.to_coeffs(p.value),
                                   oracles.to_coeffs(q.value)))
            assert mul(p, q).value == expected

    def test_degree_adds(self):
        rng = random.Random(RNG_SEED + 2)
        for _ in range(100):
            p, q = rand_poly(rng, 64), rand_poly(rng, 64)
            if p and q:
                assert mul(p, q).degree == p.degree + q.degree


def rand_width(rng, bits):
    """A random integer of exactly this many bits."""
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def school_mul_int(a, b):
    return oracles.from_coeffs(oracles.school_mul(oracles.to_coeffs(a),
                                                  oracles.to_coeffs(b)))


class TestKernels:
    """The comb product, the byte-table square, the fixed-modulus mulmod
    and square, and Euclid's gcd, over a range of operand sizes."""

    W = _COMB_MIN_WEIGHT
    SHORT_WIDTHS = (1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129,
                    191, 192, 193, 194, 200, 255, 256, 257, 1024, 1025)
    AGAINST_LONG = (1, 64, 65, 192, 193, 1025)

    def test_mul_matches_schoolbook_both_orders(self):
        rng = random.Random(RNG_SEED + 20)
        pairs = [(w, w) for w in self.SHORT_WIDTHS]
        pairs += [(w, 3000) for w in self.AGAINST_LONG]
        pairs.append((3000, 3000))
        for short, long in pairs:
            a, b = rand_width(rng, short), rand_width(rng, long)
            expected = school_mul_int(a, b)
            assert _mul(a, b) == expected, (short, long)
            assert _mul(b, a) == expected, (long, short)

    def test_mul_by_sparse_and_dense_operands(self):
        # single-bit operands, and all-ones operands just past the switch
        # (and one set bit short of it)
        for bits in (self.W + 1, 1024):
            ones = (1 << bits) - 1
            for other in (1, 1 << bits, ones, ones ^ (1 << (bits // 2))):
                expected = school_mul_int(other, ones)
                assert _mul(ones, other) == expected
                assert _mul(other, ones) == expected

    @staticmethod
    def of_weight(rng, bits, weight):
        """A random integer of exactly this many bits, this many set."""
        low = rng.sample(range(bits - 1), weight - 1)
        return sum(1 << i for i in low) | 1 << (bits - 1)

    def test_comb_only_when_both_operands_are_dense(self, monkeypatch):
        # the sparser operand's weight picks the product, whatever the
        # lengths: pairs of W - 1, W and W + 1 set bits, at each length and
        # against a dense operand of 3000 bits
        from gf2bup import gf2poly

        combs = []
        comb_mul = gf2poly._comb_mul

        def counting_comb_mul(a, b):
            combs.append((a, b))
            return comb_mul(a, b)

        monkeypatch.setattr(gf2poly, "_comb_mul", counting_comb_mul)
        rng = random.Random(RNG_SEED + 25)
        dense = rand_width(rng, 3000)
        for bits in (192, 1024, 3000):
            for weight in (self.W - 1, self.W, self.W + 1):
                a = self.of_weight(rng, bits, weight)
                b = self.of_weight(rng, bits, weight)
                for other in (b, dense):
                    expected = school_mul_int(a, other)
                    combs.clear()
                    assert _mul(a, other) == expected, (bits, weight)
                    assert _mul(other, a) == expected, (bits, weight)
                    assert len(combs) == (2 if weight > self.W else 0)

    def test_mul_by_long_sparse_powers(self):
        # (x+1)^(2^k), M1^(2^k) and M4^(2^k) have 2 or 3 terms spread over
        # up to 4097 bits, against dense operands and each other
        rng = random.Random(RNG_SEED + 26)
        sparse = [_pow(p.value, 1 << k)
                  for p in (X1, M1, M4) for k in range(13)]
        dense = [rand_width(rng, 3000), (1 << 1000) - 1]
        for a in sparse:
            for b in dense + sparse[::7]:
                expected = school_mul_int(a, b)
                assert _mul(a, b) == expected
                assert _mul(b, a) == expected

    def test_square_matches_product(self):
        rng = random.Random(RNG_SEED + 21)
        assert _sq(0) == 0
        widths = list(range(1, 81)) + list(range(1000, 1041)) + [3000]
        for bits in widths:
            for a in (rand_width(rng, bits), (1 << bits) - 1):
                assert _sq(a) == _mul(a, a), bits

    @staticmethod
    def check_mulmod(rng, m):
        """mulmod against the product reduced afterwards, on 0, 1, m minus
        its leading term, the all-ones residue and a random residue, each
        against itself and a second random residue, in both orders."""
        n = _deg(m)
        mulmod, _ = _modulus(m)
        other = rng.getrandbits(n)
        for a in (0, 1, m ^ (1 << n), (1 << n) - 1, rng.getrandbits(n)):
            for b in (a, other):
                expected = _mod(_mul(a, b), m)
                assert mulmod(a, b) == expected, (n, a, b)
                assert mulmod(b, a) == expected, (n, b, a)

    def test_mulmod_matches_reduced_product_to_degree_1100(self):
        rng = random.Random(RNG_SEED + 23)
        for n in range(1, 1101):
            self.check_mulmod(rng, rand_width(rng, n + 1))

    def test_mulmod_of_a_sparse_modulus(self):
        rng = random.Random(RNG_SEED + 24)
        for n in (1, 7, 8, 9, 160, 1024):
            self.check_mulmod(rng, (1 << n) | 1)

    @staticmethod
    def check_square(rng, m):
        """square against the square reduced afterwards, on 0, 1, m minus
        its leading term, the all-ones residue and a random residue."""
        n = _deg(m)
        _, square = _modulus(m)
        for a in (0, 1, m ^ (1 << n), (1 << n) - 1, rng.getrandbits(n)):
            assert square(a) == _mod(_sq(a), m), (n, a)

    def test_square_matches_reduced_square_to_degree_1100(self):
        rng = random.Random(RNG_SEED + 90)
        for n in range(1, 1101):
            self.check_square(rng, rand_width(rng, n + 1))

    def test_square_of_a_sparse_modulus(self):
        rng = random.Random(RNG_SEED + 91)
        for n in (1, 7, 8, 9, 160, 1024):
            self.check_square(rng, (1 << n) | 1)

    # Every degree up to 64, then a spread to 1100: the list-based oracle
    # takes about 0.06 s per gcd at degree 1100.
    GCD_DEGREES = list(range(1, 65)) + list(range(65, 1100, 31)) + [1100]

    @staticmethod
    def check_gcd(a, b):
        expected = oracles.from_coeffs(oracles.school_gcd(
            oracles.to_coeffs(a), oracles.to_coeffs(b)))
        assert _gcd(a, b) == expected, (a, b)
        assert _gcd(b, a) == expected, (b, a)

    def test_gcd_of_zero_and_equal_operands(self):
        rng = random.Random(RNG_SEED + 25)
        self.check_gcd(0, 0)
        for n in self.GCD_DEGREES:
            a = rand_width(rng, n + 1)
            self.check_gcd(a, 0)
            self.check_gcd(a, a)

    def test_gcd_of_a_divisor_and_its_multiple(self):
        rng = random.Random(RNG_SEED + 26)
        for n in self.GCD_DEGREES:
            a = rand_width(rng, rng.randint(1, n + 1))
            self.check_gcd(a, _mul(a, rand_width(rng, n + 1)))

    def test_gcd_of_coprime_pairs(self):
        # any common divisor of a and a*x + 1 divides 1
        rng = random.Random(RNG_SEED + 27)
        for n in self.GCD_DEGREES:
            a = rand_width(rng, n + 1)
            self.check_gcd(a, (a << 1) ^ 1)

    def test_gcd_of_random_pairs(self):
        rng = random.Random(RNG_SEED + 28)
        for n in self.GCD_DEGREES:
            common = rand_width(rng, rng.randint(1, 33))
            for a, b in ((rand_width(rng, n + 1), rand_width(rng, n + 1)),
                         (rand_width(rng, n + 1),
                          rand_width(rng, rng.randint(1, n + 1)))):
                self.check_gcd(a, b)
                self.check_gcd(_mul(a, common), _mul(b, common))


class TestDivrem:
    def test_monomial_split(self):
        assert divrem(parse("x^3+x+1"), parse("x^2")) == (X, X1)

    def test_unit_divisor(self):
        p = parse("x^6+x^4+x")
        assert divrem(p, ONE) == (p, ZERO)

    def test_derived_example(self):
        q, r = oracles.school_divmod(oracles.to_coeffs(0b1010), [1, 1])
        assert (oracles.from_coeffs(q), r) == (0b110, [])
        assert divrem(parse("x^3+x"), X1) == (parse("x^2+x"), ZERO)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divrem(X, ZERO)

    def test_reconstruction(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(300):
            p = rand_poly(rng, 96)
            d = rand_poly(rng, 48)
            if not d:
                continue
            q, r = divrem(p, d)
            assert q * d + r == p
            assert r == ZERO or r.degree < d.degree


class TestGcd:
    def test_common_factor(self):
        assert gcd(parse("x^2+x"), X) == X

    def test_distinct_irreducibles(self):
        coeffs = oracles.school_gcd(oracles.to_coeffs(M2.value),
                                    oracles.to_coeffs(M3.value))
        assert oracles.from_coeffs(coeffs) == 1
        assert gcd(M2, M3) == ONE

    def test_idempotence(self):
        p = parse("x^4+x+1")
        assert gcd(p, p) == p
        assert gcd(p, ZERO) == p

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    def test_matches_oracle(self):
        rng = random.Random(RNG_SEED + 4)
        for _ in range(200):
            p, q = rand_poly(rng, 48), rand_poly(rng, 48)
            if not p and not q:
                continue
            expected = oracles.from_coeffs(
                oracles.school_gcd(oracles.to_coeffs(p.value),
                                   oracles.to_coeffs(q.value)))
            assert gcd(p, q).value == expected


class TestPower:
    def test_square(self):
        assert power(X1, 2) == parse("x^2+1")

    def test_zero_exponent(self):
        assert power(parse("x^9+x"), 0) == ONE
        assert power(ZERO, 0) == ONE

    def test_monomial(self):
        assert power(X, 5) == parse("x^5")

    def test_all_ones(self):
        # (x+1)^(2^12 - 1) is the sum of every x^i, i < 2^12
        assert power(X1, 4095) == Gf2Poly((1 << 4096) - 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            X ** -1
        with pytest.raises(ValueError):
            power(X, -1)

    def test_matches_repeated_mul(self):
        rng = random.Random(RNG_SEED + 11)
        for a in (0, 1, 2, 3, M4.value, rng.getrandbits(40) | 1 << 40):
            expected = 1
            for n in range(65):
                assert _pow(a, n) == expected, (a, n)
                expected = _mul(expected, a)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_low_exponents_match_schoolbook(self, n):
        # _pow starts from a, not from 1 * a
        for a in (0, 1, 2, 3, M4.value, 0b1011 << 300 | 1):
            expected = [1]
            for _ in range(n):
                expected = oracles.school_mul(expected, oracles.to_coeffs(a))
            assert _pow(a, n) == oracles.from_coeffs(expected), (a, n)


class TestConjugate:
    def test_m2_to_m3(self):
        assert conjugate(M2) == M3

    def test_m4_to_m5(self):
        assert conjugate(M4) == M5

    def test_x(self):
        assert conjugate(X) == X1

    def test_involution_and_degree(self):
        rng = random.Random(RNG_SEED + 5)
        for _ in range(200):
            p = rand_poly(rng, 80)
            assert conjugate(conjugate(p)) == p
            assert conjugate(p).degree == p.degree

    def test_ring_homomorphism(self):
        rng = random.Random(RNG_SEED + 6)
        for _ in range(100):
            p, q = rand_poly(rng, 48), rand_poly(rng, 48)
            assert conjugate(p * q) == conjugate(p) * conjugate(q)
            assert conjugate(p + q) == conjugate(p) + conjugate(q)

    def test_taylor_shift_matches_horner(self):
        # every value of up to 17 bits, on both sides of the byte table's
        # bound of 2^16, then random ones of up to 1500
        rng = random.Random(RNG_SEED + 7)
        values = [*range(1 << 17), *(rng.getrandbits(rng.randrange(18, 1501))
                                     for _ in range(300))]
        for n in values:
            assert _conj(n) == oracles.horner_conj(n), n
            assert _conj(_conj(n)) == n
        assert (_conj(0), _conj(1)) == (0, 1)


class TestReciprocal:
    def test_self_reciprocal_m4(self):
        assert reciprocal(M4) == M4

    def test_bit_reverse(self):
        assert reciprocal(M2) == M3  # 0b1011 reversed is 0b1101

    def test_unit(self):
        assert reciprocal(ONE) == ONE

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(ZERO)

    def test_involution_on_units_at_zero(self):
        rng = random.Random(RNG_SEED + 7)
        for _ in range(200):
            p = Gf2Poly(rand_poly(rng, 60).value | 1)  # force p(0) = 1
            assert reciprocal(reciprocal(p)) == p
            assert reciprocal(p).degree == p.degree

    def test_multiplicative(self):
        rng = random.Random(RNG_SEED + 8)
        for _ in range(100):
            p = Gf2Poly(rand_poly(rng, 40).value | 1)
            q = Gf2Poly(rand_poly(rng, 40).value | 1)
            assert reciprocal(p * q) == reciprocal(p) * reciprocal(q)


class TestRingAxioms:
    def test_axioms(self):
        rng = random.Random(RNG_SEED + 9)
        for _ in range(100):
            p, q, r = (rand_poly(rng, 40) for _ in range(3))
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + p == ZERO


class TestValueContracts:
    def test_equal_to_int_hashes_like_int(self):
        for n in (0, 1, 3, (1 << 70) | 5):
            assert Gf2Poly(n) == n
            assert hash(Gf2Poly(n)) == hash(n)
            assert n in {Gf2Poly(n)}
            assert Gf2Poly(n) in {n}
        # equality stays total: a negative int is unequal, not an error
        assert (ONE == -1) is False

    def test_bool_rejected(self):
        for flag in (True, False):
            with pytest.raises(TypeError):
                Gf2Poly(flag)
            with pytest.raises(TypeError):
                X + flag
            with pytest.raises(TypeError):
                mul(X, flag)
            with pytest.raises(TypeError):
                Gf2Poly(6) ** flag
            with pytest.raises(TypeError):
                power(X, flag)
            assert (ONE == flag) is False

    @pytest.mark.parametrize(
        "fn, args", NEGATIVE_INT_CALLS,
        ids=[f"{fn.__name__}{args}" for fn, args in NEGATIVE_INT_CALLS])
    def test_negative_int_rejected(self, fn, args):
        # as Gf2Poly(-5) is; a negative int is no bit vector of coefficients
        with pytest.raises(TypeError):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args", ZERO_CALLS,
        ids=[f"{fn.__qualname__}{args}" for fn, args in ZERO_CALLS])
    def test_zero_rejected(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    def test_pickle_and_copy_round_trip(self):
        p = Gf2Poly((1 << 70) | 5)
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p),
                     copy.deepcopy(p)):
            assert type(twin) is Gf2Poly
            assert twin == p and hash(twin) == hash(p)
            with pytest.raises(AttributeError, match="immutable"):
                twin.value = 3
            with pytest.raises(AttributeError, match="immutable"):
                del twin.value


# Each Gf2Poly operator or method: the module function it is, its operator
# form taking the function's arguments in the function's order, arguments
# both forms take, and arguments both refuse with the error each raises.
REFUSED_OPERANDS = [((X, True), TypeError), ((X, -5), TypeError),
                    ((X, 1.5), TypeError)]
OPERATOR_FORMS = [
    ("__add__", add, lambda p, q: p + q, (M2, X1), REFUSED_OPERANDS),
    ("__radd__", add, lambda p, q: q + p, (M2, 3), REFUSED_OPERANDS),
    ("__sub__", add, lambda p, q: p - q, (M2, X1), REFUSED_OPERANDS),
    ("__rsub__", add, lambda p, q: q - p, (M2, 3), REFUSED_OPERANDS),
    ("__mul__", mul, lambda p, q: p * q, (M2, X1), REFUSED_OPERANDS),
    ("__rmul__", mul, lambda p, q: q * p, (M2, 3), REFUSED_OPERANDS),
    ("__pow__", power, lambda p, n: p ** n, (M2, 5),
     [((X, True), TypeError), ((X, -5), ValueError), ((X, 1.5), TypeError)]),
    ("__divmod__", divrem, divmod, (M4, M2),
     REFUSED_OPERANDS + [((X, ZERO), ZeroDivisionError)]),
    ("conjugate", conjugate, lambda p: p.conjugate(), (M2,), []),
    ("reciprocal", reciprocal, lambda p: p.reciprocal(), (M2,),
     [((ZERO,), ValueError)]),
    ("to_string", format_poly, lambda p, style: p.to_string(style),
     (M2, "hex"), [((X, "latex"), ValueError)]),
]


class TestOneDefinition:
    @pytest.mark.parametrize("name, fn, form, args, refused", OPERATOR_FORMS,
                             ids=[row[0] for row in OPERATOR_FORMS])
    def test_operator_is_its_function(self, name, fn, form, args, refused):
        assert getattr(Gf2Poly, name) is fn
        assert form(*args) == fn(*args)
        for bad, error in refused:
            with pytest.raises(error):
                form(*bad)
            with pytest.raises(error):
                fn(*bad)

    @pytest.mark.parametrize("value", [True, False, -5, 1.5, None, b"x"])
    def test_constructor_refuses_what_int_of_refuses(self, value):
        # any value but a str is read by _int_of
        with pytest.raises(TypeError):
            _int_of(value)
        with pytest.raises(TypeError):
            Gf2Poly(value)

    def test_constructor_parses_a_str(self):
        assert Gf2Poly("x^2+x+1") == Gf2Poly(M1) == M1


class TestDegree:
    def test_zero_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert ZERO.degree != 0
        assert ZERO.degree != -1

    def test_constants(self):
        assert ONE.degree == 0
        assert X.degree == 1


class TestParse:
    def test_catalog_c1(self):
        c1 = parse("x^3*(x+1)^4*(x^2+x+1)")
        assert c1 == power(X, 3) * power(X1, 4) * M1

    def test_unit(self):
        assert parse("1") == ONE

    def test_mod2_reduction(self):
        assert parse("x^2+x^2+x") == X

    def test_order_insensitive(self):
        assert parse("1+x+x^2") == parse("x^2+x+1")

    def test_whitespace(self):
        assert parse(" x^2 + x + 1 ") == M1

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x^2+")
        assert exc.value.position == 4

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("x^2+y")

    def test_powers_of_constants_are_terms(self):
        # a term is any factor but a parenthesized sum
        assert parse("x^2+1^3") == parse("x^2+1")
        assert parse("x+0^5+1") == X1

    def test_parenthesized_term_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("x+(x+1)")
        assert exc.value.position == 2

    def test_sum_of_products_rejected(self):
        # the grammar has no products inside sums
        with pytest.raises(ParseError):
            parse("x*(x+1)+1")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse("x^99999999")

    def test_hex_literal_degree_cap(self):
        assert parse("0x1" + "0" * 1024).degree == 4096
        for text in ("0x2" + "0" * 1024, "0x" + "f" * 600000):
            with pytest.raises(ParseError, match="limit 4096"):
                parse(text)

    @pytest.mark.parametrize("text", ["0x1_0", "0x1 0", "0 x10", "0x٣"])
    def test_hex_literal_is_0x_and_hex_digits_only(self, text):
        # int(_, 16) reads the first two as x^4 and the last as x + 1, and
        # the third as x^4 once all whitespace is removed
        with pytest.raises(ParseError):
            parse(text)

    def test_hex_literal_may_have_whitespace_around_it(self):
        assert parse(" 0X1f\n") == parse("0x1F") == Gf2Poly(0x1F)

    def test_product_degree_cap(self):
        # each factor is within the cap, their product is not
        assert parse("(x^4095)*x").degree == 4096
        with pytest.raises(ParseError) as exc:
            parse("(x^4096)*(x^4096)*(x^4096)")
        assert exc.value.position == 8  # the first '*' that passes the cap

    def test_a_short_input_past_the_limit_fails_fast(self):
        # 26 characters that took seconds to expand under a limit of 2^20
        start = time.perf_counter()
        with pytest.raises(ParseError, match="limit 4096"):
            parse("(x+1)^524287*(x+1)^524287")
        assert time.perf_counter() - start < 1.0

    def test_x_power_factor_is_a_shift(self, monkeypatch):
        # x^k in a product is the monomial 1 << k, never repeated squaring
        from gf2bup import gf2poly

        genuine = gf2poly._pow
        expected = [power(X, 5) * X1, power(X1, 3) * power(X, 2)]

        def no_x_pow(a, n):
            assert a != 2, "x^k expanded through _pow"
            return genuine(a, n)

        monkeypatch.setattr(gf2poly, "_pow", no_x_pow)
        assert parse("x^4096").value == 1 << 4096
        assert [parse("(x+1)*x^5"), parse("(x+1)^3*x^2")] == expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x^2)")

    @pytest.mark.parametrize("text, position", [
        ("x^17+1", 2), ("(x^2+x+1)^9", 10), ("(x^9+1)*x^8", 7),
        ("0x3ffff", 0)])
    def test_a_lower_degree_limit_stops_before_expanding(
            self, text, position, monkeypatch):
        # the parser reads its one limit when it parses; every route past
        # it raises the same ParseError, one that names the limit
        from gf2bup import gf2poly

        monkeypatch.setattr(gf2poly, "_MAX_PARSE_DEGREE", 16)
        assert parse("(x^9+1)*x^7").degree == 16
        with pytest.raises(ParseError, match="limit 16") as exc:
            parse(text)
        assert exc.value.position == position


class TestFormat:
    def test_expanded(self):
        assert format_poly(M1) == "x^2+x+1"

    def test_hex(self):
        assert format_poly(M1, "hex") == "0x7"

    def test_zero(self):
        assert format_poly(ZERO) == "0"
        assert format_poly(ZERO, "hex") == "0x0"

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_poly(M1, "latex")

    def test_parse_format_roundtrip_to_degree_512(self):
        rng = random.Random(RNG_SEED + 10)
        polys = [ZERO, ONE, X, X1] + [rand_poly(rng, 512) for _ in range(100)]
        for p in polys:
            assert parse(format_poly(p, "expanded")) == p
            assert parse(format_poly(p, "hex")) == p
