import hashlib
import random

import pytest

import oracles
from gf2bup import (
    Gf2Poly, ONE, X, X1, ZERO,
    factorize, is_irreducible, is_odd, is_squarefree, omega, parse, power,
    sigma,
)
from gf2bup import factor
from gf2bup.factor import (
    _DDF_BLOCK, _FIXED_MODULUS_MIN_DEGREE, _IRREDUCIBLE_TABLE_MIN_DEGREE,
    DEFAULT_SEED, _ddf, _derivative, _factorize_int,
)
from gf2bup.gf2poly import _deg, _divmod, _gcd, _mod, _mul, _sq, _sqrt, gcd
from gf2bup.mersenne import M1, M2, M3, M4, M5, M_SET

RNG_SEED = 90125


def rand_nonzero(rng, max_degree):
    return Gf2Poly(rng.randrange(1, 1 << (max_degree + 1)))


def brute_irreducible(n):
    """Trial division by every polynomial of degree 1..deg(n)//2."""
    deg = n.bit_length() - 1
    for d in range(2, 1 << (deg // 2 + 1)):
        if d.bit_length() - 1 >= 1 and oracles.divides(d, n):
            return False
    return deg >= 1


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


class TestIsIrreducible:
    def test_m1(self):
        assert is_irreducible(M1)

    def test_square(self):
        assert not is_irreducible(parse("x^2+1"))

    def test_m4(self):
        assert is_irreducible(parse("x^4+x^3+x^2+x+1"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(ONE)
        with pytest.raises(ValueError):
            is_irreducible(ZERO)

    def test_matches_trial_division_exhaustive(self):
        for n in range(2, 1 << 11):
            assert is_irreducible(Gf2Poly(n)) == brute_irreducible(n)

    def test_matches_trial_division_random_to_degree_20(self):
        rng = random.Random(RNG_SEED)
        for _ in range(150):
            n = rng.randrange(1 << 11, 1 << 21)
            assert is_irreducible(Gf2Poly(n)) == brute_irreducible(n)

    def test_necklace_counts(self):
        # number of irreducibles of degree n is (1/n) sum_{d|n} mu(d) 2^(n/d)
        for n in range(1, 13):
            count = sum(is_irreducible(Gf2Poly(v))
                        for v in range(1 << n, 1 << (n + 1)))
            expected = sum(mobius(d) * (1 << (n // d))
                           for d in range(1, n + 1) if n % d == 0) // n
            assert count == expected


def ddf_per_step(f):
    """The distinct-degree split with one gcd per Frobenius step."""
    out = []
    w = _mod(2, f)
    d = 0
    while f != 1 and _deg(f) >= 2 * (d + 1):
        d += 1
        w = _mod(_sq(w), f)
        g = _gcd(f, w ^ 2)
        if g != 1:
            out.append((g, d))
            f, _ = _divmod(f, g)
            w = _mod(w, f)
    if f != 1:
        out.append((f, _deg(f)))
    return out


def irreducibles_of_degree(rng, degree, count):
    """count distinct random irreducibles of the given degree."""
    found = set()
    while len(found) < count:
        n = (1 << degree) | rng.getrandbits(degree) | 1
        if is_irreducible(n):
            found.add(n)
    return sorted(found)


def product(values):
    r = 1
    for v in values:
        r = _mul(r, v)
    return r


class TestIsIrreducibleAboveTheTableSwitch:
    def test_known_irreducible_trinomials(self):
        for text in ("x^127+x+1", "x^233+x^74+1", "x^233+x^159+1",
                     "x^409+x^87+1", "x^1279+x^216+1"):
            assert is_irreducible(parse(text)), text

    def test_switch_degrees(self):
        rng = random.Random(RNG_SEED + 10)
        for degree in (_IRREDUCIBLE_TABLE_MIN_DEGREE - 1,
                       _IRREDUCIBLE_TABLE_MIN_DEGREE,
                       _FIXED_MODULUS_MIN_DEGREE):
            p, q = irreducibles_of_degree(rng, degree, 2)
            assert factorize(Gf2Poly(p)).factors == ((Gf2Poly(p), 1),)
            assert not is_irreducible(_mul(p, q))
            assert not is_irreducible(_mul(p, p))

    def test_each_prime_divisor_of_the_degree_is_checked(self):
        # Every factor degree divides 60, so x^(2^60) = x mod the product
        # and only the gcd kept at 60/q for the named q rejects it.
        rng = random.Random(RNG_SEED + 11)
        for q in (2, 3, 5):
            factors = irreducibles_of_degree(rng, 60 // q, q)
            n = product(factors)
            assert _deg(n) == 60
            assert not is_irreducible(n), q


class TestDistinctDegreeSplit:
    def test_blocked_matches_per_step_on_random_squarefree(self):
        rng = random.Random(RNG_SEED + 12)
        for degree in (150, 159, 160, 161, 200, 256, 400, 700, 1100):
            while True:
                n = (1 << degree) | rng.getrandbits(degree)
                if is_squarefree(Gf2Poly(n)):
                    break
            assert _ddf(n) == ddf_per_step(n), degree

    def test_matches_per_step_on_both_sides_of_the_switch(self):
        rng = random.Random(RNG_SEED + 16)
        T = _FIXED_MODULUS_MIN_DEGREE
        for degree in (T - 1, T, T + 1):
            for _ in range(3):
                while True:
                    n = (1 << degree) | rng.getrandbits(degree)
                    if is_squarefree(Gf2Poly(n)):
                        break
                assert _ddf(n) == ddf_per_step(n), degree

    def test_factors_on_both_sides_of_block_edges(self):
        # degrees that straddle the block's first two multiples; each is at
        # most q = 106, so the blocks start from step 0 after the low block
        B = _DDF_BLOCK
        rng = random.Random(RNG_SEED + 13)
        degrees = (B - 1, B - 1, B, B + 1, B + 1, 2 * B, 2 * B + 1,
                   2 * B + 1, 2 * B + 8)
        factors = []
        for degree in sorted(set(degrees)):
            count = degrees.count(degree)
            factors += irreducibles_of_degree(rng, degree, count)
        n = product(factors)
        assert _deg(n) >= _FIXED_MODULUS_MIN_DEGREE
        result = _ddf(n)
        assert result == ddf_per_step(n)
        assert [d for _, d in result] == sorted(set(degrees))

    @staticmethod
    def counting_kernels(monkeypatch):
        """Wrap factor._modulus: the returned list gets one [degree,
        squares, products] entry per kernel build."""
        builds = []
        modulus = factor._modulus

        def counting_modulus(m):
            mulmod, square = modulus(m)
            counts = [_deg(m), 0, 0]
            builds.append(counts)

            def counting_square(a):
                counts[1] += 1
                return square(a)

            def counting_mulmod(a, b):
                counts[2] += 1
                return mulmod(a, b)
            return counting_mulmod, counting_square

        monkeypatch.setattr(factor, "_modulus", counting_modulus)
        return builds

    @staticmethod
    def counting_plain_squares(monkeypatch):
        """Wrap factor._mod: the returned list gets the degree of the
        modulus of every plain Frobenius square, _mod(_sq(w), m)."""
        plain_squares = []
        mod = factor._mod

        def counting_mod(a, m):
            if _deg(a) >= _deg(m) and a == _sq(_sqrt(a)):
                plain_squares.append(_deg(m))
            return mod(a, m)

        monkeypatch.setattr(factor, "_mod", counting_mod)
        return plain_squares

    def test_blocked_split_squares_through_the_table(self, monkeypatch):
        # every Frobenius square modulo an f of degree >= the switch goes
        # through f's square kernel, and no kernel is built for nothing
        plain_squares = self.counting_plain_squares(monkeypatch)
        rng = random.Random(RNG_SEED + 15)
        while True:
            n = (1 << 1024) | rng.getrandbits(1024)
            if is_squarefree(Gf2Poly(n)):
                break
        builds = self.counting_kernels(monkeypatch)
        assert _ddf(n) == ddf_per_step(n)
        assert [degree for degree in plain_squares
                if degree >= _FIXED_MODULUS_MIN_DEGREE] == []
        # n's low block squares to q = 256 and multiplies over (128, 256]
        assert builds[0] == [1024, 256, 127]
        assert all(degree >= _FIXED_MODULUS_MIN_DEGREE and squares >= 1
                   for degree, squares, _ in builds)

    def test_block_with_two_factors_above_the_switch(self, monkeypatch):
        # the low block takes the factors of degree 3 and 5 (q = 109), and
        # the block (109, 141] holds factors of degree 129 and 131, so its
        # g of degree 260 is split in plain steps of one, with no kernels
        # built for it
        rng = random.Random(RNG_SEED + 17)
        degrees = (3, 5, 129, 131, 170)
        n = product(irreducibles_of_degree(rng, d, 1)[0] for d in degrees)
        plain_squares = self.counting_plain_squares(monkeypatch)
        builds = self.counting_kernels(monkeypatch)
        result = _ddf(n)
        assert result == ddf_per_step(n)
        assert [d for _, d in result] == list(degrees)
        assert [degree for degree, _, _ in builds] == [438, 430]
        assert 129 + 131 in plain_squares

    def test_remainder_below_the_switch_keeps_its_blocks(self, monkeypatch):
        # the first block leaves a remainder of degree 123, which keeps its
        # blocks through kernels built for it
        rng = random.Random(RNG_SEED + 18)
        degrees = (20, 25, 30, 33, 40, 50)
        n = product(irreducibles_of_degree(rng, d, 1)[0] for d in degrees)
        assert _deg(n) >= _FIXED_MODULUS_MIN_DEGREE
        builds = self.counting_kernels(monkeypatch)
        result = _ddf(n)
        assert result == ddf_per_step(n)
        assert [d for _, d in result] == list(degrees)
        assert [degree for degree, _, _ in builds] == [_deg(n), 123]
        assert builds[1][1] > 1 and builds[1][2] >= 1  # a block of steps

    def test_input_fixes_the_regime(self, monkeypatch):
        rng = random.Random(RNG_SEED + 19)
        T = _FIXED_MODULUS_MIN_DEGREE
        while True:
            small = (1 << (T - 1)) | rng.getrandbits(T - 1)
            if is_squarefree(Gf2Poly(small)):
                break
        degrees = (20, 25, 30, 33, 65)
        n = product(irreducibles_of_degree(rng, d, 1)[0] for d in degrees)
        assert _deg(n) >= T
        builds = self.counting_kernels(monkeypatch)
        plain_squares = self.counting_plain_squares(monkeypatch)
        # an input below the switch is stepped plainly, with no kernels
        assert _ddf(small) == ddf_per_step(small)
        assert builds == [] and plain_squares
        # an input from the switch on takes no plain square modulo any of
        # its remainders, even the one of degree 98 below the switch: only
        # the first block's g, of degree 75, is stepped plainly, down to its
        # own remainder of degree 55 (the g of degree 33 needs no step)
        plain_squares.clear()
        result = _ddf(n)
        assert result == ddf_per_step(n)
        assert [d for _, d in result] == list(degrees)
        assert [degree for degree, _, _ in builds] == [_deg(n), 98]
        assert sorted(set(plain_squares)) == [55, 75]

    def test_low_phase_edges(self, monkeypatch):
        # one factor of degree q // 2, q // 2 + 1, q or q + 1 beside
        # x^233+x^74+1, above 2q, where q = deg n // 4: the low gcd over
        # (q // 2, q] takes the first three, through their doubles or
        # themselves, and leaves q + 1 to the first block
        big = parse("x^233+x^74+1").value
        rng = random.Random(RNG_SEED + 20)
        builds = self.counting_kernels(monkeypatch)
        for k, edge in ((33, lambda q: q // 2), (34, lambda q: q // 2 + 1),
                        (77, lambda q: q), (79, lambda q: q + 1)):
            small = irreducibles_of_degree(rng, k, 1)[0]
            n = _mul(small, big)
            q = _deg(n) // 4
            assert k == edge(q) and 233 > 2 * q
            builds.clear()
            assert _ddf(n) == ddf_per_step(n) == [(small, k), (big, 233)]
            squares = q if k <= q else q + _DDF_BLOCK
            assert builds[0][:2] == [_deg(n), squares], k

    def test_low_phase_holding_every_factor_falls_back_to_blocks(
            self, monkeypatch):
        # every factor has degree <= q = 68, so the low gcd is n itself; the
        # blocks start again from step 0 through n's kernels, as splitting n
        # by its own call again would recurse without end
        n = parse("(x^31+x^3+1)*(x^33+x^13+1)*(x^39+x^4+1)*(x^41+x^3+1)"
                  "*(x^63+x+1)*(x^65+x^18+1)").value
        builds = self.counting_kernels(monkeypatch)
        result = _ddf(n)
        assert result == ddf_per_step(n)
        assert [d for _, d in result] == [31, 33, 39, 41, 63, 65]
        # the low block's 68 squares and 33 products, then the first plain one
        assert builds[0] == [272, 68 + _DDF_BLOCK, 33 + _DDF_BLOCK - 1]

    def test_two_factors_of_one_degree_in_the_low_range(self):
        rng = random.Random(RNG_SEED + 21)
        p1, p2 = irreducibles_of_degree(rng, 50, 2)
        big = parse("x^233+x^74+1").value
        n = product((p1, p2, big))
        q = _deg(n) // 4
        assert q // 2 < 50 <= q
        assert _ddf(n) == ddf_per_step(n) == [(_mul(p1, p2), 50), (big, 233)]
        assert _factorize_int(n, DEFAULT_SEED) == ((p1, 1), (p2, 1), (big, 1))

    def test_low_part_runs_its_own_low_phase(self, monkeypatch):
        # n's low gcd (q = 394) is the degree-300 product of the five small
        # factors; its own low block (q = 75) takes four of them, of degree
        # 220, too small for a third
        rng = random.Random(RNG_SEED + 22)
        degrees = (40, 50, 60, 70, 80)
        big = parse("x^1279+x^216+1").value
        n = product([irreducibles_of_degree(rng, d, 1)[0] for d in degrees]
                    + [big])
        builds = self.counting_kernels(monkeypatch)
        result = _ddf(n)
        assert result == ddf_per_step(n)
        assert [d for _, d in result] == list(degrees) + [1279]
        assert [degree for degree, _, _ in builds] == [1579, 300, 220, 1279]
        assert [squares for _, squares, _ in builds[:2]] == [394, 75]

    def test_no_low_phase_below_degree_264(self, monkeypatch):
        # q // 2 > _DDF_BLOCK first holds at degree 8 * (_DDF_BLOCK + 1);
        # n's factor x^2+x+1 ends the first block, low or not, and
        # with it the counts of n's kernels
        assert 8 * (_DDF_BLOCK + 1) == 264
        B = _DDF_BLOCK
        rng = random.Random(RNG_SEED + 23)
        builds = self.counting_kernels(monkeypatch)
        for degree, first_build in ((263, [263, B, B - 1]),
                                    (264, [264, 66, 32])):
            while True:
                n = _mul(7, (1 << (degree - 2)) | rng.getrandbits(degree - 2))
                if is_squarefree(Gf2Poly(n)):
                    break
            builds.clear()
            assert _ddf(n) == ddf_per_step(n)
            assert builds[0] == first_build, degree

    def test_whole_input_inside_one_block(self):
        # gcd(f, product) = f in the first block: the split alone finds all
        rng = random.Random(RNG_SEED + 14)
        n = product(irreducibles_of_degree(rng, d, 1)[0] for d in range(2, 17))
        assert _ddf(n) == ddf_per_step(n)
        assert [d for _, d in _ddf(n)] == list(range(2, 17))


class TestKnownAnswerLargeDegree:
    def test_degree_1431_product(self):
        # x^127+x+1, x^233+x^74+1 and x^409+x^87+1 are irreducible
        # trinomials; x^233+x^159+1 is the reciprocal of the second, so the
        # equal-degree split runs on their degree-466 product.
        expected = [
            ("x", 1), ("x+1", 3), ("x^2+x+1", 1), ("x^3+x+1", 1),
            ("x^3+x^2+1", 1), ("x^4+x^3+1", 1), ("x^4+x^3+x^2+x+1", 1),
            ("x^127+x+1", 1), ("x^233+x^74+1", 1), ("x^233+x^159+1", 1),
            ("x^409+x^87+1", 2),
        ]
        p = parse("*".join(f"({base})^{e}" for base, e in expected))
        assert p.degree == 1431
        assert [(str(q), e) for q, e in factorize(p)] == expected


class TestFactorize:
    def test_sigma_x6(self):
        fac = factorize(sigma(parse("x^6")))
        assert fac.factors == ((M2, 1), (M3, 1))

    def test_derived_x3_plus_x(self):
        assert oracles.school_mul([0, 1], oracles.school_mul([1, 1], [1, 1])) \
            == oracles.to_coeffs(0b1010)
        fac = factorize(parse("x^3+x"))
        assert fac.factors == ((X, 1), (X1, 2))

    def test_prime_power(self):
        assert factorize(parse("x^5")).factors == ((X, 5),)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(ZERO)

    def test_unit(self):
        fac = factorize(ONE)
        assert fac.factors == ()
        assert str(fac) == "1"
        assert fac.product() == ONE

    def test_reconstruction_and_canonical_form(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(250):
            p = rand_nonzero(rng, 64)
            fac = factorize(p)
            assert fac.product() == p
            for base, exp in fac:
                assert exp >= 1
                assert is_irreducible(base)
            values = [base.value for base, _ in fac]
            assert values == sorted(values)
            assert len(values) == len(set(values))

    def test_seed_independent(self):
        # the splitter's seed steers only the internal equal-degree split
        rng = random.Random(RNG_SEED + 2)
        for _ in range(40):
            n = rand_nonzero(rng, 48).value
            baseline = _factorize_int(n, DEFAULT_SEED)
            for seed in (0, 1, 12345):
                assert _factorize_int(n, seed) == baseline

    def test_no_generator_unless_an_equal_degree_split_runs(self,
                                                           monkeypatch):
        # C1 and the degree-16 scan hit x^6(x+1)^6 M1^2 split fully by
        # distinct degree, so factoring them seeds no generator
        inputs = (parse("x^3*(x+1)^4*(x^2+x+1)").value, 0x11440)
        expected = [((2, 3), (3, 4), (7, 1)), ((2, 6), (3, 6), (7, 2))]

        def refuse(seed):
            raise AssertionError(f"random.Random({seed}) was created")

        monkeypatch.setattr(factor.random, "Random", refuse)
        assert [_factorize_int(n, DEFAULT_SEED) for n in inputs] == expected

    def test_square_free_split_never_divides_by_one(self, monkeypatch):
        # a division by 1 walks its whole dividend bit by bit; 20 random
        # monic degree-1024 inputs, drawn as the factor-large benchmark
        # draws them for seed 1, take none, and their factorizations hash
        # as they did while _sff still divided by 1
        rng = random.Random("factor-large/1")
        inputs = [(1 << 1024) | rng.getrandbits(1024) for _ in range(20)]
        divisors = []
        divmod_ = factor._divmod

        def spy(a, b):
            divisors.append(b)
            return divmod_(a, b)

        monkeypatch.setattr(factor, "_divmod", spy)
        out = [_factorize_int(n, DEFAULT_SEED) for n in inputs]
        assert divisors and 1 not in divisors
        digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
        assert digest == "381569f49b7e6752"

    def test_factored_string(self):
        c1 = parse("x^3*(x+1)^4*(x^2+x+1)")
        assert str(factorize(c1)) == "x^3*(x+1)^4*(x^2+x+1)"


class TestOmega:
    def test_c8(self):
        c8 = power(X, 8) * power(X1, 8) * M4 * M5
        assert omega(c8) == 4

    def test_unit(self):
        assert omega(ONE) == 0

    def test_x_x1(self):
        assert omega(parse("x^2+x")) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            omega(ZERO)


class TestIsOdd:
    def test_mersenne(self):
        assert is_odd(M1)

    def test_even(self):
        assert not is_odd(parse("x^2*(x+1)"))

    def test_unit(self):
        assert is_odd(ONE)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_odd(ZERO)

    def test_matches_gcd_definition(self):
        rng = random.Random(RNG_SEED + 3)
        x_x1 = parse("x^2+x")
        for _ in range(300):
            p = rand_nonzero(rng, 32)
            assert is_odd(p) == (gcd(p, x_x1) == ONE)


class TestIsSquarefree:
    def test_sigma_x6_squarefree(self):
        assert is_squarefree(M2 * M3)

    def test_square(self):
        assert not is_squarefree(parse("(x+1)^2"))

    def test_x_x1(self):
        assert is_squarefree(parse("x^2+x"))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(ZERO)

    def test_matches_factorization_exponents(self):
        rng = random.Random(RNG_SEED + 4)
        for _ in range(250):
            p = rand_nonzero(rng, 64)
            by_exponents = all(e == 1 for _, e in factorize(p))
            assert is_squarefree(p) == by_exponents

    def test_derivative_criterion(self):
        rng = random.Random(RNG_SEED + 5)
        for _ in range(250):
            p = rand_nonzero(rng, 64)
            d = _derivative(p.value)
            if d == 0:
                by_derivative = p == ONE
            else:
                by_derivative = gcd(p, Gf2Poly(d)) == ONE
            assert is_squarefree(p) == by_derivative


class TestMersenneSigmaDeskChecks:
    def test_sigma_even_power_odd_and_squarefree(self):
        # for each Mersenne prime P and 1 <= n <= 6, sigma(P^2n) is odd
        # and square-free
        for p in M_SET:
            for n in range(1, 7):
                s = sigma(power(p, 2 * n))
                assert is_odd(s)
                assert is_squarefree(s)
