import copy
import pickle
import random
from functools import lru_cache
from itertools import islice
from operator import add

import pytest

import oracles

from gf2bup import (
    CandidateTuple, Gf2Poly, ONE, X, X1, ZERO,
    candidate_tuples, catalog, exhaustive_low_degree_scan, expected_hit_values,
    factorize, gcd, is_bup, is_indecomposable_bup, is_irreducible, mul, omega,
    parse, power, reduction_check, run_search, search_case, sigma_2star,
    verify_catalog,
)
from gf2bup import bup_search, factor
from gf2bup.bup_search import (
    _CATALOG_TUPLES, _ODD_EXPONENTS, CASES, EXPECTED_HITS_BY_CASE,
    _case_halves, _finalize, _join_case, _odd_join, _residual, _targets,
    _tuple_pairs,
)
from gf2bup.divisor_sums import _multiplicative, _sigma2star_pp_int
from gf2bup.factor import _factorize_cached
from gf2bup.gf2poly import _mul, _valuations
from gf2bup.mersenne import M1, M2, M3, M4, M5

C1 = parse("x^3*(x+1)^4*(x^2+x+1)")


SUPPORT = (X, X1, M1, M2, M3, M4, M5)


def expand(exps):
    """The product of SUPPORT to the exponents exps, by the public API."""
    poly = ONE
    for base, e in zip(SUPPORT, exps):
        poly = mul(poly, power(base, e))
    return poly


@lru_cache(maxsize=None)
def support_vector(slot, e):
    """Exponents of sigma**(p^e) over SUPPORT, p = SUPPORT[slot], taken
    through the public API; None when sigma**(p^e) leaves the support."""
    vec = [0] * 7
    for q, k in factorize(sigma_2star(power(SUPPORT[slot], e))):
        if q not in SUPPORT:
            return None
        vec[SUPPORT.index(q)] = k
    return tuple(vec)


def reference_hits(tuples):
    """Per-tuple reference for the join: a tuple is a fixpoint iff the
    support vectors of sigma** of its prime powers sum to its own exponents.
    Returns (tuples seen, hit tuples); pure x^a(x+1)^b tuples never hit."""
    seen = 0
    hits = []
    for ct in tuples:
        seen += 1
        exps = ct.exponents()
        if not any(ct.h):
            continue
        total = (0,) * 7
        for slot, e in enumerate(exps):
            v = support_vector(slot, e)
            if v is None:
                break
            total = tuple(map(add, total, v))
        else:
            if total == exps:
                hits.append(ct)
    return seen, hits


class TestCandidateTuple:
    def test_m2_m3_exponents_locked(self):
        with pytest.raises(ValueError):
            CandidateTuple(2, 2, (0, 1, 2, 0, 0))

    def test_expand(self):
        ct = CandidateTuple(3, 4, (1, 0, 0, 0, 0))
        assert ct.expand() == C1

    def test_h_from_a_list_hashes_and_compares_as_a_tuple(self):
        listed = CandidateTuple(1, 2, [0, 1, 1, 0, 0])
        tupled = CandidateTuple(1, 2, (0, 1, 1, 0, 0))
        assert listed.h == (0, 1, 1, 0, 0)
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert {listed, tupled} == {tupled}

    def test_conjugate_swaps(self):
        ct = CandidateTuple(8, 9, (0, 1, 1, 2, 3))
        cj = ct.conjugate()
        assert (cj.a, cj.b, cj.h) == (9, 8, (0, 1, 1, 3, 2))
        assert cj.expand() == ct.expand().conjugate()

    def test_slot_map_agrees_with_expanding_then_conjugating(self):
        # the map is derived from _conj; it must send every tuple to the
        # tuple of the conjugate of its expansion
        assert bup_search._CONJ_SLOT == (1, 0, 2, 4, 3, 6, 5)
        tuples = {(a, b) + h for a, b, h in _CATALOG_TUPLES}
        tuples |= bup_search._expected_hit_tuples("all")
        for case in CASES:
            tuples |= {ct.exponents()
                       for ct in islice(candidate_tuples(case), 0, None, 997)}
        assert len(tuples) > 400
        for exps in tuples:
            conjugate = expand(exps).conjugate()
            assert expand(bup_search._conj_exponents(exps)) == conjugate
            ct = CandidateTuple(exps[0], exps[1], exps[2:])
            assert ct.conjugate().expand() == conjugate


class TestCatalog:
    def test_23_entries(self):
        entries = catalog()
        assert len(entries) == 23
        assert [r.catalog_index for r in entries] == list(range(1, 24))

    def test_entry_1(self):
        assert catalog()[0].poly == C1

    def test_entry_13(self):
        expected = power(X, 14) * power(X1, 14) * M2 * M2 * M3 * M3
        assert catalog()[12].poly == expected

    def test_entry_23(self):
        expected = (power(X, 9) * power(X1, 12) * power(M1, 2)
                    * M2 * M3 * power(M4, 2))
        assert catalog()[22].poly == expected

    def test_self_conjugate_entries(self):
        self_conj = {r.catalog_index for r in catalog()
                     if r.poly.conjugate() == r.poly}
        assert self_conj == {3, 4, 8, 12, 13, 17}

    def test_verify_catalog_all_pass(self):
        results = verify_catalog()
        assert len(results) == 23
        assert all(ok for _, ok, _ in results)

    def test_tags_match_a_value_keyed_reference(self):
        # records are tagged from their exponent tuples; the reference
        # keys each catalog number by the value of its expanded tuple
        index = {expand((a, b) + h).value: i + 1
                 for i, (a, b, h) in enumerate(_CATALOG_TUPLES)}
        records = run_search("all") + list(scan_to_degree_20()) + catalog()
        assert len(records) == 40 + 15 + 23
        # one odd part outside the support and one with h2 != h3: no tuple
        for poly in (parse("x^4*(x+1)^5*(x^2+x+1)^4*(x^4+x+1)"),
                     M2 * M3 * M3):
            pairs = _factorize_cached(poly.value)
            rec = bup_search._record(
                poly.value, pairs, bup_search._candidate_from_pairs(pairs),
                "even-odd")
            assert rec.candidate is None
            records.append(rec)
        for r in records:
            n, c = r.poly.value, r.poly.conjugate().value
            i = index.get(n) or index.get(c)
            assert r.catalog_index == index.get(n), hex(n)
            assert r.conjugate_class == (f"C{i}" if i else hex(min(n, c)))

    def test_records_pickle_and_copy_round_trip(self):
        rec = catalog()[16]
        for value in (rec, rec.factorization):
            for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
                assert twin == value and hash(twin) == hash(value)
                assert str(twin) == str(value)


class TestIsBup:
    def test_x2_x1_2(self):
        assert is_bup(parse("x^2*(x+1)^2"))

    def test_x7_x1_7(self):
        assert is_bup(parse("x^7*(x+1)^7"))

    def test_not_bup(self):
        assert not is_bup(parse("x*(x+1)^2"))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_bup(ZERO)

    def test_two_prime_families(self):
        # x^2(x+1)^2 and x^(2^n-1)(x+1)^(2^n-1) for n <= 6
        assert is_bup(parse("x^2*(x+1)^2"))
        for n in range(0, 7):
            e = (1 << n) - 1
            assert is_bup(power(X, e) * power(X1, e))


class TestIndecomposable:
    def test_c1(self):
        assert is_indecomposable_bup(C1)

    def test_x2_x1_2(self):
        assert is_indecomposable_bup(parse("x^2*(x+1)^2"))

    def test_x3_x1_3(self):
        assert is_indecomposable_bup(parse("x^3*(x+1)^3"))

    def test_requires_bup(self):
        with pytest.raises(ValueError):
            is_indecomposable_bup(parse("x^2"))


class TestReductionCheck:
    def test_c17(self):
        assert reduction_check(catalog()[16].poly)

    def test_no_odd_part(self):
        assert reduction_check(parse("x^2*(x+1)^2"))

    def test_requires_bup(self):
        with pytest.raises(ValueError):
            reduction_check(X)


class TestCandidateTuples:
    def test_even_even_count_is_maple_count(self):
        assert sum(1 for _ in candidate_tuples("even-even")) == 35000

    def test_even_even_contains_c3(self):
        target = CandidateTuple(4, 4, (2, 0, 0, 0, 0))
        assert any(ct == target for ct in candidate_tuples("even-even"))

    def test_odd_odd_contains_c11(self):
        target = CandidateTuple(7, 13, (0, 2, 2, 0, 0))
        assert any(ct == target for ct in candidate_tuples("odd-odd"))

    def test_mixed_cases_contain_all_catalog_exponent_patterns(self):
        # the widened M2/M3 exponent range must cover C18 (h2 = 3) and
        # C22/C23 (h2 = 1)
        by_case = {
            "even-odd": CandidateTuple(12, 13, (2, 3, 3, 0, 0)),
            "odd-even": CandidateTuple(9, 12, (2, 1, 1, 2, 0)),
        }
        for case, target in by_case.items():
            assert any(ct == target for ct in candidate_tuples(case))

    def test_lexicographic_order(self):
        for case in CASES:
            block = [ct.exponents()
                     for ct in islice(candidate_tuples(case), 4000)]
            assert block == sorted(block)

    def test_normalized_a_le_b(self):
        for case in CASES:
            assert all(ct.a <= ct.b for ct in candidate_tuples(case))

    def test_unknown_case(self):
        with pytest.raises(ValueError):  # raised on the call, not on iteration
            candidate_tuples("odd")

    def test_case_halves_refuses_an_unknown_case(self):
        # the one check of the case tag, behind candidate_tuples and
        # search_case alike
        for call in (_case_halves, search_case):
            with pytest.raises(ValueError, match="unknown case 'bogus'"):
                call("bogus")

    @pytest.mark.parametrize("case", CASES)
    def test_box_size_and_ends(self, case):
        # (count, first tuple, last tuple) of each case's box
        expected = {
            "even-even": (35000, (2, 2, 0, 0, 0, 0, 0),
                          (14, 14, 7, 23, 23, 7, 7)),
            "even-odd": (146880, (0, 1, 0, 0, 0, 0, 0),
                         (14, 55, 15, 23, 23, 15, 15)),
            "odd-even": (60480, (1, 2, 0, 0, 0, 0, 0),
                         (13, 14, 15, 23, 23, 15, 15)),
            "odd-odd": (156672, (1, 3, 0, 0, 0, 0, 0),
                        (55, 55, 15, 15, 15, 15, 15)),
        }
        tuples = [ct.exponents() for ct in candidate_tuples(case)]
        assert (len(tuples), tuples[0], tuples[-1]) == expected[case]


class TestSearch:
    def test_even_even(self):
        result = search_case("even-even")
        assert result.candidate_count == 35000
        got = {r.poly.value for r in result.records}
        assert got == expected_hit_values("even-even")

    def test_per_case_catalog_indices(self):
        for case, expected in EXPECTED_HITS_BY_CASE.items():
            records = search_case(case).records
            found = {r.catalog_index for r in records
                     if r.catalog_index is not None}
            assert found == set(expected), case

    def test_all_equals_conjugate_closure_of_catalog(self):
        records = run_search("all")
        assert {r.poly.value for r in records} == expected_hit_values("all")
        assert len(records) == 40  # 23 entries, 6 of them self-conjugate

    def test_closed_under_conjugation(self):
        records = run_search("odd-even")
        values = {r.poly.value for r in records}
        assert {r.poly.conjugate().value for r in records} == values

    def test_records_are_sorted_and_certified(self):
        records = run_search("even-odd")
        values = [r.poly.value for r in records]
        assert values == sorted(values)
        for r in records:
            assert omega(r.poly) >= 3
            assert sigma_2star(r.poly) == r.poly
            assert r.factorization.product() == r.poly
            assert r.candidate is not None
            assert r.candidate.expand() == r.poly

    def test_conjugate_class_shared(self):
        records = run_search("even-even")
        by_class = {}
        for r in records:
            by_class.setdefault(r.conjugate_class, set()).add(r.poly.value)
        for cls, values in by_class.items():
            assert len(values) in (1, 2)
            if len(values) == 2:
                a, b = sorted(values)
                assert parse(hex(a)).conjugate().value == b

    def test_join_matches_per_tuple_reference(self):
        # completeness: the join finds exactly the fixpoints of the whole
        # box that candidate_tuples enumerates, and counts the same box
        for case in CASES:
            count, hits = reference_hits(candidate_tuples(case))
            size, join_hits = _join_case(case)
            assert size == count, case
            assert set(join_hits) == set(hits), case
            assert len(join_hits) == len(hits), case

    def test_reference_hits_match_expanded_sigma(self):
        # the factored-support fixpoint test must match full expansion;
        # checked on a window around a known hit and on a strided sample
        def expanded(window):
            return [ct for ct in window
                    if any(ct.h) and is_bup(ct.expand())]

        target = CandidateTuple(4, 4, (2, 0, 0, 0, 0))
        idx = next(i for i, ct in enumerate(candidate_tuples("even-even"))
                   if ct == target)
        lo, hi = max(idx - 200, 0), idx + 200
        window = list(islice(candidate_tuples("even-even"), lo, hi))
        _, fast = reference_hits(window)
        assert fast == expanded(window)
        assert target in fast
        for case in ("odd-odd", "even-odd"):
            window = list(islice(candidate_tuples(case), 0, 400))
            _, fast = reference_hits(window)
            assert fast == expanded(window)

    def test_unconfirmed_join_hit_raises(self, monkeypatch):
        # every join hit is confirmed on its expanded polynomial, so a
        # non-fixpoint the join wrongly reports stops the search
        genuine = bup_search._join_case
        bogus = CandidateTuple(4, 4, (1, 0, 0, 0, 0))
        assert not is_bup(bogus.expand())

        def corrupted(case):
            size, hits = genuine(case)
            return size, hits + [bogus]

        monkeypatch.setattr(bup_search, "_join_case", corrupted)
        with pytest.raises(RuntimeError, match=r"\(4, 4, 1, 0, 0, 0, 0\)"):
            search_case("even-even")

    def test_packed_residuals_match_support_vectors(self):
        # _residual packs the vector sigma**(p^e) - p^e into one int,
        # component i at bit 16 i; every (slot, e) of the four boxes
        used = set()
        for case in CASES:
            left, H = _case_halves(case)
            for a, b, h2_values in left:
                used.update({(0, a), (1, b)})
                used.update((slot, h2) for slot in (3, 4) for h2 in h2_values)
            used.update((slot, e) for slot in (2, 5, 6) for e in H)
        largest = 0
        for slot, e in sorted(used):
            vec = support_vector(slot, e)
            if vec is None:
                assert _residual(slot, e) is None, (slot, e)
                continue
            vec = list(vec)
            vec[slot] -= e
            assert _residual(slot, e) == sum(
                v << (16 * i) for i, v in enumerate(vec)), (slot, e)
            largest = max(largest, *map(abs, vec))
        # a sum of seven residuals stays inside one signed 16-bit field
        assert largest == 55
        assert 7 * largest < 1 << 15

    @pytest.mark.parametrize("slot", range(7))
    def test_residuals_to_exponent_40(self, slot):
        # the identities past the box, where e + 1 = N w reaches N = 32
        for e in range(41):
            vec = support_vector(slot, e)
            if vec is None:
                assert _residual(slot, e) is None, e
                continue
            vec = list(vec)
            vec[slot] -= e
            assert _residual(slot, e) == sum(
                v << (16 * i) for i, v in enumerate(vec)), e

    def test_the_join_factors_nothing(self, monkeypatch):
        # with the residual caches cold and the factorizer refused, the
        # four cases give the same records: each hit is confirmed by
        # sigma** of its tuple's prime powers, so nothing is factored, and
        # the factor cache is not even looked up
        expected = [search_case(case) for case in CASES]
        _residual.cache_clear()
        bup_search._split.cache_clear()

        def refuse(n, *seed):
            raise AssertionError(f"factored {n:#x}")

        monkeypatch.setattr(bup_search, "_factorize_cached", refuse)
        monkeypatch.setattr(factor, "_factorize_int", refuse)
        info = _factorize_cached.cache_info()
        for case, before in zip(CASES, expected):
            got = search_case(case)
            assert got.records == before.records, case
            assert got.candidate_count == before.candidate_count, case
            assert ({r.poly.value for r in got.records}
                    == expected_hit_values(case)), case
        assert _factorize_cached.cache_info() == info

    def test_support_primes_are_distinct_irreducibles(self):
        # the certificate's premise: a tuple's prime powers are its
        # polynomial's factorization because the seven support primes are
        # pairwise distinct irreducibles
        assert len(set(bup_search._SUPPORT)) == 7
        assert all(is_irreducible(Gf2Poly(p)) for p in bup_search._SUPPORT)

    def test_tuple_pairs_give_sigma_of_the_factorization(self):
        # sigma** over a tuple's own prime powers equals sigma** over the
        # factorization of its expanded polynomial, for every catalog
        # entry and its conjugate
        for a, b, h in _CATALOG_TUPLES:
            ct = CandidateTuple(a, b, h)
            for t in (ct, ct.conjugate()):
                n = t.expand().value
                assert (_multiplicative(_tuple_pairs(t), _sigma2star_pp_int)
                        == _multiplicative(_factorize_cached(n),
                                           _sigma2star_pp_int)), t

    def test_finalize_drops_two_prime_fixpoints(self):
        # x^2(x+1)^2 is a confirmed fixpoint with two support primes, so
        # the omega >= 3 filter drops it; C3 beside it passes the filter
        two_prime = CandidateTuple(2, 2, (0, 0, 0, 0, 0))
        c3 = CandidateTuple(4, 4, (2, 0, 0, 0, 0))
        assert is_bup(two_prime.expand())
        assert _finalize("even-even", [two_prime]) == ()
        records = _finalize("even-even", [two_prime, c3])
        assert [r.poly for r in records] == [c3.expand()]

    def test_expected_hits_follow_catalog_parities(self):
        # the table derived from the catalog's (a, b) parities, pinned
        assert EXPECTED_HITS_BY_CASE == {
            "even-even": (3, 4, 8, 13, 14, 15),
            "even-odd": (5, 9, 16, 18, 20),
            "odd-even": (1, 6, 10, 21, 22, 23),
            "odd-odd": (2, 7, 11, 12, 17, 19),
        }

    def test_expected_hit_values_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            expected_hit_values("bogus")

    def test_records_match_factorize(self):
        # records built from a tuple's own pairs equal the factored ones
        records = (run_search("all") + catalog()
                   + exhaustive_low_degree_scan(12))
        assert len(records) == 40 + 23 + 9
        for r in records:
            assert r.factorization == factorize(r.poly)
            if r.candidate is not None:
                assert r.candidate.expand() == r.poly


class TestKnownDeviation:
    """A Mersenne-only b.u.p. pair of degree 78 that the transcribed box
    misses.  Pinned here, not absorbed into the expected data."""

    S = CandidateTuple(15, 27, (2, 4, 4, 1, 1))

    def test_both_are_fixpoints(self):
        for ct in (self.S, self.S.conjugate()):
            p = ct.expand()
            assert p.degree == 78
            assert is_bup(p)
            assert sigma_2star(p) == p

    def test_indecomposable_and_mersenne_only(self):
        for ct in (self.S, self.S.conjugate()):
            assert is_indecomposable_bup(ct.expand())
            assert reduction_check(ct.expand())

    def test_not_in_catalog(self):
        catalog_values = {v for r in catalog()
                          for v in (r.poly.value, r.poly.conjugate().value)}
        for ct in (self.S, self.S.conjugate()):
            assert ct.expand().value not in catalog_values

    def test_outside_the_box(self):
        # a = 15 = 2^4 - 1 needs beta = 4; the odd exponents stop at beta = 3
        assert 15 not in _ODD_EXPONENTS
        assert 27 in _ODD_EXPONENTS
        assert self.S not in candidate_tuples("odd-odd")
        assert self.S.expand().value not in {
            r.poly.value for r in run_search("all")}

    def test_factored_form(self):
        expected = (power(X, 15) * power(X1, 27) * power(M1, 2)
                    * power(M2, 4) * power(M3, 4) * M4 * M5)
        assert self.S.expand() == expected


class TestExhaustiveScan:
    def test_degree_2(self):
        got = [str(r.factorization) for r in exhaustive_low_degree_scan(2)]
        assert got == ["1", "x*(x+1)"]

    def test_degree_4(self):
        got = [str(r.factorization) for r in exhaustive_low_degree_scan(4)]
        assert got == ["1", "x*(x+1)", "x^2*(x+1)^2"]

    def test_degree_9(self):
        values = {r.poly.value for r in exhaustive_low_degree_scan(9)}
        expected = {1, parse("x*(x+1)").value, parse("x^2*(x+1)^2").value,
                    parse("x^3*(x+1)^3").value, C1.value,
                    C1.conjugate().value}
        assert values == expected

    def test_degree_12_adds_c2_and_c3(self):
        values = {r.poly.value for r in exhaustive_low_degree_scan(12)}
        c2 = parse("x^3*(x+1)^5*(x^2+x+1)^2")
        c3 = parse("x^4*(x+1)^4*(x^2+x+1)^2")
        assert c2.value in values
        assert c2.conjugate().value in values
        assert c3.value in values
        assert len(values) == 9

    def test_bound(self):
        with pytest.raises(ValueError):
            exhaustive_low_degree_scan(21)

    def test_degree_20_frozen_fixpoints(self):
        # frozen from the per-polynomial factoring scan before the sieve:
        # the 13 fixpoints of degree <= 16 and C6 (x^7(x+1)^8 M5) with its
        # conjugate; each record's factors are the factorizer's
        records = exhaustive_low_degree_scan(20)
        assert tuple(r.poly.value for r in records) == (
            0x1, 0x6, 0x14, 0x78, 0x2d0, 0x3b8, 0x1450,
            0x1860, 0x1e78, 0x7f80, 0xb6d0, 0xdb60, 0x11440,
            0xaf500, 0xc8c80,
        )
        for r in records:
            assert r.factorization == factorize(r.poly)

    def test_divisible_by_x_x1_except_unit(self):
        # every nonconstant fixpoint is divisible by x(x+1)
        for rec in exhaustive_low_degree_scan(12):
            if rec.poly != ONE:
                assert rec.poly % X == ZERO
                assert rec.poly % X1 == ZERO

    def test_all_nonconstant_hits_indecomposable(self):
        for rec in exhaustive_low_degree_scan(12):
            assert is_indecomposable_bup(rec.poly)

    def test_coprime_bipartitions(self):
        # if st is a fixpoint with s, t coprime, then s is one iff t is
        for rec in exhaustive_low_degree_scan(10):
            pairs = list(rec.factorization)
            k = len(pairs)
            for mask in range(1, 1 << max(k - 1, 0)):
                s = ONE
                t = ONE
                for i, (base, exp) in enumerate(pairs):
                    if (mask >> i) & 1:
                        s = s * power(base, exp)
                    else:
                        t = t * power(base, exp)
                assert gcd(s, t) == ONE
                assert is_bup(s) == is_bup(t)

    def test_scan_hits_pass_reduction_check(self):
        for rec in exhaustive_low_degree_scan(14):
            assert reduction_check(rec.poly)

    @pytest.mark.parametrize("max_degree", range(1, 21))
    def test_a_prefix_of_the_degree_20_scan(self, max_degree):
        # the pass has m = 1 alone for D <= 8, and adds x^2 + x + 1 at 9
        expected = [r for r in scan_to_degree_20()
                    if r.poly.degree <= max_degree]
        assert exhaustive_low_degree_scan(max_degree) == expected


@lru_cache(maxsize=1)
def scan_to_degree_20():
    return tuple(exhaustive_low_degree_scan(20))


class TestScanLemma:
    # x(x+1) divides sigma**(P^e) for P irreducible and coprime to x(x+1)
    # and e >= 1, so sigma**(m) has x- and (x+1)-valuations >= 1 for every
    # odd part m != 1: what bounds the degree of the odd parts the scan joins

    def test_prime_powers(self):
        primes = [p for p in map(Gf2Poly, range(4, 1 << 11))
                  if is_irreducible(p)]
        assert len(primes) == 224  # every irreducible of degree 2..10
        for p in primes:
            for e in range(1, 9):
                assert sigma_2star(power(p, e)) % (X * X1) == ZERO, (p, e)

    def test_odd_parts_to_degree_12(self):
        for m in coprime_to_x_x1(12)[1:]:
            assert sigma_2star(Gf2Poly(m)) % (X * X1) == ZERO, hex(m)

    def test_odd_parts_by_definition_to_degree_8(self):
        for m in coprime_to_x_x1(8)[1:]:
            assert oracles.divides(0b110, oracles.sigma2star_brute(m)), hex(m)


def odd_part_tables(odd_degree):
    """The tables of the pass of the scan whose odd parts have degree
    <= odd_degree, a fixpoint degree of odd_degree + 7: _odd_join's
    (prime, exponent, rest, alpha, beta, odd, hits)."""
    max_degree = odd_degree + 7
    return _odd_join(max_degree, _targets(max_degree))


def coprime_to_x_x1(max_degree):
    """Every m coprime to x(x+1) of degree <= max_degree, increasing."""
    return [m for m in range(1, 1 << (max_degree + 1), 2) if m.bit_count() & 1]


def odd_part_sigmas(odd_degree):
    """(m, sigma**(m)) for every m coprime to x(x+1) of degree <= odd_degree,
    with sigma**(m) = x^alpha (x+1)^beta u multiplied back from the scan's
    tables by schoolbook products."""
    alpha, beta, odd = odd_part_tables(odd_degree)[3:6]
    coprime = coprime_to_x_x1(odd_degree)
    assert len(odd) == len(coprime)
    out = []
    for m in coprime:
        coeffs = [0] * alpha[m >> 2] + oracles.to_coeffs(odd[m >> 2])
        for _ in range(beta[m >> 2]):
            coeffs = oracles.school_mul(coeffs, [1, 1])
        out.append((m, oracles.from_coeffs(coeffs)))
    return out


class TestOddPartTable:
    # the tables of the odd parts the scan joins, entry by entry

    @pytest.mark.parametrize("odd_degree", [7, 12])
    def test_matches_factoring(self, odd_degree):
        # an odd and an even bound: every m < 2^13 coprime to x(x+1) at 12
        for m, sigma in odd_part_sigmas(odd_degree):
            assert sigma == _multiplicative(
                _factorize_cached(m), _sigma2star_pp_int), hex(m)

    def test_factors_only_the_hits(self):
        # the pass reads no module cache; each hit is factored once, to be
        # confirmed and recorded, so the factor cache grows by at most that
        before = _factorize_cached.cache_info().currsize
        records = exhaustive_low_degree_scan(12)
        grown = _factorize_cached.cache_info().currsize - before
        assert grown <= len(records)

    def test_matches_definition_to_degree_8(self):
        for m, sigma in odd_part_sigmas(8):
            assert sigma == oracles.sigma2star_brute(m), hex(m)

    @pytest.mark.parametrize("odd_degree", [7, 12])
    def test_factor_chains_multiply_back(self, odd_degree):
        # following (prime, exponent, rest) from m gives factorize(m)'s
        # pairs, smallest prime first, and their product is m; each k on
        # the way is P^e times its rest exactly
        prime, exponent, rest = odd_part_tables(odd_degree)[:3]
        for m in coprime_to_x_x1(odd_degree):
            pairs = []
            product = 1
            k = m
            while k > 1:
                p, e = prime[k >> 2], exponent[k >> 2]
                pairs.append((p, e))
                step = [1]
                for _ in range(e):
                    step = oracles.school_mul(step, oracles.to_coeffs(p))
                product = oracles.from_coeffs(oracles.school_mul(
                    oracles.to_coeffs(product), step))
                assert oracles.from_coeffs(oracles.school_mul(
                    step, oracles.to_coeffs(rest[k >> 2]))) == k, hex(k)
                k = rest[k >> 2]
            assert product == m, hex(m)
            assert pairs == [(q.value, e) for q, e in factorize(m)], hex(m)


@lru_cache(maxsize=1)
def fixpoints_by_filter():
    """Every n < 2^13 that sigma**, taken through factorization, fixes."""
    return [n for n in range(1, 1 << 13)
            if _multiplicative(_factorize_cached(n),
                               _sigma2star_pp_int) == n]


# v_(x+1)(sigma**(x^e)) for e = 0..16
V_TO_16 = (0, 1, 2, 3, 2, 1, 4, 7, 4, 1, 2, 3, 2, 1, 8, 15, 8)


class TestLogDomainJoin:
    # the join reads sigma** through the exponents of x and x + 1, its logs
    # to those bases, which add where the polynomials multiply
    @pytest.mark.parametrize("max_degree", range(1, 13))
    def test_fixpoints_equal_a_filter_of_every_polynomial(self, max_degree):
        expected = [n for n in fixpoints_by_filter()
                    if n.bit_length() - 1 <= max_degree]
        got = [r.poly.value for r in exhaustive_low_degree_scan(max_degree)]
        assert got == expected

    @pytest.mark.parametrize("e", range(len(V_TO_16)))
    def test_valuations_of_sigma_x_powers(self, e):
        # sigma**(x^e) = (x+1)^V(e) R(e): x never divides it, and R(e) is
        # the product of its factors other than x + 1
        image = sigma_2star(power(X, e))
        pairs = dict(factorize(image))
        assert X not in pairs
        assert pairs.pop(X1, 0) == V_TO_16[e]
        rest = ONE
        for base, k in pairs.items():
            rest = rest * power(base, k)
        assert _valuations(image.value) == (0, V_TO_16[e], rest.value)

    @pytest.mark.parametrize("max_degree", [5, 12, 16])
    def test_log_turns_products_into_sums(self, max_degree):
        # (v, w, u) of s t is (v_s + v_t, w_s + w_t, u_s u_t), and each
        # (v, w, u) multiplies back to its polynomial
        rng = random.Random(9016 + max_degree)
        for _ in range(300):
            s = rng.randrange(1, 1 << max_degree)
            t = rng.randrange(1, 1 << max_degree)
            vs, ws, us = _valuations(s)
            vt, wt, ut = _valuations(t)
            assert _valuations(_mul(s, t)) == (vs + vt, ws + wt, _mul(us, ut))
            assert power(X, vs) * power(X1, ws) * Gf2Poly(us) == Gf2Poly(s)
            assert _valuations(us) == (0, 0, us)

    def test_targets_cover_every_a_b_once(self):
        targets = _targets(16)
        pairs = sorted((a, b) for entries in targets.values()
                       for a, b, _ in entries)
        assert pairs == [(a, b) for a in range(17) for b in range(17 - a)
                         if a >= V_TO_16[b] and b >= V_TO_16[a]]
        for (alpha, beta), entries in targets.items():
            for a, b, r_ab in entries:
                assert (alpha, beta) == (a - V_TO_16[b], b - V_TO_16[a])
                # sigma**(x^a) sigma**((x+1)^b) without its x and x + 1
                image = sigma_2star(power(X, a)) * sigma_2star(power(X1, b))
                split = power(X, V_TO_16[b]) * power(X1, V_TO_16[a])
                assert image % split == ZERO
                assert r_ab == (image // split).value

    def test_admissible_pairs_at_degree_16(self):
        # the (a, b) an odd part of degree >= 2 can complete: both key
        # parts >= 1 and a + b <= 14; 29 of the 91 pairs with a, b >= 1
        admissible = sorted((a, b) for key, entries in _targets(16).items()
                            if min(key) >= 1
                            for a, b, _ in entries if a + b <= 14)
        assert len(admissible) == 29
        assert min(a + b for a, b in admissible) == 7
        assert [ab for ab in admissible if sum(ab) == 7] == [
            (2, 5), (3, 4), (4, 3), (5, 2)]

    @pytest.mark.parametrize("max_degree", range(1, 21))
    def test_odd_parts_stop_at_degree_d_minus_7(self, max_degree):
        # 2^(D - 8) odd parts, of degree <= D - 7, from D = 9 on; below, m = 1
        tables = _odd_join(max_degree, _targets(max_degree))
        assert all(len(t) == 1 << max(max_degree - 8, 0) for t in tables[:6])

    @pytest.mark.parametrize("max_degree, products", [(16, 251), (20, 4122)])
    def test_one_product_per_composite_and_fitting_target(
            self, monkeypatch, max_degree, products):
        # the sieve marks multiples by Gray-code steps and an m with rest 1
        # takes sigma**(P^e)'s odd part as it is, so the pass multiplies
        # once per m with a rest != 1 and once per target it checks
        targets = _targets(max_degree)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return _mul(a, b)

        monkeypatch.setattr(bup_search, "_mul", counted)
        _, _, rest, alpha, beta, _, _ = _odd_join(max_degree, targets)
        composite = sum(r != 1 for r in rest[1:])
        fitting = 0
        for j in range(len(rest)):
            m = (j << 2) | 1 | ((j.bit_count() & 1) << 1)
            room = max_degree - (m.bit_length() - 1)
            fitting += sum(a + b <= room for a, b, _ in
                           targets.get((alpha[j], beta[j]), ()))
        assert len(calls) == composite + fitting == products

    def test_unconfirmed_hit_raises(self, monkeypatch):
        real = bup_search._targets

        def with_a_spurious_target(max_degree):
            targets = real(max_degree)
            # claims R(1) conj(R(1)) = x^2 + x + 1, so that
            # sigma**(x (x+1) m) = x (x+1) m for m = x^2 + x + 1, whose
            # sigma** is x (x+1): the pass now reaches degree 4 - 2 = 2
            targets.setdefault((1, 1), []).append((1, 1, 0b111))
            return targets

        monkeypatch.setattr(bup_search, "_targets", with_a_spurious_target)
        with pytest.raises(RuntimeError, match=(
                r"^scan hit x\*\(x\+1\)\*\(x\^2\+x\+1\) is not a fixpoint")):
            exhaustive_low_degree_scan(4)
