"""Exhaustive certified search for bi-unitary perfect polynomials over GF(2)
whose odd prime divisors all lie in the Mersenne set M1..M5.

The search covers exponent tuples (a, b, h1..h5) for candidates
x^a (x+1)^b M1^h1 ... M5^h5 within lemma-derived bounds, case-split by the
parities of a and b with a <= b (the a > b side is recovered afterwards by
the substitution x <-> x+1).  The bounds are the exponent sets transcribed
from the paper.  Every hit satisfies the sigma** fixpoint equation exactly,
so the search has no false positives, but it is complete only inside that
box: a Mersenne-only fixpoint pair of degree 78 lies outside it (README,
"Known deviation").

Verification compares exponent vectors over the seven support primes.  A
candidate is a fixpoint iff the exponents of sigma** of its prime powers
sum to its own exponent tuple.  Those exponents are derived, not factored:
sigma**(P^e) is (P^w + 1)^N / (P + 1) for e + 1 = N w, and
(P^m + 1)(P^(m+1) + 1) / (P + 1) for e = 2m, with N a power of two and w
odd, and (P^w + 1)^N = P^(N w) + 1.  So each P^w + 1 is split over the
support once, by trial division.  Any prime power whose sigma** contains an
irreducible outside the support can never occur in a fixpoint
(multiplication cannot cancel factors), so such components are dropped.
Because the fixpoint condition is a sum over slots, each case is solved as
a meet-in-the-middle join of two independent halves of its box instead of
tuple by tuple.  Every hit of the join is confirmed before it becomes a
record: the product of sigma** over the prime powers its tuple names must
equal its expanded polynomial.  The support primes are x, x + 1 and
M1..M5, seven pairwise distinct irreducibles (mersenne proves M1..M5 with
is_irreducible when it builds them), so by unique factorization those
prime powers are the polynomial's factorization, and the product is its
sigma**.  The record prints the same prime powers, so the check covers
exactly what is printed, and a search factors nothing.

The exhaustive low-degree scan rests on none of those bounds: it decides
every polynomial of degree <= D.  It writes each as x^a (x+1)^b m with m
coprime to x(x+1), and joins the odd parts m to the pairs (a, b) exactly,
by the x- and (x+1)-valuations of their sigma**; those valuations also
bound the degree of the odd parts a fixpoint can have.
"""

import time
from array import array
from functools import lru_cache
from itertools import product

from .divisor_sums import (
    _multiplicative, _sigma2star_pp_int, odd_exponent_form)
from .factor import Factorization, _factorize_cached
from .gf2poly import (
    Gf2Poly, _Frozen, _conj, _divmod, _exponents, _int_of, _mul, _nonzero,
    _pow, _valuations,
)
from .mersenne import M_SET

__all__ = [
    "CASES", "K1", "K2",
    "CandidateTuple", "BupRecord", "CaseSearchResult",
    "catalog", "is_bup", "is_indecomposable_bup", "reduction_check",
    "candidate_tuples", "run_search", "search_case",
    "exhaustive_low_degree_scan", "verify_catalog",
    "EXPECTED_HITS_BY_CASE", "expected_hit_values",
]

CASES = ("even-even", "even-odd", "odd-even", "odd-odd")

# Exponent sets from the reduction lemmas bounding the search space.
K1 = (0, 1, 2, 3, 4, 5, 6, 7, 11, 23)
K2 = (0, 1, 2, 3, 4, 6, 7, 15)
_H145_EVEN_EVEN = (0, 1, 2, 3, 7)
_H145_MIXED = (0, 1, 2, 3, 7, 15)
_EVEN_EXPONENTS = tuple(range(0, 15, 2))
# odd exponents of the form 2^beta * v - 1 with beta <= 3 and v in {1,3,5,7}
_ODD_EXPONENTS = tuple(sorted(
    {(1 << beta) * v - 1 for beta in (1, 2, 3) for v in (1, 3, 5, 7)}))

# Support primes, in slot order (x, x+1, M1..M5).
_SUPPORT = (2, 3) + tuple(p.value for p in M_SET)
_SUPPORT_INDEX = {base: i for i, base in enumerate(_SUPPORT)}
# x <-> x+1 sends the prime of slot i to that of slot _CONJ_SLOT[i], here
# (1, 0, 2, 4, 3, 6, 5); an involution, so it also reads the other way.
_CONJ_SLOT = tuple(_SUPPORT_INDEX[_conj(p)] for p in _SUPPORT)


def _conj_exponents(exps):
    """The conjugate's exponents over the support, from the exponents exps."""
    return tuple(exps[j] for j in _CONJ_SLOT)


class CandidateTuple(_Frozen):
    """Search-space point x^a (x+1)^b M1^h[0] ... M5^h[4]."""

    __slots__ = ("a", "b", "h")

    def __init__(self, a, b, h):
        # a tuple, so that equal tuples hash alike whatever h was built from
        h = tuple(h)
        if len(h) != 5:
            raise ValueError("h must be five exponents")
        _exponents((a, b) + h)
        if h[1] != h[2]:
            raise ValueError("the M2 and M3 exponents must be equal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h", h)

    def exponents(self):
        """The 7-tuple (a, b, h1..h5) over the support primes."""
        return (self.a, self.b) + tuple(self.h)

    def expand(self):
        n = 1
        for base, e in zip(_SUPPORT, self.exponents()):
            if e:
                n = _mul(n, _pow(base, e))
        return Gf2Poly(n)

    def conjugate(self):
        """Tuple of the conjugate polynomial."""
        a, b, *h = _conj_exponents(self.exponents())
        return CandidateTuple(a, b, h)


class BupRecord(_Frozen):
    """A certified bi-unitary perfect polynomial.

    candidate is its CandidateTuple and catalog_index its catalog number,
    each None when it has none.
    """

    __slots__ = ("poly", "factorization", "candidate", "case_tag",
                 "conjugate_class", "catalog_index")

    def __init__(self, poly, factorization, candidate, case_tag,
                 conjugate_class, catalog_index):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "factorization", factorization)
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "case_tag", case_tag)
        object.__setattr__(self, "conjugate_class", conjugate_class)
        object.__setattr__(self, "catalog_index", catalog_index)


class CaseSearchResult(_Frozen):
    """One case's records, the size of its box and its time in seconds."""

    __slots__ = ("case_tag", "records", "candidate_count", "seconds")

    def __init__(self, case_tag, records, candidate_count, seconds):
        object.__setattr__(self, "case_tag", case_tag)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "candidate_count", candidate_count)
        object.__setattr__(self, "seconds", seconds)


# The 23 catalog polynomials C1..C23 as (a, b, (h1..h5)).
_CATALOG_TUPLES = (
    (3, 4, (1, 0, 0, 0, 0)),
    (3, 5, (2, 0, 0, 0, 0)),
    (4, 4, (2, 0, 0, 0, 0)),
    (6, 6, (2, 0, 0, 0, 0)),
    (4, 5, (3, 0, 0, 0, 0)),
    (7, 8, (0, 0, 0, 0, 1)),
    (7, 9, (0, 0, 0, 0, 2)),
    (8, 8, (0, 0, 0, 1, 1)),
    (8, 9, (0, 0, 0, 1, 2)),
    (7, 10, (2, 0, 0, 0, 1)),
    (7, 13, (0, 2, 2, 0, 0)),
    (9, 9, (0, 0, 0, 2, 2)),
    (14, 14, (0, 2, 2, 0, 0)),
    (8, 10, (2, 0, 0, 1, 1)),
    (8, 12, (2, 1, 1, 1, 0)),
    (10, 13, (2, 2, 2, 1, 0)),
    (13, 13, (2, 4, 4, 1, 1)),
    (12, 13, (2, 3, 3, 0, 0)),
    (9, 13, (0, 2, 2, 2, 0)),
    (8, 13, (0, 2, 2, 1, 0)),
    (9, 10, (2, 0, 0, 2, 1)),
    (7, 12, (2, 1, 1, 0, 0)),
    (9, 12, (2, 1, 1, 2, 0)),
)


def _parity_tag(a, b):
    return f"{'even' if a % 2 == 0 else 'odd'}-{'even' if b % 2 == 0 else 'odd'}"


# Catalog members each case finds: all have a <= b, so by parity tag.
EXPECTED_HITS_BY_CASE = {
    case: tuple(i + 1 for i, (a, b, _) in enumerate(_CATALOG_TUPLES)
                if _parity_tag(a, b) == case)
    for case in CASES
}


# Catalog number by exponent tuple (a, b, h1..h5): a polynomial's tuple
# determines it, so a record is tagged without expanding the catalog.
_CATALOG_INDEX = {(a, b) + h: i + 1
                  for i, (a, b, h) in enumerate(_CATALOG_TUPLES)}


def _candidate_from_pairs(pairs):
    exps = [0] * 7
    for base, e in pairs:
        slot = _SUPPORT_INDEX.get(base)
        if slot is None:
            return None
        exps[slot] = e
    if exps[3] != exps[4]:
        return None
    return CandidateTuple(exps[0], exps[1], tuple(exps[2:]))


def _tuple_pairs(ct):
    """The (support prime, exponent) pairs of a tuple, sorted by prime."""
    return sorted((base, e) for base, e in zip(_SUPPORT, ct.exponents()) if e)


def _record(n, pairs, candidate, case_tag):
    """The record of fixpoint n with prime powers pairs and tuple candidate
    (or None); its class is C<i> if n or its conjugate is catalog entry i."""
    i = class_i = None
    if candidate is not None:
        exps = candidate.exponents()
        i = _CATALOG_INDEX.get(exps)
        class_i = i or _CATALOG_INDEX.get(_conj_exponents(exps))
    return BupRecord(
        poly=Gf2Poly(n),
        factorization=Factorization((Gf2Poly(q), e) for q, e in pairs),
        candidate=candidate,
        case_tag=case_tag,
        conjugate_class=f"C{class_i}" if class_i else hex(min(n, _conj(n))),
        catalog_index=i,
    )


def catalog():
    """The 23 catalog polynomials as records, in catalog order."""
    out = []
    for i, (a, b, h) in enumerate(_CATALOG_TUPLES):
        ct = CandidateTuple(a, b, h)
        rec = _record(ct.expand().value, _tuple_pairs(ct), ct,
                      _parity_tag(a, b))
        assert rec.catalog_index == i + 1
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# fixpoint predicates

def is_bup(s):
    """True iff sigma**(s) = s."""
    n = _nonzero(s, "bi-unitary perfection")
    return _multiplicative(_factorize_cached(n), _sigma2star_pp_int) == n


def _fixpoint(s):
    """The int of s, which must be bi-unitary perfect (else ValueError)."""
    if not is_bup(s):
        raise ValueError("argument must be bi-unitary perfect")
    return _int_of(s)


def is_indecomposable_bup(s):
    """True iff no coprime bipartition of s has both parts bi-unitary perfect.

    The argument must itself be bi-unitary perfect.  As sigma** is
    multiplicative, a part of s is fixed iff its complement is, so only the
    part holding each chosen subset of the prime divisors is tested.
    """
    pairs = _factorize_cached(_fixpoint(s))
    k = len(pairs)
    if k < 2:
        return True
    powers = [_pow(base, e) for base, e in pairs]
    images = [_sigma2star_pp_int(base, e) for base, e in pairs]
    for mask in range(1, 1 << (k - 1)):  # last prime pinned to the second part
        s1 = 1
        image = 1
        for i in range(k - 1):
            if (mask >> i) & 1:
                s1 = _mul(s1, powers[i])
                image = _mul(image, images[i])
        if image == s1:
            return False
    return True


def reduction_check(s):
    """True iff every odd prime factor of the given fixpoint lies in M1..M5."""
    return all(base in _SUPPORT_INDEX
               for base, _ in _factorize_cached(_fixpoint(s)))


# ---------------------------------------------------------------------------
# candidate generation

def _case_halves(case_tag):
    """The box of one search case, split for the join.

    Returns (left, H): left lists (a, b, h2 values) under the case's
    coupling rules, in lexicographic order, and every h1, h4, h5 ranges
    independently over H.  An unknown case_tag raises ValueError.
    """
    if case_tag == "even-even":
        # 2 <= a <= b <= 14 even, h2 = h3 in K1, h1, h4, h5 in {0,1,2,3,7}:
        # the published Maple sets exactly, 28 * 10 * 125 = 35000.
        evens = range(2, 15, 2)
        return [(a, b, K1) for a in evens for b in evens
                if a <= b], _H145_EVEN_EVEN
    # Mixed parities: h2 = h3 ranges over all of K1; the narrower printed
    # set {0,2,4,6} would miss the catalog hits with odd M2-exponents.
    if case_tag == "even-odd":
        return [(a, b, K1) for a in _EVEN_EXPONENTS for b in _ODD_EXPONENTS
                if a <= b], _H145_MIXED
    if case_tag == "odd-even":
        return [(a, b, K1) for a in _ODD_EXPONENTS for b in _EVEN_EXPONENTS
                if a <= b], _H145_MIXED
    if case_tag != "odd-odd":
        raise ValueError(f"unknown case {case_tag!r}")
    # odd-odd: a = 2^alpha*u - 1, b = 2^beta*v - 1 with u, v in {1,3,5,7}
    # and alpha, beta <= 3; h2 = h3 forced to 0 unless u = 7 or v = 7.
    left = []
    for a in _ODD_EXPONENTS:
        _, u = odd_exponent_form(a)
        for b in _ODD_EXPONENTS:
            _, v = odd_exponent_form(b)
            if b < a or (u == 1 and v == 1 and a == b):
                continue
            left.append((a, b, K2 if (u == 7 or v == 7) else (0,)))
    return left, K2


def candidate_tuples(case_tag):
    """Lexicographically ordered candidate stream for one search case."""
    left, H = _case_halves(case_tag)
    return (CandidateTuple(a, b, (h1, h2, h2, h4, h5))
            for a, b, h2_values in left
            for h1, h2, h4, h5 in product(H, h2_values, H, H))


# ---------------------------------------------------------------------------
# verification

@lru_cache(maxsize=None)
def _split(n):
    """The exponents of a nonzero n over the seven support primes, packed
    as in _residual; None when a factor outside the support is left over.

    x and x + 1 come from their valuations, M1..M5 by trial division.
    """
    v, w, n = _valuations(n)
    packed = v + (w << 16)
    for slot in range(2, len(_SUPPORT)):
        while True:
            q, r = _divmod(n, _SUPPORT[slot])
            if r:
                break
            n = q
            packed += 1 << (16 * slot)
    return packed if n == 1 else None


@lru_cache(maxsize=None)
def _residual(slot, e):
    """sigma**(p^e) minus p^e as a vector v of exponents over the seven
    support primes, p the prime of the slot, packed into the int
    sum of v_i * 2^(16 i).

    The packing is linear, so packed residuals add as vectors do.  It is
    injective on sums of up to seven residuals while every component stays
    below 2^15 in absolute value; over the whole box none exceeds 55.
    None when sigma**(p^e) contains an irreducible outside the support: no
    candidate containing that prime power can be a fixpoint.

    No sigma** is formed.  With N a power of two and w odd,

        sigma**(p^e) = (p^w + 1)^N / (p + 1)                 for e + 1 = N w,
        sigma**(p^e) = (p^m + 1)(p^(m+1) + 1) / (p + 1)      for e = 2m,

    as sigma**(p^e) = sigma(p^e) = (p^(e+1) + 1) / (p + 1) for odd e and
    (p + 1) sigma(p^m) sigma(p^(m-1)) for even e, and (p^w + 1)^N is
    p^(N w) + 1 over GF(2).  So the vector of p^k + 1, k = N w, is N times
    that of p^w + 1, which _split computes once.  p + 1 splits over x and
    x + 1 for every support prime, so no factor outside the support cancels.
    """
    if not e:
        return 0
    p = _SUPPORT[slot]
    packed = (-e << (16 * slot)) - _split(p ^ 1)
    for k in ((e + 1,) if e & 1 else (e // 2, e // 2 + 1)):
        n = k & -k  # k = n w with w odd
        v = _split(_pow(p, k // n) ^ 1)
        if v is None:
            return None
        packed += n * v
    return packed


def _join_case(case_tag):
    """Every fixpoint tuple of one case's box; returns (box size, hits).

    A tuple is a fixpoint iff the residuals of its seven slots sum to zero.
    The right half (h1, h4, h5) is hashed by its negated residual sum, and
    each admissible left half (a, b, h2 = h3) looks up its sum.  Prime
    powers whose sigma** leaves the support are dropped from both halves.
    """
    left, H = _case_halves(case_tag)
    columns = [[(e, r) for e in H if (r := _residual(slot, e)) is not None]
               for slot in (2, 5, 6)]
    right = {}
    for h1, r1 in columns[0]:
        for h4, r4 in columns[1]:
            for h5, r5 in columns[2]:
                right.setdefault(-(r1 + r4 + r5), []).append((h1, h4, h5))
    # r(M2^h2) + r(M3^h2) for each set of h2 values the left half uses
    middle = {h2_values: [(h2, r2 + r3) for h2 in h2_values
                          if (r2 := _residual(3, h2)) is not None
                          and (r3 := _residual(4, h2)) is not None]
              for h2_values in {h2_values for _, _, h2_values in left}}
    hits = []
    for a, b, h2_values in left:
        ra = _residual(0, a)
        rb = _residual(1, b)
        if ra is None or rb is None:
            continue
        rab = ra + rb
        for h2, r23 in middle[h2_values]:
            for h1, h4, h5 in right.get(rab + r23, ()):
                # pure x^a(x+1)^b: the omega <= 2 families, out of scope
                if h1 or h2 or h4 or h5:
                    hits.append(CandidateTuple(a, b, (h1, h2, h2, h4, h5)))
    size = sum(len(h2_values) for _, _, h2_values in left) * len(H) ** 3
    return size, hits


def _finalize(case_tag, hits):
    """The records of the join's hits and their conjugates, each hit
    confirmed by sigma** of the prime powers its tuple names."""
    by_value = {}
    for ct in hits:
        pairs = _tuple_pairs(ct)
        n = ct.expand().value
        if _multiplicative(pairs, _sigma2star_pp_int) != n:
            raise RuntimeError(f"join hit {ct.exponents()} is not a fixpoint")
        by_value.setdefault(n, (ct, pairs))
        conj = ct.conjugate()
        by_value.setdefault(_conj(n), (conj, _tuple_pairs(conj)))
    return tuple(_record(n, pairs, ct, case_tag)
                 for n, (ct, pairs) in sorted(by_value.items())
                 if len(pairs) >= 3)


def search_case(case_tag):
    """Run one case; records are deduplicated, conjugate-closed and sorted.

    Each hit of the join is confirmed by sigma** of the prime powers its
    tuple names: the product of sigma**(P^e) over its (support prime,
    exponent) pairs must equal its expanded polynomial n.  The support
    primes are seven distinct irreducibles, so by unique factorization
    those pairs are n's factorization and the product is sigma**(n); a
    hit it does not fix raises RuntimeError.  Its record is built from the
    same pairs, so the search factors nothing.
    """
    start = time.perf_counter()
    size, hits = _join_case(case_tag)
    records = _finalize(case_tag, hits)
    return CaseSearchResult(case_tag, records, size, time.perf_counter() - start)


def run_search(case_tag="all"):
    """Search one case or all four; returns certified records with omega >= 3,
    conjugate-closed and canonically ordered."""
    cases = CASES if case_tag == "all" else (case_tag,)
    by_value = {}
    for case in cases:
        for rec in search_case(case).records:
            by_value.setdefault(rec.poly.value, rec)
    return [by_value[n] for n in sorted(by_value)]


def _expected_hit_tuples(case_tag):
    """The exponent tuples (a, b, h1..h5) of expected_hit_values(case_tag),
    without expanding them."""
    if case_tag != "all" and case_tag not in CASES:
        raise ValueError(f"unknown case {case_tag!r}")
    cases = CASES if case_tag == "all" else (case_tag,)
    tuples = set()
    for case in cases:
        for i in EXPECTED_HITS_BY_CASE[case]:
            a, b, h = _CATALOG_TUPLES[i - 1]
            tuples.add((a, b) + h)
            tuples.add(_conj_exponents((a, b) + h))
    return frozenset(tuples)


def expected_hit_values(case_tag="all"):
    """Conjugate closure of the catalog subset each case is expected to hit."""
    return frozenset(CandidateTuple(a, b, h).expand().value
                     for a, b, *h in _expected_hit_tuples(case_tag))


# ---------------------------------------------------------------------------
# exhaustive low-degree scan (a join on valuations) and catalog verification

def _targets(max_degree):
    """The x^a (x+1)^b with a + b <= max_degree, keyed by the valuations
    sigma** of an odd part must have to complete them to a fixpoint.

    With sigma**(x^e) = (x+1)^V(e) R(e), the key of (a, b) is
    (a - V(b), b - V(a)), and pairs with a negative part are left out.
    Maps each key to the (a, b, R(a) conj(R(b))) that give it.
    """
    V, R = zip(*(_valuations(_sigma2star_pp_int(2, e))[1:]
                 for e in range(max_degree + 1)))
    conj_R = [_conj(r) for r in R]
    targets = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            key = (a - V[b], b - V[a])
            if min(key) >= 0:
                targets.setdefault(key, []).append(
                    (a, b, _mul(R[a], conj_R[b])))
    return targets


def _odd_join(max_degree, targets):
    """One increasing pass over the odd parts m, coprime to x(x+1), that a
    fixpoint of degree <= max_degree can have, sieving their smallest
    irreducible factors as it goes and looking each m up in targets.

    An m != 1 can only match a key with both parts >= 1 (by the lemma of
    exhaustive_low_degree_scan), so its degree is at most top = max_degree
    less the least a + b under such a key.  Such an m is 4j + 1 or 4j + 3:
    both are prime to x, and exactly one of them has odd weight, that is,
    is prime to x + 1.  So j = m >> 2 indexes the m in increasing order, in
    tables of 2^(top - 1) entries (one, for m = 1 alone, when top < 2).

    An m that no smaller irreducible has reached is irreducible.  If its
    degree is at most top / 2, it marks each multiple m*q not yet marked
    with m and q, for every q coprime to x(x+1) with deg m*q <= top.
    Every multiple exceeds m and the irreducibles come in increasing order,
    so the first to mark a polynomial is its smallest factor P.  When the
    pass reaches it, the cofactor q < m is done, so the exponent e of P and
    the part r of m that P does not divide follow from q's entries, and
    sigma**(m) = sigma**(P^e) sigma**(r) takes two additions of valuations
    and one product of odd parts.

    Returns (prime, exponent, rest, alpha, beta, odd, hits): m is
    P^e * rest[m >> 2] with P = prime[m >> 2] and e = exponent[m >> 2]
    (P = m, e = 1 and rest 1 for irreducible m; all 0 for m = 1),
    sigma**(m) = x^alpha (x+1)^beta odd at index m >> 2, and hits lists
    the (m, a, b) with x^a (x+1)^b m a fixpoint of degree <= max_degree.
    """
    top = max_degree - min((a + b for key, pairs in targets.items()
                            if min(key) >= 1 for a, b, _ in pairs),
                           default=max_degree)
    size = 1 << max(top - 1, 0)
    prime = array("I", [0]) * size
    exponent = array("B", [0]) * size
    rest = array("I", [0]) * size
    alpha = array("B", [0]) * size
    beta = array("B", [0]) * size
    odd = array("I", [0]) * size
    odd[0] = 1  # sigma**(1) = 1
    images = {}  # the valuations and odd part of sigma**(P^e)
    hits = []
    for j in range(size):  # m = 4j + 1 or 4j + 3, whichever has odd weight
        m = (j << 2) | 1 | ((j.bit_count() & 1) << 1)
        if j:
            p = prime[j]
            if not p:
                prime[j] = p = m
                rest[j] = 1
                d = m.bit_length() - 1
                if 2 * d <= top:  # q = 4i + 1 or 4i + 3, of degree <= top - d
                    q, mq = 1, m  # i = 0, then every i in Gray-code order
                    for g in range(1, 1 << (top - d - 1)):
                        t = (g & -g).bit_length() + 1  # bit ctz(g) of i
                        q ^= (1 << t) ^ 2  # the parity of i flips too
                        mq ^= (m << t) ^ (m << 1)
                        k = mq >> 2
                        if not prime[k]:
                            prime[k] = m
                            rest[k] = q
            q = rest[j]
            if prime[q >> 2] == p:
                e = exponent[q >> 2] + 1
                r = rest[q >> 2]
            else:
                e = 1
                r = q
            exponent[j] = e
            rest[j] = r
            image = images.get((p, e))
            if image is None:
                image = images[p, e] = _valuations(_sigma2star_pp_int(p, e))
            alpha[j] = image[0] + alpha[r >> 2]
            beta[j] = image[1] + beta[r >> 2]
            odd[j] = _mul(image[2], odd[r >> 2]) if r != 1 else image[2]
        room = max_degree - (m.bit_length() - 1)
        for a, b, r_ab in targets.get((alpha[j], beta[j]), ()):
            if a + b <= room and _mul(r_ab, odd[j]) == m:
                hits.append((m, a, b))
    return prime, exponent, rest, alpha, beta, odd, hits


def exhaustive_low_degree_scan(max_degree):
    """Every sigma** fixpoint among all nonzero polynomials of degree
    <= max_degree, with no Mersenne-only restriction.  Capped at 20.

    Each n of degree <= D = max_degree is uniquely x^a (x+1)^b m with m
    coprime to x(x+1), and sigma** is multiplicative.  x divides no
    sigma**(x^e), so write sigma**(x^e) = (x+1)^V(e) R(e) with R(e) coprime
    to x(x+1); substituting x + 1 for x gives
    sigma**((x+1)^e) = x^V(e) conj(R(e)).  Write
    sigma**(m) = x^alpha (x+1)^beta u with u coprime to x(x+1).  By unique
    factorization, sigma**(n) = n exactly when

        a = alpha + V(b),  b = beta + V(a)  and  R(a) conj(R(b)) u = m.

    So the scan is an exact join, with no modulus and no collisions:
    _targets keys every (a, b) with a + b <= D by (a - V(b), b - V(a)),
    and one pass over the odd parts (_odd_join) computes each m's alpha,
    beta and u from its sieve chain, looks up (alpha, beta) and checks the
    product.  m = 1 is the key (0, 0).

    The pass stops at a degree derived from the valuations.  A lemma: for
    P irreducible and coprime to x(x+1), and e >= 1, x(x+1) divides
    sigma**(P^e) (for odd e, sigma(P^e) has e + 1 terms, an even number,
    each 1 at x = 0 and at x = 1; for even e, sigma**(P^e) has the factor
    1 + P).  So for m != 1, alpha, beta >= 1, and deg m is at most D less
    the least a + b whose key has both parts >= 1: 7, at (2, 5), (3, 4),
    (4, 3) and (5, 2), for every D >= 7.

    Only the hits are factored: each is confirmed by is_bup, which shares
    no table with the pass, and its record is built from its
    factorization.  A hit that fails raises RuntimeError.
    """
    _exponents((max_degree,), least=None)
    if not 1 <= max_degree <= 20:
        raise ValueError("max_degree must be between 1 and 20")
    out = []
    for m, a, b in _odd_join(max_degree, _targets(max_degree))[-1]:
        n = _mul(_pow(3, b), m) << a
        pairs = _factorize_cached(n)
        rec = _record(n, pairs, _candidate_from_pairs(pairs),
                      _parity_tag(a, b))
        if not is_bup(n):
            raise RuntimeError(
                f"scan hit {rec.factorization} is not a fixpoint")
        out.append(rec)
    out.sort(key=lambda rec: rec.poly.value)
    return out


def verify_catalog():
    """Check every catalog entry and its conjugate: sigma** fixpoint,
    divisibility by x(x+1), Mersenne-only odd part, indecomposability.

    Returns (name, passed, factored string) triples in catalog order.
    """
    results = []
    for rec in catalog():
        ok = True
        for poly in (rec.poly, rec.poly.conjugate()):
            n = poly.value
            if not is_bup(poly):
                ok = False
                break
            if (n & 1) or (n.bit_count() & 1):  # x and x+1 must both divide
                ok = False
                break
            if not reduction_check(poly):
                ok = False
                break
            if not is_indecomposable_bup(poly):
                ok = False
                break
        results.append((f"C{rec.catalog_index}", ok, str(rec.factorization)))
    return results
