"""Exhaustive certified search for bi-unitary perfect polynomials over GF(2)
whose odd prime divisors all lie in the Mersenne set M1..M5.

The search covers exponent tuples (a, b, h1..h5) for candidates
x^a (x+1)^b M1^h1 ... M5^h5 within lemma-derived bounds, case-split by the
parities of a and b with a <= b (the a > b side is recovered afterwards by
the substitution x <-> x+1).  The bounds are deliberately a superset of the
minimal ones: every hit satisfies the sigma** fixpoint equation exactly, so
over-enumeration cannot create false positives.

Verification compares factored forms.  sigma** of each prime power is
factored once and memoized; a candidate is a fixpoint iff the summed factor
exponents reproduce its own exponent tuple.  Any prime power whose sigma**
contains an irreducible outside the seven supported primes can never occur
in a fixpoint (multiplication cannot cancel factors), so such components
are dropped.  Because the fixpoint condition is a sum over slots, each case
is solved as a meet-in-the-middle join of two independent halves of its
box instead of tuple by tuple.  Every hit of the join is confirmed by
sigma** of its expanded polynomial before it becomes a record.

The exhaustive low-degree scan rests on none of those bounds: it decides
every polynomial of degree <= D.  A lemma rules out every odd part of
degree above D - 2; the rest are joined to x^a (x+1)^b through discrete
logs modulo a primitive polynomial of degree D - 1.
"""

import time
from array import array
from functools import lru_cache
from itertools import product

from .divisor_sums import (
    _multiplicative, _sigma2star_pp_int, odd_exponent_form, sigma_2star,
)
from .factor import (
    Factorization, _factorize_cached, _prime_divisors, is_irreducible,
)
from .gf2poly import (
    Gf2Poly, _Frozen, _conj, _exponents, _int_of, _mod, _mul, _nonzero,
    _pow, _sq,
)
from .mersenne import M1, M2, M3, M4, M5

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
_SUPPORT = (2, 3, M1.value, M2.value, M3.value, M4.value, M5.value)
_SUPPORT_INDEX = {base: i for i, base in enumerate(_SUPPORT)}


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
        """Tuple of the conjugate polynomial (swap a/b, M2/M3, M4/M5)."""
        h = self.h
        return CandidateTuple(self.b, self.a, (h[0], h[2], h[1], h[4], h[3]))


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


@lru_cache(maxsize=1)
def _catalog_value_index():
    return {
        CandidateTuple(a, b, h).expand().value: i + 1
        for i, (a, b, h) in enumerate(_CATALOG_TUPLES)
    }


def _class_id(n):
    index = _catalog_value_index()
    i = index.get(n)
    if i is None:
        i = index.get(_conj(n))
    return f"C{i}" if i is not None else hex(min(n, _conj(n)))


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


def _record(n, pairs, case_tag):
    return BupRecord(
        poly=Gf2Poly(n),
        factorization=Factorization((Gf2Poly(q), e) for q, e in pairs),
        candidate=_candidate_from_pairs(pairs),
        case_tag=case_tag,
        conjugate_class=_class_id(n),
        catalog_index=_catalog_value_index().get(n),
    )


def catalog():
    """The 23 catalog polynomials as records, in catalog order."""
    out = []
    for i, (a, b, h) in enumerate(_CATALOG_TUPLES):
        ct = CandidateTuple(a, b, h)
        rec = _record(ct.expand().value, _tuple_pairs(ct), _parity_tag(a, b))
        assert rec.catalog_index == i + 1
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# fixpoint predicates

def is_bup(s):
    """True iff sigma**(s) = s."""
    n = _nonzero(s, "bi-unitary perfection")
    return _multiplicative(n, _sigma2star_pp_int) == n


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
def _residual(slot, e):
    """sigma**(p^e) minus p^e as a vector v of exponents over the seven
    support primes, p the prime of the slot, packed into the int
    sum of v_i * 2^(16 i).

    The packing is linear, so packed residuals add as vectors do.  It is
    injective on sums of up to seven residuals while every component stays
    below 2^15 in absolute value; over the whole box none exceeds 55.
    None when sigma**(p^e) contains an irreducible outside the support: no
    candidate containing that prime power can be a fixpoint.
    """
    if not e:
        return 0
    packed = -e << (16 * slot)
    for q, k in _factorize_cached(_sigma2star_pp_int(_SUPPORT[slot], e)):
        i = _SUPPORT_INDEX.get(q)
        if i is None:
            return None
        packed += k << (16 * i)
    return packed


def _join_case(case_tag):
    """Every fixpoint tuple of one case's box; returns (box size, hits).

    A tuple is a fixpoint iff the residuals of its seven slots sum to zero.
    The right half (h1, h4, h5) is hashed by residual sum, and each
    admissible left half (a, b, h2 = h3) looks up its negated sum.  Prime
    powers whose sigma** leaves the support are dropped from both halves.
    """
    left, H = _case_halves(case_tag)
    columns = [[(e, r) for e in H if (r := _residual(slot, e)) is not None]
               for slot in (2, 5, 6)]
    right = {}
    for h1, r1 in columns[0]:
        for h4, r4 in columns[1]:
            for h5, r5 in columns[2]:
                right.setdefault(r1 + r4 + r5, []).append((h1, h4, h5))
    hits = []
    for a, b, h2_values in left:
        ra = _residual(0, a)
        if ra is None:
            continue
        rb = _residual(1, b)
        if rb is None:
            continue
        for h2 in h2_values:
            r2 = _residual(3, h2)
            if r2 is None:
                continue
            r3 = _residual(4, h2)
            if r3 is None:
                continue
            for h1, h4, h5 in right.get(-(ra + rb + r2 + r3), ()):
                # pure x^a(x+1)^b: the omega <= 2 families, out of scope
                if h1 or h2 or h4 or h5:
                    hits.append(CandidateTuple(a, b, (h1, h2, h2, h4, h5)))
    size = sum(len(h2_values) for _, _, h2_values in left) * len(H) ** 3
    return size, hits


def _finalize(case_tag, hits):
    by_value = {}
    for ct in hits:
        if not is_bup(n := ct.expand().value):
            raise RuntimeError(f"join hit {ct.exponents()} is not a fixpoint")
        by_value.setdefault(n, ct)
        by_value.setdefault(_conj(n), ct.conjugate())
    records = []
    for n in sorted(by_value):
        pairs = _tuple_pairs(by_value[n])
        if len(pairs) >= 3:
            records.append(_record(n, pairs, case_tag))
    return tuple(records)


def search_case(case_tag):
    """Run one case; records are deduplicated, conjugate-closed and sorted.

    Each hit of the join is confirmed by sigma** of its expanded polynomial;
    a hit that sigma** does not fix raises RuntimeError.
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


def expected_hit_values(case_tag="all"):
    """Conjugate closure of the catalog subset each case is expected to hit."""
    if case_tag != "all" and case_tag not in CASES:
        raise ValueError(f"unknown case {case_tag!r}")
    cases = CASES if case_tag == "all" else (case_tag,)
    values = set()
    for case in cases:
        for i in EXPECTED_HITS_BY_CASE[case]:
            n = CandidateTuple(*_CATALOG_TUPLES[i - 1]).expand().value
            values.update((n, _conj(n)))
    return frozenset(values)


# ---------------------------------------------------------------------------
# exhaustive low-degree scan (a join in the log domain) and catalog verification

def _x_power(e, q):
    """x^e mod q, by square-and-multiply."""
    top = q.bit_length() - 1
    w = 1
    for bit in bin(e)[2:]:
        w = _mod(_sq(w), q)
        if bit == "1":
            w <<= 1
            if w >> top:
                w ^= q
    return w


def _primitive_modulus(degree):
    """The smallest primitive polynomial Q of the given degree k.

    Q is irreducible and x^((2^k - 1) / r) != 1 mod Q for every prime r
    dividing 2^k - 1, so x generates the multiplicative group of
    GF(2)[x]/Q.
    """
    order = (1 << degree) - 1
    cofactors = [order // r for r in _prime_divisors(order)]
    for q in range((1 << degree) | 1, 1 << (degree + 1), 2):
        if is_irreducible(q) and all(_x_power(c, q) != 1 for c in cofactors):
            return q


def _log_table(q):
    """log[v] = i with x^i = v mod q, for every 0 < v < 2^deg q; q primitive.

    One walk of x^i; log[0] is unused.
    """
    k = q.bit_length() - 1
    log = array("I", [0]) * (1 << k)
    w = 1
    for i in range((1 << k) - 1):
        log[w] = i
        w <<= 1
        if w >> k:
            w ^= q
    return log


def _targets(log, max_degree):
    """Map each right-hand side of the log-domain fixpoint equation,
    a L(x) + b L(x+1) - L(sigma**(x^a)) - L(sigma**((x+1)^b)) mod the group
    order, to the pairs (a, b) that give it: those with a, b >= 1 and
    a + b <= max_degree - 2, which a fixpoint with an odd part of degree
    >= 2 has."""
    order = len(log) - 1
    top = max_degree - 3  # the largest a, and the largest b
    left = [(a * log[2] - log[_sigma2star_pp_int(2, a)]) % order
            for a in range(top + 1)]
    right = [(b * log[3] - log[_sigma2star_pp_int(3, b)]) % order
             for b in range(top + 1)]
    targets = {}
    for a in range(1, top + 1):
        for b in range(1, max_degree - 1 - a):
            targets.setdefault((left[a] + right[b]) % order, []).append((a, b))
    return targets


def _odd_join(max_degree, log, targets):
    """One increasing pass over the m coprime to x(x+1) of degree
    <= max_degree - 2, the odd parts a fixpoint of degree <= max_degree can
    have, sieving their smallest irreducible factors as it goes.

    Such an m is 4j + 1 or 4j + 3: both are prime to x, and exactly one of
    them has odd weight, that is, is prime to x + 1.  So j = m >> 2 indexes
    the m in increasing order, in tables of 2^(max_degree - 3) entries.

    An m that no smaller irreducible has reached is irreducible.  If its
    degree is at most (max_degree - 2) / 2, it then walks its multiples m*q
    with q coprime to x(x+1), marking each one not yet marked with m and q:
    bit 0 of q stays set, and q runs over every second Gray code of its
    higher bits, so its weight stays odd.  Every multiple exceeds m and the
    irreducibles come in increasing order, so the first to mark a
    polynomial is its smallest factor P.  When the pass reaches it, the
    cofactor q < m is done, so the exponent e of P and the part r of m that
    P does not divide follow from q's entries, and
    L(sigma**(m)) = L(sigma**(P^e)) + L(sigma**(r)) is one addition.

    Returns (prime, exponent, rest, log_sigma, hits): m is
    P^e * rest[m >> 2] with P = prime[m >> 2] and e = exponent[m >> 2]
    (P = m, e = 1 and rest 1 for irreducible m; all 0 for m = 1),
    log_sigma[m >> 2] = L(sigma**(m)), and hits lists the (m, a, b) with
    m != 1, L(sigma**(m)) - L(m) = targets' key of (a, b) and
    deg m + a + b <= max_degree.
    """
    top = max_degree - 2  # the largest degree of an odd part
    order = len(log) - 1
    size = 1 << (top - 1)
    prime = array("I", [0]) * size
    exponent = array("B", [0]) * size
    rest = array("I", [0]) * size
    log_sigma = array("I", [0]) * size
    # A double Gray step flips bit 1 and then bit ruler[i] of q.
    ruler = b""
    for t in range(2, top - 1):
        ruler += bytes([t]) + ruler
    flips = [0, 0] + [2 ^ (1 << t) for t in range(2, top - 1)]
    walkers = 1 << (top // 2 + 1)  # the m of degree <= top / 2
    image_logs = {}  # L(sigma**(P^e)) for e >= 2
    hits = []
    for j in range(1, size):  # m = 4j + 1 or 4j + 3, whichever has odd weight
        m = (j << 2) | 1 | ((j.bit_count() & 1) << 1)
        p = prime[j]
        if not p:
            prime[j] = p = m
            rest[j] = 1
            if m < walkers:
                moves = [0, 0] + [(m << 1) ^ (m << t)
                                  for t in range(2, top - 1)]
                # every second Gray code of the top - deg m bits above bit 0
                steps = (1 << (top - m.bit_length())) - 1
                n = m
                q = 1
                for t in ruler[:steps]:
                    n ^= moves[t]
                    q ^= flips[t]
                    if not prime[n >> 2]:
                        prime[n >> 2] = m
                        rest[n >> 2] = q
        q = rest[j]
        if prime[q >> 2] == p:
            e = exponent[q >> 2] + 1
            r = rest[q >> 2]
        else:
            e = 1
            r = q
        exponent[j] = e
        rest[j] = r
        if e == 1:
            s = log[p ^ 1]  # sigma**(P) = 1 + P
        else:
            s = image_logs.get((p, e))
            if s is None:
                s = image_logs[p, e] = log[_sigma2star_pp_int(p, e)]
        s += log_sigma[r >> 2]
        if s >= order:
            s -= order
        log_sigma[j] = s
        key = s - log[m]
        if key < 0:
            key += order
        if key in targets:
            room = max_degree - (m.bit_length() - 1)
            hits.extend((m, a, b) for a, b in targets[key] if a + b <= room)
    return prime, exponent, rest, log_sigma, hits


def exhaustive_low_degree_scan(max_degree):
    """Every sigma** fixpoint among all nonzero polynomials of degree
    <= max_degree, with no Mersenne-only restriction.  Capped at 20.

    Each n of degree <= D = max_degree is uniquely x^a (x+1)^b m with m
    coprime to x(x+1).  sigma** is multiplicative, preserves degree and is
    never zero.  The scan prunes by a lemma: for P irreducible and coprime
    to x(x+1), and e >= 1, x(x+1) divides sigma**(P^e) (for odd e,
    sigma(P^e) has e + 1 terms, an even number, each 1 at x = 0 and at
    x = 1; for even e, sigma**(P^e) has the factor 1 + P).  So for m != 1,
    x(x+1) divides sigma**(m) and with it sigma**(n), and a fixpoint has
    a, b >= 1 and deg m <= D - 2.

    For m = 1, n = x^a (x+1)^b is decided directly.  For m != 1 the scan
    is a join, exact by the following argument.  Both sigma**(n) and n are
    divisible by x(x+1), and both quotients have degree <= D - 2.  Let Q be
    primitive of degree D - 1: x and x + 1 are units mod Q, and reduction
    mod Q is injective on the polynomials of degree <= D - 2 and maps none
    of them but 0 to 0, so sigma**(n) = n iff sigma**(n) = n mod Q.  As x
    generates the units of GF(2)[x]/Q, let L be the discrete log to base
    x, mod 2^(D-1) - 1.  Then sigma**(n) = n exactly when

        L(sigma**(m)) - L(m) = a L(x) + b L(x+1)
                               - L(sigma**(x^a)) - L(sigma**((x+1)^b)).

    The right-hand sides for a, b >= 1 and a + b <= D - 2 are hashed
    (_targets), and one pass over the m of degree 2..D - 2 (_odd_join)
    computes each left-hand side from m's sieve chain and looks it up; a
    match with deg m + a + b <= D is a fixpoint.  Only the hits are
    factored: each is confirmed by is_bup, which shares no table with the
    pass, and its record is built from its factorization.  A hit that fails
    raises RuntimeError.
    """
    if not 1 <= max_degree <= 20:
        raise ValueError("max_degree must be between 1 and 20")
    # m = 1: is sigma**(x^a) sigma**((x+1)^b) = x^a (x+1)^b?
    images = [(_sigma2star_pp_int(2, e), _sigma2star_pp_int(3, e))
              for e in range(max_degree + 1)]
    hits = [(1, a, b) for a in range(max_degree + 1)
            for b in range(max_degree + 1 - a)
            if _mul(images[a][0], images[b][1]) == _pow(3, b) << a]
    if max_degree >= 4:  # an odd part m != 1 has degree >= 2
        log = _log_table(_primitive_modulus(max_degree - 1))
        hits += _odd_join(max_degree, log, _targets(log, max_degree))[-1]
    out = []
    for m, a, b in hits:
        n = _mul(_pow(3, b), m) << a
        rec = _record(n, _factorize_cached(n), _parity_tag(a, b))
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
            if sigma_2star(poly) != poly:
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
        name = f"C{rec.catalog_index}" if rec.catalog_index else rec.conjugate_class
        results.append((name, ok, str(rec.factorization)))
    return results
