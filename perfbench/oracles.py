"""Output oracles for the benchmark, sharing no code with gf2bup.

Polynomials over GF(2) are Python integers (bit i is the coefficient of
x^i), the same encoding the CLI's hex inputs use.  Everything below -- the
carry-less multiply, the reduction, the Rabin irreducibility test, the
definition-level sigma** and the parser for factored output -- is written
here from scratch so that a defect in the library cannot hide itself.

Each ``check_*`` function takes one op's exit status and standard output
and returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

X = 0b10
X1 = 0b11

# Support primes of the search, in the CLI's tuple order: x, x+1, M1..M5.
M1 = 0b111          # x^2+x+1
M2 = 0b1011         # x^3+x+1
M3 = 0b1101         # x^3+x^2+1
M4 = 0b11111        # x^4+x^3+x^2+x+1
M5 = 0b11001        # x^4+x^3+1
SUPPORT = (X, X1, M1, M2, M3, M4, M5)

# The catalog C1..C23 as exponent tuples (a, b, h1..h5) over SUPPORT,
# frozen from the paper's table.  Their conjugate closure has 40 members.
CATALOG = (
    (3, 4, 1, 0, 0, 0, 0), (3, 5, 2, 0, 0, 0, 0), (4, 4, 2, 0, 0, 0, 0),
    (6, 6, 2, 0, 0, 0, 0), (4, 5, 3, 0, 0, 0, 0), (7, 8, 0, 0, 0, 0, 1),
    (7, 9, 0, 0, 0, 0, 2), (8, 8, 0, 0, 0, 1, 1), (8, 9, 0, 0, 0, 1, 2),
    (7, 10, 2, 0, 0, 0, 1), (7, 13, 0, 2, 2, 0, 0), (9, 9, 0, 0, 0, 2, 2),
    (14, 14, 0, 2, 2, 0, 0), (8, 10, 2, 0, 0, 1, 1), (8, 12, 2, 1, 1, 1, 0),
    (10, 13, 2, 2, 2, 1, 0), (13, 13, 2, 4, 4, 1, 1), (12, 13, 2, 3, 3, 0, 0),
    (9, 13, 0, 2, 2, 2, 0), (8, 13, 0, 2, 2, 1, 0), (9, 10, 2, 0, 0, 2, 1),
    (7, 12, 2, 1, 1, 0, 0), (9, 12, 2, 1, 1, 2, 0),
)
CATALOG_CLOSURE_SIZE = 40

# Every sigma** fixpoint of degree <= 16, frozen from an exhaustive scan.
SCAN16_FIXPOINTS = frozenset((
    0x1, 0x6, 0x14, 0x78, 0x2d0, 0x3b8, 0x1450,
    0x1860, 0x1e78, 0x7f80, 0xb6d0, 0xdb60, 0x11440,
))

CASES = ("even-even", "even-odd", "odd-even", "odd-odd")


# ---------------------------------------------------------------------------
# arithmetic

def clmul(a, b):
    """Carry-less product, four bits of b at a time."""
    if a == 0 or b == 0:
        return 0
    table = [0] * 16
    for k in range(1, 16):
        low = k & -k
        table[k] = table[k ^ low] ^ (a << (low.bit_length() - 1))
    r = 0
    shift = 0
    while b:
        r ^= table[b & 15] << shift
        b >>= 4
        shift += 4
    return r


def clpow(a, e):
    r = 1
    for _ in range(e):
        r = clmul(r, a)
    return r


def square(a):
    """Square in characteristic 2: read the binary digits in base 4."""
    return int(bin(a)[2:], 4) if a else 0


class Reducer:
    """Reduction modulo a fixed f, clearing eight leading bits per step."""

    def __init__(self, f):
        if f < 2:
            raise ValueError("modulus must be nonconstant")
        self.f = f
        self.n = f.bit_length() - 1
        # For each multiplier q < 256 the product f*q has a distinct top
        # byte (bits n..n+7), so a table keyed by that byte finds the
        # multiple of f that clears any given top byte.
        products = [0] * 256
        self.table = [0] * 256
        for q in range(1, 256):
            low = q & -q
            products[q] = products[q ^ low] ^ (f << (low.bit_length() - 1))
            self.table[products[q] >> self.n] = products[q]

    def mod(self, a):
        n = self.n
        table = self.table
        excess = a.bit_length() - 1 - n
        while excess >= 8:
            shift = excess - 7
            a ^= table[a >> (n + shift)] << shift
            excess = a.bit_length() - 1 - n
        if excess >= 0:
            a ^= table[a >> n]
        return a


def divmod_poly(a, b):
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def gcd_poly(a, b):
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return a


def conjugate(a):
    """Substitute x -> x+1 by Horner's rule on the coefficients."""
    r = 0
    for bit in bin(a)[2:]:
        r = clmul(r, X1) ^ int(bit)
    return r


def _prime_factors(m):
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


def is_irreducible(f):
    """Rabin's test: x^(2^n) = x mod f, and gcd(x^(2^(n/q)) - x, f) = 1
    for every prime q dividing n = deg f."""
    n = f.bit_length() - 1
    if n < 1:
        return False
    if n == 1:
        return True
    red = Reducer(f)
    # powers[k] = x^(2^k) mod f for the k the test needs, in one pass.
    needed = {n} | {n // q for q in _prime_factors(n)}
    powers = {}
    w = X
    for k in range(1, n + 1):
        w = red.mod(square(w))
        if k in needed:
            powers[k] = w
    if powers[n] != X:
        return False
    return all(gcd_poly(f, powers[n // q] ^ X) == 1
               for q in _prime_factors(n))


def sigma2star_prime_power(p, e):
    """sigma**(P^e) from the definition: the sum of P^k, 0 <= k <= e, 2k != e."""
    total = 0
    pk = 1
    for k in range(e + 1):
        if 2 * k != e:
            total ^= pk
        pk = clmul(pk, p)
    return total


# ---------------------------------------------------------------------------
# parsing the CLI's factored output

def parse_sum(text):
    """'x^3+x+1' -> 0b1011; accepts 'x', 'x^k' and '1' monomials."""
    n = 0
    for term in text.split("+"):
        if term == "1":
            k = 0
        elif term == "x":
            k = 1
        elif term.startswith("x^") and term[2:].isdigit():
            k = int(term[2:])
        else:
            raise ValueError(f"bad monomial {term!r}")
        n ^= 1 << k
    return n


def parse_factored(text):
    """'x^4*(x+1)^4*(x^2+x+1)^2' -> [(base, exponent), ...]."""
    text = text.strip()
    if text == "1":
        return []
    out = []
    for part in text.split("*"):
        if part.startswith("("):
            close = part.index(")")
            base = parse_sum(part[1:close])
            rest = part[close + 1:]
        elif part == "x" or part.startswith("x^"):
            base, rest = X, part[1:]
        else:
            raise ValueError(f"bad factor {part!r}")
        if rest == "":
            e = 1
        elif rest.startswith("^") and rest[1:].isdigit():
            e = int(rest[1:])
        else:
            raise ValueError(f"bad exponent in {part!r}")
        if e < 1:
            raise ValueError(f"nonpositive exponent in {part!r}")
        out.append((base, e))
    return out


def product(pairs):
    n = 1
    for base, e in pairs:
        n = clmul(n, clpow(base, e))
    return n


def _factor_problems(pairs):
    bases = [b for b, _ in pairs]
    problems = []
    if len(set(bases)) != len(bases):
        problems.append("a base is repeated")
    for b in bases:
        if not is_irreducible(b):
            problems.append(f"factor {b:#x} is reducible")
    return problems


# ---------------------------------------------------------------------------
# per-workload checks

def catalog_closure():
    values = set()
    for exps in CATALOG:
        n = product(zip(SUPPORT, exps))
        values.add(n)
        values.add(conjugate(n))
    return values


def check_classify(returncode, stdout):
    """Every record is a sigma** fixpoint whose tuple matches its factors;
    the records cover the conjugate closure of C1..C23 without repeats."""
    problems = [] if returncode == 0 else [f"exit status {returncode}"]
    seen = set()
    for line in stdout.splitlines():
        fields = line.split("\t")
        if len(fields) != 4:
            problems.append(f"malformed record {line!r}")
            continue
        case, tuple_text, factored, _tag = fields
        try:
            pairs = parse_factored(factored)
            exps = tuple(int(t) for t in tuple_text.strip("[]").split(","))
        except ValueError as exc:
            problems.append(f"unparsable record {line!r}: {exc}")
            continue
        if case not in CASES:
            problems.append(f"unknown case {case!r}")
        got = dict(pairs)
        if len(exps) != 7 or any(got.get(p, 0) != e
                                 for p, e in zip(SUPPORT, exps)):
            problems.append(f"tuple {tuple_text} does not match {factored}")
        if set(got) - set(SUPPORT):
            problems.append(f"{factored} has a prime outside the support")
        problems.extend(_factor_problems(pairs))
        n = product(pairs)
        if n in seen:
            problems.append(f"duplicate record {factored}")
        seen.add(n)
        image = product((sigma2star_prime_power(p, e), 1) for p, e in pairs)
        if image != n:
            problems.append(f"{factored} is not a sigma** fixpoint")
    missing = catalog_closure() - seen
    if missing:
        problems.append(f"{len(missing)} catalog polynomials missing")
    return problems


def check_scan(returncode, stdout):
    """The scan's output is exactly the frozen degree <= 16 fixpoint set."""
    problems = [] if returncode == 0 else [f"exit status {returncode}"]
    values = []
    for line in stdout.splitlines():
        try:
            pairs = parse_factored(line)
        except ValueError as exc:
            problems.append(f"unparsable line {line!r}: {exc}")
            continue
        problems.extend(_factor_problems(pairs))
        values.append(product(pairs))
    if len(values) != len(set(values)):
        problems.append("repeated fixpoint")
    if set(values) != SCAN16_FIXPOINTS:
        problems.append(
            f"{len(SCAN16_FIXPOINTS - set(values))} fixpoints missing, "
            f"{len(set(values) - SCAN16_FIXPOINTS)} unexpected")
    return problems


def check_factor(returncode, stdout, n):
    """The factors multiply back to n and each passes Rabin's test."""
    problems = [] if returncode == 0 else [f"exit status {returncode}"]
    lines = stdout.splitlines()
    if len(lines) != 1:
        return problems + [f"expected one line, got {len(lines)}"]
    try:
        pairs = parse_factored(lines[0])
    except ValueError as exc:
        return problems + [f"unparsable output: {exc}"]
    problems.extend(_factor_problems(pairs))
    if product(pairs) != n:
        problems.append("factors do not multiply back to the input")
    return problems

