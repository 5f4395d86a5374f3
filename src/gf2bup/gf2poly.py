"""Dense bit-packed polynomials over GF(2).

A polynomial c0 + c1*x + ... + cn*x^n is stored as the integer with bit i
equal to ci, so addition is XOR, the zero polynomial is the integer 0, and
comparing integers compares polynomials by degree first.  All values are
immutable and every operation returns a fresh value, so they can be shared
freely between threads or processes.
"""

__all__ = [
    "Gf2Poly", "ParseError", "NEG_INF",
    "add", "mul", "divrem", "gcd", "power", "conjugate", "reciprocal",
    "parse", "format_poly",
    "ZERO", "ONE", "X", "X1",
]

# Degree of the zero polynomial.  A distinguished sentinel, never -1, so
# that arithmetic on it cannot be confused with degree 0.
NEG_INF = float("-inf")

# Parsing refuses to expand anything beyond this degree, so every command
# that reads a polynomial refuses a larger input: factoring time grows about
# as d^2 (a median of 0.66 s over six seeded random inputs of degree 4096,
# in process on a shared 2-core VM, Python 3.11.7).
_MAX_PARSE_DEGREE = 4096


# ---------------------------------------------------------------------------
# integer-level kernels (bit i of n = coefficient of x^i)

def _deg(n):
    return n.bit_length() - 1


# Products whose sparser operand has more set bits than this use the comb;
# below it building the comb's table costs more than the loop it saves.
_COMB_MIN_WEIGHT = 96


def _mul(a, b):
    """Carry-less product: schoolbook shift-and-xor over the set bits of the
    operand with fewer of them, or the byte comb when both are dense."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() < b.bit_count():
        a, b = b, a
    if b.bit_count() > _COMB_MIN_WEIGHT:
        return _comb_mul(a, b) if a > b else _comb_mul(b, a)
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def _multiples(a, bits=8):
    """[a*v for v in range(2**bits)]: the products of a with every value of
    that many bits (a byte by default)."""
    table = [0, a]
    for i in range(1, bits):
        high = a << i
        table += [t ^ high for t in table]
    return table


def _comb_mul(a, b):
    """López-Dahab comb: one shift and xor per byte of b, through a table
    of a times every byte."""
    table = _multiples(a)
    r = 0
    for byte in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        r = (r << 8) ^ table[byte]
    return r


# bytes.translate tables: the high and the low nibble of each byte.
_HIGH_NIBBLE = bytes(v >> 4 for v in range(256))
_LOW_NIBBLE = bytes(v & 0xF for v in range(256))


# Squares of at most this many bits go a byte at a time through _SQ8;
# longer ones are spread with bytes.translate, whose fixed cost is higher.
_SQ_TRANSLATE_MIN_BITS = 32
# _SQ8[v] is the byte v with its bits spread apart: bit i moves to bit 2i.
_SQ8 = [0]
for _i in range(8):
    _SQ8 += [w | 1 << (2 * _i) for w in _SQ8]
# bytes.translate tables: each byte's low and high nibble, spread to a byte.
_SPREAD_LOW = bytes(_SQ8[v & 0xF] for v in range(256))
_SPREAD_HIGH = bytes(_SQ8[v >> 4] for v in range(256))
# The inverse on the bytes of a square (even bits only).
_SQRT8 = [0] * 256
for _i in range(16):
    _SQRT8[_SQ8[_i]] = _i
del _i


def _sq(a):
    """Square: in characteristic 2 this just spreads the bits apart, so
    byte k of a becomes bytes 2k and 2k+1 of the result."""
    if not a >> _SQ_TRANSLATE_MIN_BITS:
        r = 0
        shift = 0
        while a:
            r |= _SQ8[a & 0xFF] << shift
            a >>= 8
            shift += 16
        return r
    data = a.to_bytes((a.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(data))
    out[0::2] = data.translate(_SPREAD_LOW)
    out[1::2] = data.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def _sqrt(a):
    """Inverse of _sq; only valid when a is a perfect square (even bits only)."""
    r = 0
    shift = 0
    while a:
        r |= _SQRT8[a & 0xFF] << shift
        a >>= 8
        shift += 4
    return r


def _divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    da = a.bit_length()
    while da >= db:
        shift = da - db
        q |= 1 << shift
        a ^= b << shift
        da = a.bit_length()
    return q, a


def _mod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def _modulus(m):
    """The kernels for a fixed nonzero modulus m: (mulmod, square).

    mulmod(a, b) is a*b mod m and square(a) is a^2 mod m, for a and b
    already reduced mod m.  Both fold 8 bits at a time through a table of
    the 256 multiples m*q, deg q < 8, indexed by their bits [n, n+8),
    n = deg m (each index occurs once).  Reducing any other operand is
    left to _mod.

    mulmod is a comb with one step per byte of b, like _comb_mul, that
    folds the accumulator's top byte through that table after every step
    (López and Dahab; Hankerson, Menezes and Vanstone, 2004, section 2.3),
    so the accumulator never grows past n + 8 bits.  Its tables of a hold
    the products with every nibble, shifted by 4 and unshifted: 30 shifts
    and xors to build instead of the 255 of a byte table, for one more xor
    per step, which wins up to n = 2048 and breaks even at 4096.

    square uses that squaring is GF(2)-linear (Berlekamp's Q-matrix).  The
    low h = ceil(n/2) bits of a square below x^n as they are; the high bits
    go a nibble at a time through rows of 16 entries, row j holding
    spread(v)*x^(2h+8j) mod m for every nibble v (spread as in _SQ8).  Each
    row's four bases x^(2h+8j+2i) mod m, i < 4, are the previous row's
    times x^8, folded once through the table.  The rows take about n^2/4
    bytes.
    """
    n = _deg(m)
    table = [0] * 256
    for multiple in _multiples(m):
        table[multiple >> n] = multiple
    h = (n + 1) // 2
    low_mask = (1 << h) - 1
    b0, b1, b2, b3 = [_mod(1 << (2 * h + 2 * i), m) for i in range(4)]
    rows = []
    for _ in range((n - h + 3) // 4):
        b01, b23 = b0 ^ b1, b2 ^ b3
        rows.append((0, b0, b1, b01,
                     b2, b2 ^ b0, b2 ^ b1, b2 ^ b01,
                     b3, b3 ^ b0, b3 ^ b1, b3 ^ b01,
                     b23, b23 ^ b0, b23 ^ b1, b23 ^ b01))
        b0, b1, b2, b3 = [b ^ table[b >> n]
                          for b in (b0 << 8, b1 << 8, b2 << 8, b3 << 8)]
    # the rows of the low and of the high nibble of each byte
    low_rows, high_rows = rows[0::2], rows[1::2]
    high_bytes = (n - h + 7) // 8

    def mulmod(a, b):
        low = _multiples(a, 4)
        high = [t << 4 for t in low]
        data = b.to_bytes((b.bit_length() + 7) // 8, "big")
        r = 0
        for h, l in zip(data.translate(_HIGH_NIBBLE),
                        data.translate(_LOW_NIBBLE)):
            r = (r << 8) ^ high[h] ^ low[l]  # deg r < n + 8
            r ^= table[r >> n]
        return r

    def square(a):
        r = _sq(a & low_mask)  # deg r < n
        data = (a >> h).to_bytes(high_bytes, "little")
        for row, v in zip(low_rows, data.translate(_LOW_NIBBLE)):
            r ^= row[v]
        for row, v in zip(high_rows, data.translate(_HIGH_NIBBLE)):
            r ^= row[v]
        return r

    return mulmod, square


def _gcd(a, b):
    """Euclid, with each remainder taken in place: a mod b, then b mod a."""
    da, db = a.bit_length(), b.bit_length()
    while b:
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        if not a:
            return b
        while db >= da:
            b ^= a << (db - da)
            db = b.bit_length()
    return a


def _pow(a, n):
    r = 1
    while True:
        if n & 1:  # r = a^k is 1 only for k = 0 or a = 1
            r = _mul(r, a) if r != 1 else a
        n >>= 1
        if not n:
            return r
        a = _sq(a)


def _derivative(n):
    # In characteristic 2 only the odd-position coefficients survive.
    n >>= 1
    k = n.bit_length()
    mask = ((1 << (k + (k & 1))) - 1) // 3  # 0b...0101
    return n & mask


def _conj_bytes():
    """[conj(v) for v in range(256)], by linearity: bit i maps to (x+1)^i."""
    table, image = [0], 1
    for _ in range(8):
        table += [t ^ image for t in table]
        image ^= image << 1
    return table


_CONJ_BYTE = _conj_bytes()


def _conj(n):
    """Substitute x -> x+1: a Taylor shift by doubling blocks.

    For m a power of two, (x+1)^m = x^m + 1, so with n = lo + x^m hi and lo
    of fewer than m bits, conj(n) = (conj(lo) + conj(hi)) + x^m conj(hi).
    Below 2^16 that is two lookups in the byte table (m = 8).  Above, one
    mask, shift and XOR applies it to every pair of blocks of width m
    at once.  The steps for different m commute (by Lucas' theorem,
    C(j, i) mod 2 factors over the bits of i and j), so they run from the
    widest m, whose mask is cheapest to build, down to m = 1.
    """
    if n < 0x10000:
        hi = _CONJ_BYTE[n >> 8]
        return _CONJ_BYTE[n & 0xFF] ^ hi ^ (hi << 8)
    # the widest step: the largest power of two below n's bit length
    m = 1 << max((n.bit_length() - 1).bit_length() - 1, 0)
    mask = (1 << m) - 1  # the low half of every block of width 2m
    while m:
        n ^= (n >> m) & mask
        m >>= 1
        mask ^= mask << m
    return n


def _valuations(n):
    """(v, w, u) with n = x^v (x+1)^w u and u coprime to x(x+1); n != 0.

    x + 1 divides n as often as x divides its conjugate n(x+1), and not at
    all when n has an odd number of terms (n(1) = 1).
    """
    v = (n & -n).bit_length() - 1
    n >>= v
    if n.bit_count() & 1:
        return v, 0, n
    c = _conj(n)
    w = (c & -c).bit_length() - 1
    return v, w, _conj(c >> w)


def _recip(n):
    """Reverse the coefficient window [0, deg n]; n must be nonzero."""
    return int(bin(n)[:1:-1], 2)


def _int_of(p):
    if isinstance(p, Gf2Poly):
        return p.value
    if isinstance(p, int) and not isinstance(p, bool):
        if p >= 0:
            return p
        raise TypeError(f"expected Gf2Poly or nonnegative int, got {p}")
    raise TypeError(f"expected Gf2Poly or int, got {type(p).__name__}")


def _exponents(values, least=0):
    """Refuse a value that is not an int, a bool included (TypeError), or,
    unless least is None, one below least (ValueError)."""
    for e in values:
        # type() rather than isinstance(), which would accept a bool
        if type(e) is not int:
            raise TypeError(f"expected an int, got {type(e).__name__}")
        if least is not None and e < least:
            raise ValueError(f"exponent {e} is below {least}")


def _nonzero(p, what):
    """_int_of(p), refusing the zero polynomial: what names the operation."""
    n = _int_of(p)
    if n == 0:
        raise ValueError(f"{what} is undefined for the zero polynomial")
    return n


# ---------------------------------------------------------------------------
# text formats

class ParseError(ValueError):
    """Syntax error in a polynomial string; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+*^()x":
            tokens.append((c, None, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:  # int() refuses a run past its digit limit, or such as "²"
                value = int(text[i:j])
            except ValueError:
                raise ParseError("unreadable integer", i) from None
            tokens.append(("int", value, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent for the grammar

        input   := product | sum
        product := factor ('*' factor)*
        factor  := atom ('^' uint)?
        atom    := 'x' | '1' | '0' | '(' sum ')'
        sum     := term ('+' term)*
        term    := ('x' | '1' | '0') ('^' uint)?

    A top-level input is a sum when a '+' occurs at paren depth 0 before
    any '*', otherwise a product.  A product, power or term whose degree
    would pass _MAX_PARSE_DEGREE raises a ParseError before it is expanded.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    @staticmethod
    def limit(degree, position):
        if degree > _MAX_PARSE_DEGREE:
            raise ParseError(
                f"degree exceeds the limit {_MAX_PARSE_DEGREE}", position)

    def parse_input(self):
        depth = 0
        is_sum = False
        for kind, _, _ in self.tokens:
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
            elif depth == 0 and kind == "+":
                is_sum = True
                break
            elif depth == 0 and kind == "*":
                break
        value = self.parse_sum() if is_sum else self.parse_product()
        tok = self.take()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[0]!r}", tok[2])
        return value

    def parse_product(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            factor = self.parse_factor()
            self.limit(_deg(value) + _deg(factor), pos)
            value = _mul(value, factor)
        return value

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            _, exp, pos = self.expect("int")
            self.limit(_deg(atom) * exp, pos)  # never above for 0 or 1
            atom = 1 << exp if atom == 2 else _pow(atom, exp)
        return atom

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "x":
            return 2
        if kind == "int" and value in (0, 1):
            return value
        if kind == "(":
            inner = self.parse_sum()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {kind!r}", pos)

    def parse_sum(self):
        value = self.parse_term()
        while self.peek()[0] == "+":
            self.take()
            value ^= self.parse_term()
        return value

    def parse_term(self):
        kind, _, pos = self.peek()
        if kind == "(":
            raise ParseError(f"unexpected {kind!r}", pos)
        return self.parse_factor()


def _parse_str(text):
    """The int of a polynomial string; a ParseError for one of degree above
    _MAX_PARSE_DEGREE."""
    literal = text.strip()
    if literal[:2].lower() == "0x":
        digits = literal[2:]
        # int() would also take '_', inner spaces and non-ASCII digits
        if not digits or digits.strip("0123456789abcdefABCDEF"):
            raise ParseError("malformed hex literal", 0)
        n = int(digits, 16)
        _Parser.limit(_deg(n), 0)
        return n
    return _Parser(_tokenize(text)).parse_input()


def _to_expanded(n):
    if n == 0:
        return "0"
    parts = []
    for i in range(n.bit_length() - 1, -1, -1):
        if (n >> i) & 1:
            parts.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(parts)


def parse(text):
    """Parse a polynomial string (the grammar above, or a '0x...' literal)."""
    return Gf2Poly(_parse_str(text))


def format_poly(p, style="expanded"):
    """Render p as text; style 'expanded' or 'hex' (bit i = coeff of x^i)."""
    n = _int_of(p)
    if style == "expanded":
        return _to_expanded(n)
    if style == "hex":
        return hex(n)
    raise ValueError(f"unknown style {style!r}")


# ---------------------------------------------------------------------------
# the operations, which are also Gf2Poly's operators and methods

def add(p, q):
    """Coefficientwise XOR; add(p, p) = 0."""
    return Gf2Poly(_int_of(p) ^ _int_of(q))


def mul(p, q):
    """Carry-less polynomial product."""
    return Gf2Poly(_mul(_int_of(p), _int_of(q)))


def divrem(p, d):
    """Return (q, r) with p = q*d + r and r = 0 or deg r < deg d."""
    q, r = _divmod(_int_of(p), _int_of(d))
    return Gf2Poly(q), Gf2Poly(r)


def gcd(p, q):
    """Greatest common divisor; gcd(p, 0) = p, gcd(0, 0) is an error."""
    a, b = _int_of(p), _int_of(q)
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return Gf2Poly(_gcd(a, b))


def power(p, n):
    """p**n by square-and-multiply; p**0 = 1."""
    _exponents((n,))
    return Gf2Poly(_pow(_int_of(p), n))


def conjugate(p):
    """Substitute x -> x+1."""
    return Gf2Poly(_conj(_int_of(p)))


def reciprocal(p):
    """Bit-reversal of the coefficient window; p must be nonzero."""
    return Gf2Poly(_recip(_nonzero(p, "the reciprocal")))


# ---------------------------------------------------------------------------
# the value types

class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__ and sets each one in its own
    __init__ with object.__setattr__.  The base compares (same class only),
    hashes, prints and pickles by those fields in slot order, a base's
    before its subclass's, and refuses to set or delete an attribute.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the slots of every class in the MRO, the base's first, so that a
        # subclass declaring __slots__ = () keeps its base's fields
        cls._names = tuple(name for klass in reversed(cls.__mro__)
                           for name in vars(klass).get("__slots__", ()))

    def _fields(self):
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuilt through __init__, as restoring the slots would setattr
        return (type(self), self._fields())


class Gf2Poly(_Frozen):
    """Immutable polynomial over GF(2)."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        object.__setattr__(self, "value", _parse_str(value)
                           if isinstance(value, str) else _int_of(value))

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return self.value.bit_length() - 1 if self.value else NEG_INF

    def is_zero(self):
        return self.value == 0

    # each operation is defined once, above, as a function of p
    conjugate = conjugate
    reciprocal = reciprocal
    to_string = format_poly
    __add__ = __radd__ = __sub__ = __rsub__ = add
    __mul__ = __rmul__ = mul
    __pow__ = power
    __divmod__ = divrem

    def __floordiv__(self, other):
        return Gf2Poly(_divmod(self.value, _int_of(other))[0])

    def __mod__(self, other):
        return Gf2Poly(_mod(self.value, _int_of(other)))

    def __eq__(self, other):
        # total: a negative int is no polynomial, so it is simply unequal
        if isinstance(other, Gf2Poly):
            return self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __lt__(self, other):
        # Integer order is degree-then-coefficient order: canonical.
        return self.value < _int_of(other)

    def __le__(self, other):
        return self.value <= _int_of(other)

    def __gt__(self, other):
        return self.value > _int_of(other)

    def __ge__(self, other):
        return self.value >= _int_of(other)

    def __hash__(self):
        return hash(self.value)  # must agree with int, which compares equal

    def __bool__(self):
        return bool(self.value)

    def __int__(self):
        return self.value

    def __index__(self):
        return self.value

    def __str__(self):
        return _to_expanded(self.value)

    def __repr__(self):
        return f"{type(self).__name__}({_to_expanded(self.value)!r})"


ZERO = Gf2Poly(0)
ONE = Gf2Poly(1)
X = Gf2Poly(2)
X1 = Gf2Poly(3)  # x+1
