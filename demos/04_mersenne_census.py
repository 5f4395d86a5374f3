"""Mersenne polynomials 1 + x^a (x+1)^b with gcd(a, b) = 1.

The irreducible ones ("Mersenne primes") are rare; exactly five exist up to
degree 4, and those five generate the entire bi-unitary perfect catalog.
"""

from gf2bup import (
    enumerate_mersenne_primes, in_M5_set, is_mersenne_prime, mersenne_poly,
    parse, reciprocal,
)

print("All Mersenne primes of degree <= 8:")
for form, poly in enumerate_mersenne_primes(8):
    marker = f"  <- M{in_M5_set(poly)}" if in_M5_set(poly) else ""
    print(f"  (a,b)=({form.a},{form.b})   {poly}{marker}")

print()
print("Recognition is exact: irreducibility plus the 1 + x^a(x+1)^b shape.")
for text in ["x^3+x^2+1", "x^2+1", "x^4+x+1"]:
    form = is_mersenne_prime(parse(text))
    shape = f"(a,b)=({form.a},{form.b})" if form else "not a Mersenne prime"
    print(f"  {text:>10}: {shape}")

print()
print("Round trip: recognizing then rebuilding returns the input.")
p = parse("x^5+x^3+1")  # 1 + x^3 (x+1)^2
form = is_mersenne_prime(p)
print(f"  {p} -> (a,b)=({form.a},{form.b}) -> {mersenne_poly(form)}")
assert mersenne_poly(form) == p

print()
print("Self-reciprocal Mersenne primes up to degree 16 (exactly M1 and M4):")
fixed = [str(p) for _, p in enumerate_mersenne_primes(16)
         if reciprocal(p) == p]
print(" ", fixed)
