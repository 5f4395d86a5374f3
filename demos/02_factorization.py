"""Factorization over GF(2): square-free decomposition, distinct-degree
splitting, then randomized equal-degree splitting.  Output order is
canonical, so the randomness never shows through.
"""

from gf2bup import factorize, is_irreducible, is_odd, is_squarefree, omega, parse

examples = [
    "x^6+x^5+x^4+x^3+x^2+x+1",   # sigma(x^6): a product of two cubics
    "x^3+x",
    "x^8*(x+1)^8*(x^4+x^3+x^2+x+1)*(x^4+x^3+1)",   # catalog entry C8
    "x^10+x^5+1",
]

for text in examples:
    p = parse(text)
    fac = factorize(p)
    print(f"{text}")
    print(f"  = {fac}")
    print(f"  omega={omega(p)}  odd={is_odd(p)}  squarefree={is_squarefree(p)}")
    assert fac.product() == p

print()
print("Irreducibility uses the Frobenius criterion:")
for text in ["x^2+x+1", "x^2+1", "x^4+x+1", "x^4+x^3+x^2+x+1"]:
    print(f"  {text:>18}: {is_irreducible(parse(text))}")
