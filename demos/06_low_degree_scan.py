"""Independent completeness check at desk scale.

Instead of trusting the lemma-derived candidate bounds, decide *every*
nonzero polynomial up to a degree cap and keep the sigma** fixpoints.  The
scan writes each polynomial as x^a (x+1)^b m with m coprime to x(x+1), and
joins the odd parts m to the pairs (a, b) exactly, by the x- and
(x+1)-valuations of their sigma**; those valuations rule out every odd
part of degree above cap - 7.  Only the fixpoints it finds are factored,
to confirm them.
Up to degree 16 this confirms: the unit, the two-prime families
x(x+1)-style, and the catalog members of small degree -- nothing else.
"""

import time

from gf2bup import exhaustive_low_degree_scan

for bound in (4, 9, 12):
    records = exhaustive_low_degree_scan(bound)
    print(f"degree <= {bound:>2}: {[str(r.factorization) for r in records]}")

print()
start = time.perf_counter()
records = exhaustive_low_degree_scan(16)
elapsed = time.perf_counter() - start
print(f"degree <= 16 scan over 131071 polynomials "
      f"({elapsed:.1f}s): {len(records)} fixpoints")
for r in records:
    tag = r.conjugate_class if r.conjugate_class.startswith("C") else "-"
    print(f"  deg {int(r.poly.degree):>2}  {str(r.factorization):<28} {tag}")
