"""Reproduce the classification computation end to end.

Inside the exponent box transcribed from the paper, the 23 catalog
polynomials C1..C23 (and conjugates) are exactly the indecomposable
bi-unitary perfect polynomials with at least three prime divisors whose
odd part is built from M1..M5.  The box is not complete: a Mersenne-only
pair of degree 78 lies outside it (README, "Known deviation").  Each of
the four parity cases is a meet-in-the-middle join over its exponent box,
and only the join's hits are certified as sigma** fixpoints; sufficiency
of the catalog is checked directly.
"""

import time

from gf2bup import catalog, run_search, search_case, verify_catalog
from gf2bup.bup_search import CASES

print("Catalog sufficiency (fixpoint, evenness, Mersenne support,")
print("indecomposability, for each entry and its conjugate):")
for name, ok, factored in verify_catalog():
    print(f"  {name:>3}  {'PASS' if ok else 'FAIL'}  {factored}")

print()
print("The four search cases (a <= b; conjugation restores a > b):")
start = time.perf_counter()
found = set()
for case in CASES:
    result = search_case(case)
    names = ", ".join(f"C{i}" for i in sorted(
        r.catalog_index for r in result.records if r.catalog_index))
    print(f"  {case:>9}: {result.candidate_count:6d} candidates "
          f"-> {names} in {result.seconds:.4f}s")
    found.update(r.poly.value for r in result.records)

records = run_search("all")
print(f"\nTotal: {len(records)} fixpoints "
      f"(23 conjugate classes, 6 self-conjugate) "
      f"in {time.perf_counter() - start:.4f}s")
assert found == {r.poly.value for r in records}
assert sorted(r.catalog_index for r in records if r.catalog_index) \
    == list(range(1, 24))
assert len(records) == 40
assert {r.conjugate_class for r in records} \
    == {f"C{i}" for i in range(1, 24)}
assert all(rec.catalog_index == i + 1 for i, rec in enumerate(catalog()))
print("Search output equals the conjugate closure of the catalog.")
