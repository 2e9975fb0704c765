"""
Golden regression: recomputing the bundled expected values
==========================================================

The corpus ships hand-tabulated matrix entries and traces for 27
entities, stored exactly as displayed (mixed precisions included).  A
displayed value passes when the recomputed number lies within half a
unit of its last displayed digit; the comparison runs in decimal
arithmetic so boundary cases like 6.125 vs "6.13" are exact.
"""

from collections import Counter

from citetrace import matches_displayed, reference_corpus, validate_corpus

report = validate_corpus()
by_table = Counter(cell.table for cell in report.cells)

print("golden cells by table:")
for table, count in sorted(by_table.items()):
    print(f"  {table:<13} {count:>4}")
print(f"\nall {len(report.cells)} cells pass: {report.ok}")

# What one check looks like up close.
corpus = reference_corpus()
row = next(r for r in corpus.golden_journals if r.name == "J Informetr")
cell = next(c for c in report.cells if c.entity == "J Informetr" and c.cell == "T")
print(f"\nJ Informetr trace: computed {cell.computed!r}")
print(f"  displayed as {cell.displayed!r} -> tolerance half of the last digit")
print(f"  |{cell.computed:.6f} - {cell.displayed}| within 0.005: {cell.passed}")

# The half-unit rule, exercised on its boundary.
print("\ndisplayed-precision rule on the boundary:")
for value, shown in ((6.125, "6.13"), (6.136, "6.13"), (-43.0041, "-43")):
    print(f"  {value!r} vs {shown!r}: {matches_displayed(value, shown)}")

# Tampering with a golden value makes exactly that cell fail -- this is
# the same machinery the command-line `validate-reference` exits 1 on.
target = corpus.golden_journals[0]
tampered = corpus._replace(golden_journals=(
    target._replace(displayed={**target.displayed, "T": "999999"}),
) + corpus.golden_journals[1:])
broken = validate_corpus(tampered)
print(f"\nafter perturbing one golden trace: ok={broken.ok}, "
      f"failures={[(c.entity, c.cell) for c in broken.failures]}")
