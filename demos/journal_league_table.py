"""
League tables: ranking a journal set by trace, h, or any matrix entry
=====================================================================

The bundled corpus carries 86 journals (83 information-science titles
plus three multidisciplinary flagships) as five-number summary records.
Ranking is deterministic: descending by the chosen indicator, ties
broken by name.
"""

from citetrace import rank_entities, reference_corpus, score

corpus = reference_corpus()
lis = [score(rec) for rec in corpus.journals if rec.group == "LIS"]
multi = [score(rec) for rec in corpus.journals if rec.group == "multidisciplinary"]

# Top of the field by academic trace.
table = rank_entities(lis, key="T")
print("top 10 information-science journals by trace")
print(f"{'rank':>4}  {'journal':<22} {'h':>4} {'T':>10} {'I3Y':>10}")
for position, row in enumerate(table[:10], start=1):
    print(f"{position:>4}  {row.name:<22} {row.h:>4} {row.T:>10.1f} {row.I3Y:>10.1f}")

# The same set ordered by plain h looks different: the h-index ignores
# everything outside the core cut-off.
by_h = rank_entities(lis, key="h")
print("\ntop 5 by h-index alone")
for position, row in enumerate(by_h[:5], start=1):
    print(f"{position:>4}  {row.name:<22} h={row.h:>3}  T={row.T:.1f}")

# Multidisciplinary giants: the h ordering and the trace ordering disagree.
print("\nmultidisciplinary flagships")
for key in ("h", "T"):
    ranked = rank_entities(multi, key=key)
    order = " > ".join(f"{row.name} ({getattr(row, key):.0f})" for row in ranked)
    print(f"  by {key}: {order}")

# Negative traces mark sets whose uncited mass outweighs everything else;
# filtering the ranked rows on the exact sign drops them.
positive = [row for row in table if row.sign == "positive"]
dropped = len(lis) - len(positive)
print(f"\npositive-trace filter keeps {len(positive)} of {len(lis)} journals "
      f"({dropped} nonpositive)")
worst = table[-1]
print(f"lowest trace: {worst.name} with T = {worst.T:.2f}")
