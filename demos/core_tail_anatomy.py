"""
Anatomy of a citation record: h-core, h-tail, and the uncited area
==================================================================

A walk through the basic decomposition: sort a document set by
citations, find the h-index, and split both papers and citations into
their natural classes.
"""

from citetrace import (
    SummaryRecord,
    h_index,
    plausibility_warnings,
    summarize,
)

# A small research group: eleven papers with assorted citation counts.
name, counts = "demo group", (21, 14, 9, 6, 5, 5, 3, 1, 0, 0, 0)

h = h_index(counts)
print(f"{name}: {len(counts)} papers, h-index = {h}")

# The summary record splits papers into core / tail / uncited, and
# citations into the h^2 baseline, the excess above it, and the tail mass.
record = summarize(counts, name)
print(f"  core papers      Pc = {record.h}")
print(f"  tail papers      Pt = {record.tail_papers}")
print(f"  uncited papers   Pz = {record.uncited}")
print(f"  core baseline    Cc = {record.h ** 2}  (= h^2)")
print(f"  excess citations Ce = {record.excess_citations}")
print(f"  tail citations   Ct = {record.tail_citations}")
print(f"  core citations   Ch = {record.core_citations}  (= Cc + Ce)")

# The masses always recombine exactly.
assert record.papers == record.h + record.tail_papers + record.uncited
assert record.citations == record.h ** 2 + record.excess_citations + record.tail_citations

# Five numbers are enough: P, h, Pz, C, Ch determine everything else.
print(f"\nsummary record: P={record.papers} h={record.h} Pz={record.uncited} "
      f"C={record.citations} Ch={record.core_citations}")
rebuilt = SummaryRecord(name, record.papers, record.h, record.uncited,
                        record.citations, record.core_citations)
assert rebuilt == record and rebuilt.tail_citations == record.tail_citations
print("rebuilding the partition from the five-number summary gives the same result")

# Documents tied exactly at h citations may sit on either side of the
# boundary; every derived quantity is invariant under that choice.
tied = (3, 3, 3, 3, 3)
tied_record = summarize(tied, "boundary ties")
print(f"\n{tied_record.name}: counts {tied} -> h = {tied_record.h}, "
      f"Ch = {tied_record.core_citations} (any {tied_record.h} of the tied papers)")

# Summary exports can be internally consistent yet physically impossible;
# the plausibility screen flags tail masses outside [Pt, h*Pt].
odd = SummaryRecord(name="suspicious tail", papers=64, h=3, uncited=57,
                    citations=47, core_citations=12)
for message in plausibility_warnings(odd):
    print(f"\nwarning for '{odd.h}-core set with Pt={odd.tail_papers}':\n  {message}")
