"""
From class masses to the performance matrix and its trace
=========================================================

Normalizing each class mass by its own total turns the six raw counts
into comparable scores: X = (Pc^2/P, Pt^2/P, Pz^2/P) for papers,
Y = (Cc^2/C, Ct^2/C, Ce^2/C) for citations, and Z = Y - X for the
citation surplus of each class.  The trace T = X1 + Y2 + Z3 condenses
the whole 3x3 matrix into a single signed number.
"""

from citetrace import reference_corpus, score

corpus = reference_corpus()

# Two information-science journals from the bundled corpus.  The first
# has the stronger h-core, the second the far heavier cited tail.
for name in ("J Informetr", "J Am Soc Inf Sci Tec"):
    record = corpus.record(name)
    s = score(record)
    matrix = [(s.X1, s.X2, s.X3),
              (s.Y1, s.Y2, s.Y3),
              (s.Z1, s.Z2, s.Z3)]

    print(f"{name}  (P={record.papers}, h={record.h}, C={record.citations})")
    for label, row in zip("XYZ", matrix):
        print(f"  {label}  " + "  ".join(f"{v:9.2f}" for v in row))
    print(f"  T = {s.X1:.2f} + {s.Y2:.2f} + {s.Z3:.2f} = {s.T:.2f}  [{s.sign}]")
    share = s.Y2 / s.T
    print(f"  tail citations carry {share:.1%} of the trace\n")

# The trace needs only four class counts besides the two totals.
record = corpus.record("Ye FY")
s = score(record)
direct = (record.h ** 2 / record.papers + record.tail_citations ** 2 / record.citations
          + record.excess_citations ** 2 / record.citations
          - record.uncited ** 2 / record.papers)
print(f"Ye FY: trace from counts = {direct:.4f}, from the matrix = {s.T:.4f}")

# Weights are each class's share of its own total, so I3X and I3Y are
# the same numbers seen as weighted sums of the raw masses.
weights = [n / record.papers for n in (record.h, record.tail_papers, record.uncited)]
print(f"publication weights: core={weights[0]:.2f} tail={weights[1]:.2f} "
      f"uncited={weights[2]:.2f}")
print(f"I3X = {s.I3X:.4f}, I3Y = {s.I3Y:.4f}")

# A set with many uncited papers and little excess can go negative:
# the uncited penalty Pz^2/P dominates Z3.
hamburg = score(corpus.record("Univ Hamburg"))
print(f"\nUniv Hamburg: Z3 = {hamburg.Z3:.1f} (uncited penalty), "
      f"yet T = {hamburg.T:.1f} stays positive thanks to Y2 = {hamburg.Y2:.1f}")
