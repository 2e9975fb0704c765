"""
Comparing the trace with an external metric column
==================================================

Joins computed indicators with a user-supplied per-entity metric (an
impact-factor-style column here, synthesized for the demo), then runs
Pearson and Spearman correlations with two-tailed significance levels.
"""

import math
import random

from citetrace import (
    correlation_report,
    rank_entities,
    reference_corpus,
    score,
    significance,
    stars,
)

corpus = reference_corpus()
lis = [score(rec) for rec in corpus.journals if rec.group == "LIS"]
table = rank_entities(lis, key="T")

names = [row.name for row in table]
traces = [row.T for row in table]
h_values = [row.h for row in table]

# Synthetic external metric: loosely tracks the trace on a log scale,
# with deterministic noise standing in for editorial fortune.
rng = random.Random(7)
synthetic_if = [math.log1p(t if t > 0 else 0) * 0.4 + rng.uniform(0, 1.5) for t in traces]

report = correlation_report([
    ("T", traces),
    ("h", h_values),
    ("IF*", synthetic_if),
])

print(f"pairwise correlations over {len(names)} journals "
      "(* p < .05, ** p < .01, two-tailed)\n")
print(f"{'pair':<12} {'Pearson':>10}      {'Spearman':>10}")
for pair in report.pairs:
    print(f"{pair.a + ' ~ ' + pair.b:<12} "
          f"{pair.pearson_r:>10.3f}{pair.pearson_stars:<3} "
          f"{pair.spearman_rho:>10.3f}{pair.spearman_stars:<3}")

# Significance depends on both the coefficient and the sample size:
# the same r = 0.5 is noise at n = 8 and strong evidence at n = 80.
print("\np-values for r = 0.5 at increasing sample sizes")
for n in (8, 15, 30, 80):
    p = significance(0.5, n)
    print(f"  n = {n:>3}: p = {p:.4f} {stars(p)}")

# Rows ready for external plotting: name, trace, metric.
print("\nplot-ready rows (first five, positive traces only):")
print("name,T,IF*")
emitted = 0
for name, t, metric in zip(names, traces, synthetic_if):
    if t <= 0:
        continue
    print(f"{name},{t:.2f},{metric:.3f}")
    emitted += 1
    if emitted == 5:
        break
