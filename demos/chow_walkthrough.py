#!/usr/bin/env python3
"""The boundary-divisor presentation and its graded ranks, two ways.

The closed form sums binomials over jump types; the oracle spans each degree
by chain-supported monomials and row-reduces the relation matrix over exact
integers.  They have no code in common past the generator enumeration, so
their agreement is a real check.
"""

from cyclic_wonderful import ArrangementSpec, betti_closed_form, betti_oracle
from cyclic_wonderful.chow import (
    _ChainMonomials,
    _relation_rows,
    _relation_space,
    jump_census,
    presentation,
)

spec = ArrangementSpec(r=2, n=3)
pres = presentation(spec)
print(f"r={spec.r}, n={spec.n}: {len(pres.generators)} divisor generators")
print(f"{len(pres.linear_relations)} linear relations emitted, "
      f"{len(pres.reduced_indices)} independent after reduction")

print("\nfirst few generators:")
for d in pres.generators[:6]:
    print("  D" + d.text())

print("\njump census (composition of flag jumps -> number of chains):")
for jt, count in sorted(jump_census(spec).items(), key=lambda kv: kv[0].parts):
    print(f"  {jt.parts}: {count}")

print("\ngraded ranks:")
closed = betti_closed_form(spec)
oracle = betti_oracle(spec)
print("  k      closed  oracle")
for k, (b, o) in enumerate(zip(closed.dims, oracle.dims)):
    print(f"  {k}      {b:6d}  {o:6d}")
assert closed == oracle

# the oracle's elimination, degree by degree: rows are fed one relation at a
# time, a row is skipped when the F5 criterion proves it redundant (at r = 2
# every fed row raises the rank), and nearly every pivot row has lead 1
print("\nrank oracle per degree (graded rank = monomials - rank):")
print("  k  monomials  rows  skipped  rank  lead-1 pivots")
monomials = _ChainMonomials(pres.generators)
relations = [pres.linear_relations[k] for k in pres.reduced_indices]
pivots = {}
for k in range(1, spec.n + 1):
    rows = sum(len(block) for block in _relation_rows(monomials, relations, k, pivots))
    # a degree-(k-1) pivot made by relation i skips the rows of every later one
    skipped = sum(len(relations) - 1 - i for i in pivots.values())
    elim, pivots = _relation_space(monomials, relations, k, pivots, spec.n)
    lead_one = sum(1 for col, row in elim.pivots.items() if row[col] == 1)
    size = len(monomials.degree(k))
    print(f"  {k}  {size:9d}  {rows:4d}  {skipped:7d}  {elim.rank:4d}  {lead_one:13d}")
    assert size - elim.rank == closed.dims[k]

# for r = 2 the fan is complete and smooth, so the total rank counts the
# maximal cones and the rank vector is palindromic
print("\ntotal rank:", closed.total, "= n! 2^n =", spec.num_maximal_chains)
