#!/usr/bin/env python3
"""The boundary-divisor presentation and its graded ranks, two ways.

The closed form sums binomials over jump types; the oracle spans each degree
by chain-supported monomials and row-reduces the relation matrix over exact
integers.  They have no code in common past the generator enumeration, so
their agreement is a real check.
"""

from cyclic_wonderful import ArrangementSpec, betti_closed_form, betti_oracle
from cyclic_wonderful.chow import _relation_spaces, jump_census, presentation

spec = ArrangementSpec(r=2, n=3)
generators, relations = presentation(spec)
print(f"r={spec.r}, n={spec.n}: {len(generators)} divisor generators")
# a relation (i, a, b) is reduced exactly when a = 0
print(f"{len(relations)} linear relations emitted, "
      f"{sum(1 for _, a, _ in relations if a == 0)} independent after reduction")

print("\nfirst few generators:")
for d in generators[:6]:
    print("  D" + d.text())

print("\njump census (composition of flag jumps -> number of chains):")
for parts, count in sorted(jump_census(spec).items()):
    print(f"  {parts}: {count}")

print("\ngraded ranks:")
closed = betti_closed_form(spec)
oracle = betti_oracle(spec)
print("  k      closed  oracle")
for k, (b, o) in enumerate(zip(closed, oracle)):
    print(f"  {k}      {b:6d}  {o:6d}")
assert closed == oracle

# the oracle's elimination, degree by degree: one loop builds each degree's
# chain monomials from the degree below and feeds its rows one relation at a
# time, skipping the rows the F5 criterion proves redundant
print("\nrank oracle per degree (graded rank = monomials - rank):")
print("  k  monomials  rank")
_, _, widths, ranks, _ = _relation_spaces(spec, spec.n)
for k, (width, rank) in enumerate(zip(widths, ranks), 1):
    print(f"  {k}  {width:9d}  {rank:4d}")
    assert width - rank == closed[k]

# for r = 2 the fan is complete and smooth, so the total rank counts the
# maximal cones and the rank vector is palindromic
print("\ntotal rank:", sum(closed), "= n! 2^n =", spec.num_maximal_chains)
