"""Rim hook tableaux, hook coverings, and the permutations encoding both.

A special rim hook tableau breaks a partition diagram into south/west hook
paths meeting column 1; a hook covering tiles the same diagram row by row.
Each determines a permutation of the rows, and matching permutations gives
a sign- and weight-preserving bijection between the two models.
"""

from kostka import core, rimhooks as rh, tunnelhooks as th
from kostka.render import render_srht, render_thc

###############################################################################
# A nine-row example.  Hooks are numbered by terminal row in both drawings.

shape = (8, 7, 7, 4, 4, 4, 2, 2, 2)
sigma = (1, 6, 4, 3, 9, 2, 5, 8, 7)

tableau = rh.srht_from_perm(shape, sigma)
print(render_srht(tableau))
print("\npermutation:", rh.perm_srt(tableau))
print("descending cycles:", rh.perm_cycles_srt(tableau))
print("hook sizes by position:", rh.gamma(tableau))
print("content:", rh.srht_content(tableau))
print("sign:", rh.srht_sign(tableau))

###############################################################################
# The covering with the same permutation: weights agree position by
# position with the hook sizes above.

covering = rh.srht_to_thc(tableau)
print()
print(render_thc(covering))
assert covering.delta() == rh.gamma(tableau)
assert rh.thc_to_srht(covering) == tableau
print("\nweights match and the bijection round-trips ✓")

###############################################################################
# Coverings themselves biject with all permutations of the rows, and the
# permutation can be recomputed three ways: terminal diagonals, one
# descending cycle per hook, or row-by-row increasing cycles.

small = th.thc_from_perm((2, 3, 2, 1), (2, 4, 1, 3))
print()
print(render_thc(small))
print("terminal diagonals:  ", th.perm_of_thc(small))
print("descending cycles:   ", core.cycles_to_perm(th.perm_cycles_thc(small), 4))
print("row-by-row build-up: ", th.perm_incremental(small, 4))

###############################################################################
# Which permutations arise from rim hook tableaux?  Exactly those keeping
# every weight nonnegative; coverings take the rest.

lam = (2, 2, 1)
valid = {perm for perm, _ in th.delta_choices(lam)}
print(f"\nshape {lam}: {len(valid)} of {len(list(core.permutations_of(3)))} "
      f"permutations give a tableau")
for perm in core.permutations_of(3):
    delta = th.thc_from_perm(lam, perm).delta()
    tag = "tableau + covering" if perm in valid else "covering only"
    print(f"  {perm} weights {delta}: {tag}")
