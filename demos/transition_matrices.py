"""Kostka matrices and their inverses, built and checked exactly.

Walks through the four transition matrices at small degree: entries are
tableau counts or signed hook counts, everything is an exact
integer, and the inverse pairs really multiply to the identity in both
orders.
"""

from kostka import matrices as mx
from kostka.serialize import matrix_to_csv

###############################################################################
# The symmetric-function pair: partitions index rows and columns.  Entry
# (lam, mu) of K counts column-strict tableaux of shape lam and content mu.

n = 4
k = mx.sym_K(n)
print(f"K at degree {n} (rows/cols: {', '.join(map(str, k.labels))})")
print(matrix_to_csv(k))
print()

kinv = mx.sym_Kinv(n)
print(f"K-inverse at degree {n}: signed special rim hook counts")
print(matrix_to_csv(kinv))
print()

print("K * Kinv is the identity:", mx.is_identity(mx.mat_mul(k, kinv)))
print("Kinv * K is the identity:", mx.is_identity(mx.mat_mul(kinv, k)))
print()

###############################################################################
# The noncommutative pair: compositions index everything, so the matrices
# are 2^(n-1) square.  Both are unitriangular in the canonical order.

nk = mx.nsym_K(n)
nkinv = mx.nsym_Kinv(n)
print(f"NSym K at degree {n} is {nk.size} x {nk.size}")
print(matrix_to_csv(nkinv))
print("NK * NKinv = NKinv * NK = I:",
      mx.is_identity(mx.mat_mul(nk, nkinv)) and mx.is_identity(mx.mat_mul(nkinv, nk)))
print()

###############################################################################
# Three independent routes to the inverse Kostka matrix must agree: signed
# counts peeled one rim hook at a time, signed counts of listed rim hook
# tableaux, and fraction-free elimination applied to K itself.

for degree in range(1, 7):
    a = mx.sym_Kinv(degree)
    b = mx.sym_Kinv_from_rim_hooks(degree)
    c = mx.exact_inverse_matrix(mx.sym_K(degree))
    assert a.entries == b.entries == c.entries
    print(f"degree {degree}: peel = rim hook tableaux = elimination", u"✓")

###############################################################################
# The Jacobi-Trudi determinant expansion, term by term: each surviving
# permutation of det(h_{lam_i - i + j}) matches one rim hook tableau.

lam = (3, 2, 1)
print(f"\ndeterminant terms for {lam}:")
for sign, exponents in mx.jacobi_trudi_terms(lam):
    label = "".join(f"h{e}" for e in exponents) or "1"
    print(f"  {'+' if sign > 0 else '-'}{label}")
