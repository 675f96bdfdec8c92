"""Exact combinatorics of Kostka matrices and their inverses.

Compositions index the noncommutative side, partitions the symmetric side.
The package builds the four transition matrices from counts: one Pieri walk
per matrix counts the Kostka entries without listing tableaux, expanding
each (shape, copies of the next value) once per matrix (the tableau
enumerators stay its oracle), and the inverses sum the signs of hook
coverings or rim hook tableaux.  It also exposes the sign-reversing
involutions proving the inverse identities pairwise, and the permutation
bijections connecting coverings with special rim hook tableaux.
"""

from .core import (
    DegreeError,
    InvalidContentError,
    NoPreimageError,
    compositions_of,
    dec,
    dominates,
    embed,
    flatten,
    lehmer_code,
    lehmer_decode,
    lex_geq,
    partitions_of,
    perm_compose,
    perm_inverse,
    perm_sign,
)
from .involutions import Pair, Trace, chi, enumerate_pairs, phi, psi, rho, theta, verify_involution
from .matrices import (
    TransitionMatrix,
    exact_inverse_matrix,
    is_identity,
    jacobi_trudi_terms,
    mat_mul,
    nsym_K,
    nsym_Kinv,
    sym_K,
    sym_Kinv,
    sym_Kinv_from_rim_hooks,
)
from .rimhooks import (
    SpecialRimHookTableau,
    enumerate_srht,
    gamma,
    is_srht_and_thc,
    perm_cycles_srt,
    perm_srt,
    srht_from_perm,
    srht_sign,
    srht_to_thc,
    thc_to_srht,
)
from .tableaux import (
    bender_knuth,
    content_vector,
    enumerate_immaculate,
    enumerate_ssyt,
    is_immaculate,
    is_ssyt,
    shape_of,
)
from .tunnelhooks import (
    GBPRDiagram,
    TunnelHook,
    TunnelHookCovering,
    build_thc,
    enumerate_thc,
    perm_cycles_thc,
    perm_incremental,
    perm_of_thc,
    thc_from_perm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
