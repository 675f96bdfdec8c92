"""Exact combinatorics of Kostka matrices and their inverses.

Compositions index the noncommutative side, partitions the symmetric side.
Each name is imported from its one module (``from kostka.matrices import
sym_K``).  ``matrices`` builds the four transition matrices from counts: one
Pieri walk per matrix counts the Kostka entries (the enumerators of
``tableaux`` stay its oracle), and the inverses sum the signs of hook
coverings or rim hook tableaux.  ``involutions`` holds the sign-reversing
involutions proving the inverse identities pairwise, and ``tunnelhooks`` and
``rimhooks`` the permutation bijections between coverings and special rim
hook tableaux.
"""

from . import core, involutions, matrices, rimhooks, tableaux, tunnelhooks
