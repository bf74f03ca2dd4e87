"""Exact computations with squares of subspaces of degree-d forms.

The package enumerates strongly stable monomial subspaces, computes the
codimension of U * U in the full space of degree-2d forms, maximizes it
over families of subspaces, verifies the Hilbert function and lifting
theorems behind those maxima at desk scale, and evaluates the resulting
dimension bounds for faces of Gram spectrahedra.

Every name is imported from the module that defines it, for example
`from stablesq.search import compute_m`; importing the package itself
loads none of them.
"""

__version__ = "0.1.0"
