"""Graded Betti tables of opposite cells of Schubert varieties in the
symplectic Grassmannian, covering the symmetric determinantal varieties.

The package re-exports nothing: import from its modules, for instance
``from symsyz.resolution import resolve``."""

__version__ = "0.1.0"
