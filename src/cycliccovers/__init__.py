"""Classification engine for cyclic covers of complex projective curves.

The package enumerates and canonicalises admissible branching data of
cyclic covers, does the divisor-class bookkeeping of the cover algebra
(including the irreducibility criterion over an abstract Picard group),
computes the irredundant irreducible decomposition of the singular locus
of the moduli space of curves, and enumerates the boundary components
over stable curves via labelled automorphism graphs with a smoothing
rewrite engine.

All values are immutable and all operations pure and deterministic, so
everything is safe for concurrent use; enumerations sort canonically
before emission.
"""

__version__ = "0.1.0"
