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

from .branching import (
    BranchingDatum,
    BranchingSequence,
    SmoothLocus,
    canonical_datum,
    enumerate_admissible,
    enumerate_loci,
    is_admissible,
    quotient_genus,
    smooth_locus,
)
from .cover_algebra import (
    BranchAssignment,
    DivisorClass,
    PicardModel,
    RootDatum,
    branch_assignment,
    carry,
    character_class,
    component_count,
    irreducibility,
    multiplication_exponents,
    normalize_root,
)
from .sing_smooth import (
    ClassificationRecord,
    DecompositionReport,
    Verdict,
    classify,
    decompose_sing,
)
from .sing_stable import (
    AutBoundReport,
    BoundaryComponent,
    aut_bounds,
    boundary_components,
    decompose_sing_bar,
    pseudoreflection_only,
)
from .stable_graphs import (
    AutoGraph,
    Link,
    Loop,
    Vertex,
    canonical_encoding,
    canonical_form,
    enumerate_graphs,
    graph_genus,
    is_stable,
    simplify,
    smooth_node,
    smoothable_nodes,
    stratum_dimension,
)

__version__ = "0.1.0"
