"""Exact-arithmetic toolkit for the nullity of signed graphs.

The nullity (multiplicity of the zero eigenvalue of the signed adjacency
matrix) is computed three independent ways: exact integer rank, basic-figure
enumeration of characteristic-polynomial coefficients, and structural
reduction with certificates.  Closed forms for signed paths, cycles, and
bicyclic infinity and theta graphs, generators for the bicyclic families, and
exhaustive desk-scale theorem verification sit on top.
"""

from .graph import (
    CycleWitness,
    GraphError,
    ParseError,
    SignedGraph,
    canonical_signature,
    components,
    cut_points,
    cycle_witness,
    delete_vertices,
    find_cycles,
    from_json,
    is_balanced,
    is_connected,
    parse_edge_list,
    pendant_pairs,
    serialize_edge_list,
    switch,
    switching_equivalent,
    to_json,
)
from .linalg import (
    CharPoly,
    LinalgError,
    adjacency_matrix,
    char_poly,
    nullity_charpoly,
    nullity_rank,
    rank,
    zero_multiplicity,
)
from .figures import (
    BasicFigure,
    SizeGuardError,
    char_poly_figures,
    coefficient,
    enumerate_basic_figures,
)
from .reduction import (
    ReductionStep,
    ReductionTrace,
    nullity_structural,
    peel_pendants,
)
from .formulas import (
    InfinitySpec,
    is_max_nullity_extremal,
    nullity_cycle,
    nullity_infinity,
    nullity_path,
    nullity_theta,
    upper_bound,
)
from .families import (
    InternalError,
    bicyclic_class,
    gen_cycle,
    gen_figure,
    gen_infinity,
    gen_path,
    gen_star,
    gen_theta,
    parse_family_spec,
    realize_nullity,
)
from .verify import THEOREM_IDS, VerificationReport, verify_theorem
from .verify import try_cutpoint_case1, try_cutpoint_case2

__version__ = "0.1.0"
