"""Exact-arithmetic crown-graph algebras and their truncated tensor representations.

The package builds the sign-word monoid and its algebra, the strip and
crown graphs with their word actions, the degree-1,2 graph algebras, and
the truncated representations of the surjection category, then verifies
the structural identities connecting them: the square identity in the
monoid algebra, annihilation below the level, transport along the
projections, the mutual-inverse crown isomorphism, and graph/algebra
non-isomorphism via projective reconstruction.
"""

from .errors import (
    CapExceeded,
    CrownError,
    HomSetViolation,
    IllDefinedQuotient,
    NotACover,
    NotAMorphism,
    RejectedWord,
)
from .fields import GF, QQ, PrimeField, RationalField, parse_field
from .graph_algebra import (
    Algebra,
    annihilator_grading,
    cover_injectivity,
    is_multiplicative,
    minimal_points,
    q_hom,
    q_ungraded,
    reconstruct_graph,
)
from .graphs import (
    CycleScan,
    Graph,
    GraphMorphism,
    act_on_B,
    act_on_C,
    build_B,
    build_C,
    build_F,
    graph_new,
    graphs_isomorphic,
    is_admissible,
    is_cover,
    morphism_new,
    valency2_cycle_count,
)
from .harness import CheckReport, RunConfig, exit_code_for, export_objects, run_suite
from .linalg import Matrix, kron, kron_power, kron_sum, mat_compose, mat_rank
from .loday import (
    IsoReport,
    NatTransData,
    Surjection,
    cofunctor_eval,
    functor_check,
    iso_check,
    lemma_check,
    loday_matrix,
    surj_compose,
    surjections,
    transport_square_check,
)
from .monoid import (
    MonoidAlgElem,
    Word,
    act_on_U,
    build_T,
    build_Z,
    check_T_squared,
    gen_g,
    gen_h,
    homset_member,
    wn_enumerate,
    word_mul,
)

__version__ = "0.1.0"
