"""sdualkit: exact Coulomb-branch presentations for abelian gauge theories,
brane-diagram calculus, and dimension bookkeeping for S-dual pairs of
Hamiltonian spaces."""

from .abelian_coulomb import (
    CoulombElement,
    RingPresentation,
    TorusTheory,
    multiply,
    present_rank1,
    reduce_multiplicative,
    sdual_torus,
    structure_constant_table,
    structure_exponents,
    structure_factor,
)
from .brane import (
    BraneDiagram,
    LinkingData,
    QuiverData,
    admissible_moves,
    concat,
    expected_space,
    hw_move,
    linking_numbers,
    quiver_to_diagram,
    sdual,
)
from .exactalg import (
    LinearForm,
    Polynomial,
    eval_product,
    integer_kernel,
    integer_rank,
)
from .partitions import (
    Partition,
    centralizer_dim,
    chain_to_orbit,
    dominates,
    hook,
    numeric_jordan_oracle,
    orbit_dim,
    partitions_of,
    rank_profile,
    transpose,
)
from .spaces import (
    GroupDescriptor,
    KostantCheck,
    SpaceDescriptor,
    compose,
    coulomb_dim,
    hyperspherical_deficit,
    kostant_reduction_check,
    sdual_pair,
)

__version__ = "0.1.0"
