"""Circuit partitions, GF(2) interlacement, and interlace polynomials of 4-regular multigraphs."""

from types import ModuleType as _ModuleType

from .errors import CapExceededError, InputFormatError
from .gf2 import Gf2Matrix, nullity, rank
from .graphs import (
    EulerSystem,
    Multigraph,
    check_euler_system,
    components,
    cyclic_word_key,
    directed_euler_system,
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
    orient,
    random_regular_multigraph,
    reversed_component,
)
from .interlace import (
    LoopedGraph,
    ToggleReport,
    interlace_graph,
    interlace_matrix,
    interlacement_toggle_check,
    kappa_transform,
    looped_graph,
)
from .partitions import (
    CircuitPartition,
    SweepReport,
    Transition,
    format_assignment,
    induced_assignment,
    parse_assignment,
    partition_matrix,
    predicted_size,
    trace,
    transition_matchings,
    verify_extended_cle,
)
from .polynomials import (
    MultiPoly,
    courcelle,
    courcelle_from_partitions,
    q2_from_partitions,
    q_from_partitions,
    q_nullity,
    q_two_variable,
)
from .permutations import (
    PairDigraph,
    Permutation,
    ReductionReport,
    cohn_lempel_matrix,
    compose_cycle_with_transpositions,
    even_extension,
    orbit_count,
    orbit_count_via_nullity,
    parse_permutation,
    permutation_to_digraph,
    sigma_transposition_factorization,
    verify_permutation_reduction,
)

# Every name imported above, without the submodules that importing them binds here.
__all__ = sorted(k for k, v in vars().items() if k[0] != "_" and not isinstance(v, _ModuleType))
