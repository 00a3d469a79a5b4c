"""List-coloring toolkit for 2-colorable (and arbitrary) hypergraphs."""

from .choosability import (
    ChoosabilityVerdict,
    choice_number,
    chromatic_number,
    color_from_lists,
    is_f_choosable,
)
from .core import (
    Bipartition,
    Coloring,
    Hypergraph,
    ListAssignment,
    Metrics,
    Orientation,
    bipartition_is_valid,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_proper,
    metrics,
    orientation_is_valid,
    parse_hypergraph,
    serialize_hypergraph,
    validate,
)
from .degree_constrained import (
    IncidenceSelection,
    build_selection,
    gk_selection,
    list_color_gk,
)
from .dense import (
    DenseExperimentReport,
    PaletteSplit,
    complete_proper_exists,
    cond_corollary,
    cond_ert_upper,
    expected_counts,
    feasibility_margin,
    is_dangerous,
    is_monochromatic,
    lower_bound_experiment,
    random_split_color,
    random_split_color_report,
    sample_split,
    split_experiment,
    split_probability,
)
from .density import (
    SparseBound,
    bound_degree,
    bound_gk,
    bound_sparse,
    density_exact,
    density_flow,
    edge_density,
)
from .errors import (
    GuardExceededError,
    HgrFormatError,
    PreconditionError,
    TheoremContradictionError,
)
from .nullstellensatz import (
    CrossingTree,
    ExpandCheck,
    MonomialTarget,
    coefficient_count,
    crossing_tree,
    expand_check,
    fstar_coefficients,
    monomial_coefficient,
)
from .orientation import (
    PairGraph,
    hall_orientation,
    list_color_sparse,
    min_orientation,
    reduce_to_pairgraph,
)

__version__ = "0.1.0"
